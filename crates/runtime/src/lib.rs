//! # nova-runtime — discrete-event stream-processing testbed
//!
//! A deterministic discrete-event simulator of a distributed
//! stream-processing engine, standing in for the 14-node Raspberry-Pi
//! NebulaStream cluster of the paper's end-to-end evaluation (§4.7; see
//! DESIGN.md §3 for the substitution argument). It executes the
//! placements produced by [`nova_core`] — Nova's and every baseline's —
//! under identical conditions and measures what the paper measures:
//! delivered throughput and end-to-end latency percentiles (mean to
//! 99.99P), under normal and CPU-stressed conditions.
//!
//! The model:
//!
//! * **Nodes** are single-server queues with a tuple/s capacity; every
//!   ingested, forwarded or processed tuple consumes one service slot.
//!   Overloaded nodes build unbounded queues, so their latency grows over
//!   the run — the backpressure collapse visible in Fig. 11.
//! * **Links** add latency per hop from a pluggable oracle (measured
//!   matrices, `tc`-style injected delays, or cost-space estimates).
//! * **Operators**: sources emit at fixed rates (ingestion shares the
//!   source node's capacity — co-locating joins with sources is *not*
//!   free), windowed symmetric-hash joins match tuples per (pair,
//!   tumbling window), the sink records arrival/latency per result.
//!
//! One event loop runs it, behind two entry points that differ only in
//! what happens to work past `duration_ms`: [`simulate`] cuts the run
//! there (the testbed measurement), [`simulate_reconfigured`] drains
//! in-flight work and replays live [`PlanSwitch`]es — with no switches,
//! a drop-free [`simulate`] result is its exact prefix.
//!
//! Everything is deterministic given the [`engine::SimConfig`] seed:
//! two runs of the same configuration are byte-identical, which is what
//! lets `nova-exec` (the thread-level executor running the *same*
//! [`Dataflow`]s) cross-validate against the drained run count for
//! count.
//!
//! ## Example
//!
//! Place a 1-pair query at the sink and simulate it — determinism means
//! the rerun reproduces the first run exactly:
//!
//! ```
//! use nova_core::baselines::sink_based;
//! use nova_core::{JoinQuery, StreamSpec};
//! use nova_runtime::{simulate, Dataflow, SimConfig};
//! use nova_topology::{NodeRole, Topology};
//!
//! let mut t = Topology::new();
//! let sink = t.add_node(NodeRole::Sink, 1000.0, "sink");
//! let l = t.add_node(NodeRole::Source, 1000.0, "left");
//! let r = t.add_node(NodeRole::Source, 1000.0, "right");
//! let q = JoinQuery::by_key(
//!     vec![StreamSpec::keyed(l, 20.0, 1)],
//!     vec![StreamSpec::keyed(r, 20.0, 1)],
//!     sink,
//! );
//! let placement = sink_based(&q, &q.resolve());
//! let df = Dataflow::from_baseline(&q, &placement);
//! let dist = |a: nova_topology::NodeId, b: nova_topology::NodeId| {
//!     if a == b { 0.0 } else { 5.0 }
//! };
//!
//! let cfg = SimConfig {
//!     duration_ms: 1000.0,
//!     window_ms: 100.0,
//!     ..SimConfig::default()
//! };
//! let run = simulate(&t, dist, &df, &cfg);
//! assert!(run.delivered > 0);
//! assert!(run.mean_latency() >= 5.0, "one hop lower-bounds latency");
//!
//! let rerun = simulate(&t, dist, &df, &cfg);
//! assert_eq!(run.delivered, rerun.delivered, "seeded ⇒ reproducible");
//! ```

pub mod dataflow;
pub mod engine;
pub mod testbed;
pub mod tuple;
pub mod window;

pub use dataflow::{Dataflow, FeedSpec, JoinInstance, PlanSwitch, Route, SourceTask};
pub use engine::{
    admission_time, match_survives, percentile, pick_partition, resume_time, simulate,
    simulate_reconfigured, subkey_of, OutputRecord, SimConfig, SimResult,
};
pub use testbed::{run_placement, with_stress};
pub use tuple::{OutputTuple, Tuple};
pub use window::{BufferedTuple, VecWindowBuffers, WindowBuffers, WindowGroup};
