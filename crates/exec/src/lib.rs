//! # nova-exec — a real multi-threaded streaming-join executor
//!
//! The discrete-event simulator in [`nova_runtime`] *models* a cluster;
//! this crate *runs* one on the local machine. It takes the same inputs
//! — a [`Topology`], a one-hop latency oracle and a deployed
//! [`Dataflow`] — and executes them on OS threads: one thread per
//! source task, one per join instance, one for the sink, connected by
//! bounded MPSC channels that exert real backpressure. Tuples are
//! physically generated, routed, matched in windowed symmetric hash
//! joins (reusing the simulator's [`nova_runtime::WindowBuffers`]) and
//! collected at the sink as [`nova_runtime::OutputRecord`]s.
//!
//! ## The hybrid time model
//!
//! Emission is paced against a wall clock (optionally dilated by
//! [`ExecConfig::time_scale`]), so threads really stream, block and
//! contend. The *geo-distributed* part of the model — link latencies
//! and per-node tuple/s capacities — is enforced in virtual time by the
//! shared per-node [`metrics::NodePacer`]s: every tuple pays its wire
//! delays and service slots arithmetically (same formulas as the
//! simulator's single-server queues) while the data movement itself
//! runs as fast as the hardware allows. This gives both numbers the
//! ROADMAP cares about from a single run: model-domain latency and
//! throughput that cross-validate against the simulator, and raw
//! hardware throughput ([`ExecResult::input_tuples_per_wall_s`]).
//!
//! Determinism: event times, window assignment, partition choice and
//! the selectivity test are all pure functions of the config seed, so
//! uncongested runs deliver *count-identical* results across
//! executions; only per-output timestamps vary with OS scheduling.
//!
//! ## Parallelism
//!
//! There is one engine. [`ExecConfig::shards`] is the only thing that
//! selects parallelism: `1` is thread-per-operator, `N` fans each join
//! instance out to `N` worker threads, hash-partitioned by `(window,
//! pair, sub-key)` so shards share no state and counts stay identical
//! (see [`sharded`] — one routing rule, derived from
//! [`ExecConfig::key_space`], not a knob). On a keyed workload even a
//! single hot pair with one giant window splits by join sub-key across
//! shards — the executor scales with cores, not with the number of
//! pairs. Every shard runs the same
//! join state machine (`join::JoinCore`) behind the same bounded
//! channels ([`channel`]); DESIGN.md §5 records why the earlier M:N
//! cooperative scheduler was removed.
//!
//! ## Example
//!
//! Place a 1-pair query at the sink, run it unsharded and on four
//! shards per instance and check they agree (the count-identity
//! invariant the test suite pins at scale — see
//! `tests/exec_vs_sim.rs`):
//!
//! ```
//! use nova_core::baselines::sink_based;
//! use nova_core::{JoinQuery, StreamSpec};
//! use nova_exec::{execute, ExecConfig};
//! use nova_runtime::Dataflow;
//! use nova_topology::{NodeRole, Topology};
//!
//! let mut t = Topology::new();
//! let sink = t.add_node(NodeRole::Sink, 1000.0, "sink");
//! let l = t.add_node(NodeRole::Source, 1000.0, "l");
//! let r = t.add_node(NodeRole::Source, 1000.0, "r");
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
//! let cfg = ExecConfig {
//!     duration_ms: 500.0,
//!     window_ms: 100.0,
//!     time_scale: 8.0,               // 500 virtual ms in ~63 wall ms
//!     max_queue_ms: f64::INFINITY,   // drop-free ⇒ counts are exact
//!     ..ExecConfig::default()
//! };
//! let unsharded = execute(&t, dist, &df, &cfg).expect("config is valid");
//! assert!(unsharded.delivered > 0);
//!
//! // Same run with the instance fanned out to 4 shard threads.
//! let sharded_cfg = ExecConfig { shards: 4, ..cfg };
//! let sharded = execute(&t, dist, &df, &sharded_cfg).expect("config is valid");
//! assert_eq!(sharded.matched, unsharded.matched);
//! assert_eq!(sharded.delivered, unsharded.delivered);
//! assert_eq!(sharded.threads, unsharded.threads + 3);
//! ```

pub(crate) mod affinity;
pub mod autoscale;
pub mod channel;
pub mod control;
pub mod join;
pub mod metrics;
pub mod sharded;
pub mod worker;

use nova_runtime::{Dataflow, SimConfig};
use nova_topology::{NodeId, Topology};

pub use autoscale::{
    AutoscaleConfig, AutoscaleReport, Autoscaler, Decision, DecisionRecord, DistFn, Evaluation,
    Policy, RecordedSwitch, Relocator,
};
pub use control::{launch, EpochStats, ExecHandle, ReconfigError};
pub use metrics::{
    Counters, ExecResult, HistogramSnapshot, MetricsSnapshot, NodePacer, NodeSnapshot,
    ShardSnapshot, SourceSnapshot, SubscribeError,
};
pub use nova_runtime::PlanSwitch;
pub use sharded::{key_bucket_of, shard_of};
pub use worker::VirtualClock;

/// Executor parameters. The virtual-domain fields mirror
/// [`SimConfig`] so a simulator experiment can be replayed on the
/// executor unchanged (see [`ExecConfig::from_sim`]); every other field
/// is one that callers of this workspace set to different values
/// (DESIGN.md §5 records the fields that were not).
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Virtual stream duration in ms: sources emit `rate × duration`
    /// tuples and the run drains in-flight work afterwards.
    pub duration_ms: f64,
    /// Tumbling window length in ms. Must be positive and finite.
    pub window_ms: f64,
    /// Join selectivity (deterministic per tuple pair, shared with the
    /// simulator).
    pub selectivity: f64,
    /// Watermark advance required between window-state GC passes.
    pub gc_interval_ms: f64,
    /// Seed for partition assignment and the selectivity test.
    pub seed: u64,
    /// Bounded per-node queue cap in ms of backlog (load shedding).
    pub max_queue_ms: f64,
    /// Virtual ms per wall ms: 1.0 = real time, 4.0 runs a 2 s virtual
    /// experiment in 0.5 s of wall time. Must be positive and finite.
    pub time_scale: f64,
    /// Tuples per channel message: sources accumulate a
    /// [`channel::TupleBatch`] per downstream shard and flush it at
    /// this size (or at a pacing stall / barrier / Eof, so partial
    /// batches are never stranded); join workers probe one whole batch
    /// per state-machine step and re-frame their outputs to the same
    /// size. Purely a throughput/latency knob — batch size is
    /// *unobservable* in the counts (the batch-equivalence property
    /// suite pins emitted/matched/delivered identical across batch
    /// sizes and to the simulator). Must be ≥ 1.
    pub batch_size: usize,
    /// Join shards per deployed instance. 1 = classic thread-per-
    /// operator; >1 hash-partitions each instance's tuples by
    /// `(window, pair, sub-key)` across that many dedicated worker
    /// threads (see [`sharded`]). Count results are identical either
    /// way on drop-free runs.
    pub shards: usize,
    /// Cardinality of the per-tuple join sub-key space (workload
    /// property, mirrors [`SimConfig::key_space`]). 1 = unkeyed
    /// cross-product windows; >1 draws each tuple's sub-key from
    /// `[0, key_space)` via [`nova_runtime::subkey_of`] and restricts
    /// matching to equal sub-keys. With `shards > 1` it is also what
    /// spreads one pair's window across shards: co-keyed tuples
    /// co-locate, distinct sub-keys hash apart.
    pub key_space: u32,
    /// Wall-clock grace (ms) [`ExecHandle::apply`] grants the old
    /// shard generation to quiesce before giving up with
    /// [`control::ReconfigError::QuiesceTimeout`]. Quiescing is
    /// bounded by the time sources need to *reach* the epoch — the
    /// run's own pacing — so the default (60 s) is generous; tests
    /// that deliberately arm unreachable epochs shrink it. Must be
    /// positive and finite.
    pub quiesce_grace_ms: f64,
    /// Pin join workers to cores. `true` pins each shard thread to one
    /// core, round-robin over the machine's cores (`false`, the default,
    /// leaves placement to the OS scheduler). Sources and the sink stay
    /// unpinned either way. A performance hint only: pinning is
    /// silently skipped where unsupported (non-Linux, cpuset-restricted
    /// containers) and never affects counts.
    pub pin_workers: bool,
    /// Telemetry plane switch. `true` (the default) wires the
    /// [`metrics::MetricsRegistry`] into every worker at launch —
    /// per-shard instruments and latency/service histograms — making
    /// [`ExecHandle::metrics`]/[`ExecHandle::subscribe`] live.
    /// The hot-path cost is one relaxed atomic increment per event
    /// (the repo benchmark reports it as `exec.telemetry_overhead_pct`).
    /// `false` skips registration entirely: workers
    /// carry no instrument handles and snapshots degrade to the coarse
    /// shared [`Counters`].
    pub telemetry: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        let sim = SimConfig::default();
        ExecConfig {
            duration_ms: sim.duration_ms,
            window_ms: sim.window_ms,
            selectivity: sim.selectivity,
            gc_interval_ms: sim.gc_interval_ms,
            seed: sim.seed,
            max_queue_ms: sim.max_queue_ms,
            time_scale: 1.0,
            batch_size: 256,
            shards: 1,
            key_space: 1,
            quiesce_grace_ms: 60_000.0,
            pin_workers: false,
            telemetry: true,
        }
    }
}

impl ExecConfig {
    /// Replay a simulator configuration on the executor, dilating time
    /// by `time_scale`.
    pub fn from_sim(sim: &SimConfig, time_scale: f64) -> Self {
        ExecConfig {
            duration_ms: sim.duration_ms,
            window_ms: sim.window_ms,
            selectivity: sim.selectivity,
            gc_interval_ms: sim.gc_interval_ms,
            seed: sim.seed,
            max_queue_ms: sim.max_queue_ms,
            time_scale,
            key_space: sim.key_space,
            ..ExecConfig::default()
        }
    }

    /// Reject configurations whose zero-valued knobs would otherwise be
    /// clamped silently deep in the hot path (or, for a hand-rolled
    /// router calling [`shard_of`]-style arithmetic directly, divide by
    /// zero). [`execute`] and [`launch`] run this at entry so a typo'd
    /// `--shards 0` fails loudly at the boundary instead of producing a
    /// quietly different layout — and a zero, negative or NaN
    /// `window_ms` / `time_scale` is refused instead of folding every
    /// tuple into one window or running on a substituted clock. A
    /// `gc_interval_ms` the simulator could not finish with is refused
    /// too, so every valid config can be replayed there.
    pub fn validate(&self) -> Result<(), ExecConfigError> {
        if self.shards == 0 {
            return Err(ExecConfigError::ZeroShards);
        }
        let positive_finite = |v: f64| v > 0.0 && v.is_finite();
        if !positive_finite(self.window_ms) {
            return Err(ExecConfigError::NonPositiveWindow);
        }
        if !positive_finite(self.time_scale) {
            return Err(ExecConfigError::NonPositiveTimeScale);
        }
        if !positive_finite(self.gc_interval_ms) {
            return Err(ExecConfigError::NonPositiveGcInterval);
        }
        if self.key_space == 0 {
            return Err(ExecConfigError::ZeroKeySpace);
        }
        if self.batch_size == 0 {
            return Err(ExecConfigError::ZeroBatchSize);
        }
        if !positive_finite(self.quiesce_grace_ms) {
            return Err(ExecConfigError::NonPositiveQuiesceGrace);
        }
        Ok(())
    }
}

/// A rejected [`ExecConfig`] — see [`ExecConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecConfigError {
    /// `shards == 0`: there is no zero-shard layout; the historical
    /// behavior silently clamped to 1.
    ZeroShards,
    /// `window_ms` is zero, negative, NaN or infinite: window
    /// assignment divides event time by it, so every tuple would fold
    /// into window 0 (or `u64::MAX`).
    NonPositiveWindow,
    /// `time_scale` is zero, negative, NaN or infinite: the virtual
    /// clock multiplies wall time by it; the historical behavior
    /// silently substituted 1.0.
    NonPositiveTimeScale,
    /// `gc_interval_ms` is zero, negative, NaN or infinite: the
    /// simulator re-arms its GC event `gc_interval_ms` after the last
    /// one, so it would never leave that instant and this config could
    /// not be replayed there.
    NonPositiveGcInterval,
    /// `key_space == 0`: the sub-key space is a workload property with
    /// minimum cardinality 1 (= unkeyed).
    ZeroKeySpace,
    /// `batch_size == 0`: a zero-capacity batch can never fill, so
    /// sources would buffer forever and flush nothing.
    ZeroBatchSize,
    /// `quiesce_grace_ms` is zero, negative, NaN or infinite: the
    /// reconfiguration deadline must be a positive finite wall-clock
    /// duration.
    NonPositiveQuiesceGrace,
}

impl std::fmt::Display for ExecConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecConfigError::ZeroShards => {
                write!(
                    f,
                    "ExecConfig::shards must be >= 1 (1 = thread-per-operator)"
                )
            }
            ExecConfigError::NonPositiveWindow => write!(
                f,
                "ExecConfig::window_ms must be a positive finite window length"
            ),
            ExecConfigError::NonPositiveTimeScale => write!(
                f,
                "ExecConfig::time_scale must be a positive finite virtual-per-wall ratio"
            ),
            ExecConfigError::NonPositiveGcInterval => write!(
                f,
                "ExecConfig::gc_interval_ms must be a positive finite watermark advance"
            ),
            ExecConfigError::ZeroKeySpace => write!(
                f,
                "ExecConfig::key_space must be >= 1 (1 = unkeyed workload, sub-key 0)"
            ),
            ExecConfigError::ZeroBatchSize => write!(
                f,
                "ExecConfig::batch_size must be >= 1 tuple per channel batch"
            ),
            ExecConfigError::NonPositiveQuiesceGrace => write!(
                f,
                "ExecConfig::quiesce_grace_ms must be a positive finite wall-clock duration"
            ),
        }
    }
}

impl std::error::Error for ExecConfigError {}

/// Execute a dataflow to completion — the executor-side counterpart of
/// [`nova_runtime::simulate`]. A plain run is a reconfigurable run that
/// never reconfigures: this is [`launch`] followed by
/// [`ExecHandle::join`].
///
/// The configuration is validated at entry: zero-valued knobs
/// (`shards`, `key_space`, `batch_size`) and non-positive or non-finite
/// `window_ms` / `time_scale` / `gc_interval_ms` / `quiesce_grace_ms`
/// return a descriptive [`ExecConfigError`] instead of being clamped
/// silently — or worse, panicking deep inside a worker.
pub fn execute(
    topology: &Topology,
    dist: impl FnMut(NodeId, NodeId) -> f64,
    dataflow: &Dataflow,
    cfg: &ExecConfig,
) -> Result<ExecResult, ExecConfigError> {
    Ok(launch(topology, dist, dataflow, cfg)?.join())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_core::baselines::{sink_based, source_based};
    use nova_core::{JoinQuery, StreamSpec};
    use nova_topology::NodeRole;

    /// sink(0), left src(1), right src(2), worker(3) — the engine's
    /// test world, reused so exec results are directly comparable.
    fn world(sink_cap: f64, src_cap: f64, worker_cap: f64) -> (Topology, JoinQuery) {
        let mut t = Topology::new();
        let sink = t.add_node(NodeRole::Sink, sink_cap, "sink");
        let l = t.add_node(NodeRole::Source, src_cap, "l");
        let r = t.add_node(NodeRole::Source, src_cap, "r");
        t.add_node(NodeRole::Worker, worker_cap, "w");
        let q = JoinQuery::by_key(
            vec![StreamSpec::keyed(l, 20.0, 1)],
            vec![StreamSpec::keyed(r, 20.0, 1)],
            sink,
        );
        (t, q)
    }

    fn flat_dist(a: NodeId, b: NodeId) -> f64 {
        if a == b {
            0.0
        } else {
            10.0
        }
    }

    /// Uncongested test config: unbounded queues make the run
    /// structurally drop-free, so exact-count and dropped == 0 asserts
    /// hold under any OS schedule (at time_scale 8 a ~30 ms scheduler
    /// stall is ~250 virtual ms — enough to trip a bounded queue
    /// spuriously on a loaded host). Tests that exercise shedding opt
    /// back into a bounded queue explicitly.
    fn fast_cfg(duration_ms: f64) -> ExecConfig {
        ExecConfig {
            duration_ms,
            window_ms: 100.0,
            time_scale: 8.0,
            max_queue_ms: f64::INFINITY,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn sink_join_produces_outputs_with_sane_latency() {
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let res = execute(&t, flat_dist, &df, &fast_cfg(2000.0)).expect("valid config");
        assert!(res.delivered > 0, "no outputs: {res:?}");
        // One network hop (10 ms) lower-bounds latency; an uncongested
        // run stays well under the window + a few hops.
        assert!(res.mean_latency() >= 10.0, "mean {}", res.mean_latency());
        assert!(res.mean_latency() < 300.0, "mean {}", res.mean_latency());
        assert_eq!(res.dropped, 0);
        assert_eq!(res.threads, 4);
    }

    #[test]
    fn emission_rate_matches_configuration() {
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let res = execute(&t, flat_dist, &df, &fast_cfg(5000.0)).expect("valid config");
        // 2 sources × 20 tuples/s × 5 s = 200 (±1 boundary tuple each).
        assert!(
            (res.emitted as i64 - 200).abs() <= 2,
            "emitted {}",
            res.emitted
        );
    }

    #[test]
    fn source_colocation_contends_for_source_capacity() {
        // Joins co-located with slow sources must charge the source
        // node twice per tuple (ingest + join), showing up in busy time.
        let (t, q) = world(1000.0, 50.0, 1000.0);
        let plan = q.resolve();
        let p = source_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let res = execute(&t, flat_dist, &df, &fast_cfg(2000.0)).expect("valid config");
        assert!(res.delivered > 0);
        // Each source ingests 20 t/s at 20 ms/tuple; the join host pays
        // double duty, so some node's busy time exceeds ingest-only.
        let max_busy = res.node_busy_ms.iter().cloned().fold(0.0, f64::max);
        assert!(max_busy > 2000.0 * 0.4, "busy {max_busy}");
    }

    #[test]
    fn overloaded_sink_sheds_and_bounds_latency() {
        let (t, q) = world(15.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let cfg = ExecConfig {
            max_queue_ms: ExecConfig::default().max_queue_ms,
            ..fast_cfg(10_000.0)
        };
        let res = execute(&t, flat_dist, &df, &cfg).expect("valid config");
        assert!(res.dropped > 0, "bounded queues must shed load: {res:?}");
        // The queue cap bounds model-domain latency.
        assert!(
            res.latency_percentile(1.0) <= ExecConfig::default().max_queue_ms + 100.0,
            "p100 {}",
            res.latency_percentile(1.0)
        );
    }

    #[test]
    fn zero_knob_configs_error_instead_of_panicking_or_hanging() {
        // Regression (bug sweep): shards/key_space of 0 used to be
        // clamped silently inside the executor — and a hand-rolled
        // caller doing `x % shards` arithmetic would panic; a
        // non-positive or NaN time_scale was swapped for 1.0 by the
        // clock, and such a window_ms folded every tuple into one
        // window in release builds; a non-positive gc_interval_ms ran
        // here but spun the simulator until `max_events`. Each must now
        // fail loudly at the `execute` boundary with a descriptive error.
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let base = fast_cfg(100.0);
        let window = |window_ms| ExecConfig { window_ms, ..base };
        let scale = |time_scale| ExecConfig { time_scale, ..base };
        let gc = |gc_interval_ms| ExecConfig {
            gc_interval_ms,
            ..base
        };
        for (cfg, want) in [
            (
                ExecConfig { shards: 0, ..base },
                ExecConfigError::ZeroShards,
            ),
            (window(0.0), ExecConfigError::NonPositiveWindow),
            (window(-100.0), ExecConfigError::NonPositiveWindow),
            (window(f64::NAN), ExecConfigError::NonPositiveWindow),
            (window(f64::INFINITY), ExecConfigError::NonPositiveWindow),
            (scale(0.0), ExecConfigError::NonPositiveTimeScale),
            (scale(-8.0), ExecConfigError::NonPositiveTimeScale),
            (scale(f64::NAN), ExecConfigError::NonPositiveTimeScale),
            (scale(f64::INFINITY), ExecConfigError::NonPositiveTimeScale),
            (gc(0.0), ExecConfigError::NonPositiveGcInterval),
            (gc(-50.0), ExecConfigError::NonPositiveGcInterval),
            (gc(f64::NAN), ExecConfigError::NonPositiveGcInterval),
            (gc(f64::INFINITY), ExecConfigError::NonPositiveGcInterval),
            (
                ExecConfig {
                    key_space: 0,
                    ..base
                },
                ExecConfigError::ZeroKeySpace,
            ),
            (
                ExecConfig {
                    batch_size: 0,
                    ..base
                },
                ExecConfigError::ZeroBatchSize,
            ),
        ] {
            assert_eq!(cfg.validate(), Err(want));
            assert_eq!(execute(&t, flat_dist, &df, &cfg).unwrap_err(), want);
            assert!(launch(&t, flat_dist, &df, &cfg).is_err());
            // The message names the knob — "descriptive error".
            let msg = want.to_string();
            assert!(
                msg.contains("ExecConfig::") && msg.contains("must be"),
                "{msg}"
            );
        }
    }

    #[test]
    fn uncongested_runs_are_count_deterministic() {
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let cfg = ExecConfig {
            selectivity: 0.5,
            ..fast_cfg(3000.0)
        };
        let a = execute(&t, flat_dist, &df, &cfg).expect("valid config");
        let b = execute(&t, flat_dist, &df, &cfg).expect("valid config");
        assert_eq!(a.emitted, b.emitted);
        assert_eq!(a.matched, b.matched);
        assert_eq!(a.delivered, b.delivered);
    }
}
