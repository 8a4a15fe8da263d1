//! The discrete-event stream-processing engine.
//!
//! Stands in for the paper's 14-Raspberry-Pi NebulaStream testbed
//! (§4.7): nodes are single servers with a tuple/s service capacity and
//! FIFO queues (an overloaded node's queue — and therefore its latency —
//! grows without bound, which is exactly the backpressure collapse the
//! end-to-end figures show), links add latency per hop, and operators
//! pay one service slot per tuple they ingest, forward or process.
//!
//! The engine executes a [`Dataflow`] for a fixed duration of simulated
//! time and records every join result delivered to the sink with its
//! end-to-end latency — the raw series behind Fig. 11 (throughput) and
//! Fig. 12 (latency percentiles).
//!
//! There is one event loop. [`simulate`] and [`simulate_reconfigured`]
//! are that loop under its two horizon rules: the first cuts the run at
//! `duration_ms`, the second lets in-flight work drain (and replays
//! live [`PlanSwitch`]es between drained phases).

use std::collections::BinaryHeap;
use std::sync::Arc;

use nova_core::{PairId, Side};
use nova_topology::{NodeId, Topology};
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::dataflow::{Dataflow, PlanSwitch};
use crate::tuple::{OutputTuple, Tuple};
use crate::window::{BufferedTuple, WindowBuffers};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Total simulated time in ms (the paper runs 2-minute = 120 000 ms
    /// experiments).
    pub duration_ms: f64,
    /// Tumbling window length in ms (paper sweeps 1 ms – 1 s).
    pub window_ms: f64,
    /// Probability that a window-matched tuple pair emits an output
    /// (models the join predicate's selectivity beyond the window/region
    /// condition; keeps output volume bounded).
    pub selectivity: f64,
    /// Garbage-collection cadence for window state. Must be positive
    /// and finite: the GC event re-arms itself this far ahead.
    pub gc_interval_ms: f64,
    /// RNG seed (partition assignment).
    pub seed: u64,
    /// Safety valve on total processed events.
    pub max_events: u64,
    /// Bounded per-node queue: a tuple arriving at a node whose backlog
    /// already exceeds this many milliseconds is dropped (load shedding /
    /// backpressure — real engines bound their buffers; the paper's
    /// overloaded baselines shed rather than queue forever).
    pub max_queue_ms: f64,
    /// Cardinality of the per-tuple join sub-key space. `1` (the
    /// default) reproduces the classic workload: every tuple carries
    /// sub-key 0 and a window's tuples form one cross-product. `> 1`
    /// draws each tuple's sub-key from `[0, key_space)` via
    /// [`subkey_of`] and restricts matching to equal sub-keys — the
    /// keyed equi-join that key-partitioned sharding
    /// (`nova-exec`'s key buckets) relies on.
    pub key_space: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration_ms: 10_000.0,
            window_ms: 100.0,
            selectivity: 1.0,
            gc_interval_ms: 500.0,
            seed: 0x51,
            max_events: 200_000_000,
            max_queue_ms: 250.0,
            key_space: 1,
        }
    }
}

/// One join result delivered to the sink.
#[derive(Debug, Clone, Copy)]
pub struct OutputRecord {
    /// Simulation time of delivery (ms).
    pub arrival_ms: f64,
    /// End-to-end latency: delivery − event time of the later input.
    pub latency_ms: f64,
    /// Producing pair.
    pub pair: PairId,
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Delivered join results in arrival order.
    pub outputs: Vec<OutputRecord>,
    /// Tuples emitted by all sources.
    pub emitted: u64,
    /// Join matches produced (before selectivity-surviving outputs reach
    /// the sink; includes in-flight results the run cut off).
    pub matched: u64,
    /// Outputs delivered to the sink within the run (= `outputs.len()`).
    pub delivered: u64,
    /// Busy milliseconds accumulated per node (service time).
    pub node_busy_ms: Vec<f64>,
    /// Tuples dropped by bounded node queues (load shedding).
    pub dropped: u64,
    /// Whether the run hit the `max_events` safety valve.
    pub truncated: bool,
}

impl SimResult {
    /// Delivered outputs per second of simulated time. Zero-or-negative
    /// durations yield 0.0 rather than `inf`/`NaN`, as on the
    /// executor's `ExecResult`.
    pub fn throughput_per_s(&self, duration_ms: f64) -> f64 {
        if duration_ms <= 0.0 {
            return 0.0;
        }
        self.delivered as f64 / (duration_ms / 1000.0)
    }

    /// Mean end-to-end latency of delivered outputs.
    pub fn mean_latency(&self) -> f64 {
        if self.outputs.is_empty() {
            return 0.0;
        }
        self.outputs.iter().map(|o| o.latency_ms).sum::<f64>() / self.outputs.len() as f64
    }

    /// Latency percentile (q in [0, 1], e.g. 0.9999 for the paper's
    /// 99.99th percentile), nearest-rank semantics — see [`percentile`].
    pub fn latency_percentile(&self, q: f64) -> f64 {
        let v: Vec<f64> = self.outputs.iter().map(|o| o.latency_ms).collect();
        percentile(&v, q)
    }

    /// Utilization of a node over the run: busy time / duration.
    /// Zero-or-negative durations yield 0.0 rather than `inf`/`NaN`.
    pub fn utilization(&self, node: NodeId, duration_ms: f64) -> f64 {
        if duration_ms <= 0.0 {
            return 0.0;
        }
        self.node_busy_ms.get(node.idx()).copied().unwrap_or(0.0) / duration_ms
    }
}

/// What travels a route hop by hop: an input tuple on its way to a join
/// instance, or a join result on its way to the sink.
#[derive(Debug, Clone, Copy)]
enum Cargo {
    Input { instance: u32, tuple: Tuple },
    Output(OutputTuple),
}

#[derive(Debug, Clone)]
enum EventKind {
    /// A source produces its next tuple.
    Emit { source: u32 },
    /// `cargo` arrives at `path[hop]`: one service slot there, then on to
    /// the next hop — or, at the end of the path, into the join
    /// (inputs) or the result set (outputs).
    Arrive {
        path: Arc<Vec<NodeId>>,
        hop: u32,
        cargo: Cargo,
    },
    /// Service at the instance node completed: run the join logic.
    InputReady { instance: u32, tuple: Tuple },
    /// Periodic window-state garbage collection.
    Gc,
}

struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed for a min-heap on (time, seq).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pending events, earliest first; equal times pop in push order.
#[derive(Default)]
struct Agenda {
    heap: BinaryHeap<Event>,
    seq: u64,
}

impl Agenda {
    fn push(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Event {
            time,
            seq: self.seq,
            kind,
        });
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }
}

/// The cluster's nodes as single-server FIFO queues.
struct Servers {
    /// Service time in ms/tuple; 0 ⇒ pure relay (capacity ≤ 0).
    service_ms: Vec<f64>,
    busy_until: Vec<f64>,
    busy_ms: Vec<f64>,
    max_queue_ms: f64,
}

impl Servers {
    fn new(topology: &Topology, max_queue_ms: f64) -> Servers {
        let n = topology.len();
        let mut servers = Servers {
            service_ms: vec![0.0; n],
            busy_until: vec![0.0; n],
            busy_ms: vec![0.0; n],
            max_queue_ms,
        };
        for nd in topology.nodes() {
            servers.set_capacity(nd.id, nd.capacity);
        }
        servers
    }

    /// Backlogs carry over at the service charge they were queued at.
    fn set_capacity(&mut self, node: NodeId, tuples_per_s: f64) {
        self.service_ms[node.idx()] = if tuples_per_s > 0.0 {
            1000.0 / tuples_per_s
        } else {
            0.0
        };
    }

    /// Queue one tuple at `node` at time `now`; its completion time, or
    /// `None` when the bounded queue sheds it.
    fn serve(&mut self, node: NodeId, now: f64) -> Option<f64> {
        let i = node.idx();
        let s = self.service_ms[i];
        if s == 0.0 {
            return Some(now);
        }
        if self.busy_until[i] - now > self.max_queue_ms {
            return None;
        }
        let done = self.busy_until[i].max(now) + s;
        self.busy_until[i] = done;
        self.busy_ms[i] += s;
        Some(done)
    }
}

/// What a run does with work past `duration_ms` — the one difference
/// between [`simulate`] and [`simulate_reconfigured`]. Sources stop
/// emitting at `duration_ms` under both.
#[derive(Clone, Copy)]
enum Horizon {
    /// The run ends at `duration_ms`: the loop stops at the first event
    /// past it, and a result whose last hop completes after it is not
    /// delivered.
    Cut,
    /// In-flight work runs to completion, however long it takes.
    Drain,
}

impl Horizon {
    /// Whether something happening at `t_ms` is still part of the run.
    fn keeps(self, t_ms: f64, duration_ms: f64) -> bool {
        match self {
            Horizon::Cut => t_ms <= duration_ms,
            Horizon::Drain => true,
        }
    }
}

/// Run the dataflow on the simulated cluster for `cfg.duration_ms` and
/// report what the sink has seen by then.
///
/// `dist(a, b)` is the one-hop network latency oracle in ms.
///
/// The horizon is a **cut**: sources emit at `t <= duration_ms`, the
/// event loop stops at the first event past `duration_ms`, and a join
/// result counts as delivered only if its last hop completes by
/// `duration_ms`. Tuples still queued or in flight at that instant are
/// lost to `matched`/`delivered` — what a wall-clock-limited testbed
/// run reports (Figs. 11–12). [`simulate_reconfigured`] with no
/// switches is the same event loop with the other horizon, so on a
/// drop-free run this result is an exact prefix of that one: equal
/// `emitted`, and `outputs` equal to its outputs with
/// `arrival_ms <= duration_ms`.
///
/// # Panics
/// Panics if `cfg.gc_interval_ms` is not positive and finite.
pub fn simulate(
    topology: &Topology,
    dist: impl FnMut(NodeId, NodeId) -> f64,
    dataflow: &Dataflow,
    cfg: &SimConfig,
) -> SimResult {
    run(topology, dist, dataflow, &[], cfg, Horizon::Cut)
}

/// First post-epoch emission time of a source — the emission-grid
/// continuation rule shared verbatim by the executor's sources and the
/// simulator's plan-switch replay (one definition, so the two engines
/// cannot disagree on the post-epoch workload):
///
/// * an **unchanged** rate continues the old grid — the emission the
///   barrier pre-empted (`pending_ms`) fires as scheduled, so a
///   route-only reconfiguration is count-transparent;
/// * a **changed** rate starts a fresh grid at the epoch, staggered by
///   source index exactly like the initial grid (`epoch + interval ·
///   i/n`).
///
/// Interval equality is exact (`f64 ==`): both engines derive intervals
/// as `1000.0 / rate` from the same plan values, so equal rates give
/// bit-equal intervals.
pub fn resume_time(
    pending_ms: f64,
    old_interval_ms: f64,
    new_interval_ms: f64,
    epoch_ms: f64,
    source: usize,
    n_sources: usize,
) -> f64 {
    if new_interval_ms == old_interval_ms {
        pending_ms
    } else {
        admission_time(epoch_ms, new_interval_ms, source, n_sources)
    }
}

/// First emission time of a source joining (or re-gridding) at an
/// epoch: the initial stagger formula re-anchored at the boundary,
/// `epoch + interval · i/n`. Shared by three call sites that must
/// agree bit-for-bit for the count-identity contract to hold:
///
/// * [`resume_time`]'s changed-rate branch (both engines);
/// * the executor's `ExecHandle::add_source`, which parks the admitted
///   source until the epoch and starts it here;
/// * [`simulate_reconfigured`]'s replay of a mid-run source admission
///   (a [`PlanSwitch`] whose post plan
///   *appends* sources).
///
/// `n_sources` is the **post-epoch** source count — admission changes
/// the stagger denominator for every re-gridded source, so both
/// engines must derive it from the same (post) plan.
pub fn admission_time(epoch_ms: f64, interval_ms: f64, source: usize, n_sources: usize) -> f64 {
    epoch_ms + interval_ms * (source as f64 / n_sources.max(1) as f64)
}

/// Replay a dataflow through a sequence of live [`PlanSwitch`]es — the
/// simulator half of the reconfiguration count-identity contract, and
/// (with `switches` empty) the reference every executor count is held
/// to.
///
/// Same event loop as [`simulate`]; the horizon is a **drain**: sources
/// still stop emitting at `duration_ms`, but every tuple emitted by
/// then is served, probed and — if it matches — delivered, however
/// late. That is the executor's semantics (its shards consume their
/// FIFO backlog before they retire), which is why the executor's
/// reference is this function and not [`simulate`]: on drop-free runs
/// `emitted`/`matched`/`delivered` are *identical* between this replay
/// and an executor run, whereas a cut loses whatever was in flight at
/// the horizon.
///
/// Each switch splits the run into phases, mirroring the executor's
/// epoch barrier:
///
/// * emissions of phase *k* satisfy `t < epoch_{k+1}` (and
///   `t <= duration_ms`); the post-epoch grid per source follows
///   [`resume_time`];
/// * a switch whose post plan **appends** sources replays a mid-run
///   stream admission (the executor's `ExecHandle::add_source`): the
///   new sources start on the [`admission_time`] grid of their first
///   phase and emit nothing before it. Removing sources is not
///   replayed (the source set may only grow);
/// * a phase's events are **drained completely** before the switch —
///   every pre-epoch tuple probes and lands in pre-epoch window state,
///   exactly as the executor's shards quiesce at the barrier;
/// * at the switch, every live `(window, key)` group migrates from its
///   old instance to `succ[old]`'s buffers (dropped when `None`)
///   without re-probing — pre/pre matches were already counted; post
///   tuples probe the migrated state;
/// * node capacity updates take effect at the switch (backlogs carry
///   over at their old service charge, as in the executor's pacers).
///
/// # Panics
/// Panics if `cfg.gc_interval_ms` is not positive and finite.
pub fn simulate_reconfigured(
    topology: &Topology,
    dist: impl FnMut(NodeId, NodeId) -> f64,
    dataflow: &Dataflow,
    switches: &[PlanSwitch],
    cfg: &SimConfig,
) -> SimResult {
    run(topology, dist, dataflow, switches, cfg, Horizon::Drain)
}

/// The event loop behind both entry points: one phase per plan, each
/// drained before the switch that ends it; `horizon` decides what
/// happens to work past `cfg.duration_ms`.
///
/// # Panics
/// Panics if `cfg.gc_interval_ms` is not positive and finite: the GC
/// event would re-arm at (or before) its own instant and the loop would
/// spin until `max_events`.
fn run(
    topology: &Topology,
    mut dist: impl FnMut(NodeId, NodeId) -> f64,
    dataflow: &Dataflow,
    switches: &[PlanSwitch],
    cfg: &SimConfig,
    horizon: Horizon,
) -> SimResult {
    assert!(
        cfg.gc_interval_ms > 0.0 && cfg.gc_interval_ms.is_finite(),
        "SimConfig::gc_interval_ms must be positive and finite, got {}",
        cfg.gc_interval_ms
    );
    let fresh_buffers = |n: usize| -> Vec<WindowBuffers> {
        std::iter::repeat_with(WindowBuffers::new).take(n).collect()
    };

    let mut servers = Servers::new(topology, cfg.max_queue_ms);
    let mut agenda = Agenda::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut buffers = fresh_buffers(dataflow.instances.len());
    let mut per_stream_seq: Vec<u64> = Vec::new();
    // Per source: its next emission time, once an epoch or the duration
    // pre-empted it. Index i names the same stream in every phase.
    let mut pending: Vec<f64> = Vec::new();

    let mut outputs = Vec::new();
    let mut emitted = 0u64;
    let mut matched = 0u64;
    let mut dropped = 0u64;
    let mut processed_events = 0u64;
    let mut truncated = false;

    // The current phase: its plan and the epoch that opened it.
    let mut df = dataflow;
    let mut epoch_ms = 0.0;
    let mut upcoming = switches.iter();
    'phases: loop {
        let switch = upcoming.next();
        let phase_end = switch.map_or(f64::INFINITY, |sw| sw.epoch_ms);
        let emits_at = |t: f64| t < phase_end && t <= cfg.duration_ms;

        // Sources new to this phase (all of them in the first) join the
        // grid staggered from its epoch, to avoid phase artifacts.
        let n_sources = df.sources.len();
        per_stream_seq.resize(n_sources, 0);
        for i in pending.len()..n_sources {
            pending.push(admission_time(
                epoch_ms,
                1000.0 / df.sources[i].rate,
                i,
                n_sources,
            ));
        }
        for (i, &t0) in pending.iter().enumerate() {
            if emits_at(t0) && df.sources[i].rate > 0.0 {
                agenda.push(t0, EventKind::Emit { source: i as u32 });
            }
        }
        let first_gc = epoch_ms + cfg.gc_interval_ms;
        if emits_at(first_gc) {
            agenda.push(first_gc, EventKind::Gc);
        }

        while let Some(ev) = agenda.pop() {
            let now = ev.time;
            if !horizon.keeps(now, cfg.duration_ms) {
                break 'phases;
            }
            processed_events += 1;
            if processed_events > cfg.max_events {
                truncated = true;
                break 'phases;
            }
            match ev.kind {
                EventKind::Emit { source } => {
                    let s = &df.sources[source as usize];
                    emitted += 1;
                    per_stream_seq[source as usize] += 1;
                    let tuple_seq = per_stream_seq[source as usize];
                    // Ingestion costs one service slot on the source
                    // node; a saturated source sheds the sample.
                    if let Some(ingest_done) = servers.serve(s.node, now) {
                        let subkey = subkey_of(cfg.seed, source, tuple_seq, cfg.key_space);
                        for feed in &s.feeds {
                            // Weighted partition assignment.
                            let partition = pick_partition(&feed.partition_rates, &mut rng);
                            let tuple = Tuple {
                                pair: feed.pair,
                                side: s.side,
                                partition: partition as u32,
                                key: s.key,
                                subkey,
                                seq: tuple_seq,
                                event_time: now,
                            };
                            for route in &feed.routes[partition] {
                                let instance = route.instance;
                                if route.path.len() >= 2 {
                                    agenda.push(
                                        ingest_done + dist(route.path[0], route.path[1]),
                                        EventKind::Arrive {
                                            path: Arc::clone(&route.path),
                                            hop: 1,
                                            cargo: Cargo::Input { instance, tuple },
                                        },
                                    );
                                } else {
                                    // Join co-located with the source:
                                    // the join work still needs its own
                                    // service slot.
                                    match servers.serve(s.node, ingest_done) {
                                        Some(done) => agenda
                                            .push(done, EventKind::InputReady { instance, tuple }),
                                        None => dropped += 1,
                                    }
                                }
                            }
                        }
                    } else {
                        dropped += 1;
                    }
                    let next = now + 1000.0 / s.rate;
                    if emits_at(next) {
                        agenda.push(next, EventKind::Emit { source });
                    } else {
                        pending[source as usize] = next;
                    }
                }
                EventKind::Arrive { path, hop, cargo } => {
                    let node = path[hop as usize];
                    let Some(done) = servers.serve(node, now) else {
                        dropped += 1;
                        continue;
                    };
                    match (path.get(hop as usize + 1).copied(), cargo) {
                        (Some(next), _) => agenda.push(
                            done + dist(node, next),
                            EventKind::Arrive {
                                path,
                                hop: hop + 1,
                                cargo,
                            },
                        ),
                        (None, Cargo::Input { instance, tuple }) => {
                            agenda.push(done, EventKind::InputReady { instance, tuple })
                        }
                        (None, Cargo::Output(out)) => {
                            if horizon.keeps(done, cfg.duration_ms) {
                                outputs.push(OutputRecord {
                                    arrival_ms: done,
                                    latency_ms: done - out.event_time,
                                    pair: out.pair,
                                });
                            }
                        }
                    }
                }
                EventKind::InputReady { instance, tuple } => {
                    let inst = &df.instances[instance as usize];
                    let window = WindowBuffers::window_of(tuple.event_time, cfg.window_ms);
                    // Zero-copy keyed probe: partners are visited in place,
                    // in insertion order, restricted to the tuple's
                    // `(window, subkey)` group — for unkeyed workloads
                    // (key_space 1, subkey 0) this is the classic flat
                    // per-window probe.
                    buffers[instance as usize].insert_and_probe_with(
                        window,
                        tuple.subkey,
                        tuple.side,
                        BufferedTuple {
                            seq: tuple.seq,
                            event_time: tuple.event_time,
                        },
                        |partner| {
                            if !match_survives(
                                tuple.seq,
                                partner.seq,
                                tuple.side,
                                cfg.selectivity,
                                cfg.seed,
                            ) {
                                return;
                            }
                            matched += 1;
                            let out = OutputTuple {
                                pair: inst.pair,
                                key: tuple.key,
                                event_time: tuple.event_time.max(partner.event_time),
                            };
                            if inst.out_path.len() <= 1 {
                                // Join runs on the sink itself.
                                outputs.push(OutputRecord {
                                    arrival_ms: now,
                                    latency_ms: now - out.event_time,
                                    pair: out.pair,
                                });
                            } else {
                                agenda.push(
                                    now + dist(inst.out_path[0], inst.out_path[1]),
                                    EventKind::Arrive {
                                        path: Arc::clone(&inst.out_path),
                                        hop: 1,
                                        cargo: Cargo::Output(out),
                                    },
                                );
                            }
                        },
                    );
                }
                EventKind::Gc => {
                    // Watermark = now minus one window of allowed lateness.
                    let watermark = now - cfg.window_ms;
                    for b in &mut buffers {
                        b.gc(watermark, cfg.window_ms);
                    }
                    let next = now + cfg.gc_interval_ms;
                    if emits_at(next) {
                        agenda.push(next, EventKind::Gc);
                    }
                }
            }
        }

        // The epoch: window state moves to each instance's successor,
        // capacities update, and every source's grid continues or
        // restarts by `resume_time`.
        let Some(sw) = switch else { break };
        let post = &sw.dataflow;
        assert_eq!(
            sw.succ.len(),
            buffers.len(),
            "succession map must cover every old instance"
        );
        let old_buffers = std::mem::replace(&mut buffers, fresh_buffers(post.instances.len()));
        for (mut old, succ) in old_buffers.into_iter().zip(&sw.succ) {
            if let Some(new) = *succ {
                buffers[new as usize].import_groups(old.export_groups());
            }
        }
        for &(node, cap) in &sw.node_capacity {
            servers.set_capacity(node, cap);
        }
        let n_post = post.sources.len();
        assert!(
            n_post >= n_sources,
            "plan switches may append sources (mid-run admission) but never remove them \
             ({n_sources} -> {n_post})"
        );
        for (i, p) in pending.iter_mut().enumerate() {
            *p = resume_time(
                *p,
                1000.0 / df.sources[i].rate,
                1000.0 / post.sources[i].rate,
                sw.epoch_ms,
                i,
                n_post,
            );
        }
        df = post;
        epoch_ms = sw.epoch_ms;
    }

    outputs.sort_unstable_by(|a, b| a.arrival_ms.total_cmp(&b.arrival_ms));
    let delivered = outputs.len() as u64;
    SimResult {
        outputs,
        emitted,
        matched,
        delivered,
        node_busy_ms: servers.busy_ms,
        dropped,
        truncated,
    }
}

/// Nearest-rank percentile of a sample: the value at rank
/// `ceil(q · n)` (1-indexed, clamped to `[1, n]`) of the sorted data —
/// the paper-standard definition, shared by [`SimResult`] and the
/// executor's `ExecResult` so the two engines' tail numbers can never
/// disagree on semantics.
///
/// The previous copy-pasted implementations used `round((n−1)·q)`
/// nearest-*index*, which under-reports the tail: p99.99 over n = 200
/// picked rank 199 instead of 200. Nearest-rank pins `q = 1` to the
/// maximum and never rounds a tail quantile downward. Empty samples
/// yield 0.0.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    v[rank - 1]
}

/// Weighted random partition choice proportional to partition rates.
///
/// Shared by the simulator and the threaded executor (`nova-exec`) so
/// both use the same weighting logic (their RNG *streams* differ: the
/// simulator draws from one global seeded generator, the executor from
/// per-source ones, so individual choices are not pairwise identical).
/// Degenerate weight vectors — all-zero,
/// negative-summing or non-finite totals, as produced by a pathological
/// σ decomposition — fall back to a uniform choice instead of handing
/// `gen_range` an empty `0.0..0.0` range (which panics).
pub fn pick_partition(rates: &[f64], rng: &mut StdRng) -> usize {
    if rates.len() <= 1 {
        return 0;
    }
    let total: f64 = rates.iter().sum();
    if total.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !total.is_finite() {
        return rng.gen_range(0..rates.len());
    }
    let mut pick = rng.gen_range(0.0..total);
    for (i, r) in rates.iter().enumerate() {
        if pick < *r {
            return i;
        }
        pick -= r;
    }
    rates.len() - 1
}

/// Deterministic per-tuple join sub-key in `[0, key_space)`.
///
/// Pure function of `(seed, stream, seq)` — a 64-bit finalizer mix over
/// the emitting stream's index and the tuple's per-stream sequence
/// number — shared by the simulator and the executor so both engines
/// stamp the *same* sub-key onto the same tuple. `key_space <= 1`
/// short-circuits to 0: the unkeyed workload, where every tuple of a
/// window is a join candidate.
///
/// The sub-key is the coordinate keyed sub-pair sharding routes on
/// (`nova-exec`'s `shard_of(window, pair, bucket)`): because matching
/// requires *equal* sub-keys and equal sub-keys always map to the same
/// key bucket, hash-splitting a window's state by sub-key never
/// separates a matching pair.
pub fn subkey_of(seed: u64, stream: u32, seq: u64, key_space: u32) -> u32 {
    if key_space <= 1 {
        return 0;
    }
    let mut x = seed
        ^ (stream as u64).rotate_left(40)
        ^ seq.wrapping_mul(0xA24B_AED4_963E_E407)
        ^ 0xD6E8_FEB8_6659_FD93;
    x ^= x >> 32;
    x = x.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    x ^= x >> 28;
    (x % key_space as u64) as u32
}

/// Deterministic selectivity test: a (left seq, right seq) pair matches
/// with probability `selectivity`, independent of arrival order.
///
/// Pure function of `(seed, selectivity, seqs)` and shared by the
/// simulator and the threaded executor, so a given tuple pair survives
/// in both or in neither — the property the exec-vs-sim cross-validation
/// tests rely on.
pub fn match_survives(a_seq: u64, b_seq: u64, a_side: Side, selectivity: f64, seed: u64) -> bool {
    if selectivity >= 1.0 {
        return true;
    }
    let (l, r) = match a_side {
        Side::Left => (a_seq, b_seq),
        Side::Right => (b_seq, a_seq),
    };
    let mut x = seed ^ (l.wrapping_mul(0x9E3779B97F4A7C15)) ^ r.rotate_left(17);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    unit < selectivity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Dataflow;
    use nova_core::baselines::{host_based, sink_based, source_based};
    use nova_core::{JoinQuery, StreamSpec};
    use nova_topology::NodeRole;

    /// sink(0), left src(1), right src(2), worker(3). All links 10 ms.
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

    #[test]
    fn sink_join_produces_outputs_with_sane_latency() {
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let cfg = SimConfig {
            duration_ms: 2000.0,
            window_ms: 100.0,
            ..Default::default()
        };
        let res = simulate(&t, flat_dist, &df, &cfg);
        assert!(res.delivered > 0, "no outputs: {res:?}");
        // Latency ≥ one network hop (10 ms) and far below the run length
        // on an uncongested cluster.
        assert!(res.mean_latency() >= 10.0, "mean {}", res.mean_latency());
        assert!(res.mean_latency() < 300.0, "mean {}", res.mean_latency());
        assert!(!res.truncated);
    }

    #[test]
    #[should_panic(expected = "gc_interval_ms must be positive and finite")]
    fn zero_gc_interval_panics_instead_of_spinning() {
        // A zero interval re-arms the GC event at its own instant, so
        // without the entry check the loop spins until `max_events`.
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let df = Dataflow::from_baseline(&q, &sink_based(&q, &plan));
        let cfg = SimConfig {
            duration_ms: 100.0,
            gc_interval_ms: 0.0,
            max_events: 100_000,
            ..Default::default()
        };
        simulate(&t, flat_dist, &df, &cfg);
    }

    #[test]
    fn emission_rate_matches_configuration() {
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let cfg = SimConfig {
            duration_ms: 5000.0,
            ..Default::default()
        };
        let res = simulate(&t, flat_dist, &df, &cfg);
        // 2 sources × 20 tuples/s × 5 s = 200 (±1 boundary tuple each).
        assert!(
            (res.emitted as i64 - 200).abs() <= 2,
            "emitted {}",
            res.emitted
        );
    }

    #[test]
    fn overloaded_sink_collapses_latency_and_throughput() {
        // Sink can process only 15 tuples/s but ingests 40/s: latency is
        // pegged near the bounded-queue cap and throughput collapses.
        let (t_slow, q) = world(15.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let cfg = SimConfig {
            duration_ms: 20_000.0,
            window_ms: 100.0,
            ..Default::default()
        };
        let slow = simulate(&t_slow, flat_dist, &df, &cfg);

        let (t_fast, _) = world(4000.0, 1000.0, 1000.0);
        let fast = simulate(&t_fast, flat_dist, &df, &cfg);

        assert!(
            slow.delivered < fast.delivered / 2,
            "overload must cut throughput: slow {} fast {}",
            slow.delivered,
            fast.delivered
        );
        assert!(
            slow.latency_percentile(0.9) > 5.0 * fast.latency_percentile(0.9),
            "overload must blow up tail latency: slow {} fast {}",
            slow.latency_percentile(0.9),
            fast.latency_percentile(0.9)
        );
        // The bounded queue sheds load rather than queueing forever.
        assert!(slow.dropped > 0, "bounded queues must shed load");
        assert!(
            slow.latency_percentile(1.0) <= cfg.max_queue_ms + 100.0,
            "latency stays bounded by the queue cap: {}",
            slow.latency_percentile(1.0)
        );
        // Latency grows from the cold start to the saturated regime.
        let early = slow.outputs.first().unwrap().latency_ms;
        let late = slow.outputs.last().unwrap().latency_ms;
        assert!(late > early, "queue growth: early {early} late {late}");
    }

    #[test]
    fn source_placement_pays_ingestion_contention() {
        // Joins co-located with sources share the source's tiny capacity.
        let (t, q) = world(1000.0, 25.0, 1000.0);
        let plan = q.resolve();
        let p_src = source_based(&q, &plan);
        let p_sink = sink_based(&q, &plan);
        let cfg = SimConfig {
            duration_ms: 15_000.0,
            window_ms: 100.0,
            ..Default::default()
        };
        let src_res = simulate(&t, flat_dist, &Dataflow::from_baseline(&q, &p_src), &cfg);
        let sink_res = simulate(&t, flat_dist, &Dataflow::from_baseline(&q, &p_sink), &cfg);
        // With a fast sink and slow sources, sink placement wins.
        assert!(
            src_res.latency_percentile(0.9) > sink_res.latency_percentile(0.9),
            "src 90P {} vs sink 90P {}",
            src_res.latency_percentile(0.9),
            sink_res.latency_percentile(0.9)
        );
    }

    #[test]
    fn selectivity_scales_output_volume() {
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let full = simulate(
            &t,
            flat_dist,
            &df,
            &SimConfig {
                duration_ms: 5000.0,
                selectivity: 1.0,
                ..Default::default()
            },
        );
        let half = simulate(
            &t,
            flat_dist,
            &df,
            &SimConfig {
                duration_ms: 5000.0,
                selectivity: 0.5,
                ..Default::default()
            },
        );
        let ratio = half.delivered as f64 / full.delivered as f64;
        assert!((0.35..0.65).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn windows_bound_matching() {
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        // Tiny windows: ~1 tuple/window/side ⇒ few matches. Large
        // windows: every pair in a window matches ⇒ many more.
        let small = simulate(
            &t,
            flat_dist,
            &df,
            &SimConfig {
                duration_ms: 5000.0,
                window_ms: 10.0,
                ..Default::default()
            },
        );
        let large = simulate(
            &t,
            flat_dist,
            &df,
            &SimConfig {
                duration_ms: 5000.0,
                window_ms: 1000.0,
                ..Default::default()
            },
        );
        assert!(
            large.delivered > 3 * small.delivered,
            "large {} small {}",
            large.delivered,
            small.delivered
        );
    }

    #[test]
    fn pick_partition_survives_all_zero_rates() {
        // Regression: `gen_range(0.0..0.0)` used to panic when every
        // partition rate was zero; now the choice falls back to uniform.
        let mut rng = StdRng::seed_from_u64(9);
        for rates in [vec![0.0, 0.0, 0.0], vec![0.0, -0.0], vec![f64::NAN, 1.0]] {
            let p = pick_partition(&rates, &mut rng);
            assert!(p < rates.len(), "{rates:?} -> {p}");
        }
        // Single-partition and healthy vectors are untouched.
        assert_eq!(pick_partition(&[0.0], &mut rng), 0);
        assert_eq!(pick_partition(&[5.0], &mut rng), 0);
        let p = pick_partition(&[1.0, 3.0], &mut rng);
        assert!(p < 2);
    }

    #[test]
    fn pick_partition_uniform_fallback_covers_all_indices() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[pick_partition(&[0.0; 4], &mut rng)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "fallback must reach every partition: {seen:?}"
        );
    }

    #[test]
    fn subkey_is_stable_in_range_and_spreads() {
        for key_space in [2u32, 7, 64] {
            let mut seen = vec![false; key_space as usize];
            for stream in 0..3u32 {
                for seq in 1..500u64 {
                    let k = subkey_of(0x51, stream, seq, key_space);
                    assert!(k < key_space);
                    assert_eq!(k, subkey_of(0x51, stream, seq, key_space));
                    seen[k as usize] = true;
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "sub-keys must reach every value of [0, {key_space})"
            );
        }
        // key_space 1 is the unkeyed workload: everything is sub-key 0.
        assert_eq!(subkey_of(0x51, 3, 17, 1), 0);
        assert_eq!(subkey_of(0x51, 3, 17, 0), 0);
    }

    #[test]
    fn keyed_workload_restricts_matching() {
        // With sub-keys drawn from [0, K), only ~1/K of the window
        // cross-product matches — the keyed join must deliver strictly
        // fewer results than the unkeyed run, but still some.
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let base = SimConfig {
            duration_ms: 5000.0,
            window_ms: 1000.0,
            ..Default::default()
        };
        let unkeyed = simulate(&t, flat_dist, &df, &base);
        let keyed = simulate(
            &t,
            flat_dist,
            &df,
            &SimConfig {
                key_space: 8,
                ..base
            },
        );
        assert!(keyed.delivered > 0, "keyed join must still match");
        assert!(
            keyed.matched * 4 < unkeyed.matched,
            "key_space 8 must cut the match volume: keyed {} unkeyed {}",
            keyed.matched,
            unkeyed.matched
        );
    }

    #[test]
    fn percentile_uses_ceil_nearest_rank() {
        // Known vector 1..=200: nearest-rank pins the tail exactly.
        let v: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.5), 100.0, "p50 = rank ceil(100)");
        // Regression: round((n-1)·q) picked rank 199 here — the
        // under-reported tail the shared helper exists to fix.
        assert_eq!(percentile(&v, 0.9999), 200.0, "p99.99 = rank ceil(199.98)");
        assert_eq!(percentile(&v, 1.0), 200.0, "p100 = max");
        assert_eq!(percentile(&v, 0.0), 1.0, "q=0 clamps to rank 1");
        // Small-n sanity + unsorted input.
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// One event loop, two horizons: with no switches the drained replay
    /// and the cut run process the same events in the same order up to
    /// `duration_ms`, so on a drop-free run the cut result is an exact
    /// prefix of the drained one.
    #[test]
    fn plain_sim_is_the_exact_prefix_of_the_switchless_replay() {
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        // Keyed, multi-hop: the join runs on the worker; the left input
        // relays over the right source's queue and the output over the
        // left source's.
        let (l, r) = (NodeId(1), NodeId(2));
        let mut detour = host_based(&q, &plan, NodeId(3));
        for rep in &mut detour.replicas {
            rep.left_path = vec![l, r, rep.node];
            rep.out_path = vec![rep.node, l, q.sink];
        }
        for (name, placement, key_space) in [
            ("sink join", sink_based(&q, &plan), 1),
            ("worker join over relays", detour, 2),
        ] {
            let df = Dataflow::from_baseline(&q, &placement);
            let cfg = SimConfig {
                // Off the emission grid, so tuples are in flight at the cut.
                duration_ms: 2980.0,
                window_ms: 500.0,
                selectivity: 0.6,
                max_queue_ms: f64::INFINITY,
                key_space,
                ..Default::default()
            };
            let plain = simulate(&t, flat_dist, &df, &cfg);
            let replay = simulate_reconfigured(&t, flat_dist, &df, &[], &cfg);
            assert_eq!((plain.dropped, replay.dropped), (0, 0), "{name}");
            assert_eq!(plain.emitted, replay.emitted, "{name}");
            assert_eq!(
                replay.delivered, replay.matched,
                "{name}: a drain delivers all"
            );
            let bits = |o: &OutputRecord| (o.arrival_ms.to_bits(), o.latency_ms.to_bits(), o.pair);
            let prefix: Vec<_> = replay
                .outputs
                .iter()
                .filter(|o| o.arrival_ms <= cfg.duration_ms)
                .map(bits)
                .collect();
            assert!(!prefix.is_empty(), "{name}: nothing delivered");
            assert!(
                prefix.len() < replay.outputs.len(),
                "{name}: the drain must see a tail the cut loses"
            );
            assert_eq!(
                plain.outputs.iter().map(bits).collect::<Vec<_>>(),
                prefix,
                "{name}"
            );
        }
    }

    #[test]
    fn zero_duration_rates_are_zero_not_nan() {
        // Mirrors `ExecResult`: both engines answer 0.0, not inf/NaN.
        let res = SimResult {
            outputs: Vec::new(),
            emitted: 5,
            matched: 3,
            delivered: 3,
            node_busy_ms: vec![2.0],
            dropped: 0,
            truncated: false,
        };
        for d in [0.0, -1.0] {
            assert_eq!(res.throughput_per_s(d), 0.0);
            assert_eq!(res.utilization(NodeId(0), d), 0.0);
        }
        assert_eq!(res.throughput_per_s(1000.0), 3.0);
        assert_eq!(res.utilization(NodeId(0), 4.0), 0.5);
    }

    #[test]
    fn rate_preserving_switch_is_count_transparent() {
        // Re-placing the join (sink -> worker) mid-run without touching
        // rates must not change what is emitted or matched: the
        // emission grid continues (resume_time) and the straddling
        // window's state migrates to the new instance.
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let sink_p = sink_based(&q, &plan);
        let src_p = source_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &sink_p);
        let cfg = SimConfig {
            duration_ms: 3000.0,
            window_ms: 200.0,
            selectivity: 0.7,
            max_queue_ms: f64::INFINITY,
            ..Default::default()
        };
        let unreconfigured = simulate_reconfigured(&t, flat_dist, &df, &[], &cfg);
        // Epoch deliberately *not* window-aligned: 1250 straddles the
        // [1200, 1400) window, so pre/post matching spans the handoff.
        let sw = crate::dataflow::PlanSwitch::between(1250.0, &q, &sink_p, &src_p, 1.0);
        let switched = simulate_reconfigured(&t, flat_dist, &df, &[sw], &cfg);
        assert_eq!(switched.dropped, 0);
        assert_eq!(switched.emitted, unreconfigured.emitted);
        assert_eq!(switched.matched, unreconfigured.matched);
        assert_eq!(switched.delivered, unreconfigured.delivered);
    }

    #[test]
    fn rate_change_switch_restarts_the_grid_at_the_epoch() {
        let (t, q) = world(1000.0, 1000.0, 1000.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let cfg = SimConfig {
            duration_ms: 4000.0,
            window_ms: 100.0,
            max_queue_ms: f64::INFINITY,
            ..Default::default()
        };
        // Double both rates at t = 2000: emitted ≈ 2·40·2 + 2·80·2.
        let mut q2 = q.clone();
        q2.left[0].rate = 40.0;
        q2.right[0].rate = 40.0;
        let p2 = sink_based(&q2, &q2.resolve());
        let sw = crate::dataflow::PlanSwitch::between(2000.0, &q2, &p, &p2, 1.0);
        let res = simulate_reconfigured(&t, flat_dist, &df, &[sw], &cfg);
        assert_eq!(res.dropped, 0);
        let expected = 2.0 * 20.0 * 2.0 + 2.0 * 40.0 * 2.0;
        assert!(
            (res.emitted as f64 - expected).abs() <= 4.0,
            "emitted {} vs expected {expected}",
            res.emitted
        );
        assert!(res.delivered > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (t, q) = world(100.0, 100.0, 100.0);
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        let cfg = SimConfig {
            duration_ms: 3000.0,
            ..Default::default()
        };
        let a = simulate(&t, flat_dist, &df, &cfg);
        let b = simulate(&t, flat_dist, &df, &cfg);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.emitted, b.emitted);
        assert_eq!(a.mean_latency(), b.mean_latency());
    }
}
