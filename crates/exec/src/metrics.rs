//! Shared accounting: per-node service pacing, run results, and the
//! live telemetry plane.
//!
//! The executor keeps the simulator's resource model — every node is a
//! single-server queue with a tuple/s capacity — but enforces it with
//! lock-free *virtual-time* accounting instead of a global event heap.
//! Each node has a [`NodePacer`]: an atomic `busy_until` timestamp in
//! virtual milliseconds. Reserving a service slot advances it by the
//! node's per-tuple service time; a reservation whose backlog exceeds
//! the bounded-queue cap is refused (load shedding), exactly like the
//! simulator's `serve`. Because the pacer is shared by every thread that
//! touches the node, co-located operators contend for the same capacity
//! — the ingestion-vs-join contention the paper's source-placement
//! experiments hinge on.
//!
//! ## The telemetry plane
//!
//! Everything above was historically observable only *after*
//! [`crate::ExecHandle::join`] returned. The [`MetricsRegistry`] turns
//! it into a live feed: per-shard / per-source / per-node instruments
//! that every worker updates on the hot path through **pre-resolved
//! handles** — each worker holds an `Arc` to its own instrument struct,
//! resolved once at spawn, so a hot-path update is a single
//! `fetch_add(_, Ordering::Relaxed)` on an uncontended cache line (no
//! map lookups, no locks). Gauges (channel queue depth, pacer backlog)
//! are *derived at read time* from pairs of monotonic counters and the
//! pacers' `busy_until`, so they cost the hot path nothing at all.
//! Latency and per-batch service time go into fixed-bucket log-scale
//! histograms ([`HistogramSnapshot`]); completed reconfiguration epochs
//! are published as their [`EpochStats`].
//!
//! Reads are wait-free for writers: [`MetricsRegistry::snapshot`] loads
//! each atomic individually (`Relaxed`), so a snapshot is a consistent
//! *monotonic* view — every counter in a later snapshot is ≥ its value
//! in an earlier one, and the final snapshot equals the
//! [`ExecResult`] counts — rather than a point-in-time atomic cut
//! (which would require stopping the world). That is exactly the
//! contract a sampling controller needs, and what the telemetry tests
//! pin across live reconfigurations at every shard count.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use nova_runtime::OutputRecord;
use nova_topology::NodeId;

use crate::control::EpochStats;
use crate::worker::{CompiledInstance, VirtualClock};

/// Lock-free single-server queue clock for one node.
#[derive(Debug)]
pub struct NodePacer {
    /// Virtual time (ms) until which the node is busy, as `f64` bits.
    busy_until: AtomicU64,
    /// Accumulated service time (ms), as `f64` bits.
    busy_ms: AtomicU64,
    /// Service time per tuple in ms, as `f64` bits; 0 ⇒ infinite
    /// capacity (pure relay). Atomic so live reconfiguration can apply
    /// a capacity change (§3.5) to a running pacer; already-reserved
    /// slots keep their old completion times, exactly like the
    /// simulator's replay.
    service_ms: AtomicU64,
    /// Bounded-queue cap: refuse work once the backlog exceeds this.
    max_queue_ms: f64,
}

/// Service time (ms/tuple) of a capacity in tuples/s; `<= 0` ⇒ relay.
fn service_ms_of(capacity: f64) -> f64 {
    if capacity > 0.0 {
        1000.0 / capacity
    } else {
        0.0
    }
}

impl NodePacer {
    /// Pacer for a node of the given capacity (tuples/s).
    pub fn new(capacity: f64, max_queue_ms: f64) -> Self {
        NodePacer {
            busy_until: AtomicU64::new(0f64.to_bits()),
            busy_ms: AtomicU64::new(0f64.to_bits()),
            service_ms: AtomicU64::new(service_ms_of(capacity).to_bits()),
            max_queue_ms,
        }
    }

    /// Update the node's capacity mid-run (live reconfiguration). The
    /// publishing control plane orders this before the new shard
    /// generation spawns and before the sources resume, so every
    /// post-epoch reservation observes the new rate.
    pub fn set_capacity(&self, capacity: f64) {
        // ORDERING: Release pairs with the Acquire load in `serve` —
        // a reservation that sees the new rate also sees everything
        // the control plane published before changing it.
        self.service_ms
            .store(service_ms_of(capacity).to_bits(), Ordering::Release);
    }

    /// Reserve one service slot for work arriving at virtual time `at`.
    ///
    /// Returns the completion time, or `None` if the backlog already
    /// exceeds the queue cap (the tuple is shed). Mirrors the
    /// simulator's `serve` byte for byte, but is safe to call from any
    /// thread: the reservation is a CAS loop over `busy_until`.
    pub fn serve(&self, at: f64) -> Option<f64> {
        // ORDERING: Acquire pairs with `set_capacity`'s Release, so a
        // post-reconfiguration reservation observes the new rate.
        let service_ms = f64::from_bits(self.service_ms.load(Ordering::Acquire));
        if service_ms == 0.0 {
            return Some(at);
        }
        loop {
            // ORDERING: the CAS loop is the queue — Acquire on the
            // read and AcqRel on the exchange make each successful
            // reservation happen-after the one whose `done` it builds
            // on, so completion times are monotone per node.
            let cur_bits = self.busy_until.load(Ordering::Acquire);
            let cur = f64::from_bits(cur_bits);
            if cur - at > self.max_queue_ms {
                return None;
            }
            let start = cur.max(at);
            let done = start + service_ms;
            if self
                .busy_until
                .compare_exchange_weak(
                    cur_bits,
                    done.to_bits(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                self.add_busy(service_ms);
                return Some(done);
            }
        }
    }

    fn add_busy(&self, delta: f64) {
        // ORDERING: busy_ms is a statistic, not a synchronizer — the
        // CAS only guards against a lost float addition; readers
        // tolerate any interleaving, so Relaxed throughout.
        let mut cur = self.busy_ms.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.busy_ms.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Total service time charged to this node so far (ms).
    pub fn busy_ms(&self) -> f64 {
        // ORDERING: monotone statistic; a marginally stale read only
        // shifts one telemetry sample.
        f64::from_bits(self.busy_ms.load(Ordering::Relaxed))
    }

    /// Virtual time (ms) until which the node is busy — the front of
    /// its single-server queue. `busy_until_ms() − now` is the node's
    /// backlog gauge in the telemetry plane.
    pub fn busy_until_ms(&self) -> f64 {
        // ORDERING: backlog gauge for samplers — staleness is bounded
        // by the sample interval, no ordering needed.
        f64::from_bits(self.busy_until.load(Ordering::Relaxed))
    }
}

/// Run-wide atomic counters shared by all workers.
#[derive(Debug, Default)]
pub struct Counters {
    /// Tuples generated by all sources.
    pub emitted: AtomicU64,
    /// Join matches that survived selectivity.
    pub matched: AtomicU64,
    /// Tuples/outputs shed by bounded node queues.
    pub dropped: AtomicU64,
}

impl Counters {
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64, by: u64) {
        // ORDERING: pure tally; the run's final values are fenced by
        // worker joins, live reads are statistics (DESIGN.md §8).
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

/// Results of one executor run. Field-compatible with
/// [`nova_runtime::SimResult`] so report code can treat either.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Delivered join results in arrival order (virtual ms).
    pub outputs: Vec<OutputRecord>,
    /// Tuples emitted by all sources.
    pub emitted: u64,
    /// Join matches produced (post-selectivity).
    pub matched: u64,
    /// Outputs delivered to the sink (= `outputs.len()`).
    pub delivered: u64,
    /// Busy milliseconds accumulated per node (virtual service time).
    pub node_busy_ms: Vec<f64>,
    /// Tuples dropped by bounded node queues (load shedding).
    pub dropped: u64,
    /// Real wall-clock duration of the run in ms (threads spawned to
    /// last join), for hardware-throughput reporting.
    pub wall_ms: f64,
    /// Number of OS threads the run used (sources + joins + sink).
    pub threads: usize,
    /// Per-epoch reconfiguration stats (pause/handoff wall times,
    /// migrated state), in epoch order — the same records
    /// [`crate::ExecHandle::epoch_stats`] reports live, surviving
    /// `join()` so post-run reports can include them.
    pub epochs: Vec<EpochStats>,
}

impl ExecResult {
    /// Delivered outputs per second of virtual time. Zero-or-negative
    /// durations yield 0.0 (matching
    /// [`ExecResult::input_tuples_per_wall_s`]) rather than `inf`/`NaN`.
    pub fn throughput_per_s(&self, duration_ms: f64) -> f64 {
        if duration_ms <= 0.0 {
            return 0.0;
        }
        self.delivered as f64 / (duration_ms / 1000.0)
    }

    /// Source tuples pushed through the executor per *wall-clock*
    /// second — the hardware-throughput number (`real_execution`
    /// example).
    pub fn input_tuples_per_wall_s(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.emitted as f64 / (self.wall_ms / 1000.0)
    }

    /// Mean end-to-end latency of delivered outputs (virtual ms).
    pub fn mean_latency(&self) -> f64 {
        if self.outputs.is_empty() {
            return 0.0;
        }
        self.outputs.iter().map(|o| o.latency_ms).sum::<f64>() / self.outputs.len() as f64
    }

    /// Latency percentile (q in [0, 1]), nearest-rank semantics via the
    /// helper shared with the simulator ([`nova_runtime::percentile`])
    /// — one definition of "p99.99" for both engines.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        let v: Vec<f64> = self.outputs.iter().map(|o| o.latency_ms).collect();
        nova_runtime::percentile(&v, q)
    }

    /// Outputs whose arrival time is within the first `duration_ms` of
    /// virtual time — the subset the simulator would have recorded
    /// before its cut-off (the executor drains in-flight work instead
    /// of truncating it).
    pub fn delivered_by(&self, duration_ms: f64) -> u64 {
        self.outputs
            .iter()
            .filter(|o| o.arrival_ms <= duration_ms)
            .count() as u64
    }

    /// Utilization of a node: busy time / duration. Zero-or-negative
    /// durations yield 0.0 rather than `inf`/`NaN`.
    pub fn utilization(&self, node: NodeId, duration_ms: f64) -> f64 {
        if duration_ms <= 0.0 {
            return 0.0;
        }
        self.node_busy_ms.get(node.idx()).copied().unwrap_or(0.0) / duration_ms
    }
}

// ---------------------------------------------------------------------------
// Telemetry plane: instruments, histograms, registry.
// ---------------------------------------------------------------------------

/// Number of log₂ buckets in a `LogHistogram`. Bucket `i` covers
/// `[2^i, 2^{i+1})` microseconds; 40 buckets reach ≈ 6 days — far past
/// any latency this executor can produce.
pub const HIST_BUCKETS: usize = 40;

/// Fixed-bucket log₂-scale histogram over microseconds. Recording is a
/// single `Relaxed` `fetch_add` on a pre-computed bucket index — cheap
/// enough for the per-output hot path.
#[derive(Debug)]
pub(crate) struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    /// Sum of recorded values in integer microseconds (read out as
    /// [`HistogramSnapshot::sum_ms`]).
    sum_us: AtomicU64,
}

impl LogHistogram {
    fn new() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn record_ms(&self, ms: f64) {
        // ORDERING: independent tallies — a scrape may see the bucket
        // without the sum for one in-flight sample, which histogram
        // consumers tolerate by construction; Relaxed keeps the hot
        // instrument at one uncontended RMW per field.
        let us = value_us(ms);
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Fold a locally-accumulated [`LatencyBatch`] in: one `fetch_add`
    /// per *occupied* bucket plus one for the sum, instead of two per
    /// recorded value.
    pub(crate) fn merge(&self, batch: &LatencyBatch) {
        // ORDERING: same contract as `record_ms` — per-bucket tallies,
        // torn scrapes are within the telemetry plane's error bars.
        for (i, &c) in batch.counts.iter().enumerate() {
            if c > 0 {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        if batch.sum_us > 0 {
            self.sum_us.fetch_add(batch.sum_us, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        // ORDERING: a scrape is a statistical sample, not a barrier —
        // each bucket is read atomically, cross-bucket skew is fine.
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum_ms: self.sum_us.load(Ordering::Relaxed) as f64 / 1000.0,
        }
    }
}

#[inline]
fn value_us(ms: f64) -> u64 {
    if ms.is_finite() && ms > 0.0 {
        (ms * 1000.0) as u64
    } else {
        0
    }
}

/// `(us | 1).ilog2()` maps `[2^i, 2^{i+1})` µs to bucket i, sub-µs to 0.
#[inline]
fn bucket_of(us: u64) -> usize {
    ((us | 1).ilog2() as usize).min(HIST_BUCKETS - 1)
}

/// Stack-local histogram accumulator: the sink fills one per output
/// batch and [`LogHistogram::merge`]s it in a handful of atomics,
/// keeping the per-output path allocation- and atomics-free.
#[derive(Debug)]
pub(crate) struct LatencyBatch {
    counts: [u64; HIST_BUCKETS],
    sum_us: u64,
    n: u64,
}

impl LatencyBatch {
    pub(crate) fn new() -> Self {
        LatencyBatch {
            counts: [0; HIST_BUCKETS],
            sum_us: 0,
            n: 0,
        }
    }

    #[inline]
    pub(crate) fn record_ms(&mut self, ms: f64) {
        let us = value_us(ms);
        self.counts[bucket_of(us)] += 1;
        self.sum_us += us;
        self.n += 1;
    }
}

/// Read-side view of a `LogHistogram` (the crate-private write side):
/// per-bucket counts plus the
/// value sum, with quantile estimation by bucket upper bound.
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    /// Count per log₂ bucket; bucket `i` covers `[2^i, 2^{i+1})` µs.
    pub counts: Vec<u64>,
    /// Sum of recorded values in milliseconds.
    pub sum_ms: f64,
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Inclusive upper bound of bucket `i` in milliseconds.
    pub fn bucket_upper_ms(i: usize) -> f64 {
        // Bucket i covers up to (but excluding) 2^{i+1} µs.
        (1u64 << (i + 1).min(63)) as f64 / 1000.0
    }

    /// Quantile estimate (`q` in `[0, 1]`): the upper bound of the
    /// first bucket whose cumulative count reaches `q × total`.
    /// Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper_ms(i);
            }
        }
        Self::bucket_upper_ms(self.counts.len().saturating_sub(1))
    }
}

/// Per-source instrument: resolved once at source spawn.
#[derive(Debug)]
pub(crate) struct SourceInstr {
    /// Source index in the query.
    pub index: u32,
    /// Node the source is pinned to.
    pub node: usize,
    emitted: AtomicU64,
}

impl SourceInstr {
    #[inline]
    pub(crate) fn on_emit(&self, n: u64) {
        // ORDERING: see `ShardInstr::on_send` — same tally contract.
        self.emitted.fetch_add(n, Ordering::Relaxed);
    }
}

/// Per-shard instrument: one per shard worker per generation,
/// resolved at spawn and shared with the sources that feed it (the
/// send-side counters double as the channel-depth gauge inputs).
#[derive(Debug)]
pub(crate) struct ShardInstr {
    generation: u64,
    instance: u32,
    shard: u32,
    pair: u32,
    /// Batches / tuples pushed into the shard's input channel.
    sent_msgs: AtomicU64,
    sent_tuples: AtomicU64,
    /// Batches / tuples the shard dequeued.
    recv_msgs: AtomicU64,
    recv_tuples: AtomicU64,
    /// Matches produced (post-selectivity), published per input batch —
    /// unlike the run-wide [`Counters::matched`], which is only
    /// published when a shard retires.
    matched: AtomicU64,
    /// Output tuples flushed toward the sink.
    out_tuples: AtomicU64,
    /// Set when the shard retires (end-of-stream or epoch quiesce).
    retired: AtomicBool,
}

impl ShardInstr {
    #[inline]
    pub(crate) fn on_send(&self, tuples: usize) {
        // ORDERING: all ShardInstr/SinkInstr updates are pure tallies
        // read by samplers — queue-depth gauges are *derived* as
        // sent − recv, and a torn read only misstates depth by one
        // in-flight batch for one sample. Relaxed everywhere keeps
        // the ≤ 3 % telemetry-overhead budget (DESIGN.md §8).
        self.sent_msgs.fetch_add(1, Ordering::Relaxed);
        self.sent_tuples.fetch_add(tuples as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn on_recv(&self, tuples: usize) {
        // ORDERING: see `on_send` — same tally contract.
        self.recv_msgs.fetch_add(1, Ordering::Relaxed);
        self.recv_tuples.fetch_add(tuples as u64, Ordering::Relaxed);
    }

    /// Add a batch's worth of matches — the join publishes its local
    /// count once per input batch, keeping the per-match path free of
    /// atomics (see [`crate::join::JoinCore::publish_matched`]).
    #[inline]
    pub(crate) fn on_matched(&self, n: u64) {
        // ORDERING: see `on_send` — same tally contract.
        self.matched.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn on_out(&self, tuples: usize) {
        // ORDERING: see `on_send` — same tally contract.
        self.out_tuples.fetch_add(tuples as u64, Ordering::Relaxed);
    }

    pub(crate) fn retire(&self) {
        // ORDERING: liveness flag for snapshot labeling only; the
        // epoch protocol itself synchronizes through the control
        // channel, not through this bit.
        self.retired.store(true, Ordering::Relaxed);
    }
}

/// Sink instrument: delivered outputs and tuples seen (delivered +
/// shed at the sink node).
#[derive(Debug, Default)]
pub(crate) struct SinkInstr {
    delivered: AtomicU64,
    seen: AtomicU64,
}

impl SinkInstr {
    #[inline]
    pub(crate) fn on_seen(&self, n: u64) {
        // ORDERING: see `ShardInstr::on_send` — same tally contract.
        self.seen.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn on_delivered(&self, n: u64) {
        // ORDERING: see `ShardInstr::on_send` — same tally contract.
        self.delivered.fetch_add(n, Ordering::Relaxed);
    }
}

/// Count one tuple shed by a bounded node queue.
#[inline]
pub(crate) fn count_drop(counters: &Counters) {
    Counters::bump(&counters.dropped, 1);
}

/// Pre-resolved telemetry handles for one source worker.
#[derive(Clone, Default)]
pub(crate) struct SourceTelemetry {
    pub instr: Option<Arc<SourceInstr>>,
    /// Send-side instruments of the *current* shard generation, indexed
    /// by flat shard id; swapped on every `Resume`.
    pub tx_instr: Vec<Arc<ShardInstr>>,
    /// Emissions accumulated since the last instrument flush — the
    /// per-tuple path stays atomics-free; [`SourceTelemetry::flush`]
    /// publishes at batch/pacing boundaries. (`Cell`: the handle lives
    /// on one worker thread.)
    pending_emit: std::cell::Cell<u64>,
}

impl SourceTelemetry {
    pub(crate) fn new(instr: Arc<SourceInstr>, tx_instr: Vec<Arc<ShardInstr>>) -> Self {
        SourceTelemetry {
            instr: Some(instr),
            tx_instr,
            pending_emit: std::cell::Cell::new(0),
        }
    }

    pub(crate) fn disabled() -> Self {
        SourceTelemetry::default()
    }

    #[inline]
    pub(crate) fn on_emit(&self) {
        if self.instr.is_some() {
            self.pending_emit.set(self.pending_emit.get() + 1);
        }
    }

    /// Publish the locally-accumulated emission count.
    #[inline]
    pub(crate) fn flush(&self) {
        if let Some(i) = &self.instr {
            let n = self.pending_emit.take();
            if n > 0 {
                i.on_emit(n);
            }
        }
    }

    #[inline]
    pub(crate) fn on_send(&self, flat: usize, tuples: usize) {
        if let Some(i) = self.tx_instr.get(flat) {
            i.on_send(tuples);
        }
    }
}

/// Pre-resolved telemetry handles for one shard worker (carried by
/// its [`crate::join::JoinCore`]).
#[derive(Debug, Clone)]
pub(crate) struct ShardTelemetry {
    pub registry: Arc<MetricsRegistry>,
    pub instr: Arc<ShardInstr>,
}

/// Pre-resolved telemetry handles for the sink worker.
#[derive(Clone)]
pub(crate) struct SinkTelemetry {
    pub registry: Arc<MetricsRegistry>,
    pub instr: Arc<SinkInstr>,
}

impl SinkTelemetry {
    /// Fold one output batch's delivery accounting in: delivered count
    /// and latency histogram, a few atomics per *batch*.
    #[inline]
    pub(crate) fn flush_batch(&self, batch: &LatencyBatch) {
        if batch.n > 0 {
            self.instr.on_delivered(batch.n);
            self.registry.latency.merge(batch);
        }
    }
}

/// The run-wide instrument registry: the write side is lock-free
/// pre-resolved handles (see the module docs); the read side derives a
/// monotonic [`MetricsSnapshot`] on demand. Instrument lists are
/// append-only across generations, so counters sampled in consecutive
/// snapshots never decrease.
pub struct MetricsRegistry {
    clock: VirtualClock,
    counters: Arc<Counters>,
    pacers: Arc<Vec<NodePacer>>,
    shards: Mutex<Vec<Arc<ShardInstr>>>,
    sources: Mutex<Vec<Arc<SourceInstr>>>,
    sink: Arc<SinkInstr>,
    latency: LogHistogram,
    service: LogHistogram,
    epochs: Mutex<Vec<EpochStats>>,
    /// Set by the control plane once every worker has joined and all
    /// counts are final; the subscription sampler sends one last
    /// snapshot (equal to the [`ExecResult`] counts) and exits.
    finished: AtomicBool,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MetricsRegistry { .. }")
    }
}

impl MetricsRegistry {
    pub(crate) fn new(
        clock: VirtualClock,
        counters: Arc<Counters>,
        pacers: Arc<Vec<NodePacer>>,
    ) -> Arc<Self> {
        // lint: allow(lock, the registry's mutexes guard *roster*
        // state — instrument lists and epoch stats —
        // touched at spawn/reconfiguration/scrape time; the per-tuple
        // instruments above them are plain atomics, DESIGN.md §8)
        Arc::new(MetricsRegistry {
            clock,
            counters,
            pacers,
            shards: Mutex::new(Vec::new()),
            sources: Mutex::new(Vec::new()),
            sink: Arc::new(SinkInstr::default()),
            latency: LogHistogram::new(),
            service: LogHistogram::new(),
            epochs: Mutex::new(Vec::new()),
            finished: AtomicBool::new(false),
        })
    }

    /// Register one source's instrument (at spawn).
    pub(crate) fn register_source(&self, index: u32, node: usize) -> Arc<SourceInstr> {
        let instr = Arc::new(SourceInstr {
            index,
            node,
            emitted: AtomicU64::new(0),
        });
        // lint: allow(lock, once per source spawn, not per tuple)
        // allow(panic, a poisoned roster means a worker crashed while
        // registering — nothing downstream is trustworthy, propagate)
        self.sources
            .lock()
            .expect("registry poisoned")
            .push(Arc::clone(&instr));
        instr
    }

    /// Register a full shard generation's instruments: one per flat
    /// shard index, appended to the (never-truncated) shard list.
    pub(crate) fn register_generation(
        &self,
        generation: u64,
        instances: &[CompiledInstance],
        shards: usize,
    ) -> Vec<Arc<ShardInstr>> {
        let per: Vec<Arc<ShardInstr>> = (0..instances.len() * shards)
            .map(|flat| {
                Arc::new(ShardInstr {
                    generation,
                    instance: (flat / shards) as u32,
                    shard: (flat % shards) as u32,
                    pair: instances[flat / shards].pair.0,
                    sent_msgs: AtomicU64::new(0),
                    sent_tuples: AtomicU64::new(0),
                    recv_msgs: AtomicU64::new(0),
                    recv_tuples: AtomicU64::new(0),
                    matched: AtomicU64::new(0),
                    out_tuples: AtomicU64::new(0),
                    retired: AtomicBool::new(false),
                })
            })
            .collect();
        // lint: allow(lock, once per shard generation — spawn and
        // reconfiguration only) allow(panic, poisoned roster — see
        // register_source)
        self.shards
            .lock()
            .expect("registry poisoned")
            .extend(per.iter().cloned());
        per
    }

    pub(crate) fn sink_instr(&self) -> Arc<SinkInstr> {
        Arc::clone(&self.sink)
    }

    #[inline]
    pub(crate) fn record_service_ms(&self, ms: f64) {
        self.service.record_ms(ms);
    }

    pub(crate) fn push_epoch(&self, stats: EpochStats) {
        // lint: allow(lock, once per reconfiguration epoch)
        // allow(panic, poisoned roster — see register_source)
        self.epochs.lock().expect("registry poisoned").push(stats);
    }

    pub(crate) fn finish(&self) {
        // ORDERING: Release pairs with `is_finished`'s Acquire — the
        // sampler that sees the flag also sees every final counter
        // value published before the control plane raised it, so its
        // last snapshot equals the ExecResult counts.
        self.finished.store(true, Ordering::Release);
    }

    pub(crate) fn is_finished(&self) -> bool {
        // ORDERING: Acquire half of the `finish` pairing above.
        self.finished.load(Ordering::Acquire)
    }

    /// Build a monotonic snapshot of every instrument. Each atomic is
    /// loaded individually (`Relaxed`) — writers are never blocked, and
    /// every counter is ≥ its value in any earlier snapshot (instrument
    /// lists are append-only; counters only grow). `matched` is summed
    /// over the per-shard instruments, so it is *live* — the run-wide
    /// [`Counters::matched`] only moves when a shard retires.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // ORDERING: every load below is a statistical sample of a
        // monotone counter — see the monotonicity argument in the doc
        // comment; cross-counter skew within one snapshot is accepted.
        // lint: allow(lock, scrape-side walk of the roster mutexes —
        // registration and scrapes contend, tuples never do)
        // allow(panic, poisoned roster — see register_source)
        let now_ms = self.clock.now_ms();
        let shards: Vec<ShardSnapshot> = self
            .shards
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|s| {
                let sent_msgs = s.sent_msgs.load(Ordering::Relaxed);
                let sent_tuples = s.sent_tuples.load(Ordering::Relaxed);
                let recv_msgs = s.recv_msgs.load(Ordering::Relaxed);
                let recv_tuples = s.recv_tuples.load(Ordering::Relaxed);
                ShardSnapshot {
                    generation: s.generation,
                    instance: s.instance,
                    shard: s.shard,
                    pair: s.pair,
                    live: !s.retired.load(Ordering::Relaxed),
                    queued_msgs: sent_msgs.saturating_sub(recv_msgs),
                    queued_tuples: sent_tuples.saturating_sub(recv_tuples),
                    tuples_in: recv_tuples,
                    matched: s.matched.load(Ordering::Relaxed),
                    out_tuples: s.out_tuples.load(Ordering::Relaxed),
                }
            })
            .collect();
        let sources: Vec<SourceSnapshot> = self
            .sources
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|s| SourceSnapshot {
                source: s.index,
                node: s.node,
                emitted: s.emitted.load(Ordering::Relaxed),
            })
            .collect();
        let nodes: Vec<NodeSnapshot> = self
            .pacers
            .iter()
            .enumerate()
            .map(|(i, p)| NodeSnapshot {
                node: i,
                busy_ms: p.busy_ms(),
                backlog_ms: (p.busy_until_ms() - now_ms).max(0.0),
            })
            .collect();
        let matched = shards.iter().map(|s| s.matched).sum();
        let out_total: u64 = shards.iter().map(|s| s.out_tuples).sum();
        let sink_seen = self.sink.seen.load(Ordering::Relaxed);
        MetricsSnapshot {
            at_ms: now_ms,
            wall_ms: self.clock.wall_ms(),
            emitted: self.counters.emitted.load(Ordering::Relaxed),
            matched,
            delivered: self.sink.delivered.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            sink_queued_tuples: out_total.saturating_sub(sink_seen),
            shards,
            sources,
            nodes,
            latency: self.latency.snapshot(),
            service: self.service.snapshot(),
            epochs: self.epochs.lock().expect("registry poisoned").clone(),
        }
    }
}

/// Why a snapshot subscription was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscribeError {
    /// `Duration::ZERO` sampling interval. The sampler's wait loop
    /// (`while waited < interval`) never sleeps at zero, so the thread
    /// would spin flat-out re-snapshotting for the entire run — reject
    /// instead of burning a core.
    ZeroInterval,
}

impl std::fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubscribeError::ZeroInterval => write!(
                f,
                "subscription interval must be > 0 (a zero interval hot-spins the sampler)"
            ),
        }
    }
}

impl std::error::Error for SubscribeError {}

/// Spawn the subscription sampler: a detached thread that sends one
/// [`MetricsSnapshot`] per `interval`, plus a final snapshot (equal to
/// the [`ExecResult`] counts) once the run finishes; it exits when the
/// receiver is dropped. A zero interval is rejected (see
/// [`SubscribeError::ZeroInterval`]).
pub(crate) fn subscribe(
    registry: Arc<MetricsRegistry>,
    interval: Duration,
) -> Result<mpsc::Receiver<MetricsSnapshot>, SubscribeError> {
    if interval.is_zero() {
        return Err(SubscribeError::ZeroInterval);
    }
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || loop {
        // Sleep in short hops so the final snapshot lands promptly
        // after the run finishes, regardless of the interval.
        let hop = Duration::from_millis(10).min(interval);
        let mut waited = Duration::ZERO;
        while waited < interval && !registry.is_finished() {
            std::thread::sleep(hop);
            waited += hop;
        }
        let finished = registry.is_finished();
        if tx.send(registry.snapshot()).is_err() || finished {
            return;
        }
    });
    Ok(rx)
}

/// Per-shard view within a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Shard generation (0 at launch, +1 per reconfiguration).
    pub generation: u64,
    /// Join-instance index within the generation.
    pub instance: u32,
    /// Shard index within the instance.
    pub shard: u32,
    /// Sub-query pair id the instance executes.
    pub pair: u32,
    /// False once the shard retired (Eof or epoch quiesce).
    pub live: bool,
    /// Input-channel depth in batches (sent − received).
    pub queued_msgs: u64,
    /// Input-channel depth in tuples.
    pub queued_tuples: u64,
    /// Tuples the shard has dequeued so far.
    pub tuples_in: u64,
    /// Matches produced (post-selectivity), live.
    pub matched: u64,
    /// Output tuples flushed toward the sink.
    pub out_tuples: u64,
}

/// Per-source view within a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct SourceSnapshot {
    /// Source index in the query.
    pub source: u32,
    /// Node the source is pinned to.
    pub node: usize,
    /// Tuples emitted so far.
    pub emitted: u64,
}

/// Per-node view within a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// Node index in the topology.
    pub node: usize,
    /// Accumulated service time (virtual ms).
    pub busy_ms: f64,
    /// Pacer backlog gauge: `busy_until − now`, clamped at 0.
    pub backlog_ms: f64,
}

/// A monotonically consistent view of a running (or finished) executor.
///
/// Counters never decrease between consecutive snapshots of the same
/// run, and the final snapshot's totals equal the [`ExecResult`]
/// counts. Gauges (`queued_*`, `backlog_ms`) are derived
/// from counter pairs at read time.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Virtual timestamp of the read (ms since launch).
    pub at_ms: f64,
    /// Wall-clock timestamp of the read (ms since launch).
    pub wall_ms: f64,
    /// Tuples emitted by all sources.
    pub emitted: u64,
    /// Join matches produced so far (live, summed over shards).
    pub matched: u64,
    /// Outputs delivered to the sink.
    pub delivered: u64,
    /// Tuples shed by bounded node queues.
    pub dropped: u64,
    /// Sink-channel depth in tuples (flushed − seen by the sink).
    pub sink_queued_tuples: u64,
    /// Per-shard instruments, all generations, spawn order.
    pub shards: Vec<ShardSnapshot>,
    /// Per-source instruments.
    pub sources: Vec<SourceSnapshot>,
    /// Per-node pacer gauges.
    pub nodes: Vec<NodeSnapshot>,
    /// End-to-end latency histogram (virtual ms) of delivered outputs.
    pub latency: HistogramSnapshot,
    /// Per-batch wall-clock service-time histogram of shard workers.
    pub service: HistogramSnapshot,
    /// Completed reconfiguration epochs so far.
    pub epochs: Vec<EpochStats>,
}

/// Format a float for export: fixed 3-decimal, non-finite → 0.
fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "0".to_string()
    }
}

impl MetricsSnapshot {
    /// Degraded snapshot for runs with `telemetry: false`: only the
    /// run-wide counters (matched as published at shard retirement) and
    /// node gauges; per-shard/source vectors, histograms, and
    /// `delivered` are empty/zero.
    pub(crate) fn degraded(
        clock: &VirtualClock,
        counters: &Counters,
        pacers: &[NodePacer],
        epochs: &[EpochStats],
    ) -> Self {
        let now_ms = clock.now_ms();
        // ORDERING: same sampling contract as `snapshot` — monotone
        // counters read individually, skew accepted.
        MetricsSnapshot {
            at_ms: now_ms,
            wall_ms: clock.wall_ms(),
            emitted: counters.emitted.load(Ordering::Relaxed),
            matched: counters.matched.load(Ordering::Relaxed),
            delivered: 0,
            dropped: counters.dropped.load(Ordering::Relaxed),
            sink_queued_tuples: 0,
            shards: Vec::new(),
            sources: Vec::new(),
            nodes: pacers
                .iter()
                .enumerate()
                .map(|(i, p)| NodeSnapshot {
                    node: i,
                    busy_ms: p.busy_ms(),
                    backlog_ms: (p.busy_until_ms() - now_ms).max(0.0),
                })
                .collect(),
            latency: HistogramSnapshot::default(),
            service: HistogramSnapshot::default(),
            epochs: epochs.to_vec(),
        }
    }

    /// Render as one JSON object on a single line (JSON-lines record).
    /// Hand-rolled — the workspace deliberately has no serde dependency.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        s.push_str(&format!(
            "\"at_ms\":{},\"wall_ms\":{},\"emitted\":{},\"matched\":{},\"delivered\":{},\"dropped\":{},\"sink_queued_tuples\":{}",
            jnum(self.at_ms),
            jnum(self.wall_ms),
            self.emitted,
            self.matched,
            self.delivered,
            self.dropped,
            self.sink_queued_tuples,
        ));
        s.push_str(&format!(
            ",\"latency_p50_ms\":{},\"latency_p99_ms\":{},\"latency_count\":{}",
            jnum(self.latency.quantile(0.50)),
            jnum(self.latency.quantile(0.99)),
            self.latency.count(),
        ));
        s.push_str(&format!(
            ",\"service_p50_ms\":{},\"service_p99_ms\":{},\"service_count\":{}",
            jnum(self.service.quantile(0.50)),
            jnum(self.service.quantile(0.99)),
            self.service.count(),
        ));
        s.push_str(&format!(",\"epochs\":{}", self.epochs.len()));
        s.push_str(",\"shards\":[");
        for (i, sh) in self.shards.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"gen\":{},\"inst\":{},\"shard\":{},\"pair\":{},\"live\":{},\"queued_msgs\":{},\"queued_tuples\":{},\"tuples_in\":{},\"matched\":{},\"out_tuples\":{}}}",
                sh.generation,
                sh.instance,
                sh.shard,
                sh.pair,
                sh.live,
                sh.queued_msgs,
                sh.queued_tuples,
                sh.tuples_in,
                sh.matched,
                sh.out_tuples,
            ));
        }
        s.push_str("],\"sources\":[");
        for (i, src) in self.sources.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"source\":{},\"node\":{},\"emitted\":{}}}",
                src.source, src.node, src.emitted
            ));
        }
        s.push_str("],\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"node\":{},\"busy_ms\":{},\"backlog_ms\":{}}}",
                n.node,
                jnum(n.busy_ms),
                jnum(n.backlog_ms)
            ));
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_charges_service_time_sequentially() {
        let p = NodePacer::new(1000.0, 250.0); // 1 ms/tuple
        assert_eq!(p.serve(0.0), Some(1.0));
        assert_eq!(p.serve(0.0), Some(2.0));
        // Work arriving later starts when it arrives.
        assert_eq!(p.serve(10.0), Some(11.0));
        assert!((p.busy_ms() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pacer_sheds_beyond_queue_cap() {
        let p = NodePacer::new(1000.0, 5.0);
        for _ in 0..6 {
            assert!(p.serve(0.0).is_some());
        }
        // Backlog is now 6 ms > 5 ms cap: shed.
        assert!(p.serve(0.0).is_none());
        // But work arriving once the queue drained is accepted.
        assert!(p.serve(100.0).is_some());
    }

    #[test]
    fn capacity_updates_apply_to_new_reservations_only() {
        let p = NodePacer::new(1000.0, f64::INFINITY); // 1 ms/tuple
        assert_eq!(p.serve(0.0), Some(1.0));
        p.set_capacity(100.0); // 10 ms/tuple from now on
        assert_eq!(p.serve(0.0), Some(11.0), "old backlog keeps its end");
        assert!((p.busy_ms() - 11.0).abs() < 1e-12);
        p.set_capacity(0.0); // pure relay
        assert_eq!(p.serve(50.0), Some(50.0));
    }

    #[test]
    fn zero_capacity_is_a_free_relay() {
        let p = NodePacer::new(0.0, 5.0);
        assert_eq!(p.serve(7.5), Some(7.5));
        assert_eq!(p.busy_ms(), 0.0);
    }

    #[test]
    fn pacer_is_safe_under_concurrent_reservations() {
        use std::sync::Arc;
        let p = Arc::new(NodePacer::new(100_000.0, f64::INFINITY));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        p.serve(0.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 40 000 reservations × 0.01 ms each, none lost (up to float
        // accumulation error across 40 000 additions).
        assert!((p.busy_ms() - 400.0).abs() < 1e-6, "busy {}", p.busy_ms());
        let busy_until = f64::from_bits(p.busy_until.load(Ordering::Relaxed));
        assert!((busy_until - 400.0).abs() < 1e-6, "busy_until {busy_until}");
    }

    fn result_with(delivered: u64, busy: Vec<f64>) -> ExecResult {
        ExecResult {
            outputs: Vec::new(),
            emitted: 0,
            matched: 0,
            delivered,
            node_busy_ms: busy,
            dropped: 0,
            wall_ms: 0.0,
            threads: 0,
            epochs: Vec::new(),
        }
    }

    #[test]
    fn throughput_guards_nonpositive_duration() {
        let r = result_with(100, vec![]);
        assert_eq!(r.throughput_per_s(0.0), 0.0);
        assert_eq!(r.throughput_per_s(-5.0), 0.0);
        assert!(r.throughput_per_s(0.0).is_finite());
        assert_eq!(r.throughput_per_s(1000.0), 100.0);
    }

    #[test]
    fn utilization_guards_nonpositive_duration() {
        let r = result_with(0, vec![50.0]);
        let n = NodeId(0);
        assert_eq!(r.utilization(n, 0.0), 0.0);
        assert_eq!(r.utilization(n, -1.0), 0.0);
        assert!(!r.utilization(n, 0.0).is_nan());
        assert!((r.utilization(n, 100.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_buckets_and_quantiles() {
        let h = LogHistogram::new();
        assert_eq!(h.snapshot().quantile(0.99), 0.0, "empty histogram");
        // 0.001 ms = 1 µs → bucket 0; 1 ms = 1000 µs → bucket 9
        // ([512, 1024)); 10 ms → bucket 13 ([8192, 16384) µs).
        h.record_ms(0.001);
        h.record_ms(1.0);
        h.record_ms(10.0);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[9], 1);
        assert_eq!(s.counts[13], 1);
        assert!((s.sum_ms - 11.001).abs() < 1e-9);
        // p50 lands in the middle bucket, p99 in the top one; both are
        // the bucket's upper bound.
        assert_eq!(s.quantile(0.5), HistogramSnapshot::bucket_upper_ms(9));
        assert_eq!(s.quantile(0.99), HistogramSnapshot::bucket_upper_ms(13));
        // Out-of-range values are clamped, not lost.
        h.record_ms(f64::INFINITY);
        h.record_ms(-3.0);
        assert_eq!(h.snapshot().count(), 5);
    }

    #[test]
    fn exporters_render_without_panicking() {
        let clock = VirtualClock::start(1000.0);
        let counters = Arc::new(Counters::default());
        let pacers = Arc::new(vec![NodePacer::new(100.0, 250.0)]);
        let reg = MetricsRegistry::new(clock, counters, pacers);
        reg.register_source(0, 0);
        let snap = reg.snapshot();
        let json = snap.to_json_line();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(!json.contains('\n'), "JSON-lines record must be one line");
        assert!(json.contains("\"emitted\":0"));
    }
}
