//! Live plan reconfiguration: the executor-side control plane (§3.5).
//!
//! The simulator has replayed re-optimization steps since the `reopt`
//! module landed; this module closes the sim/exec asymmetry by letting
//! a *running* placement absorb a [`PlanSwitch`] mid-stream. The run is
//! started through [`launch`], which returns an [`ExecHandle`]; each
//! [`ExecHandle::apply`] executes one **epoch-barrier protocol**:
//!
//! 1. **Arm** — every source worker receives `Reconfigure { epoch,
//!    epoch_ms }` on its control mailbox. Sources keep emitting until
//!    their next emission time reaches the epoch, so the pre/post split
//!    is exactly `t < epoch_ms` / `t >= epoch_ms` — a property of the
//!    *plan*, not of scheduling.
//! 2. **Barrier** — at the epoch each source flushes its batches, fans
//!    a [`crate::channel::JoinMsg::Barrier`] to every shard it feeds
//!    (the same fan-out as its Eofs) and parks on the mailbox.
//!    Per-producer FIFO channels make the barrier a watertight
//!    separator: a shard that has a barrier (or Eof) from every
//!    producer has seen its complete pre-epoch input.
//! 3. **Quiesce & handoff** — each shard then flushes its outputs,
//!    publishes its match count, exports its live window state
//!    ([`nova_runtime::WindowGroup`]s) up the control channel and
//!    retires (`JoinCore::on_barrier` / `export_state`).
//! 4. **Switch** — the control plane compiles the post plan, re-bases
//!    the sink's Eof quorum ([`crate::channel::SinkMsg::Epoch`]),
//!    spawns a *fresh generation* of shard threads whose `JoinCore`s
//!    are pre-seeded with the migrated `(window, pair, sub-key)`
//!    groups re-hashed under the new layout, and finally resumes every
//!    source with the new routing tables and senders.
//!
//! ## Why counts are preserved
//!
//! *Pre/pre* matches were produced by the old shards before the barrier
//! (FIFO exhaustiveness). *Post/post* matches are produced by the new
//! shards. *Pre/post* matches cross the epoch: the pre tuple's buffered
//! state migrates — without re-probing, so nothing is double-counted —
//! to exactly the shard that the post tuple's `(window, pair,
//! sub-key)` routes to, **before** any post tuple can be processed
//! (sources are parked until the handoff completes). So no match is
//! lost and none is duplicated, at any epoch position — window-aligned
//! or mid-window. The simulator's
//! [`nova_runtime::simulate_reconfigured`] implements the same
//! semantics over the same [`PlanSwitch`], which is what the
//! reconfiguration consistency tests pin: identical
//! `emitted`/`matched`/`delivered` on drop-free runs, at every shard
//! count (DESIGN.md §7).

use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nova_runtime::{Dataflow, OutputRecord, PlanSwitch, WindowGroup};
use nova_topology::{NodeId, Topology};

use crate::channel::{bounded, JoinMsg, Sender, SinkMsg, CHANNEL_CAPACITY};
use crate::join::JoinCore;
use crate::metrics::{
    Counters, ExecResult, MetricsRegistry, MetricsSnapshot, NodePacer, ShardInstr, ShardTelemetry,
    SinkTelemetry, SourceTelemetry, SubscribeError,
};
use crate::sharded::route;
use crate::worker::{self, CompiledInstance, CompiledSource, VirtualClock};
use crate::{ExecConfig, ExecConfigError};

/// Control message to one source worker (its private mailbox).
pub(crate) enum SourceCtrl {
    /// Arm an epoch: barrier once the next emission time reaches
    /// `epoch_ms`.
    Reconfigure {
        /// Epoch identifier (monotonic per run).
        epoch: u64,
        /// Virtual time of the boundary.
        epoch_ms: f64,
    },
    /// Post-epoch routing: a freshly compiled source (new rates, feeds
    /// and targets) and the new shard generation's senders.
    Resume {
        /// The post-plan source task.
        src: CompiledSource,
        /// Senders of the new generation, flat `instance × shards +
        /// shard` layout.
        txs: Vec<Sender<JoinMsg>>,
        /// Total post-plan source count (for the shared resume-grid
        /// rule — admission changes the stagger denominator).
        n_sources: usize,
        /// Shards per instance in the new generation (the controller
        /// may scale this across an epoch).
        shards: usize,
        /// Send-side instruments of the new generation, same flat
        /// layout as `txs` (empty with telemetry disabled).
        tx_instr: Vec<Arc<ShardInstr>>,
    },
}

/// A quiesced shard's report: its flat index in the retiring
/// generation and its exported window state.
pub(crate) struct Quiesced {
    /// Flat `instance × shards + shard` index within the old layout.
    pub flat: usize,
    /// Epoch the barrier belonged to (stale reports — from an epoch
    /// that timed out — are dropped by the collector).
    pub epoch: u64,
    /// Whether any producer barriered after already emitting past the
    /// epoch (see [`EpochStats::clean_split`]).
    pub late: bool,
    /// The shard's live `(window, key)` groups, handed off to the new
    /// generation.
    pub groups: Vec<WindowGroup>,
}

/// Measurements of one applied reconfiguration.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Epoch identifier (1 for the first `apply`).
    pub epoch: u64,
    /// Virtual time of the boundary.
    pub epoch_ms: f64,
    /// Wall time of the whole `apply` call: arming the sources through
    /// resuming them. Includes the time sources naturally take to
    /// *reach* the epoch, so it is workload-dependent.
    pub pause_wall_ms: f64,
    /// Wall time of the stop-the-world part only: last shard quiesced
    /// → sources resumed (state re-hash, new-generation spawn, sink
    /// re-base). This is the protocol's own overhead.
    pub handoff_wall_ms: f64,
    /// `(window, key)` groups migrated to the new generation.
    pub migrated_groups: usize,
    /// Buffered tuples inside those groups.
    pub migrated_tuples: usize,
    /// Shard workers in the new generation.
    pub shard_workers: usize,
    /// True when every source barriered *before* emitting past the
    /// epoch — the clean `t < epoch_ms` split that makes the run
    /// mirror [`nova_runtime::simulate_reconfigured`] exactly. False
    /// means the arm lost the race against the emission frontier
    /// (epoch too close to the sources' current position, e.g. in
    /// flat-out `time_scale` runs): counts are still internally exact
    /// and no state is lost, but they need not equal a replay that
    /// splits at the epoch.
    pub clean_split: bool,
}

/// Why an [`ExecHandle::apply`] was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// Every source worker has already finished — nothing left to
    /// reconfigure.
    RunFinished,
    /// The post plan's source count differs from the running plan's.
    /// [`ExecHandle::apply`] preserves the source set; admitting new
    /// streams goes through [`ExecHandle::add_source`], and removing
    /// streams is not replayed live.
    SourceCountMismatch {
        /// Sources in the running plan.
        running: usize,
        /// Sources in the post plan.
        post: usize,
    },
    /// [`ExecHandle::add_source`] requires the post plan to *append*
    /// at least one new source after the running plan's.
    NoNewSources {
        /// Sources in the running plan.
        running: usize,
        /// Sources in the post plan.
        post: usize,
    },
    /// A shard-count override ([`ExecHandle::apply_scaled`]) of zero —
    /// there is no zero-shard layout.
    InvalidScale {
        /// Requested shards per instance.
        shards: usize,
    },
    /// A previous epoch is still armed: its quiesce timed out, so the
    /// sources may still be heading toward (or parked at) that barrier
    /// and a second arm would corrupt the epoch numbering. The run
    /// itself keeps streaming and drains normally on
    /// [`ExecHandle::join`].
    EpochInFlight {
        /// The armed epoch's identifier.
        epoch: u64,
    },
    /// `succ` does not cover exactly the old instance set.
    SuccessorLengthMismatch {
        /// Old instances in the running plan.
        running: usize,
        /// Entries in the switch's succession map.
        got: usize,
    },
    /// A successor index points past the post plan's instance list.
    SuccessorOutOfRange {
        /// The offending successor index.
        index: u32,
        /// Instances in the post plan.
        instances: usize,
    },
    /// The old generation did not quiesce within the grace period
    /// (e.g. the epoch was armed after the run drained).
    QuiesceTimeout,
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigError::RunFinished => write!(f, "run already finished; nothing to reconfigure"),
            ReconfigError::SourceCountMismatch { running, post } => write!(
                f,
                "post plan has {post} sources but the running plan has {running}; \
                 apply preserves the source set (admit new streams via add_source)"
            ),
            ReconfigError::NoNewSources { running, post } => write!(
                f,
                "add_source needs a post plan that appends new sources, but it has \
                 {post} and the running plan already has {running}"
            ),
            ReconfigError::InvalidScale { shards } => write!(
                f,
                "shard scale {shards} rejected: shards per instance must be >= 1"
            ),
            ReconfigError::EpochInFlight { epoch } => write!(
                f,
                "epoch {epoch} is still armed (its quiesce timed out); refusing to arm \
                 another reconfiguration on top of it"
            ),
            ReconfigError::SuccessorLengthMismatch { running, got } => write!(
                f,
                "succession map covers {got} instances but the running plan has {running}"
            ),
            ReconfigError::SuccessorOutOfRange { index, instances } => write!(
                f,
                "successor instance {index} out of range (post plan has {instances} instances)"
            ),
            ReconfigError::QuiesceTimeout => write!(
                f,
                "old shard generation did not quiesce in time (was the epoch armed \
                 after the stream ended?)"
            ),
        }
    }
}

impl std::error::Error for ReconfigError {}

/// Thread-per-shard fleet: one OS thread per `JoinCore`, fed by a
/// blocking MPSC channel. It only knows how to wire channels and spawn
/// threads; everything protocol-level lives in [`Plane`].
pub(crate) struct ThreadFleet {
    cfg: ExecConfig,
    pacers: Arc<Vec<NodePacer>>,
    counters: Arc<Counters>,
    sink_tx: Option<Sender<SinkMsg>>,
    ctrl_up: mpsc::Sender<Quiesced>,
    handles: Vec<JoinHandle<()>>,
    spawned: usize,
}

impl ThreadFleet {
    /// Spawn shard workers for `cores` (flat `instance × shards +
    /// shard` order) and return their input senders in the same order.
    fn spawn_generation(&mut self, cores: Vec<JoinCore>) -> Vec<Sender<JoinMsg>> {
        let mut txs = Vec::with_capacity(cores.len());
        for (flat, core) in cores.into_iter().enumerate() {
            let (tx, rx) = bounded::<JoinMsg>(CHANNEL_CAPACITY);
            txs.push(tx);
            let cfg = self.cfg;
            let pacers = Arc::clone(&self.pacers);
            let counters = Arc::clone(&self.counters);
            let sink_tx = self.sink_tx.clone().expect("fleet finished");
            let ctrl_up = self.ctrl_up.clone();
            // Optional affinity: shard `flat` lives on core `flat mod
            // cores`, so its window arena stays in one cache hierarchy.
            let pin = self
                .cfg
                .pin_workers
                .then(|| flat % crate::affinity::machine_cores());
            self.spawned += 1;
            self.handles.push(std::thread::spawn(move || {
                if let Some(cpu) = pin {
                    let _ = crate::affinity::pin_current_thread(cpu);
                }
                crate::join::run_join(core, flat, &cfg, &pacers, &counters, rx, sink_tx, ctrl_up)
            }));
        }
        txs
    }

    /// Enqueue a message to the sink (the fleet owns a sink sender for
    /// the whole run, which also keeps the channel open across
    /// generation turnover).
    fn send_sink(&mut self, msg: SinkMsg) {
        if let Some(tx) = &self.sink_tx {
            let _ = tx.send(msg);
        }
    }

    /// Release the sink sender and join every spawned worker. Called
    /// once, after the sources finished.
    fn finish(&mut self) {
        self.sink_tx = None;
        for h in self.handles.drain(..) {
            h.join().expect("join worker panicked");
        }
    }
}

/// The running execution: sources, one fleet of shard workers, the
/// sink, and the control channels between them.
pub(crate) struct Plane {
    fleet: ThreadFleet,
    cfg: ExecConfig,
    clock: VirtualClock,
    topology: Topology,
    pacers: Arc<Vec<NodePacer>>,
    counters: Arc<Counters>,
    shards: usize,
    /// True while an epoch is armed whose quiesce never completed
    /// (timeout): arming another on top would corrupt the barrier
    /// protocol, so reconfigurations are refused until the run drains.
    armed: bool,
    epoch: u64,
    /// Current generation's instances (flat layout divides by
    /// `shards`).
    instances: Vec<CompiledInstance>,
    join_txs: Vec<Sender<JoinMsg>>,
    src_ctrl: Vec<mpsc::Sender<SourceCtrl>>,
    src_handles: Vec<JoinHandle<()>>,
    ctrl_up_rx: mpsc::Receiver<Quiesced>,
    sink_handle: Option<JoinHandle<Vec<OutputRecord>>>,
    n_sources: usize,
    stats: Vec<EpochStats>,
    /// The telemetry plane's instrument registry (None with
    /// `cfg.telemetry == false`).
    registry: Option<Arc<MetricsRegistry>>,
    /// Shard generation counter (0 at launch, +1 per reconfiguration)
    /// — labels each generation's instruments.
    generation: u64,
}

/// Register a generation's instruments and attach them to its cores
/// (no-op without a registry). Returns the send-side handles in flat
/// order, for the sources feeding this generation.
fn attach_telemetry(
    registry: &Option<Arc<MetricsRegistry>>,
    generation: u64,
    instances: &[CompiledInstance],
    shards: usize,
    cores: &mut [JoinCore],
) -> Vec<Arc<ShardInstr>> {
    let Some(r) = registry else {
        return Vec::new();
    };
    let instr = r.register_generation(generation, instances, shards);
    for (core, i) in cores.iter_mut().zip(&instr) {
        core.set_telemetry(ShardTelemetry {
            registry: Arc::clone(r),
            instr: Arc::clone(i),
        });
    }
    instr
}

impl Plane {
    /// Execute one epoch-barrier reconfiguration. Blocks until the
    /// sources are resumed on the new plan.
    ///
    /// `scale` optionally re-hashes the new generation under a
    /// different shard count; `admit` switches the
    /// source-count contract from "preserve" to "append" — new
    /// sources are spawned parked and join the post-epoch grid at
    /// [`nova_runtime::admission_time`].
    pub(crate) fn reconfigure(
        &mut self,
        switch: &PlanSwitch,
        dist: &mut dyn FnMut(NodeId, NodeId) -> f64,
        scale: Option<usize>,
        admit: bool,
    ) -> Result<EpochStats, ReconfigError> {
        let t0 = Instant::now();
        if self.armed {
            return Err(ReconfigError::EpochInFlight { epoch: self.epoch });
        }
        let n_running = self.src_ctrl.len();
        let n_post = switch.dataflow.sources.len();
        if admit {
            if n_post <= n_running {
                return Err(ReconfigError::NoNewSources {
                    running: n_running,
                    post: n_post,
                });
            }
        } else if n_post != n_running {
            return Err(ReconfigError::SourceCountMismatch {
                running: n_running,
                post: n_post,
            });
        }
        if scale == Some(0) {
            return Err(ReconfigError::InvalidScale { shards: 0 });
        }
        if switch.succ.len() != self.instances.len() {
            return Err(ReconfigError::SuccessorLengthMismatch {
                running: self.instances.len(),
                got: switch.succ.len(),
            });
        }
        for s in switch.succ.iter().flatten() {
            if *s as usize >= switch.dataflow.instances.len() {
                return Err(ReconfigError::SuccessorOutOfRange {
                    index: *s,
                    instances: switch.dataflow.instances.len(),
                });
            }
        }

        // 1. Arm every (still living) source.
        self.epoch += 1;
        let epoch = self.epoch;
        let alive: Vec<bool> = self
            .src_ctrl
            .iter()
            .map(|c| {
                c.send(SourceCtrl::Reconfigure {
                    epoch,
                    epoch_ms: switch.epoch_ms,
                })
                .is_ok()
            })
            .collect();
        if !alive.iter().any(|&a| a) {
            self.epoch -= 1;
            return Err(ReconfigError::RunFinished);
        }
        self.armed = true;

        // 2.–3. Collect the quiesce quorum: every old shard whose
        // instance has producers (zero-producer shards retired with an
        // Eof at spawn and own no state).
        let expected: Vec<usize> = (0..self.join_txs.len())
            .filter(|flat| self.instances[flat / self.shards].producers > 0)
            .collect();
        let mut exported: Vec<Vec<WindowGroup>> = vec![Vec::new(); self.join_txs.len()];
        let grace = Duration::from_secs_f64(self.cfg.quiesce_grace_ms.clamp(1.0, 8.64e7) / 1000.0);
        let deadline = Instant::now() + grace;
        let mut drained_grace: Option<Instant> = None;
        let mut received = 0usize;
        let mut clean_split = true;
        while received < expected.len() {
            match self.ctrl_up_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(q) => {
                    if q.epoch != epoch {
                        // A straggler from an epoch that timed out: its
                        // generation's handoff window is gone — drop the
                        // report (and its state) instead of counting it
                        // toward this epoch's quorum and re-hashing it
                        // under the wrong layout.
                        continue;
                    }
                    clean_split &= !q.late;
                    exported[q.flat] = q.groups;
                    received += 1;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(ReconfigError::QuiesceTimeout)
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        return Err(ReconfigError::QuiesceTimeout);
                    }
                    // If every source thread has exited, none of them
                    // barriered (a barriered source parks on its
                    // mailbox): the Reconfigure raced the stream end
                    // and the old shards retired through their Eofs.
                    // Give stragglers a short grace, then report the
                    // run as finished instead of stalling out the full
                    // deadline.
                    if self.src_handles.iter().all(|h| h.is_finished()) {
                        match drained_grace {
                            None => drained_grace = Some(Instant::now() + Duration::from_secs(2)),
                            Some(g) if Instant::now() >= g => {
                                // No source barriered — the epoch never
                                // materialized, so nothing stays armed.
                                self.armed = false;
                                return Err(ReconfigError::RunFinished);
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
        }
        let quiesced_at = Instant::now();

        // 4a. Capacity updates take effect at the epoch (old backlogs
        // keep their already-reserved completion times, exactly like
        // the simulator's replay).
        for &(node, cap) in &switch.node_capacity {
            self.pacers[node.idx()].set_capacity(cap);
        }

        // 4b. Compile the post plan (the caller re-supplies the latency
        // oracle; routes are resolved once, workers stay oracle-free).
        let mut post = worker::compile(&self.topology, dist, &switch.dataflow);
        // Admitted sources join the post-epoch emission grid: the same
        // `epoch + interval · i/n` stagger the simulator's replay
        // seeds them with (`admission_time` is the shared definition).
        for i in n_running..n_post {
            let src = &mut post.sources[i];
            src.first_at_ms =
                nova_runtime::admission_time(switch.epoch_ms, src.interval_ms, i, n_post);
        }

        // The scale override takes effect with the new generation: the
        // migrated state is re-hashed below under the *new* layout and
        // the sources resume with the new routing arithmetic.
        let new_shards = scale.unwrap_or(self.shards);

        // 4c. Re-base the sink on the new generation. Ordering: every
        // old-generation batch was enqueued before its shard's
        // Quiesced report (which we have), so the Epoch lands after
        // all old output and before anything the new generation sends.
        let n_new = post.instances.len() * new_shards;
        self.fleet.send_sink(SinkMsg::Epoch {
            producers: n_new,
            charge_sink: post.instances.iter().map(|i| i.charge_sink).collect(),
        });

        // 4d. Re-hash the migrated state under the new layout and spawn
        // the new generation pre-seeded with it.
        let mut migrated_groups = 0usize;
        let mut migrated_tuples = 0usize;
        let mut per_flat: Vec<Vec<WindowGroup>> = (0..n_new).map(|_| Vec::new()).collect();
        for (old_flat, groups) in exported.into_iter().enumerate() {
            let old_inst = old_flat / self.shards;
            let Some(new_inst) = switch.succ[old_inst] else {
                continue; // pair gone: its state dies with it
            };
            let pair = post.instances[new_inst as usize].pair;
            for g in groups {
                migrated_groups += 1;
                migrated_tuples += g.left.len() + g.right.len();
                let shard = route(g.window, pair, g.key, self.cfg.key_space, new_shards);
                per_flat[new_inst as usize * new_shards + shard].push(g);
            }
        }
        let mut cores: Vec<JoinCore> = per_flat
            .into_iter()
            .enumerate()
            .map(|(flat, mut groups)| {
                // Deterministic merge order regardless of which old
                // shard exported what (stable: equal keys keep old-flat
                // order).
                groups.sort_by_key(|g| (g.window, g.key));
                JoinCore::new_with_state(post.instances[flat / new_shards].clone(), groups)
            })
            .collect();
        self.generation += 1;
        let tx_instr = attach_telemetry(
            &self.registry,
            self.generation,
            &post.instances,
            new_shards,
            &mut cores,
        );
        let new_txs = self.fleet.spawn_generation(cores);

        // 4e'. Spawn the admitted sources *parked*: each waits on its
        // mailbox for the Resume below, which carries its compiled
        // task already placed on the admission grid.
        for _ in n_running..n_post {
            let (ctrl_tx, ctrl_rx) = mpsc::channel::<SourceCtrl>();
            self.src_ctrl.push(ctrl_tx);
            let cfg = self.cfg;
            let clock = self.clock;
            let pacers = Arc::clone(&self.pacers);
            let counters = Arc::clone(&self.counters);
            let registry = self.registry.clone();
            self.src_handles.push(std::thread::spawn(move || {
                worker::run_admitted_source(&cfg, clock, &pacers, &counters, &ctrl_rx, registry)
            }));
        }

        // 4e. Resume the sources on the new routing; sources that
        // already finished get their Eofs sent on their behalf so the
        // new generation's quorum still closes.
        for (i, ctrl) in self.src_ctrl.iter().enumerate() {
            let src = post.sources[i].clone();
            let targets = src.targets.clone();
            let resumed = alive.get(i).copied().unwrap_or(true)
                && ctrl
                    .send(SourceCtrl::Resume {
                        src,
                        txs: new_txs.clone(),
                        n_sources: n_post,
                        shards: new_shards,
                        tx_instr: tx_instr.clone(),
                    })
                    .is_ok();
            if !resumed {
                for &target in &targets {
                    for shard in 0..new_shards {
                        let _ = new_txs[target as usize * new_shards + shard]
                            .send(JoinMsg::Eof { source: i as u32 });
                    }
                }
            }
        }
        self.join_txs = new_txs;
        self.instances = post.instances;
        self.shards = new_shards;
        self.n_sources = n_post;
        self.armed = false;

        let stats = EpochStats {
            epoch,
            epoch_ms: switch.epoch_ms,
            pause_wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
            handoff_wall_ms: quiesced_at.elapsed().as_secs_f64() * 1000.0,
            migrated_groups,
            migrated_tuples,
            shard_workers: n_new,
            clean_split,
        };
        if let Some(r) = &self.registry {
            r.push_epoch(stats);
        }
        self.stats.push(stats);
        Ok(stats)
    }

    /// A monotonic snapshot of the run's instruments (see
    /// [`MetricsRegistry::snapshot`]); degraded to run-wide counters
    /// and node gauges when telemetry is off.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        match &self.registry {
            Some(r) => r.snapshot(),
            None => {
                MetricsSnapshot::degraded(&self.clock, &self.counters, &self.pacers, &self.stats)
            }
        }
    }

    /// Periodic snapshot stream (see [`ExecHandle::subscribe`]); with
    /// telemetry off the receiver yields nothing. The interval is
    /// validated in both cases — a zero interval is a hot-spinning
    /// sampler, not a faster one.
    pub(crate) fn subscribe(
        &self,
        interval: Duration,
    ) -> Result<mpsc::Receiver<MetricsSnapshot>, SubscribeError> {
        match &self.registry {
            Some(r) => crate::metrics::subscribe(Arc::clone(r), interval),
            None if interval.is_zero() => Err(SubscribeError::ZeroInterval),
            None => Ok(mpsc::channel().1),
        }
    }

    /// Wait for the stream to end and assemble the run's results.
    pub(crate) fn finish(mut self) -> ExecResult {
        // No more reconfigurations: parked sources would observe the
        // hang-up, running ones simply never barrier again.
        drop(std::mem::take(&mut self.src_ctrl));
        for h in self.src_handles.drain(..) {
            h.join().expect("source worker panicked");
        }
        // Every source thread has exited, so the coordinator's clones
        // are the last senders into the current generation. Drop them
        // *before* joining the fleet: a shard that is still waiting on
        // a producer that died without delivering its Eof — e.g. a
        // source whose stream ended in the race window between an
        // epoch's Resume being sent and its mailbox being read — then
        // observes the hang-up and winds down instead of deadlocking
        // the join below.
        self.join_txs.clear();
        self.fleet.finish();
        let outputs = self
            .sink_handle
            .take()
            .expect("sink already joined")
            .join()
            .expect("sink worker panicked");

        // All workers have joined: every count is final. Release the
        // subscription samplers — their last snapshot equals this
        // result's counts.
        if let Some(r) = &self.registry {
            r.finish();
        }

        use std::sync::atomic::Ordering;
        let delivered = outputs.len() as u64;
        // ORDERING: read after every worker has been joined — the
        // joins' happens-before edges already make the final counter
        // values visible, so the loads need no ordering of their own.
        ExecResult {
            outputs,
            emitted: self.counters.emitted.load(Ordering::Relaxed),
            matched: self.counters.matched.load(Ordering::Relaxed),
            delivered,
            node_busy_ms: self.pacers.iter().map(|p| p.busy_ms()).collect(),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            wall_ms: self.clock.wall_ms(),
            threads: self.n_sources + self.fleet.spawned + 1,
            epochs: std::mem::take(&mut self.stats),
        }
    }
}

/// Spawn the source workers.
#[allow(clippy::too_many_arguments)]
fn spawn_sources(
    sources: Vec<CompiledSource>,
    cfg: &ExecConfig,
    clock: VirtualClock,
    pacers: &Arc<Vec<NodePacer>>,
    counters: &Arc<Counters>,
    join_txs: &[Sender<JoinMsg>],
    shards: usize,
    registry: &Option<Arc<MetricsRegistry>>,
    tx_instr: &[Arc<ShardInstr>],
) -> (Vec<mpsc::Sender<SourceCtrl>>, Vec<JoinHandle<()>>) {
    let mut ctrls = Vec::with_capacity(sources.len());
    let mut handles = Vec::with_capacity(sources.len());
    for src in sources {
        let (ctrl_tx, ctrl_rx) = mpsc::channel::<SourceCtrl>();
        ctrls.push(ctrl_tx);
        let cfg = *cfg;
        let pacers = Arc::clone(pacers);
        let counters = Arc::clone(counters);
        let txs = join_txs.to_vec();
        let tele = match registry {
            Some(r) => {
                SourceTelemetry::new(r.register_source(src.index, src.node), tx_instr.to_vec())
            }
            None => SourceTelemetry::disabled(),
        };
        handles.push(std::thread::spawn(move || {
            worker::run_source(
                src, &cfg, clock, &pacers, &counters, txs, shards, &ctrl_rx, tele,
            )
        }));
    }
    (ctrls, handles)
}

/// The one bootstrap: one thread per source task, `cfg.shards` join
/// workers per deployed instance (1 = the classic thread-per-operator
/// layout) and the sink. A plain run is a reconfigurable run that never
/// reconfigures, so [`crate::execute`] goes through here too.
fn launch_threads(
    topology: &Topology,
    dist: &mut dyn FnMut(NodeId, NodeId) -> f64,
    dataflow: &Dataflow,
    cfg: &ExecConfig,
) -> Plane {
    let shards = cfg.shards;
    let plan = worker::compile(topology, dist, dataflow);
    let pacers: Arc<Vec<NodePacer>> = Arc::new(
        topology
            .nodes()
            .iter()
            .map(|n| NodePacer::new(n.capacity, cfg.max_queue_ms))
            .collect(),
    );
    let counters = Arc::new(Counters::default());
    // The clock starts before the fleet spawns (the registry holds
    // it); sources still emit at the same virtual times (their grid is
    // absolute).
    let clock = VirtualClock::start(cfg.time_scale);
    let registry = cfg
        .telemetry
        .then(|| MetricsRegistry::new(clock, Arc::clone(&counters), Arc::clone(&pacers)));
    let (ctrl_up_tx, ctrl_up_rx) = mpsc::channel::<Quiesced>();
    let (sink_tx, sink_rx) = bounded::<SinkMsg>(CHANNEL_CAPACITY);
    let mut fleet = ThreadFleet {
        cfg: *cfg,
        pacers: Arc::clone(&pacers),
        counters: Arc::clone(&counters),
        sink_tx: Some(sink_tx),
        ctrl_up: ctrl_up_tx,
        handles: Vec::new(),
        spawned: 0,
    };
    let mut cores: Vec<JoinCore> = (0..plan.instances.len() * shards)
        .map(|flat| JoinCore::new(plan.instances[flat / shards].clone()))
        .collect();
    let tx_instr = attach_telemetry(&registry, 0, &plan.instances, shards, &mut cores);
    let n_workers = cores.len();
    let join_txs = fleet.spawn_generation(cores);

    let sink_handle = {
        let pacers = Arc::clone(&pacers);
        let counters = Arc::clone(&counters);
        let charge: Vec<bool> = plan.instances.iter().map(|i| i.charge_sink).collect();
        let node = dataflow.sink.idx();
        let tele = registry.as_ref().map(|r| SinkTelemetry {
            registry: Arc::clone(r),
            instr: r.sink_instr(),
        });
        std::thread::spawn(move || {
            worker::run_sink(sink_rx, node, charge, &pacers, &counters, n_workers, tele)
        })
    };

    let n_sources = plan.sources.len();
    let (src_ctrl, src_handles) = spawn_sources(
        plan.sources,
        cfg,
        clock,
        &pacers,
        &counters,
        &join_txs,
        shards,
        &registry,
        &tx_instr,
    );

    Plane {
        fleet,
        cfg: *cfg,
        clock,
        topology: topology.clone(),
        pacers,
        counters,
        shards,
        armed: false,
        epoch: 0,
        instances: plan.instances,
        join_txs,
        src_ctrl,
        src_handles,
        ctrl_up_rx,
        sink_handle: Some(sink_handle),
        n_sources,
        stats: Vec::new(),
        registry,
        generation: 0,
    }
}

/// A running, reconfigurable execution — the executor-side §3.5
/// surface. Obtained from [`launch`]; [`ExecHandle::apply`] absorbs
/// one [`PlanSwitch`] mid-stream (any number may be applied in
/// sequence), [`ExecHandle::join`] waits for the stream to end and
/// returns the run's [`ExecResult`].
pub struct ExecHandle {
    plane: Plane,
}

impl ExecHandle {
    /// Apply one plan switch through the epoch-barrier protocol,
    /// blocking until the sources are streaming on the new plan.
    /// `dist` is the latency oracle for compiling the post plan's
    /// routes (the handle does not retain the one used at launch).
    ///
    /// The epoch must be armed while the sources are still *ahead* of
    /// it: choose `switch.epoch_ms` comfortably beyond the emission
    /// frontier (paced runs: beyond [`ExecHandle::now_ms`] plus a few
    /// emission intervals; flat-out `time_scale` runs: beyond the
    /// emission times the sources can reach before the control message
    /// lands). A late arm is not an error — the source barriers at its
    /// actual position, counts stay exact and no state is lost — but
    /// the pre/post split then falls past the epoch, so the run no
    /// longer mirrors [`nova_runtime::simulate_reconfigured`] at that
    /// epoch; the returned [`EpochStats::clean_split`] reports which
    /// case occurred (the reconfiguration tests assert it stays true).
    pub fn apply(
        &mut self,
        switch: &PlanSwitch,
        mut dist: impl FnMut(NodeId, NodeId) -> f64,
    ) -> Result<EpochStats, ReconfigError> {
        self.plane.reconfigure(switch, &mut dist, None, false)
    }

    /// [`ExecHandle::apply`] with a shard-count override — the
    /// executor-side elasticity knob: the new generation is spawned
    /// with `shards` workers per instance (>= 1, else
    /// [`ReconfigError::InvalidScale`]), the migrated window state
    /// re-hashed under that count and the sources resumed on it — live
    /// scale-up/-down without a restart. The switch may otherwise be an
    /// identity (same dataflow, identity succession): the epoch
    /// protocol is the same either way, and counts are preserved on
    /// drop-free runs because shard routing decides *where* a tuple is
    /// matched, never *what* matches (see [`crate::sharded`]).
    pub fn apply_scaled(
        &mut self,
        switch: &PlanSwitch,
        mut dist: impl FnMut(NodeId, NodeId) -> f64,
        shards: usize,
    ) -> Result<EpochStats, ReconfigError> {
        self.plane
            .reconfigure(switch, &mut dist, Some(shards), false)
    }

    /// Admit new source streams without a restart. The post plan must
    /// contain the running plan's sources (same order) plus at least
    /// one appended [`nova_runtime::SourceTask`]; anything else is
    /// refused with [`ReconfigError::NoNewSources`] or
    /// [`ReconfigError::SourceCountMismatch`] before the epoch arms.
    ///
    /// The admission runs through the same epoch-barrier protocol as
    /// [`ExecHandle::apply`]: existing sources barrier at
    /// `switch.epoch_ms`, the quiesced state migrates, and the new
    /// sources are spawned *parked* and released together with the
    /// resume — each entering the post-epoch emission grid at
    /// [`nova_runtime::admission_time`]`(epoch, interval, i, n_post)`,
    /// exactly where [`nova_runtime::simulate_reconfigured`] seeds
    /// them in a replay. Existing sources with unchanged rates keep
    /// their old grid, so admission alone never perturbs the running
    /// streams' emission times.
    pub fn add_source(
        &mut self,
        switch: &PlanSwitch,
        mut dist: impl FnMut(NodeId, NodeId) -> f64,
    ) -> Result<EpochStats, ReconfigError> {
        self.plane.reconfigure(switch, &mut dist, None, true)
    }

    /// Shards per join instance in the current generation.
    pub fn shards(&self) -> usize {
        self.plane.shards
    }

    /// Current virtual time of the run (ms).
    pub fn now_ms(&self) -> f64 {
        self.plane.clock.now_ms()
    }

    /// Stats of every reconfiguration applied so far.
    pub fn epoch_stats(&self) -> &[EpochStats] {
        &self.plane.stats
    }

    /// Take a live [`MetricsSnapshot`] of the running executor.
    ///
    /// Safe to call at any rate (each call is a handful of relaxed
    /// atomic loads per instrument — ~10 Hz polling is far below
    /// measurable cost) and from any thread holding the handle.
    /// Consistency contract: every cumulative counter in a later
    /// snapshot is `>=` its value in an earlier one, and the snapshot
    /// taken after [`ExecHandle::join`] would have returned equals the
    /// corresponding [`ExecResult`] totals. With
    /// [`crate::ExecConfig::telemetry`] disabled this degrades to the
    /// coarse shared counters (no per-shard rows, empty histograms).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.plane.metrics()
    }

    /// Subscribe to periodic [`MetricsSnapshot`]s, one every
    /// `interval`, delivered on a standard `mpsc` receiver.
    ///
    /// A detached sampler thread drives the stream; it sends one final
    /// snapshot after the run finishes (so the last value received
    /// matches the [`ExecResult`]) and exits when the run ends or the
    /// receiver is dropped, whichever comes first. With telemetry
    /// disabled the receiver is already disconnected.
    ///
    /// A zero `interval` is rejected with
    /// [`SubscribeError::ZeroInterval`] — the sampler sleeps in
    /// `interval`-bounded hops, so zero would hot-spin a core for the
    /// whole run instead of sampling faster.
    pub fn subscribe(
        &self,
        interval: std::time::Duration,
    ) -> Result<mpsc::Receiver<MetricsSnapshot>, SubscribeError> {
        self.plane.subscribe(interval)
    }

    /// Wait for the stream to end and collect the measurements.
    pub fn join(self) -> ExecResult {
        self.plane.finish()
    }
}

/// Start a reconfigurable execution of `dataflow` — the live
/// counterpart of [`crate::execute`]. The returned [`ExecHandle`] must
/// be [`ExecHandle::join`]ed to collect results (the run proceeds on
/// its own threads either way).
pub fn launch(
    topology: &Topology,
    mut dist: impl FnMut(NodeId, NodeId) -> f64,
    dataflow: &Dataflow,
    cfg: &ExecConfig,
) -> Result<ExecHandle, ExecConfigError> {
    cfg.validate()?;
    Ok(ExecHandle {
        plane: launch_threads(topology, &mut dist, dataflow, cfg),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_core::baselines::{sink_based, source_based};
    use nova_core::{JoinQuery, StreamSpec};
    use nova_topology::NodeRole;

    /// sink(0), l(1), r(2), worker(3) — the cross-validation world.
    fn world() -> (Topology, JoinQuery) {
        let mut t = Topology::new();
        let sink = t.add_node(NodeRole::Sink, 1000.0, "sink");
        let l = t.add_node(NodeRole::Source, 1000.0, "l");
        let r = t.add_node(NodeRole::Source, 1000.0, "r");
        t.add_node(NodeRole::Worker, 1000.0, "w");
        let q = JoinQuery::by_key(
            vec![StreamSpec::keyed(l, 40.0, 1)],
            vec![StreamSpec::keyed(r, 40.0, 1)],
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

    /// Drop-free paced config (see the `lib.rs` tests for the
    /// unbounded-queue rationale).
    fn cfg(shards: usize) -> ExecConfig {
        ExecConfig {
            duration_ms: 2400.0,
            window_ms: 200.0,
            selectivity: 0.7,
            time_scale: 8.0,
            max_queue_ms: f64::INFINITY,
            shards,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn route_only_reconfiguration_is_count_transparent_on_every_backend() {
        // Move the join from the sink to the sources mid-window
        // (epoch 1100 straddles [1000, 1200)): counts must equal the
        // never-reconfigured run at every shard count, because routing
        // never decides *what* matches and the straddling window's
        // state migrates with the instance.
        let (t, q) = world();
        let plan = q.resolve();
        let pre = sink_based(&q, &plan);
        let post = source_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &pre);
        for shards in [1usize, 4] {
            let cfg = cfg(shards);
            let baseline = crate::execute(&t, flat_dist, &df, &cfg).expect("valid config");
            assert_eq!(baseline.dropped, 0);
            assert!(baseline.delivered > 0);

            let sw = PlanSwitch::between(1100.0, &q, &pre, &post, 1.0);
            let mut handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");
            let stats = handle.apply(&sw, flat_dist).expect("reconfigure");
            assert_eq!(stats.epoch, 1);
            assert!(
                stats.migrated_tuples > 0,
                "shards={shards}: the straddling window must migrate state"
            );
            let res = handle.join();
            let tag = format!("shards={shards}");
            assert_eq!(res.dropped, 0, "{tag}");
            assert_eq!(res.emitted, baseline.emitted, "{tag}");
            assert_eq!(res.matched, baseline.matched, "{tag}");
            assert_eq!(res.delivered, baseline.delivered, "{tag}");
        }
    }

    #[test]
    fn consecutive_reconfigurations_compose() {
        // sink -> source -> sink again; two epochs, both mid-window.
        let (t, q) = world();
        let plan = q.resolve();
        let a = sink_based(&q, &plan);
        let b = source_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &a);
        let cfg = cfg(2);
        let baseline = crate::execute(&t, flat_dist, &df, &cfg).expect("valid config");
        assert_eq!(baseline.dropped, 0);

        let mut handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");
        let s1 = PlanSwitch::between(700.0, &q, &a, &b, 1.0);
        let s2 = PlanSwitch::between(1500.0, &q, &b, &a, 1.0);
        handle.apply(&s1, flat_dist).expect("epoch 1");
        handle.apply(&s2, flat_dist).expect("epoch 2");
        assert_eq!(handle.epoch_stats().len(), 2);
        let res = handle.join();
        assert_eq!(res.dropped, 0);
        assert_eq!(res.emitted, baseline.emitted);
        assert_eq!(res.matched, baseline.matched);
        assert_eq!(res.delivered, baseline.delivered);
    }

    #[test]
    fn malformed_switches_are_rejected_before_arming() {
        let (t, q) = world();
        let plan = q.resolve();
        let pre = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &pre);
        let cfg = cfg(1);
        let mut handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");

        // Source count change is refused.
        let q2 = JoinQuery::by_key(
            vec![
                StreamSpec::keyed(nova_topology::NodeId(1), 40.0, 1),
                StreamSpec::keyed(nova_topology::NodeId(3), 10.0, 1),
            ],
            vec![StreamSpec::keyed(nova_topology::NodeId(2), 40.0, 1)],
            nova_topology::NodeId(0),
        );
        let p2 = sink_based(&q2, &q2.resolve());
        let sw = PlanSwitch::between(1000.0, &q2, &pre, &p2, 1.0);
        assert!(matches!(
            handle.apply(&sw, flat_dist),
            Err(ReconfigError::SourceCountMismatch { .. })
        ));

        // Succession map of the wrong length is refused.
        let mut sw = PlanSwitch::between(1000.0, &q, &pre, &pre, 1.0);
        sw.succ.push(Some(0));
        assert!(matches!(
            handle.apply(&sw, flat_dist),
            Err(ReconfigError::SuccessorLengthMismatch { .. })
        ));

        // Out-of-range successor is refused.
        let mut sw = PlanSwitch::between(1000.0, &q, &pre, &pre, 1.0);
        sw.succ[0] = Some(99);
        assert!(matches!(
            handle.apply(&sw, flat_dist),
            Err(ReconfigError::SuccessorOutOfRange { .. })
        ));

        // A zero-shard scale override is refused.
        let sw = PlanSwitch::between(1000.0, &q, &pre, &pre, 1.0);
        assert_eq!(
            handle.apply_scaled(&sw, flat_dist, 0).unwrap_err(),
            ReconfigError::InvalidScale { shards: 0 }
        );

        // The run is untouched by refused switches.
        let res = handle.join();
        assert!(res.delivered > 0);
        assert_eq!(res.dropped, 0);
    }

    #[test]
    fn node_capacity_update_takes_effect_at_the_epoch() {
        // Shrink the sink's capacity mid-run under a *bounded* queue:
        // the post-epoch regime must shed (the pre-epoch one did not).
        let (t, q) = world();
        let plan = q.resolve();
        let pre = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &pre);
        let cfg = ExecConfig {
            duration_ms: 4000.0,
            max_queue_ms: 250.0,
            ..cfg(1)
        };
        let mut handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");
        let sw = PlanSwitch::between(2000.0, &q, &pre, &pre, 1.0)
            .with_capacities(vec![(nova_topology::NodeId(0), 15.0)]);
        handle.apply(&sw, flat_dist).expect("reconfigure");
        let res = handle.join();
        assert!(
            res.dropped > 0,
            "a 15 t/s sink under 80 t/s input must shed after the epoch"
        );
    }
}
