//! Closed-loop elasticity: the autoscaling controller (DESIGN.md §9).
//!
//! PR 6 gave the executor a telemetry plane ([`crate::metrics`]) and
//! PR 5 a live control plane ([`crate::control`]); this module closes
//! the loop between them. An [`Autoscaler`] owns the run's
//! [`ExecHandle`] on a background thread, consumes the periodic
//! [`MetricsSnapshot`] feed from [`ExecHandle::subscribe`], fits a
//! per-node performance model to consecutive snapshots and synthesizes
//! [`PlanSwitch`]es on its own:
//!
//! * **Scale up** when predicted utilization crosses the high-water
//!   threshold for several consecutive samples — a new shard
//!   generation with more workers per instance
//!   ([`ExecHandle::apply_scaled`]).
//! * **Re-place** when a node's pacer backlog signals model-domain
//!   exhaustion (the node physically cannot serve its arrival rate):
//!   the caller-supplied [`Relocator`] rebuilds the dataflow away from
//!   the saturated host, and the switch migrates the window state
//!   through the ordinary epoch-barrier protocol.
//! * **Scale down** after sustained slack, never below the floor of
//!   one shard.
//!
//! The estimator is deliberately simple and fully observable. For each
//! node, over the window between two snapshots (Δt of virtual time),
//!
//! ```text
//! utilization  =  Δbusy_ms / Δt  +  max(0, Δbacklog_ms / Δt)
//! ```
//!
//! The first term is the classic ρ = λ·s (arrival rate × observed
//! per-item service time, both folded into the pacer's busy-time
//! meter); it saturates at 1.0 when the node is overloaded. The second
//! term recovers the excess: a queue whose backlog grows by `g` ms per
//! ms of time is receiving `1 + g` times what it can serve, so the sum
//! estimates the true offered ρ even past saturation. The run-wide
//! prediction is the max over nodes; rising live-shard queue depth is
//! used as the wall-clock-side saturation signal for scale-down
//! suppression.
//!
//! **Hysteresis and cooldown** make the loop converge instead of
//! oscillate: a decision needs `high_samples` (resp. `slack_samples`)
//! consecutive snapshots beyond the threshold, and after any switch
//! the controller holds for `cooldown_ms` of virtual time regardless
//! of what the estimator says. The flash-crowd and diurnal runs in
//! `tests/autoscale_edge.rs` pin this.
//!
//! **Correctness gate.** Every switch the controller applies — scale,
//! re-placement or [`ExecHandle::add_source`] admission — is recorded
//! as a [`RecordedSwitch`]; replaying the recorded sequence through
//! [`nova_runtime::simulate_reconfigured`] must reproduce the
//! executor's exec counts exactly on drop-free runs (see
//! `tests/reopt_consistency.rs`). The controller therefore never
//! invents semantics: it only schedules the same epoch-barrier
//! reconfigurations a human operator could apply by hand.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use nova_runtime::{Dataflow, PlanSwitch};
use nova_topology::NodeId;

use crate::control::{EpochStats, ExecHandle, ReconfigError};
use crate::metrics::{ExecResult, MetricsSnapshot};

/// Tuning knobs of the autoscaling [`Policy`]. All time quantities are
/// **virtual** milliseconds (the model domain shared with the
/// simulator), so a policy behaves identically at any
/// [`crate::ExecConfig::time_scale`].
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Snapshot sampling interval (wall time, passed to
    /// [`ExecHandle::subscribe`]). Zero is treated as "no feed": the
    /// controller then only executes injected switches.
    pub interval: Duration,
    /// Predicted-utilization high-water mark; at or above it for
    /// [`AutoscaleConfig::high_samples`] consecutive snapshots the
    /// controller scales up.
    pub high_utilization: f64,
    /// Low-water mark; at or below it (with an empty queue signal) for
    /// [`AutoscaleConfig::slack_samples`] consecutive snapshots the
    /// controller scales down.
    pub low_utilization: f64,
    /// Pacer-backlog level (ms of unserved work) that marks a node as
    /// exhausted and makes the scale-up decision carry a
    /// re-placement away from it.
    pub backlog_high_ms: f64,
    /// Consecutive high-utilization samples required before scaling
    /// up (hysteresis against one-sample spikes).
    pub high_samples: usize,
    /// Consecutive slack samples required before scaling down
    /// (longer than `high_samples` by convention: growing is urgent,
    /// shrinking is not).
    pub slack_samples: usize,
    /// Virtual-time hold after any decision before the next one may
    /// fire — the anti-oscillation half of the hysteresis pair.
    pub cooldown_ms: f64,
    /// How far past the deciding snapshot's `at_ms` the synthesized
    /// switch's epoch is placed. Must comfortably exceed the snapshot
    /// latency so the sources are still ahead of the epoch when armed.
    pub epoch_lead_ms: f64,
    /// Scale-down floor (>= 1).
    pub min_shards: usize,
    /// Scale-up ceiling.
    pub max_shards: usize,
    /// Multiplicative step per scale decision (2 doubles/halves).
    pub scale_factor: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            interval: Duration::from_millis(25),
            high_utilization: 0.85,
            low_utilization: 0.5,
            backlog_high_ms: 200.0,
            high_samples: 2,
            slack_samples: 4,
            cooldown_ms: 400.0,
            epoch_lead_ms: 60.0,
            min_shards: 1,
            max_shards: 8,
            scale_factor: 2,
        }
    }
}

/// What the [`Policy`] chose at one sample. A scale decision names the
/// target shard count and nothing else: how tuples spread over those
/// shards follows from the workload's key space ([`crate::sharded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// No action: thresholds not met, streak incomplete, or cooldown.
    Hold,
    /// Spawn the next generation with more shards per instance;
    /// `relocate_from` additionally asks the [`Relocator`] to move
    /// join instances off the named (backlog-exhausted) node.
    ScaleUp {
        /// Target shards per instance.
        shards: usize,
        /// Node index whose pacer backlog crossed
        /// [`AutoscaleConfig::backlog_high_ms`], if any.
        relocate_from: Option<usize>,
    },
    /// Shrink the next generation after sustained slack.
    ScaleDown {
        /// Target shards per instance.
        shards: usize,
    },
}

/// One evaluated sample: the estimator's outputs plus the decision.
#[derive(Debug, Clone, Copy)]
pub struct Evaluation {
    /// Max-over-nodes predicted utilization (ρ estimate, can exceed 1).
    pub utilization: f64,
    /// Largest per-node pacer backlog observed in this sample (ms).
    pub max_backlog_ms: f64,
    /// Live shards' queued input tuples (wall-side pressure signal).
    pub queued_tuples: u64,
    /// What the policy chose.
    pub decision: Decision,
}

/// Per-node state carried between samples.
#[derive(Debug, Clone)]
struct PrevSample {
    at_ms: f64,
    /// `(busy_ms, backlog_ms)` per node.
    nodes: Vec<(f64, f64)>,
}

/// The pure decision core of the controller: consecutive-snapshot
/// differencing, the utilization estimator, hysteresis streaks and the
/// cooldown clock. It owns no threads and performs no I/O, which is
/// what makes the edge cases (cooldown suppression, the scale-down
/// floor) unit-testable sample by sample via [`Policy::step`].
#[derive(Debug, Clone)]
pub struct Policy {
    cfg: AutoscaleConfig,
    shards: usize,
    prev: Option<PrevSample>,
    high_streak: usize,
    slack_streak: usize,
    cooldown_until_ms: f64,
}

impl Policy {
    /// A policy starting from the run's current shard count.
    pub fn new(cfg: AutoscaleConfig, initial_shards: usize) -> Policy {
        Policy {
            cfg,
            shards: initial_shards.max(1),
            prev: None,
            high_streak: 0,
            slack_streak: 0,
            cooldown_until_ms: f64::NEG_INFINITY,
        }
    }

    /// Shard count the policy currently believes the run is at.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Evaluate one [`MetricsSnapshot`] (convenience wrapper over
    /// [`Policy::step`]).
    pub fn observe(&mut self, snap: &MetricsSnapshot) -> Evaluation {
        let nodes: Vec<(f64, f64)> = snap
            .nodes
            .iter()
            .map(|n| (n.busy_ms, n.backlog_ms))
            .collect();
        let queued: u64 = snap
            .shards
            .iter()
            .filter(|s| s.live)
            .map(|s| s.queued_tuples)
            .sum();
        self.step(snap.at_ms, &nodes, queued)
    }

    /// Evaluate one raw sample: virtual timestamp, `(busy_ms,
    /// backlog_ms)` per node, and the live shards' queued tuples.
    ///
    /// Returns the estimator outputs and the decision; a non-`Hold`
    /// decision immediately starts the cooldown and resets both
    /// hysteresis streaks. The policy updates its own shard count
    /// optimistically — callers that fail to apply the corresponding
    /// switch should [`Policy::force_shards`] it back.
    pub fn step(&mut self, at_ms: f64, nodes: &[(f64, f64)], queued_tuples: u64) -> Evaluation {
        let max_backlog_ms = nodes.iter().map(|n| n.1).fold(0.0, f64::max);
        let Some(prev) = self.prev.replace(PrevSample {
            at_ms,
            nodes: nodes.to_vec(),
        }) else {
            return self.hold(0.0, max_backlog_ms, queued_tuples);
        };
        let dt = at_ms - prev.at_ms;
        if dt <= 0.0 || prev.nodes.len() != nodes.len() {
            return self.hold(0.0, max_backlog_ms, queued_tuples);
        }

        // ρ̂ per node: served fraction plus backlog growth rate.
        let mut utilization = 0.0f64;
        let mut worst_backlog_node: Option<usize> = None;
        for (i, (&(busy, backlog), &(pbusy, pbacklog))) in nodes.iter().zip(&prev.nodes).enumerate()
        {
            let rho = (busy - pbusy) / dt + ((backlog - pbacklog) / dt).max(0.0);
            utilization = utilization.max(rho);
            if backlog >= self.cfg.backlog_high_ms
                && worst_backlog_node.is_none_or(|w| backlog > nodes[w].1)
            {
                worst_backlog_node = Some(i);
            }
        }

        // Hysteresis streaks advance even during cooldown, so a
        // persistent condition fires on the first post-cooldown sample.
        if utilization >= self.cfg.high_utilization {
            self.high_streak += 1;
            self.slack_streak = 0;
        } else if utilization <= self.cfg.low_utilization && queued_tuples == 0 {
            self.slack_streak += 1;
            self.high_streak = 0;
        } else {
            self.high_streak = 0;
            self.slack_streak = 0;
        }

        if at_ms < self.cooldown_until_ms {
            return Evaluation {
                utilization,
                max_backlog_ms,
                queued_tuples,
                decision: Decision::Hold,
            };
        }

        let decision = if self.high_streak >= self.cfg.high_samples {
            let target = (self.shards * self.cfg.scale_factor.max(2)).min(self.cfg.max_shards);
            if target > self.shards || worst_backlog_node.is_some() {
                // Growing, relocating, or both — a pure re-placement
                // (already at max_shards) is still a ScaleUp decision.
                self.shards = target.max(self.shards);
                Decision::ScaleUp {
                    shards: self.shards,
                    relocate_from: worst_backlog_node,
                }
            } else {
                Decision::Hold
            }
        } else if self.slack_streak >= self.cfg.slack_samples && self.shards > self.cfg.min_shards {
            self.shards = (self.shards / self.cfg.scale_factor.max(2)).max(self.cfg.min_shards);
            Decision::ScaleDown {
                shards: self.shards,
            }
        } else {
            Decision::Hold
        };

        if decision != Decision::Hold {
            self.high_streak = 0;
            self.slack_streak = 0;
            self.cooldown_until_ms = at_ms + self.cfg.cooldown_ms;
        }
        Evaluation {
            utilization,
            max_backlog_ms,
            queued_tuples,
            decision,
        }
    }

    /// Overwrite the believed shard count (after a failed or external
    /// switch).
    pub fn force_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    fn hold(&self, utilization: f64, max_backlog_ms: f64, queued_tuples: u64) -> Evaluation {
        Evaluation {
            utilization,
            max_backlog_ms,
            queued_tuples,
            decision: Decision::Hold,
        }
    }
}

/// One row of the controller's decision log: the snapshot it saw, the
/// utilization it predicted and what it did about it.
#[derive(Debug, Clone)]
pub struct DecisionRecord {
    /// Virtual time of the deciding snapshot.
    pub at_ms: f64,
    /// Wall time of the deciding snapshot.
    pub wall_ms: f64,
    /// Predicted utilization (ρ̂, max over nodes).
    pub utilization: f64,
    /// Largest per-node pacer backlog at the sample (ms).
    pub max_backlog_ms: f64,
    /// Live shards' queued input tuples at the sample.
    pub queued_tuples: u64,
    /// `"hold"`, `"scale-up"`, `"scale-down"`, `"injected-apply"`,
    /// `"injected-add-source"`.
    pub action: String,
    /// Epoch of the synthesized switch (`NaN` for holds).
    pub epoch_ms: f64,
    /// Shard count after the decision.
    pub shards: usize,
    /// `"held"`, `"applied"`, or `"rejected: <error>"`.
    pub outcome: String,
}

/// A switch the controller successfully applied, in order. Replaying
/// `switch`es through [`nova_runtime::simulate_reconfigured`] (the
/// scale overrides do not exist there — shard layout is an executor
/// concept that never changes counts) must reproduce the run's exec
/// counts on drop-free runs.
#[derive(Debug, Clone)]
pub struct RecordedSwitch {
    /// The applied plan switch.
    pub switch: PlanSwitch,
    /// True when it was an [`ExecHandle::add_source`] admission.
    pub admitted: bool,
    /// Shard-count override, when the switch carried one.
    pub scale: Option<usize>,
    /// The epoch's measurements.
    pub stats: EpochStats,
}

/// Everything the controller produced: the run's results, the decision
/// log and the applied switch sequence (the replay script).
#[derive(Debug)]
pub struct AutoscaleReport {
    /// The joined run's [`ExecResult`].
    pub result: ExecResult,
    /// One record per evaluated snapshot or injected command.
    pub decisions: Vec<DecisionRecord>,
    /// Applied switches in application order.
    pub switches: Vec<RecordedSwitch>,
}

/// Rebuilds the dataflow away from an exhausted node: given the node
/// to evacuate, returns the replacement [`Dataflow`] and the
/// instance succession map (old instance → new instance), exactly the
/// `(dataflow, succ)` halves of a [`PlanSwitch`]. Supplied by the
/// caller because placement lives in `nova-core`, not the executor —
/// tests typically wrap `nova_core::baselines::host_based`.
pub type Relocator = Box<dyn FnMut(NodeId) -> (Dataflow, Vec<Option<u32>>) + Send>;

/// Latency oracle for compiling post plans on the controller thread.
pub type DistFn = Box<dyn FnMut(NodeId, NodeId) -> f64 + Send>;

enum Cmd {
    Apply {
        switch: PlanSwitch,
        reply: mpsc::Sender<Result<EpochStats, ReconfigError>>,
    },
    AddSource {
        switch: PlanSwitch,
        reply: mpsc::Sender<Result<EpochStats, ReconfigError>>,
    },
}

/// The closed-loop controller: owns the [`ExecHandle`] on a background
/// thread, watches the snapshot feed through a [`Policy`] and applies
/// the switches it decides on. External plan changes (a re-optimizer,
/// a workload generator, an operator) are injected through
/// [`Autoscaler::apply`] / [`Autoscaler::add_source`] and execute on
/// the controller thread, so the run sees **one totally ordered switch
/// sequence** — which is what makes the recorded sequence replayable.
///
/// The thread exits when the snapshot feed reports every shard retired
/// (the run drained), or — when there is no feed because telemetry is
/// off — when the `Autoscaler` is [`Autoscaler::join`]ed; either way
/// it then joins the run and assembles the [`AutoscaleReport`].
///
/// # Example
///
/// Launch a run, hand the handle to a controller, inject one
/// placement move (sink host → worker) and collect the report. The
/// workload is far below the high-water mark and already at the
/// scale-down floor, so the injected switch is the only one applied:
///
/// ```
/// use nova_core::baselines::{host_based, sink_based};
/// use nova_core::{JoinQuery, StreamSpec};
/// use nova_exec::{launch, AutoscaleConfig, Autoscaler, ExecConfig};
/// use nova_runtime::{Dataflow, PlanSwitch};
/// use nova_topology::{NodeId, NodeRole, Topology};
///
/// let mut t = Topology::new();
/// let sink = t.add_node(NodeRole::Sink, 1000.0, "sink");
/// let l = t.add_node(NodeRole::Source, 1000.0, "l");
/// let r = t.add_node(NodeRole::Source, 1000.0, "r");
/// let w = t.add_node(NodeRole::Worker, 1000.0, "w");
/// let q = JoinQuery::by_key(
///     vec![StreamSpec::keyed(l, 25.0, 1)],
///     vec![StreamSpec::keyed(r, 25.0, 1)],
///     sink,
/// );
/// fn dist(a: NodeId, b: NodeId) -> f64 {
///     if a == b { 0.0 } else { 5.0 }
/// }
/// let pre = sink_based(&q, &q.resolve());
/// let post = host_based(&q, &q.resolve(), w);
/// let df = Dataflow::from_baseline(&q, &pre);
/// let cfg = ExecConfig {
///     duration_ms: 600.0,
///     window_ms: 100.0,
///     time_scale: 8.0,             // 600 virtual ms in ~75 wall ms
///     max_queue_ms: f64::INFINITY, // drop-free ⇒ counts are exact
///     ..ExecConfig::default()
/// };
///
/// let handle = launch(&t, dist, &df, &cfg).expect("config is valid");
/// let ctl = Autoscaler::spawn(
///     handle,
///     df.clone(),
///     AutoscaleConfig::default(),
///     Box::new(dist),
///     None, // no relocator: the controller may rescale, not re-place
/// );
///
/// // A non-finite epoch asks the controller to stamp the switch
/// // `now + epoch_lead_ms` when it executes on the controller thread.
/// let mv = PlanSwitch::between(f64::NAN, &q, &pre, &post, 1.0);
/// ctl.apply(mv).expect("injected switch applies");
///
/// let report = ctl.join();
/// assert!(report.result.delivered > 0);
/// assert_eq!(report.result.dropped, 0);
/// assert_eq!(report.switches.len(), 1, "only the injected move");
/// ```
pub struct Autoscaler {
    cmd_tx: Option<mpsc::Sender<Cmd>>,
    thread: Option<JoinHandle<AutoscaleReport>>,
}

impl Autoscaler {
    /// Take ownership of a launched run and start controlling it.
    ///
    /// `dataflow` must be the plan the run was launched with (the
    /// controller clones it for identity switches and tracks it across
    /// relocations). `relocator` enables the re-placement half of
    /// scale-up decisions; without it the controller only scales the
    /// shard layout.
    pub fn spawn(
        handle: ExecHandle,
        dataflow: Dataflow,
        cfg: AutoscaleConfig,
        dist: DistFn,
        relocator: Option<Relocator>,
    ) -> Autoscaler {
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            control_loop(handle, dataflow, cfg, dist, relocator, cmd_rx)
        });
        Autoscaler {
            cmd_tx: Some(cmd_tx),
            thread: Some(thread),
        }
    }

    /// Inject a plan switch; it is applied on the controller thread
    /// (totally ordered with the controller's own switches) and the
    /// result returned synchronously. A switch with a non-finite
    /// `epoch_ms` is stamped `now + epoch_lead_ms` by the controller.
    pub fn apply(&self, switch: PlanSwitch) -> Result<EpochStats, ReconfigError> {
        self.roundtrip(|reply| Cmd::Apply { switch, reply })
    }

    /// Inject a source admission (see [`ExecHandle::add_source`]),
    /// same ordering and stamping rules as [`Autoscaler::apply`].
    pub fn add_source(&self, switch: PlanSwitch) -> Result<EpochStats, ReconfigError> {
        self.roundtrip(|reply| Cmd::AddSource { switch, reply })
    }

    fn roundtrip(
        &self,
        make: impl FnOnce(mpsc::Sender<Result<EpochStats, ReconfigError>>) -> Cmd,
    ) -> Result<EpochStats, ReconfigError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let sent = self
            .cmd_tx
            .as_ref()
            .map(|tx| tx.send(make(reply_tx)).is_ok())
            .unwrap_or(false);
        if !sent {
            return Err(ReconfigError::RunFinished);
        }
        reply_rx.recv().unwrap_or(Err(ReconfigError::RunFinished))
    }

    /// Wait for the run to end and collect the report. (Dropping the
    /// command channel is what releases a feed-less controller.)
    pub fn join(mut self) -> AutoscaleReport {
        self.cmd_tx = None;
        self.thread
            .take()
            .expect("autoscaler already joined")
            .join()
            .expect("autoscaler thread panicked")
    }
}

/// The controller thread body.
fn control_loop(
    mut handle: ExecHandle,
    mut current: Dataflow,
    cfg: AutoscaleConfig,
    mut dist: DistFn,
    mut relocator: Option<Relocator>,
    cmd_rx: mpsc::Receiver<Cmd>,
) -> AutoscaleReport {
    let mut decisions: Vec<DecisionRecord> = Vec::new();
    let mut switches: Vec<RecordedSwitch> = Vec::new();
    let mut policy = Policy::new(cfg.clone(), handle.shards());

    let feed = if cfg.interval.is_zero() {
        None
    } else {
        handle.subscribe(cfg.interval).ok()
    };

    let run_cmd = |cmd: Cmd,
                   handle: &mut ExecHandle,
                   current: &mut Dataflow,
                   policy: &mut Policy,
                   decisions: &mut Vec<DecisionRecord>,
                   switches: &mut Vec<RecordedSwitch>,
                   dist: &mut DistFn| {
        let (mut switch, admitted, reply) = match cmd {
            Cmd::Apply { switch, reply } => (switch, false, reply),
            Cmd::AddSource { switch, reply } => (switch, true, reply),
        };
        if !switch.epoch_ms.is_finite() {
            switch.epoch_ms = handle.now_ms() + cfg.epoch_lead_ms;
        }
        let res = if admitted {
            handle.add_source(&switch, &mut *dist)
        } else {
            handle.apply(&switch, &mut *dist)
        };
        let outcome = match &res {
            Ok(stats) => {
                *current = switch.dataflow.clone();
                switches.push(RecordedSwitch {
                    switch: switch.clone(),
                    admitted,
                    scale: None,
                    stats: *stats,
                });
                "applied".to_string()
            }
            Err(e) => format!("rejected: {e}"),
        };
        decisions.push(DecisionRecord {
            at_ms: handle.now_ms(),
            wall_ms: f64::NAN,
            utilization: f64::NAN,
            max_backlog_ms: f64::NAN,
            queued_tuples: 0,
            action: if admitted {
                "injected-add-source".into()
            } else {
                "injected-apply".into()
            },
            epoch_ms: switch.epoch_ms,
            shards: policy.shards(),
            outcome,
        });
        let _ = reply.send(res);
    };

    if let Some(rx) = feed {
        // Virtual time at which the last switch attempt returned.
        let mut settled_ms = f64::NEG_INFINITY;
        loop {
            // Injected commands first: they share the thread, so they
            // interleave with controller decisions in one sequence.
            while let Ok(cmd) = cmd_rx.try_recv() {
                run_cmd(
                    cmd,
                    &mut handle,
                    &mut current,
                    &mut policy,
                    &mut decisions,
                    &mut switches,
                    &mut dist,
                );
                settled_ms = handle.now_ms();
            }
            let snap = match rx.recv_timeout(Duration::from_millis(5)) {
                Ok(s) => s,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                // Telemetry registry gone (should not happen before
                // finish, but never spin on a dead feed).
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            // The run has drained once every shard row has retired. The
            // sampler runs on its own thread, so a snapshot taken while
            // a switch was in flight can catch the old generation retired
            // and the new one not yet registered; only a snapshot taken
            // after the last switch returned proves the drain.
            let drained = snap.at_ms > settled_ms
                && !snap.shards.is_empty()
                && snap.shards.iter().all(|s| !s.live);
            let eval = policy.observe(&snap);
            let (action, epoch_ms, outcome) = match eval.decision {
                Decision::Hold => ("hold".to_string(), f64::NAN, "held".to_string()),
                Decision::ScaleUp {
                    shards,
                    relocate_from,
                } => {
                    let epoch_ms = snap.at_ms + cfg.epoch_lead_ms;
                    let (dataflow, succ) = match relocate_from {
                        Some(node) => match relocator.as_mut() {
                            Some(r) => r(NodeId(node as u32)),
                            None => (current.clone(), identity_succ(&current)),
                        },
                        None => (current.clone(), identity_succ(&current)),
                    };
                    let switch = PlanSwitch {
                        epoch_ms,
                        dataflow,
                        succ,
                        node_capacity: Vec::new(),
                    };
                    let action = if relocate_from.is_some() {
                        "scale-up+relocate".to_string()
                    } else {
                        "scale-up".to_string()
                    };
                    match handle.apply_scaled(&switch, &mut *dist, shards) {
                        Ok(stats) => {
                            current = switch.dataflow.clone();
                            switches.push(RecordedSwitch {
                                switch,
                                admitted: false,
                                scale: Some(shards),
                                stats,
                            });
                            (action, epoch_ms, "applied".to_string())
                        }
                        Err(e) => {
                            policy.force_shards(handle.shards());
                            (action, epoch_ms, format!("rejected: {e}"))
                        }
                    }
                }
                Decision::ScaleDown { shards } => {
                    let epoch_ms = snap.at_ms + cfg.epoch_lead_ms;
                    let switch = PlanSwitch {
                        epoch_ms,
                        dataflow: current.clone(),
                        succ: identity_succ(&current),
                        node_capacity: Vec::new(),
                    };
                    match handle.apply_scaled(&switch, &mut *dist, shards) {
                        Ok(stats) => {
                            current = switch.dataflow.clone();
                            switches.push(RecordedSwitch {
                                switch,
                                admitted: false,
                                scale: Some(shards),
                                stats,
                            });
                            ("scale-down".to_string(), epoch_ms, "applied".to_string())
                        }
                        Err(e) => {
                            policy.force_shards(handle.shards());
                            ("scale-down".to_string(), epoch_ms, format!("rejected: {e}"))
                        }
                    }
                }
            };
            if eval.decision != Decision::Hold {
                settled_ms = handle.now_ms();
            }
            decisions.push(DecisionRecord {
                at_ms: snap.at_ms,
                wall_ms: snap.wall_ms,
                utilization: eval.utilization,
                max_backlog_ms: eval.max_backlog_ms,
                queued_tuples: eval.queued_tuples,
                action,
                epoch_ms,
                shards: policy.shards(),
                outcome,
            });
            if drained {
                break;
            }
        }
    }

    // No feed left (or none to begin with): stay available for
    // injected switches until the handle's owner joins us.
    while let Ok(cmd) = cmd_rx.recv() {
        run_cmd(
            cmd,
            &mut handle,
            &mut current,
            &mut policy,
            &mut decisions,
            &mut switches,
            &mut dist,
        );
    }

    AutoscaleReport {
        result: handle.join(),
        decisions,
        switches,
    }
}

fn identity_succ(df: &Dataflow) -> Vec<Option<u32>> {
    (0..df.instances.len() as u32).map(Some).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig {
            high_samples: 2,
            slack_samples: 2,
            cooldown_ms: 100.0,
            min_shards: 1,
            max_shards: 8,
            ..AutoscaleConfig::default()
        }
    }

    /// Feed the policy a saturated node: busy advances as fast as time
    /// and backlog grows, so ρ̂ > 1.
    fn hot(policy: &mut Policy, at_ms: f64, backlog: f64) -> Evaluation {
        policy.step(at_ms, &[(at_ms, backlog)], 0)
    }

    #[test]
    fn estimator_recovers_overload_from_backlog_growth() {
        let mut p = Policy::new(cfg(), 1);
        p.step(0.0, &[(0.0, 0.0)], 0);
        // busy tracks time (ρ = 1) and backlog grows 50 ms per 100 ms.
        let e = p.step(100.0, &[(100.0, 50.0)], 0);
        assert!((e.utilization - 1.5).abs() < 1e-9, "{}", e.utilization);
    }

    #[test]
    fn scale_up_needs_the_full_streak() {
        let mut p = Policy::new(cfg(), 1);
        hot(&mut p, 0.0, 0.0);
        let e1 = hot(&mut p, 100.0, 100.0);
        assert_eq!(e1.decision, Decision::Hold, "one sample is not a trend");
        let e2 = hot(&mut p, 200.0, 200.0);
        assert!(
            matches!(e2.decision, Decision::ScaleUp { shards: 2, .. }),
            "{:?}",
            e2.decision
        );
    }

    #[test]
    fn cooldown_suppresses_back_to_back_switches() {
        let mut p = Policy::new(cfg(), 1);
        hot(&mut p, 0.0, 0.0);
        hot(&mut p, 100.0, 100.0);
        let fired = hot(&mut p, 200.0, 200.0);
        assert!(matches!(fired.decision, Decision::ScaleUp { .. }));
        // Still saturated, but inside the 100 ms cooldown: hold.
        let e = hot(&mut p, 250.0, 300.0);
        assert_eq!(e.decision, Decision::Hold);
        // First sample past the cooldown fires again (streak kept
        // advancing underneath).
        let e = hot(&mut p, 310.0, 400.0);
        assert!(
            matches!(e.decision, Decision::ScaleUp { shards: 4, .. }),
            "{:?}",
            e.decision
        );
    }

    #[test]
    fn scale_down_floors_at_min_shards() {
        let mut p = Policy::new(cfg(), 2);
        p.step(0.0, &[(0.0, 0.0)], 0);
        let e1 = p.step(100.0, &[(10.0, 0.0)], 0);
        assert_eq!(e1.decision, Decision::Hold);
        let e2 = p.step(200.0, &[(20.0, 0.0)], 0);
        assert!(
            matches!(e2.decision, Decision::ScaleDown { shards: 1, .. }),
            "{:?}",
            e2.decision
        );
        // Already at the floor: sustained slack never goes below 1.
        for i in 0..10 {
            let at = 400.0 + 100.0 * i as f64;
            let e = p.step(at, &[(20.0, 0.0)], 0);
            assert_eq!(e.decision, Decision::Hold, "sample {i}");
        }
        assert_eq!(p.shards(), 1);
    }

    #[test]
    fn queued_tuples_block_scale_down() {
        let mut p = Policy::new(cfg(), 4);
        p.step(0.0, &[(0.0, 0.0)], 0);
        for i in 1..=10 {
            // Model-domain slack but wall-side queues: the shards are
            // the bottleneck, shrinking them would make it worse.
            let e = p.step(100.0 * i as f64, &[(10.0, 0.0)], 500);
            assert_eq!(e.decision, Decision::Hold, "sample {i}");
        }
        assert_eq!(p.shards(), 4);
    }

    #[test]
    fn relocation_rides_on_backlog_exhaustion() {
        let mut p = Policy::new(cfg(), 1);
        p.step(0.0, &[(0.0, 0.0), (0.0, 0.0)], 0);
        // Node 1 saturates with a growing backlog past backlog_high_ms.
        p.step(100.0, &[(20.0, 0.0), (100.0, 250.0)], 0);
        let e = p.step(200.0, &[(40.0, 0.0), (200.0, 500.0)], 0);
        match e.decision {
            Decision::ScaleUp {
                relocate_from: Some(n),
                ..
            } => assert_eq!(n, 1),
            other => panic!("expected relocating scale-up, got {other:?}"),
        }
    }
}
