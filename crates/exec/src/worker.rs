//! Plan compilation and the source/sink worker loops.
//!
//! Before any thread starts, the [`Dataflow`] is *compiled*: every
//! routing path is resolved into a flat chain of `(node, link-delay)`
//! segments so worker threads never consult the topology or the latency
//! oracle at runtime. A source thread then plays its stream against the
//! virtual clock — token-bucket pacing against the configured rate,
//! ingest service on the source node's pacer, relay charges along the
//! compiled segments — and ships batches over the bounded channels. The
//! sink thread is the measurement point: it charges the sink node's
//! service slot per output and records [`OutputRecord`]s.

use nova_core::Side;
use nova_runtime::{pick_partition, subkey_of, Dataflow, OutputRecord, Tuple, WindowBuffers};
use nova_topology::{NodeId, Topology};
use rand::prelude::*;
use std::time::Instant;

use crate::channel::{InFlight, JoinMsg, Receiver, Sender, SinkMsg, TupleBatch};
use crate::control::SourceCtrl;
use crate::metrics::{
    count_drop, Counters, LatencyBatch, NodePacer, SinkTelemetry, SourceTelemetry,
};
use crate::sharded::route;
use crate::ExecConfig;

/// Wall-to-virtual time mapping shared by every worker.
///
/// Virtual time runs `scale`× faster than wall time, so a 120 s
/// experiment can execute in 120/scale wall seconds while keeping every
/// virtual-domain quantity (rates, window assignment, latencies)
/// identical. `scale = 1` is real time.
#[derive(Debug, Clone, Copy)]
pub struct VirtualClock {
    start: Instant,
    scale: f64,
}

impl VirtualClock {
    /// Start the clock now. `scale` must be positive and finite
    /// ([`ExecConfig::validate`] rejects anything else before a run
    /// starts a clock); no value is substituted for a bad one.
    pub fn start(scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "VirtualClock scale must be positive and finite, got {scale}"
        );
        VirtualClock {
            start: Instant::now(),
            scale,
        }
    }

    /// Current virtual time in ms.
    #[inline]
    pub fn now_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1000.0 * self.scale
    }

    /// Elapsed wall time in ms.
    pub fn wall_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1000.0
    }

    /// Sleep until virtual time `t` (coarse: re-checks after sleeping).
    pub fn sleep_until(&self, t: f64) {
        loop {
            let now = self.now_ms();
            if now >= t {
                return;
            }
            let wall_ms = (t - now) / self.scale;
            std::thread::sleep(std::time::Duration::from_secs_f64(
                (wall_ms / 1000.0).max(50e-6),
            ));
        }
    }
}

/// One hop of a compiled route: pay `link_ms` of wire delay, then one
/// service slot on `node`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    pub node: usize,
    pub link_ms: f64,
}

/// A compiled path from a source to one join instance. The final
/// segment's node is the instance's host, so clearing the chain includes
/// the instance's ingest service charge (mirroring the simulator, which
/// serves the instance node on the tuple's final `InputArrive`).
#[derive(Debug, Clone)]
pub(crate) struct CompiledRoute {
    pub instance: u32,
    pub segments: Vec<Segment>,
}

/// A source's routing table for one join pair.
#[derive(Debug, Clone)]
pub(crate) struct CompiledFeed {
    pub pair: nova_core::PairId,
    pub partition_rates: Vec<f64>,
    /// Per partition index: the routes to every hosting instance.
    pub routes: Vec<Vec<CompiledRoute>>,
}

/// A fully compiled source task.
#[derive(Debug, Clone)]
pub(crate) struct CompiledSource {
    pub index: u32,
    pub node: usize,
    pub side: Side,
    pub key: u32,
    /// Emission interval in virtual ms.
    pub interval_ms: f64,
    /// First emission time (sources are staggered like the simulator to
    /// avoid phase artifacts).
    pub first_at_ms: f64,
    pub feeds: Vec<CompiledFeed>,
    /// Distinct instances this source can reach (Eof fan-out).
    pub targets: Vec<u32>,
}

/// A compiled join instance.
#[derive(Debug, Clone)]
pub(crate) struct CompiledInstance {
    pub index: u32,
    pub pair: nova_core::PairId,
    /// Relay hops of the output path (excludes the sink itself).
    pub out_relays: Vec<Segment>,
    /// Wire delay of the final hop into the sink (0 when co-located).
    pub out_final_link_ms: f64,
    /// Whether the sink node charges a service slot per output (false
    /// when the join runs on the sink itself, like the simulator).
    pub charge_sink: bool,
    /// Number of sources feeding this instance (Eof quorum).
    pub producers: usize,
}

/// The compiled plan: everything workers need, oracle-free.
#[derive(Debug, Clone)]
pub(crate) struct CompiledPlan {
    pub sources: Vec<CompiledSource>,
    pub instances: Vec<CompiledInstance>,
}

/// Resolve the dataflow against the topology and latency oracle.
pub(crate) fn compile(
    topology: &Topology,
    dist: &mut dyn FnMut(NodeId, NodeId) -> f64,
    dataflow: &Dataflow,
) -> CompiledPlan {
    let _ = topology; // capacities are consumed by the pacer table
    let mut producer_sets: Vec<Vec<u32>> = vec![Vec::new(); dataflow.instances.len()];

    let sources: Vec<CompiledSource> = dataflow
        .sources
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let interval_ms = 1000.0 / s.rate;
            let mut targets: Vec<u32> = Vec::new();
            let feeds: Vec<CompiledFeed> = s
                .feeds
                .iter()
                .map(|f| CompiledFeed {
                    pair: f.pair,
                    partition_rates: f.partition_rates.clone(),
                    routes: f
                        .routes
                        .iter()
                        .map(|routes| {
                            routes
                                .iter()
                                .map(|r| {
                                    if !targets.contains(&r.instance) {
                                        targets.push(r.instance);
                                    }
                                    let segments = if r.path.len() >= 2 {
                                        r.path
                                            .windows(2)
                                            .map(|w| Segment {
                                                node: w[1].idx(),
                                                link_ms: dist(w[0], w[1]),
                                            })
                                            .collect()
                                    } else {
                                        // Join co-located with the source:
                                        // the join work still takes its own
                                        // service slot on the source node.
                                        vec![Segment {
                                            node: s.node.idx(),
                                            link_ms: 0.0,
                                        }]
                                    };
                                    CompiledRoute {
                                        instance: r.instance,
                                        segments,
                                    }
                                })
                                .collect()
                        })
                        .collect(),
                })
                .collect();
            for &t in &targets {
                producer_sets[t as usize].push(i as u32);
            }
            CompiledSource {
                index: i as u32,
                node: s.node.idx(),
                side: s.side,
                key: s.key,
                interval_ms,
                // Same stagger formula as the simulator.
                first_at_ms: interval_ms * (i as f64 / dataflow.sources.len() as f64),
                feeds,
                targets,
            }
        })
        .collect();

    let instances: Vec<CompiledInstance> = dataflow
        .instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let path = &inst.out_path;
            let (out_relays, out_final_link_ms, charge_sink) = if path.len() >= 2 {
                let relays: Vec<Segment> = (1..path.len() - 1)
                    .map(|h| Segment {
                        node: path[h].idx(),
                        link_ms: dist(path[h - 1], path[h]),
                    })
                    .collect();
                let final_link = dist(path[path.len() - 2], path[path.len() - 1]);
                (relays, final_link, true)
            } else {
                (Vec::new(), 0.0, false)
            };
            CompiledInstance {
                index: i as u32,
                pair: inst.pair,
                out_relays,
                out_final_link_ms,
                charge_sink,
                producers: producer_sets[i].len(),
            }
        })
        .collect();

    CompiledPlan { sources, instances }
}

/// Ship one non-empty [`TupleBatch`] down its channel,
/// leaving a fresh batch of the same fixed capacity in its slot (the
/// allocation travels with the message — the receiver frees it, the
/// sender never re-touches it). True while the receiver lives.
fn flush_batch(
    txs: &[Sender<JoinMsg>],
    batches: &mut [TupleBatch],
    which: usize,
    cap: usize,
    tele: &SourceTelemetry,
) -> bool {
    if batches[which].is_empty() {
        return true;
    }
    let source = batches[which].source();
    let batch = std::mem::replace(&mut batches[which], TupleBatch::with_capacity(source, cap));
    let n = batch.len();
    let ok = txs[which].send(JoinMsg::Batch(batch)).is_ok();
    if ok {
        tele.on_send(which, n);
        // Batch boundaries double as the emission-gauge flush points.
        tele.flush();
    }
    ok
}

/// Source worker: emit the stream, pay ingest + relay charges, batch
/// tuples toward the instances.
///
/// `txs` holds `shards` consecutive channels per join instance (flat
/// index `instance × shards + shard`); each tuple is routed to the
/// shard owning its `(window, pair, sub-key)` slice
/// ([`crate::sharded`]'s one routing rule) so shards share no window
/// state — on a keyed workload even one pair's single window splits by
/// join sub-key. `shards = 1` is the classic one-channel-per-instance
/// layout.
///
/// Sends block while a shard's buffer is full: sources are OS threads
/// and real backpressure is the point.
///
/// ## Live reconfiguration
///
/// `ctrl` is the source's control mailbox, polled once per emission
/// step. A [`SourceCtrl::Reconfigure`] arms an epoch: when the next
/// emission time reaches the epoch (or the stream ends first), the
/// source flushes, fans a [`JoinMsg::Barrier`] to every shard it feeds
/// and *parks* on the mailbox until [`SourceCtrl::Resume`] delivers the
/// post-epoch routing (a fresh [`CompiledSource`] + the new
/// generation's senders). The pre/post emission split is therefore
/// exactly `t < epoch` / `t >= epoch`, and the resumed grid follows
/// [`nova_runtime::resume_time`] — the same rule the simulator's
/// replay applies, which is what keeps the two engines count-identical
/// across a reconfiguration.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_source(
    mut src: CompiledSource,
    cfg: &ExecConfig,
    clock: VirtualClock,
    pacers: &[NodePacer],
    counters: &Counters,
    mut txs: Vec<Sender<JoinMsg>>,
    mut shards: usize,
    ctrl: &std::sync::mpsc::Receiver<SourceCtrl>,
    mut tele: SourceTelemetry,
) {
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (src.index as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let mut seq = 0u64;
    let mut pending_epoch: Option<(u64, f64)> = None;
    let mut t = src.first_at_ms;

    'generations: loop {
        let mut batches: Vec<TupleBatch> = (0..txs.len())
            .map(|_| TupleBatch::with_capacity(src.index, cfg.batch_size))
            .collect();
        // How far ahead of the wall clock a source may run (virtual
        // ms): enough to fill a batch at high rates, but tightly
        // bounded — sources reserve service slots on shared pacers as
        // they emit, so inter-source schedule skew inflates measured
        // queueing latency by up to this slack.
        let slack_ms = (src.interval_ms * cfg.batch_size as f64 * 0.25).clamp(0.5, 4.0);

        'emit: while t <= cfg.duration_ms {
            if pending_epoch.is_none() {
                if let Ok(SourceCtrl::Reconfigure { epoch, epoch_ms }) = ctrl.try_recv() {
                    pending_epoch = Some((epoch, epoch_ms));
                }
            }
            if let Some((_, epoch_ms)) = pending_epoch {
                if t >= epoch_ms {
                    break 'emit;
                }
            }
            let now = clock.now_ms();
            if t > now + slack_ms {
                for which in 0..batches.len() {
                    if !flush_batch(&txs, &mut batches, which, cfg.batch_size, &tele) {
                        break 'emit;
                    }
                }
                // Paced sources publish the emission gauge here: their
                // batches may stay partial for many intervals.
                tele.flush();
                clock.sleep_until(t - slack_ms * 0.5);
                continue;
            }
            seq += 1;
            Counters::bump(&counters.emitted, 1);
            tele.on_emit();
            // Ingestion costs one service slot on the source node; a
            // saturated source sheds the sample.
            let Some(ingest_done) = pacers[src.node].serve(t) else {
                count_drop(counters);
                t += src.interval_ms;
                continue;
            };
            let window = WindowBuffers::window_of(t, cfg.window_ms);
            // Same pure sub-key the simulator stamps on this
            // (stream, seq): both engines key identically.
            let subkey = subkey_of(cfg.seed, src.index, seq, cfg.key_space);
            for feed in &src.feeds {
                let partition = pick_partition(&feed.partition_rates, &mut rng);
                let shard = route(window, feed.pair, subkey, cfg.key_space, shards);
                let tuple = Tuple {
                    pair: feed.pair,
                    side: src.side,
                    partition: partition as u32,
                    key: src.key,
                    subkey,
                    seq,
                    event_time: t,
                };
                for route in &feed.routes[partition] {
                    // Walk the relay chain: wire delay, then a service
                    // slot per hop (the last hop is the instance's
                    // ingest).
                    let mut deliver_at = ingest_done;
                    let mut delivered = true;
                    for seg in &route.segments {
                        deliver_at += seg.link_ms;
                        match pacers[seg.node].serve(deliver_at) {
                            Some(done) => deliver_at = done,
                            None => {
                                count_drop(counters);
                                delivered = false;
                                break;
                            }
                        }
                    }
                    if delivered {
                        let which = route.instance as usize * shards + shard;
                        batches[which].push(InFlight { tuple, deliver_at });
                        if batches[which].len() >= cfg.batch_size
                            && !flush_batch(&txs, &mut batches, which, cfg.batch_size, &tele)
                        {
                            break 'emit;
                        }
                    }
                }
            }
            t += src.interval_ms;
        }
        for which in 0..batches.len() {
            let _ = flush_batch(&txs, &mut batches, which, cfg.batch_size, &tele);
        }
        tele.flush();

        // An armed epoch always resolves through the barrier handshake,
        // even when the stream ended first — the shards' quiesce quorum
        // counts this barrier, and the control plane decides what (if
        // anything) this source emits afterwards.
        let Some((epoch, epoch_ms)) = pending_epoch.take() else {
            break 'generations;
        };
        // An on-time arm barriers at the first grid point >= epoch, so
        // t < epoch + interval; anything beyond means emissions already
        // crossed the epoch under the old plan — flag the dirty split.
        let late = t >= epoch_ms + src.interval_ms;
        for &target in &src.targets {
            for shard in 0..shards {
                let _ = txs[target as usize * shards + shard].send(JoinMsg::Barrier {
                    source: src.index,
                    epoch,
                    late,
                });
            }
        }
        match ctrl.recv() {
            Ok(SourceCtrl::Resume {
                src: new_src,
                txs: new_txs,
                n_sources,
                shards: new_shards,
                tx_instr,
            }) => {
                // Swap in the new generation's pre-resolved send-side
                // instruments along with its channels and shard layout
                // (the controller may have scaled the shard count).
                tele.tx_instr = tx_instr;
                // Post-epoch grid: continue the old grid on an
                // unchanged rate, restart staggered from the epoch on a
                // changed one — the exact rule the simulator's replay
                // applies, shared as `nova_runtime::resume_time`.
                t = nova_runtime::resume_time(
                    t,
                    src.interval_ms,
                    new_src.interval_ms,
                    epoch_ms,
                    new_src.index as usize,
                    n_sources,
                );
                src = new_src;
                txs = new_txs;
                shards = new_shards;
            }
            // The handle is gone mid-epoch: the old shards already
            // quiesced, so there is nobody left to feed — wind down
            // without Eofs (the sink terminates by sender hang-up).
            Ok(SourceCtrl::Reconfigure { .. }) | Err(_) => return,
        }
    }

    for &target in &src.targets {
        for shard in 0..shards {
            let _ = txs[target as usize * shards + shard].send(JoinMsg::Eof { source: src.index });
        }
    }
}

/// A source admitted mid-run (`ExecHandle::add_source`): spawned
/// *parked* while its admission epoch is in flight, it waits for the
/// [`SourceCtrl::Resume`] that carries its compiled task — whose
/// `first_at_ms` the control plane has already placed on the
/// [`nova_runtime::admission_time`] grid — and only then enters the
/// normal [`run_source`] loop. A hang-up (or a stray `Reconfigure`)
/// before the Resume means the run was torn down mid-admission: exit
/// without Eofs, exactly like a source parked across a dropped handle.
pub(crate) fn run_admitted_source(
    cfg: &ExecConfig,
    clock: VirtualClock,
    pacers: &[NodePacer],
    counters: &Counters,
    ctrl: &std::sync::mpsc::Receiver<SourceCtrl>,
    registry: Option<std::sync::Arc<crate::metrics::MetricsRegistry>>,
) {
    match ctrl.recv() {
        Ok(SourceCtrl::Resume {
            src,
            txs,
            n_sources: _,
            shards,
            tx_instr,
        }) => {
            let tele = match &registry {
                Some(r) => SourceTelemetry::new(r.register_source(src.index, src.node), tx_instr),
                None => SourceTelemetry::disabled(),
            };
            run_source(src, cfg, clock, pacers, counters, txs, shards, ctrl, tele)
        }
        Ok(SourceCtrl::Reconfigure { .. }) | Err(_) => {}
    }
}

/// Sink worker: charge the sink's service slot per output and record
/// the delivered results. Returns them in arrival order.
///
/// A [`SinkMsg::Epoch`] (live reconfiguration) re-bases the Eof quorum
/// and the per-instance charge table onto the new shard generation: old
/// shards retire *without* Eofs, and the control plane orders the Epoch
/// message after every old-generation batch and before any
/// new-generation one.
pub(crate) fn run_sink(
    rx: Receiver<SinkMsg>,
    sink_node: usize,
    mut charge_sink: Vec<bool>,
    pacers: &[NodePacer],
    counters: &Counters,
    mut producers: usize,
    tele: Option<SinkTelemetry>,
) -> Vec<OutputRecord> {
    let mut records: Vec<OutputRecord> = Vec::new();
    let mut eofs = 0usize;
    if producers == 0 {
        return records;
    }
    while let Some(msg) = rx.recv() {
        match msg {
            SinkMsg::Batch { instance, outputs } => {
                // Per-batch accounting: one `seen` bump up front, local
                // latency accumulation flushed once at the end — the
                // per-output path stays atomics-free.
                let mut lat = tele.as_ref().map(|t| {
                    t.instr.on_seen(outputs.len() as u64);
                    LatencyBatch::new()
                });
                for o in outputs {
                    let arrival = if charge_sink[instance as usize] {
                        match pacers[sink_node].serve(o.deliver_at) {
                            Some(done) => done,
                            None => {
                                count_drop(counters);
                                continue;
                            }
                        }
                    } else {
                        o.deliver_at
                    };
                    let latency_ms = arrival - o.out.event_time;
                    if let Some(l) = &mut lat {
                        l.record_ms(latency_ms);
                    }
                    records.push(OutputRecord {
                        arrival_ms: arrival,
                        latency_ms,
                        pair: o.out.pair,
                    });
                }
                if let (Some(t), Some(l)) = (&tele, &lat) {
                    t.flush_batch(l);
                }
            }
            SinkMsg::Eof { .. } => {
                eofs += 1;
                if eofs == producers {
                    break;
                }
            }
            SinkMsg::Epoch {
                producers: new_producers,
                charge_sink: table,
            } => {
                producers = new_producers;
                charge_sink = table;
                eofs = 0;
                if producers == 0 {
                    break;
                }
            }
        }
    }
    records.sort_unstable_by(|a, b| a.arrival_ms.total_cmp(&b.arrival_ms));
    records
}
