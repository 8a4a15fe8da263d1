//! Join workers: windowed symmetric hash joins, one state machine for
//! every shard.
//!
//! `JoinCore` is the per-shard join state — the simulator's
//! [`WindowBuffers`] (per-tumbling-window symmetric hash tables with
//! watermark-driven garbage collection), per-source event-time
//! frontiers, the Eof quorum and the deterministic [`match_survives`]
//! selectivity test — kept apart from the thread loop (`run_join`, one
//! OS thread per shard) so the state machine is unit-testable without
//! channels. A given pair of tuples produces an output at every shard
//! count iff it does in the simulator.
//!
//! Watermarks are event-time based: tuples from one source arrive in
//! event-time order over FIFO channels, so the minimum of the
//! per-source frontiers bounds every future arrival, making garbage
//! collection safe (and match counts deterministic) regardless of how
//! the OS interleaves the work.

use std::collections::HashMap;

use nova_runtime::{match_survives, BufferedTuple, OutputTuple, WindowBuffers, WindowGroup};

use crate::channel::{InFlight, JoinMsg, OutFlight, Receiver, Sender, SinkMsg, TupleBatch};
use crate::control::Quiesced;
use crate::metrics::{count_drop, Counters, NodePacer, ShardInstr, ShardTelemetry};
use crate::worker::CompiledInstance;
use crate::ExecConfig;

/// The join state of one shard of one deployed instance. Callers feed
/// it routed tuples ([`JoinCore::on_tuple`]), close out input batches ([`JoinCore::end_batch`]) and deliver Eofs
/// ([`JoinCore::on_eof`]); it appends surviving outputs — with their
/// out-path relay charges already paid — to the caller's batch.
pub(crate) struct JoinCore {
    pub inst: CompiledInstance,
    buffers: WindowBuffers,
    frontiers: HashMap<u32, f64>,
    eofs: usize,
    /// Epoch barriers received (live reconfiguration); a producer
    /// contributes to the quiesce quorum via a barrier *or* its Eof.
    barriers: usize,
    /// The epoch the received barriers belong to (at most one epoch is
    /// in flight per generation — the control plane serializes them).
    epoch: Option<u64>,
    /// Whether any producer reported barriering late (see
    /// [`JoinCore::late_split`]).
    late_split: bool,
    /// Matches produced so far; the caller publishes this into the
    /// shared [`Counters`] exactly once, when the shard retires.
    pub matched: u64,
    /// How much of `matched` has been flushed to the shard instrument
    /// ([`JoinCore::publish_matched`]) — the per-match hot path stays
    /// free of atomics; the live gauge advances once per batch.
    matched_published: u64,
    last_gc_watermark: f64,
    /// Pre-resolved telemetry handles (None with `telemetry: false`);
    /// set once at spawn by the control plane.
    telemetry: Option<ShardTelemetry>,
}

impl JoinCore {
    pub fn new(inst: CompiledInstance) -> Self {
        JoinCore::new_with_state(inst, Vec::new())
    }

    /// A core pre-seeded with migrated window state (live
    /// reconfiguration): the groups become probe partners for tuples
    /// that arrive afterwards, but are never re-probed against each
    /// other — their mutual matches were produced before the handoff.
    pub fn new_with_state(inst: CompiledInstance, groups: Vec<WindowGroup>) -> Self {
        let mut buffers = WindowBuffers::new();
        buffers.import_groups(groups);
        JoinCore {
            inst,
            buffers,
            frontiers: HashMap::new(),
            eofs: 0,
            barriers: 0,
            epoch: None,
            late_split: false,
            matched: 0,
            matched_published: 0,
            last_gc_watermark: 0.0,
            telemetry: None,
        }
    }

    /// Attach the shard's pre-resolved instruments (control plane, at
    /// spawn — before the core is handed to its worker).
    pub fn set_telemetry(&mut self, tele: ShardTelemetry) {
        self.telemetry = Some(tele);
    }

    /// This shard's instrument, for send/flush accounting.
    pub fn shard_instr(&self) -> Option<&ShardInstr> {
        self.telemetry.as_ref().map(|t| &*t.instr)
    }

    /// Record a dequeued input batch.
    #[inline]
    pub fn note_recv(&self, tuples: usize) {
        if let Some(t) = &self.telemetry {
            t.instr.on_recv(tuples);
        }
    }

    /// Start a service-time measurement iff telemetry is attached (so
    /// the disabled path never touches the clock).
    #[inline]
    pub fn service_timer(&self) -> Option<std::time::Instant> {
        self.telemetry.as_ref().map(|_| std::time::Instant::now())
    }

    /// Record one batch's accumulated wall-clock service time.
    #[inline]
    pub fn note_service(&self, spent: std::time::Duration) {
        if let Some(t) = &self.telemetry {
            t.registry.record_service_ms(spent.as_secs_f64() * 1000.0);
        }
    }

    /// Flush the locally-accumulated match count into the shard
    /// instrument — called once per input batch (and at retire), so
    /// the per-match path carries no atomics at all.
    #[inline]
    pub fn publish_matched(&mut self) {
        if let Some(t) = &self.telemetry {
            let delta = self.matched - self.matched_published;
            if delta > 0 {
                t.instr.on_matched(delta);
            }
            self.matched_published = self.matched;
        }
    }

    /// Mark the shard's instrument retired (Eof or epoch quiesce).
    pub fn mark_retired(&mut self) {
        self.publish_matched();
        if let Some(t) = &self.telemetry {
            t.instr.retire();
        }
    }

    /// Whether every producing source has signalled Eof.
    pub fn finished(&self) -> bool {
        self.eofs == self.inst.producers
    }

    /// Record a source's epoch barrier. Returns true once the quiesce
    /// quorum is complete — see [`JoinCore::quiesce_ready`].
    pub fn on_barrier(&mut self, _source: u32, epoch: u64, late: bool) -> bool {
        self.barriers += 1;
        self.epoch = Some(epoch);
        self.late_split |= late;
        self.quiesce_ready().is_some()
    }

    /// The quiesce quorum: at least one producer barriered and every
    /// producer has delivered a barrier *or* an Eof — the shard has
    /// then seen its complete pre-epoch input (per-producer FIFO) and
    /// must quiesce (flush, export state, retire without a sink Eof).
    /// Returns the epoch to report. Checked after barriers **and**
    /// after Eofs: a source whose stream ends while an epoch is being
    /// armed contributes its Eof to the quorum, and that Eof may well
    /// be the closing message.
    pub fn quiesce_ready(&self) -> Option<u64> {
        let epoch = self.epoch?;
        (self.barriers + self.eofs >= self.inst.producers).then_some(epoch)
    }

    /// Whether any producer barriered *after* already emitting past the
    /// epoch (the arm lost the race against the emission frontier) —
    /// surfaced so callers learn their split is not the clean
    /// `t < epoch` one the simulator replay assumes.
    pub fn late_split(&self) -> bool {
        self.late_split
    }

    /// Drain the shard's live window state for handoff to its successor
    /// (deterministically ordered, see
    /// [`WindowBuffers::export_groups`]).
    pub fn export_state(&mut self) -> Vec<WindowGroup> {
        self.buffers.export_groups()
    }

    /// Probe-and-insert one routed tuple: surviving matches are
    /// charged along the instance's out-path relays and appended to
    /// `out`. Callers flush `out` *between* tuples, so within one call
    /// it grows by the tuple's full match fan-out (bounded by the
    /// tuple's `(window, subkey)` partner group — the same order as
    /// the window state itself); the per-batch frontier bookkeeping
    /// lives in [`JoinCore::end_batch`], off this per-tuple hot path.
    // lint: no_alloc hot_path — the probe loop; `out.push` amortizes
    // into the caller's reused buffer, everything else is in place.
    pub fn on_tuple(
        &mut self,
        inflight: &InFlight,
        cfg: &ExecConfig,
        pacers: &[NodePacer],
        counters: &Counters,
        out: &mut Vec<OutFlight>,
    ) {
        let tuple = inflight.tuple;
        let window = WindowBuffers::window_of(tuple.event_time, cfg.window_ms);
        let (inst, matched) = (&self.inst, &mut self.matched);
        // Zero-copy keyed probe: partners are visited in place — no
        // per-probe Vec of the opposite buffer — and only within the
        // tuple's (window, subkey) group, so keyed workloads never walk
        // candidates they cannot match (unkeyed ones carry subkey 0 and
        // probe the whole window as before).
        self.buffers.insert_and_probe_with(
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
                *matched += 1;
                // Chain the output through the relay hops of the
                // out-path; the sink's own service slot is charged by
                // the sink worker.
                let mut deliver_at = inflight.deliver_at;
                for seg in &inst.out_relays {
                    deliver_at += seg.link_ms;
                    match pacers[seg.node].serve(deliver_at) {
                        Some(done) => deliver_at = done,
                        None => {
                            count_drop(counters);
                            return;
                        }
                    }
                }
                out.push(OutFlight {
                    out: OutputTuple {
                        pair: inst.pair,
                        key: tuple.key,
                        event_time: tuple.event_time.max(partner.event_time),
                    },
                    deliver_at: deliver_at + inst.out_final_link_ms,
                });
            },
        );
    }

    /// Probe one whole input batch per state-machine step: every tuple
    /// through [`Self::on_tuple`], then the once-per-batch bookkeeping
    /// — frontier/watermark/GC via [`Self::end_batch`] (the batch
    /// carries its own event-time frontier, so no re-scan), match-count
    /// publication and the service-time sample. Surviving outputs
    /// append to `out`; the caller ships them downstream after the step
    /// (re-framed to its own batch size), which makes the batch the
    /// executor's atomic unit of work — a barrier or Eof can only ever
    /// fall *between* batches.
    // lint: no_alloc hot_path — one batch per state-machine step;
    // steady state must not allocate per batch.
    pub fn on_batch(
        &mut self,
        batch: &TupleBatch,
        cfg: &ExecConfig,
        pacers: &[NodePacer],
        counters: &Counters,
        out: &mut Vec<OutFlight>,
    ) {
        self.note_recv(batch.len());
        let t0 = self.service_timer();
        for inflight in batch.tuples() {
            self.on_tuple(inflight, cfg, pacers, counters, out);
        }
        self.end_batch(batch.source(), batch.frontier(), cfg);
        self.publish_matched();
        if let Some(t0) = t0 {
            self.note_service(t0.elapsed());
        }
    }

    /// Close out an input batch from `source`: record the batch's
    /// event-time maximum as the source's frontier (one map touch per
    /// batch, not per tuple), re-derive the watermark (nothing older
    /// than the smallest per-source frontier can still arrive) and
    /// garbage-collect expired windows on cadence.
    pub fn end_batch(&mut self, source: u32, batch_frontier: f64, cfg: &ExecConfig) {
        let frontier = self.frontiers.entry(source).or_insert(0.0);
        *frontier = frontier.max(batch_frontier);
        if self.frontiers.len() == self.inst.producers {
            let watermark = self
                .frontiers
                .values()
                .copied()
                .fold(f64::INFINITY, f64::min);
            if watermark - self.last_gc_watermark >= cfg.gc_interval_ms {
                self.buffers.gc(watermark, cfg.window_ms);
                self.last_gc_watermark = watermark;
            }
        }
    }

    /// Record a source's Eof; returns true once all producers are done.
    pub fn on_eof(&mut self, source: u32) -> bool {
        self.frontiers.insert(source, f64::INFINITY);
        self.eofs += 1;
        self.finished()
    }
}

/// Blocking join worker loop for one shard.
/// Consumes input batches until all producing sources signalled Eof —
/// then flushes and sends its sink Eof — or until an epoch barrier
/// completes, in which case the shard *quiesces*: flushes, publishes
/// its match count, ships its window state up the control channel and
/// retires **without** a sink Eof (the control plane re-bases the
/// sink's quorum on the new generation).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_join(
    mut core: JoinCore,
    flat: usize,
    cfg: &ExecConfig,
    pacers: &[NodePacer],
    counters: &Counters,
    rx: Receiver<JoinMsg>,
    sink_tx: Sender<SinkMsg>,
    ctrl_up: std::sync::mpsc::Sender<Quiesced>,
) {
    let mut out_batch: Vec<OutFlight> = Vec::new();

    if core.inst.producers == 0 {
        core.mark_retired();
        let _ = sink_tx.send(SinkMsg::Eof {
            instance: core.inst.index,
        });
        return;
    }

    // Quiesce: every pre-epoch tuple is behind us. The flush *precedes*
    // the Quiesced send, so by the time the control plane re-bases the
    // sink, all of this shard's output is already enqueued there. No
    // sink Eof — the control plane re-bases the quorum.
    let quiesce = |core: &mut JoinCore, out_batch: &mut Vec<OutFlight>, epoch: u64| {
        let _ = flush(&sink_tx, core.inst.index, out_batch, core.shard_instr());
        Counters::bump(&counters.matched, core.matched);
        core.mark_retired();
        let _ = ctrl_up.send(Quiesced {
            flat,
            epoch,
            late: core.late_split(),
            groups: core.export_state(),
        });
    };

    'consume: while let Some(msg) = rx.recv() {
        match msg {
            JoinMsg::Batch(batch) => {
                core.on_batch(&batch, cfg, pacers, counters, &mut out_batch);
                if !flush_chunked(
                    &sink_tx,
                    core.inst.index,
                    &mut out_batch,
                    cfg.batch_size,
                    core.shard_instr(),
                ) {
                    break 'consume;
                }
            }
            JoinMsg::Eof { source } => {
                if core.on_eof(source) {
                    break;
                }
                // A producer whose stream ended during the arm counts
                // toward the quiesce quorum via its Eof — which may be
                // the closing message (the barriered producers already
                // reported and will send nothing more).
                if let Some(epoch) = core.quiesce_ready() {
                    quiesce(&mut core, &mut out_batch, epoch);
                    return;
                }
            }
            JoinMsg::Barrier {
                source,
                epoch,
                late,
            } => {
                if core.on_barrier(source, epoch, late) {
                    quiesce(&mut core, &mut out_batch, epoch);
                    return;
                }
            }
        }
    }

    let _ = flush(
        &sink_tx,
        core.inst.index,
        &mut out_batch,
        core.shard_instr(),
    );
    Counters::bump(&counters.matched, core.matched);
    core.mark_retired();
    let _ = sink_tx.send(SinkMsg::Eof {
        instance: core.inst.index,
    });
}

/// Ship a step's accumulated outputs to the sink re-framed into
/// `batch_size` chunks (one probe batch can fan out to more matches
/// than one frame holds); `false` once the sink hung up.
fn flush_chunked(
    sink_tx: &Sender<SinkMsg>,
    instance: u32,
    batch: &mut Vec<OutFlight>,
    batch_size: usize,
    instr: Option<&ShardInstr>,
) -> bool {
    let frame = batch_size.max(1);
    while batch.len() > frame {
        let rest = batch.split_off(frame);
        let mut chunk = std::mem::replace(batch, rest);
        if !flush(sink_tx, instance, &mut chunk, instr) {
            return false;
        }
    }
    flush(sink_tx, instance, batch, instr)
}

fn flush(
    sink_tx: &Sender<SinkMsg>,
    instance: u32,
    batch: &mut Vec<OutFlight>,
    instr: Option<&ShardInstr>,
) -> bool {
    if batch.is_empty() {
        return true;
    }
    let outputs = std::mem::take(batch);
    let n = outputs.len();
    let ok = sink_tx.send(SinkMsg::Batch { instance, outputs }).is_ok();
    if ok {
        if let Some(i) = instr {
            i.on_out(n);
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(producers: usize) -> JoinCore {
        JoinCore::new(CompiledInstance {
            index: 0,
            pair: nova_core::PairId(0),
            out_relays: Vec::new(),
            out_final_link_ms: 0.0,
            charge_sink: false,
            producers,
        })
    }

    #[test]
    fn quiesce_quorum_closes_on_barriers_alone() {
        let mut c = core(2);
        assert!(!c.on_barrier(0, 7, false));
        assert_eq!(c.quiesce_ready(), None);
        assert!(c.on_barrier(1, 7, false));
        assert_eq!(c.quiesce_ready(), Some(7));
        assert!(!c.late_split());
    }

    #[test]
    fn eof_after_barrier_closes_the_quiesce_quorum() {
        // Regression: a producer whose stream ends during the arm
        // contributes its Eof to the quorum, and that Eof can be the
        // *closing* message — `on_eof` alone (eofs == producers) never
        // fires here, and before the fix the shard waited forever
        // (apply() then stalled out its grace period and the final
        // join() deadlocked on the stuck shard thread).
        let mut c = core(2);
        assert!(!c.on_barrier(0, 3, true));
        assert!(!c.on_eof(1), "only one Eof, not the full Eof quorum");
        assert_eq!(c.quiesce_ready(), Some(3), "barrier + Eof = quorum");
        assert!(c.late_split(), "lateness flag must survive the mix");
        // The reverse order closes through on_barrier as before.
        let mut c = core(2);
        assert!(!c.on_eof(0));
        assert!(c.on_barrier(1, 3, false));
    }

    #[test]
    fn all_eofs_finish_normally_without_an_epoch() {
        let mut c = core(2);
        assert!(!c.on_eof(0));
        assert_eq!(c.quiesce_ready(), None, "no barrier, no quiesce");
        assert!(c.on_eof(1));
        assert!(c.finished());
    }
}
