//! Bounded MPSC links between workers.
//!
//! Channels are the executor's network links: every join instance and
//! the sink own one bounded multi-producer single-consumer channel, and
//! every upstream worker holds a cloned sender. Sends *block* when the
//! receiver's buffer is full — backpressure propagates upstream exactly
//! as a full TCP window would — while latency-model load shedding is
//! handled separately by the [`crate::metrics::NodePacer`]s. Tuples
//! travel in batches to amortize per-message synchronization, which is
//! what lets a single box push >10⁶ tuples/s through the executor.
//!
//! ## Observability
//!
//! [`std::sync::mpsc`] hides its queue entirely, so the telemetry plane
//! observes queue depth from the *endpoints* instead: senders and
//! receivers bump per-channel monotonic counters (messages/tuples sent,
//! messages/tuples received) in their pre-resolved
//! [`crate::metrics::MetricsRegistry`] instruments, and a snapshot
//! derives depth as `sent − received` (saturating — the two counters
//! are read at slightly different instants). The channel code itself
//! stays instrument-free: batching already bounds the counter update
//! rate to once per batch.

use std::sync::mpsc::{sync_channel, Receiver as MpscReceiver, SyncSender, TrySendError};

use nova_runtime::{OutputTuple, Tuple};

/// An input tuple in flight to a join instance.
#[derive(Debug, Clone, Copy)]
pub struct InFlight {
    /// The routed tuple.
    pub tuple: Tuple,
    /// Virtual time at which the tuple has cleared every relay hop and
    /// the instance node's ingest service slot.
    pub deliver_at: f64,
}

/// A join output in flight to the sink.
#[derive(Debug, Clone, Copy)]
pub struct OutFlight {
    /// The join result.
    pub out: OutputTuple,
    /// Virtual time at which the output reaches the sink node (before
    /// the sink's own service slot).
    pub deliver_at: f64,
}

/// A fixed-size batch of in-flight tuples — the unit every source →
/// join-instance channel actually carries. Sources accumulate one
/// `TupleBatch` per downstream shard on the emission grid and flush it
/// when it reaches `ExecConfig::batch_size` (or at a pacing stall,
/// barrier, or Eof, so a partial batch is never stranded). The batch
/// carries its own event-time frontier, maintained incrementally on
/// [`TupleBatch::push`], so the receiving `crate::join::JoinCore`
/// advances watermarks without re-scanning the tuples.
#[derive(Debug)]
pub struct TupleBatch {
    /// Index of the producing source task.
    source: u32,
    /// The tuples, in emission order.
    tuples: Vec<InFlight>,
    /// Max event time over `tuples` (−∞ when empty).
    frontier: f64,
}

impl TupleBatch {
    /// Empty batch from `source`, with room for `capacity` tuples.
    pub fn with_capacity(source: u32, capacity: usize) -> Self {
        TupleBatch {
            source,
            tuples: Vec::with_capacity(capacity),
            frontier: f64::NEG_INFINITY,
        }
    }

    /// Append one tuple, folding its event time into the frontier.
    pub fn push(&mut self, t: InFlight) {
        self.frontier = self.frontier.max(t.tuple.event_time);
        self.tuples.push(t);
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples, in emission order.
    pub fn tuples(&self) -> &[InFlight] {
        &self.tuples
    }

    /// Index of the producing source task.
    pub fn source(&self) -> u32 {
        self.source
    }

    /// Max event time over the batch (−∞ when empty).
    pub fn frontier(&self) -> f64 {
        self.frontier
    }
}

/// Message on a source → join-instance channel.
#[derive(Debug)]
pub enum JoinMsg {
    /// A batch of tuples from one source task.
    Batch(TupleBatch),
    /// The source has emitted its last tuple.
    Eof {
        /// Index of the finished source task.
        source: u32,
    },
    /// Epoch barrier (live reconfiguration): the source has emitted its
    /// last *pre-epoch* tuple on this channel. FIFO order makes the
    /// barrier a watertight separator — everything this source sent
    /// before the epoch precedes it. A shard that has collected a
    /// barrier or Eof from every producer has seen its complete
    /// pre-epoch input and quiesces (exports state, retires).
    Barrier {
        /// Index of the barriering source task.
        source: u32,
        /// Reconfiguration epoch this barrier belongs to.
        epoch: u64,
        /// True when the source had already emitted past the epoch by
        /// the time the arm reached it (the pre/post split then falls
        /// at the source's actual position, not at the epoch — counts
        /// stay exact but no longer mirror a replay at the epoch).
        late: bool,
    },
}

/// Message on a join-instance → sink channel.
#[derive(Debug)]
pub enum SinkMsg {
    /// A batch of join outputs from one instance.
    Batch {
        /// Index of the producing join instance.
        instance: u32,
        /// The outputs, in production order.
        outputs: Vec<OutFlight>,
    },
    /// The instance has produced its last output.
    Eof {
        /// Index of the finished instance.
        instance: u32,
    },
    /// Live reconfiguration: a new generation of shard workers replaces
    /// the old one. Sent by the control plane *after* every old shard
    /// quiesced (so all old-generation batches precede it) and *before*
    /// the new generation can produce, so the sink's accounting flips
    /// exactly at the epoch.
    Epoch {
        /// Eof quorum of the new generation (its shard-worker count);
        /// the sink's Eof counter restarts at zero.
        producers: usize,
        /// Per-instance "charge the sink's service slot" table of the
        /// new plan (old shards never retire via Eof, so indices in
        /// later batches always refer to the new plan's instances).
        charge_sink: Vec<bool>,
    },
}

/// Sending half of a bounded link. Cloneable (multi-producer).
#[derive(Debug)]
pub struct Sender<T> {
    inner: SyncSender<T>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            inner: self.inner.clone(),
        }
    }
}

/// Receiving half of a bounded link.
#[derive(Debug)]
pub struct Receiver<T> {
    inner: MpscReceiver<T>,
}

/// Depth, in messages, of every channel the executor wires (the
/// backpressure window). One value in every run the repository has
/// recorded, so a constant rather than a field of `ExecConfig`.
pub(crate) const CHANNEL_CAPACITY: usize = 64;

/// Create a bounded link buffering at most `capacity` messages.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = sync_channel(capacity.max(1));
    (Sender { inner: tx }, Receiver { inner: rx })
}

impl<T> Sender<T> {
    /// Blocking send; `Err` when the receiver is gone (its worker
    /// finished or panicked), which senders treat as end-of-run.
    pub fn send(&self, msg: T) -> Result<(), Closed> {
        self.inner.send(msg).map_err(|_| Closed)
    }

    /// Non-blocking send: `Ok(true)` if accepted, `Ok(false)` if the
    /// buffer is full, `Err` when the receiver is gone.
    pub fn try_send(&self, msg: T) -> Result<bool, Closed> {
        match self.inner.try_send(msg) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(_)) => Ok(false),
            Err(TrySendError::Disconnected(_)) => Err(Closed),
        }
    }
}

impl<T> Receiver<T> {
    /// Blocking receive; `None` once every sender is dropped and the
    /// buffer is drained.
    pub fn recv(&self) -> Option<T> {
        self.inner.recv().ok()
    }
}

/// The other side of a link hung up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_arrive_in_order_per_producer() {
        let (tx, rx) = bounded::<u32>(4);
        let tx2 = tx.clone();
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                tx2.send(i).unwrap();
            }
        });
        let mut last = None;
        let mut count = 0;
        drop(tx);
        while let Some(v) = rx.recv() {
            if let Some(prev) = last {
                assert!(v > prev, "FIFO violated: {v} after {prev}");
            }
            last = Some(v);
            count += 1;
        }
        h.join().unwrap();
        assert_eq!(count, 100);
    }

    #[test]
    fn recv_ends_when_all_senders_drop() {
        let (tx, rx) = bounded::<u8>(2);
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(1).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn try_send_reports_full_buffers() {
        let (tx, _rx) = bounded::<u8>(1);
        assert_eq!(tx.try_send(1), Ok(true));
        assert_eq!(tx.try_send(2), Ok(false));
    }

    fn inflight(seq: u64, event_time: f64) -> InFlight {
        use nova_core::{PairId, Side};
        InFlight {
            tuple: Tuple {
                pair: PairId(0),
                side: Side::Left,
                partition: 0,
                key: 0,
                subkey: 0,
                seq,
                event_time,
            },
            deliver_at: event_time,
        }
    }

    #[test]
    fn tuple_batch_tracks_its_frontier_incrementally() {
        let mut b = TupleBatch::with_capacity(3, 8);
        assert!(b.is_empty());
        assert_eq!(b.frontier(), f64::NEG_INFINITY);
        // Out-of-order event times: the frontier is the max, not the last.
        b.push(inflight(1, 10.0));
        b.push(inflight(2, 30.0));
        b.push(inflight(3, 20.0));
        assert_eq!(b.len(), 3);
        assert_eq!(b.source(), 3);
        assert_eq!(b.frontier(), 30.0);
        let seqs: Vec<u64> = b.tuples().iter().map(|t| t.tuple.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "emission order preserved");
    }
}
