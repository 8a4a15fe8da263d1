//! Live-telemetry consistency across a running reconfiguration.
//!
//! The telemetry plane promises two things (DESIGN.md §8): snapshots
//! taken off a *running* executor are monotonically consistent — no
//! cumulative counter ever decreases between successive snapshots,
//! even while an epoch barrier quiesces and respawns the whole shard
//! generation — and the final snapshot agrees exactly with the
//! [`nova_exec::ExecResult`] the run returns. Both are asserted here
//! at one and four shards, polling [`nova_exec::ExecHandle::metrics`]
//! and draining an [`nova_exec::ExecHandle::subscribe`] stream across
//! a live [`PlanSwitch`].

use std::time::Duration;

use nova_core::baselines::{host_based, sink_based};
use nova_core::{JoinQuery, StreamSpec};
use nova_exec::{launch, ExecConfig, MetricsSnapshot};
use nova_runtime::{Dataflow, PlanSwitch};
use nova_topology::{NodeId, NodeRole, Topology};

const DURATION_MS: f64 = 2400.0;
const EPOCH_MS: f64 = 1100.0;

/// sink(0), l(1), r(2), w(3) — the engine's standard test world.
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

fn cfg_for(shards: usize) -> ExecConfig {
    ExecConfig {
        duration_ms: DURATION_MS,
        window_ms: 200.0,
        selectivity: 0.7,
        time_scale: 8.0,
        max_queue_ms: f64::INFINITY,
        shards,
        ..ExecConfig::default()
    }
}

/// Every cumulative quantity in `next` must be >= its value in `prev`.
/// The instrument lists are append-only across generations, so `prev`'s
/// rows are a positional prefix of `next`'s.
fn assert_monotonic(prev: &MetricsSnapshot, next: &MetricsSnapshot, tag: &str) {
    assert!(next.at_ms >= prev.at_ms, "{tag}: virtual time went back");
    assert!(next.emitted >= prev.emitted, "{tag}: emitted decreased");
    assert!(next.matched >= prev.matched, "{tag}: matched decreased");
    assert!(
        next.delivered >= prev.delivered,
        "{tag}: delivered decreased"
    );
    assert!(next.dropped >= prev.dropped, "{tag}: dropped decreased");
    assert!(
        next.latency.count() >= prev.latency.count(),
        "{tag}: latency count decreased"
    );
    assert!(
        next.shards.len() >= prev.shards.len(),
        "{tag}: shard instrument list shrank"
    );
    for (p, n) in prev.shards.iter().zip(next.shards.iter()) {
        let key = (p.generation, p.instance, p.shard);
        assert_eq!(
            key,
            (n.generation, n.instance, n.shard),
            "{tag}: shard row moved"
        );
        assert!(
            n.tuples_in >= p.tuples_in,
            "{tag}: shard {key:?} tuples_in decreased"
        );
        assert!(
            n.matched >= p.matched,
            "{tag}: shard {key:?} matched decreased"
        );
        assert!(
            n.out_tuples >= p.out_tuples,
            "{tag}: shard {key:?} out_tuples decreased"
        );
    }
    assert!(
        next.sources.len() >= prev.sources.len(),
        "{tag}: source instrument list shrank"
    );
    for (p, n) in prev.sources.iter().zip(next.sources.iter()) {
        assert_eq!(p.source, n.source, "{tag}: source row moved");
        assert!(
            n.emitted >= p.emitted,
            "{tag}: source {} emitted decreased",
            p.source
        );
    }
}

fn run_case(shards: usize) {
    run_case_batched(shards, ExecConfig::default().batch_size);
}

/// The telemetry contract is batch-size independent: sources account
/// whole [`nova_exec::ExecConfig::batch_size`] frames at flush time and
/// shards at receive time, so snapshots must stay monotonic — and the
/// final one exactly equal to the `ExecResult` — no matter how tuples
/// are framed. `run_case` pins the default framing; the batched
/// variants below pin small odd and large frames.
fn run_case_batched(shards: usize, batch_size: usize) {
    let (t, q) = world();
    let pre = sink_based(&q, &q.resolve());
    let post = host_based(&q, &q.resolve(), NodeId(3));
    let df = Dataflow::from_baseline(&q, &pre);
    let cfg = ExecConfig {
        batch_size,
        ..cfg_for(shards)
    };
    let switch = PlanSwitch::between(EPOCH_MS, &q, &pre, &post, 1.0);

    let mut handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");
    let rx = handle
        .subscribe(Duration::from_millis(20))
        .expect("non-zero interval");
    let tag = format!("shards={shards} batch={batch_size}");

    // Poll live before, during-ish and after the reconfiguration.
    let mut polled: Vec<MetricsSnapshot> = vec![handle.metrics()];
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(10));
        polled.push(handle.metrics());
    }
    let stats = handle.apply(&switch, flat_dist).expect("reconfigure");
    assert!(stats.clean_split, "{tag}: epoch armed late");
    polled.push(handle.metrics());
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(10));
        polled.push(handle.metrics());
    }
    let res = handle.join();

    for pair in polled.windows(2) {
        assert_monotonic(&pair[0], &pair[1], &tag);
    }

    // The subscription stream ends with a final snapshot taken after
    // every worker joined; drain it and apply the same monotonic check.
    let streamed: Vec<MetricsSnapshot> = rx.iter().collect();
    assert!(
        streamed.len() >= 2,
        "{tag}: sampler delivered {} snapshots",
        streamed.len()
    );
    for pair in streamed.windows(2) {
        assert_monotonic(&pair[0], &pair[1], &tag);
    }

    // Final snapshot == ExecResult, exactly.
    let last = streamed.last().expect("final snapshot");
    assert_eq!(last.emitted, res.emitted, "{tag}: emitted mismatch");
    assert_eq!(last.matched, res.matched, "{tag}: matched mismatch");
    assert_eq!(last.delivered, res.delivered, "{tag}: delivered mismatch");
    assert_eq!(last.dropped, res.dropped, "{tag}: dropped mismatch");
    assert_eq!(
        last.latency.count(),
        res.delivered,
        "{tag}: one latency sample per delivery"
    );

    // The reconfiguration surfaced everywhere it should: EpochStats in
    // the result (satellite: they survive join) and in the snapshot,
    // and the post-epoch generation's shard instruments are present.
    assert_eq!(res.epochs.len(), 1, "{tag}: epochs lost in join");
    assert_eq!(res.epochs[0].epoch_ms, EPOCH_MS, "{tag}: wrong epoch");
    assert!(res.epochs[0].migrated_tuples > 0, "{tag}: nothing migrated");
    assert_eq!(last.epochs.len(), 1, "{tag}: snapshot missing epoch");
    let gen1 = last.shards.iter().filter(|s| s.generation == 1).count();
    assert_eq!(gen1, shards.max(1), "{tag}: generation-1 shards missing");
    assert!(
        last.shards.iter().all(|s| !s.live),
        "{tag}: instruments still live after join"
    );
    assert!(res.delivered > 0, "{tag}: run must deliver");
}

#[test]
fn threaded_snapshots_stay_consistent_across_reconfig() {
    run_case(1);
}

#[test]
fn sharded_snapshots_stay_consistent_across_reconfig() {
    run_case(4);
}

/// Batch framing never double- or under-counts: a small odd batch (7,
/// co-prime with the emission grid, so the epoch splits a partially
/// filled frame) keeps every snapshot monotonic and the final one
/// equal to the `ExecResult`, at the shard count with real concurrency.
#[test]
fn snapshots_stay_consistent_at_small_odd_batches() {
    run_case_batched(4, 7);
}

/// Large frames (64 tuples — several windows per batch at this rate)
/// move accounting to rare, bursty flushes; monotonicity and the final
/// snapshot ≡ `ExecResult` identity must survive the burstiness.
#[test]
fn snapshots_stay_consistent_at_large_batches() {
    run_case_batched(1, 64);
}

/// Regression: `subscribe(Duration::ZERO)` used to spawn a sampler
/// whose wait loop (`while waited < interval`) never slept — a thread
/// hot-spinning snapshots for the whole run. It must be rejected.
#[test]
fn zero_interval_subscription_is_rejected_not_hot_spinning() {
    let (t, q) = world();
    let pre = sink_based(&q, &q.resolve());
    let df = Dataflow::from_baseline(&q, &pre);
    let cfg = cfg_for(1);
    let handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");
    let err = handle.subscribe(Duration::ZERO).expect_err("zero interval");
    assert_eq!(err, nova_exec::SubscribeError::ZeroInterval);
    assert!(err.to_string().contains("interval must be > 0"));
    // The refusal leaves the run untouched.
    assert!(handle.subscribe(Duration::from_millis(20)).is_ok());
    assert!(handle.join().delivered > 0);
}

#[test]
fn disabled_telemetry_degrades_but_stays_usable() {
    let (t, q) = world();
    let pre = sink_based(&q, &q.resolve());
    let df = Dataflow::from_baseline(&q, &pre);
    let cfg = ExecConfig {
        telemetry: false,
        ..cfg_for(1)
    };
    let handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");
    // Degraded snapshots carry the coarse counters but no per-shard
    // rows, and the subscription receiver is already disconnected.
    let rx = handle
        .subscribe(Duration::from_millis(20))
        .expect("non-zero interval");
    // A zero interval is rejected up front (it would hot-spin the
    // sampler), telemetry on or off.
    assert!(handle.subscribe(Duration::ZERO).is_err());
    std::thread::sleep(Duration::from_millis(30));
    let snap = handle.metrics();
    assert!(snap.shards.is_empty());
    assert!(snap.sources.is_empty());
    assert_eq!(snap.latency.count(), 0);
    let res = handle.join();
    assert!(res.delivered > 0);
    assert!(
        rx.iter().next().is_none(),
        "dead receiver must yield nothing"
    );
}
