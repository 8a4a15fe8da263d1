//! Determinism across the simulator/executor seam.
//!
//! Same seed + same [`Dataflow`] must give (a) *byte-identical*
//! simulator results — the event loop is single-threaded and every
//! random draw is seeded — and (b) *count-identical* executor results —
//! OS scheduling may reorder work between threads, but windows,
//! partition choices and the selectivity hash are pure functions of the
//! seed and the scheduled event times, so what is matched and delivered
//! cannot change between runs (only per-output timestamps can).

use nova::core::{Nova, NovaConfig, StreamSpec};
use nova::geom::Coord;
use nova::netcoord::CostSpace;
use nova::runtime::{simulate, Dataflow, SimConfig, SimResult};
use nova::{execute, ExecConfig, JoinQuery, NodeId, NodeRole, Topology};

fn flat_dist(a: NodeId, b: NodeId) -> f64 {
    if a == b {
        0.0
    } else {
        10.0
    }
}

/// A world with enough workers that Nova produces a *partitioned*
/// placement, exercising the seeded weighted partition assignment.
fn partitioned_world() -> (Topology, Dataflow, f64) {
    let mut t = Topology::new();
    let mut coords = Vec::new();
    let sink = t.add_node(NodeRole::Sink, 200.0, "sink");
    coords.push(Coord::xy(0.0, 0.0));
    let l = t.add_node(NodeRole::Source, 50.0, "l");
    coords.push(Coord::xy(10.0, 5.0));
    let r = t.add_node(NodeRole::Source, 50.0, "r");
    coords.push(Coord::xy(10.0, -5.0));
    for i in 0..4 {
        t.add_node(NodeRole::Worker, 60.0, format!("w{i}"));
        coords.push(Coord::xy(8.0 + 0.1 * i as f64, 0.0));
    }
    let q = JoinQuery::by_key(
        vec![StreamSpec::keyed(l, 40.0, 1)],
        vec![StreamSpec::keyed(r, 40.0, 1)],
        sink,
    );
    let cfg = NovaConfig::default();
    let mut nova = Nova::with_cost_space(t.clone(), CostSpace::new(coords), cfg);
    nova.optimize(q.clone());
    let df = Dataflow::build(&q, nova.placement(), |_| cfg.sigma);
    (t, df, cfg.sigma)
}

/// Render every observable field of a sim run into one string.
fn fingerprint(res: &SimResult) -> String {
    let mut s = format!(
        "emitted={} matched={} delivered={} dropped={} truncated={} busy={:?}\n",
        res.emitted, res.matched, res.delivered, res.dropped, res.truncated, res.node_busy_ms
    );
    for o in &res.outputs {
        s.push_str(&format!(
            "{:?} {:.9} {:.9}\n",
            o.pair, o.arrival_ms, o.latency_ms
        ));
    }
    s
}

#[test]
fn simulator_is_byte_identical_across_runs() {
    let (t, df, _) = partitioned_world();
    let cfg = SimConfig {
        duration_ms: 4000.0,
        window_ms: 100.0,
        selectivity: 0.7,
        ..SimConfig::default()
    };
    let a = simulate(&t, flat_dist, &df, &cfg);
    let b = simulate(&t, flat_dist, &df, &cfg);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert!(
        a.delivered > 0,
        "the comparison must be about something: {a:?}"
    );
}

#[test]
fn simulator_seed_changes_partitioned_runs() {
    // Sanity check that the fingerprint is sensitive at all: a
    // different seed reroutes partitions, changing the output stream.
    let (t, df, _) = partitioned_world();
    let base = SimConfig {
        duration_ms: 4000.0,
        window_ms: 100.0,
        selectivity: 0.7,
        ..SimConfig::default()
    };
    let a = simulate(&t, flat_dist, &df, &base);
    let b = simulate(
        &t,
        flat_dist,
        &df,
        &SimConfig {
            seed: base.seed ^ 0xDEAD,
            ..base
        },
    );
    assert_ne!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn executor_is_count_identical_across_runs() {
    let (t, df, _) = partitioned_world();
    let cfg = ExecConfig {
        duration_ms: 3000.0,
        window_ms: 100.0,
        selectivity: 0.7,
        time_scale: 8.0,
        // Unbounded queues make the drop-free precondition structural:
        // with a bounded queue an OS-stalled source thread (~30 ms on a
        // loaded 1-core host ≈ 250 virtual ms at time_scale 8) can shed
        // a tuple spuriously even in this uncongested scenario.
        max_queue_ms: f64::INFINITY,
        ..ExecConfig::default()
    };
    let a = execute(&t, flat_dist, &df, &cfg).expect("valid exec config");
    let b = execute(&t, flat_dist, &df, &cfg).expect("valid exec config");
    assert!(
        a.delivered > 0,
        "the comparison must be about something: {a:?}"
    );
    // Count-determinism is only guaranteed drop-free: pacer shedding
    // depends on cross-thread reservation order. Pin the precondition.
    assert_eq!(a.dropped, 0, "scenario must stay uncongested: {a:?}");
    assert_eq!(b.dropped, 0);
    assert_eq!(a.emitted, b.emitted, "emission schedule is seeded");
    assert_eq!(a.matched, b.matched, "match decisions are seeded");
    assert_eq!(a.delivered, b.delivered, "delivery counts are seeded");
    // Per-pair delivery histograms agree too, not just the totals.
    let histogram = |r: &nova::ExecResult| {
        let mut counts = std::collections::BTreeMap::new();
        for o in &r.outputs {
            *counts.entry(o.pair).or_insert(0u64) += 1;
        }
        counts
    };
    assert_eq!(histogram(&a), histogram(&b));
}

#[test]
fn keyed_sharded_executor_is_count_identical_across_runs() {
    // The keyed path adds two pure functions to the hot path — the
    // per-tuple sub-key and its share of the shard hash — so a keyed
    // sharded run must stay count-deterministic exactly like the
    // unkeyed one.
    let (t, df, _) = partitioned_world();
    let cfg = ExecConfig {
        duration_ms: 3000.0,
        window_ms: 200.0,
        selectivity: 0.7,
        time_scale: 8.0,
        shards: 4,
        key_space: 8,
        // Drop-free by construction — see above.
        max_queue_ms: f64::INFINITY,
        ..ExecConfig::default()
    };
    let a = execute(&t, flat_dist, &df, &cfg).expect("valid exec config");
    let b = execute(&t, flat_dist, &df, &cfg).expect("valid exec config");
    assert!(a.delivered > 0, "keyed run must deliver: {a:?}");
    assert_eq!(a.dropped, 0, "scenario must stay uncongested: {a:?}");
    assert_eq!(b.dropped, 0);
    assert_eq!(a.emitted, b.emitted, "emission schedule is seeded");
    assert_eq!(a.matched, b.matched, "keyed match decisions are seeded");
    assert_eq!(a.delivered, b.delivered, "delivery counts are seeded");
}
