//! Cross-validation: the threaded executor against the discrete-event
//! simulator, on identical dataflows.
//!
//! The executor replaces the simulator's global event heap with real
//! threads and channels, but both enforce the same resource model, so
//! on an uncongested topology they must agree on *what* is delivered
//! (counts within a tight tolerance; here ≤ 15 %) and on *how
//! placements rank* (latency ordering across the source/sink/worker
//! baselines).

use nova::core::baselines::{sink_based, source_based};
use nova::core::placement::direct_path;
use nova::core::{PlacedReplica, Placement};
use nova::runtime::{simulate, simulate_reconfigured, Dataflow, SimConfig, SimResult};
use nova::{execute, ExecConfig, ExecResult, JoinQuery, NodeId, NodeRole, StreamSpec, Topology};

/// Uncongested 4-node world: sink(0), left(1), right(2), worker(3).
/// Rates divide 1000 exactly so both engines produce identical float
/// event-time sequences.
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

/// Link latencies that separate the three placements cleanly: the
/// worker sits far from everything, so detouring over it is clearly
/// worst; joining at a source beats that; the sink is closest.
fn dist(a: NodeId, b: NodeId) -> f64 {
    if a == b {
        return 0.0;
    }
    let worker = 3;
    if a.idx() == worker || b.idx() == worker {
        80.0
    } else if a.idx() == 0 || b.idx() == 0 {
        40.0
    } else {
        30.0
    }
}

/// All joins on the worker node (the "cluster head" style baseline).
fn worker_based(query: &JoinQuery, topology: &Topology) -> Placement {
    let head = topology
        .nodes()
        .iter()
        .find(|n| n.role == NodeRole::Worker)
        .map(|n| n.id)
        .expect("world has a worker");
    let plan = query.resolve();
    let mut placement = Placement::new("worker-based");
    for pair in &plan.pairs {
        let left = query.left_stream(pair);
        let right = query.right_stream(pair);
        placement.replicas.push(PlacedReplica {
            pair: pair.id,
            node: head,
            left_rate: left.rate,
            right_rate: right.rate,
            left_partitions: vec![0],
            right_partitions: vec![0],
            merged_replicas: 1,
            left_path: direct_path(left.node, head),
            right_path: direct_path(right.node, head),
            out_path: direct_path(head, query.sink),
            output_rate: query.output_rate(pair),
            overflowed: false,
        });
    }
    placement
}

fn run_both(t: &Topology, df: &Dataflow, sim_cfg: &SimConfig) -> (SimResult, ExecResult) {
    let sim = simulate(t, dist, df, sim_cfg);
    let exec_cfg = ExecConfig::from_sim(sim_cfg, 8.0);
    let exec = execute(t, dist, df, &exec_cfg).expect("valid exec config");
    (sim, exec)
}

#[test]
fn delivered_counts_agree_within_tolerance() {
    let (t, q) = world();
    let plan = q.resolve();
    let sim_cfg = SimConfig {
        duration_ms: 2000.0,
        window_ms: 100.0,
        // Unbounded queues (a no-op for the uncongested simulator run)
        // keep the executor structurally drop-free: with a bounded
        // queue, an OS-stalled source thread — ~30 ms on a loaded
        // 1-core host ≈ 250 virtual ms at time_scale 8 — can shed a
        // tuple spuriously and void the dropped == 0 precondition.
        max_queue_ms: f64::INFINITY,
        ..SimConfig::default()
    };
    for (name, placement) in [
        ("sink", sink_based(&q, &plan)),
        ("source", source_based(&q, &plan)),
        ("worker", worker_based(&q, &t)),
    ] {
        let df = Dataflow::from_baseline(&q, &placement);
        let (sim, exec) = run_both(&t, &df, &sim_cfg);
        assert!(sim.delivered > 0, "{name}: simulator delivered nothing");
        assert_eq!(exec.dropped, 0, "{name}: uncongested run must not shed");
        let within = exec.delivered_by(sim_cfg.duration_ms);
        let drift = (within as f64 - sim.delivered as f64).abs() / sim.delivered as f64;
        assert!(
            drift <= 0.15,
            "{name}: exec {within} vs sim {} ({:.1}% apart)",
            sim.delivered,
            drift * 100.0
        );
    }
}

/// Mean latency per placement (sink, source, worker) on both engines.
fn placement_mean_latencies() -> (Vec<f64>, Vec<f64>) {
    let (t, q) = world();
    let plan = q.resolve();
    let sim_cfg = SimConfig {
        duration_ms: 2000.0,
        window_ms: 100.0,
        ..SimConfig::default()
    };
    let mut sim_means = Vec::new();
    let mut exec_means = Vec::new();
    for placement in [
        sink_based(&q, &plan),
        source_based(&q, &plan),
        worker_based(&q, &t),
    ] {
        let df = Dataflow::from_baseline(&q, &placement);
        let (sim, exec) = run_both(&t, &df, &sim_cfg);
        sim_means.push(sim.mean_latency());
        exec_means.push(exec.mean_latency());
    }
    (sim_means, exec_means)
}

#[test]
fn latency_ordering_matches_across_placements() {
    let (sim_means, exec_means) = placement_mean_latencies();
    // The simulator must rank sink < source < worker with clear gaps
    // (that is what the link design above guarantees)...
    assert!(sim_means[0] * 1.2 < sim_means[1], "sim means {sim_means:?}");
    assert!(sim_means[1] * 1.2 < sim_means[2], "sim means {sim_means:?}");
    // ...and the executor must reproduce the ordering.
    assert!(
        exec_means[0] < exec_means[1] && exec_means[1] < exec_means[2],
        "executor broke the placement ordering: sim {sim_means:?} exec {exec_means:?}"
    );
}

/// Per-placement mean latency agrees within 25 % (the executor adds
/// real scheduling jitter on top of the model latencies). Unlike the
/// ordering above this is a wall-clock assertion: executor latencies
/// are virtual, but a source thread the OS stalls for tens of ms falls
/// behind its emission grid, reserves its pacer slots in a burst and
/// inflates the queueing term. On a loaded 2-core host that stall was
/// observed to push one placement past the bound once in a full
/// `cargo test` run while every isolated run passed — so the
/// measurement is retried (fresh runs, up to three) and only a miss on
/// every attempt fails.
#[test]
fn mean_latency_agrees_with_the_simulator_within_a_quarter() {
    let mut last = None;
    for _attempt in 0..3 {
        let (sim_means, exec_means) = placement_mean_latencies();
        if sim_means
            .iter()
            .zip(&exec_means)
            .all(|(s, e)| (s - e).abs() / s <= 0.25)
        {
            return;
        }
        last = Some((sim_means, exec_means));
    }
    let (sim_means, exec_means) = last.expect("three attempts ran");
    panic!("latency drift too large on 3 of 3 attempts: sim {sim_means:?} exec {exec_means:?}");
}

/// Congested-regime cross-validation: deliberately overload the sink
/// (2 × 40 t/s into a 15 t/s server) and characterize how far the two
/// engines may drift. Shedding *order* is genuinely different — the
/// simulator sheds from a global event heap, the executor from
/// per-node pacers raced by real threads — so exact counts are not
/// pinned. What both engines must agree on:
///
/// * that the run sheds at all, with drop counts in the same ballpark
///   (≤ 25 % apart; measured ≈ 3 %),
/// * the amount of useful work that survives (delivered within the
///   horizon, ≤ 25 % apart),
/// * the latency *ordering*: the overloaded sink is pegged near the
///   bounded-queue cap, far above the uncongested run, in both engines.
#[test]
fn congested_runs_bound_divergence_and_preserve_ordering() {
    fn overload_world(sink_cap: f64) -> (Topology, JoinQuery) {
        let mut t = Topology::new();
        let sink = t.add_node(NodeRole::Sink, sink_cap, "sink");
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
    let sim_cfg = SimConfig {
        duration_ms: 10_000.0,
        window_ms: 100.0,
        ..SimConfig::default()
    };
    let run = |sink_cap: f64, cfg: &SimConfig| -> (SimResult, ExecResult) {
        let (t, q) = overload_world(sink_cap);
        let p = sink_based(&q, &q.resolve());
        let df = Dataflow::from_baseline(&q, &p);
        run_both(&t, &df, cfg)
    };
    let (sim_slow, exec_slow) = run(15.0, &sim_cfg);
    // The uncongested control runs with unbounded queues so its
    // dropped == 0 assert is structural — a scheduler-stalled source
    // thread could otherwise trip the bounded queue spuriously (see
    // delivered_counts_agree_within_tolerance). The overloaded run
    // keeps the bounded queue: shedding there is the point.
    let fast_cfg = SimConfig {
        max_queue_ms: f64::INFINITY,
        ..sim_cfg
    };
    let (sim_fast, exec_fast) = run(1000.0, &fast_cfg);

    // Both engines shed on the overloaded sink and not on the fast one.
    assert!(sim_slow.dropped > 0, "simulator must shed: {sim_slow:?}");
    assert!(exec_slow.dropped > 0, "executor must shed");
    assert_eq!(sim_fast.dropped, 0);
    assert_eq!(exec_fast.dropped, 0);

    // Drop counts agree within the stated tolerance.
    let drop_drift =
        (exec_slow.dropped as f64 - sim_slow.dropped as f64).abs() / sim_slow.dropped as f64;
    assert!(
        drop_drift <= 0.25,
        "drop divergence too large: exec {} vs sim {} ({:.1}% apart)",
        exec_slow.dropped,
        sim_slow.dropped,
        drop_drift * 100.0
    );

    // Survivor counts agree within the same tolerance.
    let within = exec_slow.delivered_by(sim_cfg.duration_ms);
    let deliver_drift =
        (within as f64 - sim_slow.delivered as f64).abs() / (sim_slow.delivered as f64).max(1.0);
    assert!(
        deliver_drift <= 0.25,
        "delivered divergence too large: exec {within} vs sim {} ({:.1}% apart)",
        sim_slow.delivered,
        deliver_drift * 100.0
    );

    // Latency ordering: congested ≫ uncongested in both engines, and
    // the congested tail is pegged at the bounded-queue cap (±1 service
    // slot + scheduling slack) rather than unbounded.
    for (label, slow_p90, fast_p90) in [
        (
            "sim",
            sim_slow.latency_percentile(0.9),
            sim_fast.latency_percentile(0.9),
        ),
        (
            "exec",
            exec_slow.latency_percentile(0.9),
            exec_fast.latency_percentile(0.9),
        ),
    ] {
        assert!(
            slow_p90 > 4.0 * fast_p90,
            "{label}: overload must dominate latency ({slow_p90} vs {fast_p90})"
        );
    }
    // Structural tail bound: queue cap + one sink service slot
    // (1000/15 ≈ 67 ms) + the 40 ms final hop + slack.
    let tail_cap = sim_cfg.max_queue_ms + 1000.0 / 15.0 + 40.0 + 50.0;
    assert!(
        exec_slow.latency_percentile(1.0) <= tail_cap,
        "executor queue cap violated: {}",
        exec_slow.latency_percentile(1.0)
    );
    assert!(
        sim_slow.latency_percentile(1.0) <= tail_cap,
        "simulator queue cap violated: {}",
        sim_slow.latency_percentile(1.0)
    );
}

/// Sharded runs must agree with the simulator and the unsharded
/// run *exactly* on what matches — the acceptance bar for the
/// `(window, pair)` shard partitioning. Uses the cross-validation
/// world (uncongested, drop-free) at several shard counts.
#[test]
fn sharded_backend_match_counts_identical_to_sim_and_threaded() {
    let (t, q) = world();
    let plan = q.resolve();
    let p = sink_based(&q, &plan);
    let df = Dataflow::from_baseline(&q, &p);
    let sim_cfg = SimConfig {
        duration_ms: 2000.0,
        window_ms: 100.0,
        selectivity: 0.4,
        // Structurally drop-free so the exact-count asserts hold under
        // any OS schedule (see delivered_counts_agree_within_tolerance).
        max_queue_ms: f64::INFINITY,
        ..SimConfig::default()
    };
    let sim = simulate(&t, dist, &df, &sim_cfg);
    let threaded =
        execute(&t, dist, &df, &ExecConfig::from_sim(&sim_cfg, 8.0)).expect("valid exec config");
    assert_eq!(threaded.dropped, 0);
    for shards in [2usize, 4, 8] {
        let cfg = ExecConfig {
            shards,
            ..ExecConfig::from_sim(&sim_cfg, 8.0)
        };
        let sharded = execute(&t, dist, &df, &cfg).expect("valid exec config");
        assert_eq!(sharded.dropped, 0, "{shards} shards: must stay drop-free");
        assert_eq!(
            sharded.matched, threaded.matched,
            "{shards} shards changed the match set vs threaded"
        );
        assert_eq!(sharded.delivered, threaded.delivered);
        // Same engine-vs-sim relationship the unsharded run holds:
        // never fewer matches than the simulator, tail-bounded extras.
        assert!(
            sharded.matched >= sim.matched,
            "{shards} shards lost matches: {} vs sim {}",
            sharded.matched,
            sim.matched
        );
        let extra = (sharded.matched - sim.matched) as f64;
        assert!(extra <= (sim.matched as f64 * 0.10).max(8.0));
    }
}

/// Keyed workloads under pair skew: the acceptance bar for
/// `(window, pair, sub-key)` routing. A hot pair (5× the cold
/// pair's rate) with windows spanning many emission intervals and
/// sub-keys drawn from [0, 8) — the regime keyed sub-pair sharding
/// exists for — must keep `matched` / `delivered` *identical* across
/// the simulator relationship, the threaded baseline and sharded
/// runs at every shard count.
#[test]
fn keyed_skewed_counts_identical_at_every_shard_count() {
    // Rates divide 1000 exactly (20 ms / 100 ms intervals) so both
    // engines produce identical float event-time sequences; pair 0
    // carries 5× the traffic of pair 1.
    let mut t = Topology::new();
    let sink = t.add_node(NodeRole::Sink, 1000.0, "sink");
    let hot_l = t.add_node(NodeRole::Source, 1000.0, "hot_l");
    let hot_r = t.add_node(NodeRole::Source, 1000.0, "hot_r");
    let cold_l = t.add_node(NodeRole::Source, 1000.0, "cold_l");
    let cold_r = t.add_node(NodeRole::Source, 1000.0, "cold_r");
    let q = JoinQuery::by_key(
        vec![
            StreamSpec::keyed(hot_l, 50.0, 0),
            StreamSpec::keyed(cold_l, 10.0, 1),
        ],
        vec![
            StreamSpec::keyed(hot_r, 50.0, 0),
            StreamSpec::keyed(cold_r, 10.0, 1),
        ],
        sink,
    );
    let p = sink_based(&q, &q.resolve());
    let df = Dataflow::from_baseline(&q, &p);
    let sim_cfg = SimConfig {
        duration_ms: 2000.0,
        // Windows span ~10 hot-pair emission intervals, so the hot
        // pair's window state is where the matches (and the skew) live.
        window_ms: 200.0,
        selectivity: 0.8,
        key_space: 8,
        // Structurally drop-free so the exact-count asserts hold under
        // any OS schedule (see delivered_counts_agree_within_tolerance).
        max_queue_ms: f64::INFINITY,
        ..SimConfig::default()
    };
    let sim = simulate(&t, dist, &df, &sim_cfg);
    assert!(sim.delivered > 0, "keyed skewed workload must match");
    let threaded =
        execute(&t, dist, &df, &ExecConfig::from_sim(&sim_cfg, 8.0)).expect("valid exec config");
    assert_eq!(threaded.dropped, 0);
    // Engine-vs-sim relationship (same as the unkeyed tests): never
    // fewer matches than the simulator, tail-bounded extras.
    assert!(
        threaded.matched >= sim.matched,
        "threaded lost keyed matches: {} vs sim {}",
        threaded.matched,
        sim.matched
    );
    let extra = (threaded.matched - sim.matched) as f64;
    assert!(extra <= (sim.matched as f64 * 0.10).max(8.0));
    for shards in [2usize, 3, 4, 8] {
        let cfg = ExecConfig {
            shards,
            ..ExecConfig::from_sim(&sim_cfg, 8.0)
        };
        let sharded = execute(&t, dist, &df, &cfg).expect("valid exec config");
        let tag = format!("shards={shards}");
        assert_eq!(sharded.dropped, 0, "{tag}: must stay drop-free");
        assert_eq!(
            sharded.matched, threaded.matched,
            "{tag}: changed the keyed match set vs threaded"
        );
        assert_eq!(
            sharded.delivered, threaded.delivered,
            "{tag}: changed the keyed delivery count vs threaded"
        );
    }
}

/// The default routing spreads one hot window: one pair, one window
/// spanning the run, a keyed workload and nothing but `shards: 4` set
/// on the executor side. `(window, pair)` alone would land the whole
/// run on one shard; every shard must see input, and what joins must
/// equal the one-shard run and the drain-exact simulator.
#[test]
fn one_hot_keyed_window_reaches_every_shard_by_default() {
    let (t, q) = world();
    let df = Dataflow::from_baseline(&q, &sink_based(&q, &q.resolve()));
    let sim_cfg = SimConfig {
        duration_ms: 2000.0,
        window_ms: 2001.0,
        selectivity: 1.0,
        key_space: 128,
        max_queue_ms: f64::INFINITY,
        ..SimConfig::default()
    };
    let sim = simulate_reconfigured(&t, dist, &df, &[], &sim_cfg);
    assert!(sim.delivered > 0, "keyed hot window must match");
    let one = execute(&t, dist, &df, &ExecConfig::from_sim(&sim_cfg, 8.0)).expect("valid config");

    let cfg = ExecConfig {
        shards: 4,
        ..ExecConfig::from_sim(&sim_cfg, 8.0)
    };
    let handle = nova::exec::launch(&t, dist, &df, &cfg).expect("valid config");
    let feed = handle
        .subscribe(std::time::Duration::from_millis(20))
        .expect("non-zero interval");
    let four = handle.join();
    let last = feed.iter().last().expect("final snapshot");

    assert_eq!(last.shards.len(), 4);
    for s in &last.shards {
        assert!(s.tuples_in > 0, "shard {} saw no input: {s:?}", s.shard);
    }
    for (tag, res) in [("shards=1", &one), ("shards=4", &four)] {
        assert_eq!(res.dropped, 0, "{tag}");
        assert_eq!(res.emitted, sim.emitted, "{tag}: emitted diverged");
        assert_eq!(res.matched, sim.matched, "{tag}: matched diverged");
        assert_eq!(res.delivered, sim.delivered, "{tag}: delivered diverged");
    }
}

#[test]
fn matched_sets_are_identical_with_shared_selectivity() {
    // With the shared deterministic selectivity hash, the two engines
    // must agree on exactly which tuple pairs survive, so the match
    // counts are equal (not merely close) on a drop-free run.
    let (t, q) = world();
    let plan = q.resolve();
    let p = sink_based(&q, &plan);
    let df = Dataflow::from_baseline(&q, &p);
    let sim_cfg = SimConfig {
        duration_ms: 2000.0,
        window_ms: 100.0,
        selectivity: 0.4,
        // Structurally drop-free so the exact-count asserts hold under
        // any OS schedule (see delivered_counts_agree_within_tolerance).
        max_queue_ms: f64::INFINITY,
        ..SimConfig::default()
    };
    let sim = simulate(&t, dist, &df, &sim_cfg);
    let exec =
        execute(&t, dist, &df, &ExecConfig::from_sim(&sim_cfg, 8.0)).expect("valid exec config");
    assert_eq!(exec.dropped, 0);
    // Every pair the simulator matched is matched by the executor (same
    // windows, same selectivity hash). The executor additionally drains
    // the tuples in flight at the simulator's cut-off, so it may see a
    // small tail of extra matches — but never fewer, and never many.
    assert!(
        exec.matched >= sim.matched,
        "executor lost matches: exec {} vs sim {}",
        exec.matched,
        sim.matched
    );
    let extra = (exec.matched - sim.matched) as f64;
    assert!(
        extra <= (sim.matched as f64 * 0.10).max(8.0),
        "tail drift too large: exec {} vs sim {}",
        exec.matched,
        sim.matched
    );
}

/// A zero-rate source emits nothing in any engine. Regression: `simulate`
/// seeded source 0's first emission at `inf · 0 = NaN`, which sorted
/// after every real event, slipped past the duration cut and panicked on
/// the stream's empty routing table; the replay and the executor were
/// already silent.
#[test]
fn zero_rate_source_emits_nothing_in_every_engine() {
    let (t, mut q) = world();
    q.left[0].rate = 0.0;
    q.right[0].rate = 20.0;
    let df = Dataflow::from_baseline(&q, &sink_based(&q, &q.resolve()));
    let sim_cfg = SimConfig {
        duration_ms: 1000.0,
        max_queue_ms: f64::INFINITY,
        ..SimConfig::default()
    };
    let plain = simulate(&t, dist, &df, &sim_cfg);
    let replay = simulate_reconfigured(&t, dist, &df, &[], &sim_cfg);
    let exec =
        execute(&t, dist, &df, &ExecConfig::from_sim(&sim_cfg, 8.0)).expect("valid exec config");
    assert_eq!(
        (plain.emitted, replay.emitted, exec.emitted),
        (20, 20, 20),
        "only the 20 t/s stream emits"
    );
    assert_eq!((plain.dropped, replay.dropped, exec.dropped), (0, 0, 0));
}
