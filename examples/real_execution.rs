//! Real execution: the same placement, simulated and then *run*.
//!
//! Builds a small edge topology (two regions × two sensor streams, four
//! workers, one sink), places the join with the sink-based baseline,
//! and executes the deployed dataflow three times: on the
//! discrete-event simulator, on the `nova-exec` executor unsharded (one
//! OS thread per source task, join instance and sink — 7 threads here),
//! and with 4 join shards per instance (`cfg.shards = 4`, 13 threads).
//! Prints delivered throughput and p50/p99 latency from all engines
//! side by side, plus the executor's hardware throughput — note the
//! sharded run matches the unsharded one count for count.
//!
//! Run with: `cargo run --release --example real_execution`

use nova::core::baselines::sink_based;
use nova::runtime::{simulate, Dataflow, SimConfig};
use nova::{execute, ExecConfig, JoinQuery, NodeId, NodeRole, StreamSpec, Topology};

fn main() {
    // Topology: sink(0), 2×2 sources, four workers.
    let mut t = Topology::new();
    let sink = t.add_node(NodeRole::Sink, 5000.0, "sink");
    let mut left = Vec::new();
    let mut right = Vec::new();
    for region in 0..2u32 {
        let l = t.add_node(NodeRole::Source, 2000.0, format!("pressure-{region}"));
        let r = t.add_node(NodeRole::Source, 2000.0, format!("humidity-{region}"));
        left.push(StreamSpec::keyed(l, 400.0, region));
        right.push(StreamSpec::keyed(r, 400.0, region));
    }
    for i in 0..4 {
        t.add_node(NodeRole::Worker, 3000.0, format!("w{i}"));
    }
    let query = JoinQuery::by_key(left, right, sink);

    // Flat 8 ms links (tc-style injected delay).
    let dist = |a: NodeId, b: NodeId| if a == b { 0.0 } else { 8.0 };

    let placement = sink_based(&query, &query.resolve());
    let dataflow = Dataflow::from_baseline(&query, &placement);

    let sim_cfg = SimConfig {
        duration_ms: 5_000.0,
        window_ms: 50.0,
        selectivity: 0.05,
        ..SimConfig::default()
    };
    let sim = simulate(&t, dist, &dataflow, &sim_cfg);

    // Same experiment on real threads, dilated 4× (5 s virtual ≈ 1.25 s wall),
    // then once more with 4 join shards per instance.
    let exec_cfg = ExecConfig::from_sim(&sim_cfg, 4.0);
    let exec = execute(&t, dist, &dataflow, &exec_cfg).expect("valid exec config");
    let sharded_cfg = ExecConfig {
        shards: 4,
        ..exec_cfg
    };
    let sharded = execute(&t, dist, &dataflow, &sharded_cfg).expect("valid exec config");

    println!(
        "sink-based placement: {} threads unsharded (4 sources + 2 joins + sink), \
         {} threads sharded (4 shards per join)\n",
        exec.threads, sharded.threads
    );
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "engine", "delivered", "out/s", "p50 ms", "p99 ms", "dropped"
    );
    println!(
        "{:<12} {:>12} {:>12.1} {:>10.2} {:>10.2} {:>10}",
        "simulator",
        sim.delivered,
        sim.throughput_per_s(sim_cfg.duration_ms),
        sim.latency_percentile(0.5),
        sim.latency_percentile(0.99),
        sim.dropped,
    );
    for (name, r) in [("exec", &exec), ("exec-4shard", &sharded)] {
        println!(
            "{:<12} {:>12} {:>12.1} {:>10.2} {:>10.2} {:>10}",
            name,
            r.delivered,
            r.throughput_per_s(exec_cfg.duration_ms),
            r.latency_percentile(0.5),
            r.latency_percentile(0.99),
            r.dropped,
        );
    }
    println!(
        "\nexecutor: {} tuples in {:.0} ms wall → {:.0} tuples/s through real threads",
        exec.emitted,
        exec.wall_ms,
        exec.input_tuples_per_wall_s(),
    );
    // Count identity across shard counts is guaranteed only on drop-free
    // runs; on a heavily loaded host a stalled thread can trip the
    // bounded queue and shed a tuple, so gate the exact asserts.
    if exec.dropped == 0 && sharded.dropped == 0 {
        assert_eq!(
            sharded.matched, exec.matched,
            "sharding must not change what matches"
        );
        assert_eq!(sharded.delivered, exec.delivered);
    } else {
        println!("note: shedding occurred; exact count identity not checked");
    }
    let within = exec.delivered_by(exec_cfg.duration_ms);
    let drift = (within as f64 - sim.delivered as f64).abs() / sim.delivered.max(1) as f64;
    println!(
        "cross-check: exec delivered {within} within the simulated horizon vs sim {} ({:.1}% apart)",
        sim.delivered,
        drift * 100.0
    );
    assert!(exec.threads >= 4, "expected at least 4 worker threads");

    // ---- Live reconfiguration (exec-side §3.5) -----------------------
    // Re-place the joins onto a worker *while the stream is running*:
    // launch a reconfigurable run, apply a PlanSwitch mid-stream (epoch
    // at 2.5 s, deliberately mid-window), and verify the counts moved
    // nowhere — the epoch barrier + state handoff make a pure
    // re-placement invisible to what is matched and delivered.
    use nova::core::baselines::source_based;
    use nova::{launch, PlanSwitch};
    let post = source_based(&query, &query.resolve());
    let switch = PlanSwitch::between(2_525.0, &query, &placement, &post, 1.0);
    let mut handle = launch(&t, dist, &dataflow, &sharded_cfg).expect("valid exec config");
    let stats = handle.apply(&switch, dist).expect("live reconfiguration");
    let churned = handle.join();
    println!(
        "\nlive reconfiguration at t = {:.0} ms: {} window groups ({} tuples) handed off \
         in {:.2} ms of stop-the-world time; counts unchanged: {} delivered",
        stats.epoch_ms,
        stats.migrated_groups,
        stats.migrated_tuples,
        stats.handoff_wall_ms,
        churned.delivered,
    );
    if churned.dropped == 0 && sharded.dropped == 0 {
        assert_eq!(
            churned.matched, sharded.matched,
            "a pure re-placement must not change what matches"
        );
        assert_eq!(churned.delivered, sharded.delivered);
    }
}
