//! Hardware throughput of the executor vs. simulator event rate.
//!
//! The headline numbers: aggregate source tuples/s physically pushed
//! through the executor's threads on a keyed join with selectivity 1.0
//! (uncapped nodes, zero-delay links, windows sized so the join state
//! stays hot), swept over shard counts 1/2/4/8 next to the
//! thread-per-operator (`shards = 1`) baseline — plus a *large-window*
//! variant where every probe visits ~a hundred partners, stressing the
//! zero-copy visitor path. The companion benchmark runs the *simulator*
//! on the same dataflow, so one report shows model-events/s next to
//! real tuples/s.
//!
//! Match counts are asserted identical across all shard
//! counts — sharding must never change *what* joins, only how fast.
//!
//! Two skewed scenarios ride along: a **single-hot-pair** saturation
//! case (one pair, one giant window, 128 sub-keys — the workload where
//! `(window, pair)` routing alone would serialize on one shard and the
//! sub-key in the shard hash is what scales) and **Zipfian pair weights** (4 pairs, head pair
//! ~54 % of traffic).
//!
//! Run with: `cargo bench -p nova-bench --bench exec_throughput`

use criterion::{criterion_group, criterion_main, Criterion};
use nova_bench::{
    hot_pair_cfg, throughput_cfg, throughput_world, throughput_world_rates, zipf_pair_rates,
};
use nova_exec::{execute, ExecConfig};
use nova_runtime::{simulate, SimConfig};
use nova_topology::NodeId;

fn zero_dist(_a: NodeId, _b: NodeId) -> f64 {
    0.0
}

/// Run one executor pass over zero-delay links.
fn run(
    t: &nova_topology::Topology,
    df: &nova_runtime::Dataflow,
    cfg: &ExecConfig,
) -> nova_exec::ExecResult {
    execute(t, zero_dist, df, cfg).expect("bench config is valid")
}

/// One emission interval per window: each window holds one tuple per
/// side, so the selectivity-1.0 keyed join emits ~1 output per input
/// tuple pair without a quadratic window cross-product.
fn small_window_cfg(duration_ms: f64, rate: f64, shards: usize) -> ExecConfig {
    throughput_cfg(duration_ms, 1000.0 / rate, 1.0, shards)
}

/// Large windows: ~200 tuples per side per window, so every probe walks
/// a long opposite buffer (the regime the old clone-per-probe path went
/// quadratic in). Selectivity keeps output volume bounded while the
/// per-partner hash still runs for every candidate.
fn large_window_cfg(duration_ms: f64, rate: f64, shards: usize) -> ExecConfig {
    throughput_cfg(duration_ms, 200.0 * 1000.0 / rate, 0.01, shards)
}

fn bench_exec_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_throughput");
    group.sample_size(10);

    // 2 pairs × 2 × 300 k tuples/s = 1.2 M tuples/s aggregate demand.
    let rate = 300_000.0;
    let (t, df) = throughput_world(2, rate);

    // Measured probe sweep up front for the tuples/s headline: the
    // threaded baseline, then 1/2/4/8 shards per instance.
    let base = small_window_cfg(1000.0, rate, 1);
    let probe = run(&t, &df, &base);
    println!(
        "exec_throughput[threaded  ]: {} tuples + {} matches in {:>5.0} ms wall \
         -> {:>9.0} tuples/s aggregate through {} threads ({} delivered)",
        probe.emitted,
        probe.matched,
        probe.wall_ms,
        probe.input_tuples_per_wall_s(),
        probe.threads,
        probe.delivered,
    );
    assert!(probe.delivered > 0, "keyed join must deliver outputs");
    for shards in [1usize, 2, 4, 8] {
        // The 1-shard row repeats the threaded baseline — a sanity
        // anchor whose delta vs the probe is pure measurement noise.
        let cfg = ExecConfig { shards, ..base };
        let res = run(&t, &df, &cfg);
        println!(
            "exec_throughput[{} shard(s)]: {} tuples + {} matches in {:>5.0} ms wall \
             -> {:>9.0} tuples/s aggregate through {} threads",
            shards,
            res.emitted,
            res.matched,
            res.wall_ms,
            res.input_tuples_per_wall_s(),
            res.threads,
        );
        assert_eq!(
            res.matched, probe.matched,
            "sharding changed the match set at {shards} shards"
        );
    }

    // Batch-size sweep on the same uniform workload: the hot path
    // carries fixed-size tuple frames, so the sweep isolates pure
    // framing cost — per-tuple channel sends and wakeups at batch 1 vs
    // amortized frames at 64/1024. Counts are pinned to the probe at
    // every size: framing must never change *what* joins.
    for batch_size in [1usize, 2, 7, 64, 1024] {
        let cfg = ExecConfig { batch_size, ..base };
        let res = run(&t, &df, &cfg);
        println!(
            "exec_throughput[threaded, batch {batch_size:>4}]: {} tuples + {} matches \
             in {:>5.0} ms wall -> {:>9.0} tuples/s aggregate",
            res.emitted,
            res.matched,
            res.wall_ms,
            res.input_tuples_per_wall_s(),
        );
        assert_eq!(
            res.matched, probe.matched,
            "batch framing changed the match set at batch {batch_size}"
        );
    }

    group.bench_function("threaded_keyed_join_1.2M", |b| {
        b.iter(|| run(&t, &df, std::hint::black_box(&base)))
    });
    let unbatched = ExecConfig {
        batch_size: 1,
        ..base
    };
    group.bench_function("threaded_batch1_keyed_join_1.2M", |b| {
        b.iter(|| run(&t, &df, std::hint::black_box(&unbatched)))
    });
    for shards in [4usize, 8] {
        let cfg = ExecConfig { shards, ..base };
        group.bench_function(format!("sharded{shards}_keyed_join_1.2M"), |b| {
            b.iter(|| run(&t, &df, std::hint::black_box(&cfg)))
        });
    }

    // Large-window sweep: 1 pair at 50 k tuples/s per side, ~200 tuples
    // per side per window — the probe path dominates.
    let lw_rate = 50_000.0;
    let (lt, ldf) = throughput_world(1, lw_rate);
    let lw_base = large_window_cfg(500.0, lw_rate, 1);
    let lw_probe = run(&lt, &ldf, &lw_base);
    for shards in [1usize, 4] {
        let cfg = ExecConfig { shards, ..lw_base };
        let res = run(&lt, &ldf, &cfg);
        println!(
            "exec_throughput[large-window, {} shard(s)]: {} tuples + {} matches \
             in {:>5.0} ms wall -> {:>9.0} tuples/s",
            shards,
            res.emitted,
            res.matched,
            res.wall_ms,
            res.input_tuples_per_wall_s(),
        );
        assert_eq!(res.matched, lw_probe.matched);
    }
    group.bench_function("threaded_large_window_100k", |b| {
        b.iter(|| run(&lt, &ldf, std::hint::black_box(&lw_base)))
    });
    let lw_sharded = ExecConfig {
        shards: 4,
        ..lw_base
    };
    group.bench_function("sharded4_large_window_100k", |b| {
        b.iter(|| run(&lt, &ldf, std::hint::black_box(&lw_sharded)))
    });

    // Single-hot-pair saturation: one pair, one giant window spanning
    // the run, 128 sub-keys. `(window, pair)` alone would hash every
    // tuple to ONE shard — the sweep shows sub-key routing recovering
    // the parallelism.
    let hp_rate = 100_000.0;
    let (ht, hdf) = throughput_world(1, hp_rate);
    let hp_base = hot_pair_cfg(500.0, 128, 1);
    let hp_probe = run(&ht, &hdf, &hp_base);
    assert!(hp_probe.delivered > 0, "hot pair must deliver outputs");
    for shards in [2usize, 4, 8] {
        let cfg = ExecConfig { shards, ..hp_base };
        let res = run(&ht, &hdf, &cfg);
        println!(
            "exec_throughput[hot-pair, {} shard(s)]: {} tuples + {} matches \
             in {:>5.0} ms wall -> {:>9.0} tuples/s (threaded: {:>9.0})",
            shards,
            res.emitted,
            res.matched,
            res.wall_ms,
            res.input_tuples_per_wall_s(),
            hp_probe.input_tuples_per_wall_s(),
        );
        assert_eq!(
            res.matched, hp_probe.matched,
            "keyed sharding changed the hot-pair match set at {shards} shards"
        );
    }
    group.bench_function("threaded_hot_pair_200k", |b| {
        b.iter(|| run(&ht, &hdf, std::hint::black_box(&hp_base)))
    });
    let hp_sharded = ExecConfig {
        shards: 4,
        ..hp_base
    };
    group.bench_function("sharded4_hot_pair_200k", |b| {
        b.iter(|| run(&ht, &hdf, std::hint::black_box(&hp_sharded)))
    });

    // Zipfian pair weights: 4 pairs, head pair ~54 % of the traffic,
    // keyed workload — count identity under realistic pair skew.
    let zrates = zipf_pair_rates(4, 100_000.0, 1.25);
    let (zt, zdf) = throughput_world_rates(&zrates);
    let z_base = ExecConfig {
        key_space: 64,
        ..throughput_cfg(500.0, 250.0, 0.02, 1)
    };
    let z_probe = run(&zt, &zdf, &z_base);
    assert!(z_probe.delivered > 0, "zipf workload must deliver outputs");
    let z_sharded = ExecConfig {
        shards: 4,
        ..z_base
    };
    let res = run(&zt, &zdf, &z_sharded);
    println!(
        "exec_throughput[zipf, 4 shard(s)]: {} tuples + {} matches \
         in {:>5.0} ms wall -> {:>9.0} tuples/s",
        res.emitted,
        res.matched,
        res.wall_ms,
        res.input_tuples_per_wall_s(),
    );
    assert_eq!(
        res.matched, z_probe.matched,
        "keyed sharding changed the zipf match set at 4 shards"
    );

    // The simulator on the identical dataflow, scaled to a tenth of the
    // virtual horizon (its single-threaded event loop pays ~4 heap
    // events per tuple).
    let sim_cfg = SimConfig {
        duration_ms: 100.0,
        window_ms: base.window_ms,
        selectivity: 1.0,
        gc_interval_ms: base.gc_interval_ms,
        seed: base.seed,
        max_events: u64::MAX,
        max_queue_ms: f64::INFINITY,
        key_space: 1,
    };
    let sim_probe = {
        let start = std::time::Instant::now();
        let res = simulate(&t, zero_dist, &df, &sim_cfg);
        let wall = start.elapsed().as_secs_f64();
        println!(
            "exec_throughput: simulator pushed {} tuples in {:.0} ms wall -> {:.0} tuples/s",
            res.emitted,
            wall * 1000.0,
            res.emitted as f64 / wall,
        );
        res
    };
    assert!(sim_probe.delivered > 0);

    group.bench_function("simulator_keyed_join_120k", |b| {
        b.iter(|| simulate(&t, zero_dist, &df, std::hint::black_box(&sim_cfg)))
    });
    group.finish();
}

criterion_group!(benches, bench_exec_throughput);
criterion_main!(benches);
