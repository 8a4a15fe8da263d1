//! CI smoke check for executor performance and correctness.
//!
//! Runs the `exec_throughput` workloads (see
//! [`nova_bench::throughput_world`]) with short iterations across a
//! shard-count sweep next to the thread-per-operator
//! (`shards = 1`, labelled `threaded`) baseline, over five scenarios:
//!
//! * **uniform** — 2 equal-rate pairs, one emission interval per
//!   window: PR 2's workload, unchanged, so the tuples/s trajectory in
//!   `BENCH_exec.json` stays comparable run over run;
//! * **hot-pair** — a *single* pair with one giant window spanning the
//!   whole run ([`nova_bench::hot_pair_cfg`]): the skew failure mode
//!   where `(window, pair)` routing alone would serialize on one shard
//!   and the sub-key in the shard hash is what parallelizes;
//! * **zipf** — 4 pairs with Zipfian rates
//!   ([`nova_bench::zipf_pair_rates`]): skewed pair popularity with a
//!   keyed workload, count-identity under realistic imbalance;
//! * **churn** — live reconfiguration (DESIGN.md §7): three mid-window
//!   epoch barriers per run (join-host failover + rate shifts) applied
//!   through `ExecHandle::apply` at 1 and 4 shards, gated
//!   count-identical to the simulator replaying the same pre/post
//!   plans (`simulate_reconfigured`) on any host, plus a
//!   stop-the-world handoff-pause gate on ≥ 4 cores;
//! * **autoscale** — closed-loop elasticity (DESIGN.md §9): every run
//!   is owned by an `Autoscaler`, the workload generator injects a
//!   flash-crowd (and, in a second profile, a diurnal swell-and-ebb)
//!   of rate steps plus one mid-run `add_source` admission, and the
//!   controller must detect saturation from live telemetry, scale up /
//!   re-place onto the strong host before delivered-latency p99
//!   doubles, and scale back down within one cooldown after the load
//!   passes — gated count-identical to the simulator replaying the
//!   controller's own recorded switch sequence at every shard count.
//!   Writes `BENCH_exec_autoscale.json` plus the decision log
//!   `BENCH_exec_autoscale_decisions.jsonl` (one JSON line per
//!   snapshot: predicted utilization → chosen action → outcome).
//!
//! Gates (a failure fails the CI job loudly):
//!
//! * `emitted` / `matched` counts are **identical** across every
//!   shard count of a scenario, on any host — sharding may not change
//!   what joins;
//! * on hosts with ≥ 4 cores, uniform: `sharded(4)` ≥ 1.5× threaded
//!   (PR 2's regression wall, byte-identical workload);
//! * on hosts with ≥ 4 cores, hot-pair: `sharded(4)` ≥ 1.2× threaded —
//!   the speedup `(window, pair)` routing alone cannot produce on this
//!   workload (zipf, the other keyed scenario, only reports its ratio);
//! * on any host, churn: `emitted`/`matched`/`delivered` identical to
//!   the simulator replay, clean epoch splits, live state migrated;
//!   on ≥ 4 cores additionally handoff p99 ≤ 250 ms;
//! * on hosts with ≥ 4 cores, uniform: the telemetry plane's hot-path
//!   instruments cost ≤ 3 % — the instrumented threaded run holds
//!   ≥ 0.97× the `threaded-notm` (telemetry-off) row's throughput.
//!
//! Every scenario writes its tuples/s table to
//! `BENCH_exec[_<scenario>].json`, uploaded as a workflow artifact on
//! every run (pass or fail).
//!
//! Run with: `cargo run --release -p nova-bench --bin bench_exec_smoke`
//! (`--full` for the benchmark-length 1 s horizon; default 300 ms keeps
//! the CI job in seconds.
//! `--scenario uniform|hot-pair|zipf|churn|autoscale`
//! selects one scenario — the CI matrix fans them out — default runs
//! all.
//! `--metrics-out <path>` streams every row's live telemetry snapshots
//! to `<path>` as JSON lines (one `MetricsSnapshot` per line, tagged
//! with its scenario and row) — the CI matrix uploads these as
//! artifacts. `--prom-out <path>` renders the last row's final
//! snapshot as a Prometheus text exposition.)

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nova_bench::{
    hot_pair_cfg, throughput_cfg, throughput_world, throughput_world_rates, zipf_pair_rates,
};
use nova_core::baselines::host_based;
use nova_core::{JoinQuery, StreamSpec};
use nova_exec::{
    launch, AutoscaleConfig, AutoscaleReport, Autoscaler, DecisionRecord, ExecConfig, ExecResult,
    MetricsSnapshot, Relocator,
};
use nova_runtime::{percentile, simulate_reconfigured, Dataflow, PlanSwitch};
use nova_topology::{NodeId, NodeRole, Topology};

/// Telemetry artifact sinks (`--metrics-out` / `--prom-out`). When
/// either is set, every measured row runs with a live
/// [`nova_exec::ExecHandle::subscribe`] stream; each snapshot becomes
/// one JSON line tagged with its scenario/row, and the last row's final
/// snapshot is rendered as a Prometheus text exposition.
struct Capture {
    metrics: Option<std::fs::File>,
    prom: Option<String>,
}

impl Capture {
    fn open(metrics_out: Option<&str>, prom_out: Option<&str>) -> Capture {
        let metrics = metrics_out.map(|p| {
            std::fs::File::create(p)
                .unwrap_or_else(|e| panic!("--metrics-out: cannot create {p}: {e}"))
        });
        Capture {
            metrics,
            prom: prom_out.map(str::to_string),
        }
    }

    fn wants(&self) -> bool {
        self.metrics.is_some() || self.prom.is_some()
    }

    fn record(&mut self, scenario: &str, row: &str, snap: &MetricsSnapshot) {
        if let Some(file) = &mut self.metrics {
            // Splice the tags into the snapshot's own JSON object.
            let line = snap.to_json_line();
            let _ = writeln!(
                file,
                "{{\"scenario\": \"{scenario}\", \"row\": \"{row}\", {}",
                &line[1..]
            );
        }
    }

    fn finish_row(&mut self, snap: Option<&MetricsSnapshot>) {
        if let (Some(path), Some(snap)) = (&self.prom, snap) {
            if let Err(e) = std::fs::write(path, snap.to_prometheus()) {
                eprintln!("warning: could not write {path}: {e}");
            }
        }
    }
}

/// One measured run: launch, optionally stream snapshots into the
/// capture sinks, join. All matrix rows go through here so the
/// telemetry capture and the plain run measure the same code path.
fn measure(
    topology: &Topology,
    dataflow: &Dataflow,
    cfg: &ExecConfig,
    scenario: &str,
    row: &str,
    cap: &mut Capture,
) -> ExecResult {
    let handle = launch(topology, |_, _| 0.0, dataflow, cfg).expect("bench config is valid");
    let rx = cap.wants().then(|| {
        handle
            .subscribe(Duration::from_millis(25))
            .expect("non-zero interval")
    });
    let res = handle.join();
    if let Some(rx) = rx {
        let mut last = None;
        for snap in rx.iter() {
            cap.record(scenario, row, &snap);
            last = Some(snap);
        }
        cap.finish_row(last.as_ref());
    }
    res
}

/// One measured run of the matrix. `row` labels the sweep the run
/// belongs to: `threaded` (one shard), `threaded-notm` (one shard,
/// telemetry off) or `sharded`.
struct Run {
    row: &'static str,
    shards: usize,
    batch: usize,
    res: ExecResult,
}

/// A named workload + config + the shard-count sweep.
struct Scenario {
    name: &'static str,
    topology: Topology,
    dataflow: Dataflow,
    base: ExecConfig,
    sweep: Vec<usize>,
    /// `batch_size` values to sweep at one shard (the
    /// single-worker row isolates the framing cost from parallelism) —
    /// the rows behind the batch-speedup gate.
    batch_sweep: Vec<usize>,
    aggregate_demand: f64,
    /// Add a `threaded-notm` row (telemetry disabled) next to the
    /// threaded baseline — the pair the metrics-overhead gate divides.
    telemetry_baseline: bool,
}

fn scenario(name: &str, duration_ms: f64) -> Scenario {
    match name {
        // PR 2's workload, byte-identical: 2 keyed pairs at
        // 300 k tuples/s per stream, one emission interval per window,
        // selectivity 1.0 — aggregate demand 1.2 M tuples/s.
        "uniform" => {
            let rate = 300_000.0;
            let (topology, dataflow) = throughput_world(2, rate);
            Scenario {
                name: "uniform",
                topology,
                dataflow,
                base: throughput_cfg(duration_ms, 1000.0 / rate, 1.0, 1),
                sweep: vec![1, 2, 4, 8],
                batch_sweep: vec![1, 2, 7, 64],
                aggregate_demand: 4.0 * rate,
                telemetry_baseline: true,
            }
        }
        // One pair, one giant window, 128 sub-keys: (window, pair)
        // alone would hash every tuple of the run to a single shard.
        "hot-pair" => {
            let rate = 100_000.0;
            let (topology, dataflow) = throughput_world(1, rate);
            Scenario {
                name: "hot-pair",
                topology,
                dataflow,
                base: hot_pair_cfg(duration_ms, 128, 1),
                sweep: vec![2, 4, 8],
                batch_sweep: vec![],
                aggregate_demand: 2.0 * rate,
                telemetry_baseline: false,
            }
        }
        // 4 pairs, Zipfian rates (head pair ~54 % of traffic), keyed
        // workload, 2 windows per run.
        "zipf" => {
            let rates = zipf_pair_rates(4, 100_000.0, 1.25);
            let aggregate_demand = 2.0 * rates.iter().sum::<f64>();
            let (topology, dataflow) = throughput_world_rates(&rates);
            let base = ExecConfig {
                key_space: 64,
                ..throughput_cfg(duration_ms, duration_ms / 2.0, 0.02, 1)
            };
            Scenario {
                name: "zipf",
                topology,
                dataflow,
                base,
                sweep: vec![4, 8],
                batch_sweep: vec![],
                aggregate_demand,
                telemetry_baseline: false,
            }
        }
        other => {
            eprintln!(
                "unknown scenario {other:?}: expected uniform | hot-pair | zipf | \
                 churn | autoscale"
            );
            std::process::exit(2);
        }
    }
}

fn run_matrix(sc: &Scenario, cap: &mut Capture) -> Vec<Run> {
    // Discarded warmup pass: page in the binary, warm the allocator and
    // let the scheduler settle, so the first measured run — the threaded
    // baseline the perf gates divide by — is not systematically cold
    // (a cold baseline biases the speedup gates toward passing).
    let _ = nova_exec::execute(&sc.topology, |_, _| 0.0, &sc.dataflow, &sc.base);
    let mut runs = Vec::new();
    let row = |runs: &mut Vec<Run>, cap: &mut Capture, row, cfg: ExecConfig| {
        let label = format!("{row}-s{}-f{}", cfg.shards, cfg.batch_size);
        let res = measure(&sc.topology, &sc.dataflow, &cfg, sc.name, &label, cap);
        runs.push(Run {
            row,
            shards: cfg.shards,
            batch: cfg.batch_size,
            res,
        });
    };
    row(&mut runs, cap, "threaded", sc.base);
    if sc.telemetry_baseline {
        // Same workload, instruments left unwired: the denominator of
        // the metrics-overhead gate (and a telemetry-off sanity row —
        // counts must not move either way). The pair is interleaved
        // 3× and the gate compares best-vs-best: noise only ever
        // slows a run down, so each side's max throughput estimates
        // its intrinsic speed and the ratio isolates the instrument
        // cost from scheduler jitter.
        for rep in 0..3 {
            row(
                &mut runs,
                cap,
                "threaded-notm",
                ExecConfig {
                    telemetry: false,
                    ..sc.base
                },
            );
            if rep < 2 {
                row(&mut runs, cap, "threaded", sc.base);
            }
        }
    }
    for &shards in &sc.sweep {
        row(&mut runs, cap, "sharded", ExecConfig { shards, ..sc.base });
    }
    // Batch-size sweep at one shard: one worker, no
    // sharding, so the rows isolate what the frame size buys on the
    // channel + accounting hot path. Count identity across the rows is
    // checked with the rest of the matrix; the batch-speedup gate
    // compares the extremes.
    for &batch_size in &sc.batch_sweep {
        row(
            &mut runs,
            cap,
            "threaded",
            ExecConfig {
                batch_size,
                ..sc.base
            },
        );
    }
    runs
}

/// tuples/s of the (row label, shards) row. Panics when the
/// row is missing — a gate comparing against
/// an absent row is a bug in the scenario's sweep, not a
/// 0.0-throughput measurement.
fn tput(runs: &[Run], row: &str, shards: usize) -> f64 {
    runs.iter()
        .find(|r| r.row == row && r.shards == shards)
        .map(|r| r.res.input_tuples_per_wall_s())
        .unwrap_or_else(|| panic!("no {row}({shards}) row in the sweep"))
}

/// tuples/s of the threaded batch-sweep row with the given frame size;
/// panics like [`tput`].
fn tput_batch(runs: &[Run], batch: usize) -> f64 {
    runs.iter()
        .find(|r| r.row == "threaded" && r.batch == batch)
        .map(|r| r.res.input_tuples_per_wall_s())
        .unwrap_or_else(|| panic!("no threaded(batch={batch}) row in the sweep"))
}

fn check_scenario(sc: &Scenario, runs: &[Run], cores: usize) {
    println!(
        "\n=== scenario {} ({:.1} M tuples/s aggregate demand) ===",
        sc.name,
        sc.aggregate_demand / 1e6
    );
    println!(
        "{:<13} {:>7} {:>6} {:>10} {:>10} {:>9} {:>12} {:>8}",
        "row", "shards", "batch", "emitted", "matched", "wall ms", "tuples/s", "threads"
    );
    for r in runs {
        println!(
            "{:<13} {:>7} {:>6} {:>10} {:>10} {:>9.0} {:>12.0} {:>8}",
            r.row,
            r.shards,
            r.batch,
            r.res.emitted,
            r.res.matched,
            r.res.wall_ms,
            r.res.input_tuples_per_wall_s(),
            r.res.threads,
        );
    }

    // Correctness: sharding — at any shard count — must never change
    // what joins.
    let reference = &runs[0].res;
    assert!(
        reference.delivered > 0,
        "{}: workload delivered nothing",
        sc.name
    );
    for r in &runs[1..] {
        let tag = format!(
            "{}: {}(shards={}, batch={})",
            sc.name, r.row, r.shards, r.batch
        );
        assert_eq!(
            r.res.matched, reference.matched,
            "{tag} changed the match set: {} vs {}",
            r.res.matched, reference.matched
        );
        assert_eq!(
            r.res.emitted, reference.emitted,
            "{tag} changed the emission count"
        );
        assert_eq!(
            r.res.delivered, reference.delivered,
            "{tag} changed the delivery count"
        );
    }
    println!("matched/delivered counts identical across the whole matrix ✓");

    // Performance gates: where the cores exist, sharding must pay off.
    // Uniform keeps PR 2's 1.5× regression wall (deliberately below the
    // dedicated-4-core target; shared CI runners are noisy). Hot-pair
    // is the keyed claim: sub-key routing must yield ≥ 1.2× where
    // (window, pair) routing alone structurally cannot. Zipf reports
    // its ratio. 1-to-3-core hosts only report.
    let threaded = tput(runs, "threaded", 1);
    match sc.name {
        "uniform" => {
            let speedup = tput(runs, "sharded", 4) / threaded.max(1.0);
            println!("uniform: sharded(4)/threaded = {speedup:.2}× on {cores} cores");
            // Metrics-overhead gate: the telemetry plane's hot-path
            // cost is one relaxed atomic bump per event, so the
            // instrumented threaded run must hold ≥ 97 % of the
            // telemetry-off throughput. Best-of-3 on each side (the
            // rows are interleaved in the sweep): max throughput is
            // robust to scheduler noise, which only slows runs down.
            let best = |name: &str| {
                // Default-frame rows only: the batch sweep re-uses the
                // "threaded" row label with other frame sizes, and a
                // faster frame must not inflate the instrumented side.
                runs.iter()
                    .filter(|r| r.row == name && r.batch == sc.base.batch_size)
                    .map(|r| r.res.input_tuples_per_wall_s())
                    .fold(0.0f64, f64::max)
            };
            let tm_ratio = best("threaded") / best("threaded-notm").max(1.0);
            println!(
                "uniform: telemetry-on/telemetry-off = {tm_ratio:.3} \
                 (gate ≥ 0.97 on ≥ 4 cores)"
            );
            // Batch-framing gate: 64-tuple frames amortize the channel
            // hop and the accounting over 64× fewer messages, so the
            // frame-64 row must clearly beat frame-1 (tuple-at-a-time).
            // Measured ≥ 2× even on a 1-core container; the CI bound
            // leaves shared-runner slack, same philosophy as the 1.5×
            // shard wall (target 2×).
            let batch_speedup = tput_batch(runs, 64) / tput_batch(runs, 1).max(1.0);
            println!(
                "uniform: threaded batch=64/batch=1 = {batch_speedup:.2}× \
                 (gate ≥ 1.5 on ≥ 4 cores)"
            );
            if cores >= 4 {
                assert!(
                    speedup >= 1.5,
                    "sharding perf regression: 4 shards only {speedup:.2}× \
                     the threaded baseline on a {cores}-core host"
                );
                assert!(
                    tm_ratio >= 0.97,
                    "telemetry overhead too high: instrumented threaded run at \
                     {tm_ratio:.3}× the telemetry-off baseline on a {cores}-core host"
                );
                assert!(
                    batch_speedup >= 1.5,
                    "batching stopped paying: threaded batch=64 only \
                     {batch_speedup:.2}× the batch=1 row on a {cores}-core host"
                );
            } else {
                println!("host has {cores} core(s) < 4: reporting only");
            }
        }
        "hot-pair" => {
            let speedup = tput(runs, "sharded", 4) / threaded.max(1.0);
            println!("hot-pair: sharded(4)/threaded = {speedup:.2}× on {cores} cores");
            if cores >= 4 {
                assert!(
                    speedup >= 1.2,
                    "keyed sharding failed to parallelize the hot pair: \
                     sharded(4) only {speedup:.2}× the threaded baseline \
                     on a {cores}-core host"
                );
            } else {
                println!("host has {cores} core(s) < 4: reporting only");
            }
        }
        "zipf" => {
            println!(
                "zipf: sharded(4)/threaded = {:.2}× on {cores} cores (reporting only)",
                tput(runs, "sharded", 4) / threaded.max(1.0),
            );
        }
        // scenario() rejects unknown names before any run starts; a new
        // scenario must declare its own gates here rather than silently
        // inheriting another's against rows its sweep never produced.
        other => unreachable!("no perf gates defined for scenario {other:?}"),
    }
}

fn write_json(sc: &Scenario, runs: &[Run], cores: usize, duration_ms: f64) {
    let mut entries = String::new();
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"row\": \"{}\", \"shards\": {}, \
             \"batch\": {}, \"tuples_per_s\": {:.0}, \"wall_ms\": {:.1}, \"emitted\": {}, \
             \"matched\": {}, \"delivered\": {}, \"threads\": {}}}",
            r.row,
            r.shards,
            r.batch,
            r.res.input_tuples_per_wall_s(),
            r.res.wall_ms,
            r.res.emitted,
            r.res.matched,
            r.res.delivered,
            r.res.threads,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"exec_throughput_smoke\",\n  \"scenario\": \"{}\",\n  \
         \"host_cores\": {cores},\n  \"duration_ms\": {duration_ms},\n  \
         \"aggregate_demand_tuples_per_s\": {:.0},\n  \"runs\": [\n{entries}\n  ]\n}}\n",
        sc.name, sc.aggregate_demand,
    );
    // The uniform scenario keeps the historical BENCH_exec.json name so
    // the tuples/s trajectory stays comparable across PRs; the others
    // get a scenario suffix.
    let file = match sc.name {
        "uniform" => "BENCH_exec.json".to_string(),
        other => format!("BENCH_exec_{}.json", other.replace('-', "_")),
    };
    let path = std::path::Path::new(&file);
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

// ---------------------------------------------------------------------
// churn: live reconfiguration under load (exec-side §3.5)
// ---------------------------------------------------------------------

/// The churn world: sink + two join-host workers + `rates.len()` source
/// pairs, every node a pure relay (capacity 0) so runs are structurally
/// drop-free at any execution speed — the precondition for the
/// count-identity gates.
fn churn_world(rates: &[f64]) -> (Topology, JoinQuery, NodeId, NodeId) {
    let mut t = Topology::new();
    let sink = t.add_node(NodeRole::Sink, 0.0, "sink");
    let w1 = t.add_node(NodeRole::Worker, 0.0, "w1");
    let w2 = t.add_node(NodeRole::Worker, 0.0, "w2");
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (k, &rate) in rates.iter().enumerate() {
        let l = t.add_node(NodeRole::Source, 0.0, format!("l{k}"));
        let r = t.add_node(NodeRole::Source, 0.0, format!("r{k}"));
        left.push(StreamSpec::keyed(l, rate, k as u32));
        right.push(StreamSpec::keyed(r, rate, k as u32));
    }
    let query = JoinQuery::by_key(left, right, sink);
    (t, query, w1, w2)
}

struct ChurnRun {
    row: &'static str,
    shards: usize,
    batch: usize,
    res: ExecResult,
    pause_p99_ms: f64,
    handoff_p99_ms: f64,
    migrated_tuples: usize,
    /// Every epoch barriered ahead of the emission frontier — the
    /// precondition for the replay-identity gate below.
    clean_split: bool,
}

/// Run the live-reconfiguration scenario: mid-run, the join hosts
/// "fail" (w1 leaves, everything re-places onto w2 and back) while the
/// source rates double and revert — three epoch barriers per run, none
/// window-aligned, so every reconfiguration hands off live mid-window
/// state. Gated on all hosts: every row's
/// `emitted`/`matched`/`delivered` must equal the simulator replaying
/// the *same* pre/post plans (`nova_runtime::simulate_reconfigured`).
/// On ≥ 4-core hosts additionally gates the stop-the-world handoff p99.
fn run_churn(duration_ms: f64, cores: usize, cap: &mut Capture) {
    let rate = 50_000.0;
    let rates_pre = vec![rate; 2];
    let rates_hot = [2.0 * rate; 2];
    let (topology, q_pre, w1, w2) = churn_world(&rates_pre);
    // Same nodes, shifted rates: rebuild the query with the hot rates.
    let q_hot = {
        let mut q = q_pre.clone();
        for s in q.left.iter_mut().chain(q.right.iter_mut()) {
            s.rate = 2.0 * rate;
        }
        q
    };
    // Peak demand = the hot phases: 2 sides x the doubled rates.
    let aggregate_demand = 2.0 * rates_hot.iter().sum::<f64>();

    let base = ExecConfig {
        key_space: 64,
        // Real-time pacing (unlike the throughput scenarios' flat-out
        // time_scale 1000): reconfiguration is armed by wall-clock
        // control messages racing the virtual emission frontier, so the
        // epochs need real headroom ahead of the sources. The scenario
        // gates correctness and the stop-the-world pause, not tuples/s.
        time_scale: 1.0,
        ..throughput_cfg(duration_ms, duration_ms / 2.0, 0.02, 1)
    };
    // Epochs at 27 % / 55 % / 78 % of the horizon: none aligned to the
    // two tumbling windows, so each barrier migrates a live window.
    let epochs = [0.27, 0.55, 0.78].map(|f| f * duration_ms);
    let p_pre_w1 = host_based(&q_pre, &q_pre.resolve(), w1);
    let p_hot_w2 = host_based(&q_hot, &q_hot.resolve(), w2);
    let p_pre_w1_back = host_based(&q_pre, &q_pre.resolve(), w1);
    let switches = vec![
        // w1 leaves + rates double: pairs re-place onto w2.
        PlanSwitch::between(epochs[0], &q_hot, &p_pre_w1, &p_hot_w2, 1.0)
            .with_capacities(vec![(w1, 0.0)]),
        // w1 returns, rates revert.
        PlanSwitch::between(epochs[1], &q_pre, &p_hot_w2, &p_pre_w1_back, 1.0),
        // And churn once more: w2 takes over again at hot rates.
        PlanSwitch::between(epochs[2], &q_hot, &p_pre_w1_back, &p_hot_w2, 1.0),
    ];
    let df0 = Dataflow::from_baseline(&q_pre, &p_pre_w1);

    // The reference: the simulator replaying the same pre/post plans.
    let sim_cfg = nova_runtime::SimConfig {
        duration_ms: base.duration_ms,
        window_ms: base.window_ms,
        selectivity: base.selectivity,
        gc_interval_ms: base.gc_interval_ms,
        seed: base.seed,
        max_queue_ms: base.max_queue_ms,
        key_space: base.key_space,
        ..nova_runtime::SimConfig::default()
    };
    let sim = simulate_reconfigured(&topology, |_, _| 0.0, &df0, &switches, &sim_cfg);
    assert_eq!(sim.dropped, 0, "churn: the replay must stay drop-free");
    assert!(sim.delivered > 0, "churn: the replay must deliver");

    let mut runs = Vec::new();
    for (name, shards) in [("threaded", 1usize), ("sharded", 4)] {
        let cfg = ExecConfig { shards, ..base };
        let mut handle = launch(&topology, |_, _| 0.0, &df0, &cfg).expect("churn config is valid");
        let rx = cap.wants().then(|| {
            handle
                .subscribe(Duration::from_millis(25))
                .expect("non-zero interval")
        });
        for sw in &switches {
            handle
                .apply(sw, |_, _| 0.0)
                .unwrap_or_else(|e| panic!("churn: {name} reconfiguration failed: {e}"));
        }
        let res = handle.join();
        if let Some(rx) = rx {
            let row = format!("{name}-s{shards}");
            let mut last = None;
            for snap in rx.iter() {
                cap.record("churn", &row, &snap);
                last = Some(snap);
            }
            cap.finish_row(last.as_ref());
        }
        // Epoch stats are read off the ExecResult — they must survive
        // the join, which is exactly what the JSON rows rely on.
        let pauses: Vec<f64> = res.epochs.iter().map(|s| s.pause_wall_ms).collect();
        let handoffs: Vec<f64> = res.epochs.iter().map(|s| s.handoff_wall_ms).collect();
        let migrated_tuples = res.epochs.iter().map(|s| s.migrated_tuples).sum();
        let clean = res.epochs.iter().all(|s| s.clean_split);
        assert_eq!(
            res.epochs.len(),
            switches.len(),
            "churn: {name} lost epoch stats across join"
        );
        runs.push(ChurnRun {
            row: name,
            shards,
            batch: cfg.batch_size,
            res,
            pause_p99_ms: percentile(&pauses, 0.99),
            handoff_p99_ms: percentile(&handoffs, 0.99),
            migrated_tuples,
            clean_split: clean,
        });
    }

    println!(
        "\n=== scenario churn ({:.1} M tuples/s peak aggregate demand, 3 epochs/run) ===",
        aggregate_demand / 1e6
    );
    println!(
        "{:<10} {:>7} {:>10} {:>10} {:>10} {:>10} {:>11} {:>12}",
        "row", "shards", "emitted", "matched", "delivered", "migrated", "pause p99", "handoff p99"
    );
    println!(
        "{:<10} {:>7} {:>10} {:>10} {:>10} {:>10} {:>11} {:>12}",
        "sim-replay", "-", sim.emitted, sim.matched, sim.delivered, "-", "-", "-"
    );
    for r in &runs {
        println!(
            "{:<10} {:>7} {:>10} {:>10} {:>10} {:>10} {:>9.1}ms {:>10.2}ms",
            r.row,
            r.shards,
            r.res.emitted,
            r.res.matched,
            r.res.delivered,
            r.migrated_tuples,
            r.pause_p99_ms,
            r.handoff_p99_ms,
        );
    }

    // JSON first (the always-uploaded artifact), gates after.
    write_churn_json(&runs, &sim, cores, duration_ms);

    for r in &runs {
        let tag = format!("churn: {}(shards={})", r.row, r.shards);
        assert_eq!(r.res.dropped, 0, "{tag} must stay drop-free");
        assert!(
            r.migrated_tuples > 0,
            "{tag} must migrate live window state at the epochs"
        );
        assert!(
            r.clean_split,
            "{tag}: an epoch barrier lost the race against the emission \
             frontier — the replay-identity gate below would be comparing \
             different splits"
        );
        assert_eq!(
            r.res.emitted, sim.emitted,
            "{tag} diverged from the simulator replay on emitted"
        );
        assert_eq!(
            r.res.matched, sim.matched,
            "{tag} lost or duplicated matches across a reconfiguration"
        );
        assert_eq!(
            r.res.delivered, sim.delivered,
            "{tag} diverged from the simulator replay on delivered"
        );
    }
    println!("counts identical to the simulator replay at every shard count ✓");

    if cores >= 4 {
        let worst = runs.iter().map(|r| r.handoff_p99_ms).fold(0.0f64, f64::max);
        assert!(
            worst <= 250.0,
            "churn: stop-the-world handoff p99 too high: {worst:.1} ms \
             (state re-hash + generation spawn should be far below 250 ms)"
        );
        println!("handoff p99 {worst:.2} ms ≤ 250 ms ✓");
    } else {
        println!("host has {cores} core(s) < 4: pause gates reporting only");
    }
}

fn write_churn_json(
    runs: &[ChurnRun],
    sim: &nova_runtime::SimResult,
    cores: usize,
    duration_ms: f64,
) {
    let mut entries = String::new();
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        // Per-epoch rows (satellite: EpochStats survive the join and
        // land in the artifact, one entry per applied switch).
        let epochs: Vec<String> = r
            .res
            .epochs
            .iter()
            .map(|e| {
                format!(
                    "{{\"epoch_ms\": {:.1}, \"pause_wall_ms\": {:.3}, \
                     \"handoff_wall_ms\": {:.3}, \"migrated_groups\": {}, \
                     \"migrated_tuples\": {}, \"shard_workers\": {}, \"clean_split\": {}}}",
                    e.epoch_ms,
                    e.pause_wall_ms,
                    e.handoff_wall_ms,
                    e.migrated_groups,
                    e.migrated_tuples,
                    e.shard_workers,
                    e.clean_split,
                )
            })
            .collect();
        entries.push_str(&format!(
            "    {{\"row\": \"{}\", \"shards\": {}, \"batch\": {}, \
             \"emitted\": {}, \"matched\": {}, \"delivered\": {}, \"wall_ms\": {:.1}, \
             \"tuples_per_s\": {:.0}, \"reconfigs\": 3, \"migrated_tuples\": {}, \"clean_split\": {}, \
             \"pause_p99_ms\": {:.3}, \"handoff_p99_ms\": {:.3}, \"epochs\": [{}]}}",
            r.row,
            r.shards,
            r.batch,
            r.res.emitted,
            r.res.matched,
            r.res.delivered,
            r.res.wall_ms,
            r.res.input_tuples_per_wall_s(),
            r.migrated_tuples,
            r.clean_split,
            r.pause_p99_ms,
            r.handoff_p99_ms,
            epochs.join(", "),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"exec_churn_smoke\",\n  \"scenario\": \"churn\",\n  \
         \"host_cores\": {cores},\n  \"duration_ms\": {duration_ms},\n  \
         \"sim_replay\": {{\"emitted\": {}, \"matched\": {}, \"delivered\": {}}},\n  \
         \"runs\": [\n{entries}\n  ]\n}}\n",
        sim.emitted, sim.matched, sim.delivered,
    );
    let path = std::path::Path::new("BENCH_exec_churn.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

// ---------------------------------------------------------------------
// autoscale: closed-loop elasticity (DESIGN.md §9)
// ---------------------------------------------------------------------

/// Steady per-stream rate of the autoscale world (tuples/s): ρ = 0.5
/// on the weak join host.
const AS_RATE: f64 = 500.0;
/// Flash-crowd / diurnal-peak rate multiplier: pushes the weak host to
/// ρ = 1.25, past saturation, while the strong spare would sit at
/// ρ ≈ 0.31 — overloaded enough to detect, bounded enough that the
/// pre-scale-up backlog stays far below the window (which keeps the
/// simulator replay's GC behaviour identical to the executor's).
const AS_CROWD: f64 = 2.5;

/// The autoscale world: a weak join host (2 000 t/s service capacity),
/// a strong spare (8 000 t/s), one source pair at [`AS_RATE`] each,
/// plus a dormant `late-r` source for the mid-run admission (the
/// topology is fixed at launch, so the admitted stream's node must
/// exist up front). Metro links at 25 ms give delivered latency a real
/// baseline, so the "p99 must not double" gate measures controller
/// lag rather than scheduler noise.
fn autoscale_world() -> (Topology, JoinQuery, NodeId, NodeId, NodeId) {
    let mut t = Topology::new();
    let sink = t.add_node(NodeRole::Sink, 0.0, "sink");
    let w_small = t.add_node(NodeRole::Worker, 2_000.0, "w-small");
    let w_big = t.add_node(NodeRole::Worker, 8_000.0, "w-big");
    let l = t.add_node(NodeRole::Source, 0.0, "l0");
    let r = t.add_node(NodeRole::Source, 0.0, "r0");
    let late = t.add_node(NodeRole::Source, 0.0, "late-r");
    let q = JoinQuery::by_key(
        vec![StreamSpec::keyed(l, AS_RATE, 0)],
        vec![StreamSpec::keyed(r, AS_RATE, 0)],
        sink,
    );
    (t, q, w_small, w_big, late)
}

fn metro_dist(a: NodeId, b: NodeId) -> f64 {
    if a == b {
        0.0
    } else {
        25.0
    }
}

/// `q` with every stream at `AS_RATE * mult`. Rates stay equal across
/// the pair: the plan compiler then keeps every feed single-partition,
/// the regime where executor and simulator draw no partition
/// randomness and the replay gate can demand exact counts.
fn scaled_q(q: &JoinQuery, mult: f64) -> JoinQuery {
    let mut q = q.clone();
    for s in q.left.iter_mut().chain(q.right.iter_mut()) {
        s.rate = AS_RATE * mult;
    }
    q
}

/// Controller tuning for the scenario. The low-water mark must stay
/// below the crowd's ρ ≈ 0.31 on the strong host, or the controller
/// would scale down mid-crowd and oscillate; the backlog trigger sits
/// below even the weak host's steady-state burst backlog (~27 ms of
/// batched service charges), so a saturation scale-up always carries
/// the re-placement — utilization, not backlog, gates the decision.
fn autoscale_policy() -> AutoscaleConfig {
    AutoscaleConfig {
        interval: Duration::from_millis(25),
        high_utilization: 0.85,
        low_utilization: 0.2,
        backlog_high_ms: 8.0,
        high_samples: 2,
        slack_samples: 3,
        cooldown_ms: 400.0,
        epoch_lead_ms: 60.0,
        min_shards: 1,
        max_shards: 8,
        scale_factor: 2,
    }
}

/// One mid-run injection from the workload generator.
enum Inject {
    /// Rate step: every stream jumps to `AS_RATE *` the multiplier.
    Step(f64),
    /// `add_source` admission of the dormant `late-r` stream.
    Admit,
}

struct AutoRun {
    profile: &'static str,
    row: String,
    shards0: usize,
    batch: usize,
    report: AutoscaleReport,
    /// The simulator replaying this run's recorded switch sequence.
    sim: nova_runtime::SimResult,
}

/// Launch one run, hand the handle to an [`Autoscaler`] whose
/// relocator evacuates onto the strong host, replay the injected
/// schedule against it wall-clock (time_scale is 1.0), join, and
/// replay the controller's recorded switch sequence through the
/// simulator.
fn drive_autoscale(
    profile: &'static str,
    row: String,
    cfg: &ExecConfig,
    sim_cfg: &nova_runtime::SimConfig,
    events: &[(f64, Inject)],
    cap: &mut Capture,
) -> AutoRun {
    let (topology, q0, w_small, w_big, late) = autoscale_world();
    let p0 = host_based(&q0, &q0.resolve(), w_small);
    let df0 = Dataflow::from_baseline(&q0, &p0);

    let handle = launch(&topology, metro_dist, &df0, cfg).expect("autoscale config is valid");
    let cap_rx = cap.wants().then(|| {
        handle
            .subscribe(Duration::from_millis(25))
            .expect("non-zero interval")
    });

    // The relocator and the workload driver share two facts: the rates
    // right now (relocation must rebuild the plan at the *current*
    // crowd rates, or evacuating the weak host would silently revert
    // the workload step) and whether relocation has happened (later
    // injected steps must be placement-preserving, not drag the
    // instances back to the weak host).
    let live_q = Arc::new(Mutex::new(q0.clone()));
    let relocated = Arc::new(AtomicBool::new(false));
    let relocator: Relocator = {
        let live_q = Arc::clone(&live_q);
        let relocated = Arc::clone(&relocated);
        Box::new(move |_from: NodeId| {
            // ORDERING: lone flag with no dependent data — the rates
            // travel inside the mutex-guarded `live_q`, so Relaxed is
            // enough (nova-lint flagged the original SeqCst here).
            relocated.store(true, Ordering::Relaxed);
            let q = live_q.lock().unwrap().clone();
            let p = host_based(&q, &q.resolve(), w_big);
            let df = Dataflow::from_baseline(&q, &p);
            let succ = (0..df.instances.len() as u32).map(Some).collect();
            (df, succ)
        })
    };
    let ctl = Autoscaler::spawn(
        handle,
        df0.clone(),
        autoscale_policy(),
        Box::new(metro_dist),
        Some(relocator),
    );

    let t0 = Instant::now();
    let sleep_until = |at_ms: f64| {
        let elapsed = t0.elapsed().as_secs_f64() * 1000.0;
        if elapsed < at_ms {
            std::thread::sleep(Duration::from_secs_f64((at_ms - elapsed) / 1000.0));
        }
    };
    let host_now = |relocated: &AtomicBool| {
        // ORDERING: see the store above — an injector reading the flag
        // one event late only delays the placement-preserving rebuild.
        if relocated.load(Ordering::Relaxed) {
            w_big
        } else {
            w_small
        }
    };

    for (at_ms, ev) in events {
        sleep_until(*at_ms);
        let host = host_now(&relocated);
        let q_now = live_q.lock().unwrap().clone();
        let p_from = host_based(&q_now, &q_now.resolve(), host);
        let q_to = match ev {
            Inject::Step(mult) => scaled_q(&q0, *mult),
            Inject::Admit => {
                // Keyed to the (only) left stream at that stream's own
                // rate: equal partner rates keep the admitted pair
                // single-partition, and appending to `right` appends
                // the new pair id, leaving existing pair ids stable.
                let mut right = q_now.right.clone();
                right.push(StreamSpec::keyed(late, q_now.left[0].rate, 0));
                JoinQuery::by_key(q_now.left.clone(), right, q_now.sink)
            }
        };
        let p_to = host_based(&q_to, &q_to.resolve(), host);
        // Epoch NaN: the controller stamps `now + epoch_lead_ms`, which
        // keeps the recorded sequence monotone against its own
        // decisions regardless of wall-clock skew.
        let sw = PlanSwitch::between(f64::NAN, &q_to, &p_from, &p_to, 1.0);
        let stats = match ev {
            Inject::Step(mult) => ctl.apply(sw).unwrap_or_else(|e| {
                panic!("autoscale: {profile}/{row}: rate step x{mult} failed: {e}")
            }),
            Inject::Admit => ctl
                .add_source(sw)
                .unwrap_or_else(|e| panic!("autoscale: {profile}/{row}: admission failed: {e}")),
        };
        assert!(
            stats.clean_split,
            "autoscale: {profile}/{row}: injected epoch armed late"
        );
        *live_q.lock().unwrap() = q_to;
    }

    let report = ctl.join();
    if let Some(rx) = cap_rx {
        let mut last = None;
        for snap in rx.iter() {
            cap.record("autoscale", &row, &snap);
            last = Some(snap);
        }
        cap.finish_row(last.as_ref());
    }
    let switches: Vec<PlanSwitch> = report.switches.iter().map(|r| r.switch.clone()).collect();
    let sim = simulate_reconfigured(&topology, metro_dist, &df0, &switches, sim_cfg);
    AutoRun {
        profile,
        row,
        shards0: cfg.shards,
        batch: cfg.batch_size,
        report,
        sim,
    }
}

/// p99 of delivered latency over outputs arriving in `[from, to)` ms.
fn p99_between(res: &ExecResult, from: f64, to: f64) -> f64 {
    let lat: Vec<f64> = res
        .outputs
        .iter()
        .filter(|o| o.arrival_ms >= from && o.arrival_ms < to)
        .map(|o| o.latency_ms)
        .collect();
    if lat.is_empty() {
        0.0
    } else {
        percentile(&lat, 0.99)
    }
}

/// Everything the gates and the artifact need from one controller run,
/// derived from the decision log and the delivered-latency stream.
struct AutoSummary {
    /// Epoch of the injected surge step (crowd onset / diurnal peak).
    surge_epoch: f64,
    /// Epoch of the injected step that ends the surge.
    ebb_epoch: f64,
    /// Epochs of applied scale-up decisions, in order.
    ups: Vec<f64>,
    /// How many of those carried a re-placement.
    relocated_ups: usize,
    /// Epochs of applied scale-down decisions, in order.
    downs: Vec<f64>,
    admitted: usize,
    clean_split: bool,
    baseline_p99_ms: f64,
    /// Worst 100 ms-bucket p99 inside the surge.
    peak_p99_ms: f64,
    /// p99 after the first scale-up settled, up to the surge's end.
    settled_p99_ms: f64,
    /// End of the first 100 ms bucket whose p99 crossed 2× baseline.
    exceeded_at_ms: Option<f64>,
    final_shards: usize,
}

/// Derive the summary. `surge_idx`/`ebb_idx` index into the run's
/// applied `injected-apply` decisions (flash-crowd: steps 0 and 1;
/// diurnal: the peak and the return to baseline, steps 1 and 3).
fn summarize(run: &AutoRun, surge_idx: usize, ebb_idx: usize, duration_ms: f64) -> AutoSummary {
    let dec = &run.report.decisions;
    let applied = |action: &str| -> Vec<&DecisionRecord> {
        dec.iter()
            .filter(|d| d.action == action && d.outcome == "applied")
            .collect()
    };
    let injected = applied("injected-apply");
    assert!(
        injected.len() > ebb_idx,
        "autoscale: {}/{}: expected injected steps up to index {ebb_idx}, got {}",
        run.profile,
        run.row,
        injected.len()
    );
    let surge_epoch = injected[surge_idx].epoch_ms;
    let ebb_epoch = injected[ebb_idx].epoch_ms;
    let mut ups: Vec<(f64, bool)> = dec
        .iter()
        .filter(|d| {
            (d.action == "scale-up" || d.action == "scale-up+relocate") && d.outcome == "applied"
        })
        .map(|d| (d.epoch_ms, d.action == "scale-up+relocate"))
        .collect();
    ups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let downs: Vec<f64> = applied("scale-down").iter().map(|d| d.epoch_ms).collect();

    let res = &run.report.result;
    let baseline_p99_ms = p99_between(res, 300.0, surge_epoch);
    let mut peak_p99_ms = 0.0f64;
    let mut settled_from = ups.first().map(|&(e, _)| e + 150.0);
    let mut exceeded_at_ms = None;
    let mut t = 300.0;
    while t + 100.0 <= duration_ms {
        let p = p99_between(res, t, t + 100.0);
        if t >= surge_epoch && t + 100.0 <= ebb_epoch {
            peak_p99_ms = peak_p99_ms.max(p);
        }
        if exceeded_at_ms.is_none() && p > 2.0 * baseline_p99_ms {
            exceeded_at_ms = Some(t + 100.0);
        }
        t += 100.0;
    }
    let settled_p99_ms = match settled_from.take() {
        Some(from) if from < ebb_epoch => p99_between(res, from, ebb_epoch),
        _ => 0.0,
    };
    AutoSummary {
        surge_epoch,
        ebb_epoch,
        ups: ups.iter().map(|&(e, _)| e).collect(),
        relocated_ups: ups.iter().filter(|&&(_, r)| r).count(),
        downs,
        admitted: run.report.switches.iter().filter(|s| s.admitted).count(),
        clean_split: run.report.switches.iter().all(|s| s.stats.clean_split),
        baseline_p99_ms,
        peak_p99_ms,
        settled_p99_ms,
        exceeded_at_ms,
        final_shards: dec.last().map(|d| d.shards).unwrap_or(0),
    }
}

fn write_autoscale_json(runs: &[(AutoRun, AutoSummary)], cores: usize, duration_ms: f64) {
    let num = |v: f64| {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "null".to_string()
        }
    };
    let mut entries = String::new();
    for (i, (r, s)) in runs.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"profile\": \"{}\", \"row\": \"{}\", \"shards0\": {}, \
             \"batch\": {}, \
             \"final_shards\": {}, \"emitted\": {}, \"matched\": {}, \"delivered\": {}, \
             \"dropped\": {}, \"switches\": {}, \"scale_ups\": {}, \"relocations\": {}, \
             \"scale_downs\": {}, \"admissions\": {}, \"clean_split\": {}, \
             \"surge_epoch_ms\": {}, \"ebb_epoch_ms\": {}, \"scale_up_lag_ms\": {}, \
             \"scale_down_lag_ms\": {}, \"baseline_p99_ms\": {}, \"peak_p99_ms\": {}, \
             \"settled_p99_ms\": {}, \
             \"sim_replay\": {{\"emitted\": {}, \"matched\": {}, \"delivered\": {}}}}}",
            r.profile,
            r.row,
            r.shards0,
            r.batch,
            s.final_shards,
            r.report.result.emitted,
            r.report.result.matched,
            r.report.result.delivered,
            r.report.result.dropped,
            r.report.switches.len(),
            s.ups.len(),
            s.relocated_ups,
            s.downs.len(),
            s.admitted,
            s.clean_split,
            num(s.surge_epoch),
            num(s.ebb_epoch),
            num(s.ups.first().map(|u| u - s.surge_epoch).unwrap_or(f64::NAN)),
            num(s
                .downs
                .iter()
                .find(|&&d| d > s.ebb_epoch)
                .map(|d| d - s.ebb_epoch)
                .unwrap_or(f64::NAN)),
            num(s.baseline_p99_ms),
            num(s.peak_p99_ms),
            num(s.settled_p99_ms),
            r.sim.emitted,
            r.sim.matched,
            r.sim.delivered,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"exec_autoscale_smoke\",\n  \"scenario\": \"autoscale\",\n  \
         \"host_cores\": {cores},\n  \"duration_ms\": {duration_ms},\n  \
         \"decision_log\": \"BENCH_exec_autoscale_decisions.jsonl\",\n  \
         \"runs\": [\n{entries}\n  ]\n}}\n"
    );
    let path = std::path::Path::new("BENCH_exec_autoscale.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// The decision log: every snapshot the controllers evaluated across
/// all runs, one JSON object per line tagged with its profile and row —
/// predicted utilization, backlog, chosen action and outcome.
fn write_autoscale_decisions(runs: &[(AutoRun, AutoSummary)]) {
    let mut out = String::new();
    for (r, _) in runs {
        for d in &r.report.decisions {
            let line = d.to_json_line();
            out.push_str(&format!(
                "{{\"profile\": \"{}\", \"row\": \"{}\", {}\n",
                r.profile,
                r.row,
                &line[1..]
            ));
        }
    }
    let path = std::path::Path::new("BENCH_exec_autoscale_decisions.jsonl");
    match std::fs::write(path, &out) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Run the closed-loop elasticity scenario (DESIGN.md §9): the
/// flash-crowd profile at 1 and 4 launch shards, plus one diurnal
/// swell-and-ebb run, each owned by an [`Autoscaler`]. Count identity
/// against the simulator replaying each controller's recorded switch
/// sequence gates on any host; the latency and convergence-timing
/// gates need ≥ 4 cores.
fn run_autoscale(full: bool, cores: usize, cap: &mut Capture) {
    // Real-time horizon, independent of the throughput scenarios'
    // virtual horizon: the control loop needs real milliseconds for
    // sampling (25 ms), hysteresis (2–3 samples) and cooldown (400 ms)
    // to play out twice (up and down) with headroom.
    let d = if full { 3600.0 } else { 2600.0 };
    let base = ExecConfig {
        key_space: 8,
        time_scale: 1.0,
        ..throughput_cfg(d, 500.0, 0.05, 1)
    };
    let sim_cfg = nova_runtime::SimConfig {
        duration_ms: base.duration_ms,
        window_ms: base.window_ms,
        selectivity: base.selectivity,
        gc_interval_ms: base.gc_interval_ms,
        seed: base.seed,
        max_queue_ms: base.max_queue_ms,
        key_space: base.key_space,
        ..nova_runtime::SimConfig::default()
    };
    let policy = autoscale_policy();

    let mut runs: Vec<(AutoRun, AutoSummary)> = Vec::new();
    for (name, shards) in [("threaded", 1usize), ("sharded", 4)] {
        let cfg = ExecConfig { shards, ..base };
        let events = [
            (0.35 * d, Inject::Step(AS_CROWD)),
            (0.62 * d, Inject::Step(1.0)),
            (0.80 * d, Inject::Admit),
        ];
        let run = drive_autoscale(
            "flash-crowd",
            format!("{name}-s{shards}"),
            &cfg,
            &sim_cfg,
            &events,
            cap,
        );
        let summary = summarize(&run, 0, 1, d);
        runs.push((run, summary));
    }
    // Diurnal: a swell through a non-saturating shoulder (ρ = 0.7 on
    // the weak host — the controller must hold) to the saturating peak
    // and back down. One shard count suffices; the gate is convergence
    // (bounded decision count, no post-ebb scale-up), not latency.
    {
        let cfg = ExecConfig { shards: 4, ..base };
        // Asymmetric shoulders, because the swell is served by the weak
        // host and the ebb by the strong one (4× the capacity): the
        // swell shoulder must stay clearly below the high-water mark on
        // the weak host (×1.4 → ρ = 0.7 < 0.85) while the ebb shoulder
        // must stay clearly above the low-water mark on the strong host
        // (×1.8 → ρ = 0.225 > 0.2) — a shoulder sitting *on* a
        // threshold would make the hysteresis streak a coin flip.
        let events = [
            (0.20 * d, Inject::Step(1.4)),
            (0.40 * d, Inject::Step(AS_CROWD)),
            (0.60 * d, Inject::Step(1.8)),
            (0.80 * d, Inject::Step(1.0)),
        ];
        // The ebb is the *return to baseline* (last step): shoulders
        // are load the controller is meant to hold through.
        let run = drive_autoscale(
            "diurnal",
            "sharded-s4".to_string(),
            &cfg,
            &sim_cfg,
            &events,
            cap,
        );
        let summary = summarize(&run, 1, 3, d);
        runs.push((run, summary));
    }

    println!("\n=== scenario autoscale (closed-loop controller, flash-crowd + diurnal) ===");
    println!(
        "{:<12} {:<12} {:>9} {:>9} {:>9} {:>4} {:>6} {:>6} {:>8} {:>9} {:>9} {:>10}",
        "profile",
        "row",
        "emitted",
        "matched",
        "delivered",
        "ups",
        "downs",
        "shards",
        "up-lag",
        "base-p99",
        "peak-p99",
        "settle-p99"
    );
    for (r, s) in &runs {
        println!(
            "{:<12} {:<12} {:>9} {:>9} {:>9} {:>4} {:>6} {:>6} {:>6.0}ms {:>7.1}ms {:>7.1}ms {:>8.1}ms",
            r.profile,
            r.row,
            r.report.result.emitted,
            r.report.result.matched,
            r.report.result.delivered,
            s.ups.len(),
            s.downs.len(),
            s.final_shards,
            s.ups.first().map(|u| u - s.surge_epoch).unwrap_or(f64::NAN),
            s.baseline_p99_ms,
            s.peak_p99_ms,
            s.settled_p99_ms,
        );
    }

    // JSON first (the always-uploaded artifacts), gates after.
    write_autoscale_json(&runs, cores, d);
    write_autoscale_decisions(&runs);

    for (r, s) in &runs {
        let tag = format!("autoscale: {}/{}", r.profile, r.row);
        let res = &r.report.result;

        // Replay identity: the controller's whole recorded sequence —
        // injected steps, its own scale/re-place switches, and (flash)
        // the admission — replayed by the simulator, exact counts.
        assert!(s.clean_split, "{tag}: an epoch barrier armed late");
        assert_eq!(res.dropped, 0, "{tag} must stay drop-free");
        assert_eq!(r.sim.dropped, 0, "{tag}: replay must stay drop-free");
        assert_eq!(
            res.emitted, r.sim.emitted,
            "{tag} diverged from the replay on emitted"
        );
        assert_eq!(
            res.matched, r.sim.matched,
            "{tag} lost or duplicated matches across the switch sequence"
        );
        assert_eq!(
            res.delivered, r.sim.delivered,
            "{tag} diverged from the replay on delivered"
        );
        if r.profile == "flash-crowd" {
            assert_eq!(s.admitted, 1, "{tag}: exactly one admission per run");
        }

        // Closed-loop behaviour: the surge must be answered by a
        // re-placing scale-up inside the surge window, slack by a
        // scale-down after it — and never a scale-up after the ebb
        // (that would be oscillation).
        let up = *s
            .ups
            .first()
            .unwrap_or_else(|| panic!("{tag}: controller never scaled up"));
        assert!(
            up > s.surge_epoch && up < s.ebb_epoch,
            "{tag}: scale-up at {up:.0} ms outside the surge \
             [{:.0}, {:.0}] ms",
            s.surge_epoch,
            s.ebb_epoch
        );
        assert!(
            s.relocated_ups >= 1,
            "{tag}: saturation never triggered a re-placement off the weak host"
        );
        assert!(
            s.ups.iter().all(|&u| u < s.ebb_epoch),
            "{tag}: scale-up after the ebb — the loop is oscillating"
        );
        let down_after = s.downs.iter().find(|&&dn| dn > s.ebb_epoch);
        assert!(
            down_after.is_some() || s.downs.iter().any(|&dn| dn > up),
            "{tag}: controller never scaled back down"
        );
        let controller_switches = s.ups.len() + s.downs.len();
        assert!(
            controller_switches <= 5,
            "{tag}: {controller_switches} controller switches — not converging"
        );

        if cores >= 4 {
            // The headline gate: scale up *before* delivered-latency
            // p99 crosses 2× the steady-state baseline...
            assert!(
                s.baseline_p99_ms > 0.0,
                "{tag}: no steady-state latency baseline"
            );
            if let Some(bad) = s.exceeded_at_ms {
                assert!(
                    up < bad,
                    "{tag}: p99 doubled at {bad:.0} ms before the scale-up at {up:.0} ms"
                );
            }
            // ...converge under the sustained surge...
            assert!(
                s.settled_p99_ms <= 2.0 * s.baseline_p99_ms,
                "{tag}: settled p99 {:.1} ms > 2x baseline {:.1} ms after the scale-up",
                s.settled_p99_ms,
                s.baseline_p99_ms
            );
            // ...and, once the crowd passes, scale back down within one
            // cooldown of the ebb. Flash-crowd only: a diurnal ebb is
            // preceded by a shoulder where a legitimate partial
            // scale-down may start a cooldown that straddles the ebb,
            // so its gate is convergence (above), not timing.
            if r.profile == "flash-crowd" {
                if let Some(&dn) = down_after {
                    assert!(
                        dn - s.ebb_epoch <= policy.cooldown_ms,
                        "{tag}: scale-down {:.0} ms after the ebb (> cooldown {:.0} ms)",
                        dn - s.ebb_epoch,
                        policy.cooldown_ms
                    );
                }
            }
        }
    }
    println!("counts identical to the replayed controller sequence at every shard count ✓");
    if cores >= 4 {
        println!("scale-up beat the 2x-p99 deadline; scale-down within one cooldown ✓");
    } else {
        println!("host has {cores} core(s) < 4: latency/timing gates reporting only");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let duration_ms = if full { 1000.0 } else { 300.0 };
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let which = flag("--scenario");
    let metrics_out = flag("--metrics-out");
    let prom_out = flag("--prom-out");
    let mut cap = Capture::open(metrics_out.as_deref(), prom_out.as_deref());

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("bench_exec_smoke: {cores}-core host, {duration_ms} ms virtual horizon");
    if let Some(p) = &metrics_out {
        println!("streaming per-row telemetry snapshots to {p} (JSON lines)");
    }

    let names: Vec<&str> = match which.as_deref() {
        Some(one) => vec![one],
        None => vec!["uniform", "hot-pair", "zipf", "churn", "autoscale"],
    };
    for name in names {
        if name == "churn" {
            // Live reconfiguration has its own harness: it applies
            // epoch barriers mid-run through ExecHandle, which the
            // generic shard matrix cannot express.
            run_churn(duration_ms, cores, &mut cap);
            continue;
        }
        if name == "autoscale" {
            // Closed-loop elasticity has its own harness too: every
            // run is owned by an Autoscaler and driven wall-clock.
            run_autoscale(full, cores, &mut cap);
            continue;
        }
        let sc = scenario(name, duration_ms);
        let runs = run_matrix(&sc, &mut cap);
        // JSON first: a failed gate must still leave fresh numbers on
        // disk for the always-uploaded CI artifact.
        write_json(&sc, &runs, cores, duration_ms);
        check_scenario(&sc, &runs, cores);
    }
}
