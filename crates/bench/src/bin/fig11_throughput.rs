//! Figure 11: end-to-end throughput on the DEBS-style workload —
//! processed tuples versus their latency over a 2-minute run
//! (non-stressed).
//!
//! Deploys every approach's placement of the 4-region pressure ⋈ humidity
//! query on the simulated 14-node Raspberry-Pi cluster and counts the
//! join results delivered to the sink. Expected shape (§4.7): the
//! sink-based approach delivers the least (central overload), the
//! cluster/top-c group slightly more (one bigger node, still a single
//! bottleneck), source/tree roughly doubles that (several small nodes),
//! and Nova delivers several times the best baseline by parallelizing
//! across the workers — the paper reports 14 159 vs 3 176 vs 1 503 vs
//! 1 057 tuples and 4.5× over the best baseline.
//!
//! Run with `--full` for the paper's 120 s duration (default 30 s).
//! Run with `--real` to additionally re-run every placement on the
//! `nova-exec` executor and emit side-by-side simulator/executor
//! columns; `--help` lists the executor knobs (shards, batch size,
//! pinning, key space — parsed by
//! [`nova_bench::real_exec_cfg`], documented by
//! [`nova_bench::REAL_FLAGS_USAGE`]).

use nova_bench::{
    default_sim, end_to_end_runs, end_to_end_runs_real, metrics_out_path, real_exec_cfg,
    with_key_space, write_csv, MetricsWriter, Table, REAL_FLAGS_USAGE,
};
use nova_workloads::{environmental_scenario, EnvironmentalParams};

/// A flag error stops the run with status 2, as [`real_exec_cfg`] does.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "fig11_throughput: end-to-end throughput, DEBS workload\n\nOptions:\n  \
             --full                the paper's 120 s horizon (default 30 s)\n{REAL_FLAGS_USAGE}"
        );
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    let duration_ms = if full { 120_000.0 } else { 30_000.0 };
    let seed = 11;

    let sim = or_exit(with_key_space(&args, default_sim(duration_ms, seed)));
    // The executor replays the simulator settings, dilated 20× so the
    // 30 s virtual horizon takes ~1.5 s wall per approach.
    let real_cfg = real_exec_cfg(&args, &sim, 20.0);
    let real = real_cfg.is_some();
    let mut metrics = or_exit(metrics_out_path(&args))
        .filter(|_| real)
        .map(|p| MetricsWriter::create(&p));

    println!(
        "== Fig. 11: end-to-end throughput, DEBS workload, {}s run (non-stressed{}) ==\n",
        duration_ms / 1000.0,
        real_cfg
            .as_ref()
            .map(|cfg| format!(", + executor: {}", nova_bench::exec_label(cfg)))
            .unwrap_or_default()
    );
    let scenario = environmental_scenario(&EnvironmentalParams::default());
    let runs = end_to_end_runs(&scenario, &sim, 1.0);
    let real_runs = real_cfg
        .as_ref()
        .map(|cfg| end_to_end_runs_real(&scenario, cfg, 1.0, metrics.as_mut()));

    let mut headers = vec![
        "approach",
        "delivered",
        "emitted",
        "mean lat (ms)",
        "90P (ms)",
        "final lat (ms)",
    ];
    if real {
        headers.extend(["delivered real", "mean real (ms)", "90P real (ms)"]);
    }
    let mut table = Table::new(&headers);
    let mut series_rows: Vec<Vec<String>> = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let r = &run.result;
        let final_latency = r.outputs.last().map(|o| o.latency_ms).unwrap_or(0.0);
        let mut row = vec![
            run.name.to_string(),
            r.delivered.to_string(),
            r.emitted.to_string(),
            format!("{:.1}", r.mean_latency()),
            format!("{:.1}", r.latency_percentile(0.9)),
            format!("{final_latency:.1}"),
        ];
        if let Some(real_runs) = &real_runs {
            let e = &real_runs[i].result;
            assert_eq!(real_runs[i].name, run.name, "approach order must match");
            row.extend([
                e.delivered_by(duration_ms).to_string(),
                format!("{:.1}", e.mean_latency()),
                format!("{:.1}", e.latency_percentile(0.9)),
            ]);
        }
        table.row(row);
        // Latency-vs-processed-count series (downsampled to ≤300 points)
        // — the x/y of the paper's Fig. 11.
        let step = (r.outputs.len() / 300).max(1);
        for (i, o) in r.outputs.iter().enumerate().step_by(step) {
            series_rows.push(vec![
                run.name.to_string(),
                (i + 1).to_string(),
                format!("{:.2}", o.latency_ms),
            ]);
        }
    }
    table.print();
    write_csv(
        "fig11_series.csv",
        &["approach".into(), "processed".into(), "latency_ms".into()],
        &series_rows,
    );
    write_csv("fig11_throughput.csv", table.headers(), table.rows());

    let get = |name: &str| {
        runs.iter()
            .find(|r| r.name == name)
            .map(|r| r.result.delivered)
    };
    if let (Some(nova), Some(sink), Some(st)) = (get("nova"), get("sink"), get("source/tree")) {
        println!(
            "nova/sink throughput: {:.1}× (paper: 13.4×); nova/source-tree: {:.1}× (paper: 4.5×)",
            nova as f64 / sink.max(1) as f64,
            nova as f64 / st.max(1) as f64
        );
    }
    if let Some(real_runs) = &real_runs {
        let rget = |name: &str| {
            real_runs
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.result.delivered_by(duration_ms))
        };
        if let (Some(nova), Some(sink)) = (rget("nova"), rget("sink")) {
            println!(
                "executor confirms: nova/sink throughput {:.1}× on real threads",
                nova as f64 / sink.max(1) as f64
            );
        }
    }
}
