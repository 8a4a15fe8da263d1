//! Figure 12: end-to-end latency percentiles (mean, 90P–99.99P) for the
//! DEBS workload, under normal and stressed conditions.
//!
//! The stressed configuration saturates the source nodes' CPUs (the
//! paper uses `stress`; the simulator scales source capacity to 30 %).
//! Expected shape (§4.7): Nova's mean stays in the low tens of ms with a
//! tightly bounded 99.99P; sink-based is ~14× slower on the mean;
//! cluster/top-c ~10×; source/tree ~4.6× — and under stress the
//! baselines' tails explode (paper: 39× at the 99.99P for cluster/top-c)
//! while Nova degrades only mildly.
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
    with_key_space, write_csv, MetricsWriter, Table, REAL_FLAGS_USAGE, STRESS_FACTOR,
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
            "fig12_latency_percentiles: latency percentiles (normal + stressed), \
             DEBS workload\n\nOptions:\n  --full                the paper's 120 s \
             horizon (default 30 s)\n{REAL_FLAGS_USAGE}"
        );
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    let duration_ms = if full { 120_000.0 } else { 30_000.0 };
    let seed = 12;

    let scenario = environmental_scenario(&EnvironmentalParams::default());
    let sim = or_exit(with_key_space(&args, default_sim(duration_ms, seed)));
    let real_cfg = real_exec_cfg(&args, &sim, 20.0);
    let real = real_cfg.is_some();
    let mut metrics = or_exit(metrics_out_path(&args))
        .filter(|_| real)
        .map(|p| MetricsWriter::create(&p));

    for (label, stress) in [("non-stressed", 1.0), ("stressed", STRESS_FACTOR)] {
        println!(
            "== Fig. 12: end-to-end latency percentiles ({label}, {}s run{}) ==\n",
            duration_ms / 1000.0,
            real_cfg
                .as_ref()
                .map(|cfg| format!(", + executor: {}", nova_bench::exec_label(cfg)))
                .unwrap_or_default()
        );
        let runs = end_to_end_runs(&scenario, &sim, stress);
        let real_runs = real_cfg
            .as_ref()
            .map(|cfg| end_to_end_runs_real(&scenario, cfg, stress, metrics.as_mut()));
        let mut headers = vec![
            "approach",
            "delivered",
            "mean",
            "90P",
            "99P",
            "99.9P",
            "99.99P",
        ];
        if real {
            headers.extend(["delivered real", "mean real", "99P real"]);
        }
        let mut table = Table::new(&headers);
        for (i, run) in runs.iter().enumerate() {
            let r = &run.result;
            let mut row = vec![
                run.name.to_string(),
                r.delivered.to_string(),
                format!("{:.1}", r.mean_latency()),
                format!("{:.1}", r.latency_percentile(0.90)),
                format!("{:.1}", r.latency_percentile(0.99)),
                format!("{:.1}", r.latency_percentile(0.999)),
                format!("{:.1}", r.latency_percentile(0.9999)),
            ];
            if let Some(real_runs) = &real_runs {
                let e = &real_runs[i].result;
                assert_eq!(real_runs[i].name, run.name, "approach order must match");
                row.extend([
                    e.delivered_by(duration_ms).to_string(),
                    format!("{:.1}", e.mean_latency()),
                    format!("{:.1}", e.latency_percentile(0.99)),
                ]);
            }
            table.row(row);
        }
        table.print();
        write_csv(&format!("fig12_{label}.csv"), table.headers(), table.rows());

        let find = |name: &str| runs.iter().find(|r| r.name == name);
        if let (Some(nova), Some(sink), Some(st)) =
            (find("nova"), find("sink"), find("source/tree"))
        {
            println!(
                "mean-latency factors vs nova — sink: {:.1}×, source/tree: {:.1}× \
                 (paper, non-stressed: 14.4× and 4.6×)\n",
                sink.result.mean_latency() / nova.result.mean_latency().max(1e-9),
                st.result.mean_latency() / nova.result.mean_latency().max(1e-9),
            );
        }
    }
}
