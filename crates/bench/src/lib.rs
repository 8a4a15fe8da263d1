//! # nova-bench — the experiment harness
//!
//! One runnable binary per figure of the paper's evaluation (run with
//! `cargo run --release -p nova-bench --bin figNN`). This library
//! carries the shared machinery: running every approach on a workload,
//! the `--real` executor re-runs and their flags, result tables and CSV
//! output. Performance is measured by the standalone `benchmark/`
//! crate, not here.
//!
//! | Binary | Paper figure | Claim it regenerates |
//! |--------|--------------|----------------------|
//! | `fig05_embeddings` | Fig. 5 | NCS embeddings of the four testbeds + MAE-vs-m study |
//! | `fig06_overload` | Fig. 6 | % overloaded nodes vs capacity heterogeneity (CV) |
//! | `fig07_quality` | Fig. 7 | 90P latency deltas vs the sink-based lower bound |
//! | `fig08_estimation_error` | Fig. 8 | estimated vs measured latencies under TIVs |
//! | `fig09_latency_drift` | Fig. 9 | placement stability over 24 h of latency drift |
//! | `fig10_scalability` | Fig. 10 | optimization + re-optimization time vs topology size |
//! | `fig11_throughput` | Fig. 11 | end-to-end processed tuples vs latency |
//! | `fig12_latency_percentiles` | Fig. 12 | end-to-end latency percentiles, normal + stressed |

#![forbid(unsafe_code)]

pub mod approaches;
pub mod endtoend;
pub mod realexec;
pub mod report;

pub use approaches::{run_all_approaches, ApproachResult, ApproachSet, BenchConfig};
pub use endtoend::{
    default_sim, end_to_end_runs, end_to_end_runs_real, E2ERun, E2ERunReal, STRESS_FACTOR,
};
pub use realexec::{
    exec_label, launch_placement_real, metrics_out_path, parse_real_exec_cfg, real_exec_cfg,
    run_placement_real, with_key_space, MetricsWriter, REAL_FLAGS_USAGE,
};
pub use report::{results_dir, write_csv, Table};
