//! The repo's benchmark. See `README.md` next to `Cargo.toml`.
//!
//! ```text
//! nova-benchmark --workload W --seed N --seconds S --trace 0|1   one workload (what the driver runs)
//! nova-benchmark run [--seed N] [--seconds S] [--quick]          all four, then the traced pass
//! nova-benchmark compare A.json B.json                           verdict per (workload, metric)
//! nova-benchmark selfcheck [--under-load]                        two runs agree / checks survive load
//! nova-benchmark manifest                                       BENCHMARK.json, rendered
//! ```

mod compare;
mod defs;
mod json;
mod layers;
mod pipeline;
mod report;
mod run;
mod scenario;
mod stats;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};

use json::Json;
use run::RunOpts;

/// Where `run` and `selfcheck` leave their files: `out/` next to the
/// manifest this binary was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} takes a whole number, got {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    sys::pin_malloc_mmap_threshold();
    let outcome = if args.flag("--workload") {
        single(&args)
    } else {
        match args.0.first().map(String::as_str) {
            None | Some("run") => run_all(&args, &out_dir().join("result.json"), true),
            Some("compare") => compare_files(&args),
            Some("selfcheck") => selfcheck(&args),
            Some("manifest") => {
                print!("{}", defs::manifest().pretty());
                Ok(true)
            }
            Some(other) => Err(format!(
                "unknown command {other:?}; expected run, compare, selfcheck or manifest"
            )),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nova-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process: table, optional detail files, and the
/// driver's result line last. False when a check failed.
fn single(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("--workload takes a name")?;
    let opts = RunOpts {
        seed: args.number("--seed", 1)?,
        seconds: args.number("--seconds", scenario::NOMINAL_SECONDS)?.max(1),
        quick: args.flag("--quick"),
        traced: args.number("--trace", 0)? != 0,
        instance: scenario::INSTANCE_SEED,
    };
    let report = run::run_workload(name, opts)?;
    report::print_table(&report);
    let write = |path: &str, j: &Json| {
        std::fs::write(path, j.pretty()).map_err(|e| format!("cannot write {path}: {e}"))
    };
    if let Some(path) = args.value("--detail") {
        write(path, &report::detail(&report))?;
    }
    if let (Some(path), Some(trace)) = (args.value("--trace-out"), &report.trace) {
        write(path, trace)?;
    }
    println!("{}", report::result_line(&report));
    Ok(report.ledger.correct())
}

/// Run one workload in a child process of its own — peak memory, CPU
/// clocks and allocator state do not leak between workloads — and read
/// back its detail record (and trace).
fn child(name: &str, opts: RunOpts, dir: &Path) -> Result<(Json, Option<Json>), String> {
    let detail = dir.join(format!(".{name}.detail.json"));
    let trace = dir.join(format!(".{name}.trace.json"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .arg("--trace-out")
        .arg(&trace);
    if opts.quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p)
            .map_err(|e| format!("{name} left no {} ({status}): {e}", p.display()))?;
        let _ = std::fs::remove_file(p);
        Json::parse(&text)
    };
    let detail = read(&detail)?;
    let trace = if opts.traced {
        Some(read(&trace)?)
    } else {
        None
    };
    Ok((detail, trace))
}

/// All four workloads untraced into `result_path`, then (unless
/// `with_trace` is off) the traced pass into `trace.json` beside it.
/// False when any workload was incorrect.
fn run_all(args: &Args, result_path: &Path, with_trace: bool) -> Result<bool, String> {
    let opts = RunOpts {
        seed: args.number("--seed", 1)?,
        seconds: args.number("--seconds", scenario::NOMINAL_SECONDS)?.max(1),
        quick: args.flag("--quick"),
        traced: false,
        instance: scenario::INSTANCE_SEED,
    };
    let dir = result_path.parent().expect("result path has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let correct = |d: &Json| d.get("correct").and_then(Json::as_bool) == Some(true);
    let header = |workloads: Vec<Json>| {
        Json::obj([
            ("comparable", Json::Bool(!opts.quick)),
            ("seed", Json::Num(opts.seed as f64)),
            ("seconds", Json::Num(opts.seconds as f64)),
            ("host_cores", Json::Num(sys::cores() as f64)),
            ("workloads", Json::Arr(workloads)),
        ])
    };
    let mut ok = true;
    let mut details = Vec::new();
    for w in &defs::WORKLOADS {
        let (detail, _) = child(w.name, opts, dir)?;
        ok &= correct(&detail);
        details.push(detail);
    }
    std::fs::write(result_path, header(details).pretty()).map_err(|e| e.to_string())?;
    println!("wrote {}", result_path.display());
    if with_trace {
        let mut traces = Vec::new();
        for w in &defs::WORKLOADS {
            let traced = RunOpts {
                traced: true,
                ..opts
            };
            let (detail, trace) = child(w.name, traced, dir)?;
            ok &= correct(&detail);
            traces.push(Json::obj([
                ("per_layer", detail),
                ("trace", trace.unwrap_or(Json::Null)),
            ]));
        }
        let path = dir.join("trace.json");
        std::fs::write(&path, header(traces).pretty()).map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }
    Ok(ok)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.0.as_slice() else {
        return Err("usage: compare A.json B.json".into());
    };
    println!("comparing {b} against base {a}");
    let (a, b) = (read_result(Path::new(a))?, read_result(Path::new(b))?);
    Ok(compare::compare(&a, &b).passed())
}

fn read_result(path: &Path) -> Result<Vec<report::StoredWorkload>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|t| report::stored_result(&t).map_err(|e| format!("{}: {e}", path.display())))
}

/// `selfcheck`: two full back-to-back runs must agree within the
/// benchmark's own bounds. `selfcheck --under-load`: with every core
/// kept busy beside it, a quick run must still be correct on every
/// workload — no check may depend on how fast the host is.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let dir = out_dir();
    if args.flag("--under-load") {
        let stop = AtomicBool::new(false);
        let quick = Args(
            args.0
                .iter()
                .cloned()
                .chain(["--quick".to_string()])
                .collect(),
        );
        return std::thread::scope(|s| {
            for _ in 0..sys::cores() {
                s.spawn(|| {
                    let mut x = 0u64;
                    // ORDERING: a stop flag that publishes nothing else.
                    while !stop.load(Ordering::Relaxed) {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(1),
                        );
                    }
                });
            }
            println!(
                "selfcheck: {} busy threads beside a quick run",
                sys::cores()
            );
            let ok = run_all(&quick, &dir.join("under-load.json"), false);
            stop.store(true, Ordering::Relaxed);
            if let Ok(ok) = ok {
                println!(
                    "selfcheck --under-load: {}",
                    if ok { "PASS" } else { "FAIL" }
                );
            }
            ok
        });
    }
    let (a, b) = (dir.join("selfcheck-a.json"), dir.join("selfcheck-b.json"));
    let correct = run_all(args, &a, false)? & run_all(args, &b, false)?;
    let tally = compare::compare(&read_result(&a)?, &read_result(&b)?);
    let ok = correct && tally.passed();
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}
