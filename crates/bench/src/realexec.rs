//! Real-execution runs: place → deploy → *execute on threads* → measure.
//!
//! Counterpart of `nova_runtime::run_placement` for the threaded
//! executor: the same placement, latency provider and (virtual) engine
//! settings, but every tuple is physically processed by a worker
//! thread. Used by the fig binaries' `--real` mode (via
//! [`crate::end_to_end_runs_real`]), which also parses its flags here.

use nova_core::{JoinQuery, Placement};
use nova_exec::{ExecConfig, ExecResult};
use nova_runtime::{Dataflow, SimConfig};
use nova_topology::{LatencyProvider, Topology};

/// Usage text for the executor flags shared by every `--real`-capable
/// fig binary — printed by their `--help`, kept here (next to
/// [`real_exec_cfg`], the one parser) so the help can never drift from
/// what is actually parsed.
pub const REAL_FLAGS_USAGE: &str = "  \
--real                re-run every placement on the nova-exec executor
                        (side-by-side simulator/executor columns)
  --shards N            join shards per deployed instance (default 1
                        = thread per operator; N hash-partitions each
                        instance across N worker threads)
  --batch-size N        tuples per hot-path batch frame: sources
                        accumulate N tuples before handing the frame
                        to the join (default 256; 1 = tuple-at-a-time;
                        0 is rejected)
  --pin-workers         pin shard threads round-robin onto
                        cores (Linux only, silently a no-op elsewhere;
                        a performance hint — never changes counts)
  --key-space N         per-tuple join sub-key cardinality — a workload
                        property, applied to BOTH engines (default 1);
                        with --shards > 1 it also splits hot windows by
                        sub-key across shards
  --metrics-out PATH    append one JSON-lines telemetry snapshot per
                        --real re-run (tagged with the approach name;
                        the executor's final per-shard/per-source
                        registry state — ignored without --real)";

const ENGINE_FLAG_GONE: &str = "was removed with the async backend: there is one engine, and \
     --shards N alone selects its parallelism (1 = thread per operator)";

/// Flags that no longer exist, each with what replaced it (DESIGN.md
/// §5). The parser scans for the flags it knows and ignores the rest,
/// so without this list a stale `--backend async --workers 4` or
/// `--key-buckets 16` would silently benchmark something else.
const RETIRED_FLAGS: [(&str, &str); 4] = [
    ("--backend", ENGINE_FLAG_GONE),
    ("--workers", ENGINE_FLAG_GONE),
    ("--run-budget", ENGINE_FLAG_GONE),
    (
        "--key-buckets",
        "was removed: shard routing follows the workload's key space, so \
         --key-space N (with --shards > 1) is what spreads a hot window by sub-key",
    ),
];

/// Parse the figure binaries' shared `--real` / `--shards N` /
/// `--batch-size N` / `--pin-workers` / `--key-space N` flags and build
/// the executor config for the `--real` re-runs: the simulator settings
/// dilated by `time_scale`, at the requested shard count (default 1).
/// A count that does not parse (`--shards four`, `--batch-size 6x`, a
/// flag with no value) and a retired flag — `--backend`, `--workers`,
/// `--run-budget`, `--key-buckets` — are errors naming the flag:
/// silently benchmarking something other than what the user typed
/// would be worse than stopping. The sub-key cardinality is inherited
/// from the `SimConfig` (patched by [`with_key_space`] so *both*
/// engines' columns agree on the workload) — it is also what the
/// executor's shard routing spreads on, so pass `--key-space N` with
/// `--shards N` to exercise keyed sub-pair sharding. Returns `Ok(None)`
/// when `--real` is absent. [`REAL_FLAGS_USAGE`] documents exactly
/// these flags.
pub fn parse_real_exec_cfg(
    args: &[String],
    sim: &SimConfig,
    time_scale: f64,
) -> Result<Option<ExecConfig>, String> {
    if !args.iter().any(|a| a == "--real") {
        return Ok(None);
    }
    let count = |name: &str, default: usize| -> Result<usize, String> {
        let Some(i) = args.iter().position(|a| a == name) else {
            return Ok(default);
        };
        let value = args.get(i + 1).map(String::as_str).unwrap_or("");
        value
            .parse::<usize>()
            .map_err(|_| format!("{name} needs a non-negative integer, got {value:?}"))
    };
    if let Some((flag, why)) = RETIRED_FLAGS
        .iter()
        .find(|(f, _)| args.iter().any(|a| a == f))
    {
        return Err(format!("{flag} {why}"));
    }
    let mut cfg = ExecConfig {
        shards: count("--shards", 1)?,
        pin_workers: args.iter().any(|a| a == "--pin-workers"),
        ..ExecConfig::from_sim(sim, time_scale)
    };
    cfg.batch_size = count("--batch-size", cfg.batch_size)?;
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(Some(cfg))
}

/// [`parse_real_exec_cfg`] for the fig binaries' `main`s: prints the
/// error and exits with status 2 instead of returning it.
pub fn real_exec_cfg(args: &[String], sim: &SimConfig, time_scale: f64) -> Option<ExecConfig> {
    parse_real_exec_cfg(args, sim, time_scale).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Value of the figure binaries' `--metrics-out PATH` flag, if
/// present. Only meaningful together with `--real`: the simulator
/// columns have no telemetry plane, so without `--real` the flag is
/// accepted but nothing is written. A flag with no path after it (at
/// the end of the line, or followed by another `--flag`) is an error
/// naming the flag, like a malformed count in [`parse_real_exec_cfg`].
pub fn metrics_out_path(args: &[String]) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == "--metrics-out") else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(path) if !path.starts_with("--") => Ok(Some(path.clone())),
        other => Err(format!(
            "--metrics-out needs a path, got {:?}",
            other.map(String::as_str).unwrap_or("")
        )),
    }
}

/// JSON-lines sink for the fig binaries' `--metrics-out` flag: one
/// [`nova_exec::MetricsSnapshot`] per `--real` re-run, tagged with the
/// approach label so a single file holds the whole side-by-side sweep.
/// It records each run's final registry state, which is what the
/// figures' per-approach comparisons need.
pub struct MetricsWriter {
    file: std::fs::File,
}

impl MetricsWriter {
    /// Create (truncate) the output file, exiting with status 2 on I/O
    /// errors — same contract as the flag parser: a misspelt path
    /// should stop the run, not silently drop the artifact.
    pub fn create(path: &str) -> MetricsWriter {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("--metrics-out: cannot create {path}: {e}");
            std::process::exit(2)
        });
        MetricsWriter { file }
    }

    /// Append one snapshot, spliced with an `"approach"` tag: the
    /// snapshot's own serialization starts with `{`, so the tag is
    /// injected by replacing that brace.
    pub fn record(&mut self, approach: &str, snap: &nova_exec::MetricsSnapshot) {
        use std::io::Write;
        let line = snap.to_json_line();
        let _ = writeln!(self.file, "{{\"approach\": \"{approach}\", {}", &line[1..]);
    }
}

/// Apply the figure binaries' `--key-space N` flag to a simulator
/// config. The sub-key cardinality is a *workload* property, so it must
/// patch the `SimConfig` both the simulator columns and the `--real`
/// executor re-runs ([`real_exec_cfg`] via `ExecConfig::from_sim`) are
/// derived from — overriding only the executor side would silently
/// break their side-by-side comparability. An absent flag keeps the
/// config's own `key_space`; a value that is not a positive integer
/// (`--key-space four`, a flag with no value) is an error naming the
/// flag — and so is `0`, which the simulator would run unkeyed while
/// `ExecConfig::validate` rejects it for the `--real` column.
pub fn with_key_space(args: &[String], sim: SimConfig) -> Result<SimConfig, String> {
    let Some(i) = args.iter().position(|a| a == "--key-space") else {
        return Ok(sim);
    };
    let value = args.get(i + 1).map(String::as_str).unwrap_or("");
    match value.parse::<u32>() {
        Ok(key_space) if key_space > 0 => Ok(SimConfig { key_space, ..sim }),
        _ => Err(format!(
            "--key-space needs a positive integer, got {value:?}"
        )),
    }
}

/// Human-readable description of the layout a config selects, for the
/// fig binaries' headers — `1 shard(s) per instance` is the classic
/// thread-per-operator layout.
pub fn exec_label(cfg: &ExecConfig) -> String {
    format!("{} shard(s) per instance", cfg.shards)
}

/// Deploy `placement` for `query` and execute it with `cfg.shards`
/// join workers per instance. Panics on a config
/// [`ExecConfig::validate`] rejects — callers build it from
/// [`parse_real_exec_cfg`] (already validated) or from constants.
///
/// `sigma` must be the σ the placement was computed with (1.0 for the
/// unpartitioned baselines), exactly as for the simulator path.
pub fn run_placement_real(
    topology: &Topology,
    provider: &impl LatencyProvider,
    query: &JoinQuery,
    placement: &Placement,
    sigma: f64,
    cfg: &ExecConfig,
) -> ExecResult {
    launch_placement_real(topology, provider, query, placement, sigma, cfg)
        .expect("valid exec config")
        .join()
}

/// Deploy `placement` for `query` and *launch* it reconfigurable —
/// the live counterpart of [`run_placement_real`]: the returned
/// [`nova_exec::ExecHandle`] absorbs `PlanSwitch`es mid-stream
/// (`handle.apply(..)`) and yields the final counts on
/// `handle.join()`. Used by [`crate::end_to_end_runs_real`] to subscribe
/// to the run's telemetry, and by any experiment that reconfigures a
/// running placement.
pub fn launch_placement_real(
    topology: &Topology,
    provider: &impl LatencyProvider,
    query: &JoinQuery,
    placement: &Placement,
    sigma: f64,
    cfg: &ExecConfig,
) -> Result<nova_exec::ExecHandle, nova_exec::ExecConfigError> {
    let df = Dataflow::build(query, placement, |_| sigma);
    nova_exec::launch(topology, |a, b| provider.rtt(a, b), &df, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_core::baselines::sink_based;
    use nova_core::StreamSpec;
    use nova_topology::{DenseRtt, NodeRole};

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parser_rejects_the_retired_engine_flags() {
        let sim = SimConfig::default();
        // Without --real: no config, flags irrelevant.
        assert!(matches!(
            parse_real_exec_cfg(&args(&["--workers", "4"]), &sim, 8.0),
            Ok(None)
        ));
        // --shards is the one parallelism flag.
        let cfg = parse_real_exec_cfg(&args(&["--real", "--shards", "4"]), &sim, 8.0)
            .expect("valid")
            .expect("--real present");
        assert_eq!(cfg.shards, 4);

        // Regression: the parser ignores flags it does not know, so a
        // stale `--backend async --workers 4` would silently run the
        // thread engine. Each retired flag is an explicit error naming
        // the flag and its replacement.
        for flag in [
            &["--backend", "async"][..],
            &["--backend", "sharded"][..],
            &["--workers", "4"][..],
            &["--run-budget", "64"][..],
        ] {
            let mut a = args(&["--real", "--shards", "4"]);
            a.extend(args(flag));
            let err = parse_real_exec_cfg(&a, &sim, 8.0).unwrap_err();
            assert!(err.contains(flag[0]), "error must name the flag: {err}");
            assert!(err.contains("--shards"), "error must name the fix: {err}");
        }

        // The bucket-count knob went the same way; its error points at
        // the flag that spreads a hot window now.
        let err = parse_real_exec_cfg(
            &args(&["--real", "--shards", "4", "--key-buckets", "16"]),
            &sim,
            8.0,
        )
        .unwrap_err();
        assert!(err.contains("--key-buckets"), "{err}");
        assert!(err.contains("--key-space"), "{err}");

        // Zero-knob values flow into ExecConfig::validate.
        let err = parse_real_exec_cfg(&args(&["--real", "--shards", "0"]), &sim, 8.0).unwrap_err();
        assert!(err.contains("shards"), "{err}");
    }

    #[test]
    fn parser_rejects_counts_that_do_not_parse() {
        // Regression: a malformed count used to fall back to the
        // default, so `--shards four` benchmarked one shard.
        let sim = SimConfig::default();
        for (flag, value) in [
            ("--shards", "four"),
            ("--shards", "-1"),
            ("--batch-size", "6x"),
            ("--batch-size", "--pin-workers"),
        ] {
            let err = parse_real_exec_cfg(&args(&["--real", flag, value]), &sim, 8.0).unwrap_err();
            assert!(err.contains(flag), "error must name the flag: {err}");
            assert!(err.contains(value), "error must name the value: {err}");
        }
        // A count flag with nothing after it is the same mistake.
        let err = parse_real_exec_cfg(&args(&["--real", "--shards"]), &sim, 8.0).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
    }

    #[test]
    fn key_space_and_metrics_out_reject_bad_values() {
        // Regression: `--key-space four` kept the default, `--key-space
        // 0` ran the simulator columns unkeyed, and a trailing
        // `--metrics-out` wrote nothing — all without a word.
        let sim = SimConfig::default();
        let keyed = with_key_space(&args(&["--key-space", "64"]), sim).expect("valid");
        assert_eq!(keyed.key_space, 64);
        let unset = with_key_space(&args(&["--real"]), sim).expect("absent flag");
        assert_eq!(unset.key_space, sim.key_space);
        for value in ["four", "0", "-1", "--real"] {
            let err = with_key_space(&args(&["--key-space", value]), sim).unwrap_err();
            assert!(
                err.contains("--key-space"),
                "error must name the flag: {err}"
            );
            assert!(err.contains(value), "error must name the value: {err}");
        }
        let err = with_key_space(&args(&["--key-space"]), sim).unwrap_err();
        assert!(err.contains("--key-space"), "{err}");

        assert_eq!(
            metrics_out_path(&args(&["--real", "--metrics-out", "m.jsonl"])),
            Ok(Some("m.jsonl".to_string()))
        );
        assert_eq!(metrics_out_path(&args(&["--real"])), Ok(None));
        let err = metrics_out_path(&args(&["--real", "--metrics-out"])).unwrap_err();
        assert!(err.contains("--metrics-out"), "{err}");
        let err = metrics_out_path(&args(&["--metrics-out", "--real"])).unwrap_err();
        assert!(err.contains("--metrics-out"), "{err}");
        assert!(err.contains("--real"), "error must name the value: {err}");
    }

    #[test]
    fn parser_applies_batching_and_pinning_flags() {
        let sim = SimConfig::default();
        // Defaults: inherited batch size, pinning off.
        let cfg = parse_real_exec_cfg(&args(&["--real"]), &sim, 8.0)
            .expect("valid")
            .expect("--real present");
        assert_eq!(cfg.batch_size, ExecConfig::default().batch_size);
        assert!(!cfg.pin_workers);

        // Batching is the hot-path framing, pinning a per-thread hint.
        let cfg = parse_real_exec_cfg(
            &args(&["--real", "--batch-size", "7", "--pin-workers"]),
            &sim,
            8.0,
        )
        .expect("valid")
        .expect("--real present");
        assert_eq!(cfg.batch_size, 7);
        assert!(cfg.pin_workers);

        // batch_size = 0 flows into ExecConfig::validate and is an
        // error, not a silent fallback to the default.
        let err =
            parse_real_exec_cfg(&args(&["--real", "--batch-size", "0"]), &sim, 8.0).unwrap_err();
        assert!(err.contains("batch"), "{err}");
    }

    #[test]
    fn run_placement_real_executes_end_to_end() {
        let mut t = Topology::new();
        let sink = t.add_node(NodeRole::Sink, 500.0, "sink");
        let l = t.add_node(NodeRole::Source, 500.0, "l");
        let r = t.add_node(NodeRole::Source, 500.0, "r");
        let rtt = DenseRtt::from_fn(3, |_, _| 5.0);
        let q = JoinQuery::by_key(
            vec![StreamSpec::keyed(l, 10.0, 1)],
            vec![StreamSpec::keyed(r, 10.0, 1)],
            sink,
        );
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let cfg = ExecConfig {
            duration_ms: 3000.0,
            window_ms: 200.0,
            time_scale: 8.0,
            // Unbounded queues make the run structurally drop-free, so
            // the exact-count assertions below hold under any OS
            // schedule (count identity is only guaranteed without
            // shedding; a stalled thread on a loaded 1-core host could
            // otherwise trip the queue bound and shed a tuple).
            max_queue_ms: f64::INFINITY,
            ..ExecConfig::default()
        };
        let res = run_placement_real(&t, &rtt, &q, &p, 1.0, &cfg);
        assert!(res.delivered > 0);
        assert_eq!(res.dropped, 0);
        assert_eq!(res.threads, 4);

        // The shards knob fans the instance out and keeps counts.
        let sharded_cfg = ExecConfig { shards: 2, ..cfg };
        let sharded = run_placement_real(&t, &rtt, &q, &p, 1.0, &sharded_cfg);
        assert_eq!(sharded.threads, 5, "2 sources + 2 shards + sink");
        assert_eq!(sharded.matched, res.matched);
        assert_eq!(sharded.delivered, res.delivered);
    }
}
