//! Real-execution runs: place → deploy → *execute on threads* → measure.
//!
//! Counterpart of `nova_runtime::run_placement` for the threaded
//! executor: the same placement, latency provider and (virtual) engine
//! settings, but every tuple is physically processed by a worker
//! thread. Used by `benches/exec_throughput.rs` and the
//! `real_execution` example, and by any experiment that wants hardware
//! numbers next to model numbers.

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
/// accepted but nothing is written.
pub fn metrics_out_path(args: &[String]) -> Option<String> {
    args.iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// JSON-lines sink for the fig binaries' `--metrics-out` flag: one
/// [`nova_exec::MetricsSnapshot`] per `--real` re-run, tagged with the
/// approach label so a single file holds the whole side-by-side sweep.
/// The bench smoke binary has its own richer capture (it also streams
/// intermediate snapshots); this writer records only each run's final
/// registry state, which is what the figures' per-approach comparisons
/// need.
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
/// break their side-by-side comparability. Absent or malformed flag
/// keeps the config's own `key_space`.
pub fn with_key_space(args: &[String], sim: SimConfig) -> SimConfig {
    let key_space = args
        .iter()
        .position(|a| a == "--key-space")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(sim.key_space);
    SimConfig { key_space, ..sim }
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
/// `handle.join()`. Used by the `churn` smoke scenario and any
/// experiment that reconfigures a running placement.
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

/// The executor-throughput benchmark world: `n_pairs` keyed joins,
/// `rate` tuples/s per stream, uncapped nodes (capacity 0 ⇒ pure relay:
/// no service pacing in the hot path), sink-based placement. Shared by
/// `benches/exec_throughput.rs` and the `bench_exec_smoke` binary so
/// the CI smoke numbers measure exactly the benchmark workload.
pub fn throughput_world(n_pairs: u32, rate: f64) -> (Topology, Dataflow) {
    throughput_world_rates(&vec![rate; n_pairs as usize])
}

/// [`throughput_world`] with one join pair per entry of `rates` —
/// the skewed-workload generator: pair `k`'s two streams each emit
/// `rates[k]` tuples/s. Uniform vectors reproduce `throughput_world`;
/// [`zipf_pair_rates`] vectors concentrate the traffic on the first
/// (hot) pairs.
pub fn throughput_world_rates(rates: &[f64]) -> (Topology, Dataflow) {
    use nova_core::baselines::sink_based;
    use nova_core::StreamSpec;
    use nova_topology::NodeRole;

    let mut t = Topology::new();
    let sink = t.add_node(NodeRole::Sink, 0.0, "sink");
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (k, &rate) in rates.iter().enumerate() {
        let l = t.add_node(NodeRole::Source, 0.0, format!("l{k}"));
        let r = t.add_node(NodeRole::Source, 0.0, format!("r{k}"));
        left.push(StreamSpec::keyed(l, rate, k as u32));
        right.push(StreamSpec::keyed(r, rate, k as u32));
    }
    let query = JoinQuery::by_key(left, right, sink);
    let placement = sink_based(&query, &query.resolve());
    let dataflow = Dataflow::from_baseline(&query, &placement);
    (t, dataflow)
}

/// Zipfian per-pair stream rates: pair `k` emits
/// `top_rate / (k + 1)^exponent` tuples/s per side — the classic
/// skewed-popularity workload where the first pair dominates the
/// traffic (exponent 1.25 gives the head pair ~54 % of a 4-pair
/// aggregate).
pub fn zipf_pair_rates(n_pairs: u32, top_rate: f64, exponent: f64) -> Vec<f64> {
    (0..n_pairs)
        .map(|k| top_rate / ((k + 1) as f64).powf(exponent))
        .collect()
}

/// Flat-out executor settings for [`throughput_world`]: virtual time
/// runs far ahead of the wall clock so sources never sleep and the
/// join/channel machinery is the only bottleneck.
pub fn throughput_cfg(
    duration_ms: f64,
    window_ms: f64,
    selectivity: f64,
    shards: usize,
) -> ExecConfig {
    ExecConfig {
        duration_ms,
        window_ms,
        selectivity,
        gc_interval_ms: 5.0,
        seed: 0x51,
        max_queue_ms: f64::INFINITY,
        time_scale: 1000.0,
        batch_size: 1024,
        shards,
        key_space: 1,
        ..ExecConfig::default()
    }
}

/// The **single-hot-pair saturation** configuration: one giant tumbling
/// window spanning the whole run and a keyed workload (`key_space`
/// sub-keys). `(window, pair)` alone would land every tuple of the run
/// on one shard — the skew failure mode where PR 2's sharding showed no
/// speedup; the executor's routing also hashes the sub-key, so the
/// window's state splits across all shards. Selectivity keeps the
/// output volume of the giant window's keyed cross-product bounded.
pub fn hot_pair_cfg(duration_ms: f64, key_space: u32, shards: usize) -> ExecConfig {
    ExecConfig {
        key_space,
        // One window covering the entire horizon (+1 ms so boundary
        // tuples at t == duration stay inside it); selectivity 1 %.
        ..throughput_cfg(duration_ms, duration_ms + 1.0, 0.01, shards)
    }
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
