//! The catalogue: every workload and metric by name, unit, direction and
//! bound. `BENCHMARK.json` at the repo root is this file rendered
//! (`nova-benchmark manifest`), and a test keeps the two identical.

use crate::json::Json;
use crate::scenario::NOMINAL_SECONDS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn arrow(self) -> &'static str {
        match self {
            Better::Lower => "↓",
            Better::Higher => "↑",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `compare` says "worse". Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports all of them.
/// A bound is the issue's where three times the widest ten-seed spread
/// measured fits under it, and the next multiple of 5 % that does
/// otherwise (README, "How the bounds were set").
pub const END_TO_END: [MetricDef; 14] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("plan_s", "s", Lower, 0.20),
    e2e("reopt_ms_p50", "ms", Lower, 0.25),
    e2e("reopt_ms_p95", "ms", Lower, 0.25),
    e2e("place_latency_p90_ms", "ms", Lower, 0.01),
    e2e("place_peak_util_pct", "%", Lower, 0.01),
    e2e("exec_tuples_per_s", "1/s", Higher, 0.25),
    e2e("exec_cpu_ns_per_tuple", "ns", Lower, 0.25),
    e2e("sim_tuples_per_s", "1/s", Higher, 0.25),
    e2e("sim_latency_p50_ms", "ms", Lower, 0.05),
    e2e("sim_latency_p99_ms", "ms", Lower, 0.05),
    e2e("exec_latency_p50_ms", "ms", Lower, 0.05),
    e2e("exec_latency_p99_ms", "ms", Lower, 0.15),
];

/// Single layers, from the traced pass. No bounds: they explain a
/// movement of an end-to-end metric, they do not gate.
pub const PER_LAYER: [MetricDef; 58] = [
    layer("topology.generate_s", "s", Lower),
    layer("workloads.build_s", "s", Lower),
    layer("netcoord.embed_s", "s", Lower),
    layer("netcoord.embed_ns_per_sample", "ns", Lower),
    layer("netcoord.embed_rel_err_p50", "ratio", Lower),
    layer("geom.median_ns_per_pair", "ns", Lower),
    layer("geom.knn_ns_per_query", "ns", Lower),
    layer("geom.nearest_capable_ns_per_query", "ns", Lower),
    layer("core.resolve_s", "s", Lower),
    layer("core.optima_s", "s", Lower),
    layer("core.index_build_s", "s", Lower),
    layer("core.phase3_s", "s", Lower),
    layer("core.phase3_us_per_pair", "us", Lower),
    layer("core.evaluate_s", "s", Lower),
    layer("core.replicas_per_pair", "count", Lower),
    layer("core.pairs_unplaced", "count", Lower),
    layer("core.place_overload_pct", "%", Lower),
    layer("core.reopt_add_source_ms_p50", "ms", Lower),
    layer("core.reopt_remove_node_ms_p50", "ms", Lower),
    layer("core.reopt_change_rate_ms_p50", "ms", Lower),
    layer("core.reopt_change_capacity_ms_p50", "ms", Lower),
    layer("core.reopt_update_coords_ms_p50", "ms", Lower),
    layer("core.reopt_pairs_replaced_mean", "count", Lower),
    layer("runtime.window.probe_ns_per_tuple", "ns", Lower),
    layer("runtime.window.partners_per_probe", "count", Lower),
    layer("runtime.match_survives_ns", "ns", Lower),
    layer("runtime.window.insert_gc_ns_per_tuple", "ns", Lower),
    layer("runtime.window.peak_arena_chunks", "count", Lower),
    layer("runtime.window.export_import_ns_per_tuple", "ns", Lower),
    layer("runtime.dataflow_build_s", "s", Lower),
    layer("runtime.sim_ns_per_tuple", "ns", Lower),
    layer("exec.source.stamp_route_ns_per_tuple", "ns", Lower),
    layer("exec.channel.frame_roundtrip_ns", "ns", Lower),
    layer("exec.channel.ns_per_tuple", "ns", Lower),
    layer("exec.pacer.serve_ns", "ns", Lower),
    layer("exec.paced.cpu_ns_per_tuple", "ns", Lower),
    layer("exec.paced.wall_overrun_pct", "%", Lower),
    layer("exec.join.service_ms_p50", "ms", Lower),
    layer("exec.join.service_ms_p99", "ms", Lower),
    layer("exec.join.queue_tuples_max", "count", Lower),
    layer("exec.sink.queue_tuples_max", "count", Lower),
    layer("exec.shard.tuples_in_skew", "ratio", Lower),
    layer("exec.join.matches_per_tuple", "count", Lower),
    layer("exec.threads", "count", Lower),
    layer("exec.telemetry_overhead_pct", "%", Lower),
    layer("exec.metrics.snapshot_us", "us", Lower),
    layer("exec.metrics.json_line_us", "us", Lower),
    layer("exec.control.handoff_ms_p50", "ms", Lower),
    layer("exec.control.pause_ms_p50", "ms", Lower),
    layer("exec.control.migrated_tuples", "count", Lower),
    layer("exec.control.post_switch_latency_p50_ms", "ms", Lower),
    layer("pipeline.sim_exec_matched_gap_pct", "%", Lower),
    layer("pipeline.sim_exec_latency_gap_pct", "%", Lower),
    layer("exec.attributed_ns_per_tuple", "ns", Lower),
    layer("exec.unattributed_ns_per_tuple", "ns", Lower),
    layer("exec.flat_cpu_ns_per_tuple", "ns", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.trace_spans", "count", Higher),
];

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "plan-opp-50k",
        why: "planner at scale: embedding, medians and phase III on 50 000 nodes and 15 000 pairs set plan_s and reopt_*; the engines run only a 4-pair slice of the plan, so exec_* and sim_* are small-job cells",
    },
    WorkloadDef {
        name: "exec-probe",
        why: "one keyed pair with 2 s windows: about 1250 partners scanned per probe, so window reads and the selectivity test are the cost while channels idle; closed loop",
    },
    WorkloadDef {
        name: "exec-transport",
        why: "four pairs with 0.01 ms windows on two shards: about one partner per probe, so stamping, routing, framing, channel hand-off and window create/collect are the cost; a probe change shows nothing here",
    },
    WorkloadDef {
        name: "pipeline-envmon",
        why: "the paper's 14-node environmental scenario through every layer: MDS, sigma-partitioned plan, simulator, and the executor as an open loop with pacers in the hot path",
    },
];

/// Names of metrics and workloads: a letter or digit first, then
/// letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let metric = |m: &MetricDef| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(NOMINAL_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn name_rule_accepts_the_catalogue_and_rejects_the_rest() {
        for ok in [
            "setup_s",
            "exec.join.service_ms_p99",
            "plan-opp-50k",
            "9lives",
            "a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            "-lead",
            ".lead",
            "_lead",
            "has space",
            "slash/y",
            "é",
            &too_long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn catalogue_names_are_valid_and_unique_and_within_contract_limits() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(
            WORKLOADS.map(|w| w.name),
            crate::scenario::WORKLOAD_NAMES,
            "catalogue and scenario builders name the same workloads"
        );
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&NOMINAL_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_rendered_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let parsed = Json::parse(&on_disk).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed,
            manifest(),
            "regenerate with `nova-benchmark manifest > ../BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
