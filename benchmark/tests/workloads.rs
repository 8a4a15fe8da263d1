//! Whole workloads through the binary, the way the driver runs them.
//!
//! `--quick` does one repetition of every stage, so these tests check
//! what must hold on any host at any speed: every check passes on every
//! seed, every catalogued metric is reported and non-zero, and the
//! traced pass measures every part of the whole.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "plan-opp-50k",
    "exec-probe",
    "exec-transport",
    "pipeline-envmon",
];

struct Run {
    code: i32,
    stdout: String,
}

fn run(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_nova-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    }
}

/// The `"name":{"value":…}` entries of the result line, as (name, value).
fn result_metrics(stdout: &str) -> Vec<(String, f64)> {
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "unexpected result line: {line}"
    );
    let metrics = &line[line.find("\"metrics\":{").expect("metrics") + 11..];
    metrics
        .split("},")
        .filter_map(|entry| {
            let name = entry.trim_start_matches('"').split('"').next()?;
            let value = entry.split("\"value\":").nth(1)?.split(',').next()?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn manifest_names(section: &str) -> Vec<String> {
    let text = run(&["manifest"]).stdout;
    let start = text.find(&format!("\"{section}\"")).expect("section");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap().to_string())
        .collect()
}

#[test]
fn every_check_passes_on_five_seeds_of_every_workload() {
    let wanted = manifest_names("end_to_end");
    assert_eq!(wanted.len(), 14);
    for workload in WORKLOADS {
        for seed in ["1", "2", "3", "4", "5"] {
            let r = run(&[
                "--workload",
                workload,
                "--seed",
                seed,
                "--seconds",
                "15",
                "--trace",
                "0",
                "--quick",
            ]);
            assert_eq!(r.code, 0, "{workload} seed {seed}:\n{}", r.stdout);
            assert!(
                !r.stdout.contains("[FAIL]"),
                "{workload} seed {seed}:\n{}",
                r.stdout
            );
            let metrics = result_metrics(&r.stdout);
            let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, wanted, "{workload} seed {seed}");
            for (name, value) in &metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{workload} seed {seed}: {name} = {value}"
                );
            }
        }
    }
}

#[test]
fn traced_pass_reports_every_layer_and_measures_every_part_of_the_whole() {
    let wanted = manifest_names("per_layer");
    let r = run(&[
        "--workload",
        "pipeline-envmon",
        "--seed",
        "7",
        "--seconds",
        "15",
        "--trace",
        "1",
        "--quick",
    ]);
    assert_eq!(r.code, 0, "{}", r.stdout);
    let metrics = result_metrics(&r.stdout);
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, wanted);
    let get = |name: &str| metrics.iter().find(|(n, _)| n == name).unwrap().1;
    // `unattributed` is defined as whole − attributed, so their sum says
    // nothing; what can fail is a part that measured no work, which
    // would silently move its cost into `unattributed`.
    for part in [
        "exec.source.stamp_route_ns_per_tuple",
        "exec.channel.ns_per_tuple",
        "runtime.window.probe_ns_per_tuple",
        "exec.attributed_ns_per_tuple",
        "exec.flat_cpu_ns_per_tuple",
    ] {
        assert!(get(part) > 0.0, "{part} = {}", get(part));
    }
    let parts = get("exec.source.stamp_route_ns_per_tuple")
        + get("exec.channel.ns_per_tuple")
        + get("runtime.window.probe_ns_per_tuple");
    assert!(
        get("exec.attributed_ns_per_tuple") >= parts * (1.0 - 1e-9),
        "every tuple pays each part at least once"
    );
    assert!(r.stdout.contains("bench.trace_overhead_pct"));
    assert!(get("bench.trace_spans") > 0.0);
}

#[test]
fn an_unknown_workload_fails_without_a_result_line() {
    let r = run(&[
        "--workload",
        "no-such-workload",
        "--seed",
        "1",
        "--trace",
        "0",
    ]);
    assert_ne!(r.code, 0);
    assert!(!r.stdout.contains("\"correct\""));
}
