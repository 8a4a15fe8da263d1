//! What a run prints and writes: every metric by name with unit and
//! direction, every check with its verdict, the driver's result line,
//! and the detail record `compare` reads back.

use crate::defs::{self, Better};
use crate::json::Json;
use crate::pipeline::Check;
use crate::run::Report;
use crate::stats::Summary;
use crate::sys;

/// One metric of a stored result.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredMetric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
    pub summary: Summary,
}

/// One workload of a stored result.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredWorkload {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<StoredMetric>,
}

/// Human-readable table of a finished workload.
pub fn print_table(r: &Report) {
    println!(
        "== {}  seed {}  seconds {}  {}{}  ({:.1} s wall, {} cores)",
        r.workload,
        r.opts.seed,
        r.opts.seconds,
        if r.opts.traced {
            "traced pass"
        } else {
            "untraced"
        },
        if r.opts.quick {
            "  QUICK — not comparable"
        } else {
            ""
        },
        r.wall_s,
        sys::cores(),
    );
    for (def, s) in &r.metrics {
        let bound = def
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        println!(
            "  {:<44} {:>14} {:<5} {}  q1 {}  q3 {}  n {}{bound}",
            def.name,
            fmt(s.median),
            def.unit,
            def.better.arrow(),
            fmt(s.q1),
            fmt(s.q3),
            s.samples.len(),
        );
    }
    for c in &r.ledger.checks {
        print_check(c);
    }
    println!(
        "  ops attempted {}  failed {}  correct {}",
        r.ledger.attempted,
        r.ledger.failed,
        r.ledger.correct()
    );
}

fn print_check(c: &Check) {
    println!(
        "  [{}] {}{}",
        if c.ok { " ok " } else { "FAIL" },
        c.name,
        if c.detail.is_empty() {
            String::new()
        } else {
            format!(" — {}", c.detail)
        }
    );
}

/// Six significant digits for people; files keep every digit.
fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.5e}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric the median of its samples as measured.
pub fn result_line(r: &Report) -> String {
    Json::obj([
        ("correct", Json::Bool(r.ledger.correct())),
        ("attempted", Json::Num(r.ledger.attempted.max(1) as f64)),
        ("failed", Json::Num(r.ledger.failed as f64)),
        (
            "metrics",
            Json::obj(r.metrics.iter().map(|(def, s)| {
                (
                    def.name,
                    Json::obj([
                        ("value", Json::Num(s.median)),
                        ("unit", Json::str(def.unit)),
                    ]),
                )
            })),
        ),
    ])
    .render()
}

/// Everything about one workload's run, for `result.json`.
pub fn detail(r: &Report) -> Json {
    Json::obj([
        ("workload", Json::str(&r.workload)),
        ("seed", Json::Num(r.opts.seed as f64)),
        ("seconds", Json::Num(r.opts.seconds as f64)),
        ("traced", Json::Bool(r.opts.traced)),
        ("comparable", Json::Bool(!r.opts.quick)),
        ("host_cores", Json::Num(sys::cores() as f64)),
        ("wall_s", Json::Num(r.wall_s)),
        ("correct", Json::Bool(r.ledger.correct())),
        ("attempted", Json::Num(r.ledger.attempted as f64)),
        ("failed", Json::Num(r.ledger.failed as f64)),
        (
            "checks",
            Json::Arr(
                r.ledger
                    .checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(&c.name)),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Arr(
                r.metrics
                    .iter()
                    .map(|(def, s)| {
                        Json::obj([
                            ("name", Json::str(def.name)),
                            ("unit", Json::str(def.unit)),
                            ("better", Json::str(def.better.as_str())),
                            ("bound", def.bound.map_or(Json::Null, Json::Num)),
                            ("median", Json::Num(s.median)),
                            ("q1", Json::Num(s.q1)),
                            ("q3", Json::Num(s.q3)),
                            ("samples", Json::nums(&s.samples)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Read one workload back from its detail record.
pub fn stored_workload(j: &Json) -> Result<StoredWorkload, String> {
    let field = |k: &str| j.get(k).ok_or_else(|| format!("missing field {k:?}"));
    let metrics = field("metrics")?
        .as_arr()
        .ok_or("metrics is not an array")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            if !defs::valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let samples: Vec<f64> = m
                .get("samples")
                .and_then(Json::as_arr)
                .ok_or("metric without samples")?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            Ok(StoredMetric {
                name: name.to_string(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                better: match m.get("better").and_then(Json::as_str) {
                    Some("higher") => Better::Higher,
                    _ => Better::Lower,
                },
                bound: m.get("bound").and_then(Json::as_f64),
                summary: Summary::of(samples),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let workload = field("workload")?
        .as_str()
        .ok_or("workload is not a string")?;
    if !defs::valid_name(workload) {
        return Err(format!("invalid workload name {workload:?}"));
    }
    Ok(StoredWorkload {
        workload: workload.to_string(),
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics,
    })
}

/// Read every workload of a `result.json`.
pub fn stored_result(text: &str) -> Result<Vec<StoredWorkload>, String> {
    let j = Json::parse(text)?;
    j.get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no \"workloads\" array")?
        .iter()
        .map(stored_workload)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Ledger;
    use crate::run::RunOpts;

    fn report() -> Report {
        let mut ledger = Ledger::default();
        ledger.ops(640_001, 0);
        ledger.check("counts equal the replay", true, "7 reps");
        Report {
            workload: "exec-probe".into(),
            opts: RunOpts {
                seed: 3,
                seconds: 15,
                quick: false,
                traced: false,
                instance: crate::scenario::INSTANCE_SEED,
            },
            metrics: defs::END_TO_END
                .iter()
                .enumerate()
                .map(|(i, d)| (d, Summary::of(vec![1.0 + i as f64, 2.5, 0.123456789012])))
                .collect(),
            ledger,
            trace: None,
            wall_s: 12.5,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let line = result_line(&report());
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &j else {
            panic!("the result line is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(640_001.0));
        let Some(Json::Obj(metrics)) = j.get("metrics") else {
            panic!("metrics is an object");
        };
        assert_eq!(metrics.len(), defs::END_TO_END.len());
        let setup = j.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(setup.get("value").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn detail_round_trips_through_the_writer_and_reader() {
        let r = report();
        let file = Json::obj([("workloads", Json::Arr(vec![detail(&r)]))]).pretty();
        let back = stored_result(&file).unwrap();
        assert_eq!(back.len(), 1);
        let w = &back[0];
        assert_eq!(
            (w.workload.as_str(), w.correct, w.attempted, w.failed),
            ("exec-probe", true, 640_001, 0)
        );
        for ((def, s), m) in r.metrics.iter().zip(&w.metrics) {
            assert_eq!((m.name.as_str(), m.unit.as_str()), (def.name, def.unit));
            assert_eq!((m.better, m.bound), (def.better, def.bound));
            assert_eq!(&m.summary, s, "every digit survives");
        }
    }

    #[test]
    fn reader_rejects_records_with_bad_names() {
        let bad = r#"{"workloads":[{"workload":"a b","correct":true,"attempted":1,"failed":0,"metrics":[]}]}"#;
        assert!(stored_result(bad).is_err());
        assert!(stored_result("{}").is_err());
    }
}
