//! `compare a.json b.json`: one verdict per (workload, metric), every
//! ratio printed with its base.

use crate::defs::Better;
use crate::report::{StoredMetric, StoredWorkload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound and the two sample
    /// sets overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median
/// (negative = better), whichever direction the metric prefers.
pub fn worsening(a: &StoredMetric, b: &StoredMetric) -> f64 {
    let base = a.summary.median;
    if base == 0.0 {
        return 0.0;
    }
    match a.better {
        Better::Lower => (b.summary.median - base) / base.abs(),
        Better::Higher => (base - b.summary.median) / base.abs(),
    }
}

/// Verdict on one metric. With spreads inside the bound the medians
/// decide. With a spread beyond it, only complete separation of the
/// samples does — every run of `b` better than every run of `a`, or
/// every run worse and the medians apart by more than the bound.
pub fn verdict(a: &StoredMetric, b: &StoredMetric) -> Verdict {
    let Some(bound) = a.bound else {
        return Verdict::Same;
    };
    let w = worsening(a, b);
    let base = a.summary.median.abs();
    let iqr = |m: &StoredMetric| (m.summary.q3 - m.summary.q1).abs();
    let spread = if base == 0.0 {
        0.0
    } else {
        iqr(a).max(iqr(b)) / base
    };
    if spread <= bound {
        return if w > bound {
            Verdict::Worse
        } else if w < -bound {
            Verdict::Better
        } else {
            Verdict::Same
        };
    }
    // Orient samples so that larger is worse.
    let sign = if a.better == Better::Lower { 1.0 } else { -1.0 };
    let worst = |m: &StoredMetric| {
        m.summary
            .samples
            .iter()
            .map(|s| s * sign)
            .fold(f64::MIN, f64::max)
    };
    let best = |m: &StoredMetric| {
        m.summary
            .samples
            .iter()
            .map(|s| s * sign)
            .fold(f64::MAX, f64::min)
    };
    if worst(b) < best(a) {
        Verdict::Better
    } else if best(b) > worst(a) && w > bound {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

#[derive(Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub better: usize,
    pub same: usize,
    pub worse: usize,
    pub unresolved: usize,
    /// Workloads of `b` that fail a larger share of their operations
    /// than in `a`, are incorrect, or are missing.
    pub broken: usize,
}

impl Tally {
    pub fn passed(&self) -> bool {
        self.worse == 0 && self.broken == 0
    }
}

/// Compare two stored results, print one row per pairing, and count.
pub fn compare(a: &[StoredWorkload], b: &[StoredWorkload]) -> Tally {
    let mut tally = Tally::default();
    for wa in a {
        let Some(wb) = b.iter().find(|w| w.workload == wa.workload) else {
            println!("{}: missing from the second result", wa.workload);
            tally.broken += 1;
            continue;
        };
        let share = |w: &StoredWorkload| w.failed as f64 / w.attempted.max(1) as f64;
        println!(
            "{}: failed/attempted {}/{} → {}/{}, correct {} → {}",
            wa.workload, wa.failed, wa.attempted, wb.failed, wb.attempted, wa.correct, wb.correct
        );
        if share(wb) > share(wa) || (wa.correct && !wb.correct) {
            println!("  BROKEN: more operations fail than before");
            tally.broken += 1;
        }
        for ma in &wa.metrics {
            let Some(mb) = wb.metrics.iter().find(|m| m.name == ma.name) else {
                println!("  {:<44} missing from the second result", ma.name);
                tally.broken += 1;
                continue;
            };
            let v = verdict(ma, mb);
            match v {
                Verdict::Better => tally.better += 1,
                Verdict::Same => tally.same += 1,
                Verdict::Worse => tally.worse += 1,
                Verdict::Unresolved => tally.unresolved += 1,
            }
            let ratio = if ma.summary.median == 0.0 {
                1.0
            } else {
                mb.summary.median / ma.summary.median
            };
            println!(
                "  {:<44} {:<10} {:>14.6} → {:>14.6} {:<5} ×{:.4} of {:.6} (IQR {:.2}% → {:.2}%, bound {})",
                ma.name,
                v.as_str(),
                ma.summary.median,
                mb.summary.median,
                ma.unit,
                ratio,
                ma.summary.median,
                100.0 * ma.summary.spread(),
                100.0 * mb.summary.spread(),
                ma.bound.map_or("none".to_string(), |b| format!("{:.0}%", 100.0 * b)),
            );
        }
    }
    println!(
        "verdicts: {} better, {} same, {} worse, {} unresolved, {} broken",
        tally.better, tally.same, tally.worse, tally.unresolved, tally.broken
    );
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn metric(better: Better, bound: f64, samples: &[f64]) -> StoredMetric {
        StoredMetric {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound: Some(bound),
            summary: Summary::of(samples.to_vec()),
        }
    }

    #[test]
    fn tight_samples_are_judged_by_their_medians() {
        let base = metric(Better::Lower, 0.10, &[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = metric(Better::Lower, 0.10, &[104.0, 105.0, 103.0, 104.5, 103.5]);
        let worse = metric(Better::Lower, 0.10, &[112.0, 113.0, 111.0, 112.5, 111.5]);
        let better = metric(Better::Lower, 0.10, &[80.0, 81.0, 79.0, 80.5, 79.5]);
        assert_eq!(verdict(&base, &same), Verdict::Same);
        assert_eq!(verdict(&base, &worse), Verdict::Worse);
        assert_eq!(verdict(&base, &better), Verdict::Better);
        assert!((worsening(&base, &worse) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn direction_flips_for_higher_is_better() {
        let base = metric(Better::Higher, 0.10, &[1000.0, 1010.0, 990.0]);
        let slower = metric(Better::Higher, 0.10, &[850.0, 860.0, 840.0]);
        let faster = metric(Better::Higher, 0.10, &[1200.0, 1210.0, 1190.0]);
        assert_eq!(verdict(&base, &slower), Verdict::Worse);
        assert_eq!(verdict(&base, &faster), Verdict::Better);
        assert!(worsening(&base, &slower) > 0.0 && worsening(&base, &faster) < 0.0);
    }

    #[test]
    fn wide_overlapping_samples_are_unresolved_not_same() {
        let base = metric(Better::Lower, 0.05, &[80.0, 100.0, 120.0, 90.0, 110.0]);
        let noisy = metric(Better::Lower, 0.05, &[85.0, 105.0, 130.0, 95.0, 118.0]);
        assert_eq!(verdict(&base, &noisy), Verdict::Unresolved);
    }

    #[test]
    fn wide_samples_resolve_only_by_complete_separation() {
        let base = metric(Better::Lower, 0.05, &[80.0, 100.0, 120.0, 90.0, 110.0]);
        let clear_win = metric(Better::Lower, 0.05, &[50.0, 60.0, 70.0, 55.0, 79.0]);
        let clear_loss = metric(Better::Lower, 0.05, &[150.0, 160.0, 121.0, 155.0, 170.0]);
        assert_eq!(verdict(&base, &clear_win), Verdict::Better);
        assert_eq!(verdict(&base, &clear_loss), Verdict::Worse);
    }

    #[test]
    fn unbounded_metrics_never_gate() {
        let mut a = metric(Better::Lower, 0.1, &[1.0]);
        a.bound = None;
        let b = metric(Better::Lower, 0.1, &[100.0]);
        assert_eq!(verdict(&a, &b), Verdict::Same);
    }

    #[test]
    fn more_failed_operations_break_a_comparison_even_with_equal_metrics() {
        let w = |failed| StoredWorkload {
            workload: "w".into(),
            correct: failed == 0,
            attempted: 100,
            failed,
            metrics: vec![metric(Better::Lower, 0.1, &[1.0, 1.0, 1.0])],
        };
        assert!(compare(&[w(0)], &[w(0)]).passed());
        let t = compare(&[w(0)], &[w(3)]);
        assert_eq!((t.broken, t.worse, t.same), (1, 0, 1));
        assert!(!t.passed());
        assert!(
            !compare(&[w(0)], &[]).passed(),
            "a missing workload is not a pass"
        );
    }
}
