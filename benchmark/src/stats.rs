//! Order statistics the benchmark reports: median, quartiles and the
//! highest percentile a sample can support.

/// Sorted copy of `values` (total order, NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) does —
/// the rule the acceptance driver applies to ten runs. A single sample
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld == 0 {
        return (0.0, 0.0);
    }
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile (`q` in [0, 1]) of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Whether a sample of `n` values supports percentile `q`: at least ten
/// samples must lie beyond it, otherwise the figure is one or two
/// outliers rather than a tail.
pub fn supports(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0 - 1e-9
}

/// Median, quartiles and the raw samples of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl Summary {
    pub fn of(samples: Vec<f64>) -> Summary {
        let (q1, q3) = quartiles(&samples);
        Summary {
            median: median(&samples),
            q1,
            q3,
            samples,
        }
    }

    /// Inter-quartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // 600 pooled re-optimisation timings: 30 lie beyond p95, 6 beyond p99.
        assert!(supports(600, 0.95));
        assert!(!supports(600, 0.99));
        // 200 samples carry p95 exactly (10 beyond), 199 do not.
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        assert!(supports(1_000, 0.99) && !supports(999, 0.99));
        assert!(supports(20, 0.5) && !supports(19, 0.5));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of((1..=10).map(f64::from).collect());
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(vec![3.0]).spread(), 0.0);
    }
}
