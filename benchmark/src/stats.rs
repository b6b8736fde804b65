//! Order statistics: the percentile rule, and the median / inter-quartile
//! range every reported value carries.

/// Percentiles a latency distribution may be reported at, ascending, each
/// with the share of samples beyond it in parts per 10 000.
const PERCENTILES: [(f64, u64); 4] = [(50.0, 5_000), (99.0, 100), (99.9, 10), (99.99, 1)];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: u64 = 10;

/// The highest of the reportable percentiles that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` when even the median
/// does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .find(|&&(_, beyond)| n as u64 * beyond >= MIN_BEYOND * 10_000)
        .map(|&(p, _)| p)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] when `p` is supported by the sample size (see
/// [`highest_supported_percentile`]), else 0 — a tail nobody sampled is
/// not reported.
pub fn supported_percentile(sorted: &[f64], p: f64) -> f64 {
    match highest_supported_percentile(sorted.len()) {
        Some(top) if p <= top => percentile(sorted, p),
        _ => 0.0,
    }
}

/// Quartiles `(q1, median, q3)` by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the acceptance driver applies to the per-run values. A single value is
/// its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// A value reported as the median of `n` windows or passes, with the
/// distance between their quartiles beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub iqr: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, median, q3) = quartiles(values);
    Summary {
        median,
        iqr: q3 - q1,
        n: values.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(999), Some(50.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn unsupported_percentiles_read_zero() {
        let sample: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(supported_percentile(&sample, 50.0), 500.0);
        assert_eq!(supported_percentile(&sample, 99.0), 990.0);
        assert_eq!(supported_percentile(&sample, 99.9), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let sample = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sample, 50.0), 2.0);
        assert_eq!(percentile(&sample, 75.0), 3.0);
        assert_eq!(percentile(&sample, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // → [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) → [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) → [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn window_median_and_iqr() {
        let s = summarize(&[10.0, 12.0, 11.0, 13.0, 9.0]);
        assert_eq!(s.median, 11.0);
        assert_eq!(s.iqr, 12.5 - 9.5);
        assert_eq!(s.n, 5);
        let one = summarize(&[4.0]);
        assert_eq!((one.median, one.iqr, one.n), (4.0, 0.0, 1));
    }
}
