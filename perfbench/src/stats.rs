//! Exact order statistics over raw samples.
//!
//! Every timing the benchmark prints comes from the sorted samples
//! themselves, never from histogram buckets: quantiles interpolate
//! linearly between the two neighbouring order statistics (the
//! "type 7" definition that NumPy and R use by default).

/// The order statistics of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// See [`Tail`].
    pub tail: Tail,
    /// Largest sample.
    pub max: f64,
}

/// The highest percentile that still has at least ten samples beyond
/// it. With fewer than [`TAIL_MIN_SAMPLES`] samples that percentile
/// would sit at or below the median, so the tail is the maximum and
/// `beyond` is 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// The percentile, in 0..=100.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it in rank.
    pub beyond: usize,
}

/// Samples a tail needs beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Fewest samples for which the tail sits above the median.
pub const TAIL_MIN_SAMPLES: usize = 2 * TAIL_BEYOND + 1;

/// The `q`-quantile (`0 <= q <= 1`) of ascending `sorted`.
///
/// # Panics
///
/// When `sorted` is empty or `q` is outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail order statistic of ascending `sorted` (see [`Tail`]).
///
/// # Panics
///
/// When `sorted` is empty.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    if n < TAIL_MIN_SAMPLES {
        return Tail {
            pct: 100.0,
            value: sorted[n - 1],
            beyond: 0,
        };
    }
    let rank = n - TAIL_BEYOND; // 1-based rank of the tail sample
    Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        beyond: TAIL_BEYOND,
    }
}

/// Summarizes `samples` (any order).
///
/// # Panics
///
/// When `samples` is empty or holds a NaN.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    Summary {
        n: sorted.len(),
        p25: quantile(&sorted, 0.25),
        p50: quantile(&sorted, 0.5),
        p75: quantile(&sorted, 0.75),
        tail: tail(&sorted),
        max: sorted[sorted.len() - 1],
    }
}

/// The median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Geometric mean of positive `values`.
///
/// # Panics
///
/// When `values` is empty or holds a value that is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geometric mean needs positive values"
    );
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

impl Summary {
    /// One line: median, quartiles, tail with its percentile and the
    /// sample count.
    pub fn line(&self, unit: &str) -> String {
        format!(
            "p50 {:.3} {unit} [p25 {:.3}, p75 {:.3}] tail p{:.1} {:.3} {unit} ({} beyond) max {:.3} n={}",
            self.p50, self.p25, self.p75, self.tail.pct, self.tail.value, self.tail.beyond, self.max, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(quantile(&s, 0.75), 3.25);
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn median_of_odd_count_is_a_sample() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.pct, 90.0);
        let beyond = samples.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.value, t.beyond, t.pct), (20.0, 0, 100.0));
        let samples: Vec<f64> = (1..=21).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.value, t.beyond), (11.0, 10));
        assert!(t.value >= median(&samples));
    }

    #[test]
    fn summary_is_order_independent() {
        let a = summarize(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        let b = summarize(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a, b);
        assert_eq!((a.p25, a.p50, a.max, a.n), (2.0, 3.0, 5.0, 5));
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[0.0, 1.0]);
    }
}
