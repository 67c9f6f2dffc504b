//! Sample statistics with the tail rule: a percentile is reported only when
//! at least [`MIN_BEYOND`] samples lie above it, so a tail figure always
//! rests on enough observations to repeat.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0..=1) of `sorted` (ascending), or `None`
/// when fewer than `min_beyond` samples lie beyond its rank.
pub fn tail_percentile(sorted: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Latency summary of one phase, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// `None` when the tail rule refuses the percentile.
    pub p95: Option<f64>,
    pub p99: Option<f64>,
}

impl Summary {
    pub fn of(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            samples: samples.len(),
            p50: tail_percentile(&samples, 0.5, 0).unwrap_or(0.0),
            p95: tail_percentile(&samples, 0.95, MIN_BEYOND),
            p99: tail_percentile(&samples, 0.99, MIN_BEYOND),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        // Rank 190 of 200 leaves exactly 10 samples beyond it.
        assert_eq!(tail_percentile(&two_hundred, 0.95, MIN_BEYOND), Some(190.0));
        let one_ninety_nine: Vec<f64> = (1..=199).map(f64::from).collect();
        // Rank 190 of 199 leaves 9: refused.
        assert_eq!(tail_percentile(&one_ninety_nine, 0.95, MIN_BEYOND), None);
        assert_eq!(tail_percentile(&[], 0.5, 0), None);
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let s = Summary::of((1..=999).map(f64::from).collect());
        assert_eq!(s.p99, None);
        assert_eq!(s.p95, Some(950.0));
        assert_eq!(s.p50, 500.0);
        let s = Summary::of((1..=1_000).map(f64::from).collect());
        assert_eq!(s.p99, Some(990.0));
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
