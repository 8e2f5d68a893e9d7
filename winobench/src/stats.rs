//! Exact sample statistics.
//!
//! Every timed sample is kept. Percentiles are order statistics of the
//! sorted samples (nearest rank), so a reported median is always one of
//! the measured values. Nothing here reads a percentile off a histogram's
//! bucket edges, which can be up to 12.5% away from any sample.

/// Nearest-rank percentile: the smallest sample such that at least
/// `pct` percent of all samples are less than or equal to it.
///
/// # Panics
///
/// Panics on an empty sample set or a `pct` outside `1..=100`.
pub fn percentile(samples: &[f64], pct: usize) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    assert!((1..=100).contains(&pct), "percentile {pct} outside 1..=100");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Integer ceil(pct·n / 100): no floating-point rounding in the rank.
    let rank = (pct * sorted.len()).div_ceil(100);
    sorted[rank - 1]
}

/// Nearest-rank median (the lower middle sample for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50)
}

/// Arithmetic mean; 0 for an empty sample set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a ratio over no events).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_order_statistics() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 90), 5.0);
        assert_eq!(percentile(&s, 100), 5.0);
        assert_eq!(percentile(&s, 1), 1.0);

        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), 5.0);
        assert_eq!(percentile(&ten, 90), 9.0);

        // 100 samples leave exactly ten above p90.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90), 90.0);
        assert_eq!(hundred.iter().filter(|&&v| v > 90.0).count(), 10);
    }

    #[test]
    fn percentiles_return_a_measured_sample_not_a_bucket_edge() {
        // Close values that share one log-linear histogram bucket: an
        // exact median must return the middle sample itself.
        let s = [3.9, 4.1, 4.0];
        assert_eq!(median(&s), 4.0);
        let p90 = percentile(&[3.931, 3.932, 3.933, 3.934], 90);
        assert_eq!(p90, 3.934);
    }

    #[test]
    fn mean_and_ratio_handle_empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_nothing_panics() {
        percentile(&[], 50);
    }
}
