//! Error metrics used by the evaluation.
//!
//! The central metric is the paper's `E(n)` (Equation 6): the ratio of the
//! summed absolute time errors to the summed actual run times over all test
//! queries at a given executor count. The generic building blocks live here;
//! the per-`n` aggregation is assembled by `autoexecutor::evaluation`.

/// Mean absolute error between predictions and actuals.
///
/// Returns 0.0 for empty input.
pub fn mean_absolute_error(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch in MAE");
    if predicted.is_empty() {
        return 0.0;
    }
    predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs())
        .sum::<f64>()
        / predicted.len() as f64
}

/// The paper's `E(n)` metric (Equation 6): `Σ|t̂ - t| / Σ t`.
///
/// Both sums run over the provided query-level values; the caller groups by
/// executor count. Returns 0.0 when the denominator is zero.
pub fn total_absolute_error_ratio(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(
        predicted.len(),
        actual.len(),
        "length mismatch in total_absolute_error_ratio"
    );
    let num: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs())
        .sum();
    let den: f64 = actual.iter().sum();
    if den.abs() < f64::EPSILON {
        0.0
    } else {
        num / den
    }
}

/// Mean and (population) standard deviation of a sample.
///
/// Used for the ±1 standard-deviation error bars across CV folds.
pub fn mean_and_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Empirical CDF evaluation points: returns `(value, cumulative_percent)`
/// pairs sorted by value, one per input sample.
///
/// Used to reproduce the many cumulative-distribution figures (2, 3, 5c, 11).
pub fn empirical_cdf(values: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n * 100.0))
        .collect()
}

/// Discards outliers lying outside `±1.5 × IQR` and returns the mean of the
/// remainder — the paper's procedure for averaging repeated runs (Section 5.1).
pub fn iqr_filtered_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    if samples.len() < 4 {
        return samples.iter().sum::<f64>() / samples.len() as f64;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q1 = percentile_sorted(&sorted, 25.0);
    let q3 = percentile_sorted(&sorted, 75.0);
    let iqr = q3 - q1;
    let lo = q1 - 1.5 * iqr;
    let hi = q3 + 1.5 * iqr;
    let kept: Vec<f64> = sorted.into_iter().filter(|&v| v >= lo && v <= hi).collect();
    if kept.is_empty() {
        samples.iter().sum::<f64>() / samples.len() as f64
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Linear-interpolated percentile of an already-sorted slice (0..=100).
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_basic_values() {
        let p = [1.0, 2.0, 3.0];
        let a = [1.0, 4.0, 2.0];
        assert!((mean_absolute_error(&p, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn e_metric_matches_hand_computation() {
        // Σ|err| = 10 + 5 = 15, Σactual = 100 + 50 = 150 → 0.1
        let predicted = [110.0, 45.0];
        let actual = [100.0, 50.0];
        assert!((total_absolute_error_ratio(&predicted, &actual) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn e_metric_perfect_prediction_is_zero() {
        let a = [3.0, 7.0, 11.0];
        assert_eq!(total_absolute_error_ratio(&a, &a), 0.0);
    }

    #[test]
    fn empirical_cdf_is_monotone_and_ends_at_100() {
        let cdf = empirical_cdf(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.len(), 4);
        assert!((cdf.last().unwrap().1 - 100.0).abs() < 1e-9);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn iqr_filter_drops_extreme_outlier() {
        let with_outlier = [10.0, 10.5, 9.8, 10.2, 10.1, 100.0];
        let m = iqr_filtered_mean(&with_outlier);
        assert!(m < 11.0, "outlier should be excluded, got {m}");
    }

    #[test]
    fn iqr_filter_small_samples_plain_mean() {
        assert!((iqr_filtered_mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(iqr_filtered_mean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0, 20.0, 30.0];
        assert!((percentile_sorted(&sorted, 50.0) - 15.0).abs() < 1e-9);
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 30.0);
    }

    #[test]
    fn mean_and_std_handles_empty() {
        assert_eq!(mean_and_std(&[]), (0.0, 0.0));
    }
}
