//! Piecewise-linear performance curves.
//!
//! Section 5.3 interpolates the "Actual" and Sparklens series
//! piecewise-linearly over all `n ∈ [1, 48]` to expand the set of candidate
//! configurations. [`PerfCurve`] is that interpolation plus the small
//! queries the selection logic needs (minimum time, evaluation at arbitrary
//! points, slowdown relative to the minimum).

use serde::{Deserialize, Serialize};

/// A piecewise-linear curve `resource count → run time`, built from sampled
/// points and queried at arbitrary (fractional or integer) counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfCurve {
    /// Sample points sorted by resource count, deduplicated.
    points: Vec<(f64, f64)>,
}

impl PerfCurve {
    /// Builds a curve from `(n, t)` samples. Panics if no samples are given.
    /// Duplicate `n` values keep the last sample.
    pub fn from_samples(samples: &[(usize, f64)]) -> Self {
        assert!(
            !samples.is_empty(),
            "a performance curve needs at least one sample"
        );
        let mut points: Vec<(f64, f64)> = samples.iter().map(|&(n, t)| (n as f64, t)).collect();
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        points.dedup_by(|a, b| {
            if (a.0 - b.0).abs() < 1e-12 {
                b.1 = a.1;
                true
            } else {
                false
            }
        });
        Self { points }
    }

    /// The sampled points (sorted by resource count).
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The smallest and largest sampled resource counts.
    pub fn domain(&self) -> (f64, f64) {
        (self.points[0].0, self.points[self.points.len() - 1].0)
    }

    /// Evaluates the curve at `n` with piecewise-linear interpolation;
    /// values outside the sampled domain clamp to the nearest endpoint.
    ///
    /// The containing segment is found by binary search (the points are
    /// sorted by construction), which keeps dense-range expansion —
    /// 48 evaluations per query in the selection path — O(log points) per
    /// point instead of a linear window scan.
    pub fn evaluate(&self, n: f64) -> f64 {
        let (lo, hi) = self.domain();
        if n <= lo {
            return self.points[0].1;
        }
        if n >= hi {
            return self.points[self.points.len() - 1].1;
        }
        // First point with x >= n; its predecessor starts the containing
        // segment (the same segment a first-match window scan selects).
        let idx = self.points.partition_point(|p| p.0 < n);
        let (x0, y0) = self.points[idx - 1];
        let (x1, y1) = self.points[idx];
        if (x1 - x0).abs() < 1e-12 {
            return y0;
        }
        let frac = (n - x0) / (x1 - x0);
        y0 + frac * (y1 - y0)
    }

    /// Evaluates the curve at every integer count in `[lo, hi]`.
    pub fn evaluate_integer_range(&self, lo: usize, hi: usize) -> Vec<(usize, f64)> {
        (lo..=hi).map(|n| (n, self.evaluate(n as f64))).collect()
    }

    /// The minimum run time over the sampled points.
    pub fn min_time(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min)
    }

    /// Slowdown of the curve at `n` relative to its minimum time.
    pub fn slowdown_at(&self, n: f64) -> f64 {
        let min = self.min_time();
        if min <= 0.0 {
            return 1.0;
        }
        self.evaluate(n) / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_curve() -> PerfCurve {
        PerfCurve::from_samples(&[(1, 500.0), (3, 250.0), (8, 140.0), (16, 110.0), (48, 100.0)])
    }

    #[test]
    fn interpolation_between_samples() {
        let curve = sample_curve();
        // Midpoint between n=1 (500) and n=3 (250) is 375 at n=2.
        assert!((curve.evaluate(2.0) - 375.0).abs() < 1e-9);
        // Exact sample points are reproduced.
        assert!((curve.evaluate(8.0) - 140.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_domain_clamps() {
        let curve = sample_curve();
        assert_eq!(curve.evaluate(0.5), 500.0);
        assert_eq!(curve.evaluate(100.0), 100.0);
    }

    #[test]
    fn integer_range_has_one_point_per_count() {
        let curve = sample_curve();
        let range = curve.evaluate_integer_range(1, 48);
        assert_eq!(range.len(), 48);
        assert_eq!(range[0].0, 1);
        assert_eq!(range[47].0, 48);
        // Monotone for this monotone input.
        for w in range.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9);
        }
    }

    #[test]
    fn min_time_and_slowdown() {
        let curve = sample_curve();
        assert_eq!(curve.min_time(), 100.0);
        assert!((curve.slowdown_at(1.0) - 5.0).abs() < 1e-9);
        assert!((curve.slowdown_at(48.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_and_unsorted_samples_are_normalised() {
        let curve = PerfCurve::from_samples(&[(8, 100.0), (1, 300.0), (8, 90.0)]);
        assert_eq!(curve.points().len(), 2);
        assert!((curve.evaluate(8.0) - 90.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_panic() {
        let _ = PerfCurve::from_samples(&[]);
    }
}
