//! Ordinary-least-squares linear regression: [`SimpleLinearFit`], the
//! one-dimensional `y = intercept + slope·x` fit used by the PPM fitting
//! procedures of Section 3.4 (log-space fit for the power law, `1/n`-space
//! fit for Amdahl's law).

use serde::{Deserialize, Serialize};

use crate::{MlError, Result};

/// Result of a one-dimensional least-squares fit `y ≈ intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimpleLinearFit {
    /// Intercept term.
    pub intercept: f64,
    /// Slope term.
    pub slope: f64,
}

impl SimpleLinearFit {
    /// Fits `y ≈ intercept + slope·x` by least squares.
    ///
    /// Requires at least two points; with exactly two points the line passes
    /// through both. If all `x` are identical the slope is zero and the
    /// intercept is the mean of `y`.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Result<Self> {
        if xs.len() != ys.len() {
            return Err(MlError::ShapeMismatch {
                detail: format!("xs has {} points, ys has {}", xs.len(), ys.len()),
            });
        }
        if xs.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if xs.len() == 1 {
            return Ok(Self {
                intercept: ys[0],
                slope: 0.0,
            });
        }
        let n = xs.len() as f64;
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            sxx += (x - mean_x) * (x - mean_x);
            sxy += (x - mean_x) * (y - mean_y);
        }
        let slope = if sxx.abs() < f64::EPSILON {
            0.0
        } else {
            sxy / sxx
        };
        let intercept = mean_y - slope * mean_x;
        if !slope.is_finite() || !intercept.is_finite() {
            return Err(MlError::Numerical("non-finite linear fit".into()));
        }
        Ok(Self { intercept, slope })
    }

    /// Evaluates the fitted line at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_fit_recovers_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let fit = SimpleLinearFit::fit(&xs, &ys).unwrap();
        assert!((fit.intercept - 3.0).abs() < 1e-9);
        assert!((fit.slope - 2.0).abs() < 1e-9);
        assert!((fit.predict(10.0) - 23.0).abs() < 1e-9);
    }

    #[test]
    fn simple_fit_constant_x_degrades_gracefully() {
        let fit = SimpleLinearFit::fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert!((fit.intercept - 2.0).abs() < 1e-9);
    }

    #[test]
    fn simple_fit_single_point_is_flat() {
        let fit = SimpleLinearFit::fit(&[5.0], &[9.0]).unwrap();
        assert_eq!(fit.predict(100.0), 9.0);
    }

    #[test]
    fn simple_fit_rejects_mismatched_lengths() {
        assert!(SimpleLinearFit::fit(&[1.0], &[1.0, 2.0]).is_err());
        assert!(SimpleLinearFit::fit(&[], &[]).is_err());
    }
}
