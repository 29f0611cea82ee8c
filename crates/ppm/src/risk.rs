//! Preemption-risk adjustment of performance curves.
//!
//! A PPM predicts run time on a reliable cluster, but on spot-priced or
//! serverless capacity every additional executor is another revocation
//! lottery ticket: scaling out shortens the fault-free run time while
//! increasing the expected number of preemptions the run must absorb.
//! Selection that ignores this systematically over-scales.
//!
//! The adjustment here is the standard renewal-style expectation. Let
//! `λ` be the revocation rate per executor-second and `R` the expected
//! recovery cost (re-acquisition through the allocation lag plus lost
//! work) per revocation, in seconds. Over a run of expected length `E`,
//! `n` executors suffer `λ·n·E` revocations costing `λ·n·E·R` seconds, so
//!
//! ```text
//! E(n) = t(n) + λ·n·E(n)·R   ⇒   E(n) = t(n) / (1 − λ·n·R)
//! ```
//!
//! valid while the *hazard* `λ·n·R < 1`; beyond that the system spends
//! more than all of its time recovering and the expected runtime diverges
//! ([`PreemptionRisk::adjust`] returns infinity, which selection treats as
//! an excluded configuration). The denominator makes the penalty grow with
//! `n`, which is exactly the risk the ISSUE calls out: larger `n` means
//! more exposure.

use serde::{Deserialize, Serialize};

/// Expected-runtime-under-preemption model: a revocation rate and the
/// expected per-revocation recovery cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreemptionRisk {
    /// Revocation rate per executor-minute (matching the engine's
    /// `FaultPlan::preemption_rate_per_executor_min`).
    pub rate_per_executor_min: f64,
    /// Expected recovery cost per revocation, in seconds: replacement
    /// re-acquisition through the allocation lag plus the expected re-run
    /// of lost work.
    pub recovery_secs: f64,
}

impl PreemptionRisk {
    /// A risk model from a rate and recovery cost.
    pub fn new(rate_per_executor_min: f64, recovery_secs: f64) -> Self {
        Self {
            rate_per_executor_min,
            recovery_secs,
        }
    }

    /// The zero-risk model (adjustments are the identity).
    pub fn none() -> Self {
        Self {
            rate_per_executor_min: 0.0,
            recovery_secs: 0.0,
        }
    }

    /// True when the model changes anything.
    pub fn is_active(&self) -> bool {
        self.rate_per_executor_min > 0.0 && self.recovery_secs > 0.0
    }

    /// The hazard `λ·n·R`: the expected fraction of wall-clock time spent
    /// recovering at `n` executors.
    pub fn hazard(&self, n: usize) -> f64 {
        (self.rate_per_executor_min / 60.0) * n as f64 * self.recovery_secs
    }

    /// Expected runtime under preemption: `t / (1 − λ·n·R)`, or infinity
    /// once the hazard reaches 1 (the configuration cannot be expected to
    /// finish). Inactive models return `t` unchanged, bit for bit.
    pub fn adjust(&self, n: usize, t: f64) -> f64 {
        if !self.is_active() {
            return t;
        }
        let hazard = self.hazard(n);
        if hazard >= 1.0 {
            f64::INFINITY
        } else {
            t / (1.0 - hazard)
        }
    }

    /// Applies [`PreemptionRisk::adjust`] to every point of a sampled
    /// curve. Inactive models return the input unchanged.
    pub fn adjust_samples(&self, samples: &[(usize, f64)]) -> Vec<(usize, f64)> {
        samples
            .iter()
            .map(|&(n, t)| (n, self.adjust(n, t)))
            .collect()
    }
}

impl Default for PreemptionRisk {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_risk_is_identity() {
        let risk = PreemptionRisk::none();
        assert!(!risk.is_active());
        assert_eq!(risk.adjust(48, 123.456).to_bits(), 123.456f64.to_bits());
        let samples = [(1usize, 500.0), (8, 140.0)];
        assert_eq!(risk.adjust_samples(&samples), samples.to_vec());
    }

    #[test]
    fn penalty_grows_with_executor_count() {
        let risk = PreemptionRisk::new(0.1, 30.0);
        let t = 100.0;
        let mut last = 0.0;
        for n in [1usize, 4, 16, 48] {
            let adjusted = risk.adjust(n, t);
            assert!(adjusted > t, "n={n}: {adjusted} should exceed {t}");
            let penalty = adjusted - t;
            assert!(penalty > last, "penalty must grow with n");
            last = penalty;
        }
    }

    #[test]
    fn hazard_at_or_past_one_diverges() {
        // λ = 1/min = 1/60 s⁻¹; n=60, R=60 s → hazard 60 ≥ 1.
        let risk = PreemptionRisk::new(1.0, 60.0);
        assert!(risk.hazard(60) >= 1.0);
        assert!(risk.adjust(60, 100.0).is_infinite());
    }

    #[test]
    fn expected_runtime_formula_matches_by_hand() {
        let risk = PreemptionRisk::new(0.1, 30.0); // λ·R = 0.05/min = 1/1200 per sec·exec
                                                   // hazard(8) = (0.1/60)·8·30 = 0.4 → E = 100 / 0.6
        let expected = 100.0 / (1.0 - 0.4);
        assert!((risk.adjust(8, 100.0) - expected).abs() < 1e-9);
    }
}
