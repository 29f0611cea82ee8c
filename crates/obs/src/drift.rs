//! Observed-vs-predicted residual tracking — the drift signal.
//!
//! Every fulfilled request pairs a *predicted* runtime (from the served
//! PPM curve at the chosen executor count) with an *observed* runtime.
//! A [`ResidualTracker`] accumulates the relative residuals of those
//! pairs lock-free; its [`DriftSignal`] summarizes how far the model has
//! wandered from reality. Model-zoo style adaptation (ROADMAP) consumes
//! this signal to decide when to retrain or swap models: a persistent
//! `mean_abs_rel` above the fleet's tolerance, or a strongly one-sided
//! `mean_rel_bias`, is drift.
//!
//! The accumulators are `f64` values stored in `AtomicU64` bit-patterns
//! and updated with compare-exchange loops; contention is negligible at
//! one update per completed request, and the tracker never takes a lock.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free accumulator of relative prediction residuals.
///
/// For each `(predicted, observed)` pair with `observed > 0`, the signed
/// relative residual is `(predicted - observed) / observed`: positive
/// means the model over-predicts (pessimistic), negative means it
/// under-predicts (optimistic — the dangerous direction for deadlines).
#[derive(Debug, Default)]
pub struct ResidualTracker {
    samples: AtomicU64,
    /// Σ |rel| as f64 bits.
    sum_abs: AtomicU64,
    /// Σ rel (signed) as f64 bits.
    sum_signed: AtomicU64,
    /// max |rel| as f64 bits.
    max_abs: AtomicU64,
}

fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + delta).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

fn atomic_f64_max(cell: &AtomicU64, candidate: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    while candidate > f64::from_bits(current) {
        match cell.compare_exchange_weak(
            current,
            candidate.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

impl ResidualTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one predicted/observed runtime pair. Pairs with a
    /// non-finite or non-positive `observed` are ignored (no residual is
    /// defined for them).
    pub fn record(&self, predicted: f64, observed: f64) {
        if !(observed.is_finite() && observed > 0.0 && predicted.is_finite()) {
            return;
        }
        let rel = (predicted - observed) / observed;
        self.samples.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_abs, rel.abs());
        atomic_f64_add(&self.sum_signed, rel);
        atomic_f64_max(&self.max_abs, rel.abs());
    }

    /// Summarizes the accumulated residuals.
    pub fn signal(&self) -> DriftSignal {
        let samples = self.samples.load(Ordering::Relaxed);
        let sum_abs = f64::from_bits(self.sum_abs.load(Ordering::Relaxed));
        let sum_signed = f64::from_bits(self.sum_signed.load(Ordering::Relaxed));
        let max_abs = f64::from_bits(self.max_abs.load(Ordering::Relaxed));
        if samples == 0 {
            DriftSignal::default()
        } else {
            DriftSignal {
                samples,
                mean_abs_rel: sum_abs / samples as f64,
                mean_rel_bias: sum_signed / samples as f64,
                max_abs_rel: max_abs,
            }
        }
    }
}

/// Point-in-time summary of a [`ResidualTracker`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriftSignal {
    /// Number of predicted/observed pairs behind the summary.
    pub samples: u64,
    /// Mean |predicted − observed| / observed.
    pub mean_abs_rel: f64,
    /// Mean signed residual: positive = over-prediction (pessimistic),
    /// negative = under-prediction (optimistic).
    pub mean_rel_bias: f64,
    /// Worst single relative residual.
    pub max_abs_rel: f64,
}

impl DriftSignal {
    /// True when enough samples exist and the mean absolute relative
    /// residual exceeds `threshold` — the retrain/swap trigger.
    pub fn drifted(&self, threshold: f64) -> bool {
        self.samples > 0 && self.mean_abs_rel > threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn residual_math() {
        let tracker = ResidualTracker::new();
        tracker.record(1.2, 1.0); // +0.2
        tracker.record(0.5, 1.0); // -0.5
        tracker.record(2.0, 0.0); // ignored: zero observed
        tracker.record(f64::NAN, 1.0); // ignored
        let signal = tracker.signal();
        assert_eq!(signal.samples, 2);
        assert!((signal.mean_abs_rel - 0.35).abs() < 1e-12);
        assert!((signal.mean_rel_bias - (-0.15)).abs() < 1e-12);
        assert!((signal.max_abs_rel - 0.5).abs() < 1e-12);
        assert!(signal.drifted(0.3));
        assert!(!signal.drifted(0.4));
    }

    #[test]
    fn empty_tracker_reports_no_drift() {
        let signal = ResidualTracker::new().signal();
        assert_eq!(signal.samples, 0);
        assert!(!signal.drifted(0.0));
        assert_eq!(signal.mean_abs_rel, 0.0);
    }

    #[test]
    fn concurrent_recording_keeps_every_sample() {
        let tracker = Arc::new(ResidualTracker::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&tracker);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        t.record(1.1, 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let signal = tracker.signal();
        assert_eq!(signal.samples, 40_000);
        assert!((signal.mean_abs_rel - 0.1).abs() < 1e-9);
    }
}
