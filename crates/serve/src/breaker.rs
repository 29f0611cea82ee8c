//! Degraded-mode serving: a circuit breaker with a heuristic fallback
//! sizing rule.
//!
//! The serving path depends on a registered, decodable model. When that
//! dependency fails — the model is missing or corrupt — a naive runtime
//! turns every request into an error and pushes the outage onto every
//! client at once. The breaker here converts
//! that failure mode into *degraded service*: requests are still answered,
//! but by a cheap heuristic sizing rule built from the plan's own feature
//! tail, and the outcome is marked [`degraded`](crate::ScoreOutcome::degraded)
//! so callers (and [`RuntimeStats`](crate::RuntimeStats)) can see it.
//!
//! Classic three-state circuit breaker:
//!
//! * **Closed** — the model path is used; consecutive failures are counted.
//!   Reaching [`BreakerConfig::failure_threshold`] trips the breaker.
//! * **Open** — the model path is skipped entirely (no registry access, no
//!   decode attempts) until [`BreakerConfig::cooldown`] has elapsed.
//! * **Half-open** — after the cooldown, exactly one request is let through
//!   as a *probe*; concurrent requests keep taking the fallback. A probe
//!   success closes the breaker, a probe failure re-opens it for another
//!   cooldown.
//!
//! Breakers are disabled by default
//! ([`RuntimeConfig::breaker`](crate::RuntimeConfig::breaker) is `None`),
//! so existing deployments and the deterministic-mode guarantee are
//! untouched unless opted in.

use std::sync::Mutex as StdMutex;
use std::time::{Duration, Instant};

use ae_ppm::model::{AmdahlPpm, Ppm};
use ae_ppm::selection::SelectionObjective;
use autoexecutor::optimizer::ResourceRequest;

use crate::{Result, ServeError};

/// Circuit-breaker tuning for the degraded-mode serving path. Attach one
/// to a runtime with
/// [`RuntimeConfig::with_breaker`](crate::RuntimeConfig::with_breaker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive model-path failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before letting a half-open probe
    /// through.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown: Duration::from_millis(250),
        }
    }
}

impl BreakerConfig {
    /// Overrides the consecutive-failure threshold (clamped to at least 1).
    pub fn with_failure_threshold(mut self, threshold: u32) -> Self {
        self.failure_threshold = threshold.max(1);
        self
    }

    /// Overrides the open-state cooldown.
    pub fn with_cooldown(mut self, cooldown: Duration) -> Self {
        self.cooldown = cooldown;
        self
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    /// Model path in use; counts consecutive failures.
    Closed { failures: u32 },
    /// Model path skipped until the cooldown deadline.
    Open { until: Instant },
    /// One probe is in flight; everyone else still takes the fallback.
    HalfOpen,
}

/// The runtime-internal breaker state machine. All transitions happen under
/// one short mutex; scoring itself never runs under the lock.
pub(crate) struct Breaker {
    config: BreakerConfig,
    state: StdMutex<State>,
}

impl Breaker {
    pub(crate) fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: StdMutex::new(State::Closed { failures: 0 }),
        }
    }

    /// Decides whether the caller may use the model path right now. An
    /// `Open` breaker past its cooldown transitions to `HalfOpen` and
    /// admits the caller as the probe.
    pub(crate) fn allow_model(&self, now: Instant) -> bool {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        match *state {
            State::Closed { .. } => true,
            State::Open { until } => {
                if now >= until {
                    *state = State::HalfOpen;
                    true
                } else {
                    false
                }
            }
            State::HalfOpen => false,
        }
    }

    /// A model-path call succeeded: the breaker closes and the failure
    /// count resets. Returns `true` when this success
    /// *recovered* the breaker — it was not already closed (a half-open
    /// probe succeeded, or a success raced a trip) — so callers can emit
    /// a recovery event exactly once per outage.
    pub(crate) fn record_success(&self) -> bool {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let recovered = !matches!(*state, State::Closed { .. });
        *state = State::Closed { failures: 0 };
        recovered
    }

    /// A model-path call failed. Returns `true` when this failure *trips*
    /// the breaker open — either the closed-state threshold was reached or
    /// a half-open probe failed.
    pub(crate) fn record_failure(&self, now: Instant) -> bool {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        match *state {
            State::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.config.failure_threshold {
                    *state = State::Open {
                        until: now + self.config.cooldown,
                    };
                    true
                } else {
                    *state = State::Closed { failures };
                    false
                }
            }
            State::HalfOpen => {
                *state = State::Open {
                    until: now + self.config.cooldown,
                };
                true
            }
            // A stale failure racing a reopened breaker: keep it open.
            State::Open { .. } => false,
        }
    }
}

/// The heuristic fallback sizing rule: a [`ResourceRequest`] built without
/// the model, from the plan-shape tail of the full feature vector
/// (`NumOps`, `MaxDepth`, `NumInputs`, `TotalInputBytes`,
/// `TotalRowsProcessed` — the last five columns of
/// [`autoexecutor::features::full_feature_names`]).
///
/// The rule estimates single-executor work from the input volume (a flat
/// per-byte/per-row throughput plus a per-operator overhead) and a serial
/// fraction from how deep the plan is relative to its operator count, then
/// shapes them into an [`AmdahlPpm`] and runs the *same* selection
/// objective the model path uses. The answer is deliberately crude — the
/// point is a sane, finite executor count under model outage, not
/// accuracy — but it scales with the query like the real curves do.
pub(crate) fn heuristic_request(
    features: &[f64],
    objective: SelectionObjective,
    candidate_counts: &[usize],
) -> Result<ResourceRequest> {
    if features.len() < 5 {
        return Err(ServeError::Scoring(format!(
            "heuristic fallback needs the 5 plan-shape tail features, got {} columns",
            features.len()
        )));
    }
    let tail = &features[features.len() - 5..];
    let num_ops = tail[0].max(1.0);
    let max_depth = tail[1].max(1.0);
    let bytes = tail[3].max(0.0);
    let rows = tail[4].max(0.0);

    // Single-executor work estimate: 128 MB/s scan, 2M rows/s processing,
    // 100 ms of fixed overhead per operator; floored at one second.
    let work = (bytes / 128e6 + rows / 2e6 + 0.1 * num_ops).max(1.0);
    // Deep, narrow plans are mostly chains (serial); wide plans parallelize.
    let serial_fraction = (max_depth / num_ops).clamp(0.02, 0.5);
    let ppm = Ppm::Amdahl(AmdahlPpm::new(
        serial_fraction * work,
        (1.0 - serial_fraction) * work,
    ));
    let predicted_curve = ppm.predict_curve(candidate_counts);
    let executors = objective
        .select(&predicted_curve)
        .ok_or_else(|| ServeError::Scoring("empty candidate range".into()))?;
    Ok(ResourceRequest {
        executors,
        predicted_ppm: ppm,
        predicted_curve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn now() -> Instant {
        Instant::now()
    }

    #[test]
    fn trips_after_threshold_and_recovers_via_probe() {
        let breaker = Breaker::new(
            BreakerConfig::default()
                .with_failure_threshold(2)
                .with_cooldown(Duration::from_millis(1)),
        );
        let t0 = now();
        assert!(breaker.allow_model(t0));
        assert!(!breaker.record_failure(t0), "first failure must not trip");
        assert!(breaker.allow_model(t0));
        assert!(breaker.record_failure(t0), "threshold failure trips");
        // Open: model path denied until the cooldown elapses.
        assert!(!breaker.allow_model(t0));
        let after = t0 + Duration::from_millis(2);
        // Past cooldown: exactly one probe is admitted.
        assert!(breaker.allow_model(after));
        assert!(!breaker.allow_model(after), "second caller is not a probe");
        assert!(breaker.record_success(), "probe success is a recovery");
        assert!(breaker.allow_model(after), "probe success closes");
    }

    #[test]
    fn failed_probe_reopens() {
        let breaker = Breaker::new(
            BreakerConfig::default()
                .with_failure_threshold(1)
                .with_cooldown(Duration::from_millis(1)),
        );
        let t0 = now();
        assert!(breaker.record_failure(t0));
        let after = t0 + Duration::from_millis(2);
        assert!(breaker.allow_model(after));
        assert!(breaker.record_failure(after), "probe failure re-trips");
        assert!(!breaker.allow_model(after));
    }

    #[test]
    fn success_resets_the_failure_count() {
        let breaker = Breaker::new(BreakerConfig::default().with_failure_threshold(2));
        let t0 = now();
        assert!(!breaker.record_failure(t0));
        assert!(
            !breaker.record_success(),
            "closed-state success is not a recovery"
        );
        assert!(
            !breaker.record_failure(t0),
            "count must restart after a success"
        );
    }

    #[test]
    fn heuristic_scales_with_input_volume() {
        let counts: Vec<usize> = (1..=48).collect();
        // 19 columns like the real feature vector; only the tail matters.
        let mut small = vec![0.0; 19];
        let tail = small.len() - 5;
        small[tail] = 10.0; // NumOps
        small[tail + 1] = 4.0; // MaxDepth
        small[tail + 2] = 2.0; // NumInputs
        small[tail + 3] = 64e6; // TotalInputBytes
        small[tail + 4] = 1e5; // TotalRowsProcessed
        let mut big = small.clone();
        big[tail + 3] = 512e9;
        big[tail + 4] = 4e9;
        let small_req = heuristic_request(&small, SelectionObjective::Elbow, &counts).unwrap();
        let big_req = heuristic_request(&big, SelectionObjective::Elbow, &counts).unwrap();
        assert!(small_req.executors >= 1 && small_req.executors <= 48);
        assert!(big_req.executors >= small_req.executors);
        assert_eq!(big_req.predicted_curve.len(), 48);
        assert!(big_req.predicted_curve.iter().all(|&(_, t)| t.is_finite()));
    }

    #[test]
    fn heuristic_rejects_truncated_features() {
        assert!(matches!(
            heuristic_request(&[1.0, 2.0], SelectionObjective::Elbow, &[1, 2]),
            Err(ServeError::Scoring(_))
        ));
    }
}
