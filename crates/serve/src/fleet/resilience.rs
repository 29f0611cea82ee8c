//! Fleet resilience: the shard fault vocabulary, the per-shard health
//! state machine, and the cross-shard failover retry budget.
//!
//! The engine made *queries* survive executor loss (`ae_engine::faults`);
//! this module gives the fleet the same end-to-end story for *shards*.
//! Three pieces (see `docs/resilience.md`):
//!
//! * [`InducedFault`] — what can strike a shard: a crash, a stall, or a
//!   model outage. A fault is set and cleared explicitly with
//!   [`ShardedRuntime::induce_shard_fault`](super::ShardedRuntime::induce_shard_fault)
//!   and [`clear_shard_fault`](super::ShardedRuntime::clear_shard_fault),
//!   so tests and drills choose the exact kill window. With no fault
//!   induced, the hot-path check is one untaken branch.
//! * [`HealthPolicy`] / [`HealthState`] — how the fleet's health monitor
//!   turns a shard's error rate, breaker state, and drain progress into
//!   the `Healthy → Suspect → Quarantined → Probation` machine that
//!   drives failover and recovery (implemented in
//!   [`super::sharded`]).
//! * `RetryBudget` (crate-internal) — a token bucket bounding cross-shard re-submission
//!   of failed requests, so a dying shard cannot amplify its own load
//!   onto survivors.

use std::sync::Mutex as StdMutex;
use std::time::{Duration, Instant};

use crate::runtime::lock;
use crate::tenant::TokenBucket;

/// A fault induced on one shard's runtime.
///
/// Faults change *failure behavior*, never answers: a faulted shard
/// either errors, slows down, or loses its model path — requests that do
/// complete still score through the same pure functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InducedFault {
    /// The shard fails every scoring attempt outright (hard error on the
    /// model *and* fallback path), as if its process died.
    Crash,
    /// The shard stalls: every scoring call (a drained batch or an inline
    /// request) is delayed by this much first, backing up its queue (a
    /// straggler shard).
    Stall(Duration),
    /// The shard's model path fails (registry/decode), exercising the
    /// per-shard breaker and degraded mode where configured.
    ModelOutage,
}

// The induced-fault word in `runtime::Shared`: kind in the low 2 bits,
// the stall delay (µs) in the high 62. Zero means no fault, so the
// inactive hot path is a single `load == 0` branch.
const KIND_BITS: u64 = 0b11;
const KIND_CRASH: u64 = 1;
const KIND_STALL: u64 = 2;
const KIND_OUTAGE: u64 = 3;

/// Packs an optional fault into the runtime's atomic fault word.
pub(crate) fn encode_fault(fault: Option<InducedFault>) -> u64 {
    match fault {
        None => 0,
        Some(InducedFault::Crash) => KIND_CRASH,
        Some(InducedFault::Stall(delay)) => {
            let micros = u64::try_from(delay.as_micros())
                .unwrap_or(u64::MAX)
                .min(u64::MAX >> 2);
            (micros << 2) | KIND_STALL
        }
        Some(InducedFault::ModelOutage) => KIND_OUTAGE,
    }
}

/// Unpacks the runtime's atomic fault word.
pub(crate) fn decode_fault(word: u64) -> Option<InducedFault> {
    match word & KIND_BITS {
        KIND_CRASH => Some(InducedFault::Crash),
        KIND_STALL => Some(InducedFault::Stall(Duration::from_micros(word >> 2))),
        KIND_OUTAGE => Some(InducedFault::ModelOutage),
        _ => None,
    }
}

/// One shard's position in the fleet health state machine.
///
/// ```text
/// Healthy ──bad check──▶ Suspect ──bad check──▶ Quarantined
///    ▲                      │                        │ hold elapses
///    │                   good check                  ▼
///    │◀── clean trickle ── Probation ◀───────────────┘
///      (an error or a degraded answer re-quarantines)
/// ```
///
/// `Healthy`/`Suspect` shards are on the routing ring; `Quarantined`/
/// `Probation` shards are off it (probation shards receive only the
/// diverted trickle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum HealthState {
    /// Serving normally; on the ring.
    #[default]
    Healthy = 0,
    /// One bad health check observed; still on the ring, one more bad
    /// check quarantines.
    Suspect = 1,
    /// Off the ring: backlog evacuated, traffic rerouted to successors.
    Quarantined = 2,
    /// Fleet-level half-open: off the ring, but receiving a trickle of
    /// diverted real traffic to prove recovery.
    Probation = 3,
}

impl HealthState {
    pub(crate) fn from_u8(value: u8) -> Self {
        match value {
            1 => HealthState::Suspect,
            2 => HealthState::Quarantined,
            3 => HealthState::Probation,
            _ => HealthState::Healthy,
        }
    }

    /// True when the shard is a member of the routing ring.
    pub fn is_routable(self) -> bool {
        matches!(self, HealthState::Healthy | HealthState::Suspect)
    }

    /// Lower-case name (metric/JSON label).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Quarantined => "quarantined",
            HealthState::Probation => "probation",
        }
    }
}

/// How the fleet health monitor detects, quarantines, and re-admits
/// shards. Attach with
/// [`FleetConfig::with_health`](super::FleetConfig::with_health); `None`
/// (the default) spawns no monitor and changes nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthPolicy {
    /// Monitor sampling period. Each check inspects every shard's error
    /// delta, breaker state, and drain progress since the last check.
    pub check_interval: Duration,
    /// A check is *bad* when `errors / (errors + completed)` over the
    /// window reaches this, with at least
    /// [`min_window_events`](Self::min_window_events) observations.
    pub error_rate_threshold: f64,
    /// Event floor before the error rate counts (one unlucky request
    /// must not condemn an idle shard).
    pub min_window_events: u64,
    /// Drain-stall watchdog: a check is bad when the shard has at least
    /// this many queued requests and completed nothing, for
    /// [`stall_checks`](Self::stall_checks) consecutive checks.
    pub stall_depth: usize,
    /// Consecutive no-progress checks that count as one bad check.
    pub stall_checks: u32,
    /// Time a quarantined shard sits out before probation begins.
    pub quarantine_hold: Duration,
    /// During probation, every `probation_stride`-th non-`Interactive`
    /// submission is diverted to the probation shard (the fleet-level
    /// half-open trickle).
    pub probation_stride: u64,
    /// Clean completions the probation shard must serve before
    /// re-admission.
    pub probation_min_completions: u64,
    /// Consecutive clean checks (no errors, no degraded answers) before
    /// re-admission.
    pub probation_checks: u32,
    /// Failover retry token bucket capacity (0 disables cross-shard
    /// retries).
    pub retry_budget: u32,
    /// Failover retry token refill rate.
    pub retry_refill_per_sec: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            check_interval: Duration::from_millis(5),
            error_rate_threshold: 0.5,
            min_window_events: 8,
            stall_depth: 1,
            stall_checks: 3,
            quarantine_hold: Duration::from_millis(50),
            probation_stride: 4,
            probation_min_completions: 8,
            probation_checks: 2,
            retry_budget: 64,
            retry_refill_per_sec: 32.0,
        }
    }
}

impl HealthPolicy {
    /// Overrides the monitor sampling period.
    pub fn with_check_interval(mut self, interval: Duration) -> Self {
        self.check_interval = interval;
        self
    }

    /// Overrides the bad-check error-rate threshold and its event floor.
    pub fn with_error_rate(mut self, threshold: f64, min_window_events: u64) -> Self {
        self.error_rate_threshold = threshold;
        self.min_window_events = min_window_events;
        self
    }

    /// Overrides the drain-stall watchdog.
    pub fn with_stall_watchdog(mut self, depth: usize, checks: u32) -> Self {
        self.stall_depth = depth;
        self.stall_checks = checks;
        self
    }

    /// Overrides the quarantine hold time.
    pub fn with_quarantine_hold(mut self, hold: Duration) -> Self {
        self.quarantine_hold = hold;
        self
    }

    /// Overrides the probation trickle and re-admission bar.
    pub fn with_probation(mut self, stride: u64, min_completions: u64, checks: u32) -> Self {
        self.probation_stride = stride;
        self.probation_min_completions = min_completions;
        self.probation_checks = checks;
        self
    }

    /// Overrides the failover retry budget.
    pub fn with_retry_budget(mut self, capacity: u32, refill_per_sec: f64) -> Self {
        self.retry_budget = capacity;
        self.retry_refill_per_sec = refill_per_sec;
        self
    }

    pub(crate) fn sanitized(mut self) -> Self {
        if self.check_interval < Duration::from_micros(100) {
            self.check_interval = Duration::from_micros(100);
        }
        if self.error_rate_threshold.is_nan() || self.error_rate_threshold <= 0.0 {
            self.error_rate_threshold = 1.0;
        }
        self.error_rate_threshold = self.error_rate_threshold.min(1.0);
        self.stall_checks = self.stall_checks.max(1);
        self.probation_stride = self.probation_stride.max(1);
        self.probation_checks = self.probation_checks.max(1);
        if !self.retry_refill_per_sec.is_finite() || self.retry_refill_per_sec < 0.0 {
            self.retry_refill_per_sec = 0.0;
        }
        self
    }
}

/// Token bucket bounding cross-shard failover retries: `capacity` burst
/// tokens, refilled continuously. A retry takes one token; with none
/// available the original error propagates (counted in
/// [`FleetStats::retries_denied`](super::FleetStats::retries_denied)).
pub(crate) struct RetryBudget {
    capacity: f64,
    refill_per_sec: f64,
    bucket: StdMutex<TokenBucket>,
}

impl RetryBudget {
    pub(crate) fn new(capacity: u32, refill_per_sec: f64, now: Instant) -> Self {
        let capacity = f64::from(capacity);
        Self {
            capacity,
            refill_per_sec,
            bucket: StdMutex::new(TokenBucket::full(capacity, now)),
        }
    }

    /// Takes one token if available, refilling lazily from elapsed time.
    pub(crate) fn try_take(&self, now: Instant) -> bool {
        lock(&self.bucket).try_take(now, self.refill_per_sec, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_word_roundtrips() {
        for fault in [
            None,
            Some(InducedFault::Crash),
            Some(InducedFault::ModelOutage),
            Some(InducedFault::Stall(Duration::ZERO)),
            Some(InducedFault::Stall(Duration::from_micros(1))),
            Some(InducedFault::Stall(Duration::from_secs(3600))),
        ] {
            assert_eq!(decode_fault(encode_fault(fault)), fault);
        }
        assert_eq!(encode_fault(None), 0, "inactive word must be zero");
        // An over-wide stall delay clamps instead of corrupting the kind.
        let word = encode_fault(Some(InducedFault::Stall(Duration::MAX)));
        assert!(matches!(
            decode_fault(word),
            Some(InducedFault::Stall(d)) if d > Duration::from_secs(3600)
        ));
    }

    #[test]
    fn health_policy_sanitizes() {
        let policy = HealthPolicy {
            check_interval: Duration::ZERO,
            error_rate_threshold: f64::NAN,
            probation_stride: 0,
            probation_checks: 0,
            stall_checks: 0,
            retry_refill_per_sec: f64::NEG_INFINITY,
            ..HealthPolicy::default()
        }
        .sanitized();
        assert!(policy.check_interval > Duration::ZERO);
        assert!((0.0..=1.0).contains(&policy.error_rate_threshold));
        assert!(policy.error_rate_threshold > 0.0);
        assert_eq!(policy.probation_stride, 1);
        assert_eq!(policy.probation_checks, 1);
        assert_eq!(policy.stall_checks, 1);
        assert_eq!(policy.retry_refill_per_sec, 0.0);
    }

    #[test]
    fn health_state_machine_labels() {
        for (value, state) in [
            (0u8, HealthState::Healthy),
            (1, HealthState::Suspect),
            (2, HealthState::Quarantined),
            (3, HealthState::Probation),
        ] {
            assert_eq!(HealthState::from_u8(value), state);
            assert_eq!(state as u8, value);
        }
        assert!(HealthState::Healthy.is_routable());
        assert!(HealthState::Suspect.is_routable());
        assert!(!HealthState::Quarantined.is_routable());
        assert!(!HealthState::Probation.is_routable());
        assert_eq!(HealthState::default(), HealthState::Healthy);
        assert_eq!(HealthState::Quarantined.name(), "quarantined");
    }

    #[test]
    fn retry_budget_bounds_and_refills() {
        let t0 = Instant::now();
        let budget = RetryBudget::new(2, 10.0, t0);
        assert!(budget.try_take(t0));
        assert!(budget.try_take(t0));
        assert!(!budget.try_take(t0), "burst capacity must bound retries");
        // 100 ms at 10 tokens/s refills one token.
        let later = t0 + Duration::from_millis(100);
        assert!(budget.try_take(later));
        assert!(!budget.try_take(later));
        // Refill never exceeds capacity.
        let much_later = t0 + Duration::from_secs(3600);
        assert!(budget.try_take(much_later));
        assert!(budget.try_take(much_later));
        assert!(!budget.try_take(much_later));
        // Zero capacity disables retries entirely.
        let none = RetryBudget::new(0, 100.0, t0);
        assert!(!none.try_take(t0 + Duration::from_secs(10)));
    }
}
