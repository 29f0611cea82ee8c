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
//! * [`HealthPolicy`] / [`HealthState`] — how each health pass,
//!   [`ShardedRuntime::tick`](super::ShardedRuntime::tick), turns a
//!   shard's failure rate (errors and degraded answers) and drain
//!   progress into the `Healthy → Suspect → Quarantined → Probation`
//!   machine that drives failover and recovery (implemented in
//!   [`super::sharded`]). The caller owns the clock: the fleet runs no
//!   thread of its own.
//! * `RetryBudget` (crate-internal) — a token bucket bounding cross-shard
//!   re-submission of failed requests, so a dying shard cannot amplify
//!   its own load onto survivors. Ticks refill it.

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

/// How the fleet's health passes detect, quarantine, and re-admit
/// shards. Attach with
/// [`FleetConfig::with_health`](super::FleetConfig::with_health); `None`
/// (the default) makes [`ShardedRuntime::tick`](super::ShardedRuntime::tick)
/// a no-op. Each tick checks every shard over the window since the
/// previous tick, so the caller picks the period. The rest of the rule is
/// fixed: a window is bad when at least half its events are errors or
/// degraded answers, and probation diverts every 4th non-`Interactive`
/// submission to the shard and re-admits it after 8 clean completions and
/// 2 clean checks in a row.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthPolicy {
    /// Event floor (completions plus errors in one window) before the
    /// failure rate counts: one unlucky request must not condemn an idle
    /// shard.
    pub min_window_events: u64,
    /// Drain-stall watchdog: a check is bad when the shard has at least
    /// this many queued requests and completed nothing, for
    /// [`stall_checks`](Self::stall_checks) consecutive checks.
    pub stall_depth: usize,
    /// Consecutive no-progress checks that count as one bad check.
    pub stall_checks: u32,
    /// Time a quarantined shard sits out before probation begins.
    pub quarantine_hold: Duration,
    /// Failover retry token bucket capacity (0 disables cross-shard
    /// retries).
    pub retry_budget: u32,
    /// Failover retry tokens earned per second of tick time.
    pub retry_refill_per_sec: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            min_window_events: 8,
            stall_depth: 1,
            stall_checks: 3,
            quarantine_hold: Duration::from_millis(50),
            retry_budget: 64,
            retry_refill_per_sec: 32.0,
        }
    }
}

impl HealthPolicy {
    /// Overrides the failure-rate event floor.
    pub fn with_min_window_events(mut self, events: u64) -> Self {
        self.min_window_events = events;
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

    /// Overrides the failover retry budget.
    pub fn with_retry_budget(mut self, capacity: u32, refill_per_sec: f64) -> Self {
        self.retry_budget = capacity;
        self.retry_refill_per_sec = refill_per_sec;
        self
    }

    pub(crate) fn sanitized(mut self) -> Self {
        self.stall_checks = self.stall_checks.max(1);
        if !self.retry_refill_per_sec.is_finite() || self.retry_refill_per_sec < 0.0 {
            self.retry_refill_per_sec = 0.0;
        }
        self
    }
}

/// Token bucket bounding cross-shard failover retries: `capacity` burst
/// tokens. A retry takes one token without reading a clock; with none
/// available the original error propagates (counted in
/// [`FleetStats::retries_denied`](super::FleetStats::retries_denied)).
/// Only [`refill`](Self::refill), called by each tick, adds tokens.
pub(crate) struct RetryBudget {
    capacity: f64,
    refill_per_sec: f64,
    bucket: StdMutex<TokenBucket>,
}

impl RetryBudget {
    pub(crate) fn new(capacity: u32, refill_per_sec: f64) -> Self {
        let capacity = f64::from(capacity);
        Self {
            capacity,
            refill_per_sec,
            bucket: StdMutex::new(TokenBucket::full(capacity)),
        }
    }

    /// Takes one token if one is left.
    pub(crate) fn try_take(&self) -> bool {
        lock(&self.bucket).take()
    }

    /// Adds the tokens earned since the previous tick (the first tick
    /// only sets the bucket's instant, and an earlier one is ignored).
    pub(crate) fn refill(&self, now: Instant) {
        lock(&self.bucket).refill(now, self.refill_per_sec, self.capacity);
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
            stall_checks: 0,
            retry_refill_per_sec: f64::NEG_INFINITY,
            ..HealthPolicy::default()
        }
        .sanitized();
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
        let budget = RetryBudget::new(2, 10.0);
        assert!(budget.try_take());
        assert!(budget.try_take());
        assert!(!budget.try_take(), "burst capacity must bound retries");
        // The first tick only sets the instant.
        budget.refill(t0 + Duration::from_secs(5));
        assert!(!budget.try_take());
        // 100 ms at 10 tokens/s refills one token.
        let later = t0 + Duration::from_secs(5) + Duration::from_millis(100);
        budget.refill(later);
        assert!(budget.try_take());
        assert!(!budget.try_take());
        // An earlier instant neither refills nor moves the bucket back, so
        // the next 100 ms forward earns one token, not more.
        budget.refill(t0);
        assert!(!budget.try_take());
        budget.refill(later + Duration::from_millis(100));
        assert!(budget.try_take());
        assert!(!budget.try_take());
        // Refill never exceeds capacity.
        budget.refill(later + Duration::from_secs(3600));
        assert!(budget.try_take());
        assert!(budget.try_take());
        assert!(!budget.try_take());
        // Zero capacity disables retries entirely.
        let none = RetryBudget::new(0, 100.0);
        none.refill(t0);
        none.refill(t0 + Duration::from_secs(10));
        assert!(!none.try_take());
    }
}
