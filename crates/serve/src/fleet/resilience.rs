//! Fleet resilience: deterministic shard fault injection, the per-shard
//! health state machine, and the cross-shard failover retry budget.
//!
//! The engine made *queries* survive executor loss (`ae_engine::faults`);
//! this module gives the fleet the same end-to-end story for *shards*.
//! Three pieces, all opt-in (see `docs/resilience.md`):
//!
//! * [`FleetFaultPlan`] — a deterministic chaos schedule mirroring the
//!   engine's `FaultPlan` contract: each fault kind draws its arrival
//!   times from its own shard-index-keyed [`rand::derive_stream_seed`]
//!   stream, so a shard's faults never depend on how many other shards
//!   exist, and the same `(plan, shard count)` always yields the same
//!   [`schedule`](FleetFaultPlan::schedule). [`FleetFaultPlan::none`] is
//!   provably inert: no injector thread spawns and every hot-path check
//!   is one untaken branch, keeping the zero-fault fleet bit-identical.
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

use ae_engine::exp_sample;
use rand::rngs::StdRng;
use rand::{derive_stream_seed, SeedableRng};

use crate::runtime::lock;
use crate::tenant::TokenBucket;

/// Salt of the shard-crash arrival stream (`"CRASH"`).
const CRASH_STREAM_SALT: u64 = 0x43_52_41_53_48;
/// Salt of the shard-stall arrival stream (`"STALL"`).
const STALL_STREAM_SALT: u64 = 0x53_54_41_4C_4C;
/// Salt of the model-outage arrival stream (`"OUTAGE"`).
const OUTAGE_STREAM_SALT: u64 = 0x4F_55_54_41_47_45;

/// A fault induced on one shard's runtime (chaos injection).
///
/// Faults change *failure behavior*, never answers: a faulted shard
/// either errors, slows down, or loses its model path — requests that do
/// complete still score through the same pure functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InducedFault {
    /// The shard fails every scoring attempt outright (hard error on the
    /// model *and* fallback path), as if its process died.
    Crash,
    /// The shard stalls: every drained batch is delayed by this much
    /// before scoring, starving its queue (a straggler shard).
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

/// A deterministic shard-fault schedule for a `ShardedRuntime`
/// ([`super::ShardedRuntime`](super::sharded::ShardedRuntime)), mirroring the engine's `FaultPlan`
/// contract: per-entity seed streams, exponential inter-arrivals, and a
/// provably inert [`none`](Self::none).
///
/// Rates are events per shard-**second** (serving chaos runs on a
/// much shorter clock than the engine's per-minute query simulation).
/// Each fault occupies the shard for its duration; the next arrival of
/// the same kind is drawn after the previous one clears, so one kind's
/// windows never overlap on one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFaultPlan {
    /// Base seed; each `(kind, shard)` pair derives its own stream.
    pub seed: u64,
    /// Shard-crash arrivals per shard-second (0 disables).
    pub crash_rate_per_sec: f64,
    /// How long a crashed shard stays dead before reviving.
    pub crash_duration: Duration,
    /// Shard-stall arrivals per shard-second (0 disables).
    pub stall_rate_per_sec: f64,
    /// How long a stall window lasts.
    pub stall_duration: Duration,
    /// Per-batch delay injected while a shard is stalled.
    pub stall_delay: Duration,
    /// Model-outage arrivals per shard-second (0 disables).
    pub outage_rate_per_sec: f64,
    /// How long a model outage lasts.
    pub outage_duration: Duration,
    /// Schedule horizon: no fault *starts* at or after this offset from
    /// fleet start (in-progress faults still run to completion).
    pub horizon: Duration,
}

impl Default for FleetFaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FleetFaultPlan {
    /// No faults: every rate zero. The fleet spawns no injector thread
    /// and behaves bit-identically to one built without a plan (pinned
    /// by `tests/fleet_resilience.rs`).
    pub fn none() -> Self {
        Self {
            seed: 0,
            crash_rate_per_sec: 0.0,
            crash_duration: Duration::from_millis(250),
            stall_rate_per_sec: 0.0,
            stall_duration: Duration::from_millis(250),
            stall_delay: Duration::from_millis(5),
            outage_rate_per_sec: 0.0,
            outage_duration: Duration::from_millis(250),
            horizon: Duration::from_secs(60),
        }
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables shard crashes at `rate_per_sec`, each lasting `duration`.
    pub fn with_crashes(mut self, rate_per_sec: f64, duration: Duration) -> Self {
        self.crash_rate_per_sec = rate_per_sec;
        self.crash_duration = duration;
        self
    }

    /// Enables shard stalls at `rate_per_sec`: for `duration`, every
    /// drained batch is delayed by `delay`.
    pub fn with_stalls(mut self, rate_per_sec: f64, duration: Duration, delay: Duration) -> Self {
        self.stall_rate_per_sec = rate_per_sec;
        self.stall_duration = duration;
        self.stall_delay = delay;
        self
    }

    /// Enables model outages at `rate_per_sec`, each lasting `duration`.
    pub fn with_outages(mut self, rate_per_sec: f64, duration: Duration) -> Self {
        self.outage_rate_per_sec = rate_per_sec;
        self.outage_duration = duration;
        self
    }

    /// Sets the schedule horizon.
    pub fn with_horizon(mut self, horizon: Duration) -> Self {
        self.horizon = horizon;
        self
    }

    /// True when any fault kind has a positive rate — the condition for
    /// spawning the fleet's injector thread.
    pub fn is_active(&self) -> bool {
        self.crash_rate_per_sec > 0.0
            || self.stall_rate_per_sec > 0.0
            || self.outage_rate_per_sec > 0.0
    }

    /// Validates the plan: rates must be finite and non-negative.
    pub fn validate(&self) -> std::result::Result<(), String> {
        for (name, rate) in [
            ("crash", self.crash_rate_per_sec),
            ("stall", self.stall_rate_per_sec),
            ("outage", self.outage_rate_per_sec),
        ] {
            if !rate.is_finite() || rate < 0.0 {
                return Err(format!("{name} rate must be finite and >= 0, got {rate}"));
            }
        }
        Ok(())
    }

    /// Clamps invalid rates to zero (the fleet-config sanitizer; callers
    /// that want an error use [`validate`](Self::validate)).
    pub(crate) fn sanitized(mut self) -> Self {
        for rate in [
            &mut self.crash_rate_per_sec,
            &mut self.stall_rate_per_sec,
            &mut self.outage_rate_per_sec,
        ] {
            if !rate.is_finite() || *rate < 0.0 {
                *rate = 0.0;
            }
        }
        self
    }

    /// The full fault schedule for a fleet of `shards` shards: a pure
    /// function of `(plan, shards)`, sorted by start offset.
    ///
    /// Each `(kind, shard)` pair draws from its own derived stream, so a
    /// shard's schedule is identical in a 2-shard and an 8-shard fleet —
    /// the same per-entity independence the engine's executor lifetimes
    /// have.
    pub fn schedule(&self, shards: usize) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for shard in 0..shards {
            self.stream_events(
                &mut events,
                shard,
                CRASH_STREAM_SALT,
                self.crash_rate_per_sec,
                self.crash_duration,
                InducedFault::Crash,
            );
            self.stream_events(
                &mut events,
                shard,
                STALL_STREAM_SALT,
                self.stall_rate_per_sec,
                self.stall_duration,
                InducedFault::Stall(self.stall_delay),
            );
            self.stream_events(
                &mut events,
                shard,
                OUTAGE_STREAM_SALT,
                self.outage_rate_per_sec,
                self.outage_duration,
                InducedFault::ModelOutage,
            );
        }
        events.sort_by_key(|e| (e.at, e.shard));
        events
    }

    /// Appends one `(kind, shard)` stream's events: exponential
    /// inter-arrivals at `rate`, each window `duration` long, the next
    /// arrival drawn after the previous window clears.
    fn stream_events(
        &self,
        out: &mut Vec<FaultEvent>,
        shard: usize,
        salt: u64,
        rate: f64,
        duration: Duration,
        fault: InducedFault,
    ) {
        if rate <= 0.0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(self.seed ^ salt, shard as u64));
        let horizon = self.horizon.as_secs_f64();
        let mut t = 0.0f64;
        loop {
            t += exp_sample(&mut rng, rate);
            if !t.is_finite() || t >= horizon {
                return;
            }
            let at = Duration::from_secs_f64(t);
            out.push(FaultEvent {
                at,
                until: at + duration,
                shard,
                fault,
            });
            t += duration.as_secs_f64();
        }
    }
}

/// One scheduled fault window: `fault` strikes `shard` at offset `at`
/// from fleet start and clears at `until`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Start offset from fleet start.
    pub at: Duration,
    /// Clear offset from fleet start.
    pub until: Duration,
    /// Target shard index.
    pub shard: usize,
    /// What strikes the shard.
    pub fault: InducedFault,
}

/// One shard's position in the fleet health state machine.
///
/// ```text
/// Healthy ──bad check──▶ Suspect ──bad check──▶ Quarantined
///    ▲                      │                        │ hold elapses
///    │                   good check                  ▼
///    │◀── clean trickle ── Probation ◀───────────────┘
///              (errors re-quarantine)
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
    /// Consecutive clean checks (no errors) before re-admission.
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
    fn none_plan_is_inert_and_empty() {
        let plan = FleetFaultPlan::none();
        assert!(!plan.is_active());
        assert!(plan.validate().is_ok());
        assert!(plan.schedule(8).is_empty());
        assert_eq!(FleetFaultPlan::default(), plan);
    }

    #[test]
    fn schedule_is_deterministic_and_per_shard_independent() {
        let plan = FleetFaultPlan::none()
            .with_seed(42)
            .with_crashes(2.0, Duration::from_millis(100))
            .with_stalls(1.0, Duration::from_millis(50), Duration::from_millis(2))
            .with_outages(0.5, Duration::from_millis(200))
            .with_horizon(Duration::from_secs(10));
        assert!(plan.is_active());
        let a = plan.schedule(4);
        let b = plan.schedule(4);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same (plan, shards) must yield the same schedule");
        // Per-shard streams: shard 2's events are identical whether the
        // fleet has 4 or 8 shards.
        let wide = plan.schedule(8);
        let shard2 = |events: &[FaultEvent]| -> Vec<FaultEvent> {
            events.iter().copied().filter(|e| e.shard == 2).collect()
        };
        assert_eq!(shard2(&a), shard2(&wide));
        // Ordered by start, inside the horizon, windows well-formed.
        for pair in a.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        for event in &a {
            assert!(event.at < plan.horizon);
            assert!(event.until > event.at);
        }
        // A different seed draws a different schedule.
        assert_ne!(plan.with_seed(43).schedule(4), a);
    }

    #[test]
    fn schedule_matches_the_recorded_fingerprint() {
        // Every window of a three-kind schedule over 8 shards — start and
        // clear offsets in nanoseconds, shard, fault — pinned bit for bit.
        let plan = FleetFaultPlan::none()
            .with_seed(42)
            .with_crashes(2.0, Duration::from_millis(100))
            .with_stalls(1.0, Duration::from_millis(50), Duration::from_millis(2))
            .with_outages(0.5, Duration::from_millis(200))
            .with_horizon(Duration::from_secs(30));
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for event in plan.schedule(8) {
            for v in [
                event.at.as_nanos() as u64,
                event.until.as_nanos() as u64,
                event.shard as u64,
                encode_fault(Some(event.fault)),
            ] {
                for b in v.to_le_bytes() {
                    hash ^= u64::from(b);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, 7256285771352612417);
    }

    #[test]
    fn same_kind_windows_never_overlap_on_one_shard() {
        let plan = FleetFaultPlan::none()
            .with_seed(7)
            .with_crashes(20.0, Duration::from_millis(80))
            .with_horizon(Duration::from_secs(5));
        let events = plan.schedule(2);
        for shard in 0..2 {
            let mine: Vec<&FaultEvent> = events.iter().filter(|e| e.shard == shard).collect();
            for pair in mine.windows(2) {
                assert!(
                    pair[1].at >= pair[0].until,
                    "crash windows overlap on shard {shard}"
                );
            }
        }
    }

    #[test]
    fn validate_and_sanitize_reject_bad_rates() {
        let bad = FleetFaultPlan::none().with_crashes(f64::NAN, Duration::from_millis(1));
        assert!(bad.validate().is_err());
        assert_eq!(bad.sanitized().crash_rate_per_sec, 0.0);
        let negative = FleetFaultPlan::none().with_outages(-1.0, Duration::from_millis(1));
        assert!(negative.validate().is_err());
        assert!(!negative.sanitized().is_active());
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
