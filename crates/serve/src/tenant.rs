//! Multi-tenant fairness: per-tenant token buckets over the admission path.
//!
//! A serving tier shared by many tenants must not let one tenant's flood
//! starve everyone else's promises. The governor here is a classic
//! token-bucket rate limiter keyed by [`TenantId`]: each tenant accrues
//! tokens at `rate_qps` up to a burst ceiling, every admitted request
//! spends one token, and a request arriving with an empty bucket is either
//! **demoted** to [`BestEffort`](crate::qos::ServiceLevel::BestEffort)
//! (default — the flood keeps flowing but becomes the first thing shed
//! under saturation, so in-rate tenants keep their service levels) or
//! **rejected** outright with
//! [`ServeError::Throttled`](crate::ServeError::Throttled).
//!
//! The governor polices *admission class*, never *answers*: a demoted
//! request is scored exactly like any other, it just waits (and sheds)
//! like best-effort traffic. Deterministic-mode configurations leave
//! fairness disabled ([`QosConfig::fairness`](crate::qos::QosConfig) is
//! `None`), so the PR 2/3 bit-identical serving contract is untouched.

use std::collections::HashMap;
use std::sync::Mutex as StdMutex;
use std::time::Instant;

use crate::runtime::lock;

/// Identifies the tenant a request is accounted against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// What happens to a request whose tenant is over its token-bucket rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleAction {
    /// Admit the request demoted to `BestEffort`: it still completes under
    /// light load but is the first thing shed under saturation.
    Demote,
    /// Reject the request with [`ServeError::Throttled`](crate::ServeError::Throttled).
    Reject,
}

/// Per-tenant token-bucket policy (uniform across tenants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPolicy {
    /// Sustained per-tenant admission rate in requests per second; tokens
    /// refill continuously at this rate. A rate of `0` makes the bucket a
    /// pure burst allowance — useful for deterministic tests.
    pub rate_qps: f64,
    /// Bucket capacity: how many requests a tenant may burst above the
    /// sustained rate. Buckets start full.
    pub burst: f64,
    /// Disposition of over-rate requests.
    pub on_violation: ThrottleAction,
}

impl TenantPolicy {
    /// A demote-on-violation policy (the default disposition).
    pub fn demote(rate_qps: f64, burst: f64) -> Self {
        Self {
            rate_qps,
            burst,
            on_violation: ThrottleAction::Demote,
        }
    }

    /// A reject-on-violation policy.
    pub fn reject(rate_qps: f64, burst: f64) -> Self {
        Self {
            rate_qps,
            burst,
            on_violation: ThrottleAction::Reject,
        }
    }
}

/// The admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// In rate: admit at the requested level.
    Granted,
    /// Over rate, policy demotes: admit at `BestEffort`.
    Demoted,
    /// Over rate, policy rejects: fail with `Throttled`.
    Rejected,
}

/// A continuously refilling token bucket: it starts full, refills at
/// `rate` tokens per second up to `burst`, and each admitted action takes
/// one token. The caller supplies the rate and burst and does the locking,
/// so one governor can keep a map of buckets under one lock. Both the
/// tenant governor and the fleet's failover retry budget use it; the
/// retry budget takes tokens without a clock and refills on fleet ticks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TokenBucket {
    tokens: f64,
    /// The instant of the last refill; `None` until the first.
    last_refill: Option<Instant>,
}

impl TokenBucket {
    /// A full bucket.
    pub(crate) fn full(burst: f64) -> Self {
        Self {
            tokens: burst,
            last_refill: None,
        }
    }

    /// Adds the tokens earned since the last refill. The first call only
    /// sets the instant; an instant at or before the last one (a clock
    /// read racing another thread's) adds nothing and is not kept, so the
    /// bucket's instant never moves back.
    pub(crate) fn refill(&mut self, now: Instant, rate: f64, burst: f64) {
        if let Some(last) = self.last_refill {
            if now <= last {
                return;
            }
            self.tokens = (self.tokens + (now - last).as_secs_f64() * rate).min(burst);
        }
        self.last_refill = Some(now);
    }

    /// Takes one token if one is left.
    pub(crate) fn take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The shared fairness governor: a token bucket per observed tenant.
///
/// State is a mutex-guarded map — admission already serializes briefly on
/// the queue lock, and the critical section here is a few float ops. The
/// map is bounded: once it holds [`SWEEP_THRESHOLD`] tenants, entries
/// idle long enough to have refilled to a full burst are swept — a fresh
/// bucket is indistinguishable from a fully-refilled one, so eviction
/// never changes an admission decision. (A `rate_qps` of `0` disables
/// refill and therefore sweeping; that degenerate policy is meant for
/// deterministic tests, not long-lived high-cardinality deployments. A
/// policy whose refill period `burst / rate_qps` is no finite,
/// non-negative duration — an infinite, NaN or negative burst, or a rate
/// so small the ratio overflows — never sweeps either.)
pub(crate) struct TenantGovernor {
    policy: TenantPolicy,
    buckets: StdMutex<HashMap<TenantId, TokenBucket>>,
}

/// Map size at which [`TenantGovernor::admit`] sweeps refilled-idle
/// buckets before inserting new ones.
const SWEEP_THRESHOLD: usize = 4096;

impl TenantGovernor {
    pub(crate) fn new(policy: TenantPolicy) -> Self {
        Self {
            policy,
            buckets: StdMutex::new(HashMap::new()),
        }
    }

    /// Charges one request to `tenant`'s bucket at time `now` and returns
    /// the admission decision.
    pub(crate) fn admit(&self, tenant: TenantId, now: Instant) -> Admission {
        let mut buckets = lock(&self.buckets);
        if buckets.len() >= SWEEP_THRESHOLD && self.policy.rate_qps > 0.0 {
            // Entries idle past a full refill period carry no state a
            // fresh bucket would not: drop them to bound the map.
            if let Ok(full_refill) =
                std::time::Duration::try_from_secs_f64(self.policy.burst / self.policy.rate_qps)
            {
                buckets.retain(|_, bucket| {
                    bucket
                        .last_refill
                        .is_some_and(|at| now.saturating_duration_since(at) < full_refill)
                });
            }
        }
        let bucket = buckets
            .entry(tenant)
            .or_insert_with(|| TokenBucket::full(self.policy.burst));
        bucket.refill(now, self.policy.rate_qps, self.policy.burst);
        if bucket.take() {
            Admission::Granted
        } else {
            match self.policy.on_violation {
                ThrottleAction::Demote => Admission::Demoted,
                ThrottleAction::Reject => Admission::Rejected,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn burst_is_granted_then_policy_applies() {
        let governor = TenantGovernor::new(TenantPolicy::demote(0.0, 3.0));
        let now = Instant::now();
        let tenant = TenantId(7);
        for _ in 0..3 {
            assert_eq!(governor.admit(tenant, now), Admission::Granted);
        }
        assert_eq!(governor.admit(tenant, now), Admission::Demoted);

        let governor = TenantGovernor::new(TenantPolicy::reject(0.0, 1.0));
        assert_eq!(governor.admit(tenant, now), Admission::Granted);
        assert_eq!(governor.admit(tenant, now), Admission::Rejected);
    }

    #[test]
    fn tenants_have_independent_buckets() {
        let governor = TenantGovernor::new(TenantPolicy::demote(0.0, 1.0));
        let now = Instant::now();
        assert_eq!(governor.admit(TenantId(1), now), Admission::Granted);
        assert_eq!(governor.admit(TenantId(1), now), Admission::Demoted);
        // A different tenant's bucket is untouched by tenant 1's flood.
        assert_eq!(governor.admit(TenantId(2), now), Admission::Granted);
    }

    #[test]
    fn idle_refilled_buckets_are_swept_to_bound_the_map() {
        let governor = TenantGovernor::new(TenantPolicy::demote(10.0, 2.0));
        let start = Instant::now();
        // Fill the map to the sweep threshold with distinct tenants.
        for id in 0..super::SWEEP_THRESHOLD as u64 {
            governor.admit(TenantId(id), start);
        }
        assert_eq!(
            governor.buckets.lock().unwrap().len(),
            super::SWEEP_THRESHOLD
        );
        // Long past a full refill (burst/rate = 200 ms), a new tenant's
        // admission sweeps every idle entry; admissions still behave as if
        // the swept buckets were fully refilled.
        let later = start + Duration::from_secs(5);
        assert_eq!(
            governor.admit(TenantId(u64::MAX), later),
            Admission::Granted
        );
        assert_eq!(governor.buckets.lock().unwrap().len(), 1);
        assert_eq!(governor.admit(TenantId(0), later), Admission::Granted);
    }

    #[test]
    fn unrepresentable_refill_periods_skip_the_sweep_instead_of_panicking() {
        let start = Instant::now();
        let later = start + Duration::from_secs(5);
        for policy in [
            TenantPolicy::demote(10.0, f64::INFINITY),
            TenantPolicy::demote(10.0, f64::NAN),
            TenantPolicy::demote(10.0, -2.0),
            TenantPolicy::demote(1e-300, 2.0),
        ] {
            let governor = TenantGovernor::new(policy);
            for id in 0..=super::SWEEP_THRESHOLD as u64 {
                governor.admit(TenantId(id), start);
            }
            // Past the threshold: the next admission would sweep.
            governor.admit(TenantId(u64::MAX), later);
            assert_eq!(
                governor.buckets.lock().unwrap().len(),
                super::SWEEP_THRESHOLD + 2,
                "{policy:?}: no refill period, so nothing is swept"
            );
        }
    }

    #[test]
    fn tokens_refill_at_the_sustained_rate_up_to_burst() {
        let governor = TenantGovernor::new(TenantPolicy::demote(10.0, 2.0));
        let start = Instant::now();
        let tenant = TenantId(3);
        assert_eq!(governor.admit(tenant, start), Admission::Granted);
        assert_eq!(governor.admit(tenant, start), Admission::Granted);
        assert_eq!(governor.admit(tenant, start), Admission::Demoted);
        // 100 ms at 10 qps refills one token.
        let later = start + Duration::from_millis(100);
        assert_eq!(governor.admit(tenant, later), Admission::Granted);
        assert_eq!(governor.admit(tenant, later), Admission::Demoted);
        // A long idle period refills to the burst ceiling, not beyond.
        let much_later = start + Duration::from_secs(60);
        assert_eq!(governor.admit(tenant, much_later), Admission::Granted);
        assert_eq!(governor.admit(tenant, much_later), Admission::Granted);
        assert_eq!(governor.admit(tenant, much_later), Admission::Demoted);
    }
}
