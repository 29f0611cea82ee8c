//! Fleet-level statistics: per-shard snapshots plus exact aggregation.
//!
//! Every request counter in the fleet lives in exactly one shard's
//! [`StatsInner`](crate::stats)-backed [`RuntimeStats`] — the fleet layer
//! adds only the resilience counters it owns itself. Aggregation is
//! therefore pure summation ([`RuntimeStats::merge_from`]), and the
//! invariant the test battery pins is *exactness*: fleet totals equal the
//! sum of per-shard counters, with evacuated and retried requests counted
//! once, by the shard that scored them (`tests/fleet_stress.rs`).

use super::resilience::HealthState;
use crate::stats::RuntimeStats;

/// A point-in-time snapshot of every shard's counters plus the fleet's
/// own resilience accounting, as returned by
/// [`ShardedRuntime::stats`](super::ShardedRuntime::stats).
///
/// The consistency contract is the per-shard one (see
/// [`crate::stats`]): each shard snapshot may be torn across counters
/// while requests are in flight, and is exact once that shard is
/// quiescent. The fleet's own counters are read after the shard
/// snapshots, so a quiescent fleet's snapshot is exact end to end.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// One counter snapshot per shard, indexed by shard id.
    pub shards: Vec<RuntimeStats>,
    /// Shard quarantine transitions (a shard re-quarantined after a
    /// failed probation counts again).
    pub quarantines: u64,
    /// Probationary re-admissions back onto the routing ring.
    pub recoveries: u64,
    /// Queued requests evacuated out of quarantined shards into
    /// survivors. A flow counter, not part of any completion total: each
    /// evacuee's completion is counted once, by the shard that scored it.
    pub evacuated_requests: u64,
    /// Cross-shard failover retry *attempts* (each consumed one budget
    /// token). A rescued retry leaves one error on the failed shard and
    /// one completion on the target, so for a quiescent fleet
    /// `aggregate().errors == client-visible errors + failover_retries`.
    pub failover_retries: u64,
    /// Retryable failures that could not be retried because the token
    /// bucket was empty (the original error propagated to the client).
    pub retries_denied: u64,
    /// Every shard's health state at snapshot time, indexed by shard id.
    /// All [`HealthState::Healthy`] when no health policy is configured.
    pub health: Vec<HealthState>,
}

impl FleetStats {
    /// Number of shards in the snapshot.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's counters.
    pub fn shard(&self, shard: usize) -> &RuntimeStats {
        &self.shards[shard]
    }

    /// The fleet-wide totals: every shard's counters summed field-by-field
    /// via [`RuntimeStats::merge_from`]. Because each request is counted
    /// by exactly one shard (evacuated requests by the shard that scored
    /// them), `aggregate().completed` equals the number of requests the
    /// fleet answered successfully — the exactness `tests/fleet_stress.rs`
    /// proves under concurrent load.
    pub fn aggregate(&self) -> RuntimeStats {
        let mut total = RuntimeStats::default();
        for shard in &self.shards {
            total.merge_from(shard);
        }
        total
    }

    /// Counter-wise difference against an earlier snapshot of the same
    /// fleet: each shard diffed via [`RuntimeStats::delta_since`]
    /// (saturating, per the per-runtime contract), the fleet's own
    /// counters diffed saturating too.
    ///
    /// # Panics
    ///
    /// Panics when the snapshots disagree on shard count — deltas are
    /// only meaningful between snapshots of one fleet.
    pub fn delta_since(&self, before: &FleetStats) -> FleetStats {
        assert_eq!(
            self.shards.len(),
            before.shards.len(),
            "fleet delta requires snapshots of the same fleet"
        );
        FleetStats {
            shards: self
                .shards
                .iter()
                .zip(&before.shards)
                .map(|(now, then)| now.delta_since(then))
                .collect(),
            quarantines: self.quarantines.saturating_sub(before.quarantines),
            recoveries: self.recoveries.saturating_sub(before.recoveries),
            evacuated_requests: self
                .evacuated_requests
                .saturating_sub(before.evacuated_requests),
            failover_retries: self
                .failover_retries
                .saturating_sub(before.failover_retries),
            retries_denied: self.retries_denied.saturating_sub(before.retries_denied),
            // Health is a point-in-time state, not a counter: a delta
            // carries the *current* (newer) states.
            health: self.health.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::ServiceLevel;
    use crate::stats::LevelStats;

    fn shard_stats(base: u64) -> RuntimeStats {
        RuntimeStats {
            completed: base,
            inline_scored: base / 2,
            batches: base / 3,
            dropped: 1,
            errors: 2,
            levels: std::array::from_fn(|i| LevelStats {
                completed: base + i as u64,
                deadline_misses: i as u64,
                shed: 1,
            }),
            demoted: 3,
            throttled: 4,
            degraded: 5,
            breaker_trips: base % 3,
            batch_size_histogram: vec![base, 0, 1],
        }
    }

    #[test]
    fn aggregate_sums_every_shard_exactly() {
        let fleet = FleetStats {
            shards: vec![shard_stats(10), shard_stats(20), shard_stats(31)],
            evacuated_requests: 9,
            ..FleetStats::default()
        };
        let total = fleet.aggregate();
        assert_eq!(total.completed, 10 + 20 + 31);
        assert_eq!(total.inline_scored, 5 + 10 + 15);
        assert_eq!(total.batches, 3 + 6 + 10);
        assert_eq!(total.dropped, 3);
        assert_eq!(total.errors, 6);
        assert_eq!(total.demoted, 9);
        assert_eq!(total.throttled, 12);
        assert_eq!(total.degraded, 15);
        // Breaker trips are per-runtime; the fleet total is their sum.
        assert_eq!(total.breaker_trips, 1 + 2 + 1);
        for level in ServiceLevel::ALL {
            let i = level.index() as u64;
            assert_eq!(total.level(level).completed, (10 + i) + (20 + i) + (31 + i));
            assert_eq!(total.level(level).deadline_misses, 3 * i);
            assert_eq!(total.level(level).shed, 3);
        }
        assert_eq!(total.batch_size_histogram, vec![61, 0, 3]);
    }

    #[test]
    fn delta_is_per_shard_and_saturating() {
        let before = FleetStats {
            shards: vec![shard_stats(10), shard_stats(20)],
            quarantines: 1,
            recoveries: 0,
            evacuated_requests: 5,
            failover_retries: 2,
            retries_denied: 0,
            health: vec![HealthState::Healthy, HealthState::Quarantined],
        };
        let after = FleetStats {
            shards: vec![shard_stats(15), shard_stats(20)],
            quarantines: 2,
            recoveries: 1,
            evacuated_requests: 12,
            failover_retries: 5,
            retries_denied: 1,
            health: vec![HealthState::Healthy, HealthState::Probation],
        };
        let delta = after.delta_since(&before);
        assert_eq!(delta.shard(0).completed, 5);
        assert_eq!(delta.shard(1).completed, 0);
        assert_eq!(delta.quarantines, 1);
        assert_eq!(delta.recoveries, 1);
        assert_eq!(delta.evacuated_requests, 7);
        assert_eq!(delta.failover_retries, 3);
        assert_eq!(delta.retries_denied, 1);
        // A delta carries the newer snapshot's point-in-time health.
        assert_eq!(
            delta.health,
            vec![HealthState::Healthy, HealthState::Probation]
        );
        // The aggregate of a delta equals the delta of the aggregates
        // (both are sums of the same per-shard differences).
        assert_eq!(
            delta.aggregate().completed,
            after
                .aggregate()
                .completed
                .saturating_sub(before.aggregate().completed)
        );
        // Saturation instead of wraparound on torn counters.
        let torn = before.delta_since(&after);
        assert_eq!(torn.shard(0).completed, 0);
        assert_eq!(torn.evacuated_requests, 0);
    }

    #[test]
    #[should_panic(expected = "same fleet")]
    fn delta_rejects_mismatched_shard_counts() {
        let two = FleetStats {
            shards: vec![RuntimeStats::default(), RuntimeStats::default()],
            ..FleetStats::default()
        };
        let one = FleetStats {
            shards: vec![RuntimeStats::default()],
            ..FleetStats::default()
        };
        let _ = two.delta_since(&one);
    }
}
