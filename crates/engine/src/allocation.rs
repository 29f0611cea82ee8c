//! Executor-allocation policies.
//!
//! Three families of policies appear in the paper's evaluation:
//!
//! * **Static allocation (SA)** — all executors requested up front at job
//!   submission (`SA(48)`, `SA(25)` in Figure 12).
//! * **Dynamic allocation (DA)** — Spark's reactive policy: when tasks pile
//!   up it requests exponentially more executors (1, 2, 4, ...), bounded by a
//!   `[min, max]` range; executors idle longer than a timeout are released.
//! * **Predictive (Rule)** — AutoExecutor's hybrid (Section 4.6): the
//!   optimizer rule requests the predicted executor count shortly after
//!   submission, scale-*up* by dynamic allocation is disabled, and the
//!   reactive path only *removes* idle executors.

use serde::{Deserialize, Serialize};

use crate::{require_finite_nonneg, EngineError, Result};

/// Parameters of the Spark-style reactive dynamic allocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicAllocationConfig {
    /// Minimum executors to keep allocated.
    pub min_executors: usize,
    /// Maximum executors the policy may request.
    pub max_executors: usize,
    /// Executors released after being idle this long.
    pub idle_timeout_secs: f64,
    /// Interval at which the policy re-evaluates pending work.
    pub schedule_interval_secs: f64,
    /// Backlog must persist this long before the *next* (exponentially
    /// larger) executor request is issued — Spark's sustained-scheduler-
    /// backlog timeout. This is what makes dynamic allocation react "too
    /// late" relative to a predictive up-front request.
    pub sustained_backlog_secs: f64,
}

impl DynamicAllocationConfig {
    /// The range the paper evaluates against: DA(1, 48) with Spark-like
    /// 60-second idle timeout and 1-second scheduler backlog interval.
    pub fn paper_default() -> Self {
        Self {
            min_executors: 1,
            max_executors: 48,
            idle_timeout_secs: 60.0,
            schedule_interval_secs: 1.0,
            sustained_backlog_secs: 4.0,
        }
    }

    /// Spark's out-of-the-box defaults observed in the production workloads:
    /// minimum 0 and an effectively unbounded maximum (2^31 − 1).
    pub fn spark_default() -> Self {
        Self {
            min_executors: 0,
            max_executors: i32::MAX as usize,
            idle_timeout_secs: 60.0,
            schedule_interval_secs: 1.0,
            sustained_backlog_secs: 4.0,
        }
    }
}

/// How executors are allocated to a query over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// All `executors` requested at submission time.
    Static {
        /// Number of executors requested up front.
        executors: usize,
    },
    /// Spark reactive dynamic allocation.
    Dynamic(DynamicAllocationConfig),
    /// AutoExecutor: start with `initial` executors, request `predicted`
    /// executors when the optimizer rule fires at `rule_delay_secs` after
    /// submission, and release executors idle longer than
    /// `idle_timeout_secs` (reactive deallocation only — no reactive
    /// scale-up).
    Predictive {
        /// Executors present at submission (e.g. a small pool default).
        initial: usize,
        /// Executor count requested by the AutoExecutor rule.
        predicted: usize,
        /// Time after submission at which the rule issues its request
        /// (query compilation + optimization latency).
        rule_delay_secs: f64,
        /// Idle timeout for reactive deallocation.
        idle_timeout_secs: f64,
    },
}

impl AllocationPolicy {
    /// Static allocation of `n` executors.
    pub fn static_allocation(n: usize) -> Self {
        AllocationPolicy::Static { executors: n }
    }

    /// Dynamic allocation over `[min, max]` with paper-default timings.
    pub fn dynamic(min: usize, max: usize) -> Self {
        AllocationPolicy::Dynamic(DynamicAllocationConfig {
            min_executors: min,
            max_executors: max,
            ..DynamicAllocationConfig::paper_default()
        })
    }

    /// The AutoExecutor rule policy used in Figures 12 and 13: start with a
    /// small pool (5 executors in the paper's example), request the
    /// predicted count ~1 s into the run, release after 60 s idle.
    pub fn predictive(predicted: usize) -> Self {
        AllocationPolicy::Predictive {
            initial: 5,
            predicted,
            rule_delay_secs: 1.0,
            idle_timeout_secs: 60.0,
        }
    }

    /// Executors present at submission time, before any reactive or
    /// predictive request is made.
    pub fn initial_executors(&self) -> usize {
        match *self {
            AllocationPolicy::Static { executors } => executors,
            AllocationPolicy::Dynamic(cfg) => cfg.min_executors.max(1),
            AllocationPolicy::Predictive { initial, .. } => initial.max(1),
        }
    }

    /// Rejects a policy the simulator cannot honour: one that can hold no
    /// executor, or a duration that is not finite and non-negative.
    /// [`crate::Simulator::new`] checks this.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.initial_executors() == 0 {
            return Err(EngineError::InvalidConfig(
                "static allocation of 0 executors can run no task".into(),
            ));
        }
        match *self {
            AllocationPolicy::Static { .. } => Ok(()),
            AllocationPolicy::Dynamic(cfg) => require_finite_nonneg(
                "dynamic-allocation",
                &[
                    ("idle timeout", cfg.idle_timeout_secs),
                    ("schedule interval", cfg.schedule_interval_secs),
                    ("sustained-backlog timeout", cfg.sustained_backlog_secs),
                ],
            ),
            AllocationPolicy::Predictive {
                rule_delay_secs,
                idle_timeout_secs,
                ..
            } => require_finite_nonneg(
                "predictive-policy",
                &[
                    ("rule delay", rule_delay_secs),
                    ("idle timeout", idle_timeout_secs),
                ],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_targets_fixed_count() {
        let p = AllocationPolicy::static_allocation(25);
        assert_eq!(p.initial_executors(), 25);
    }

    #[test]
    fn dynamic_policy_reports_range_and_timeout() {
        let p = AllocationPolicy::dynamic(1, 48);
        assert_eq!(p.initial_executors(), 1);
    }

    #[test]
    fn dynamic_min_zero_still_starts_with_one_executor() {
        // Spark needs at least one executor to make progress; the simulator
        // models the driver kicking off a first request immediately.
        let p = AllocationPolicy::Dynamic(DynamicAllocationConfig::spark_default());
        assert_eq!(p.initial_executors(), 1);
    }

    #[test]
    fn predictive_policy_takes_max_of_initial_and_predicted() {
        let p = AllocationPolicy::predictive(27);
        assert_eq!(p.initial_executors(), 5);
        let small = AllocationPolicy::Predictive {
            initial: 10,
            predicted: 3,
            rule_delay_secs: 1.0,
            idle_timeout_secs: 60.0,
        };
        assert_eq!(small.initial_executors(), 10);
    }
}
