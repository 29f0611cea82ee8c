//! Deterministic fault injection for the execution simulator.
//!
//! The paper's testbed assumes a perfect cluster; the serverless
//! infrastructure the ROADMAP targets does not (Skyrise-style elastic
//! workers are *expected* to fail mid-query, and spot pools revoke
//! executors with a short grace window). This module models three fault
//! classes, all driven by seed streams independent of the run-noise
//! generator so a [`FaultPlan`] can be laid over any existing run without
//! perturbing its task durations:
//!
//! * **Spot preemption** — each executor draws a lifetime from an
//!   exponential distribution at [`FaultPlan::preemption_rate_per_executor_min`]
//!   on its own seed stream (keyed by executor index, so results do not
//!   depend on scheduling order). When the lifetime expires the executor's
//!   allocation is revoked; tasks finishing within
//!   [`FaultPlan::grace_period_secs`] complete, the rest are lost.
//! * **Node loss** — each node draws one failure time at
//!   [`FaultPlan::node_loss_rate_per_node_min`]; every executor hosted on
//!   the node (executor index / executors-per-node) that is online before
//!   that time dies together at it.
//! * **Stragglers** — each task independently runs
//!   [`FaultPlan::straggler_slowdown`]× slower with probability
//!   [`FaultPlan::straggler_prob`], drawn from a dedicated stream in task
//!   order.
//!
//! Lost tasks re-enter the scheduler's ready set with a restart cost
//! controlled by [`FaultPlan::checkpoint_fraction`] (0 = restart from
//! scratch, 1 = resume from the point of loss) plus a fixed
//! [`FaultPlan::restart_overhead_secs`]; replacement executors are
//! re-requested through the cluster's [`crate::cluster::AllocationLag`].
//! A task lost more than [`FaultPlan::max_task_retries`] times fails the
//! whole query run ([`RunOutcome::Failed`]).
//!
//! [`FaultPlan::none`] injects nothing. The scheduler has no separate fault
//! path: an inactive plan leaves every fault structure empty (zero rates
//! draw infinite executor lifetimes and node-failure times, and a zero
//! straggler probability opens no straggler stream), so a zero-fault plan
//! is **bit-identical** to the pre-fault scheduler (pinned by
//! `tests/fault_determinism.rs` alongside `scheduler_regression.rs`).
//!
//! [`exp_sample`] is the workspace's one exponential sampler: the engine's
//! lifetimes and node-failure times and the workload crate's open-loop
//! arrivals draw through it.

use rand::rngs::StdRng;
use rand::{derive_stream_seed, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{require_finite_nonneg, EngineError, Result};

/// Seed-stream index for the per-task straggler draws.
const STRAGGLER_STREAM: u64 = 0x5354_5241; // "STRA"
/// Base seed-stream index for per-executor lifetime draws.
const EXECUTOR_STREAM_BASE: u64 = 1 << 33;
/// Base seed-stream index for per-node loss draws.
const NODE_STREAM_BASE: u64 = 3 << 33;

/// A deterministic fault-injection plan for one simulated query run.
///
/// Like [`crate::RunConfig`]'s noise, every draw comes from a seeded
/// generator — the same plan over the same DAG produces bit-identical
/// [`crate::QueryRunResult`]s at any thread count — but the fault streams
/// are derived from [`FaultPlan::seed`], never from the noise seed, so
/// adding faults to a run does not reshuffle its task durations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault streams (independent of the run-noise seed).
    pub seed: u64,
    /// Spot-preemption rate, in revocations per executor-minute. Each
    /// executor's lifetime is exponential with this rate.
    pub preemption_rate_per_executor_min: f64,
    /// Node-loss rate, in failures per node-minute. All executors on a
    /// lost node are revoked together.
    pub node_loss_rate_per_node_min: f64,
    /// Grace window after a revocation: tasks finishing within it complete
    /// normally, tasks still running at its end are lost.
    pub grace_period_secs: f64,
    /// Probability that a task is a straggler.
    pub straggler_prob: f64,
    /// Slowdown multiplier applied to straggler tasks (≥ 1).
    pub straggler_slowdown: f64,
    /// Fraction of a lost task's elapsed work preserved by checkpointing:
    /// 0 restarts from scratch, 1 resumes exactly where the task was lost.
    pub checkpoint_fraction: f64,
    /// Fixed overhead added to every task restart (state re-fetch,
    /// re-scheduling).
    pub restart_overhead_secs: f64,
    /// Maximum times a single task may be lost and retried before the
    /// whole query run fails.
    pub max_task_retries: u32,
    /// Whether revoked executors are re-requested through the allocation
    /// lag (spot replacement). When false, capacity lost to faults is
    /// gone for the remainder of the run.
    pub reacquire: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults of any kind. Scheduler output under this
    /// plan is bit-identical to the pre-fault scheduler.
    pub fn none() -> Self {
        Self {
            seed: 0,
            preemption_rate_per_executor_min: 0.0,
            node_loss_rate_per_node_min: 0.0,
            grace_period_secs: 2.0,
            straggler_prob: 0.0,
            straggler_slowdown: 4.0,
            checkpoint_fraction: 0.0,
            restart_overhead_secs: 1.0,
            max_task_retries: 8,
            reacquire: true,
        }
    }

    /// A spot-preemption plan at `rate` revocations per executor-minute
    /// with the given grace window.
    pub fn preemptions(rate_per_executor_min: f64, grace_period_secs: f64) -> Self {
        Self {
            preemption_rate_per_executor_min: rate_per_executor_min,
            grace_period_secs,
            ..Self::none()
        }
    }

    /// Sets the fault-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds node loss at `rate` failures per node-minute.
    pub fn with_node_loss(mut self, rate_per_node_min: f64) -> Self {
        self.node_loss_rate_per_node_min = rate_per_node_min;
        self
    }

    /// Adds stragglers: each task runs `slowdown`× slower with
    /// probability `prob`.
    pub fn with_stragglers(mut self, prob: f64, slowdown: f64) -> Self {
        self.straggler_prob = prob;
        self.straggler_slowdown = slowdown;
        self
    }

    /// Sets the checkpoint fraction (0 = restart from scratch, 1 = resume).
    pub fn with_checkpoint_fraction(mut self, fraction: f64) -> Self {
        self.checkpoint_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the retry cap after which a run fails.
    pub fn with_max_task_retries(mut self, retries: u32) -> Self {
        self.max_task_retries = retries;
        self
    }

    /// Enables or disables spot replacement of revoked executors.
    pub fn with_reacquire(mut self, reacquire: bool) -> Self {
        self.reacquire = reacquire;
        self
    }

    /// Validates the plan's numeric ranges. Every simulated run checks
    /// this (through [`crate::RunConfig::validate`]) before it starts.
    pub fn validate(&self) -> Result<()> {
        require_finite_nonneg(
            "fault-plan",
            &[
                ("preemption rate", self.preemption_rate_per_executor_min),
                ("node-loss rate", self.node_loss_rate_per_node_min),
                ("grace period", self.grace_period_secs),
                ("restart overhead", self.restart_overhead_secs),
            ],
        )?;
        if !(0.0..=1.0).contains(&self.straggler_prob) {
            return Err(EngineError::InvalidConfig(format!(
                "straggler probability must be in [0, 1], got {}",
                self.straggler_prob
            )));
        }
        if !self.straggler_slowdown.is_finite() || self.straggler_slowdown < 1.0 {
            return Err(EngineError::InvalidConfig(format!(
                "straggler slowdown must be ≥ 1, got {}",
                self.straggler_slowdown
            )));
        }
        if !(0.0..=1.0).contains(&self.checkpoint_fraction) {
            return Err(EngineError::InvalidConfig(format!(
                "checkpoint fraction must be in [0, 1], got {}",
                self.checkpoint_fraction
            )));
        }
        Ok(())
    }

    /// The lifetime of executor `index` (seconds from coming online until
    /// its spot revocation), drawn from the executor's own seed stream.
    /// Infinite when preemptions are disabled.
    pub(crate) fn executor_lifetime(&self, index: usize) -> f64 {
        stream_exp_sample(
            self.seed,
            EXECUTOR_STREAM_BASE + index as u64,
            self.preemption_rate_per_executor_min,
        )
    }

    /// The wall-clock time at which node `node` fails (from run start),
    /// drawn from the node's own seed stream. Infinite when node loss is
    /// disabled. All executors mapped onto the node share this draw.
    pub(crate) fn node_loss_time(&self, node: usize) -> f64 {
        stream_exp_sample(
            self.seed,
            NODE_STREAM_BASE + node as u64,
            self.node_loss_rate_per_node_min,
        )
    }

    /// The RNG of the per-task straggler stream (`None` when stragglers
    /// are disabled). Draws are consumed in stage-major task order.
    pub(crate) fn straggler_rng(&self) -> Option<StdRng> {
        (self.straggler_prob > 0.0)
            .then(|| StdRng::seed_from_u64(derive_stream_seed(self.seed, STRAGGLER_STREAM)))
    }

    /// Applies one straggler draw: the multiplier for the next task.
    pub(crate) fn straggler_factor(&self, rng: &mut StdRng) -> f64 {
        let u: f64 = rng.gen();
        if u < self.straggler_prob {
            self.straggler_slowdown
        } else {
            1.0
        }
    }
}

/// One exponential sample at `rate` events per unit of time, by inverse
/// CDF from one uniform draw of `rng`: the gap to the next arrival of a
/// Poisson process. `1 - u` keeps the logarithm's argument in (0, 1].
pub fn exp_sample<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate
}

/// One exponential sample in seconds at `rate_per_min` events per minute
/// from the derived stream `(seed, stream)`; infinite when the rate is
/// zero.
fn stream_exp_sample(seed: u64, stream: u64, rate_per_min: f64) -> f64 {
    if rate_per_min <= 0.0 {
        return f64::INFINITY;
    }
    let mut rng = StdRng::seed_from_u64(derive_stream_seed(seed, stream));
    exp_sample(&mut rng, rate_per_min / 60.0)
}

/// Which fault revoked an executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A spot preemption of a single executor.
    Preemption,
    /// A node failure taking every executor on the node.
    NodeLoss,
}

/// Per-run fault accounting, reported on every
/// [`crate::QueryRunResult`]. All-zero when the plan injected nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Executors revoked by spot preemption.
    pub preempted_executors: u32,
    /// Executors revoked by node loss.
    pub node_loss_executors: u32,
    /// Task attempts lost to revocations (equals the retries scheduled).
    pub tasks_lost: u32,
    /// Replacement executors re-requested through the allocation lag.
    pub replacements_requested: u32,
    /// Tasks slowed down by the straggler injector.
    pub stragglers: u32,
    /// Task work discarded by losses, in core-seconds (elapsed work not
    /// preserved by checkpointing).
    pub work_lost_secs: f64,
    /// Total loss-to-retry-completion time across lost tasks, in seconds
    /// (how long recovery trailed each loss).
    pub recovery_secs: f64,
}

impl FaultSummary {
    /// Total executors revoked, regardless of cause.
    pub fn executors_revoked(&self) -> u32 {
        self.preempted_executors + self.node_loss_executors
    }

    /// True when no fault of any kind fired during the run.
    pub fn is_clean(&self) -> bool {
        self.executors_revoked() == 0 && self.tasks_lost == 0 && self.stragglers == 0
    }
}

/// Why a simulated query run failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FailureReason {
    /// A task exceeded [`FaultPlan::max_task_retries`] losses.
    RetriesExhausted {
        /// Stage of the exhausted task.
        stage: usize,
        /// Task index within the stage.
        task: usize,
    },
    /// Every executor was revoked and replacement was disabled, leaving
    /// unfinished work with no capacity to run it.
    ResourcesExhausted,
    /// The run configuration failed [`crate::RunConfig::validate`]; nothing
    /// was simulated.
    InvalidConfig(String),
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReason::RetriesExhausted { stage, task } => {
                write!(f, "task {task} of stage {stage} exhausted its retries")
            }
            FailureReason::ResourcesExhausted => {
                write!(f, "all executors revoked with re-acquisition disabled")
            }
            FailureReason::InvalidConfig(reason) => write!(f, "{reason}"),
        }
    }
}

/// Terminal status of a simulated query run. A run with an invalid
/// configuration fails before it starts; otherwise fault-free runs always
/// complete, and a faulty run fails only through retry exhaustion or total
/// capacity loss.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// All tasks finished (possibly after retries).
    Completed,
    /// The run was aborted; `elapsed_secs` reports the abort time.
    Failed(FailureReason),
}

impl RunOutcome {
    /// True for [`RunOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Completed => write!(f, "completed"),
            RunOutcome::Failed(reason) => write!(f, "failed: {reason}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_valid() {
        // An inactive plan leaves every fault structure empty: immortal
        // executors and nodes, no straggler stream.
        let plan = FaultPlan::none().with_seed(3);
        assert_eq!(plan.executor_lifetime(0), f64::INFINITY);
        assert_eq!(plan.node_loss_time(0), f64::INFINITY);
        assert!(plan.straggler_rng().is_none());
        assert!(plan.validate().is_ok());
        assert_eq!(FaultPlan::none(), FaultPlan::default());
    }

    #[test]
    fn builders_activate_the_plan() {
        assert!(FaultPlan::preemptions(0.1, 2.0)
            .executor_lifetime(0)
            .is_finite());
        assert!(FaultPlan::none()
            .with_node_loss(0.01)
            .node_loss_time(0)
            .is_finite());
        assert!(FaultPlan::none()
            .with_stragglers(0.05, 3.0)
            .straggler_rng()
            .is_some());
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(FaultPlan::preemptions(-1.0, 2.0).validate().is_err());
        assert!(FaultPlan::preemptions(f64::NAN, 2.0).validate().is_err());
        assert!(FaultPlan::none()
            .with_stragglers(1.5, 2.0)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_stragglers(0.5, 0.5)
            .validate()
            .is_err());
        let mut plan = FaultPlan::none();
        plan.grace_period_secs = -1.0;
        assert!(plan.validate().is_err());
    }

    #[test]
    fn lifetimes_are_deterministic_per_executor() {
        let plan = FaultPlan::preemptions(0.5, 2.0).with_seed(9);
        let a = plan.executor_lifetime(3);
        let b = plan.executor_lifetime(3);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(a.is_finite() && a > 0.0);
        // Distinct executors draw from distinct streams.
        assert_ne!(plan.executor_lifetime(3), plan.executor_lifetime(4));
        // Zero rate means immortal executors.
        assert_eq!(FaultPlan::none().executor_lifetime(3), f64::INFINITY);
    }

    #[test]
    fn node_loss_times_are_shared_per_node() {
        let plan = FaultPlan::none().with_node_loss(0.2).with_seed(4);
        assert_eq!(
            plan.node_loss_time(1).to_bits(),
            plan.node_loss_time(1).to_bits()
        );
        assert_ne!(plan.node_loss_time(0), plan.node_loss_time(1));
        assert_eq!(FaultPlan::none().node_loss_time(0), f64::INFINITY);
    }

    #[test]
    fn straggler_stream_respects_probability() {
        let plan = FaultPlan::none().with_stragglers(1.0, 2.5).with_seed(1);
        let mut rng = plan.straggler_rng().expect("active straggler stream");
        for _ in 0..16 {
            assert_eq!(plan.straggler_factor(&mut rng), 2.5);
        }
        assert!(FaultPlan::none().straggler_rng().is_none());
    }

    #[test]
    fn summary_accounting_helpers() {
        let mut summary = FaultSummary::default();
        assert!(summary.is_clean());
        summary.preempted_executors = 2;
        summary.node_loss_executors = 1;
        assert_eq!(summary.executors_revoked(), 3);
        assert!(!summary.is_clean());
    }

    #[test]
    fn outcome_display_and_predicates() {
        assert!(RunOutcome::Completed.is_completed());
        let failed = RunOutcome::Failed(FailureReason::RetriesExhausted { stage: 1, task: 7 });
        assert!(!failed.is_completed());
        assert!(failed.to_string().contains("task 7 of stage 1"));
        assert!(RunOutcome::Failed(FailureReason::ResourcesExhausted)
            .to_string()
            .contains("re-acquisition"));
    }
}
