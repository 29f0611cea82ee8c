//! # ae-engine — a Spark-like serverless query-execution simulator
//!
//! The paper's evaluation runs Spark SQL queries on Azure Synapse pools and
//! observes how run time and executor occupancy respond to the number of
//! executors. This crate provides the equivalent substrate as a
//! discrete-event simulator:
//!
//! * [`plan`] — query plans (operator trees) with the compile-time statistics
//!   the parameter model consumes (Table 2 of the paper).
//! * [`stage`] — the physical side: stages, shuffle dependencies, and tasks
//!   with per-task work, plus the task log a post-hoc analyzer needs.
//! * [`cluster`] — cluster and executor sizing, and the allocation-lag model
//!   (the "runtime takes ~20–30 s to gradually allocate" behaviour of §5.4).
//! * [`allocation`] — executor-allocation policies: static, Spark-style
//!   dynamic allocation, and AutoExecutor's predictive-request /
//!   reactive-deallocation hybrid.
//! * [`scheduler`] — the discrete-event simulation itself, producing elapsed
//!   time, the executor-allocation skyline, and its area under the curve.
//! * [`faults`] — deterministic fault injection (spot preemptions, node
//!   loss, stragglers) with retry/re-schedule semantics and per-run fault
//!   accounting.
//! * [`skyline`] — skyline representation and the `AUC` (executor-seconds)
//!   metric.
//! * [`session`] — multi-query interactive applications (Figure 7).
//!
//! The simulator's timing comes from task-level scheduling (critical paths,
//! slot contention, ramp-up lag, noise), *not* from the closed-form PPM
//! functions, so the prediction problem studied by the paper stays
//! non-trivial in this reproduction.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod allocation;
pub mod cluster;
pub mod faults;
pub mod plan;
pub mod scheduler;
pub mod session;
pub mod skyline;
pub mod stage;

pub use allocation::{AllocationPolicy, DynamicAllocationConfig};
pub use cluster::{AllocationLag, ClusterConfig, ExecutorSpec, NodeSpec};
pub use faults::{exp_sample, FailureReason, FaultKind, FaultPlan, FaultSummary, RunOutcome};
pub use plan::{OperatorKind, PlanNode, PlanStats, QueryPlan};
pub use scheduler::{QueryRunResult, RunConfig, Simulator};
pub use session::{ApplicationSession, QuerySubmission, SessionResult};
pub use skyline::Skyline;
pub use stage::{Stage, StageDag, StageLog, Task, TaskLog, TaskRecord};

/// Errors produced by the execution simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A configuration value is out of range or inconsistent.
    InvalidConfig(String),
    /// The stage DAG is malformed (cycle, dangling parent, no stages, ...).
    InvalidDag(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidConfig(s) => write!(f, "invalid configuration: {s}"),
            EngineError::InvalidDag(s) => write!(f, "invalid stage DAG: {s}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Rejects the first `(name, value)` whose value is not finite and
/// non-negative, naming it `"{what} {name}"` in the error.
pub(crate) fn require_finite_nonneg(what: &str, values: &[(&str, f64)]) -> Result<()> {
    match values.iter().find(|(_, v)| !v.is_finite() || *v < 0.0) {
        Some((name, value)) => Err(EngineError::InvalidConfig(format!(
            "{what} {name} must be finite and non-negative, got {value}"
        ))),
        None => Ok(()),
    }
}
