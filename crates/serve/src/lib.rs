//! # ae-serve — concurrent batched scoring runtime for the serving path
//!
//! The paper's AutoExecutor extension scores one plan at a time inside the
//! optimizer of a single Spark session. A serving deployment — the
//! ROADMAP's "heavy traffic from millions of users" — instead sees many
//! concurrent scoring requests against a shared model. This crate provides
//! the runtime that sits between the two:
//!
//! * **[`ScoringRuntime`]** accepts scoring requests from any number of
//!   threads, places them on a bounded queue (backpressure), and has worker
//!   threads drain the queue in **micro-batches**: a worker wakes on the
//!   first queued request and takes whatever is queued, up to `max_batch`,
//!   without waiting for more; the batch is laid out
//!   into one flat [`ae_ml::matrix::FeatureMatrix`] and pushed through the
//!   batched forest/selection path
//!   ([`autoexecutor::scoring::score_feature_batch`]).
//! * When the runtime is **lightly loaded** the submitting thread scores
//!   **inline** instead of paying a queue round-trip, so single-query
//!   latency never regresses relative to the sequential rule. An inline
//!   request is a one-row call of the same scoring point the workers use,
//!   so the breaker, the fallback and induced faults apply to it alike.
//! * The model comes from the sharded, read-mostly
//!   [`autoexecutor::registry::ModelRegistry`] as an `Arc` handle; the
//!   decoded model is cached per runtime and re-resolved by pointer
//!   identity, so re-registering a model (RCU-style swap) is picked up by
//!   the next batch without ever blocking scoring.
//! * In **deterministic mode** ([`RuntimeConfig::deterministic`]: one
//!   worker, FIFO drain, no inline shortcut) the runtime
//!   produces bit-identical [`autoexecutor::optimizer::ResourceRequest`]s
//!   to the sequential `AutoExecutorRule`, because both funnel through the
//!   same [`autoexecutor::scoring`] entry points. The regression test in
//!   `tests/determinism.rs` pins this.
//!
//! On top of the batching machinery sits the **QoS layer** (the PixelsDB
//! model of tiered SLAs — see `docs/qos.md` at the repository root):
//!
//! * Every request carries a [`ServiceLevel`] (`Interactive` / `Standard`
//!   / `BestEffort`), an optional [`TenantId`], and a completion deadline
//!   ([`ScoreRequest`]); [`ScoringRuntime::submit`] /
//!   [`ScoringRuntime::try_submit`] return the scored plan together with
//!   its QoS disposition and a [`PriceQuote`] derived from the predicted
//!   performance curve ([`ScoreOutcome`]).
//! * Admission is a set of **per-level earliest-deadline-first queues**
//!   drained weighted-round-robin across levels (see [`qos`]); under
//!   saturation, `BestEffort` requests are shed first
//!   ([`ServeError::Shed`]) so higher promises keep their room.
//! * Per-tenant **token buckets** ([`tenant`]) police admission: over-rate
//!   tenants are demoted to `BestEffort` or rejected
//!   ([`ServeError::Throttled`]), so a flooding tenant cannot starve an
//!   in-rate one.
//!
//! Service levels never change *answers* — scoring stays a pure function
//! of features and model — only queueing delay, shedding, and price.
//!
//! For fault tolerance the runtime adds a **degraded-mode serving path**
//! (see [`breaker`] and `docs/faults.md`): an optional circuit breaker
//! trips on repeated model failures or scoring-budget breaches and routes
//! requests to a heuristic sizing rule instead of erroring them, marking
//! each such answer [`ScoreOutcome::degraded`] and counting it in
//! [`RuntimeStats::degraded`]; half-open probes restore the model path
//! once it recovers.
//!
//! Past one runtime's throughput ceiling sits the **fleet layer** (see
//! [`fleet`] and `docs/fleet.md`): a [`ShardedRuntime`] owns N complete
//! shard-local runtimes behind a deterministic consistent-hash router
//! ([`HashRing`], keyed by [`TenantId`] or feature content); routing
//! alone decides which shard scores a request. A 1-shard fleet in
//! deterministic mode is bit-identical to a bare [`ScoringRuntime`]
//! (pinned by `tests/fleet_determinism.rs`).
//!
//! The fleet is **resilient to shard loss** (see [`fleet::resilience`]
//! and `docs/resilience.md`): [`ShardedRuntime::induce_shard_fault`]
//! strikes one shard with an [`InducedFault`] — a crash, a stall, or a
//! model outage — until [`ShardedRuntime::clear_shard_fault`]; with an
//! opt-in [`HealthPolicy`], each [`ShardedRuntime::tick`] the owner calls
//! (the fleet runs no thread of its own) drives every shard through
//! `Healthy → Suspect → Quarantined → Probation` — quarantining takes the
//! shard off the ring (only its keys move, each to its successor),
//! evacuates its `Standard`/`BestEffort` backlog into survivors with no
//! ticket lost, and failed in-flight requests are re-submitted to a
//! surviving shard under a bounded retry budget; probation re-admits a
//! recovered shard on a trickle of real traffic before full ring
//! re-insertion (`tests/fleet_resilience.rs`).
//!
//! **Observability** (see [`obs`] and `docs/observability.md`) is opt-in
//! via [`RuntimeConfig::with_observability`](config::RuntimeConfig::with_observability):
//! the runtime then publishes its counters, per-level latency
//! histograms, and the batch-size distribution into an
//! [`ae_obs::MetricsRegistry`] and records typed [`ae_obs::Event`]s
//! (admission, shed, demotion, batch drains, breaker transitions, model
//! swaps) into a bounded sink. Disabled, every instrumentation site is a
//! single untaken branch and outcomes are bit-identical (pinned by
//! `tests/obs.rs`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod breaker;
pub mod config;
pub mod fleet;
pub mod obs;
pub mod qos;
pub mod runtime;
pub mod stats;
pub mod tenant;

pub use breaker::BreakerConfig;
pub use config::RuntimeConfig;
pub use fleet::{
    FleetConfig, FleetStats, HashRing, HealthPolicy, HealthState, InducedFault, ShardedRuntime,
};
pub use obs::{ObsConfig, RuntimeObs};
pub use qos::{price_quote, price_quote_parts, PriceQuote, QosConfig, ServiceLevel};
pub use runtime::{ScoreOutcome, ScoreRequest, ScoreTicket, ScoringRuntime};
pub use stats::{LevelStats, RuntimeStats};
pub use tenant::{TenantId, TenantPolicy, ThrottleAction};

/// Errors surfaced by the serving runtime.
///
/// Scoring and model failures carry rendered messages (not the source
/// errors) because one failure may have to be delivered to every request of
/// a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// `try_submit` / `try_submit_detached` found the admission queue
    /// full with nothing sheddable (the request was counted as dropped;
    /// the caller may retry, shed load, or fall back).
    Saturated,
    /// The queued request was evicted (shed) to make room for a
    /// higher-level request under saturation. Only `BestEffort` requests
    /// are shed.
    Shed,
    /// The tenant was over its token-bucket rate under a
    /// [`ThrottleAction::Reject`] fairness policy.
    Throttled(TenantId),
    /// The runtime is shutting down; the request was not scored.
    ShutDown,
    /// The model could not be fetched from the registry or decoded.
    Model(String),
    /// Scoring itself failed (e.g. an empty candidate range).
    Scoring(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Saturated => write!(f, "scoring queue is saturated"),
            ServeError::Shed => write!(f, "request was shed under saturation"),
            ServeError::Throttled(tenant) => {
                write!(f, "{tenant} is over its admission rate")
            }
            ServeError::ShutDown => write!(f, "scoring runtime is shut down"),
            ServeError::Model(s) => write!(f, "model error: {s}"),
            ServeError::Scoring(s) => write!(f, "scoring error: {s}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ServeError>;
