//! Configuration of the scoring runtime.
//!
//! Batching has no timing setting: a worker wakes on the first queued
//! request and drains whatever is queued, up to `max_batch`, in the QoS
//! drain order. Batches form only when requests arrive faster than a
//! worker scores them.

use ae_ppm::selection::SelectionObjective;
use autoexecutor::config::AutoExecutorConfig;

use crate::breaker::BreakerConfig;
use crate::obs::ObsConfig;
use crate::qos::QosConfig;

/// Tuning knobs of a [`crate::ScoringRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of batching worker threads. `0` is allowed (requests queue
    /// until shutdown — only useful for tests exercising backpressure).
    pub workers: usize,
    /// Maximum requests scored per forest call. A woken worker drains
    /// `min(queued, max_batch)` requests at once; it never waits for more.
    pub max_batch: usize,
    /// Bound on the admission queue. Blocking submitters wait when it is
    /// full ([`crate::ScoringRuntime::submit`]); non-blocking submitters
    /// are rejected with [`crate::ServeError::Saturated`]
    /// ([`crate::ScoringRuntime::try_submit`]).
    pub queue_capacity: usize,
    /// How many requests may be in flight (inline + queued + batching)
    /// before synchronous submitters stop scoring on their own thread and
    /// overflow into the batching queue. Inline scoring skips the queue
    /// round-trip entirely (the slot is claimed with a CAS; the model
    /// lookup takes brief read locks), so a lightly loaded runtime serves
    /// single queries at sequential-rule latency; the queue exists to
    /// absorb and amortize load beyond that. `0` disables inlining.
    pub inline_max_in_flight: usize,
    /// Selection objective applied to every predicted curve.
    pub objective: SelectionObjective,
    /// Candidate executor counts evaluated per query.
    pub candidate_counts: Vec<usize>,
    /// Service-level semantics: per-level deadline budgets, pricing
    /// targets, and the optional per-tenant fairness policy.
    pub qos: QosConfig,
    /// Optional circuit breaker for degraded-mode serving: on repeated
    /// model failures the runtime falls back to a heuristic sizing rule
    /// instead of erroring every request, then probes its way back (see
    /// [`crate::breaker`]). `None` (the default) disables the breaker —
    /// model errors surface to callers unchanged.
    pub breaker: Option<BreakerConfig>,
    /// Optional observability (see [`crate::obs`]): a metrics registry to
    /// publish counters/latency histograms into plus a bounded typed
    /// event sink. `None` (the default) makes every instrumentation site
    /// a single untaken branch — outcomes and stats are bit-identical
    /// either way (pinned by `tests/obs.rs`).
    pub observability: Option<ObsConfig>,
}

impl RuntimeConfig {
    /// Concurrent serving defaults derived from a pipeline configuration:
    /// one worker per available core (at most 8), batches of up to 32, and
    /// a 1024-deep admission queue.
    pub fn from_auto_executor(config: &AutoExecutorConfig) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            workers: cores.clamp(1, 8),
            max_batch: 32,
            queue_capacity: 1024,
            inline_max_in_flight: (2 * cores).max(6),
            objective: config.objective,
            candidate_counts: config.candidate_counts(),
            qos: QosConfig::default(),
            breaker: None,
            observability: None,
        }
    }

    /// Deterministic mode: a single worker draining the queue strictly FIFO
    /// with no inline shortcut. Output is bit-identical
    /// to the sequential `AutoExecutorRule` (pinned by the regression test),
    /// and side effects (stats, completion order) are reproducible.
    pub fn deterministic(config: &AutoExecutorConfig) -> Self {
        Self {
            workers: 1,
            max_batch: 32,
            queue_capacity: 1024,
            inline_max_in_flight: 0,
            objective: config.objective,
            candidate_counts: config.candidate_counts(),
            // Default QoS, fairness disabled: single-level traffic drains
            // strictly FIFO and stays bit-identical to the sequential rule.
            qos: QosConfig::default(),
            // No breaker: degraded-mode fallback would make outcomes depend
            // on model availability and timing.
            breaker: None,
            // Observability stays opt-in even here: it never changes
            // outcomes, only records them.
            observability: None,
        }
    }

    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the maximum batch size (clamped to at least 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Overrides the admission-queue capacity (clamped to at least 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Overrides the in-flight bound below which submitters score inline
    /// (`0` disables inlining).
    pub fn with_inline_max_in_flight(mut self, limit: usize) -> Self {
        self.inline_max_in_flight = limit;
        self
    }

    /// Overrides the QoS configuration (service-level budgets, pricing
    /// targets, tenant fairness).
    pub fn with_qos(mut self, qos: QosConfig) -> Self {
        self.qos = qos;
        self
    }

    /// Enables the degraded-mode circuit breaker.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Enables observability: metric registration, the stats source, the
    /// per-level latency histograms, and the typed event sink.
    pub fn with_observability(mut self, obs: ObsConfig) -> Self {
        self.observability = Some(obs);
        self
    }

    /// Clamps nonsensical values (zero batch size or queue capacity).
    pub(crate) fn sanitized(mut self) -> Self {
        self.max_batch = self.max_batch.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = AutoExecutorConfig::default();
        let rt = RuntimeConfig::from_auto_executor(&cfg);
        assert!(rt.workers >= 1);
        assert!(rt.max_batch >= 1);
        assert!(rt.queue_capacity >= 1);
        assert!(rt.inline_max_in_flight > 0);
        assert_eq!(rt.candidate_counts, cfg.candidate_counts());
    }

    #[test]
    fn deterministic_mode_is_single_worker_fifo() {
        let cfg = AutoExecutorConfig::default();
        let rt = RuntimeConfig::deterministic(&cfg);
        assert_eq!(rt.workers, 1);
        assert_eq!(rt.inline_max_in_flight, 0);
    }

    #[test]
    fn builders_clamp_and_override() {
        let cfg = AutoExecutorConfig::default();
        let rt = RuntimeConfig::deterministic(&cfg)
            .with_workers(3)
            .with_max_batch(0)
            .with_queue_capacity(0)
            .with_inline_max_in_flight(4);
        assert_eq!(rt.workers, 3);
        assert_eq!(rt.max_batch, 1);
        assert_eq!(rt.queue_capacity, 1);
        assert_eq!(rt.inline_max_in_flight, 4);
        let s = rt.sanitized();
        assert_eq!(s.max_batch, 1);
    }
}
