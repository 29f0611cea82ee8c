//! Observability wiring for the scoring runtime.
//!
//! Observability is **opt-in and zero-cost when off**: a runtime built
//! without [`ObsConfig`] carries `None` and every instrumentation site is
//! a single branch on that `Option` — no allocation, no atomics, no
//! event formatting. With it, the runtime
//!
//! * registers one [`ae_obs::ShardedHistogram`] of fulfillment latency
//!   per [`ServiceLevel`] (named `{prefix}.latency_ns.{level}`) in the
//!   supplied [`MetricsRegistry`],
//! * publishes its [`crate::RuntimeStats`] counters and the batch-size
//!   histogram through a [`ae_obs::MetricSource`] polled at snapshot
//!   time (named `{prefix}.completed`, `{prefix}.level.{level}.shed`,
//!   `{prefix}.batch_size`, …), so the existing hot-path counters are the
//!   single source of truth, and
//! * records typed [`ae_obs::Event`]s (admission, shed, drop, demotion,
//!   throttle, batch drain, breaker transitions, model swaps, shutdown)
//!   into a bounded [`EventSink`] reachable via
//!   [`crate::ScoringRuntime::observability`].
//!
//! Give each runtime sharing one registry a distinct `prefix`, otherwise
//! their metric names collide (histograms would be silently shared and
//! the stats source would emit duplicate names).

use std::sync::Arc;
use std::time::Duration;

use ae_obs::{EventSink, HistogramSnapshot, Ladder, MetricsRegistry, ShardedHistogram};

use crate::qos::ServiceLevel;

/// Capacity of every runtime's (and fleet's) bounded event sink: events
/// beyond it evict the oldest per shard and are counted, never blocking
/// the hot path.
pub(crate) const EVENT_CAPACITY: usize = 65_536;

/// Opt-in observability for a [`crate::ScoringRuntime`]: where metrics
/// go and under which name.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// The metric namespace this runtime registers its instruments in
    /// and publishes its stats through.
    pub registry: Arc<MetricsRegistry>,
    /// Metric-name prefix; must be unique per runtime within `registry`.
    pub prefix: String,
}

impl ObsConfig {
    /// Observability into `registry` with the default `"serve"` prefix.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            registry,
            prefix: "serve".to_string(),
        }
    }

    /// Overrides the metric-name prefix.
    pub fn with_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.prefix = prefix.into();
        self
    }
}

/// Live observability handles of a running [`crate::ScoringRuntime`],
/// returned by [`crate::ScoringRuntime::observability`].
#[derive(Debug)]
pub struct RuntimeObs {
    events: EventSink,
    latency: [Arc<ShardedHistogram>; ServiceLevel::COUNT],
}

impl RuntimeObs {
    pub(crate) fn new(cfg: &ObsConfig) -> Self {
        let latency = std::array::from_fn(|i| {
            let level = ServiceLevel::from_index(i).expect("level index in range");
            cfg.registry.histogram(
                &format!("{}.latency_ns.{}", cfg.prefix, level.name()),
                Ladder::latency(),
            )
        });
        Self {
            events: EventSink::new(EVENT_CAPACITY),
            latency,
        }
    }

    /// The runtime's bounded event sink (drain or snapshot it for typed
    /// events; see [`ae_obs::EventKind`] for the vocabulary).
    pub fn events(&self) -> &EventSink {
        &self.events
    }

    /// Merged snapshot of the fulfillment-latency histogram of `level`
    /// (queue wait + scoring for queued requests, pure scoring for
    /// inline ones).
    pub fn latency(&self, level: ServiceLevel) -> HistogramSnapshot {
        self.latency[level.index()].snapshot()
    }

    pub(crate) fn record_latency(&self, level: ServiceLevel, latency: Duration) {
        self.latency[level.index()].record_duration(latency);
    }
}
