//! Observability integration tests:
//!
//! * obs **disabled** is a provable no-op — scored outcomes are
//!   bit-identical with and without observability, and a default-config
//!   runtime exposes no handles;
//! * obs **enabled** records coherent events, latency histograms, and
//!   registry metrics that agree with [`ae_serve::RuntimeStats`];
//! * the stats source unregisters itself with the runtime (weak link).

use std::sync::Arc;

use ae_obs::{EventKind, MetricValue, MetricsRegistry};
use ae_serve::{ObsConfig, RuntimeConfig, ScoreRequest, ScoringRuntime, ServiceLevel};
use ae_workload::QueryInstance;
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;

mod common;

fn fixture() -> (Arc<ModelRegistry>, AutoExecutorConfig, Vec<QueryInstance>) {
    common::fixture(
        &["q1", "q5", "q12", "q42", "q69", "q94"],
        8,
        42,
        &["q3", "q7", "q11", "q19", "q27", "q34", "q46", "q55"],
    )
}

#[test]
fn disabled_observability_is_a_noop() {
    let (registry, config, queries) = fixture();
    let plain = ScoringRuntime::new(
        Arc::clone(&registry),
        "ppm",
        RuntimeConfig::deterministic(&config),
    );
    assert!(plain.observability().is_none());

    let metrics = Arc::new(MetricsRegistry::new());
    let observed = ScoringRuntime::new(
        Arc::clone(&registry),
        "ppm",
        RuntimeConfig::deterministic(&config)
            .with_observability(ObsConfig::new(Arc::clone(&metrics))),
    );

    // Observability must never change answers: outcomes are bit-identical.
    for query in &queries {
        let a = plain
            .submit(ScoreRequest::from_plan(&query.plan))
            .map(|o| o.request)
            .unwrap();
        let b = observed
            .submit(ScoreRequest::from_plan(&query.plan))
            .map(|o| o.request)
            .unwrap();
        assert_eq!(a.executors, b.executors, "{}", query.name);
        let a_curve: Vec<(usize, u64)> = a
            .predicted_curve
            .iter()
            .map(|&(n, t)| (n, t.to_bits()))
            .collect();
        let b_curve: Vec<(usize, u64)> = b
            .predicted_curve
            .iter()
            .map(|&(n, t)| (n, t.to_bits()))
            .collect();
        assert_eq!(a_curve, b_curve, "{}", query.name);
    }
    // And identical counters (same traffic, same accounting).
    let a = plain.stats();
    let b = observed.stats();
    assert_eq!(a, b);
}

#[test]
fn enabled_observability_agrees_with_stats() {
    let (model_registry, config, queries) = fixture();
    let metrics = Arc::new(MetricsRegistry::new());
    let runtime = ScoringRuntime::new(
        model_registry,
        "ppm",
        RuntimeConfig::deterministic(&config)
            .with_observability(ObsConfig::new(Arc::clone(&metrics)).with_prefix("rt")),
    );

    for query in &queries {
        runtime
            .submit(ScoreRequest::from_plan(&query.plan).with_level(ServiceLevel::Interactive))
            .unwrap();
    }
    let stats = runtime.stats();
    assert_eq!(stats.completed, queries.len() as u64);

    let obs = runtime.observability().expect("obs enabled");

    // Latency histogram: one sample per completed interactive request.
    let latency = obs.latency(ServiceLevel::Interactive);
    assert_eq!(latency.count(), queries.len() as u64);
    assert!(latency.max() > 0);
    assert_eq!(obs.latency(ServiceLevel::BestEffort).count(), 0);

    // Events: one admission per request, batch drains consistent with
    // the batches counter (deterministic mode queues everything).
    let events = obs.events().snapshot();
    let admissions = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Admission { .. }))
        .count();
    assert_eq!(admissions, queries.len());
    let drains = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::BatchDrain { .. }))
        .count();
    assert_eq!(drains as u64, stats.batches);

    // Registry snapshot: stats-source counters agree with stats(), the
    // batch histogram totals the batches, latency histograms are named.
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("rt.completed"), Some(stats.completed));
    assert_eq!(
        snap.counter("rt.level.interactive.completed"),
        Some(stats.level(ServiceLevel::Interactive).completed)
    );
    match snap.get("rt.batch_size") {
        Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), stats.batches),
        other => panic!("rt.batch_size missing or mistyped: {other:?}"),
    }
    match snap.get("rt.latency_ns.interactive") {
        Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), queries.len() as u64),
        other => panic!("rt.latency_ns.interactive missing or mistyped: {other:?}"),
    }

    // Shutdown is evented exactly once, even when called twice.
    runtime.shutdown();
    runtime.shutdown();
    let shutdowns = obs
        .events()
        .snapshot()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Shutdown))
        .count();
    assert_eq!(shutdowns, 1);
}

#[test]
fn stats_source_vanishes_with_the_runtime() {
    let (model_registry, config, queries) = fixture();
    let metrics = Arc::new(MetricsRegistry::new());
    let runtime = ScoringRuntime::new(
        model_registry,
        "ppm",
        RuntimeConfig::deterministic(&config)
            .with_observability(ObsConfig::new(Arc::clone(&metrics)).with_prefix("gone")),
    );
    runtime
        .submit(ScoreRequest::from_plan(&queries[0].plan))
        .unwrap();
    assert_eq!(metrics.snapshot().counter("gone.completed"), Some(1));
    drop(runtime);
    // The weak stats source no longer upgrades; its names disappear.
    assert_eq!(metrics.snapshot().counter("gone.completed"), None);
    // The latency histograms are registry-owned and survive (still
    // queryable, frozen at their last recorded state).
    assert!(metrics
        .snapshot()
        .get("gone.latency_ns.interactive")
        .is_some());
}
