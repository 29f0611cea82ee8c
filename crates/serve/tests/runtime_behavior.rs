//! Behavioural tests of the serving runtime: the inline idle shortcut,
//! backpressure and saturation, shutdown semantics, missing models,
//! RCU-style pickup of model re-registration, and natural batching.

use std::sync::Arc;
use std::time::Duration;

use ae_serve::{
    FleetConfig, InducedFault, RuntimeConfig, ScoreRequest, ScoringRuntime, ServeError,
    ShardedRuntime,
};
use ae_workload::{QueryInstance, ScaleFactor, WorkloadGenerator};
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;

mod common;

fn fixture(seed: u64) -> (Arc<ModelRegistry>, AutoExecutorConfig, Vec<QueryInstance>) {
    common::fixture(
        &["q3", "q19", "q55", "q68", "q79", "q94"],
        8,
        seed,
        &["q7", "q11", "q27"],
    )
}

#[test]
fn idle_runtime_scores_inline() {
    let (registry, config, queries) = fixture(1);
    let runtime = ScoringRuntime::new(registry, "ppm", RuntimeConfig::from_auto_executor(&config));
    runtime.warm().unwrap();
    for query in &queries {
        let request = runtime
            .submit(ScoreRequest::from_plan(&query.plan))
            .map(|o| o.request)
            .unwrap();
        assert!((1..=48).contains(&request.executors));
    }
    let stats = runtime.stats();
    // A single uncontended submitter always finds the queue empty.
    assert_eq!(stats.inline_scored, queries.len() as u64);
    assert_eq!(stats.batches, 0);
}

#[test]
fn missing_model_surfaces_as_model_error() {
    let registry = Arc::new(ModelRegistry::in_memory());
    let config = AutoExecutorConfig::default();
    let runtime = ScoringRuntime::new(
        Arc::clone(&registry),
        "absent",
        RuntimeConfig::deterministic(&config),
    );
    let plan = WorkloadGenerator::new(ScaleFactor::SF10)
        .instance("q7")
        .plan;
    match runtime.submit(ScoreRequest::from_plan(&plan)) {
        Err(ServeError::Model(msg)) => assert!(msg.contains("absent")),
        other => panic!("expected a model error, got {other:?}"),
    }
    assert_eq!(runtime.stats().errors, 1);
}

#[test]
fn saturation_rejects_and_counts_dropped_requests() {
    let (registry, config, queries) = fixture(2);
    // No workers and no inline shortcut: requests queue and stay queued, so
    // the admission bound is exercised deterministically.
    let runtime = Arc::new(ScoringRuntime::new(
        registry,
        "ppm",
        RuntimeConfig::deterministic(&config)
            .with_workers(0)
            .with_queue_capacity(2),
    ));
    let blocked: Vec<_> = (0..2)
        .map(|_| {
            let runtime = Arc::clone(&runtime);
            let plan = queries[0].plan.clone();
            std::thread::spawn(move || runtime.submit(ScoreRequest::from_plan(&plan)))
        })
        .collect();
    // Wait until both requests sit in the queue.
    while runtime.queue_depth() < 2 {
        std::thread::yield_now();
    }
    assert!(matches!(
        runtime.try_submit(ScoreRequest::from_plan(&queries[1].plan)),
        Err(ServeError::Saturated)
    ));
    assert_eq!(runtime.stats().dropped, 1);

    // Shutdown (on the shared handle) fails the parked requests instead of
    // leaking them.
    runtime.shutdown();
    for handle in blocked {
        assert!(matches!(handle.join().unwrap(), Err(ServeError::ShutDown)));
    }
}

#[test]
fn malformed_feature_width_is_rejected_up_front() {
    let (registry, config, queries) = fixture(6);
    let runtime = ScoringRuntime::new(registry, "ppm", RuntimeConfig::deterministic(&config));
    // Wrong-width rows must be rejected at submission (both entry points),
    // not panic inside a worker batch.
    for bad in [vec![], vec![1.0; 3]] {
        assert!(matches!(
            runtime.submit(ScoreRequest::from_features(bad.clone())),
            Err(ServeError::Scoring(_))
        ));
        assert!(matches!(
            runtime.try_submit(ScoreRequest::from_features(bad)),
            Err(ServeError::Scoring(_))
        ));
    }
    // The runtime stays fully operational afterwards.
    assert!(runtime
        .submit(ScoreRequest::from_plan(&queries[0].plan))
        .is_ok());
}

#[test]
fn scoring_after_shutdown_fails_cleanly() {
    let (registry, config, queries) = fixture(3);
    let runtime = ScoringRuntime::new(
        Arc::clone(&registry),
        "ppm",
        RuntimeConfig::deterministic(&config),
    );
    runtime
        .submit(ScoreRequest::from_plan(&queries[0].plan))
        .unwrap();
    // Shutdown consumes the runtime; re-create and drop to exercise Drop.
    runtime.shutdown();
    let runtime = ScoringRuntime::new(registry, "ppm", RuntimeConfig::deterministic(&config));
    drop(runtime);
}

/// Deterministic mode scores on the worker thread, the inline
/// configuration on this one. Either thread keeps its own copy of the model
/// between submits and must replace it once the registry holds a new one.
#[test]
fn reregistration_is_picked_up_without_restart() {
    let (registry2, _, _) = fixture(99);
    let replacement = registry2.load("ppm").unwrap();
    for inline in [false, true] {
        let (registry, config, queries) = fixture(4);
        let runtime_config = if inline {
            RuntimeConfig::from_auto_executor(&config)
        } else {
            RuntimeConfig::deterministic(&config)
        };
        let runtime = ScoringRuntime::new(Arc::clone(&registry), "ppm", runtime_config);
        let score = || {
            runtime
                .submit(ScoreRequest::from_plan(&queries[0].plan))
                .map(|o| o.request)
                .unwrap()
        };
        let before = score();

        // Re-register a model trained with a different seed (an RCU swap in
        // the registry); the runtime must serve the new model on the next
        // request.
        registry.register("ppm", (*replacement).clone()).unwrap();
        let after = score();

        assert_ne!(
            before.predicted_ppm.parameters(),
            after.predicted_ppm.parameters(),
            "a different forest must predict different parameters (inline: {inline})"
        );
        assert_eq!(runtime.stats().inline_scored, if inline { 2 } else { 0 });
    }
}

/// Natural batching: a worker drains whatever queued while it was busy,
/// up to `max_batch`, and never waits for a batch to fill. The stalled
/// worker holds a lone first request while 12 more queue behind it; the
/// 12 then drain as one full batch of 8 and the remaining 4.
#[test]
fn queued_requests_drain_as_natural_batches() {
    let (registry, config, queries) = fixture(5);
    let fleet = ShardedRuntime::new(
        registry,
        "ppm",
        FleetConfig::new(1, RuntimeConfig::deterministic(&config).with_max_batch(8)),
    );
    fleet.warm().unwrap();
    let shard = fleet.shard(0);
    let submit = || {
        shard
            .submit_detached(ScoreRequest::from_plan(&queries[0].plan))
            .unwrap()
    };
    fleet.induce_shard_fault(0, InducedFault::Stall(Duration::from_millis(500)));
    let first = submit();
    // The worker has taken the first request and stalls before scoring it.
    while shard.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let queued: Vec<_> = (0..12).map(|_| submit()).collect();
    assert_eq!(shard.queue_depth(), 12);
    fleet.clear_shard_fault(0);
    first.wait().unwrap();
    for ticket in queued {
        ticket.wait().unwrap();
    }
    let stats = shard.stats();
    assert_eq!(stats.completed, 13);
    assert_eq!(stats.errors, 0);
    // One batch each of sizes 1, 4 and 8.
    assert_eq!(stats.batch_size_histogram, vec![1, 0, 0, 1, 0, 0, 0, 1]);
    fleet.shutdown();
}
