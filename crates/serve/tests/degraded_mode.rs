//! Integration tests for the degraded-mode serving path: the circuit
//! breaker trips to the heuristic fallback under model outage (on the
//! worker path and on the inline path alike), recovers
//! through a half-open probe once the model is healthy, and the
//! `wait_timeout` ticket variant survives shutdown with an outstanding
//! ticket.

use std::sync::Arc;
use std::time::Duration;

use ae_serve::{BreakerConfig, RuntimeConfig, ScoreRequest, ScoringRuntime, ServeError};
use ae_workload::{QueryInstance, ScaleFactor, WorkloadGenerator};
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;

fn scoring_queries() -> Vec<QueryInstance> {
    let generator = WorkloadGenerator::new(ScaleFactor::SF10);
    ["q3", "q19", "q55", "q68", "q79", "q94"]
        .iter()
        .map(|n| generator.instance(n))
        .collect()
}

fn trained_portable() -> ae_ml::portable::PortableModel {
    let generator = WorkloadGenerator::new(ScaleFactor::SF10);
    let training: Vec<QueryInstance> = ["q1", "q5", "q12", "q42", "q69", "q94"]
        .iter()
        .map(|n| generator.instance(n))
        .collect();
    let mut config = AutoExecutorConfig::default();
    config.forest.n_estimators = 10;
    config.training_run.noise_cv = 0.0;
    let (_, model) = train_from_workload(&training, &config).unwrap();
    model.to_portable("ppm").unwrap()
}

fn trained_registry() -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::in_memory());
    registry.register("ppm", trained_portable()).unwrap();
    registry
}

fn breaker_config() -> BreakerConfig {
    BreakerConfig::default()
        .with_failure_threshold(2)
        .with_cooldown(Duration::from_millis(10))
}

#[test]
fn breaker_trips_to_heuristic_fallback_on_model_outage() {
    let config = AutoExecutorConfig::default();
    // Deterministic mode sends every request through the worker; the
    // serving defaults score a lone submitter inline on its own thread.
    for (mode, runtime_config) in [
        ("deterministic", RuntimeConfig::deterministic(&config)),
        ("inline", RuntimeConfig::from_auto_executor(&config)),
    ] {
        // No model is ever registered: every model-path attempt fails.
        let registry = Arc::new(ModelRegistry::in_memory());
        let runtime = ScoringRuntime::new(
            Arc::clone(&registry),
            "missing",
            runtime_config.with_breaker(breaker_config()),
        );
        let queries = scoring_queries();
        for query in &queries {
            let outcome = runtime
                .submit(ScoreRequest::from_plan(&query.plan))
                .expect("degraded mode must answer despite the missing model");
            assert!(
                outcome.degraded,
                "{mode}: fallback answers must be marked degraded"
            );
            let executors = outcome.request.executors;
            assert!((1..=48).contains(&executors));
            assert!(outcome
                .request
                .predicted_curve
                .iter()
                .all(|&(_, t)| t.is_finite() && t > 0.0));
        }
        let stats = runtime.stats();
        assert_eq!(stats.completed, queries.len() as u64);
        assert_eq!(stats.degraded, queries.len() as u64);
        assert!(
            stats.breaker_trips >= 1,
            "{mode}: the breaker must have tripped: {stats:?}"
        );
        // Once open, the model path is skipped: trips stop accumulating per
        // request (the first two failures trip it once; later requests ride
        // the open breaker or a failing probe).
        assert!(stats.breaker_trips < stats.completed);
        if mode == "inline" {
            assert_eq!(
                stats.inline_scored, stats.completed,
                "every request must have scored inline: {stats:?}"
            );
        }
    }
}

#[test]
fn without_breaker_model_errors_surface_unchanged() {
    let registry = Arc::new(ModelRegistry::in_memory());
    let config = AutoExecutorConfig::default();
    let runtime = ScoringRuntime::new(
        Arc::clone(&registry),
        "missing",
        RuntimeConfig::deterministic(&config),
    );
    let query = &scoring_queries()[0];
    match runtime.submit(ScoreRequest::from_plan(&query.plan)) {
        Err(ServeError::Model(_)) => {}
        other => panic!("expected a Model error, got {other:?}"),
    }
    let stats = runtime.stats();
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.breaker_trips, 0);
}

#[test]
fn breaker_recovers_after_model_registration() {
    // Start broken (no model), trip the breaker, then register the model
    // and wait out the cooldown: the half-open probe must succeed and
    // subsequent answers must come from the model (not degraded).
    let registry = Arc::new(ModelRegistry::in_memory());
    let config = AutoExecutorConfig::default();
    let runtime = ScoringRuntime::new(
        Arc::clone(&registry),
        "ppm",
        RuntimeConfig::deterministic(&config).with_breaker(breaker_config()),
    );
    let queries = scoring_queries();
    for query in queries.iter().take(3) {
        let outcome = runtime
            .submit(ScoreRequest::from_plan(&query.plan))
            .unwrap();
        assert!(outcome.degraded);
    }
    let tripped = runtime.stats();
    assert!(tripped.breaker_trips >= 1);
    assert_eq!(tripped.degraded, 3);

    // Heal the dependency and let the cooldown elapse.
    registry.register("ppm", trained_portable()).unwrap();
    std::thread::sleep(Duration::from_millis(20));

    let recovered = runtime
        .submit(ScoreRequest::from_plan(&queries[3].plan))
        .unwrap();
    assert!(
        !recovered.degraded,
        "the half-open probe must restore the model path"
    );
    for query in queries.iter().skip(4) {
        let outcome = runtime
            .submit(ScoreRequest::from_plan(&query.plan))
            .unwrap();
        assert!(
            !outcome.degraded,
            "recovered runtime must stay on the model"
        );
    }
    let healthy_stats = runtime.stats();
    assert_eq!(healthy_stats.degraded, 3, "no new degraded answers");
    assert_eq!(healthy_stats.completed, queries.len() as u64);
}

#[test]
fn wait_timeout_returns_ticket_and_survives_shutdown() {
    // Zero workers: a detached submission is admitted but never drained,
    // so wait_timeout must time out and hand the ticket back; shutdown
    // then fails the stranded request with ShutDown.
    let registry = trained_registry();
    let config = AutoExecutorConfig::default();
    let runtime = ScoringRuntime::new(
        Arc::clone(&registry),
        "ppm",
        RuntimeConfig::deterministic(&config).with_workers(0),
    );
    let query = &scoring_queries()[0];
    let ticket = runtime
        .submit_detached(ScoreRequest::from_plan(&query.plan))
        .unwrap();
    let ticket = match ticket.wait_timeout(Duration::from_millis(20)) {
        Err(ticket) => ticket,
        Ok(result) => panic!("nothing drains a 0-worker queue, got {result:?}"),
    };
    runtime.shutdown();
    match ticket.wait() {
        Err(ServeError::ShutDown) => {}
        other => panic!("expected ShutDown for the stranded ticket, got {other:?}"),
    }
}

#[test]
fn wait_timeout_redeems_a_completed_ticket() {
    let registry = trained_registry();
    let config = AutoExecutorConfig::default();
    let runtime = ScoringRuntime::new(
        Arc::clone(&registry),
        "ppm",
        RuntimeConfig::deterministic(&config),
    );
    let query = &scoring_queries()[0];
    let ticket = runtime
        .submit_detached(ScoreRequest::from_plan(&query.plan))
        .unwrap();
    // Generous timeout: the single worker scores it almost immediately.
    let outcome = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("must complete well within the timeout")
        .expect("scoring must succeed");
    assert!(!outcome.degraded);
    assert!((1..=48).contains(&outcome.request.executors));
}
