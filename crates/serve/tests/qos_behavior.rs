//! Behavioural tests of the QoS layer: service-level scheduling, deadline
//! accounting (including zero-deadline requests), BestEffort shedding under
//! saturation, per-tenant token-bucket fairness (no starvation of a light
//! tenant under a flooding one), and shutdown with non-empty priority
//! queues.

use std::sync::Arc;
use std::time::Duration;

use ae_serve::{
    QosConfig, RuntimeConfig, ScoreRequest, ScoringRuntime, ServeError, ServiceLevel, TenantId,
    TenantPolicy,
};
use ae_workload::QueryInstance;
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
fn outcomes_carry_level_and_curve_derived_quotes() {
    let (registry, config, queries) = fixture(21);
    let runtime = ScoringRuntime::new(registry, "ppm", RuntimeConfig::deterministic(&config));
    let features = autoexecutor::featurize_plan(&queries[0].plan);
    let mut prices = Vec::new();
    for level in [
        ServiceLevel::BestEffort,
        ServiceLevel::Standard,
        ServiceLevel::Interactive,
    ] {
        let outcome = runtime
            .submit(ScoreRequest::from_features(features.clone()).with_level(level))
            .unwrap();
        assert_eq!(outcome.level, level);
        let quote = outcome.quote().expect("non-empty predicted curve");
        assert_eq!(quote.level, level);
        assert!(quote.price.is_finite() && quote.price > 0.0);
        assert!(quote.multiplier >= 1.0);
        prices.push(quote.price);
    }
    // Stricter levels never cost less: best-effort <= standard <= interactive.
    assert!(prices[0] <= prices[1]);
    assert!(prices[1] <= prices[2]);
}

#[test]
fn zero_deadline_requests_complete_and_count_as_misses() {
    let (registry, config, queries) = fixture(22);
    let runtime = ScoringRuntime::new(registry, "ppm", RuntimeConfig::deterministic(&config));
    let features = autoexecutor::featurize_plan(&queries[0].plan);
    let outcome = runtime
        .submit(
            ScoreRequest::from_features(features)
                .with_level(ServiceLevel::Interactive)
                .with_deadline_budget(Duration::ZERO),
        )
        .expect("a zero-deadline request is still answered");
    assert!(outcome.missed_deadline, "a zero deadline cannot be met");
    assert!((1..=48).contains(&outcome.request.executors));
    let stats = runtime.stats();
    assert_eq!(stats.level(ServiceLevel::Interactive).completed, 1);
    assert_eq!(stats.level(ServiceLevel::Interactive).deadline_misses, 1);
    assert_eq!(stats.errors, 0);
}

#[test]
fn generous_deadlines_are_met_and_not_counted_as_misses() {
    let (registry, config, queries) = fixture(23);
    let runtime = ScoringRuntime::new(registry, "ppm", RuntimeConfig::deterministic(&config));
    for query in &queries {
        let outcome = runtime
            .submit(
                ScoreRequest::from_plan(&query.plan)
                    .with_level(ServiceLevel::Standard)
                    .with_deadline_budget(Duration::from_secs(30)),
            )
            .unwrap();
        assert!(!outcome.missed_deadline);
    }
    let stats = runtime.stats();
    assert_eq!(
        stats.level(ServiceLevel::Standard).completed,
        queries.len() as u64
    );
    assert_eq!(stats.level(ServiceLevel::Standard).deadline_misses, 0);
}

#[test]
fn saturation_sheds_best_effort_to_admit_higher_levels() {
    let (registry, config, queries) = fixture(24);
    // No workers: requests stay queued, so admission is exercised
    // deterministically against a full queue.
    let runtime = Arc::new(ScoringRuntime::new(
        registry,
        "ppm",
        RuntimeConfig::deterministic(&config)
            .with_workers(0)
            .with_queue_capacity(2),
    ));
    let parked_best_effort: Vec<_> = (0..2)
        .map(|_| {
            let runtime = Arc::clone(&runtime);
            let plan = queries[0].plan.clone();
            std::thread::spawn(move || {
                runtime.submit(ScoreRequest::from_plan(&plan).with_level(ServiceLevel::BestEffort))
            })
        })
        .collect();
    while runtime.queue_depth() < 2 {
        std::thread::yield_now();
    }

    // An incoming BestEffort request cannot evict its own level: try_submit
    // saturates, blocking submit would wait.
    assert!(matches!(
        runtime.try_submit(
            ScoreRequest::from_plan(&queries[1].plan).with_level(ServiceLevel::BestEffort)
        ),
        Err(ServeError::Saturated)
    ));
    assert_eq!(runtime.stats().dropped, 1);

    // An Interactive request sheds a parked BestEffort request instead of
    // saturating; it then parks itself (no workers run).
    let interactive = {
        let runtime = Arc::clone(&runtime);
        let plan = queries[2].plan.clone();
        std::thread::spawn(move || {
            runtime.try_submit(ScoreRequest::from_plan(&plan).with_level(ServiceLevel::Interactive))
        })
    };
    while runtime.stats().level(ServiceLevel::BestEffort).shed < 1 {
        std::thread::yield_now();
    }
    // Queue capacity stayed 2: one BestEffort out, one Interactive in.
    assert_eq!(runtime.queue_depth(), 2);

    // Shutdown releases the survivors; exactly one parked BestEffort was
    // shed, the other (and the Interactive request) see ShutDown.
    runtime.shutdown();
    let shed_results: Vec<_> = parked_best_effort
        .into_iter()
        .map(|handle| handle.join().unwrap())
        .collect();
    assert_eq!(
        shed_results
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Shed)))
            .count(),
        1
    );
    assert_eq!(
        shed_results
            .iter()
            .filter(|r| matches!(r, Err(ServeError::ShutDown)))
            .count(),
        1
    );
    assert!(matches!(
        interactive.join().unwrap(),
        Err(ServeError::ShutDown)
    ));
    assert_eq!(runtime.stats().level(ServiceLevel::BestEffort).shed, 1);
}

#[test]
fn flooding_tenant_cannot_starve_a_light_tenant() {
    let (registry, config, queries) = fixture(25);
    // Tight queue + demote-on-violation fairness: the flooding tenant blows
    // through its burst, gets demoted to BestEffort, and its parked flood
    // is exactly what the light tenant's Standard requests shed through.
    let qos = QosConfig::default().with_fairness(TenantPolicy::demote(50.0, 64.0));
    let runtime = Arc::new(ScoringRuntime::new(
        registry,
        "ppm",
        RuntimeConfig::from_auto_executor(&config)
            .with_workers(1)
            .with_queue_capacity(2)
            .with_inline_max_in_flight(0)
            .with_qos(qos),
    ));
    runtime.warm().unwrap();

    let heavy = TenantId(1);
    let light = TenantId(2);
    let flood: Vec<_> = (0..4)
        .map(|t| {
            let runtime = Arc::clone(&runtime);
            let plan = queries[t % queries.len()].plan.clone();
            std::thread::spawn(move || {
                let mut shed_or_dropped = 0u64;
                for _ in 0..3000 {
                    match runtime.try_submit(
                        ScoreRequest::from_plan(&plan)
                            .with_level(ServiceLevel::Interactive)
                            .with_tenant(heavy),
                    ) {
                        Ok(_) => {}
                        Err(ServeError::Shed) | Err(ServeError::Saturated) => shed_or_dropped += 1,
                        Err(other) => panic!("unexpected error under flood: {other}"),
                    }
                }
                shed_or_dropped
            })
        })
        .collect();

    // The light tenant stays comfortably inside the burst (20 spaced
    // requests against a 64-token bucket) and must never be starved,
    // shed, or throttled: each blocking submit must come back Ok at the
    // requested level (true starvation would hang this loop and time the
    // test out, not falsify a counter).
    for i in 0..20 {
        let outcome = runtime
            .submit(
                ScoreRequest::from_plan(&queries[i % queries.len()].plan)
                    .with_level(ServiceLevel::Standard)
                    .with_tenant(light),
            )
            .expect("the light tenant must not be starved");
        assert_eq!(outcome.level, ServiceLevel::Standard, "no demotion in-rate");
        std::thread::sleep(Duration::from_millis(1));
    }

    let flood_shed: u64 = flood.into_iter().map(|h| h.join().unwrap()).sum();
    let stats = runtime.stats();
    assert!(
        stats.demoted > 0,
        "the flooding tenant must exceed its token bucket"
    );
    assert_eq!(stats.throttled, 0, "demote policy never rejects outright");
    assert_eq!(
        stats.level(ServiceLevel::Standard).shed,
        0,
        "only BestEffort (demoted flood) is ever shed"
    );
    // Five submitters race into a 2-deep queue: the 12000-request flood
    // must have hit saturation somewhere (sheds and/or drops).
    assert!(flood_shed > 0 || stats.shed() > 0 || stats.dropped > 0);
    runtime.shutdown();
}

#[test]
fn reject_policy_throttles_over_rate_tenants() {
    let (registry, config, queries) = fixture(26);
    let qos = QosConfig::default().with_fairness(TenantPolicy::reject(0.0, 2.0));
    let runtime = ScoringRuntime::new(
        registry,
        "ppm",
        RuntimeConfig::deterministic(&config).with_qos(qos),
    );
    let tenant = TenantId(9);
    for _ in 0..2 {
        runtime
            .submit(ScoreRequest::from_plan(&queries[0].plan).with_tenant(tenant))
            .unwrap();
    }
    match runtime.submit(ScoreRequest::from_plan(&queries[0].plan).with_tenant(tenant)) {
        Err(ServeError::Throttled(t)) => assert_eq!(t, tenant),
        other => panic!("expected Throttled, got {other:?}"),
    }
    // Untracked (tenant-less) requests are exempt from policing.
    runtime
        .submit(ScoreRequest::from_plan(&queries[1].plan))
        .unwrap();
    let stats = runtime.stats();
    assert_eq!(stats.throttled, 1);
    assert_eq!(stats.demoted, 0);
}

#[test]
fn detached_submission_redeems_tickets_with_latency_and_quotes() {
    let (registry, config, queries) = fixture(28);
    let runtime = ScoringRuntime::new(
        Arc::clone(&registry),
        "ppm",
        RuntimeConfig::from_auto_executor(&config).with_workers(1),
    );
    runtime.warm().unwrap();
    // Fire a burst without waiting, then redeem every ticket.
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            runtime
                .submit_detached(
                    ScoreRequest::from_plan(&queries[i % queries.len()].plan)
                        .with_level(ServiceLevel::Interactive),
                )
                .unwrap()
        })
        .collect();
    for ticket in tickets {
        assert_eq!(ticket.level(), ServiceLevel::Interactive);
        let outcome = ticket.wait().unwrap();
        assert!((1..=48).contains(&outcome.request.executors));
        assert!(outcome.latency > Duration::ZERO);
        assert!(outcome.quote().is_some());
    }
    let stats = runtime.stats();
    assert_eq!(stats.completed, 12);
    // Detached submissions never take the inline shortcut.
    assert_eq!(stats.inline_scored, 0);
    assert_eq!(stats.level(ServiceLevel::Interactive).completed, 12);

    // The try_ variant saturates instead of blocking: with no workers and a
    // tiny queue, a third Standard detached submission must drop.
    let runtime = ScoringRuntime::new(
        registry,
        "ppm",
        RuntimeConfig::deterministic(&config)
            .with_workers(0)
            .with_queue_capacity(2),
    );
    let _a = runtime
        .try_submit_detached(ScoreRequest::from_plan(&queries[0].plan))
        .unwrap();
    let _b = runtime
        .try_submit_detached(ScoreRequest::from_plan(&queries[1].plan))
        .unwrap();
    assert!(matches!(
        runtime.try_submit_detached(ScoreRequest::from_plan(&queries[2].plan)),
        Err(ServeError::Saturated)
    ));
    assert_eq!(runtime.stats().dropped, 1);
    runtime.shutdown();
}

#[test]
fn shutdown_fails_requests_parked_across_all_priority_levels() {
    let (registry, config, queries) = fixture(27);
    let runtime = Arc::new(ScoringRuntime::new(
        registry,
        "ppm",
        RuntimeConfig::deterministic(&config)
            .with_workers(0)
            .with_queue_capacity(16),
    ));
    let parked: Vec<_> = [
        ServiceLevel::Interactive,
        ServiceLevel::Standard,
        ServiceLevel::BestEffort,
        ServiceLevel::Interactive,
        ServiceLevel::BestEffort,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, level)| {
        let runtime = Arc::clone(&runtime);
        let plan = queries[i % queries.len()].plan.clone();
        std::thread::spawn(move || runtime.submit(ScoreRequest::from_plan(&plan).with_level(level)))
    })
    .collect();
    while runtime.queue_depth() < parked.len() {
        std::thread::yield_now();
    }
    runtime.shutdown();
    for handle in parked {
        assert!(matches!(handle.join().unwrap(), Err(ServeError::ShutDown)));
    }
    assert_eq!(runtime.queue_depth(), 0);
    // Every abandoned request is accounted as an error, none as completed.
    let stats = runtime.stats();
    assert_eq!(stats.errors, 5);
    assert_eq!(stats.completed, 0);
}
