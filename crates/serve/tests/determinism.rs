//! Regression tests pinning the serving runtime against the sequential
//! `AutoExecutorRule`:
//!
//! * deterministic mode produces **bit-identical** `ResourceRequest`s to
//!   the sequential rule over the synthetic suite, and
//! * N threads × M queries through one concurrent runtime produce the same
//!   per-query results as the sequential rule (determinism under
//!   concurrency).

use std::collections::HashMap;
use std::sync::Arc;

use ae_serve::{RuntimeConfig, ScoreRequest, ScoringRuntime, ServiceLevel};
use ae_workload::QueryInstance;
use autoexecutor::optimizer::ResourceRequest;
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;

mod common;
mod sequential;

use sequential::{assert_bit_identical, sequential_requests};

fn fixture() -> (Arc<ModelRegistry>, AutoExecutorConfig, Vec<QueryInstance>) {
    common::fixture(
        &["q1", "q5", "q12", "q42", "q69", "q94", "q23b", "q77"],
        12,
        42,
        // A disjoint scoring set, large enough to form real batches.
        &[
            "q3", "q7", "q11", "q19", "q27", "q34", "q39b", "q46", "q55", "q59", "q64", "q68",
            "q72", "q79", "q88", "q96", "q14b", "q2", "q31", "q50", "q65", "q80", "q93", "q99",
        ],
    )
}

#[test]
fn deterministic_mode_is_bit_identical_to_sequential_rule() {
    let (registry, config, queries) = fixture();
    let sequential = sequential_requests(&registry, &config, &queries);

    // The rule's optimizer pipeline applies CollapseProjects/CombineFilters
    // before the AutoExecutor rule; mirror it for the serving path, which
    // scores already-optimized plans.
    let rewriter = Optimizer::with_default_rules();
    let runtime = ScoringRuntime::new(
        Arc::clone(&registry),
        "ppm",
        RuntimeConfig::deterministic(&config),
    );
    for (query, seq) in queries.iter().zip(&sequential) {
        let optimized = rewriter.optimize(query.plan.clone()).unwrap().plan;
        let served = runtime
            .submit(ScoreRequest::from_plan(&optimized))
            .map(|o| o.request)
            .unwrap();
        assert_bit_identical(&query.name, seq, &served);
    }
    let stats = runtime.stats();
    assert_eq!(stats.completed, queries.len() as u64);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.errors, 0);
    // Deterministic mode routes everything through the single FIFO worker.
    assert_eq!(stats.inline_scored, 0);
    runtime.shutdown();
}

/// The QoS regression pin: uniform single-level traffic through the
/// priority queues — at *any* service level — must stay bit-identical to
/// the sequential rule (and therefore to the PR 2/3 serving output).
/// Service levels schedule; they never touch answers.
#[test]
fn single_level_deterministic_traffic_is_bit_identical_at_every_level() {
    let (registry, config, queries) = fixture();
    let sequential = sequential_requests(&registry, &config, &queries);
    let rewriter = Optimizer::with_default_rules();
    let optimized: Vec<ae_engine::plan::QueryPlan> = queries
        .iter()
        .map(|q| rewriter.optimize(q.plan.clone()).unwrap().plan)
        .collect();
    for level in ServiceLevel::ALL {
        let runtime = ScoringRuntime::new(
            Arc::clone(&registry),
            "ppm",
            RuntimeConfig::deterministic(&config),
        );
        for ((query, seq), plan) in queries.iter().zip(&sequential).zip(&optimized) {
            let outcome = runtime
                .submit(ScoreRequest::from_plan(plan).with_level(level))
                .unwrap();
            assert_eq!(outcome.level, level);
            assert_bit_identical(&query.name, seq, &outcome.request);
        }
        let stats = runtime.stats();
        assert_eq!(stats.completed, queries.len() as u64);
        assert_eq!(stats.level(level).completed, queries.len() as u64);
        assert_eq!(stats.shed(), 0);
        runtime.shutdown();
    }
}

#[test]
fn concurrent_scoring_matches_sequential_results() {
    let (registry, config, queries) = fixture();
    let sequential = sequential_requests(&registry, &config, &queries);
    let expected: HashMap<String, ResourceRequest> = queries
        .iter()
        .zip(&sequential)
        .map(|(q, r)| (q.name.clone(), r.clone()))
        .collect();

    let rewriter = Optimizer::with_default_rules();
    let optimized: Vec<(String, ae_engine::plan::QueryPlan)> = queries
        .iter()
        .map(|q| {
            (
                q.name.clone(),
                rewriter.optimize(q.plan.clone()).unwrap().plan,
            )
        })
        .collect();

    // A deliberately batching-heavy configuration: 2 workers, small window,
    // inline shortcut enabled (both paths must agree anyway).
    let runtime = Arc::new(ScoringRuntime::new(
        Arc::clone(&registry),
        "ppm",
        RuntimeConfig::from_auto_executor(&config)
            .with_workers(2)
            .with_max_batch(8),
    ));
    runtime.warm().unwrap();

    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let runtime = Arc::clone(&runtime);
            let optimized = optimized.clone();
            std::thread::spawn(move || {
                let mut results = Vec::new();
                for round in 0..ROUNDS {
                    // Each thread walks the suite from a different offset so
                    // batches mix queries.
                    for i in 0..optimized.len() {
                        let (name, plan) = &optimized[(i + t * 3 + round) % optimized.len()];
                        let request = runtime
                            .submit(ScoreRequest::from_plan(plan))
                            .map(|o| o.request)
                            .unwrap();
                        results.push((name.clone(), request));
                    }
                }
                results
            })
        })
        .collect();

    let mut total = 0usize;
    for handle in handles {
        for (name, served) in handle.join().unwrap() {
            assert_bit_identical(&name, &expected[&name], &served);
            total += 1;
        }
    }
    assert_eq!(total, THREADS * ROUNDS * optimized.len());

    let stats = runtime.stats();
    assert_eq!(stats.completed, total as u64);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(
        stats.inline_scored + stats.batched(),
        stats.completed,
        "every request is either inline or batched"
    );
}
