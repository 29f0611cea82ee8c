//! Regression tests pinning the serving runtime against the sequential
//! `AutoExecutorRule`:
//!
//! * deterministic mode produces **bit-identical** `ResourceRequest`s to
//!   the sequential rule over the synthetic suite, and
//! * N threads × M queries through one concurrent runtime produce the same
//!   per-query results as the sequential rule (determinism under
//!   concurrency), and
//! * every scoring thread answers from the model registered at the time,
//!   whatever it scored before: after a re-registration, and when one
//!   thread alternates between runtimes over different models.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use ae_serve::{RuntimeConfig, ScoreRequest, ScoringRuntime, ServiceLevel};
use ae_workload::QueryInstance;
use autoexecutor::optimizer::ResourceRequest;
use autoexecutor::prelude::*;
use autoexecutor::{featurize_plan, scoring, ModelRegistry};

mod common;
mod sequential;

use sequential::{assert_bit_identical, sequential_requests};

fn fixture() -> (Arc<ModelRegistry>, AutoExecutorConfig, Vec<QueryInstance>) {
    fixture_with_seed(42)
}

fn fixture_with_seed(seed: u64) -> (Arc<ModelRegistry>, AutoExecutorConfig, Vec<QueryInstance>) {
    common::fixture(
        &["q1", "q5", "q12", "q42", "q69", "q94", "q23b", "q77"],
        12,
        seed,
        // A disjoint scoring set, large enough to form real batches.
        &[
            "q3", "q7", "q11", "q19", "q27", "q34", "q39b", "q46", "q55", "q59", "q64", "q68",
            "q72", "q79", "q88", "q96", "q14b", "q2", "q31", "q50", "q65", "q80", "q93", "q99",
        ],
    )
}

/// A registry holding, as "ppm", the fixture's model grown from another
/// forest seed.
fn other_model() -> Arc<ModelRegistry> {
    fixture_with_seed(43).0
}

/// What `scoring::score_features` answers for each row on the model
/// `registry` holds as "ppm".
fn reference_answers(
    registry: &ModelRegistry,
    config: &AutoExecutorConfig,
    rows: &[Vec<f64>],
) -> Vec<ResourceRequest> {
    let model = ParameterModel::from_portable(&registry.load("ppm").unwrap()).unwrap();
    let counts = config.candidate_counts();
    rows.iter()
        .map(|row| {
            scoring::score_features(&model, row, config.objective, &counts)
                .unwrap()
                .request
        })
        .collect()
}

fn assert_answers(
    queries: &[QueryInstance],
    expected: &[ResourceRequest],
    served: &[ResourceRequest],
) {
    assert_eq!(expected.len(), served.len());
    for ((query, expected), served) in queries.iter().zip(expected).zip(served) {
        assert_bit_identical(&query.name, expected, served);
    }
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

/// Two clients submit at once through one inline runtime, before and after
/// a re-registration. Each scores on its own copy of the model, and every
/// answer is bit-identical to `scoring::score_features` on the model
/// registered during that phase.
#[test]
fn concurrent_inline_clients_answer_from_the_registered_model() {
    let (registry, config, queries) = fixture();
    let replacement = other_model();
    let rows: Vec<Vec<f64>> = queries.iter().map(|q| featurize_plan(&q.plan)).collect();
    let phases = [
        reference_answers(&registry, &config, &rows),
        reference_answers(&replacement, &config, &rows),
    ];
    assert_ne!(
        phases[0][0].predicted_ppm.parameters(),
        phases[1][0].predicted_ppm.parameters(),
        "the two forests must predict different parameters"
    );
    let runtime = ScoringRuntime::new(
        Arc::clone(&registry),
        "ppm",
        RuntimeConfig::from_auto_executor(&config),
    );
    runtime.warm().unwrap();

    const CLIENTS: usize = 2;
    // The clients and this thread meet before and after each phase. A
    // client keeps its errors until after the phase, so a failed submit
    // cannot leave this thread waiting at a barrier.
    let barrier = Barrier::new(CLIENTS + 1);
    let served: Vec<Vec<Result<Vec<ResourceRequest>, _>>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    (0..phases.len())
                        .map(|_| {
                            barrier.wait();
                            let answers = rows
                                .iter()
                                .map(|row| {
                                    runtime
                                        .submit(ScoreRequest::from_features(row.clone()))
                                        .map(|outcome| outcome.request)
                                })
                                .collect();
                            barrier.wait();
                            answers
                        })
                        .collect()
                })
            })
            .collect();
        barrier.wait();
        barrier.wait();
        let model = replacement.load("ppm").unwrap();
        registry.register("ppm", (*model).clone()).unwrap();
        barrier.wait();
        barrier.wait();
        clients
            .into_iter()
            .map(|client| client.join().unwrap())
            .collect()
    });

    for client in served {
        for (expected, answers) in phases.iter().zip(client) {
            assert_answers(&queries, expected, &answers.unwrap());
        }
    }
    let stats = runtime.stats();
    assert_eq!(
        stats.inline_scored,
        (CLIENTS * phases.len() * rows.len()) as u64
    );
    assert_eq!(stats.errors, 0);
}

/// One thread alternates between two inline runtimes over two registries
/// that hold different models under the same name: each runtime answers
/// from its own registry's model every time.
#[test]
fn one_thread_alternating_runtimes_gets_each_runtimes_model() {
    let (registry, config, queries) = fixture();
    let registries = [registry, other_model()];
    let rows: Vec<Vec<f64>> = queries.iter().map(|q| featurize_plan(&q.plan)).collect();
    let runtimes = registries.each_ref().map(|registry| {
        let expected = reference_answers(registry, &config, &rows);
        let runtime = ScoringRuntime::new(
            Arc::clone(registry),
            "ppm",
            RuntimeConfig::from_auto_executor(&config),
        );
        (runtime, expected)
    });
    assert_ne!(
        runtimes[0].1[0].predicted_ppm.parameters(),
        runtimes[1].1[0].predicted_ppm.parameters(),
        "the two forests must predict different parameters"
    );
    for _round in 0..3 {
        for (runtime, expected) in &runtimes {
            let served: Vec<ResourceRequest> = rows
                .iter()
                .map(|row| {
                    runtime
                        .submit(ScoreRequest::from_features(row.clone()))
                        .unwrap()
                        .request
                })
                .collect();
            assert_answers(&queries, expected, &served);
        }
    }
    for (runtime, _) in &runtimes {
        assert_eq!(runtime.stats().inline_scored, 3 * rows.len() as u64);
    }
}
