//! Fleet determinism suite:
//!
//! * same shard count ⇒ identical per-tenant routing across fleet
//!   instances (the ring seed is fixed),
//! * a 1-shard fleet in deterministic mode is **bit-identical** to a bare
//!   `ScoringRuntime` (scores *and* counters),
//! * deterministic-mode scores are bit-identical to the sequential rule
//!   at every shard count (routing never changes answers), and
//! * N threads × M queries through a multi-shard fleet produce the same
//!   per-query result set as the sequential rule, with per-shard
//!   completion counts exactly matching the router's placement.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ae_serve::{
    FleetConfig, RuntimeConfig, ScoreRequest, ScoringRuntime, ServiceLevel, ShardedRuntime,
    TenantId,
};
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
        &[
            "q3", "q7", "q11", "q19", "q27", "q34", "q39b", "q46", "q55", "q59", "q64", "q68",
            "q72", "q79", "q88", "q96", "q14b", "q2", "q31", "q50", "q65", "q80", "q93", "q99",
        ],
    )
}

/// Same shard count ⇒ the same tenant→shard map, across fleet instances
/// and independent of everything else in the config.
#[test]
fn routing_is_identical_across_fleet_instances_with_the_same_seed() {
    let config = AutoExecutorConfig::default();
    let registry = Arc::new(ModelRegistry::in_memory());
    let fleet_a = ShardedRuntime::new(
        Arc::clone(&registry),
        "ppm",
        FleetConfig::deterministic(4, &config),
    );
    let fleet_b = ShardedRuntime::new(
        Arc::clone(&registry),
        "ppm",
        // Different runtime template, same ring parameters: placement
        // must not depend on worker count or batching.
        FleetConfig::new(
            4,
            RuntimeConfig::from_auto_executor(&config).with_workers(3),
        ),
    );
    for tenant in 0..2000u64 {
        let tenant = TenantId(tenant);
        let a = fleet_a.shard_for_tenant(tenant);
        assert_eq!(a, fleet_b.shard_for_tenant(tenant));
        assert!(a < 4);
        // `route` agrees with `shard_for_tenant` for tenanted requests.
        let request = ScoreRequest::from_features(vec![0.0; 8]).with_tenant(tenant);
        assert_eq!(fleet_a.route(&request), a);
    }
    fleet_a.shutdown();
    fleet_b.shutdown();
}

/// The single-shard pin: a 1-shard deterministic fleet is the bare
/// deterministic `ScoringRuntime`, bit for bit — same scores, same
/// counters.
#[test]
fn one_shard_deterministic_fleet_is_bit_identical_to_bare_runtime() {
    let (registry, config, queries) = fixture();
    let rewriter = Optimizer::with_default_rules();
    let optimized: Vec<ae_engine::plan::QueryPlan> = queries
        .iter()
        .map(|q| rewriter.optimize(q.plan.clone()).unwrap().plan)
        .collect();

    let bare = ScoringRuntime::new(
        Arc::clone(&registry),
        "ppm",
        RuntimeConfig::deterministic(&config),
    );
    let fleet = ShardedRuntime::new(
        Arc::clone(&registry),
        "ppm",
        FleetConfig::deterministic(1, &config),
    );
    assert_eq!(fleet.num_shards(), 1);
    // A generous deadline budget keeps `deadline_misses` deterministically
    // zero, so the stats comparison below is exact even on a loaded host.
    let budget = Duration::from_secs(60);
    for (query, plan) in queries.iter().zip(&optimized) {
        let tenant = TenantId(query.name.len() as u64);
        let from_bare = bare
            .submit(
                ScoreRequest::from_plan(plan)
                    .with_tenant(tenant)
                    .with_deadline_budget(budget),
            )
            .unwrap();
        let from_fleet = fleet
            .submit(
                ScoreRequest::from_plan(plan)
                    .with_tenant(tenant)
                    .with_deadline_budget(budget),
            )
            .unwrap();
        assert_bit_identical(&query.name, &from_bare.request, &from_fleet.request);
        assert_eq!(from_bare.level, from_fleet.level);
        assert!(!from_bare.missed_deadline);
        assert!(!from_fleet.missed_deadline);
    }
    let bare_stats = bare.stats();
    let fleet_stats = fleet.stats();
    assert_eq!(fleet_stats.num_shards(), 1);
    // The shard's counters are the bare runtime's counters, field for
    // field, and the aggregate adds nothing.
    assert_eq!(*fleet_stats.shard(0), bare_stats);
    assert_eq!(fleet_stats.aggregate(), bare_stats);
    fleet.shutdown();
    bare.shutdown();
}

/// Routing never changes answers: at every shard count, deterministic-mode
/// scores are bit-identical to the sequential rule, and per-shard
/// completion counts match the router's placement exactly.
#[test]
fn deterministic_scores_are_bit_identical_at_every_shard_count() {
    let (registry, config, queries) = fixture();
    let sequential = sequential_requests(&registry, &config, &queries);
    let rewriter = Optimizer::with_default_rules();
    let optimized: Vec<ae_engine::plan::QueryPlan> = queries
        .iter()
        .map(|q| rewriter.optimize(q.plan.clone()).unwrap().plan)
        .collect();
    for shards in [1usize, 2, 4] {
        let fleet = ShardedRuntime::new(
            Arc::clone(&registry),
            "ppm",
            FleetConfig::deterministic(shards, &config),
        );
        let mut routed = vec![0u64; shards];
        for ((query, seq), plan) in queries.iter().zip(&sequential).zip(&optimized) {
            let tenant = TenantId(fnv(&query.name));
            let request = ScoreRequest::from_plan(plan).with_tenant(tenant);
            routed[fleet.route(&request)] += 1;
            let outcome = fleet.submit(request).unwrap();
            assert_bit_identical(&query.name, seq, &outcome.request);
        }
        let stats = fleet.stats();
        let aggregate = stats.aggregate();
        assert_eq!(aggregate.completed, queries.len() as u64, "{shards} shards");
        assert_eq!(aggregate.errors, 0);
        assert_eq!(aggregate.dropped, 0);
        for (shard, &expected) in routed.iter().enumerate() {
            assert_eq!(
                stats.shard(shard).completed,
                expected,
                "{shards} shards: shard {shard} completion count vs routing"
            );
        }
        fleet.shutdown();
    }
}

fn fnv(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// N threads × M queries through a 4-shard fleet: every served result is
/// bit-identical to the sequential rule (set equality keyed by query
/// name), totals are exact, and each shard completed exactly the requests
/// routed to it (routing alone decides placement).
#[test]
fn concurrent_submitters_produce_the_sequential_result_set_across_shards() {
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

    const SHARDS: usize = 4;
    let fleet = Arc::new(ShardedRuntime::new(
        Arc::clone(&registry),
        "ppm",
        FleetConfig::new(
            SHARDS,
            RuntimeConfig::from_auto_executor(&config)
                .with_workers(1)
                .with_max_batch(8),
        ),
    ));
    fleet.warm().unwrap();

    // Expected placement: tenant is derived from the query name, so every
    // thread submits query `q` under the same tenant.
    let mut routed: HashMap<usize, u64> = HashMap::new();
    for (name, _) in &optimized {
        let shard = fleet.shard_for_tenant(TenantId(fnv(name)));
        *routed.entry(shard).or_default() += 1;
    }

    const THREADS: usize = 6;
    const ROUNDS: usize = 2;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let fleet = Arc::clone(&fleet);
            let optimized = optimized.clone();
            std::thread::spawn(move || {
                let mut results = Vec::new();
                for round in 0..ROUNDS {
                    for i in 0..optimized.len() {
                        let (name, plan) = &optimized[(i + t * 5 + round) % optimized.len()];
                        let outcome = fleet
                            .submit(
                                ScoreRequest::from_plan(plan)
                                    .with_tenant(TenantId(fnv(name)))
                                    .with_level(ServiceLevel::Standard),
                            )
                            .unwrap();
                        results.push((name.clone(), outcome.request));
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

    let stats = fleet.stats();
    let aggregate = stats.aggregate();
    assert_eq!(aggregate.completed, total as u64);
    assert_eq!(aggregate.errors, 0);
    assert_eq!(aggregate.dropped, 0);
    let repeats = (THREADS * ROUNDS) as u64;
    for shard in 0..SHARDS {
        let expected_count = routed.get(&shard).copied().unwrap_or(0) * repeats;
        assert_eq!(
            stats.shard(shard).completed,
            expected_count,
            "shard {shard} must complete exactly the requests routed to it"
        );
    }
    fleet.shutdown();
}
