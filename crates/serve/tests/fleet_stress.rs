//! Fleet stress battery:
//!
//! * flooding one shard's tenants keeps every request on the shard the
//!   ring routes it to — routing alone decides placement — and the
//!   per-shard QoS invariants (nothing shed below saturation, no lost or
//!   double-counted requests) hold throughout,
//! * graceful shutdown drains all shards with **no lost tickets**: every
//!   detached submission resolves to a score or `ShutDown`, and the two
//!   client-side counts match the fleet's counters exactly, and
//! * [`FleetStats`] aggregation is exact under concurrent multi-level
//!   load: per-shard counters sum to the client-observed totals, and
//!   `delta_since` isolates a traffic phase precisely.

use std::sync::Arc;
use std::time::Duration;

use ae_serve::{
    FleetConfig, RuntimeConfig, ScoreRequest, ServeError, ServiceLevel, ShardedRuntime, TenantId,
};
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;

mod common;

fn fixture(seed: u64) -> (Arc<ModelRegistry>, AutoExecutorConfig, Vec<f64>) {
    let (registry, config, scoring) = common::fixture(
        &["q3", "q19", "q55", "q68", "q79", "q94"],
        8,
        seed,
        &["q27"],
    );
    (
        registry,
        config,
        autoexecutor::featurize_plan(&scoring[0].plan),
    )
}

/// Tenants of one shard: walks the id space until `count` tenants routing
/// to `shard` are found.
fn tenants_of_shard(fleet: &ShardedRuntime, shard: usize, count: usize) -> Vec<TenantId> {
    let mut found = Vec::new();
    let mut id = 0u64;
    while found.len() < count {
        if fleet.shard_for_tenant(TenantId(id)) == shard {
            found.push(TenantId(id));
        }
        id += 1;
        assert!(id < 1_000_000, "ring starved shard {shard}");
    }
    found
}

/// Floods a single shard's tenants at a rate its one worker cannot match
/// and checks that the backlog stays where routing put it: every request
/// completes exactly once, on the flooded shard, and the fleet's books
/// stay exact.
#[test]
fn flooding_one_shard_completes_every_request_on_its_routed_shard() {
    let (registry, config, features) = fixture(31);
    const SHARDS: usize = 4;
    const TOTAL: usize = 3000;
    let fleet = ShardedRuntime::new(
        Arc::clone(&registry),
        "ppm",
        FleetConfig::new(
            SHARDS,
            RuntimeConfig::from_auto_executor(&config)
                .with_workers(1)
                .with_max_batch(4)
                .with_inline_max_in_flight(0)
                .with_queue_capacity(4096),
        ),
    );
    fleet.warm().unwrap();

    // All traffic targets tenants of one shard.
    let victim = fleet.shard_for_tenant(TenantId(0));
    let tenants = tenants_of_shard(&fleet, victim, 8);

    let mut tickets = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL {
        // ~10% Interactive, the rest Standard.
        let level = if i % 10 == 0 {
            ServiceLevel::Interactive
        } else {
            ServiceLevel::Standard
        };
        let request = ScoreRequest::from_features(features.clone())
            .with_tenant(tenants[i % tenants.len()])
            .with_level(level)
            .with_deadline_budget(Duration::from_secs(60));
        tickets.push(fleet.submit_detached(request).unwrap());
    }
    for ticket in tickets {
        ticket.wait().unwrap();
    }

    let stats = fleet.stats();
    let aggregate = stats.aggregate();

    // Every request completed on the shard it was routed to: no other
    // shard scored anything.
    assert_eq!(stats.shard(victim).completed, TOTAL as u64);
    for shard in (0..SHARDS).filter(|&s| s != victim) {
        assert_eq!(
            stats.shard(shard).completed,
            0,
            "shard {shard} scored a request routed to shard {victim}"
        );
    }
    assert_eq!(
        stats
            .shard(victim)
            .level(ServiceLevel::Interactive)
            .completed,
        (TOTAL as u64).div_ceil(10)
    );

    // Exact books: every request completed exactly once, none
    // shed/dropped/errored (the queue never saturated and no tenant
    // policy is set).
    assert_eq!(aggregate.completed, TOTAL as u64);
    assert_eq!(
        (0..SHARDS).map(|s| stats.shard(s).completed).sum::<u64>(),
        TOTAL as u64
    );
    assert_eq!(aggregate.errors, 0);
    assert_eq!(aggregate.dropped, 0);
    assert_eq!(aggregate.shed(), 0);
    assert_eq!(aggregate.demoted, 0);
    assert_eq!(aggregate.throttled, 0);
    // Per-shard QoS invariant from qos_behavior.rs, now per shard: only
    // BestEffort is ever shed, and below saturation nothing is.
    for shard in 0..SHARDS {
        let s = stats.shard(shard);
        assert_eq!(s.level(ServiceLevel::Interactive).shed, 0);
        assert_eq!(s.level(ServiceLevel::Standard).shed, 0);
    }
    fleet.shutdown();
}

/// Graceful shutdown with non-empty queues on every shard: no ticket is
/// lost — each resolves to a score or to `ShutDown` — and the client-side
/// tallies match the fleet counters exactly.
#[test]
fn shutdown_drains_all_shards_without_losing_tickets() {
    let (registry, config, features) = fixture(32);
    const SHARDS: usize = 2;
    const TOTAL: usize = 400;
    let fleet = ShardedRuntime::new(
        Arc::clone(&registry),
        "ppm",
        FleetConfig::new(
            SHARDS,
            RuntimeConfig::from_auto_executor(&config)
                .with_workers(1)
                .with_max_batch(4)
                .with_inline_max_in_flight(0)
                .with_queue_capacity(4096),
        ),
    );
    fleet.warm().unwrap();

    // Spread across many tenants so both shards hold backlog when the
    // shutdown lands.
    let mut tickets = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL {
        let request = ScoreRequest::from_features(features.clone())
            .with_tenant(TenantId(i as u64))
            .with_deadline_budget(Duration::from_secs(60));
        tickets.push(fleet.submit_detached(request).unwrap());
    }
    fleet.shutdown();

    let mut scored = 0u64;
    let mut shut_down = 0u64;
    for ticket in tickets {
        match ticket.wait_timeout(Duration::from_secs(10)) {
            Ok(Ok(_)) => scored += 1,
            Ok(Err(ServeError::ShutDown)) => shut_down += 1,
            Ok(Err(other)) => panic!("unexpected error after shutdown: {other}"),
            Err(_) => panic!("a ticket was lost: unresolved after shutdown"),
        }
    }
    assert_eq!(scored + shut_down, TOTAL as u64, "a ticket vanished");

    let stats = fleet.stats();
    let aggregate = stats.aggregate();
    assert_eq!(
        aggregate.completed, scored,
        "completed != client-side scores"
    );
    assert_eq!(
        aggregate.errors, shut_down,
        "errors != client-side ShutDowns"
    );
    assert_eq!(aggregate.completed + aggregate.errors, TOTAL as u64);
    assert!(
        fleet.queue_depths().iter().all(|&d| d == 0),
        "a shard still holds queued requests after shutdown"
    );
}

/// `FleetStats` exactness under concurrent multi-level load: per-shard
/// counters sum to the client-observed totals, per-level completions
/// match what the clients submitted, and `delta_since` isolates a second
/// traffic phase exactly.
#[test]
fn fleet_stats_sum_exactly_under_concurrent_load() {
    let (registry, config, features) = fixture(33);
    const SHARDS: usize = 4;
    const THREADS: usize = 4;
    const PER_THREAD: usize = 150;
    let fleet = Arc::new(ShardedRuntime::new(
        Arc::clone(&registry),
        "ppm",
        FleetConfig::new(
            SHARDS,
            RuntimeConfig::from_auto_executor(&config)
                .with_workers(1)
                .with_max_batch(8)
                .with_queue_capacity(4096),
        ),
    ));
    fleet.warm().unwrap();

    // One phase of concurrent blocking submissions; returns the per-level
    // client-side completion counts. Blocking submits mean the fleet is
    // quiescent once every thread has joined.
    let run_phase = |phase: usize| -> [u64; 3] {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let fleet = Arc::clone(&fleet);
                let features = features.clone();
                std::thread::spawn(move || {
                    let mut counts = [0u64; 3];
                    for i in 0..PER_THREAD {
                        let level = ServiceLevel::from_index((i + t) % 3).unwrap();
                        let outcome = fleet
                            .submit(
                                ScoreRequest::from_features(features.clone())
                                    .with_tenant(TenantId((phase * 100_000 + t * 1000 + i) as u64))
                                    .with_level(level)
                                    .with_deadline_budget(Duration::from_secs(60)),
                            )
                            .unwrap();
                        counts[outcome.level.index()] += 1;
                    }
                    counts
                })
            })
            .collect();
        let mut totals = [0u64; 3];
        for handle in handles {
            let counts = handle.join().unwrap();
            for (total, count) in totals.iter_mut().zip(counts) {
                *total += count;
            }
        }
        totals
    };

    let phase1 = run_phase(1);
    let snapshot = fleet.stats();
    let phase2 = run_phase(2);
    let finish = fleet.stats();

    let phase_total = (THREADS * PER_THREAD) as u64;
    assert_eq!(phase1.iter().sum::<u64>(), phase_total);
    assert_eq!(phase2.iter().sum::<u64>(), phase_total);

    // Snapshot after phase 1: per-shard counters sum exactly to what the
    // clients observed — no request lost or double-counted.
    let agg1 = snapshot.aggregate();
    assert_eq!(agg1.completed, phase_total);
    assert_eq!(
        (0..SHARDS)
            .map(|s| snapshot.shard(s).completed)
            .sum::<u64>(),
        phase_total
    );
    for level in ServiceLevel::ALL {
        assert_eq!(agg1.level(level).completed, phase1[level.index()]);
    }
    assert_eq!(agg1.errors, 0);
    assert_eq!(agg1.dropped, 0);
    assert_eq!(agg1.shed(), 0);

    // The delta isolates phase 2 exactly, counter for counter.
    let delta = finish.delta_since(&snapshot);
    let agg_delta = delta.aggregate();
    assert_eq!(agg_delta.completed, phase_total);
    for level in ServiceLevel::ALL {
        assert_eq!(agg_delta.level(level).completed, phase2[level.index()]);
    }
    assert_eq!(
        (0..SHARDS).map(|s| delta.shard(s).completed).sum::<u64>(),
        phase_total
    );
    let agg_final = finish.aggregate();
    assert_eq!(agg_final.completed, 2 * phase_total);
    assert_eq!(agg_final.errors, 0);
    fleet.shutdown();
}
