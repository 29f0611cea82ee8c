//! Seeded fleet state machine: random interleavings of submissions,
//! faults and health ticks on a 4-shard fleet, checked against the
//! fleet's invariants.
//!
//! Each seed draws a sequence of steps — a synchronous `submit`
//! (`Standard` or `BestEffort`), a `submit_detached` at any level, a
//! crash, a stall of at most 200 µs or a model outage induced on a random
//! shard, a fault cleared on a random shard, or `tick` after 0–20 ms of
//! virtual time — and ends with `shutdown`. Health changes only inside
//! `tick`, so after every tick the ring's members must be exactly the
//! routable shards, and at least one shard must stay routable. At the
//! end, every ticket has resolved and the accounting identities hold
//! exactly: completions equal the client's Ok count, shard errors equal
//! client errors plus failover retries, nothing was shed or dropped, and
//! no shard completed more `Interactive` requests than were routed to it
//! (`Interactive` is submitted detached only here, so only an evacuation
//! could have moved one).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ae_serve::{
    FleetConfig, HealthPolicy, InducedFault, RuntimeConfig, ScoreRequest, ServiceLevel,
    ShardedRuntime, TenantId,
};
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

const SHARDS: usize = 4;
const SEEDS: [u64; 4] = [3, 17, 29, 41];
const STEPS_PER_SEED: usize = 2_500;

/// Ring members are exactly the routable shards, and one always is.
fn assert_ring_matches_health(fleet: &ShardedRuntime, step: usize) {
    let routable: Vec<u16> = fleet
        .health()
        .iter()
        .enumerate()
        .filter(|(_, state)| state.is_routable())
        .map(|(shard, _)| shard as u16)
        .collect();
    assert_eq!(
        fleet.ring().shard_ids(),
        routable.as_slice(),
        "step {step}: ring members differ from the routable shards"
    );
    assert!(!routable.is_empty(), "step {step}: no shard is routable");
}

fn run(seed: u64, registry: &Arc<ModelRegistry>, config: &AutoExecutorConfig, features: &[f64]) {
    let runtime = RuntimeConfig::from_auto_executor(config)
        .with_workers(1)
        .with_max_batch(8)
        .with_queue_capacity(1 << 16);
    let policy = HealthPolicy::default().with_retry_budget(1_000_000, 1_000_000.0);
    let fleet = ShardedRuntime::new(
        Arc::clone(registry),
        "ppm",
        FleetConfig::new(SHARDS, runtime).with_health(policy),
    );
    fleet.warm().unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = Instant::now();
    let mut ok = 0u64;
    let mut err = 0u64;
    let mut tickets = Vec::new();
    let mut interactive_routed = [0u64; SHARDS];
    for step in 0..STEPS_PER_SEED {
        let request = ScoreRequest::from_features(features.to_vec())
            .with_tenant(TenantId(rng.gen_range(0..64)));
        match rng.gen_range(0..100) {
            0..=29 => {
                let level = if rng.gen_bool(0.5) {
                    ServiceLevel::Standard
                } else {
                    ServiceLevel::BestEffort
                };
                match fleet.submit(request.with_level(level)) {
                    Ok(_) => ok += 1,
                    Err(_) => err += 1,
                }
            }
            30..=59 => {
                let level = ServiceLevel::from_index(rng.gen_range(0..3)).unwrap();
                let request = request.with_level(level);
                if level == ServiceLevel::Interactive {
                    interactive_routed[fleet.route(&request)] += 1;
                }
                tickets.push(
                    fleet
                        .submit_detached(request)
                        .expect("deep queues admit every detached request"),
                );
            }
            60..=65 => {
                let fault = match rng.gen_range(0..3) {
                    0 => InducedFault::Crash,
                    1 => InducedFault::Stall(Duration::from_micros(rng.gen_range(0..=200))),
                    _ => InducedFault::ModelOutage,
                };
                fleet.induce_shard_fault(rng.gen_range(0..SHARDS), fault);
            }
            66..=74 => fleet.clear_shard_fault(rng.gen_range(0..SHARDS)),
            _ => {
                now += Duration::from_micros(rng.gen_range(0..=20_000));
                fleet.tick(now);
                assert_ring_matches_health(&fleet, step);
            }
        }
    }
    fleet.shutdown();
    for ticket in tickets {
        match ticket.wait_timeout(Duration::from_secs(10)) {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(_)) => err += 1,
            Err(_) => panic!("seed {seed}: a ticket never resolved"),
        }
    }

    let stats = fleet.stats();
    let aggregate = stats.aggregate();
    assert_eq!(aggregate.completed, ok, "seed {seed}: completions");
    assert_eq!(
        aggregate.errors,
        err + stats.failover_retries,
        "seed {seed}: shard errors = client errors + failover retries"
    );
    assert_eq!(aggregate.dropped, 0, "seed {seed}: dropped");
    for level in ServiceLevel::ALL {
        assert_eq!(
            aggregate.level(level).shed,
            0,
            "seed {seed}: {level:?} shed"
        );
    }
    for (shard, &routed) in interactive_routed.iter().enumerate() {
        let completed = stats
            .shard(shard)
            .level(ServiceLevel::Interactive)
            .completed;
        assert!(
            completed <= routed,
            "seed {seed}: shard {shard} completed {completed} Interactive of {routed} routed"
        );
    }
}

#[test]
fn seeded_interleavings_keep_the_ring_and_the_books_exact() {
    let (registry, config, scoring) =
        common::fixture(&["q3", "q19", "q55", "q68", "q79", "q94"], 8, 11, &["q27"]);
    let features = autoexecutor::featurize_plan(&scoring[0].plan);
    for seed in SEEDS {
        run(seed, &registry, &config, &features);
    }
}
