//! Fleet resilience suite. Every fault is set and cleared explicitly
//! through `ShardedRuntime::induce_shard_fault` / `clear_shard_fault`,
//! and health changes only when a test calls `ShardedRuntime::tick`:
//!
//! * seeded crash and stall windows, driven by a test-side thread that
//!   ticks every millisecond under 3-level concurrent load, preserve the
//!   accounting identities exactly: `aggregate().completed` equals the
//!   client-visible Ok count and `aggregate().errors` equals client-visible
//!   errors plus failover retry attempts — zero lost tickets,
//! * the other tests tick at instants they choose and assert the exact
//!   state after each pass:
//!   * an induced crash drives quarantine (successor rerouting off the
//!     ring), failover rescues the in-flight failures, and probation
//!     re-admits the shard once the fault clears,
//!   * a model outage behind a breaker (degraded answers, no errors)
//!     keeps the shard out of the ring until the fault clears,
//!   * quarantine evacuation moves `Standard` backlog to survivors but
//!     **never** `Interactive`,
//!   * shutdown is idempotent and safe concurrently with quarantine,
//!     evacuation and ticks: every ticket resolves, nothing
//!     double-counted,
//! * an induced stall delays inline answers, not only worker batches.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ae_serve::{
    BreakerConfig, FleetConfig, HealthPolicy, HealthState, InducedFault, RuntimeConfig,
    ScoreRequest, ScoreTicket, ServiceLevel, ShardedRuntime, TenantId,
};
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

fn fixture() -> (Arc<ModelRegistry>, AutoExecutorConfig, Vec<f64>) {
    let (registry, config, scoring) =
        common::fixture(&["q3", "q19", "q55", "q68", "q79", "q94"], 8, 11, &["q27"]);
    (
        registry,
        config,
        autoexecutor::featurize_plan(&scoring[0].plan),
    )
}

/// The per-shard template every resilience test uses: one worker, small
/// batches, no inline shortcut (every request goes through the queues the
/// failover machinery operates on), and a queue deep enough that neither
/// saturation nor shedding can occur — those would be *policy* outcomes,
/// not faults, and would perturb the accounting identities under test.
fn shard_runtime(config: &AutoExecutorConfig) -> RuntimeConfig {
    RuntimeConfig::from_auto_executor(config)
        .with_workers(1)
        .with_max_batch(4)
        .with_inline_max_in_flight(0)
        .with_queue_capacity(4096)
}

/// The first `count` tenant ids that route to `shard` on the fleet's
/// *current* ring (call before any quarantine changes membership).
fn tenants_for_shard(fleet: &ShardedRuntime, shard: usize, count: usize) -> Vec<TenantId> {
    let mut out = Vec::new();
    let mut id = 0u64;
    while out.len() < count {
        assert!(id < 1_000_000, "tenant search diverged");
        if fleet.shard_for_tenant(TenantId(id)) == shard {
            out.push(TenantId(id));
        }
        id += 1;
    }
    out
}

/// Redeems a detached ticket, panicking if it never resolves — the
/// zero-lost-tickets assertion.
fn redeem(ticket: ScoreTicket) -> ae_serve::Result<ae_serve::ScoreOutcome> {
    match ticket.wait_timeout(Duration::from_secs(10)) {
        Ok(result) => result,
        Err(_) => panic!("ticket stranded past the redemption deadline"),
    }
}

fn ms(millis: u64) -> Duration {
    Duration::from_millis(millis)
}

/// Waits out `total`, ticking the fleet every millisecond at the wall
/// clock, and returns early once `done` is set.
fn tick_through(fleet: &ShardedRuntime, done: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while !done.load(Ordering::Acquire) {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        fleet.tick(now);
        std::thread::sleep((deadline - now).min(ms(1)));
    }
}

/// The seeded chaos pin: a test-side thread strikes seeded shards with
/// alternating crash and stall windows of seeded lengths (a crash first)
/// through `induce_shard_fault` / `clear_shard_fault`, ticking the fleet
/// every millisecond while it waits out each window, under 3-level
/// concurrent load with failover active. Whatever the windows do, the
/// accounting identities are exact: every submission resolves,
/// `completed` equals the client Ok count, and `errors` equals
/// client-visible errors plus failover attempts — a rescued retry leaves
/// one error on the failed shard and one completion on the target. The
/// faults demonstrably land: at least one quarantine and one rescued
/// retry.
#[test]
fn seeded_chaos_accounting_is_exact_under_concurrent_load() {
    const SHARDS: usize = 4;
    let (registry, config, features) = fixture();
    let policy = HealthPolicy::default()
        .with_min_window_events(4)
        .with_stall_watchdog(4, 3)
        .with_quarantine_hold(ms(15))
        .with_retry_budget(100_000, 100_000.0);
    let fleet = Arc::new(ShardedRuntime::new(
        Arc::clone(&registry),
        "ppm",
        FleetConfig::new(SHARDS, shard_runtime(&config)).with_health(policy),
    ));
    fleet.warm().unwrap();

    // The chaos thread: one window at a time until the load is done,
    // crashes of 20–40 ms alternating with 1 ms-per-call stalls of
    // 10–30 ms, each on a seeded shard and followed by a 0–10 ms gap.
    let load_done = Arc::new(AtomicBool::new(false));
    let chaos = {
        let fleet = Arc::clone(&fleet);
        let load_done = Arc::clone(&load_done);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(42);
            let mut crash = true;
            while !load_done.load(Ordering::Acquire) {
                let shard = rng.gen_range(0..SHARDS);
                let (fault, window) = if crash {
                    (InducedFault::Crash, rng.gen_range(20..=40))
                } else {
                    (InducedFault::Stall(ms(1)), rng.gen_range(10..=30))
                };
                fleet.induce_shard_fault(shard, fault);
                tick_through(&fleet, &load_done, ms(window));
                fleet.clear_shard_fault(shard);
                tick_through(&fleet, &load_done, ms(rng.gen_range(0..=10)));
                crash = !crash;
            }
        })
    };

    const THREADS: usize = 3;
    const PER_THREAD: usize = 1200;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let fleet = Arc::clone(&fleet);
            let features = features.clone();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut err = 0u64;
                for i in 0..PER_THREAD {
                    let level = ServiceLevel::from_index((i + t) % 3).unwrap();
                    let tenant = TenantId(((i * 7 + t * 131) % 64) as u64);
                    let request = ScoreRequest::from_features(features.clone())
                        .with_tenant(tenant)
                        .with_level(level);
                    match fleet.submit(request) {
                        Ok(_) => ok += 1,
                        Err(_) => err += 1,
                    }
                    // Pace the load so it overlaps several fault windows
                    // instead of finishing inside the first one.
                    if i % 16 == 0 {
                        std::thread::sleep(Duration::from_micros(300));
                    }
                }
                (ok, err)
            })
        })
        .collect();
    let mut ok_total = 0u64;
    let mut err_total = 0u64;
    for handle in handles {
        let (ok, err) = handle.join().unwrap();
        ok_total += ok;
        err_total += err;
    }
    load_done.store(true, Ordering::Release);
    chaos.join().unwrap();
    assert_eq!(
        ok_total + err_total,
        (THREADS * PER_THREAD) as u64,
        "every submission resolved exactly once"
    );

    // All submissions were synchronous, so the fleet is quiescent and the
    // snapshot is exact.
    let stats = fleet.stats();
    let aggregate = stats.aggregate();
    // Policy outcomes would break the identities; the deep queues must
    // have prevented them entirely.
    assert_eq!(aggregate.dropped, 0, "blocking submits cannot saturate");
    for level in ServiceLevel::ALL {
        assert_eq!(aggregate.level(level).shed, 0, "{level:?} was shed");
    }
    assert_eq!(
        aggregate.completed, ok_total,
        "every client Ok is exactly one shard completion"
    );
    assert_eq!(
        aggregate.errors,
        err_total + stats.failover_retries,
        "shard errors = client errors + failover attempts (a rescued retry \
         leaves one error behind)"
    );
    assert!(
        stats.quarantines >= 1,
        "no crash window was ever quarantined"
    );
    assert!(
        stats.failover_retries >= 1,
        "no crashed-shard call was retried cross-shard"
    );
    fleet.shutdown();
}

/// The full failure lifecycle on one shard, one tick at a time: an
/// induced crash makes two bad passes (`Suspect`, then `Quarantined`)
/// while failover rescues every client call, the shard leaves the ring
/// with successor rerouting, and — once the fault clears and the hold
/// has passed — the probation trickle of 8 clean completions and 2 clean
/// passes re-admits it to full membership.
#[test]
fn crash_quarantine_failover_and_probationary_recovery() {
    let (registry, config, features) = fixture();
    let policy = HealthPolicy::default()
        .with_min_window_events(2)
        .with_quarantine_hold(ms(10))
        .with_retry_budget(100_000, 100_000.0);
    let fleet = ShardedRuntime::new(
        Arc::clone(&registry),
        "ppm",
        FleetConfig::new(2, shard_runtime(&config)).with_health(policy),
    );
    fleet.warm().unwrap();
    let victim = fleet.shard_for_tenant(TenantId(0));
    let survivor = 1 - victim;
    let victim_tenants = tenants_for_shard(&fleet, victim, 8);
    let survivor_tenants = tenants_for_shard(&fleet, survivor, 8);
    let submit = |tenant: TenantId| {
        fleet
            .submit(ScoreRequest::from_features(features.clone()).with_tenant(tenant))
            .expect("failover must rescue every call while a survivor exists");
    };
    let t0 = Instant::now();

    fleet.induce_shard_fault(victim, InducedFault::Crash);
    assert_eq!(fleet.shard_fault(victim), Some(InducedFault::Crash));
    let mut ok = 0u64;
    // Two windows of 8 crashed calls each (every one rescued on the
    // survivor) and 8 survivor calls.
    for (pass, expected) in [(1, HealthState::Suspect), (2, HealthState::Quarantined)] {
        for (&victim_tenant, &survivor_tenant) in victim_tenants.iter().zip(&survivor_tenants) {
            submit(victim_tenant);
            submit(survivor_tenant);
            ok += 2;
        }
        fleet.tick(t0 + ms(pass));
        assert_eq!(fleet.shard_health(victim), expected, "after pass {pass}");
        assert_eq!(fleet.shard_health(survivor), HealthState::Healthy);
    }
    assert_eq!(fleet.stats().quarantines, 1);
    assert_eq!(fleet.stats().failover_retries, 16);
    // Off the ring: traffic reroutes to the survivor.
    assert_eq!(fleet.ring().shard_ids(), &[survivor as u16]);
    assert_eq!(fleet.shard_for_tenant(victim_tenants[0]), survivor);

    // The hold has not passed at 11 ms (quarantined at 2 ms).
    fleet.tick(t0 + ms(11));
    assert_eq!(fleet.shard_health(victim), HealthState::Quarantined);
    fleet.clear_shard_fault(victim);
    assert_eq!(fleet.shard_fault(victim), None);
    fleet.tick(t0 + ms(12));
    assert_eq!(fleet.shard_health(victim), HealthState::Probation);

    // Every 4th submission is diverted to the probation shard: 32 calls
    // send it 8, the completions probation asks for.
    for i in 0..32 {
        submit(survivor_tenants[i % 8]);
        ok += 1;
    }
    assert_eq!(fleet.stats().shard(victim).completed, 8);
    fleet.tick(t0 + ms(13));
    assert_eq!(fleet.shard_health(victim), HealthState::Probation);
    fleet.tick(t0 + ms(14));
    assert_eq!(fleet.shard_health(victim), HealthState::Healthy);
    assert_eq!(fleet.ring().num_shards(), 2);
    assert_eq!(fleet.shard_for_tenant(victim_tenants[0]), victim);

    let stats = fleet.stats();
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.failover_retries, 16);
    assert_eq!(stats.retries_denied, 0, "the budget was ample");
    assert_eq!(stats.shard(victim).completed, 8, "only the trickle");
    let aggregate = stats.aggregate();
    assert_eq!(aggregate.completed, ok, "every client Ok counted once");
    assert_eq!(
        aggregate.errors, stats.failover_retries,
        "no client-visible errors, so shard errors are exactly the \
         rescued attempts"
    );
    fleet.shutdown();
}

/// Probation never re-admits a shard whose model path is still down.
/// Behind a breaker, a model outage produces degraded answers, not
/// errors: the failure rate counts them, so two windows of degraded
/// answers quarantine the shard, and each probation trickle answered from
/// the heuristic sends it straight back, so each hold of the outage
/// counts exactly one more quarantine. The passes tick an hour ahead of
/// the wall clock the breaker runs on: health reads only the shard's
/// answers. Once the fault clears and the breaker's cooldown has passed,
/// a half-open probe closes the breaker and probation re-admits the
/// shard.
#[test]
fn model_outage_keeps_the_shard_in_probation_until_cleared() {
    const COOLDOWN: Duration = Duration::from_millis(20);
    const CYCLES: u64 = 5;
    let (registry, config, features) = fixture();
    let policy = HealthPolicy::default().with_quarantine_hold(ms(10));
    let runtime =
        shard_runtime(&config).with_breaker(BreakerConfig::default().with_cooldown(COOLDOWN));
    let fleet = ShardedRuntime::new(
        Arc::clone(&registry),
        "ppm",
        FleetConfig::new(2, runtime).with_health(policy),
    );
    fleet.warm().unwrap();
    let victim = fleet.shard_for_tenant(TenantId(0));
    let survivor = 1 - victim;
    let victim_tenants = tenants_for_shard(&fleet, victim, 8);
    let survivor_tenants = tenants_for_shard(&fleet, survivor, 8);
    let submit = |tenant: TenantId| {
        fleet
            .submit(ScoreRequest::from_features(features.clone()).with_tenant(tenant))
            .expect("a model outage behind a breaker degrades answers, never fails them");
    };
    let t0 = Instant::now() + Duration::from_secs(3600);

    fleet.induce_shard_fault(victim, InducedFault::ModelOutage);
    // Every answer of the first two windows is degraded: the first three
    // fail over to the heuristic and trip the breaker, the rest skip the
    // model path.
    for &tenant in &victim_tenants {
        submit(tenant);
    }
    assert_eq!(fleet.stats().shard(victim).degraded, 8);
    fleet.tick(t0 + ms(1));
    assert_eq!(fleet.shard_health(victim), HealthState::Suspect);
    for &tenant in &victim_tenants {
        submit(tenant);
    }
    fleet.tick(t0 + ms(2));
    assert_eq!(fleet.shard_health(victim), HealthState::Quarantined);
    assert_eq!(fleet.stats().quarantines, 1);

    // Each cycle: the hold passes, probation begins, the trickle is
    // answered from the heuristic, and the next pass quarantines again.
    let mut now = t0 + ms(2);
    for cycle in 1..=CYCLES {
        now += ms(10);
        fleet.tick(now);
        assert_eq!(fleet.shard_health(victim), HealthState::Probation);
        for &tenant in &survivor_tenants {
            submit(tenant);
        }
        now += ms(1);
        fleet.tick(now);
        assert_eq!(fleet.shard_health(victim), HealthState::Quarantined);
        assert_eq!(fleet.stats().quarantines, 1 + cycle);
    }
    let during = fleet.stats();
    assert_eq!(during.recoveries, 0);
    assert_eq!(during.aggregate().errors, 0);
    assert!(!fleet.ring().shard_ids().contains(&(victim as u16)));

    // Cleared: once the breaker's cooldown has passed on the wall clock,
    // the first trickle call is its half-open probe and closes it.
    fleet.clear_shard_fault(victim);
    std::thread::sleep(COOLDOWN + ms(5));
    now += ms(10);
    fleet.tick(now);
    assert_eq!(fleet.shard_health(victim), HealthState::Probation);
    for i in 0..32 {
        submit(survivor_tenants[i % 8]);
    }
    for _ in 0..2 {
        now += ms(1);
        fleet.tick(now);
    }
    assert_eq!(fleet.shard_health(victim), HealthState::Healthy);
    assert!(fleet.ring().shard_ids().contains(&(victim as u16)));
    let stats = fleet.stats();
    assert_eq!(stats.quarantines, 1 + CYCLES);
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.aggregate().errors, 0);
    fleet.shutdown();
}

/// Evacuation QoS invariant: when the drain-stall watchdog quarantines a
/// wedged shard, its queued `Standard` backlog moves to the survivor —
/// but `Interactive` requests are never evacuated; they drain (slowly)
/// on their home shard. Every ticket completes.
#[test]
fn evacuation_moves_standard_backlog_but_never_interactive() {
    let (registry, config, features) = fixture();
    let policy = HealthPolicy::default()
        .with_stall_watchdog(1, 2)
        // No failover: only evacuation moves work.
        .with_retry_budget(0, 0.0);
    let fleet = ShardedRuntime::new(
        Arc::clone(&registry),
        "ppm",
        FleetConfig::new(2, shard_runtime(&config)).with_health(policy),
    );
    fleet.warm().unwrap();
    let victim = fleet.shard_for_tenant(TenantId(0));
    let survivor = 1 - victim;
    let victim_tenants = tenants_for_shard(&fleet, victim, 4);

    // Each batch on the victim takes 50 ms, far longer than submitting
    // and the three passes below: the windows they judge see no progress.
    fleet.induce_shard_fault(victim, InducedFault::Stall(ms(50)));
    const INTERACTIVE: usize = 16;
    const STANDARD: usize = 64;
    let mut tickets = Vec::with_capacity(INTERACTIVE + STANDARD);
    // Interactive first, all admitted to the victim before any pass, so
    // none can route to the survivor afterwards.
    for i in 0..INTERACTIVE {
        let request = ScoreRequest::from_features(features.clone())
            .with_tenant(victim_tenants[i % 4])
            .with_level(ServiceLevel::Interactive);
        tickets.push(fleet.submit_detached(request).unwrap());
    }
    for i in 0..STANDARD {
        let request = ScoreRequest::from_features(features.clone())
            .with_tenant(victim_tenants[i % 4])
            .with_level(ServiceLevel::Standard);
        tickets.push(fleet.submit_detached(request).unwrap());
    }
    let t0 = Instant::now();
    for (pass, expected) in [
        (1, HealthState::Healthy),
        (2, HealthState::Suspect),
        (3, HealthState::Quarantined),
    ] {
        fleet.tick(t0 + ms(pass));
        assert_eq!(fleet.shard_health(victim), expected, "after pass {pass}");
    }
    let evacuated = fleet.stats().evacuated_requests;
    assert!(
        evacuated > 0,
        "quarantine must have evacuated the standard backlog"
    );
    let mut completed = 0u64;
    for ticket in tickets {
        redeem(ticket).expect("a stall only delays; every ticket must complete");
        completed += 1;
    }
    let stats = fleet.stats();
    assert_eq!(stats.evacuated_requests, evacuated);
    assert_eq!(
        stats
            .shard(survivor)
            .level(ServiceLevel::Standard)
            .completed,
        evacuated,
        "the survivor completed exactly the evacuees"
    );
    assert_eq!(
        stats
            .shard(survivor)
            .level(ServiceLevel::Interactive)
            .completed,
        0,
        "Interactive must never be evacuated off its home shard"
    );
    assert_eq!(
        stats
            .shard(victim)
            .level(ServiceLevel::Interactive)
            .completed,
        INTERACTIVE as u64,
        "every Interactive request drained on the stalled home shard"
    );
    let aggregate = stats.aggregate();
    assert_eq!(aggregate.completed, completed);
    assert_eq!(aggregate.completed, (INTERACTIVE + STANDARD) as u64);
    assert_eq!(aggregate.errors, 0);
    fleet.clear_shard_fault(victim);
    fleet.shutdown();
}

/// Shutdown satellite: once ticks have quarantined a crashed shard and
/// evacuated a stalled one, concurrent and repeated `shutdown` calls
/// racing a ticking thread strand no ticket and double-count nothing —
/// `completed + errors` equals the admitted total exactly — and a
/// stopped fleet ignores ticks, so its snapshot is stable.
#[test]
fn shutdown_is_idempotent_and_safe_during_quarantine_and_evacuation() {
    let (registry, config, features) = fixture();
    let policy = HealthPolicy::default()
        .with_min_window_events(2)
        .with_stall_watchdog(1, 1)
        .with_quarantine_hold(ms(5))
        // No failover: every admitted ticket is counted by exactly the
        // shard(s) that held it, so errors match the client tally 1:1.
        .with_retry_budget(0, 0.0);
    let fleet = Arc::new(ShardedRuntime::new(
        Arc::clone(&registry),
        "ppm",
        FleetConfig::new(4, shard_runtime(&config)).with_health(policy),
    ));
    fleet.warm().unwrap();

    // Fault first, then load: shard 0 fails its tickets, and shard 1's
    // first batch sleeps 100 ms while the rest of its share queues.
    fleet.induce_shard_fault(0, InducedFault::Crash);
    fleet.induce_shard_fault(1, InducedFault::Stall(ms(100)));
    const TOTAL: usize = 600;
    let mut tickets = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL {
        let request = ScoreRequest::from_features(features.clone())
            .with_tenant(TenantId((i % 32) as u64))
            .with_level(ServiceLevel::from_index(i % 3).unwrap());
        tickets.push(fleet.submit_detached(request).unwrap());
    }
    let t0 = Instant::now();
    fleet.tick(t0 + ms(1));
    assert_eq!(fleet.shard_health(1), HealthState::Suspect);
    fleet.tick(t0 + ms(2));
    assert_eq!(fleet.shard_health(1), HealthState::Quarantined);
    assert!(
        fleet.stats().evacuated_requests > 0,
        "the stalled shard's backlog must have moved before shutdown"
    );

    // Race three shutdowns against a thread that keeps ticking (holds
    // expire, probation starts and fails) until the fleet stops.
    let ticker = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || {
            for step in 3..200 {
                fleet.tick(t0 + ms(step));
            }
        })
    };
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || fleet.shutdown())
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    ticker.join().unwrap();
    fleet.shutdown(); // and once more, for idempotence

    let mut ok = 0u64;
    let mut err = 0u64;
    for ticket in tickets {
        match redeem(ticket) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    assert_eq!(ok + err, TOTAL as u64, "every ticket resolved exactly once");
    let stats = fleet.stats();
    let aggregate = stats.aggregate();
    assert_eq!(aggregate.completed, ok, "every Ok counted exactly once");
    assert_eq!(aggregate.errors, err, "every failure counted exactly once");
    assert_eq!(
        aggregate.completed + aggregate.errors,
        TOTAL as u64,
        "no ticket lost or double-counted across shutdown, quarantine, \
         and evacuation"
    );
    fleet.tick(t0 + Duration::from_secs(3600));
    assert_eq!(
        fleet.stats(),
        stats,
        "a stopped fleet's snapshot must be stable, ticks included"
    );
}

#[test]
fn stall_delays_inline_answers() {
    let (registry, config, features) = fixture();
    let fleet = ShardedRuntime::new(
        registry,
        "ppm",
        FleetConfig::new(1, RuntimeConfig::from_auto_executor(&config)),
    );
    fleet.warm().unwrap();
    let stall = Duration::from_millis(30);
    fleet.induce_shard_fault(0, InducedFault::Stall(stall));
    let begin = Instant::now();
    fleet.submit(ScoreRequest::from_features(features)).unwrap();
    let elapsed = begin.elapsed();
    assert_eq!(
        fleet.stats().aggregate().inline_scored,
        1,
        "a lone synchronous request on the serving defaults scores inline"
    );
    assert!(
        elapsed >= stall,
        "a stalled shard must delay inline answers too; answered in {elapsed:?}"
    );
}
