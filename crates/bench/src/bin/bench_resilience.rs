//! Fleet resilience benchmark: goodput retained through a shard kill,
//! time-to-quarantine, time-to-recover, and zero-lost-ticket accounting
//! at 2/4/8 shards.
//!
//! **Measurement model.** Resilience is inherently live: detection,
//! failover, evacuation, and probationary recovery are interactions
//! between health passes, the routing ring, and in-flight traffic, so
//! this bench drives a closed-loop client against a live fleet, ticks the
//! fleet's health pass every 2 ms from a second thread
//! (`ShardedRuntime::tick` at the wall clock), and walks one full failure
//! lifecycle per fleet size:
//!
//! ```text
//! pre-fault ──▶ kill victim (induced crash) ──▶ quarantine detected
//!    │ qps          │ goodput (failover rescues)      │ time-to-quarantine
//!    ▼              ▼                                  ▼
//! post-recovery ◀── probation re-admission ◀── fault cleared
//!    qps               time-to-recover
//! ```
//!
//! A batch of detached tickets rides through the kill window; every one
//! must resolve — the zero-lost-tickets invariant. `queued_at_kill` is the
//! victim's queue depth just before the crash: a crashed worker fails its
//! whole queue before the second health pass can quarantine and evacuate
//! it, so those detached tickets are the run's client errors (failover
//! covers synchronous calls only). The closed loop keeps
//! at most one request in flight per client, so measured qps is honest
//! round-trip throughput, not queue-depth artifacts. Every rate is a
//! whole-window goodput (Ok answers over the phase's wall time), so
//! `goodput_retained` and `post_vs_pre` divide like by like.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ae-bench --bin bench_resilience               # full run
//! cargo run --release -p ae-bench --bin bench_resilience -- --shards 2,4,8 --requests 8000
//! ```
//!
//! `--shards` lists the fleet sizes and `--requests` sizes each load phase
//! (at most 2,000 under `--smoke`). The smoke gate fails unless, killing 1
//! of 4 shards: no ticket is lost at any fleet size, surviving goodput
//! stays at or above 60% of the pre-kill rate, and probation re-admits the
//! revived shard (finite time-to-recover).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ae_bench::harness::{self, Served};
use ae_ml::json::Value;
use ae_serve::{
    FleetConfig, HealthPolicy, InducedFault, RuntimeConfig, ScoreRequest, ServiceLevel,
    ShardedRuntime, TenantId,
};
use ae_workload::{ScaleFactor, WorkloadGenerator};
use autoexecutor::prelude::*;

const COMMENT: &str = "ae-serve fleet resilience benchmark: one full failure lifecycle per \
    fleet size, live on this host, with a second thread ticking the fleet's health pass every \
    2 ms. Every rate is whole-window goodput (Ok answers over the phase's wall time). A \
    closed-loop client measures pre-fault qps, then one shard is crashed: failover rescues \
    synchronous failures while health passes quarantine the shard (time_to_quarantine_ms), \
    survivors carry the load (fault_goodput_qps), the fault clears, and \
    the probation trickle re-admits the shard (time_to_recover_ms), after which post_qps is \
    measured on the restored ring. Detached tickets ride through the kill window; lost_tickets \
    must be 0. queued_at_kill is the victim's queue depth just before the crash; the crashed \
    worker fails that queue before a health pass can evacuate it, so client_errors tracks it. \
    accounting_exact checks completed == client Oks and errors == client errors + \
    failover retries. Regenerate with: cargo run --release -p ae-bench --bin bench_resilience -- \
    --json BENCH_resilience.json";

struct Args {
    smoke: bool,
    json: Option<String>,
    shards: Vec<usize>,
    requests: usize,
}

const TENANTS: u64 = 64;

/// The period of the ticking thread's health passes.
const TICK: Duration = Duration::from_millis(2);

/// The health/failover policy the lifecycle runs under: fast detection
/// (2 ms ticks, 4-event windows), a short quarantine hold, and an ample
/// retry budget so the failover path — not budget exhaustion — is what's
/// measured. The stall watchdog is parked: on a busy host a briefly
/// descheduled healthy shard must not add spurious quarantines to the
/// timing.
fn lifecycle_policy() -> HealthPolicy {
    HealthPolicy::default()
        .with_min_window_events(4)
        .with_stall_watchdog(1 << 20, 1 << 20)
        .with_quarantine_hold(Duration::from_millis(20))
        .with_retry_budget(1_000_000, 500_000.0)
}

fn shard_runtime(config: &AutoExecutorConfig) -> RuntimeConfig {
    RuntimeConfig::from_auto_executor(config)
        .with_workers(1)
        .with_max_batch(8)
        .with_inline_max_in_flight(0)
        .with_queue_capacity(4096)
}

/// One closed-loop load phase: synchronous submissions across the tenant
/// space and three service levels, and the wall time they took.
struct Phase {
    ok: u64,
    err: u64,
    elapsed: Duration,
}

impl Phase {
    /// Whole-window goodput: Ok answers over the phase's wall time.
    fn qps(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

fn drive(fleet: &ShardedRuntime, features: &[Vec<f64>], count: usize, offset: usize) -> Phase {
    let start = Instant::now();
    let mut ok = 0u64;
    let mut err = 0u64;
    for j in offset..offset + count {
        let request = ScoreRequest::from_features(features[j % features.len()].clone())
            .with_tenant(TenantId(j as u64 % TENANTS))
            .with_level(ServiceLevel::from_index(j % 3).unwrap());
        match fleet.submit(request) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    Phase {
        ok,
        err,
        elapsed: start.elapsed(),
    }
}

/// Drives load in small chunks until `condition` holds (or the deadline
/// passes), returning when it held and the phase tallies.
fn drive_until(
    fleet: &ShardedRuntime,
    features: &[Vec<f64>],
    offset: &mut usize,
    deadline: Duration,
    mut condition: impl FnMut() -> bool,
) -> (Option<Duration>, Phase) {
    let start = Instant::now();
    let mut ok = 0u64;
    let mut err = 0u64;
    let held = loop {
        if condition() {
            break true;
        }
        if start.elapsed() >= deadline {
            break false;
        }
        let chunk = drive(fleet, features, 16, *offset);
        *offset += 16;
        ok += chunk.ok;
        err += chunk.err;
    };
    let phase = Phase {
        ok,
        err,
        elapsed: start.elapsed(),
    };
    (held.then_some(phase.elapsed), phase)
}

/// One fleet size's full failure lifecycle.
struct LifecycleRun {
    shards: usize,
    pre_qps: f64,
    fault_goodput_qps: f64,
    post_qps: f64,
    time_to_quarantine: Option<Duration>,
    time_to_recover: Option<Duration>,
    detached_submitted: u64,
    detached_resolved: u64,
    queued_at_kill: u64,
    client_errors: u64,
    quarantines: u64,
    recoveries: u64,
    evacuated_requests: u64,
    failover_retries: u64,
    retries_denied: u64,
    accounting_exact: bool,
}

impl LifecycleRun {
    fn lost_tickets(&self) -> u64 {
        self.detached_submitted - self.detached_resolved
    }

    fn goodput_retained(&self) -> f64 {
        self.fault_goodput_qps / self.pre_qps.max(1e-9)
    }

    fn post_vs_pre(&self) -> f64 {
        self.post_qps / self.pre_qps.max(1e-9)
    }

    fn report(&self) -> Value {
        let ms = |duration: Option<Duration>| duration.map(|d| d.as_secs_f64() * 1e3);
        Value::object([
            ("shards", self.shards.into()),
            ("pre_fault_qps", self.pre_qps.into()),
            ("fault_goodput_qps", self.fault_goodput_qps.into()),
            ("goodput_retained", self.goodput_retained().into()),
            ("post_recovery_qps", self.post_qps.into()),
            ("post_vs_pre", self.post_vs_pre().into()),
            ("time_to_quarantine_ms", ms(self.time_to_quarantine).into()),
            ("time_to_recover_ms", ms(self.time_to_recover).into()),
            ("detached_tickets", self.detached_submitted.into()),
            ("lost_tickets", self.lost_tickets().into()),
            ("queued_at_kill", self.queued_at_kill.into()),
            ("client_errors", self.client_errors.into()),
            ("quarantines", self.quarantines.into()),
            ("recoveries", self.recoveries.into()),
            ("evacuated_requests", self.evacuated_requests.into()),
            ("failover_retries", self.failover_retries.into()),
            ("retries_denied", self.retries_denied.into()),
            ("accounting_exact", self.accounting_exact.into()),
        ])
    }
}

/// Runs the lifecycle while a second thread ticks the fleet's health
/// pass every [`TICK`] until the lifecycle ends.
fn run_lifecycle(served: &Served, shards: usize, requests: usize) -> LifecycleRun {
    let fleet = served.fleet(
        FleetConfig::new(shards, shard_runtime(&served.config)).with_health(lifecycle_policy()),
    );
    let done = AtomicBool::new(false);
    let run = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                fleet.tick(Instant::now());
                std::thread::sleep(TICK);
            }
        });
        let run = lifecycle(&fleet, &served.features, shards, requests);
        done.store(true, Ordering::Release);
        run
    });
    fleet.shutdown();
    run
}

fn lifecycle(
    fleet: &ShardedRuntime,
    features: &[Vec<f64>],
    shards: usize,
    requests: usize,
) -> LifecycleRun {
    let victim = fleet.shard_for_tenant(TenantId(0));
    let mut offset = 0usize;
    let mut total_ok = 0u64;
    let mut total_err = 0u64;

    // Warm-up (untimed): fill every shard's model cache, branch
    // predictors, and allocator pools so the pre-fault baseline isn't
    // depressed by cold-start costs the later phases don't pay.
    let warmup = drive(fleet, features, requests / 2, offset);
    offset += requests / 2;
    total_ok += warmup.ok;
    total_err += warmup.err;

    // Pre-fault baseline.
    let pre = drive(fleet, features, requests, offset);
    offset += requests;
    total_ok += pre.ok;
    total_err += pre.err;

    // Kill the victim. Detached tickets ride through the fault window:
    // every one must resolve (Ok or error), none may strand.
    let detached_submitted = (requests / 8).max(64);
    let mut tickets = Vec::with_capacity(detached_submitted);
    for i in 0..detached_submitted {
        let request = ScoreRequest::from_features(features[i % features.len()].clone())
            .with_tenant(TenantId(i as u64 % TENANTS));
        tickets.push(fleet.submit_detached(request).expect("admission"));
    }
    let queued_at_kill = fleet.queue_depths()[victim] as u64;
    fleet.induce_shard_fault(victim, InducedFault::Crash);
    let fault_start = Instant::now();
    let (time_to_quarantine, detect) = drive_until(
        fleet,
        features,
        &mut offset,
        Duration::from_secs(10),
        || fleet.stats().quarantines >= 1,
    );
    total_ok += detect.ok;
    total_err += detect.err;
    // Degraded steady state: the survivors carry the full load.
    let degraded = drive(fleet, features, requests, offset);
    offset += requests;
    total_ok += degraded.ok;
    total_err += degraded.err;
    let fault_elapsed = fault_start.elapsed();
    let fault_goodput_qps =
        (detect.ok + degraded.ok) as f64 / fault_elapsed.as_secs_f64().max(1e-9);

    // Revive and wait for probation to re-admit the shard.
    fleet.clear_shard_fault(victim);
    let (time_to_recover, probe) = drive_until(
        fleet,
        features,
        &mut offset,
        Duration::from_secs(10),
        || fleet.stats().recoveries >= 1,
    );
    total_ok += probe.ok;
    total_err += probe.err;

    // Post-recovery rate on the restored full ring.
    let post = drive(fleet, features, requests, offset);
    total_ok += post.ok;
    total_err += post.err;

    let mut detached_resolved = 0u64;
    let mut detached_ok = 0u64;
    for ticket in tickets {
        if let Ok(result) = ticket.wait_timeout(Duration::from_secs(10)) {
            detached_resolved += 1;
            match result {
                Ok(_) => detached_ok += 1,
                Err(_) => total_err += 1,
            }
        }
    }
    total_ok += detached_ok;

    let stats = fleet.stats();
    let aggregate = stats.aggregate();
    // The accounting identities: every client Ok is one completion, and
    // shard-side errors are client errors plus rescued failover attempts.
    let accounting_exact =
        aggregate.completed == total_ok && aggregate.errors == total_err + stats.failover_retries;
    LifecycleRun {
        shards,
        pre_qps: pre.qps(),
        fault_goodput_qps,
        post_qps: post.qps(),
        time_to_quarantine,
        time_to_recover,
        detached_submitted: detached_submitted as u64,
        detached_resolved,
        queued_at_kill,
        client_errors: total_err,
        quarantines: stats.quarantines,
        recoveries: stats.recoveries,
        evacuated_requests: stats.evacuated_requests,
        failover_retries: stats.failover_retries,
        retries_denied: stats.retries_denied,
        accounting_exact,
    }
}

fn format_ms(duration: Option<Duration>) -> String {
    match duration {
        Some(d) => format!("{:.1}", d.as_secs_f64() * 1e3),
        None => "null".to_string(),
    }
}

fn main() {
    let mut args = harness::args(&["--shards LIST", "--requests N"], |flags| {
        Ok(Args {
            smoke: flags.smoke(),
            json: flags.json(),
            shards: flags.list("--shards", vec![2, 4, 8])?,
            requests: flags.get("--requests", 8_000)?,
        })
    });
    if args.smoke {
        args.requests = args.requests.min(2_000);
    }

    let served = Served::train(
        WorkloadGenerator::new(ScaleFactor::SF10).suite(),
        "tpcds suite",
        "fleet",
    );

    let mut runs = Vec::new();
    for &shards in &args.shards {
        let run = run_lifecycle(&served, shards, args.requests);
        println!(
            "resilience: {:>2} shards   pre {:>8.0} qps   fault goodput {:>8.0} qps ({:>5.1}% retained)   post {:>8.0} qps   quarantine {:>7} ms   recover {:>7} ms   lost {}   client errors {} (queued at kill {})   quarantines {}",
            run.shards,
            run.pre_qps,
            run.fault_goodput_qps,
            run.goodput_retained() * 100.0,
            run.post_qps,
            format_ms(run.time_to_quarantine),
            format_ms(run.time_to_recover),
            run.lost_tickets(),
            run.client_errors,
            run.queued_at_kill,
            run.quarantines,
        );
        runs.push(run);
    }

    harness::write_report(
        args.json.as_deref(),
        COMMENT,
        [(
            "fleet_sizes",
            runs.iter().map(LifecycleRun::report).collect(),
        )],
    );

    if args.smoke {
        let mut failures = Vec::new();
        for run in &runs {
            if run.lost_tickets() != 0 {
                failures.push(format!(
                    "{}-shard run lost {} tickets",
                    run.shards,
                    run.lost_tickets()
                ));
            }
            if !run.accounting_exact {
                failures.push(format!("{}-shard accounting is not exact", run.shards));
            }
            if run.quarantines == 0 || run.time_to_quarantine.is_none() {
                failures.push(format!(
                    "{}-shard kill was never detected/quarantined",
                    run.shards
                ));
            }
            if run.recoveries == 0 || run.time_to_recover.is_none() {
                failures.push(format!(
                    "{}-shard probation never re-admitted the revived shard",
                    run.shards
                ));
            }
        }
        match runs.iter().find(|r| r.shards == 4) {
            Some(four) => {
                if four.goodput_retained() < 0.6 {
                    failures.push(format!(
                        "killing 1 of 4 shards must retain >= 60% goodput (got {:.1}%)",
                        four.goodput_retained() * 100.0
                    ));
                }
            }
            None => failures.push("smoke needs a 4-shard run (--shards must include 4)".into()),
        }
        harness::gate(
            "resilience smoke",
            &failures,
            "zero lost tickets, >= 60% goodput through a 1-of-4 kill, \
             probation re-admitted every revived shard",
        );
    }
}
