//! Fleet resilience benchmark: goodput retained through a shard kill,
//! time-to-quarantine, time-to-recover, and zero-lost-ticket accounting
//! at 2/4/8 shards.
//!
//! **Measurement model.** Resilience is inherently live: detection,
//! failover, evacuation, and probationary recovery are interactions
//! between the health monitor, the routing ring, and in-flight traffic,
//! so this bench drives a closed-loop client against a live fleet and
//! walks one full failure lifecycle per fleet size:
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
//! must resolve — the zero-lost-tickets invariant. The closed loop keeps
//! at most one request in flight per client, so measured qps is honest
//! round-trip throughput on this 1-core container, not queue-depth
//! artifacts.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ae-bench --bin bench_resilience               # full run
//! cargo run --release -p ae-bench --bin bench_resilience -- --smoke    # CI gate
//! cargo run --release -p ae-bench --bin bench_resilience -- --json BENCH_resilience.json
//! ```
//!
//! `--smoke` shortens the run and exits non-zero unless, killing 1 of 4
//! shards: no ticket is lost at any fleet size, surviving goodput stays
//! at or above 60% of the pre-kill rate, and probation re-admits the
//! revived shard (finite time-to-recover).

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ae_serve::{
    FleetConfig, HealthPolicy, InducedFault, RuntimeConfig, ScoreRequest, ServiceLevel,
    ShardedRuntime, TenantId,
};
use ae_workload::{FamilyRegistry, QueryInstance, ScaleFactor, WorkloadGenerator};
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;

struct Args {
    smoke: bool,
    shards: Vec<usize>,
    requests: usize,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        shards: vec![2, 4, 8],
        requests: 8_000,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--shards" => {
                let list = it.next().expect("--shards needs a comma-separated list");
                args.shards = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("--shards needs numbers"))
                    .collect();
            }
            "--requests" => {
                args.requests = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests needs a number");
            }
            "--json" => args.json = it.next(),
            other => panic!("unknown argument: {other}"),
        }
    }
    if args.smoke {
        args.requests = args.requests.min(2_000);
    }
    args
}

const TENANTS: u64 = 64;

/// The health/failover policy the lifecycle runs under: fast detection
/// (2 ms checks), a short quarantine hold, and an ample retry budget so
/// the failover path — not budget exhaustion — is what's measured. The
/// stall watchdog is parked: on a 1-core host a briefly descheduled
/// healthy shard must not add spurious quarantines to the timing.
fn lifecycle_policy() -> HealthPolicy {
    HealthPolicy::default()
        .with_check_interval(Duration::from_millis(2))
        .with_error_rate(0.5, 4)
        .with_stall_watchdog(1 << 20, 1 << 20)
        .with_quarantine_hold(Duration::from_millis(20))
        .with_probation(4, 8, 2)
        .with_retry_budget(1_000_000, 500_000.0)
}

fn shard_runtime(config: &AutoExecutorConfig) -> RuntimeConfig {
    RuntimeConfig::from_auto_executor(config)
        .with_workers(1)
        .with_max_batch(8)
        .with_batch_window(Duration::ZERO)
        .with_inline_max_in_flight(0)
        .with_queue_capacity(4096)
}

/// One closed-loop load phase: `count` synchronous submissions across
/// the tenant space and three service levels.
struct Phase {
    ok: u64,
    err: u64,
    /// Best sustained goodput over the phase's sub-chunks: the
    /// steady-state rate, insensitive to transient scheduler stalls on a
    /// loaded 1-core host (phase-to-phase whole-window qps varies ±20%
    /// here; peak-of-chunks is the comparable number).
    peak_qps: f64,
}

fn drive(fleet: &ShardedRuntime, features: &[Vec<f64>], count: usize, offset: usize) -> Phase {
    const CHUNKS: usize = 8;
    let chunk_size = (count / CHUNKS).max(1);
    let mut ok = 0u64;
    let mut err = 0u64;
    let mut peak_qps = 0.0f64;
    let mut i = offset;
    let end = offset + count;
    while i < end {
        let chunk_end = (i + chunk_size).min(end);
        let chunk_start = Instant::now();
        let mut chunk_ok = 0u64;
        for j in i..chunk_end {
            let request = ScoreRequest::from_features(features[j % features.len()].clone())
                .with_tenant(TenantId(j as u64 % TENANTS))
                .with_level(ServiceLevel::from_index(j % 3).unwrap());
            match fleet.submit(request) {
                Ok(_) => {
                    ok += 1;
                    chunk_ok += 1;
                }
                Err(_) => err += 1,
            }
        }
        peak_qps = peak_qps.max(chunk_ok as f64 / chunk_start.elapsed().as_secs_f64().max(1e-9));
        i = chunk_end;
    }
    Phase { ok, err, peak_qps }
}

/// Drives load in small chunks until `condition` holds (or the deadline
/// passes), returning the elapsed wall time and the phase tallies.
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
    loop {
        if condition() {
            return (
                Some(start.elapsed()),
                Phase {
                    ok,
                    err,
                    peak_qps: 0.0,
                },
            );
        }
        if start.elapsed() >= deadline {
            return (
                None,
                Phase {
                    ok,
                    err,
                    peak_qps: 0.0,
                },
            );
        }
        let chunk = drive(fleet, features, 16, *offset);
        *offset += 16;
        ok += chunk.ok;
        err += chunk.err;
    }
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
}

fn run_lifecycle(
    registry: &Arc<ModelRegistry>,
    config: &AutoExecutorConfig,
    features: &[Vec<f64>],
    shards: usize,
    requests: usize,
) -> LifecycleRun {
    let fleet = ShardedRuntime::new(
        Arc::clone(registry),
        "fleet",
        FleetConfig::new(shards, shard_runtime(config)).with_health(lifecycle_policy()),
    );
    fleet.warm().expect("model warm-up");
    let victim = fleet.shard_for_tenant(TenantId(0));
    let mut offset = 0usize;
    let mut total_ok = 0u64;
    let mut total_err = 0u64;

    // Warm-up (untimed): fill every shard's model cache, branch
    // predictors, and allocator pools so the pre-fault baseline isn't
    // depressed by cold-start costs the later phases don't pay.
    let warmup = drive(&fleet, features, requests / 2, offset);
    offset += requests / 2;
    total_ok += warmup.ok;
    total_err += warmup.err;

    // Pre-fault baseline.
    let pre = drive(&fleet, features, requests, offset);
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
    fleet.induce_shard_fault(victim, InducedFault::Crash);
    let fault_start = Instant::now();
    let (time_to_quarantine, detect) = drive_until(
        &fleet,
        features,
        &mut offset,
        Duration::from_secs(10),
        || fleet.stats().quarantines >= 1,
    );
    total_ok += detect.ok;
    total_err += detect.err;
    // Degraded steady state: the survivors carry the full load.
    let degraded = drive(&fleet, features, requests, offset);
    offset += requests;
    total_ok += degraded.ok;
    total_err += degraded.err;
    let fault_elapsed = fault_start.elapsed();
    let fault_goodput_qps =
        (detect.ok + degraded.ok) as f64 / fault_elapsed.as_secs_f64().max(1e-9);

    // Revive and wait for probation to re-admit the shard.
    fleet.clear_shard_fault(victim);
    let (time_to_recover, probe) = drive_until(
        &fleet,
        features,
        &mut offset,
        Duration::from_secs(10),
        || fleet.stats().recoveries >= 1,
    );
    total_ok += probe.ok;
    total_err += probe.err;

    // Post-recovery rate on the restored full ring.
    let post = drive(&fleet, features, requests, offset);
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
    let run = LifecycleRun {
        shards,
        pre_qps: pre.peak_qps,
        fault_goodput_qps,
        post_qps: post.peak_qps,
        time_to_quarantine,
        time_to_recover,
        detached_submitted: detached_submitted as u64,
        detached_resolved,
        client_errors: total_err,
        quarantines: stats.quarantines,
        recoveries: stats.recoveries,
        evacuated_requests: stats.evacuated_requests,
        failover_retries: stats.failover_retries,
        retries_denied: stats.retries_denied,
        accounting_exact,
    };
    fleet.shutdown();
    run
}

fn format_ms(duration: Option<Duration>) -> String {
    match duration {
        Some(d) => format!("{:.1}", d.as_secs_f64() * 1e3),
        None => "null".to_string(),
    }
}

fn write_json(path: &str, runs: &[LifecycleRun]) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"comment\": \"ae-serve fleet resilience benchmark: one full failure lifecycle per \
         fleet size, live on this host. A closed-loop client measures pre-fault qps, then one \
         shard is crashed: failover rescues in-flight failures while the health monitor \
         quarantines the shard (time_to_quarantine_ms), survivors carry the load \
         (fault_goodput_qps), the fault clears, and the probation trickle re-admits the shard \
         (time_to_recover_ms), after which post_qps is measured on the restored ring. Detached \
         tickets ride through the kill window; lost_tickets must be 0. accounting_exact checks \
         completed == client Oks and errors == client errors + failover retries. Regenerate \
         with: cargo run --release -p ae-bench --bin bench_resilience -- --json \
         BENCH_resilience.json\",\n",
    );
    out.push_str(&format!(
        "  \"host\": \"{}-core container (rustc 1.95, release profile)\",\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str("  \"fleet_sizes\": [\n");
    for (i, run) in runs.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"shards\": {},\n", run.shards));
        out.push_str(&format!("      \"pre_fault_qps\": {:.1},\n", run.pre_qps));
        out.push_str(&format!(
            "      \"fault_goodput_qps\": {:.1},\n",
            run.fault_goodput_qps
        ));
        out.push_str(&format!(
            "      \"goodput_retained\": {:.3},\n",
            run.goodput_retained()
        ));
        out.push_str(&format!(
            "      \"post_recovery_qps\": {:.1},\n",
            run.post_qps
        ));
        out.push_str(&format!(
            "      \"post_vs_pre\": {:.3},\n",
            run.post_vs_pre()
        ));
        out.push_str(&format!(
            "      \"time_to_quarantine_ms\": {},\n",
            format_ms(run.time_to_quarantine)
        ));
        out.push_str(&format!(
            "      \"time_to_recover_ms\": {},\n",
            format_ms(run.time_to_recover)
        ));
        out.push_str(&format!(
            "      \"detached_tickets\": {},\n      \"lost_tickets\": {},\n",
            run.detached_submitted,
            run.lost_tickets()
        ));
        out.push_str(&format!(
            "      \"client_errors\": {},\n      \"quarantines\": {},\n      \
             \"recoveries\": {},\n      \"evacuated_requests\": {},\n      \
             \"failover_retries\": {},\n      \"retries_denied\": {},\n",
            run.client_errors,
            run.quarantines,
            run.recoveries,
            run.evacuated_requests,
            run.failover_retries,
            run.retries_denied,
        ));
        out.push_str(&format!(
            "      \"accounting_exact\": {}\n",
            run.accounting_exact
        ));
        out.push_str("    }");
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(path).expect("create json output");
    file.write_all(out.as_bytes()).expect("write json output");
    println!("wrote {path}");
}

fn main() {
    let args = parse_args();

    let registry_families = FamilyRegistry::builtin();
    let family = registry_families.get("tpcds").expect("builtin tpcds");
    let suite: Vec<QueryInstance> =
        WorkloadGenerator::for_family(family, ScaleFactor::SF10).suite();
    println!(
        "==> training the parameter model ({}-query SF10 tpcds suite)",
        suite.len()
    );
    let mut config = AutoExecutorConfig::default();
    config.training_run.noise_cv = 0.0;
    let (_, model) = train_from_workload(&suite, &config).expect("training");
    let registry = Arc::new(ModelRegistry::in_memory());
    registry
        .register("fleet", model.to_portable("fleet").unwrap())
        .unwrap();

    let rewriter = Optimizer::with_default_rules();
    let features: Vec<Vec<f64>> = suite
        .iter()
        .map(|q| {
            let optimized = rewriter.optimize(q.plan.clone()).unwrap().plan;
            autoexecutor::featurize_plan(&optimized)
        })
        .collect();

    let mut runs = Vec::new();
    for &shards in &args.shards {
        let run = run_lifecycle(&registry, &config, &features, shards, args.requests);
        println!(
            "resilience: {:>2} shards   pre {:>8.0} qps   fault goodput {:>8.0} qps ({:>5.1}% retained)   post {:>8.0} qps   quarantine {:>7} ms   recover {:>7} ms   lost {}",
            run.shards,
            run.pre_qps,
            run.fault_goodput_qps,
            run.goodput_retained() * 100.0,
            run.post_qps,
            format_ms(run.time_to_quarantine),
            format_ms(run.time_to_recover),
            run.lost_tickets(),
        );
        runs.push(run);
    }

    if let Some(path) = &args.json {
        write_json(path, &runs);
    }

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
        if !failures.is_empty() {
            eprintln!("resilience smoke FAILED: {}", failures.join("; "));
            std::process::exit(1);
        }
        println!(
            "resilience smoke OK (zero lost tickets, >= 60% goodput through a 1-of-4 kill, \
             probation re-admitted every revived shard)"
        );
    }
}
