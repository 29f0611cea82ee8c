//! Fleet benchmark: aggregate throughput, per-shard p99 skew, and
//! work-steal accounting of the `ae-serve` sharded runtime at 1/2/4/8
//! shards under tagged open-loop traffic.
//!
//! **Measurement model (shard = node).** A fleet shard maps 1:1 onto an
//! independent node: shards share no queues, no model cache, and no
//! stats, so a real deployment runs them on disjoint cores or machines.
//! This container is 1-core, so running all shards live would only
//! interleave them on the same core and measure the scheduler, not the
//! architecture. Instead the throughput phase routes the tagged request
//! stream through the fleet's ring into per-shard substreams and drives
//! each shard's substream to completion *sequentially* on its own
//! runtime, timing each shard separately; the aggregate is
//!
//! ```text
//! aggregate_qps = total_requests / max(per-shard elapsed)
//! ```
//!
//! — the fleet finishes when its slowest node finishes. Per-shard p99
//! skew (`max p99 / min p99`) comes from the same per-shard runs. The
//! work-steal drill is the one *live* concurrent phase: it floods a
//! single shard's tenants with detached submissions while the steal
//! coordinator runs, and reports how much backlog migrated.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ae-bench --bin bench_fleet               # full run
//! cargo run --release -p ae-bench --bin bench_fleet -- --smoke    # CI gate
//! cargo run --release -p ae-bench --bin bench_fleet -- --json BENCH_fleet.json
//! cargo run --release -p ae-bench --bin bench_fleet -- --shards 1,2,4,8
//! ```
//!
//! `--smoke` shortens the run and exits non-zero unless the 4-shard
//! aggregate qps is at least 2x the single-shard qps, every per-shard p99
//! skew is finite, and no requests were dropped or errored.

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ae_obs::{Ladder, LatencyStats, ShardedHistogram};
use ae_serve::{
    FleetConfig, RuntimeConfig, ScoreRequest, ServiceLevel, ShardedRuntime, StealPolicy, TenantId,
};
use ae_workload::{FamilyRegistry, QueryInstance, ScaleFactor, WorkloadGenerator};
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;

struct Args {
    smoke: bool,
    shards: Vec<usize>,
    requests: usize,
    tenants: usize,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        shards: vec![1, 2, 4, 8],
        requests: 20_000,
        tenants: 256,
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
            "--tenants" => {
                args.tenants = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tenants needs a number");
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

/// Per-shard measurement of one fleet size.
struct ShardRun {
    requests: u64,
    elapsed: Duration,
    latency: LatencyStats,
}

/// One fleet size's result.
struct FleetRun {
    shards: usize,
    per_shard: Vec<ShardRun>,
    dropped: u64,
    errors: u64,
}

impl FleetRun {
    fn total_requests(&self) -> u64 {
        self.per_shard.iter().map(|s| s.requests).sum()
    }

    /// The fleet finishes when its slowest node finishes.
    fn makespan(&self) -> Duration {
        self.per_shard
            .iter()
            .map(|s| s.elapsed)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    fn aggregate_qps(&self) -> f64 {
        self.total_requests() as f64 / self.makespan().as_secs_f64().max(1e-9)
    }

    /// `max p99 / min p99` over shards that served traffic (1.0 for a
    /// single shard).
    fn p99_skew(&self) -> f64 {
        let p99s: Vec<f64> = self
            .per_shard
            .iter()
            .filter(|s| s.requests > 0)
            .map(|s| s.latency.p99.as_secs_f64())
            .collect();
        let max = p99s.iter().cloned().fold(0.0, f64::max);
        let min = p99s.iter().cloned().fold(f64::INFINITY, f64::min);
        if !min.is_finite() {
            return 1.0;
        }
        max / min.max(1e-9)
    }
}

/// Routes the tagged stream through the fleet's ring and drives each
/// shard's substream to completion sequentially (see the module docs for
/// why this is the honest 1-core measurement).
fn run_fleet(
    registry: &Arc<ModelRegistry>,
    config: &AutoExecutorConfig,
    shards: usize,
    stream: &[(TenantId, usize)],
    features: &[Vec<f64>],
) -> FleetRun {
    let fleet = ShardedRuntime::new(
        Arc::clone(registry),
        "fleet",
        FleetConfig::new(shards, RuntimeConfig::from_auto_executor(config)).without_steal(),
    );
    fleet.warm().expect("model warm-up");

    let mut substreams: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for &(tenant, plan) in stream {
        substreams[fleet.shard_for_tenant(tenant)].push(plan);
    }

    let mut per_shard = Vec::with_capacity(shards);
    for (shard, substream) in substreams.iter().enumerate() {
        let histogram = ShardedHistogram::new(Ladder::latency());
        let start = Instant::now();
        for &plan in substream {
            let begin = Instant::now();
            fleet
                .shard(shard)
                .submit(ScoreRequest::from_features(features[plan].clone()))
                .expect("fleet scoring");
            histogram.record_duration(begin.elapsed());
        }
        per_shard.push(ShardRun {
            requests: substream.len() as u64,
            elapsed: start.elapsed(),
            latency: histogram.snapshot().latency_stats(),
        });
    }
    let aggregate = fleet.stats().aggregate();
    let run = FleetRun {
        shards,
        per_shard,
        dropped: aggregate.dropped,
        errors: aggregate.errors,
    };
    fleet.shutdown();
    run
}

/// Live steal drill: floods one shard's tenants with detached
/// submissions while the coordinator runs, and reports the migration.
struct StealDrill {
    requests: u64,
    steal_ops: u64,
    stolen_requests: u64,
    foreign_completed: u64,
}

fn run_steal_drill(
    registry: &Arc<ModelRegistry>,
    config: &AutoExecutorConfig,
    features: &[Vec<f64>],
    requests: usize,
) -> StealDrill {
    const SHARDS: usize = 4;
    let fleet = ShardedRuntime::new(
        Arc::clone(registry),
        "fleet",
        FleetConfig::new(
            SHARDS,
            RuntimeConfig::from_auto_executor(config)
                .with_workers(1)
                .with_max_batch(4)
                .with_batch_window(Duration::ZERO)
                .with_inline_max_in_flight(0)
                .with_queue_capacity(requests.max(1024)),
        )
        .with_steal(StealPolicy {
            imbalance_ratio: 1.5,
            min_backlog: 16,
            max_steal: 32,
            interval: Duration::from_micros(50),
        }),
    );
    fleet.warm().expect("model warm-up");
    let victim = fleet.shard_for_tenant(TenantId(0));
    let tenants: Vec<TenantId> = (0..100_000u64)
        .map(TenantId)
        .filter(|&t| fleet.shard_for_tenant(t) == victim)
        .take(8)
        .collect();
    let mut tickets = Vec::with_capacity(requests);
    for i in 0..requests {
        tickets.push(
            fleet
                .submit_detached(
                    ScoreRequest::from_features(features[i % features.len()].clone())
                        .with_tenant(tenants[i % tenants.len()])
                        .with_level(ServiceLevel::Standard)
                        .with_deadline_budget(Duration::from_secs(60)),
                )
                .expect("steal-drill admission"),
        );
    }
    for ticket in tickets {
        ticket.wait().expect("steal-drill scoring");
    }
    let stats = fleet.stats();
    let foreign_completed = (0..SHARDS)
        .filter(|&s| s != victim)
        .map(|s| stats.shard(s).completed)
        .sum();
    fleet.shutdown();
    StealDrill {
        requests: requests as u64,
        steal_ops: stats.steal_ops,
        stolen_requests: stats.stolen_requests,
        foreign_completed,
    }
}

fn write_json(path: &str, tenants: usize, runs: &[FleetRun], drill: &StealDrill, base_qps: f64) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"comment\": \"ae-serve fleet benchmark (shard = node model). Shards share no state, \
         so each fleet size routes one tagged request stream through the consistent-hash ring and \
         drives every shard's substream to completion sequentially on its own runtime; \
         aggregate_qps = total_requests / max(per-shard elapsed) — the fleet finishes when its \
         slowest node finishes. Running shards live-concurrently on this 1-core host would \
         measure the kernel scheduler, not the architecture. The steal drill is live and \
         concurrent: it floods one shard's tenants and reports how much Standard backlog the \
         coordinator migrated. Regenerate with: cargo run --release -p ae-bench --bin \
         bench_fleet -- --json BENCH_fleet.json\",\n",
    );
    out.push_str(&format!(
        "  \"host\": \"{}-core container (rustc 1.95, release profile)\",\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str(&format!("  \"tenants\": {tenants},\n"));
    out.push_str("  \"fleet_sizes\": [\n");
    for (i, run) in runs.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"shards\": {},\n", run.shards));
        out.push_str(&format!("      \"requests\": {},\n", run.total_requests()));
        out.push_str(&format!(
            "      \"aggregate_qps\": {:.1},\n",
            run.aggregate_qps()
        ));
        out.push_str(&format!(
            "      \"speedup_vs_1_shard\": {:.2},\n",
            run.aggregate_qps() / base_qps.max(1e-9)
        ));
        out.push_str(&format!("      \"p99_skew\": {:.2},\n", run.p99_skew()));
        out.push_str("      \"per_shard\": [\n");
        for (s, shard) in run.per_shard.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"shard\": {s}, \"requests\": {}, \"elapsed_ms\": {:.1}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}}}{}\n",
                shard.requests,
                shard.elapsed.as_secs_f64() * 1e3,
                shard.latency.p50.as_secs_f64() * 1e6,
                shard.latency.p99.as_secs_f64() * 1e6,
                if s + 1 < run.per_shard.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n    }");
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"steal_drill\": {\n");
    out.push_str(&format!(
        "    \"requests\": {},\n    \"steal_ops\": {},\n    \"stolen_requests\": {},\n    \
         \"completed_off_victim\": {}\n",
        drill.requests, drill.steal_ops, drill.stolen_requests, drill.foreign_completed,
    ));
    out.push_str("  }\n}\n");
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

    // Tagged open-loop stream: request i belongs to tenant i mod tenants
    // and scores plan i mod |suite| — every shard count replays the exact
    // same stream, only the routing changes.
    let stream: Vec<(TenantId, usize)> = (0..args.requests)
        .map(|i| (TenantId((i % args.tenants) as u64), i % features.len()))
        .collect();

    let mut runs = Vec::new();
    for &shards in &args.shards {
        let run = run_fleet(&registry, &config, shards, &stream, &features);
        println!(
            "fleet: {:>2} shards   {:>9.0} aggregate qps   makespan {:>7.1} ms   p99 skew {:>5.2}   ({} requests)",
            run.shards,
            run.aggregate_qps(),
            run.makespan().as_secs_f64() * 1e3,
            run.p99_skew(),
            run.total_requests(),
        );
        runs.push(run);
    }

    let drill_requests = if args.smoke { 1_500 } else { 6_000 };
    let drill = run_steal_drill(&registry, &config, &features, drill_requests);
    println!(
        "steal drill: {} requests flooded one shard — {} steal ops migrated {} requests, {} completed off the victim",
        drill.requests, drill.steal_ops, drill.stolen_requests, drill.foreign_completed,
    );

    let base_qps = runs
        .iter()
        .find(|r| r.shards == 1)
        .map(|r| r.aggregate_qps())
        .unwrap_or_else(|| runs[0].aggregate_qps());
    for run in &runs {
        println!(
            "==> {} shards: {:.2}x single-shard aggregate qps",
            run.shards,
            run.aggregate_qps() / base_qps.max(1e-9)
        );
    }

    if let Some(path) = &args.json {
        write_json(path, args.tenants, &runs, &drill, base_qps);
    }

    if args.smoke {
        let mut failures = Vec::new();
        match runs.iter().find(|r| r.shards == 4) {
            Some(four) => {
                let speedup = four.aggregate_qps() / base_qps.max(1e-9);
                if speedup < 2.0 {
                    failures.push(format!(
                        "4-shard aggregate qps must be >= 2x single-shard (got {speedup:.2}x)"
                    ));
                }
            }
            None => failures.push("smoke needs a 4-shard run (--shards must include 4)".into()),
        }
        for run in &runs {
            if !run.p99_skew().is_finite() {
                failures.push(format!("{}-shard p99 skew is not finite", run.shards));
            }
            if run.dropped != 0 || run.errors != 0 {
                failures.push(format!(
                    "{}-shard run dropped {} / errored {}",
                    run.shards, run.dropped, run.errors
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!("fleet smoke FAILED: {}", failures.join("; "));
            std::process::exit(1);
        }
        println!("fleet smoke OK (4-shard >= 2x single-shard, finite skew, zero dropped/errors)");
    }
}
