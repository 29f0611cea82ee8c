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
//! cargo run --release -p ae-bench --bin bench_fleet -- --shards 1,2,4,8 --requests 20000 --tenants 256
//! ```
//!
//! `--shards` lists the fleet sizes, `--requests` sizes the tagged stream
//! (at most 2,000 under `--smoke`) and `--tenants` the tenant space. The
//! smoke gate fails unless the 4-shard aggregate qps is at least 2x the
//! single-shard qps, every per-shard p99 skew is finite, and no requests
//! were dropped or errored.

use std::time::{Duration, Instant};

use ae_bench::harness::{self, Served};
use ae_ml::json::Value;
use ae_obs::{Ladder, LatencyStats, ShardedHistogram};
use ae_serve::{FleetConfig, RuntimeConfig, ScoreRequest, ServiceLevel, StealPolicy, TenantId};
use ae_workload::{ScaleFactor, WorkloadGenerator};

const COMMENT: &str = "ae-serve fleet benchmark (shard = node model). Shards share no state, so \
    each fleet size routes one tagged request stream through the consistent-hash ring and drives \
    every shard's substream to completion sequentially on its own runtime; aggregate_qps = \
    total_requests / max(per-shard elapsed) — the fleet finishes when its slowest node finishes. \
    Running shards live-concurrently on this 1-core host would measure the kernel scheduler, not \
    the architecture. The steal drill is live and concurrent: it floods one shard's tenants and \
    reports how much Standard backlog the coordinator migrated. Regenerate with: cargo run \
    --release -p ae-bench --bin bench_fleet -- --json BENCH_fleet.json";

struct Args {
    smoke: bool,
    json: Option<String>,
    shards: Vec<usize>,
    requests: usize,
    tenants: usize,
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

    fn report(&self, base_qps: f64) -> Value {
        let per_shard = self.per_shard.iter().enumerate().map(|(s, shard)| {
            Value::object([
                ("shard", s.into()),
                ("requests", shard.requests.into()),
                ("elapsed_ms", (shard.elapsed.as_secs_f64() * 1e3).into()),
                ("p50_us", (shard.latency.p50.as_secs_f64() * 1e6).into()),
                ("p99_us", (shard.latency.p99.as_secs_f64() * 1e6).into()),
            ])
        });
        Value::object([
            ("shards", self.shards.into()),
            ("requests", self.total_requests().into()),
            ("aggregate_qps", self.aggregate_qps().into()),
            (
                "speedup_vs_1_shard",
                (self.aggregate_qps() / base_qps.max(1e-9)).into(),
            ),
            ("p99_skew", self.p99_skew().into()),
            ("per_shard", per_shard.collect()),
        ])
    }
}

/// Routes the tagged stream through the fleet's ring and drives each
/// shard's substream to completion sequentially (see the module docs for
/// why this is the honest 1-core measurement).
fn run_fleet(served: &Served, shards: usize, stream: &[(TenantId, usize)]) -> FleetRun {
    let fleet = served.fleet(
        FleetConfig::new(shards, RuntimeConfig::from_auto_executor(&served.config)).without_steal(),
    );

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
                .submit(ScoreRequest::from_features(served.features[plan].clone()))
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

fn run_steal_drill(served: &Served, requests: usize) -> StealDrill {
    const SHARDS: usize = 4;
    let fleet = served.fleet(
        FleetConfig::new(
            SHARDS,
            RuntimeConfig::from_auto_executor(&served.config)
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
    let victim = fleet.shard_for_tenant(TenantId(0));
    let tenants: Vec<TenantId> = (0..100_000u64)
        .map(TenantId)
        .filter(|&t| fleet.shard_for_tenant(t) == victim)
        .take(8)
        .collect();
    let features = &served.features;
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

fn main() {
    let mut args = harness::args(&["--shards LIST", "--requests N", "--tenants N"], |flags| {
        Ok(Args {
            smoke: flags.smoke(),
            json: flags.json(),
            shards: flags.list("--shards", vec![1, 2, 4, 8])?,
            requests: flags.get("--requests", 20_000)?,
            tenants: flags.get("--tenants", 256)?,
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

    // Tagged open-loop stream: request i belongs to tenant i mod tenants
    // and scores plan i mod |suite| — every shard count replays the exact
    // same stream, only the routing changes.
    let stream: Vec<(TenantId, usize)> = (0..args.requests)
        .map(|i| {
            (
                TenantId((i % args.tenants) as u64),
                i % served.features.len(),
            )
        })
        .collect();

    let mut runs = Vec::new();
    for &shards in &args.shards {
        let run = run_fleet(&served, shards, &stream);
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
    let drill = run_steal_drill(&served, drill_requests);
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

    harness::write_report(
        args.json.as_deref(),
        COMMENT,
        [
            ("tenants", args.tenants.into()),
            (
                "fleet_sizes",
                runs.iter().map(|run| run.report(base_qps)).collect(),
            ),
            (
                "steal_drill",
                Value::object([
                    ("requests", drill.requests.into()),
                    ("steal_ops", drill.steal_ops.into()),
                    ("stolen_requests", drill.stolen_requests.into()),
                    ("completed_off_victim", drill.foreign_completed.into()),
                ]),
            ),
        ],
    );

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
        harness::gate(
            "fleet smoke",
            &failures,
            "4-shard >= 2x single-shard, finite skew, zero dropped/errors",
        );
    }
}
