//! Fleet benchmark: aggregate throughput, routing skew and per-shard p99
//! skew of the `ae-serve` sharded runtime at 1/2/4/8 shards under tagged
//! open-loop traffic.
//!
//! **Measurement model (shard = node).** A fleet shard maps 1:1 onto an
//! independent node: shards share no queues, no model cache, and no
//! stats, so a real deployment runs them on disjoint cores or machines.
//! Whenever a fleet has more shards than its host has cores, running all
//! shards live would interleave them on shared cores and measure the
//! scheduler, not the architecture. Instead the bench routes the tagged
//! request stream through the fleet's ring into per-shard substreams and
//! drives each shard's substream to completion *sequentially* on its
//! own runtime, timing each shard separately; the aggregate is
//!
//! ```text
//! aggregate_qps = total_requests / max(per-shard elapsed)
//! ```
//!
//! — the fleet finishes when its slowest node finishes. One host stall
//! during one timed pass would set that maximum, so every fleet size is
//! built first and then timed in [`PASSES`] rounds, each round one pass
//! of every shard of every size: a slow spell lands on all sizes alike,
//! and a shard's elapsed time is the median of its passes.
//!
//! Two skews are reported, each over the shards that served traffic.
//! `load_skew` (`max / min` per-shard requests, from exact counts) measures
//! how unevenly the ring routes the stream. `p99_skew` (`max p99 / min
//! p99`) measures latency spread, from histograms that record every pass;
//! each p99 is a `Ladder::latency()` bucket bound, so shards whose p99s
//! land in one bucket read 1.00 however unevenly they are loaded.
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
//! single-shard qps, every p99 skew is finite, every load skew is finite
//! and at least 1, and no requests were dropped or errored.

use std::time::{Duration, Instant};

use ae_bench::harness::{self, Served};
use ae_ml::json::Value;
use ae_obs::{Ladder, LatencyStats, ShardedHistogram};
use ae_serve::{FleetConfig, RuntimeConfig, ScoreRequest, ShardedRuntime, TenantId};
use ae_workload::{ScaleFactor, WorkloadGenerator};

const COMMENT: &str = "ae-serve fleet benchmark (shard = node model). Shards share no state, so \
    each fleet size routes one tagged request stream through the consistent-hash ring and drives \
    every shard's substream to completion sequentially on its own runtime; aggregate_qps = \
    total_requests / max(per-shard elapsed) — the fleet finishes when its slowest node finishes. \
    Every fleet size is built first, then timed in 5 rounds of one pass per shard of every size; \
    a shard's elapsed_ms is the median of its 5 passes and its p50/p99 cover all of them. \
    load_skew = max / min per-shard requests (exact counts): how unevenly the ring routes. \
    p99_skew = max / min per-shard p99, where each p99 is a latency-ladder bucket bound: it reads \
    1.00 when every shard's p99 lands in one bucket, whatever the load. \
    Whenever shards outnumber the host's cores, running them live-concurrently would measure the \
    kernel scheduler, not the architecture. Regenerate with: cargo run --release -p ae-bench \
    --bin bench_fleet -- --json BENCH_fleet.json";

/// Timed passes of every shard's substream; a shard's elapsed time is the
/// median of its passes.
const PASSES: usize = 5;

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

    /// Shards that served traffic.
    fn serving(&self) -> impl Iterator<Item = &ShardRun> {
        self.per_shard.iter().filter(|s| s.requests > 0)
    }

    /// Latency skew: `max p99 / min p99` over shards that served traffic
    /// (1.0 for a single shard). The p99s are latency-ladder bucket bounds.
    fn p99_skew(&self) -> f64 {
        skew(self.serving().map(|s| s.latency.p99.as_secs_f64()))
    }

    /// Routing skew: `max / min` per-shard requests over shards that
    /// served traffic, from exact counts (1.0 for a single shard).
    fn load_skew(&self) -> f64 {
        skew(self.serving().map(|s| s.requests as f64))
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
            ("load_skew", self.load_skew().into()),
            ("p99_skew", self.p99_skew().into()),
            ("per_shard", per_shard.collect()),
        ])
    }
}

/// `max / min` of `values`, 1.0 when there are none.
fn skew(values: impl Iterator<Item = f64>) -> f64 {
    let (min, max) = values.fold((f64::INFINITY, 0.0), |(min, max), v| {
        (f64::min(min, v), f64::max(max, v))
    });
    if min.is_finite() {
        max / min.max(1e-9)
    } else {
        1.0
    }
}

/// One fleet size under test: the fleet, its per-shard substreams, and
/// what every timed pass recorded per shard.
struct FleetBench {
    fleet: ShardedRuntime,
    substreams: Vec<Vec<usize>>,
    passes: Vec<Vec<Duration>>,
    histograms: Vec<ShardedHistogram>,
}

impl FleetBench {
    /// Builds the fleet and routes the tagged stream through its ring.
    fn new(served: &Served, shards: usize, stream: &[(TenantId, usize)]) -> Self {
        let fleet = served.fleet(FleetConfig::new(
            shards,
            RuntimeConfig::from_auto_executor(&served.config),
        ));
        let mut substreams: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for &(tenant, plan) in stream {
            substreams[fleet.shard_for_tenant(tenant)].push(plan);
        }
        Self {
            fleet,
            substreams,
            passes: vec![Vec::with_capacity(PASSES); shards],
            histograms: (0..shards)
                .map(|_| ShardedHistogram::new(Ladder::latency()))
                .collect(),
        }
    }

    /// Drives each shard's substream to completion sequentially, once
    /// (see the module docs for why shards are not run live).
    fn pass(&mut self, served: &Served) {
        for (shard, substream) in self.substreams.iter().enumerate() {
            let histogram = &self.histograms[shard];
            let start = Instant::now();
            for &plan in substream {
                let begin = Instant::now();
                self.fleet
                    .shard(shard)
                    .submit(ScoreRequest::from_features(served.features[plan].clone()))
                    .expect("fleet scoring");
                histogram.record_duration(begin.elapsed());
            }
            self.passes[shard].push(start.elapsed());
        }
    }

    /// Each shard's median pass, and the fleet's books; shuts it down.
    fn finish(self) -> FleetRun {
        let per_shard = self
            .substreams
            .iter()
            .zip(self.passes)
            .zip(&self.histograms)
            .map(|((substream, mut passes), histogram)| {
                passes.sort_unstable();
                ShardRun {
                    requests: substream.len() as u64,
                    elapsed: passes[passes.len() / 2],
                    latency: histogram.snapshot().latency_stats(),
                }
            })
            .collect();
        let aggregate = self.fleet.stats().aggregate();
        self.fleet.shutdown();
        FleetRun {
            shards: self.substreams.len(),
            per_shard,
            dropped: aggregate.dropped,
            errors: aggregate.errors,
        }
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

    let mut benches: Vec<FleetBench> = args
        .shards
        .iter()
        .map(|&shards| FleetBench::new(&served, shards, &stream))
        .collect();
    for _ in 0..PASSES {
        for bench in &mut benches {
            bench.pass(&served);
        }
    }
    let runs: Vec<FleetRun> = benches.into_iter().map(FleetBench::finish).collect();
    for run in &runs {
        println!(
            "fleet: {:>2} shards   {:>9.0} aggregate qps   makespan {:>7.1} ms   load skew {:>5.2}   p99 skew {:>5.2}   ({} requests)",
            run.shards,
            run.aggregate_qps(),
            run.makespan().as_secs_f64() * 1e3,
            run.load_skew(),
            run.p99_skew(),
            run.total_requests(),
        );
    }

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
            let load_skew = run.load_skew();
            if !(load_skew.is_finite() && load_skew >= 1.0) {
                failures.push(format!(
                    "{}-shard load skew must be finite and >= 1 (got {load_skew})",
                    run.shards
                ));
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
            "4-shard >= 2x single-shard, finite skews, load skew >= 1, zero dropped/errors",
        );
    }
}
