//! Serving-path benchmark: sustained queries/second, p50/p99 latency, and
//! batch-size histogram of the `ae-serve` scoring runtime against naive
//! one-at-a-time serving loops.
//!
//! Modes measured (each for a fixed duration at `--threads` client threads):
//!
//! * `naive_one_at_a_time` — the pre-PR serving path: a global mutex
//!   serializes requests, and every request fetches an owned copy of the
//!   model from the registry and re-decodes it before scoring, as
//!   `ModelRegistry::load` did for every call before the `Arc`-handle
//!   refactor. (The copy and the decode now share the forest and its
//!   compiled arena, so this baseline no longer pays for cloning them;
//!   `BENCH_serving.json` was recorded when it did.)
//! * `sequential_cached_mutex` — a fairer sequential baseline: the decoded
//!   model is cached, but a global mutex still scores one plan at a time.
//! * `ae_serve_closed_loop` — the batching runtime under closed-loop load
//!   (every client issues its next request on completion).
//! * `ae_serve_open_loop` — the batching runtime replaying a Poisson
//!   open-loop schedule (`ae_workload::OpenLoop`) at ~60 % of the measured
//!   closed-loop throughput.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ae-bench --bin bench_serving                   # full run
//! cargo run --release -p ae-bench --bin bench_serving -- --family mixed
//! cargo run --release -p ae-bench --bin bench_serving -- --obs          # with observability
//! ```
//!
//! `--threads N` sets the client threads (default 8) and `--seconds S` the
//! length of each mode (default 4; at most 0.6 under `--smoke`).
//! `--family` selects which workload family's suite is trained on and
//! replayed (`tpcds` by default, any registered family key, or `mixed` for
//! a request stream spanning every builtin family).
//! `--obs` attaches an `ae-obs` metrics registry and event sink to the
//! runtime (the overhead A/B lives in `bench_obs`).
//! The smoke gate fails unless the runtime sustained qps > 0 with zero
//! dropped requests and zero errors.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ae_bench::harness::{self, Served};
use ae_engine::plan::QueryPlan;
use ae_ml::json::Value;
use ae_obs::{Ladder, LatencyStats, MetricsRegistry, ShardedHistogram};
use ae_serve::{ObsConfig, RuntimeConfig, RuntimeStats, ScoreRequest, ScoringRuntime};
use ae_workload::{
    mixed_suite, Arrival, FamilyRegistry, OpenLoop, QueryInstance, ScaleFactor, WorkloadGenerator,
};
use autoexecutor::prelude::*;
use autoexecutor::scoring;

const COMMENT: &str = "ae-serve serving benchmark. 'naive_one_at_a_time' reproduces the \
    original serving path (global mutex, model copied + re-decoded from the registry per \
    request); 'sequential_cached_mutex' caches the decoded model but still scores one plan at a \
    time; the ae_serve modes go through the concurrent batching runtime. The runtime's inline \
    fast path (no queue round-trip) carries most requests; the queue absorbs the overflow in \
    natural batches (a worker drains whatever queued while it was busy and never waits for \
    more). Regenerate with: cargo run --release -p ae-bench --bin bench_serving -- --json \
    BENCH_serving.json";

struct Args {
    smoke: bool,
    json: Option<String>,
    threads: usize,
    seconds: f64,
    family: String,
    obs: bool,
}

/// Resolves `--family` into the suite the benchmark trains on and replays:
/// one registered family's suite, or `mixed` — the concatenation of every
/// builtin family, so the request stream spans families.
fn resolve_suite(family: &str) -> Vec<QueryInstance> {
    let registry = FamilyRegistry::builtin();
    if family == "mixed" {
        return mixed_suite(registry.families(), ScaleFactor::SF10);
    }
    match registry.get(family) {
        Some(f) => WorkloadGenerator::for_family(f, ScaleFactor::SF10).suite(),
        None => harness::usage_error(&format!(
            "unknown family '{family}' — expected one of {:?} or 'mixed'",
            registry.names()
        )),
    }
}

/// One measured serving mode.
struct ModeResult {
    name: &'static str,
    detail: &'static str,
    requests: u64,
    elapsed: Duration,
    latency: LatencyStats,
    stats: Option<RuntimeStats>,
}

impl ModeResult {
    fn qps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn report(&self) -> Value {
        let mut fields = vec![
            ("name", self.name.into()),
            ("detail", self.detail.into()),
            ("qps", self.qps().into()),
            ("requests", self.requests.into()),
            ("p50_us", (self.latency.p50.as_secs_f64() * 1e6).into()),
            ("p99_us", (self.latency.p99.as_secs_f64() * 1e6).into()),
            ("mean_us", (self.latency.mean.as_secs_f64() * 1e6).into()),
        ];
        if let Some(stats) = &self.stats {
            fields.extend([
                ("mean_batch_size", stats.mean_batch_size().into()),
                ("inline_scored", stats.inline_scored.into()),
                ("batched", stats.batched().into()),
                ("dropped", stats.dropped.into()),
                (
                    "batch_size_histogram",
                    stats.batch_size_histogram.clone().into(),
                ),
            ]);
        }
        Value::object(fields)
    }
}

fn print_mode(mode: &ModeResult) {
    println!(
        "mode: {:<26} {:>9.0} qps   p50 {:>9.1} µs   p99 {:>9.1} µs   ({} requests in {:.2}s)",
        mode.name,
        mode.qps(),
        mode.latency.p50.as_secs_f64() * 1e6,
        mode.latency.p99.as_secs_f64() * 1e6,
        mode.requests,
        mode.elapsed.as_secs_f64(),
    );
    if let Some(stats) = &mode.stats {
        println!(
            "      inline {} / batched {} over {} batches (mean batch {:.2}), dropped {}, errors {}",
            stats.inline_scored,
            stats.batched(),
            stats.batches,
            stats.mean_batch_size(),
            stats.dropped,
            stats.errors,
        );
    }
}

/// Runs one closed-loop mode at `--threads` clients for `--seconds`,
/// timing each `work` call into a shared lock-free [`ShardedHistogram`]
/// (no per-thread sample vectors to merge).
fn closed_mode(
    served: &Served,
    args: &Args,
    name: &'static str,
    detail: &'static str,
    work: impl Fn(&QueryPlan) + Sync,
) -> ModeResult {
    let histogram = ShardedHistogram::new(Ladder::latency());
    let duration = Duration::from_secs_f64(args.seconds);
    let (requests, elapsed) = served.closed_loop(args.threads, duration, |plan| {
        let begin = Instant::now();
        work(plan);
        histogram.record_duration(begin.elapsed());
    });
    ModeResult {
        name,
        detail,
        requests,
        elapsed,
        latency: histogram.snapshot().latency_stats(),
        stats: None,
    }
}

/// Replays an open-loop schedule: thread `t` handles every `threads`-th
/// arrival, sleeping until its scheduled time and then scoring (blocking).
fn drive_open_loop(
    threads: usize,
    schedule: &[Arrival],
    plans: &[QueryPlan],
    runtime: &ScoringRuntime,
) -> (u64, Duration, LatencyStats) {
    let start = Instant::now();
    let histogram = ShardedHistogram::new(Ladder::latency());
    let total = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let histogram = &histogram;
                scope.spawn(move || {
                    let mut count = 0u64;
                    for arrival in schedule.iter().skip(t).step_by(threads) {
                        if let Some(wait) = arrival.at.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let begin = Instant::now();
                        runtime
                            .submit(ScoreRequest::from_plan(&plans[arrival.query_index]))
                            .expect("open-loop scoring");
                        histogram.record_duration(begin.elapsed());
                        count += 1;
                    }
                    count
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    (total, start.elapsed(), histogram.snapshot().latency_stats())
}

fn main() {
    let mut args = harness::args(
        &["--threads N", "--seconds S", "--family NAME", "--obs"],
        |flags| {
            Ok(Args {
                smoke: flags.smoke(),
                json: flags.json(),
                threads: flags.get("--threads", 8)?,
                seconds: flags.seconds("--seconds", 4.0)?,
                family: flags.get("--family", "tpcds".to_string())?,
                obs: flags.switch("--obs"),
            })
        },
    );
    if args.smoke {
        args.seconds = args.seconds.min(0.6);
    }

    let suite = resolve_suite(&args.family);
    let served = Served::train(suite, &format!("'{}' suite", args.family), "serving");
    let candidate_counts = served.config.candidate_counts();
    let objective = served.config.objective;
    let one_at_a_time = Mutex::new(());

    // --- Mode 1: naive one-at-a-time (pre-PR serving semantics). ---
    let naive = closed_mode(
        &served,
        &args,
        "naive_one_at_a_time",
        "global mutex; model copied from registry and re-decoded per request",
        |plan| {
            let _one_at_a_time = one_at_a_time.lock().unwrap();
            // Owned fetch + re-decode per request, as when
            // `ModelRegistry::load` returned owned models (the copy now
            // shares the forest and arena instead of cloning them).
            let portable = served.registry.load_owned(served.name).unwrap();
            let model = ParameterModel::from_portable(&portable).unwrap();
            let features = autoexecutor::featurize_plan(plan);
            scoring::score_features(&model, &features, objective, &candidate_counts).unwrap();
        },
    );
    print_mode(&naive);

    // --- Mode 2: sequential scoring with a cached decoded model. ---
    let model = ParameterModel::from_portable(&served.registry.load(served.name).unwrap()).unwrap();
    let cached = closed_mode(
        &served,
        &args,
        "sequential_cached_mutex",
        "global mutex; decoded model cached (the optimizer rule's cache)",
        |plan| {
            let _one_at_a_time = one_at_a_time.lock().unwrap();
            let features = autoexecutor::featurize_plan(plan);
            scoring::score_features(&model, &features, objective, &candidate_counts).unwrap();
        },
    );
    print_mode(&cached);

    // --- Mode 3: the ae-serve runtime under closed-loop load. ---
    let metrics = Arc::new(MetricsRegistry::new());
    let mut runtime_config = RuntimeConfig::from_auto_executor(&served.config);
    if args.obs {
        runtime_config = runtime_config.with_observability(ObsConfig::new(Arc::clone(&metrics)));
        println!("==> observability ENABLED (metrics registry + event sink attached)");
    }
    let runtime = served.runtime(runtime_config);
    let mut closed = closed_mode(
        &served,
        &args,
        "ae_serve_closed_loop",
        "batching runtime; clients issue the next request on completion",
        |plan| {
            runtime
                .submit(ScoreRequest::from_plan(plan))
                .expect("closed-loop scoring");
        },
    );
    closed.stats = Some(runtime.stats());
    print_mode(&closed);

    // --- Mode 4: open-loop Poisson replay at ~60 % of closed-loop qps. ---
    let open_rate = (closed.qps() * 0.6).max(50.0);
    let open_requests = ((open_rate * args.seconds) as usize).max(50);
    let schedule = OpenLoop::new(open_rate, open_requests, 2).schedule(served.plans.len());
    let stats_before = runtime.stats();
    let (requests, elapsed, latency) =
        drive_open_loop(args.threads, &schedule, &served.plans, &runtime);
    let open = ModeResult {
        name: "ae_serve_open_loop",
        detail: "batching runtime; Poisson arrivals at ~60% of closed-loop throughput",
        requests,
        elapsed,
        latency,
        stats: Some(runtime.stats().delta_since(&stats_before)),
    };
    print_mode(&open);

    let final_stats = runtime.stats();
    if args.obs {
        let obs = runtime.observability().expect("obs enabled");
        let events = obs.events().snapshot();
        let snap = metrics.snapshot();
        println!(
            "==> obs: {} events retained, {} registry metrics, completed counter {:?}",
            events.len(),
            snap.values().len(),
            snap.counter("serve.completed"),
        );
    }
    let speedup = closed.qps() / naive.qps().max(1e-9);
    println!(
        "==> ae_serve_closed_loop vs naive_one_at_a_time: {speedup:.1}x sustained qps at {} client threads",
        args.threads
    );

    let modes = [naive, cached, closed, open];
    harness::write_report(
        args.json.as_deref(),
        COMMENT,
        [
            ("client_threads", args.threads.into()),
            (
                "speedup_vs_naive",
                format!("{speedup:.1}x (ae_serve_closed_loop over naive_one_at_a_time)").into(),
            ),
            ("modes", modes.iter().map(ModeResult::report).collect()),
        ],
    );

    if args.smoke {
        let closed = &modes[2];
        let mut failures = Vec::new();
        if closed.qps() <= 0.0 {
            failures.push("runtime qps must be positive".to_string());
        }
        if final_stats.dropped != 0 {
            failures.push(format!("{} dropped requests", final_stats.dropped));
        }
        if final_stats.errors != 0 {
            failures.push(format!("{} scoring errors", final_stats.errors));
        }
        harness::gate(
            "serving smoke",
            &failures,
            "qps > 0, zero dropped, zero errors",
        );
    }
}
