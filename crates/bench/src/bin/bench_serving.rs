//! Serving-path benchmark: sustained queries/second, p50/p99 latency, and
//! batch-size histogram of the `ae-serve` scoring runtime against naive
//! one-at-a-time serving loops.
//!
//! Modes measured (each for a fixed duration at `--threads` client threads):
//!
//! * `naive_one_at_a_time` — the pre-PR serving path: a global mutex
//!   serializes requests, and every request fetches the model from the
//!   registry with owned (deep-clone) semantics and re-decodes it before
//!   scoring — exactly what `ModelRegistry::load` did for every call before
//!   the `Arc`-handle refactor.
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
//! cargo run --release -p ae-bench --bin bench_serving            # full run
//! cargo run --release -p ae-bench --bin bench_serving -- --smoke # CI gate
//! cargo run --release -p ae-bench --bin bench_serving -- --json BENCH_serving.json
//! cargo run --release -p ae-bench --bin bench_serving -- --family mixed
//! cargo run --release -p ae-bench --bin bench_serving -- --obs  # with observability
//! ```
//!
//! `--smoke` shortens every phase and exits non-zero unless the runtime
//! sustained qps > 0 with zero dropped requests and zero errors.
//! `--obs` attaches an `ae-obs` metrics registry and event sink to the
//! runtime (the overhead A/B lives in `bench_obs`).
//! `--family` selects which workload family's suite is trained on and
//! replayed (`tpcds` by default, any registered family key, or `mixed` for
//! a request stream spanning every builtin family).

use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ae_engine::plan::QueryPlan;
use ae_obs::{Ladder, LatencyStats, MetricsRegistry, ShardedHistogram};
use ae_serve::{ObsConfig, RuntimeConfig, RuntimeStats, ScoreRequest, ScoringRuntime};
use ae_workload::{
    mixed_suite, ClosedLoop, FamilyRegistry, OpenLoop, QueryInstance, ScaleFactor,
    WorkloadGenerator,
};
use autoexecutor::prelude::*;
use autoexecutor::scoring;
use autoexecutor::ModelRegistry;

struct Args {
    smoke: bool,
    threads: usize,
    seconds: f64,
    family: String,
    json: Option<String>,
    obs: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        threads: 8,
        seconds: 4.0,
        family: "tpcds".to_string(),
        json: None,
        obs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--obs" => args.obs = true,
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a number");
            }
            "--seconds" => {
                args.seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seconds needs a number");
            }
            "--family" => {
                args.family = it.next().expect("--family needs a family key or 'mixed'");
            }
            "--json" => args.json = it.next(),
            other => panic!("unknown argument: {other}"),
        }
    }
    if args.smoke {
        args.seconds = args.seconds.min(0.6);
    }
    args
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
        None => {
            eprintln!(
                "unknown family '{family}' — expected one of {:?} or 'mixed'",
                registry.names()
            );
            std::process::exit(2);
        }
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

/// Runs `threads` client threads against `work` until the deadline; each
/// call to `work` scores one request and its latency lands in a shared
/// lock-free [`ShardedHistogram`] (no per-thread sample vectors to merge).
fn drive_closed_loop(
    threads: usize,
    duration: Duration,
    plans: Arc<Vec<QueryPlan>>,
    sequences: Vec<Vec<usize>>,
    work: Arc<dyn Fn(&QueryPlan) + Send + Sync>,
) -> (u64, Duration, LatencyStats) {
    let start = Instant::now();
    let histogram = Arc::new(ShardedHistogram::new(Ladder::latency()));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let plans = Arc::clone(&plans);
            let sequence = sequences[t % sequences.len()].clone();
            let work = Arc::clone(&work);
            let histogram = Arc::clone(&histogram);
            std::thread::spawn(move || {
                let mut count = 0u64;
                let mut i = 0usize;
                while start.elapsed() < duration {
                    let plan = &plans[sequence[i % sequence.len()]];
                    let begin = Instant::now();
                    work(plan);
                    histogram.record_duration(begin.elapsed());
                    count += 1;
                    i += 1;
                }
                count
            })
        })
        .collect();
    let mut total = 0u64;
    for handle in handles {
        total += handle.join().unwrap();
    }
    (total, start.elapsed(), histogram.snapshot().latency_stats())
}

/// Replays an open-loop schedule: thread `t` handles every `threads`-th
/// arrival, sleeping until its scheduled time and then scoring (blocking).
fn drive_open_loop(
    threads: usize,
    schedule: Arc<Vec<ae_workload::Arrival>>,
    plans: Arc<Vec<QueryPlan>>,
    runtime: Arc<ScoringRuntime>,
) -> (u64, Duration, LatencyStats) {
    let start = Instant::now();
    let histogram = Arc::new(ShardedHistogram::new(Ladder::latency()));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let schedule = Arc::clone(&schedule);
            let plans = Arc::clone(&plans);
            let runtime = Arc::clone(&runtime);
            let histogram = Arc::clone(&histogram);
            std::thread::spawn(move || {
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
    let mut total = 0u64;
    for handle in handles {
        total += handle.join().unwrap();
    }
    (total, start.elapsed(), histogram.snapshot().latency_stats())
}

fn write_json(path: &str, threads: usize, modes: &[ModeResult], speedup: f64) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"comment\": \"ae-serve serving benchmark. 'naive_one_at_a_time' reproduces the \
         pre-PR serving path (global mutex, model deep-cloned + re-decoded from the registry per \
         request); 'sequential_cached_mutex' caches the decoded model but still scores one plan \
         at a time; the ae_serve modes go through the concurrent batching runtime. On a 1-core \
         host the runtime's inline fast path (no queue round-trip) carries most requests and the \
         queue/batch machinery only absorbs overflow (its cross-thread handoff costs more than this small \
         model's inference, so sequential_cached_mutex can still edge it out); on multi-core \
         hosts the inline slots and batching workers score in parallel. Regenerate with: cargo \
         run --release -p ae-bench --bin bench_serving -- --json BENCH_serving.json\",\n",
    );
    out.push_str(&format!(
        "  \"host\": \"{}-core container (rustc 1.95, release profile)\",\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str(&format!("  \"client_threads\": {threads},\n"));
    out.push_str(&format!(
        "  \"speedup_vs_naive\": \"{speedup:.1}x (ae_serve_closed_loop over naive_one_at_a_time)\",\n"
    ));
    out.push_str("  \"modes\": [\n");
    for (i, mode) in modes.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", mode.name));
        out.push_str(&format!("      \"detail\": \"{}\",\n", mode.detail));
        out.push_str(&format!("      \"qps\": {:.1},\n", mode.qps()));
        out.push_str(&format!("      \"requests\": {},\n", mode.requests));
        out.push_str(&format!(
            "      \"p50_us\": {:.1},\n      \"p99_us\": {:.1},\n      \"mean_us\": {:.1}",
            mode.latency.p50.as_secs_f64() * 1e6,
            mode.latency.p99.as_secs_f64() * 1e6,
            mode.latency.mean.as_secs_f64() * 1e6,
        ));
        if let Some(stats) = &mode.stats {
            out.push_str(&format!(
                ",\n      \"mean_batch_size\": {:.2},\n      \"inline_scored\": {},\n      \
                 \"batched\": {},\n      \"dropped\": {},\n      \"batch_size_histogram\": {:?}",
                stats.mean_batch_size(),
                stats.inline_scored,
                stats.batched(),
                stats.dropped,
                stats.batch_size_histogram,
            ));
        }
        out.push_str("\n    }");
        out.push_str(if i + 1 < modes.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(path).expect("create json output");
    file.write_all(out.as_bytes()).expect("write json output");
    println!("wrote {path}");
}

fn main() {
    let args = parse_args();
    let duration = Duration::from_secs_f64(args.seconds);

    let suite = resolve_suite(&args.family);
    println!(
        "==> training the parameter model ({}-query SF10 '{}' suite)",
        suite.len(),
        args.family
    );
    let mut config = AutoExecutorConfig::default();
    config.training_run.noise_cv = 0.0;
    let (_, model) = train_from_workload(&suite, &config).expect("training");
    let registry = Arc::new(ModelRegistry::in_memory());
    registry
        .register("serving", model.to_portable("serving").unwrap())
        .unwrap();

    // Score already-optimized plans (the rule runs last in the optimizer).
    let rewriter = Optimizer::with_default_rules();
    let plans: Arc<Vec<QueryPlan>> = Arc::new(
        suite
            .iter()
            .map(|q| rewriter.optimize(q.plan.clone()).unwrap().plan)
            .collect(),
    );
    let sequences = ClosedLoop::new(args.threads, 512, 1).sequences(plans.len());
    let candidate_counts = config.candidate_counts();
    let objective = config.objective;

    // --- Mode 1: naive one-at-a-time (pre-PR serving semantics). ---
    let naive = {
        let registry = Arc::clone(&registry);
        let gate = Mutex::new(());
        let counts = candidate_counts.clone();
        let work: Arc<dyn Fn(&QueryPlan) + Send + Sync> = Arc::new(move |plan: &QueryPlan| {
            let _one_at_a_time = gate.lock().unwrap();
            // Deep-clone fetch + re-decode per request: what every request
            // paid when `ModelRegistry::load` returned owned models.
            let portable = registry.load_owned("serving").unwrap();
            let model = ParameterModel::from_portable(&portable).unwrap();
            let features = autoexecutor::featurize_plan(plan);
            scoring::score_features(&model, &features, objective, &counts).unwrap();
        });
        let (requests, elapsed, latency) = drive_closed_loop(
            args.threads,
            duration,
            Arc::clone(&plans),
            sequences.clone(),
            work,
        );
        ModeResult {
            name: "naive_one_at_a_time",
            detail: "global mutex; model deep-cloned from registry and re-decoded per request",
            requests,
            elapsed,
            latency,
            stats: None,
        }
    };
    print_mode(&naive);

    // --- Mode 2: sequential scoring with a cached decoded model. ---
    let cached = {
        let portable = registry.load("serving").unwrap();
        let model = ParameterModel::from_portable(&portable).unwrap();
        let gate = Mutex::new(());
        let counts = candidate_counts.clone();
        let work: Arc<dyn Fn(&QueryPlan) + Send + Sync> = Arc::new(move |plan: &QueryPlan| {
            let _one_at_a_time = gate.lock().unwrap();
            let features = autoexecutor::featurize_plan(plan);
            scoring::score_features(&model, &features, objective, &counts).unwrap();
        });
        let (requests, elapsed, latency) = drive_closed_loop(
            args.threads,
            duration,
            Arc::clone(&plans),
            sequences.clone(),
            work,
        );
        ModeResult {
            name: "sequential_cached_mutex",
            detail: "global mutex; decoded model cached (pre-PR optimizer-rule cache)",
            requests,
            elapsed,
            latency,
            stats: None,
        }
    };
    print_mode(&cached);

    // --- Mode 3: the ae-serve runtime under closed-loop load. ---
    let metrics = Arc::new(MetricsRegistry::new());
    let mut runtime_config = RuntimeConfig::from_auto_executor(&config);
    if args.obs {
        runtime_config = runtime_config.with_observability(ObsConfig::new(Arc::clone(&metrics)));
        println!("==> observability ENABLED (metrics registry + event sink attached)");
    }
    let runtime = Arc::new(ScoringRuntime::new(
        Arc::clone(&registry),
        "serving",
        runtime_config,
    ));
    runtime.warm().expect("model warm-up");
    let closed = {
        let rt = Arc::clone(&runtime);
        let work: Arc<dyn Fn(&QueryPlan) + Send + Sync> = Arc::new(move |plan: &QueryPlan| {
            rt.submit(ScoreRequest::from_plan(plan))
                .expect("closed-loop scoring");
        });
        let (requests, elapsed, latency) = drive_closed_loop(
            args.threads,
            duration,
            Arc::clone(&plans),
            sequences.clone(),
            work,
        );
        ModeResult {
            name: "ae_serve_closed_loop",
            detail: "batching runtime; clients issue the next request on completion",
            requests,
            elapsed,
            latency,
            stats: Some(runtime.stats()),
        }
    };
    print_mode(&closed);

    // --- Mode 4: open-loop Poisson replay at ~60 % of closed-loop qps. ---
    let open_rate = (closed.qps() * 0.6).max(50.0);
    let open_requests = ((open_rate * args.seconds) as usize).max(50);
    let schedule = Arc::new(OpenLoop::new(open_rate, open_requests, 2).schedule(plans.len()));
    let stats_before = runtime.stats();
    let open = {
        let (requests, elapsed, latency) = drive_open_loop(
            args.threads,
            schedule,
            Arc::clone(&plans),
            Arc::clone(&runtime),
        );
        let stats = runtime.stats().delta_since(&stats_before);
        ModeResult {
            name: "ae_serve_open_loop",
            detail: "batching runtime; Poisson arrivals at ~60% of closed-loop throughput",
            requests,
            elapsed,
            latency,
            stats: Some(stats),
        }
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
    if let Some(path) = &args.json {
        write_json(path, args.threads, &modes, speedup);
    }

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
        if !failures.is_empty() {
            eprintln!("serving smoke FAILED: {}", failures.join("; "));
            std::process::exit(1);
        }
        println!("serving smoke OK (qps > 0, zero dropped, zero errors)");
    }
}
