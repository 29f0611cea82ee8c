//! QoS serving benchmark: per-service-level latency, deadline-miss rate,
//! and shed rate of the `ae-serve` runtime under open-loop load.
//!
//! Four phases:
//!
//! * **calibrate** — a short closed-loop burst measures the runtime's
//!   sustained capacity on this host.
//! * **moderate** — a Poisson open-loop replay at a fraction of capacity
//!   (`--moderate-fraction`, default 0.25), blocking submission. The SLA
//!   claim at this load: `Interactive` finishes inside its deadline
//!   budget — zero misses.
//! * **overload** — a Poisson open-loop replay *above* capacity
//!   (`--overload-factor`, default 2.0), non-blocking submission. Queues
//!   saturate; the runtime sheds `BestEffort` first and keeps
//!   `Interactive` p99 below `BestEffort` p99 (asserted by `--smoke`).
//! * **fairness** — a dedicated runtime with a per-tenant token-bucket
//!   policy: one flooding tenant against one in-rate tenant. The flood is
//!   demoted to `BestEffort` and shed; the in-rate tenant must complete
//!   every request (asserted by `--smoke`). The moderate/overload phases
//!   run with fairness *off* so they measure pure level scheduling; their
//!   tenant tags exercise the mix plumbing only.
//!
//! Requests are tagged with a service-level/tenant mix by
//! [`ae_workload::OpenLoop::schedule_tagged`]; per-level latencies are
//! recorded client-side, deadline misses and sheds come from the runtime's
//! per-level counters. A per-query price menu (the level's executor count,
//! predicted run time, and executor-seconds price derived from the
//! predicted curve) is printed and recorded alongside.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ae-bench --bin bench_qos                 # full run
//! cargo run --release -p ae-bench --bin bench_qos -- --smoke      # CI gate
//! cargo run --release -p ae-bench --bin bench_qos -- --json BENCH_qos.json
//! ```
//!
//! `--smoke` shortens every phase and exits non-zero unless: every
//! recorded rate is finite, `Interactive` holds its deadline budget at
//! moderate load (miss rate ≤ 0.1 %, absorbing single-core OS jitter;
//! the recorded full runs show zero misses), `Interactive` p99 <
//! `BestEffort` p99 under overload, and the in-rate tenant of the
//! fairness phase is never starved.

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ae_engine::plan::QueryPlan;
use ae_obs::{AtomicHistogram, Ladder, LatencyStats, ShardedHistogram};
use ae_serve::{
    LevelStats, QosConfig, RuntimeConfig, ScoreRequest, ScoringRuntime, ServeError, ServiceLevel,
    TenantId, TenantPolicy,
};
use ae_workload::{
    ClosedLoop, OpenLoop, ScaleFactor, TaggedArrival, WeightedMix, WorkloadGenerator,
};
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;

/// Per-level arrays and the tagged schedule's `level_index` both use
/// [`ServiceLevel::index`] order (`BestEffort` = 0, `Standard` = 1,
/// `Interactive` = 2) — the same order as `ae_serve::RuntimeStats::levels`.
/// Display iterates highest-priority-first.
const DISPLAY_ORDER: [ServiceLevel; ServiceLevel::COUNT] = [
    ServiceLevel::Interactive,
    ServiceLevel::Standard,
    ServiceLevel::BestEffort,
];

/// Level mix in [`ServiceLevel::index`] order: 40 % best-effort, 50 %
/// standard, 10 % interactive (the premium tier is deliberately small, as
/// in a real tiered offering, and comfortably inside its 8/13 drain share
/// even at 2x overload).
const LEVEL_WEIGHTS: [f64; ServiceLevel::COUNT] = [0.4, 0.5, 0.1];

/// Tenants in the replayed stream (uniform mix).
const TENANTS: usize = 4;

struct Args {
    smoke: bool,
    threads: usize,
    seconds: f64,
    moderate_fraction: f64,
    overload_factor: f64,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        threads: 4,
        seconds: 3.0,
        moderate_fraction: 0.25,
        overload_factor: 2.0,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
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
            "--moderate-fraction" => {
                args.moderate_fraction = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--moderate-fraction needs a number");
            }
            "--overload-factor" => {
                args.overload_factor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--overload-factor needs a number");
            }
            "--json" => args.json = it.next(),
            other => panic!("unknown argument: {other}"),
        }
    }
    if args.smoke {
        args.seconds = args.seconds.min(0.8);
    }
    args
}

/// Per-level measurements of one phase: offered volume and client-side
/// latency wrap the runtime's own per-level counters.
#[derive(Debug, Clone, Default)]
struct LevelResult {
    offered: u64,
    latency: LatencyStats,
    stats: LevelStats,
}

impl LevelResult {
    fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.stats.shed as f64 / self.offered as f64
    }
}

/// One phase: the offered rate and per-level outcomes.
struct PhaseResult {
    name: &'static str,
    rate_qps: f64,
    elapsed: Duration,
    saturated_drops: u64,
    per_level: [LevelResult; 3],
}

fn print_phase(phase: &PhaseResult) {
    println!(
        "phase: {:<9} offered {:>8.0} qps over {:.2}s, {} saturated drops",
        phase.name,
        phase.rate_qps,
        phase.elapsed.as_secs_f64(),
        phase.saturated_drops,
    );
    for level in DISPLAY_ORDER {
        let r = &phase.per_level[level.index()];
        println!(
            "       {:<12} offered {:>6}  completed {:>6}  p50 {:>8.1} µs  p99 {:>9.1} µs  \
             miss rate {:>6.3}  shed {:>5} ({:.3})",
            level.name(),
            r.offered,
            r.stats.completed,
            r.latency.p50.as_secs_f64() * 1e6,
            r.latency.p99.as_secs_f64() * 1e6,
            r.stats.miss_rate(),
            r.stats.shed,
            r.shed_rate(),
        );
    }
}

/// Redeems one ticket: records the runtime-observed latency under the
/// *served* level (demotions count against `BestEffort`, not the requested
/// level) unless the ticket belongs to the warm-up prefix, and ignores
/// shed/shutdown results (the runtime's counters account them).
fn redeem(histograms: &[ShardedHistogram; 3], record: bool, ticket: ae_serve::ScoreTicket) {
    match ticket.wait() {
        Ok(outcome) => {
            if record {
                histograms[outcome.level.index()].record_duration(outcome.latency);
            }
        }
        Err(ServeError::Shed) | Err(ServeError::ShutDown) => {}
        Err(other) => panic!("unexpected serving error: {other}"),
    }
}

/// Replays a tagged open-loop schedule: thread `t` handles every
/// `threads`-th arrival, sleeping until its scheduled time, then submitting
/// with the arrival's level and tenant.
///
/// `blocking` selects the submission discipline. Blocking mode uses
/// synchronous `submit` (backpressure — the moderate-load SLA regime).
/// Non-blocking mode uses *detached* fire-and-forget submission
/// (`try_submit_detached`): arrivals keep their schedule instead of being
/// throttled by completion waits, which is what actually drives the
/// runtime's queues into saturation; tickets are redeemed on a bounded
/// outstanding window so memory stays flat. In non-blocking mode the
/// first quarter of the schedule is a **warm-up**: its completions are
/// excluded from the latency recorders, so steady-state saturation — not
/// the low-latency fill-up transient before the queues pin — is what the
/// per-level percentiles describe. Latency is the runtime's own
/// admission-to-fulfillment measurement in both modes.
///
/// Returns per-level latency summaries, per-level offered counts, and the
/// elapsed wall-clock. Latencies land in shared per-level lock-free
/// [`ShardedHistogram`]s — no per-thread sample vectors to merge.
fn drive_tagged_open_loop(
    threads: usize,
    schedule: Arc<Vec<TaggedArrival>>,
    plans: Arc<Vec<QueryPlan>>,
    runtime: Arc<ScoringRuntime>,
    blocking: bool,
) -> ([LatencyStats; 3], [u64; 3], Duration) {
    const OUTSTANDING_WINDOW: usize = 4096;
    let warmup = if blocking { 0 } else { schedule.len() / 4 };
    let start = Instant::now();
    let histograms: Arc<[ShardedHistogram; 3]> = Arc::new(std::array::from_fn(|_| {
        ShardedHistogram::new(Ladder::latency())
    }));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let schedule = Arc::clone(&schedule);
            let plans = Arc::clone(&plans);
            let runtime = Arc::clone(&runtime);
            let histograms = Arc::clone(&histograms);
            std::thread::spawn(move || {
                let mut offered = [0u64; 3];
                let mut outstanding: std::collections::VecDeque<(bool, ae_serve::ScoreTicket)> =
                    std::collections::VecDeque::new();
                for (position, arrival) in schedule.iter().enumerate().skip(t).step_by(threads) {
                    if let Some(wait) = arrival.at.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let level = ServiceLevel::from_index(arrival.level_index)
                        .expect("mix classes match the service levels");
                    let request = ScoreRequest::from_plan(&plans[arrival.query_index])
                        .with_level(level)
                        .with_tenant(TenantId(arrival.tenant_index as u64));
                    offered[arrival.level_index] += 1;
                    if blocking {
                        match runtime.submit(request) {
                            Ok(outcome) => {
                                histograms[outcome.level.index()].record_duration(outcome.latency)
                            }
                            Err(ServeError::Shed) => {}
                            Err(other) => panic!("unexpected serving error: {other}"),
                        }
                    } else {
                        match runtime.try_submit_detached(request) {
                            Ok(ticket) => outstanding.push_back((position >= warmup, ticket)),
                            Err(ServeError::Saturated) => {}
                            Err(other) => panic!("unexpected serving error: {other}"),
                        }
                        if outstanding.len() >= OUTSTANDING_WINDOW {
                            let (record, ticket) = outstanding.pop_front().unwrap();
                            redeem(&histograms, record, ticket);
                        }
                    }
                }
                for (record, ticket) in outstanding {
                    redeem(&histograms, record, ticket);
                }
                offered
            })
        })
        .collect();
    let mut offered = [0u64; 3];
    for handle in handles {
        let counts = handle.join().unwrap();
        for (into, from) in offered.iter_mut().zip(counts) {
            *into += from;
        }
    }
    let latencies = std::array::from_fn(|i| histograms[i].snapshot().latency_stats());
    (latencies, offered, start.elapsed())
}

/// Runs one open-loop phase and assembles per-level results from the
/// client-side recorders plus the runtime's counter delta.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    name: &'static str,
    rate_qps: f64,
    seconds: f64,
    seed: u64,
    threads: usize,
    plans: &Arc<Vec<QueryPlan>>,
    runtime: &Arc<ScoringRuntime>,
    blocking: bool,
) -> PhaseResult {
    let requests = ((rate_qps * seconds) as usize).max(100);
    let levels = WeightedMix::new(LEVEL_WEIGHTS.to_vec());
    let tenants = WeightedMix::uniform(TENANTS);
    let schedule = Arc::new(OpenLoop::new(rate_qps, requests, seed).schedule_tagged(
        plans.len(),
        &levels,
        &tenants,
    ));
    let before = runtime.stats();
    let (latencies, offered, elapsed) = drive_tagged_open_loop(
        threads,
        schedule,
        Arc::clone(plans),
        Arc::clone(runtime),
        blocking,
    );
    let mut per_level: [LevelResult; 3] = Default::default();
    let delta = runtime.stats().delta_since(&before);
    for (i, latency) in latencies.into_iter().enumerate() {
        let level = ServiceLevel::from_index(i).expect("per-level arrays use index order");
        per_level[i] = LevelResult {
            offered: offered[i],
            latency,
            stats: *delta.level(level),
        };
    }
    PhaseResult {
        name,
        rate_qps,
        elapsed,
        saturated_drops: delta.dropped,
        per_level,
    }
}

/// Outcome of the dedicated tenant-fairness phase.
struct FairnessResult {
    policy_rate_qps: f64,
    policy_burst: f64,
    heavy_offered: u64,
    heavy_completed: u64,
    heavy_rejected: u64,
    demoted: u64,
    shed: u64,
    light_offered: u64,
    light_completed: u64,
    light_p99: Duration,
}

/// Requests each flood thread issues in the fairness phase.
const FLOOD_REQUESTS_PER_THREAD: usize = 1500;
/// Requests the in-rate tenant issues in the fairness phase.
const LIGHT_REQUESTS: usize = 128;

/// Runs the fairness phase on its own runtime: `threads` flood threads
/// hammer `try_submit` as tenant 0 at `Interactive` (far beyond the
/// token-bucket allowance, so the flood is demoted to `BestEffort` and
/// shed under the tight queue), while tenant 1 submits spaced in-burst
/// `Standard` requests that must all complete.
///
/// The policy is a pure burst allowance (`rate_qps = 0`) and both sides
/// issue fixed request *counts*, so the phase's outcome does not depend
/// on wall-clock speed: the flood always exceeds the 256-token burst by
/// thousands of requests (guaranteed demotions) and the in-rate tenant
/// always stays inside it (guaranteed grants), however slowly a loaded
/// host executes them.
fn run_fairness_phase(
    registry: &Arc<ModelRegistry>,
    config: &AutoExecutorConfig,
    plans: &Arc<Vec<QueryPlan>>,
    threads: usize,
) -> FairnessResult {
    let policy = TenantPolicy::demote(0.0, 256.0);
    let runtime = Arc::new(ScoringRuntime::new(
        Arc::clone(registry),
        "qos",
        RuntimeConfig::from_auto_executor(config)
            .with_workers(1)
            .with_queue_capacity(64)
            .with_inline_max_in_flight(0)
            .with_qos(QosConfig::default().with_fairness(policy)),
    ));
    runtime.warm().expect("model warm-up");
    let heavy = TenantId(0);
    let light = TenantId(1);
    let flood: Vec<_> = (0..threads.max(1))
        .map(|t| {
            let runtime = Arc::clone(&runtime);
            let plans = Arc::clone(plans);
            std::thread::spawn(move || {
                let (mut offered, mut completed) = (0u64, 0u64);
                for i in 0..FLOOD_REQUESTS_PER_THREAD {
                    offered += 1;
                    let request = ScoreRequest::from_plan(&plans[(t + i) % plans.len()])
                        .with_level(ServiceLevel::Interactive)
                        .with_tenant(heavy);
                    match runtime.try_submit(request) {
                        Ok(_) => completed += 1,
                        Err(ServeError::Shed) | Err(ServeError::Saturated) => {}
                        Err(other) => panic!("unexpected error under flood: {other}"),
                    }
                }
                (offered, completed)
            })
        })
        .collect();
    // Starvation of the blocking in-rate submitter would manifest as an
    // unbounded wait (hanging the bench), an error, or huge latency — so
    // besides requiring every submit to return Ok at the requested level,
    // the smoke bounds the in-rate tenant's p99 below.
    let light_histogram = AtomicHistogram::new(Ladder::latency());
    let (mut light_offered, mut light_completed) = (0u64, 0u64);
    while light_offered < LIGHT_REQUESTS as u64 {
        light_offered += 1;
        let outcome = runtime
            .submit(
                ScoreRequest::from_plan(&plans[light_offered as usize % plans.len()])
                    .with_level(ServiceLevel::Standard)
                    .with_tenant(light),
            )
            .expect("the in-rate tenant must never be starved");
        assert_eq!(outcome.level, ServiceLevel::Standard, "no demotion in-rate");
        light_histogram.record_duration(outcome.latency);
        light_completed += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    let (mut heavy_offered, mut heavy_completed) = (0u64, 0u64);
    for handle in flood {
        let (offered, completed) = handle.join().unwrap();
        heavy_offered += offered;
        heavy_completed += completed;
    }
    let stats = runtime.stats();
    runtime.shutdown();
    FairnessResult {
        policy_rate_qps: policy.rate_qps,
        policy_burst: policy.burst,
        heavy_offered,
        heavy_completed,
        heavy_rejected: heavy_offered - heavy_completed,
        demoted: stats.demoted,
        shed: stats.shed(),
        light_offered,
        light_completed,
        light_p99: light_histogram.snapshot().latency_stats().p99,
    }
}

fn print_fairness(fairness: &FairnessResult) {
    println!(
        "phase: fairness  token bucket {} qps / burst {} per tenant",
        fairness.policy_rate_qps, fairness.policy_burst
    );
    println!(
        "       flooding tenant: offered {:>7}  completed {:>6}  shed/dropped {:>7}  demoted {:>6}",
        fairness.heavy_offered, fairness.heavy_completed, fairness.heavy_rejected, fairness.demoted,
    );
    println!(
        "       in-rate tenant:  offered {:>7}  completed {:>6}  p99 {:>8.1} µs  (zero starvation)",
        fairness.light_offered,
        fairness.light_completed,
        fairness.light_p99.as_secs_f64() * 1e6,
    );
}

/// A per-level price menu row for one representative query.
struct QuoteRow {
    query: String,
    level: ServiceLevel,
    executors: usize,
    predicted_seconds: f64,
    price: f64,
    multiplier: f64,
}

fn quote_menu(
    runtime: &ScoringRuntime,
    names: &[&str],
    plans: &[(String, QueryPlan)],
) -> Vec<QuoteRow> {
    let mut rows = Vec::new();
    for &name in names {
        let Some((_, plan)) = plans.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for level in DISPLAY_ORDER {
            let outcome = runtime
                .submit(ScoreRequest::from_plan(plan).with_level(level))
                .expect("menu scoring");
            let quote = outcome.quote().expect("predicted curve is non-empty");
            rows.push(QuoteRow {
                query: name.to_string(),
                level,
                executors: quote.executors,
                predicted_seconds: quote.predicted_seconds,
                price: quote.price,
                multiplier: quote.multiplier,
            });
        }
    }
    rows
}

fn write_json(
    path: &str,
    threads: usize,
    capacity_qps: f64,
    phases: &[PhaseResult],
    fairness: &FairnessResult,
    quotes: &[QuoteRow],
) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"comment\": \"ae-serve QoS benchmark: per-service-level latency, deadline-miss \
         rate, and shed rate under tagged Poisson open-loop load. 'moderate' replays at a \
         fraction of the measured closed-loop capacity with blocking submission (the SLA \
         regime: Interactive must miss zero deadlines); 'overload' replays above capacity \
         with non-blocking submission (the shedding regime: BestEffort is shed first and \
         Interactive p99 stays below BestEffort p99). Both run with tenant fairness OFF \
         (tenant tags exercise the mix plumbing only); 'fairness' is a dedicated phase on \
         its own runtime with a per-tenant token bucket: a flooding tenant is demoted and \
         shed while an in-rate tenant completes every request. Regenerate with: cargo run \
         --release -p ae-bench --bin bench_qos -- --json BENCH_qos.json\",\n",
    );
    out.push_str(&format!(
        "  \"host\": \"{}-core container (rustc 1.95, release profile)\",\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str(&format!("  \"client_threads\": {threads},\n"));
    out.push_str(&format!("  \"capacity_qps\": {capacity_qps:.0},\n"));
    out.push_str(&format!(
        "  \"level_mix\": {{\"interactive\": {}, \"standard\": {}, \"best_effort\": {}}},\n",
        LEVEL_WEIGHTS[ServiceLevel::Interactive.index()],
        LEVEL_WEIGHTS[ServiceLevel::Standard.index()],
        LEVEL_WEIGHTS[ServiceLevel::BestEffort.index()]
    ));
    out.push_str(&format!("  \"tenants_in_mix\": {TENANTS},\n"));
    out.push_str("  \"phases\": [\n");
    for (pi, phase) in phases.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", phase.name));
        out.push_str(&format!("      \"offered_qps\": {:.1},\n", phase.rate_qps));
        out.push_str(&format!(
            "      \"saturated_drops\": {},\n",
            phase.saturated_drops
        ));
        out.push_str("      \"per_level\": [\n");
        for (i, level) in DISPLAY_ORDER.iter().enumerate() {
            let r = &phase.per_level[level.index()];
            out.push_str(&format!(
                "        {{\"level\": \"{}\", \"offered\": {}, \"completed\": {}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"deadline_misses\": {}, \
                 \"deadline_miss_rate\": {:.4}, \"shed\": {}, \"shed_rate\": {:.4}}}{}\n",
                level.name(),
                r.offered,
                r.stats.completed,
                r.latency.p50.as_secs_f64() * 1e6,
                r.latency.p99.as_secs_f64() * 1e6,
                r.stats.deadline_misses,
                r.stats.miss_rate(),
                r.stats.shed,
                r.shed_rate(),
                if i + 1 < DISPLAY_ORDER.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(if pi + 1 < phases.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"fairness\": {{\"policy_rate_qps\": {}, \"policy_burst\": {}, \
         \"heavy_offered\": {}, \"heavy_completed\": {}, \"heavy_shed_or_dropped\": {}, \
         \"demoted\": {}, \"shed\": {}, \"light_offered\": {}, \"light_completed\": {}, \
         \"light_p99_us\": {:.1}}},\n",
        fairness.policy_rate_qps,
        fairness.policy_burst,
        fairness.heavy_offered,
        fairness.heavy_completed,
        fairness.heavy_rejected,
        fairness.demoted,
        fairness.shed,
        fairness.light_offered,
        fairness.light_completed,
        fairness.light_p99.as_secs_f64() * 1e6,
    ));
    out.push_str("  \"price_menu\": [\n");
    for (i, row) in quotes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"query\": \"{}\", \"level\": \"{}\", \"executors\": {}, \
             \"predicted_seconds\": {:.2}, \"price\": {:.2}, \"multiplier\": {:.2}}}{}\n",
            row.query,
            row.level.name(),
            row.executors,
            row.predicted_seconds,
            row.price,
            row.multiplier,
            if i + 1 < quotes.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(path).expect("create json output");
    file.write_all(out.as_bytes()).expect("write json output");
    println!("wrote {path}");
}

fn main() {
    let args = parse_args();

    let generator = WorkloadGenerator::new(ScaleFactor::SF10);
    let suite = generator.suite();
    println!(
        "==> training the parameter model ({}-query SF10 tpcds suite)",
        suite.len()
    );
    let mut config = AutoExecutorConfig::default();
    config.training_run.noise_cv = 0.0;
    let (_, model) = train_from_workload(&suite, &config).expect("training");
    let registry = Arc::new(ModelRegistry::in_memory());
    registry
        .register("qos", model.to_portable("qos").unwrap())
        .unwrap();

    let rewriter = Optimizer::with_default_rules();
    let named_plans: Vec<(String, QueryPlan)> = suite
        .iter()
        .map(|q| {
            (
                q.name.clone(),
                rewriter.optimize(q.plan.clone()).unwrap().plan,
            )
        })
        .collect();
    let plans: Arc<Vec<QueryPlan>> = Arc::new(named_plans.iter().map(|(_, p)| p.clone()).collect());

    let runtime = Arc::new(ScoringRuntime::new(
        Arc::clone(&registry),
        "qos",
        RuntimeConfig::from_auto_executor(&config),
    ));
    runtime.warm().expect("model warm-up");

    // --- Calibration: short closed-loop burst to measure capacity. ---
    let calibration_seconds = (args.seconds * 0.3).max(0.2);
    let sequences = ClosedLoop::new(args.threads, 512, 1).sequences(plans.len());
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(calibration_seconds);
    let handles: Vec<_> = (0..args.threads)
        .map(|t| {
            let plans = Arc::clone(&plans);
            let runtime = Arc::clone(&runtime);
            let sequence = sequences[t % sequences.len()].clone();
            std::thread::spawn(move || {
                let mut count = 0u64;
                let mut i = 0usize;
                while start.elapsed() < deadline {
                    runtime
                        .submit(ScoreRequest::from_plan(
                            &plans[sequence[i % sequence.len()]],
                        ))
                        .expect("calibration scoring");
                    count += 1;
                    i += 1;
                }
                count
            })
        })
        .collect();
    let calibration_requests: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let capacity_qps = calibration_requests as f64 / start.elapsed().as_secs_f64().max(1e-9);
    println!(
        "==> calibrated capacity: {capacity_qps:.0} qps at {} client threads",
        args.threads
    );

    // --- Moderate load: blocking submission at a fraction of capacity. ---
    let moderate = run_phase(
        "moderate",
        (capacity_qps * args.moderate_fraction).max(50.0),
        args.seconds,
        11,
        args.threads,
        &plans,
        &runtime,
        true,
    );
    print_phase(&moderate);

    // --- Overload: non-blocking submission above capacity. ---
    let overload = run_phase(
        "overload",
        (capacity_qps * args.overload_factor).max(200.0),
        args.seconds,
        12,
        args.threads,
        &plans,
        &runtime,
        false,
    );
    print_phase(&overload);

    // --- Fairness: flooding tenant vs in-rate tenant on a policed runtime. ---
    let fairness = run_fairness_phase(&registry, &config, &plans, args.threads);
    print_fairness(&fairness);

    // --- Price menu for three representative queries. ---
    let quotes = quote_menu(&runtime, &["q1", "q42", "q88"], &named_plans);
    println!("==> price menu (executor-seconds, derived from each query's predicted curve)");
    for row in &quotes {
        println!(
            "       {:<6} {:<12} n={:<3} t={:>7.1}s  price {:>8.1}  ({:.2}x best-effort)",
            row.query,
            row.level.name(),
            row.executors,
            row.predicted_seconds,
            row.price,
            row.multiplier,
        );
    }

    let phases = [moderate, overload];
    if let Some(path) = &args.json {
        write_json(
            path,
            args.threads,
            capacity_qps,
            &phases,
            &fairness,
            &quotes,
        );
    }

    if args.smoke {
        let mut failures = Vec::new();
        let moderate = &phases[0];
        let overload = &phases[1];
        for phase in &phases {
            for level in ServiceLevel::ALL {
                let r = &phase.per_level[level.index()];
                if !r.stats.miss_rate().is_finite() || !r.shed_rate().is_finite() {
                    failures.push(format!(
                        "{}/{}: non-finite miss or shed rate",
                        phase.name,
                        level.name()
                    ));
                }
            }
        }
        let interactive_moderate = &moderate.per_level[ServiceLevel::Interactive.index()];
        // The budget must hold at moderate load. A ≤0.1 % allowance
        // absorbs single-core OS scheduling jitter (a 10 ms preemption
        // landing inside one µs-scale request); a real scheduling
        // regression produces miss rates orders of magnitude higher.
        if interactive_moderate.stats.miss_rate() > 0.001 {
            failures.push(format!(
                "moderate load: Interactive deadline-miss rate {:.4} ({} misses) exceeds the                  0.001 jitter allowance",
                interactive_moderate.stats.miss_rate(),
                interactive_moderate.stats.deadline_misses
            ));
        }
        if interactive_moderate.stats.completed == 0 {
            failures.push("moderate load: no Interactive request completed".to_string());
        }
        let interactive_p99 = overload.per_level[ServiceLevel::Interactive.index()]
            .latency
            .p99;
        let best_effort_p99 = overload.per_level[ServiceLevel::BestEffort.index()]
            .latency
            .p99;
        if overload.per_level[ServiceLevel::BestEffort.index()]
            .latency
            .count
            == 0
        {
            failures.push("overload: no BestEffort completion past warm-up".to_string());
        } else if interactive_p99 >= best_effort_p99 {
            failures.push(format!(
                "overload: Interactive p99 ({:.1} µs) must be strictly below BestEffort p99 ({:.1} µs)",
                interactive_p99.as_secs_f64() * 1e6,
                best_effort_p99.as_secs_f64() * 1e6,
            ));
        }
        // light_completed tracks light_offered in lockstep (a blocking
        // submit either returns Ok or hangs the phase), so starvation is
        // gated on the falsifiable signals: some progress was made and
        // the in-rate tenant's tail latency stayed bounded despite the
        // flood (a starved submitter's waits grow without bound).
        if fairness.light_completed == 0 {
            failures.push("fairness: the in-rate tenant made no progress".to_string());
        }
        if fairness.light_p99 > Duration::from_millis(100) {
            failures.push(format!(
                "fairness: in-rate tenant p99 {:.1} ms exceeds the 100 ms starvation bound",
                fairness.light_p99.as_secs_f64() * 1e3
            ));
        }
        if fairness.demoted == 0 {
            failures.push("fairness: the flooding tenant was never demoted".to_string());
        }
        if !failures.is_empty() {
            eprintln!("qos smoke FAILED: {}", failures.join("; "));
            std::process::exit(1);
        }
        println!(
            "qos smoke OK (finite rates, Interactive holds its budget at moderate load, \
             Interactive p99 < BestEffort p99 under overload, in-rate tenant never starved)"
        );
    }
}
