//! Observability benchmark: serving-trace capture/replay determinism and
//! the measured overhead of attaching `ae-obs` to the scoring runtime.
//!
//! Phases:
//!
//! 1. **Capture** — train a model on an SF10 TPC-DS subset, serve a
//!    multi-threaded request stream through `ae-serve` with observability
//!    attached, and record every request's envelope + outcome into an
//!    [`ae_obs::ServingTrace`] (ground-truth actual curves come from
//!    deterministic simulation over the candidate counts).
//! 2. **Roundtrip** — `parse(render(trace))` must equal the trace exactly
//!    and re-render to the identical string (bit-exact f64 encoding).
//! 3. **Determinism gate** — replay the trace under its own capture
//!    configuration, re-scoring every completed request from the captured
//!    features via the single-query scoring path; every executor count,
//!    predicted-runtime bit, price bit, and miss flag must reproduce
//!    ([`ae_obs::ReplayRun::verify_against_capture`] returns no mismatches).
//! 4. **Alternative configs** — replay the same trace with (a) halved
//!    deadline budgets and (b) a `MinTime` selection objective, and diff
//!    SLO/accuracy/revenue against the baseline without re-simulation.
//! 5. **Drift** — feed the baseline replay's predicted-vs-actual pairs
//!    into an `ae-ppm` [`ResidualMonitor`] and report the drift signal.
//! 6. **Overhead A/B** — closed-loop qps of the runtime with and without
//!    observability attached; the regression percentage is the headline
//!    overhead number.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ae-bench --bin bench_obs            # full run
//! cargo run --release -p ae-bench --bin bench_obs -- --threads 4 --seconds 2 --requests 480 --queries 32
//! ```
//!
//! `--threads` sets the client threads, `--seconds` the A/B length per side
//! (at most 0.8 under `--smoke`), `--requests` the captured requests (at
//! most 120) and `--queries` the training subset (at most 12). A capture
//! that replays with mismatches always fails. The smoke gate also fails
//! unless the roundtrip holds, the strict-budget replay does not *reduce*
//! misses, and the measured overhead stays under the smoke bound (generous,
//! to absorb CI noise; the full run records the precise number in
//! `BENCH_obs.json`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ae_bench::harness::{self, Served};
use ae_ml::json::Value;
use ae_obs::{
    feature_digest, replay, MetricsRegistry, ReplayDiff, ReplayPolicy, ReplayScore, RequestStatus,
    ServingTrace, TraceMeta, TraceQuery, TraceRecord, TraceRecorder, TRACE_LEVELS,
};
use ae_ppm::{ResidualMonitor, SelectionObjective};
use ae_serve::{
    price_quote_parts, ObsConfig, QosConfig, RuntimeConfig, ScoreRequest, ScoringRuntime,
    ServiceLevel,
};
use ae_workload::{ScaleFactor, WorkloadGenerator};
use autoexecutor::evaluation::ActualRuns;
use autoexecutor::prelude::*;
use autoexecutor::scoring;

const COMMENT: &str = "ae-obs observability benchmark: serving-trace capture/replay determinism \
    and metrics/tracing overhead. 'determinism_gate_mismatches' counts bit-level disagreements \
    between captured outcomes and a replay under the capture configuration (must be 0). \
    'overhead_pct' is the closed-loop qps regression from attaching the metrics registry + event \
    sink to the scoring runtime, estimated as the median over interleaved A/B slice pairs. \
    Regenerate with: cargo run --release -p ae-bench --bin bench_obs -- --json BENCH_obs.json";

struct Args {
    smoke: bool,
    json: Option<String>,
    threads: usize,
    seconds: f64,
    requests: u64,
    queries: usize,
}

/// Overhead bound asserted by `--smoke`. Deliberately looser than the 5%
/// acceptance target measured on quiet hosts: a short smoke A/B on a noisy
/// CI machine carries several percent of run-to-run jitter of its own.
const SMOKE_OVERHEAD_BOUND_PCT: f64 = 10.0;

/// Exact curve lookup at a candidate count. Both capture and replay derive
/// `predicted_secs` through this same function, so the determinism gate
/// compares like with like.
fn curve_at(curve: &[(usize, f64)], n: usize) -> Option<f64> {
    curve.iter().find(|&&(c, _)| c == n).map(|&(_, t)| t)
}

/// Re-scores each completed record of `trace` from its captured features —
/// the single-query scoring path, bit-identical to the batched serving
/// path — and prices the result at the record's requested level with the
/// trace's own pricing inputs.
fn capture_config_scorer<'a>(
    trace: &ServingTrace,
    model: &'a ParameterModel,
    objective: SelectionObjective,
    counts: &'a [usize],
) -> impl FnMut(usize, &TraceQuery) -> Option<ReplayScore> + 'a {
    let slowdown_targets = trace.meta.slowdown_targets;
    let unit_price = trace.meta.unit_price;
    let mut levels = trace
        .records
        .iter()
        .filter(|r| r.status == RequestStatus::Completed)
        .map(|r| r.level)
        .collect::<Vec<u8>>()
        .into_iter();
    move |_, query| {
        let level = ServiceLevel::from_index(levels.next()? as usize)?;
        let scored = scoring::score_features(model, &query.features, objective, counts).ok()?;
        let request = scored.request;
        let predicted_secs = curve_at(&request.predicted_curve, request.executors)?;
        let price = price_quote_parts(
            &request.predicted_curve,
            level,
            &slowdown_targets,
            unit_price,
        )
        .map_or(0.0, |quote| quote.price);
        Some(ReplayScore {
            executors: request.executors as u32,
            predicted_secs,
            price,
        })
    }
}

/// One closed-loop slice against `runtime` at `threads` clients — the
/// work loop is identical on both sides of the overhead A/B.
fn closed_loop_slice(
    runtime: &ScoringRuntime,
    features: &[Vec<f64>],
    threads: usize,
    duration: Duration,
) -> (u64, Duration) {
    harness::closed_loop(threads, duration, |t| {
        let mut i = t;
        move || {
            let level = ServiceLevel::from_index(i % ServiceLevel::COUNT).unwrap();
            runtime
                .submit(
                    ScoreRequest::from_features(features[i % features.len()].clone())
                        .with_level(level),
                )
                .expect("overhead-loop scoring");
            i += 1;
        }
    })
}

/// Closed-loop qps of the two runtimes, measured in alternating slices so
/// slow host drift (scheduling, thermal, background load) hits both sides
/// equally instead of biasing whichever ran second. The overhead estimate
/// is the *median* of the per-slice-pair regressions — a single descheduled
/// slice then shifts one sample instead of the whole A/B.
fn interleaved_ab_qps(
    off: &ScoringRuntime,
    on: &ScoringRuntime,
    features: &[Vec<f64>],
    threads: usize,
    per_side: Duration,
) -> (f64, f64, f64) {
    const SLICES: u32 = 16;
    let slice = per_side / SLICES;
    let (mut off_total, mut on_total) = (0u64, 0u64);
    let (mut off_elapsed, mut on_elapsed) = (Duration::ZERO, Duration::ZERO);
    let mut overheads = Vec::with_capacity(SLICES as usize);
    for pair in 0..SLICES {
        // Alternate which side runs first: monotone drift inside a pair
        // otherwise always penalises whichever side is measured second.
        let measure = |runtime: &ScoringRuntime| {
            let (count, elapsed) = closed_loop_slice(runtime, features, threads, slice);
            (
                count,
                elapsed,
                count as f64 / elapsed.as_secs_f64().max(1e-9),
            )
        };
        let (off_res, on_res) = if pair % 2 == 0 {
            let o = measure(off);
            (o, measure(on))
        } else {
            let n = measure(on);
            (measure(off), n)
        };
        off_total += off_res.0;
        off_elapsed += off_res.1;
        on_total += on_res.0;
        on_elapsed += on_res.1;
        overheads.push((off_res.2 - on_res.2) / off_res.2.max(1e-9) * 100.0);
    }
    overheads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let overhead_pct = overheads[overheads.len() / 2];
    (
        off_total as f64 / off_elapsed.as_secs_f64().max(1e-9),
        on_total as f64 / on_elapsed.as_secs_f64().max(1e-9),
        overhead_pct,
    )
}

struct CaptureResult {
    trace: ServingTrace,
    capture_qps: f64,
    events_retained: usize,
    registry_metrics: usize,
}

/// Serves `requests` through an observability-enabled runtime and records
/// every outcome. Query index and requested level are pure functions of the
/// sequence number, so the envelope is reproducible across runs even though
/// per-request latencies are not.
#[allow(clippy::too_many_arguments)]
fn capture(
    runtime: &ScoringRuntime,
    metrics: &MetricsRegistry,
    features: &[Vec<f64>],
    meta: TraceMeta,
    queries: Vec<TraceQuery>,
    requests: u64,
    threads: usize,
) -> CaptureResult {
    let budgets_ns = meta.deadline_budgets_ns;
    let recorder = TraceRecorder::new();
    let next_seq = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let seq = next_seq.fetch_add(1, Ordering::Relaxed);
                if seq >= requests {
                    break;
                }
                let query = (seq % features.len() as u64) as usize;
                let level_idx = (seq % ServiceLevel::COUNT as u64) as usize;
                let level = ServiceLevel::from_index(level_idx).unwrap();
                let arrival_ns = start.elapsed().as_nanos() as u64;
                let mut record = TraceRecord {
                    seq,
                    arrival_ns,
                    query: query as u32,
                    level: level_idx as u8,
                    tenant: 0,
                    status: RequestStatus::Errored,
                    executors: 0,
                    predicted_secs: 0.0,
                    price: 0.0,
                    observed_latency_ns: 0,
                    missed: false,
                    degraded: false,
                    demoted: false,
                };
                let request =
                    ScoreRequest::from_features(features[query].clone()).with_level(level);
                if let Ok(outcome) = runtime.submit(request) {
                    let executors = outcome.request.executors;
                    record.status = RequestStatus::Completed;
                    record.executors = executors as u32;
                    record.predicted_secs =
                        curve_at(&outcome.request.predicted_curve, executors).unwrap_or(0.0);
                    record.price = outcome.quote().map_or(0.0, |quote| quote.price);
                    record.observed_latency_ns = outcome.latency.as_nanos() as u64;
                    // Canonical miss flag: observed latency against the
                    // requested level's budget (what replay recomputes).
                    record.missed = record.observed_latency_ns > budgets_ns[level_idx];
                    record.degraded = outcome.degraded;
                    record.demoted = outcome.level != level;
                }
                recorder.record(record);
            });
        }
    });
    let elapsed = start.elapsed();
    let records = recorder.finish();
    let capture_qps = records.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    let obs = runtime.observability().expect("capture runtime has obs");
    CaptureResult {
        trace: ServingTrace {
            meta,
            queries,
            records,
        },
        capture_qps,
        events_retained: obs.events().snapshot().len(),
        registry_metrics: metrics.snapshot().values().len(),
    }
}

fn main() {
    // The trace format carries exactly the serving tier's level count.
    const _: () = assert!(ServiceLevel::COUNT == TRACE_LEVELS);

    let mut args = harness::args(
        &["--threads N", "--seconds S", "--requests N", "--queries N"],
        |flags| {
            Ok(Args {
                smoke: flags.smoke(),
                json: flags.json(),
                threads: flags.get("--threads", 4)?,
                seconds: flags.seconds("--seconds", 2.0)?,
                requests: flags.get("--requests", 480)?,
                queries: flags.get("--queries", 32)?,
            })
        },
    );
    if args.smoke {
        args.seconds = args.seconds.min(0.8);
        args.requests = args.requests.min(120);
        args.queries = args.queries.min(12);
    }
    let duration = Duration::from_secs_f64(args.seconds);

    // --- Train on an SF10 TPC-DS subset (noise-free, deterministic). ---
    let full_suite = WorkloadGenerator::new(ScaleFactor::SF10).suite();
    let served = Served::train(
        full_suite.into_iter().take(args.queries).collect(),
        "tpcds subset",
        "serving",
    );
    let (config, suite, features) = (&served.config, &served.suite, &served.features);
    let decoded =
        ParameterModel::from_portable(&served.registry.load(served.name).unwrap()).unwrap();
    let candidate_counts = config.candidate_counts();
    let objective = config.objective;

    // --- Ground-truth actual curves over the candidate counts. ---
    println!(
        "==> measuring ground-truth curves ({} queries x {} counts, deterministic)",
        suite.len(),
        candidate_counts.len()
    );
    let actuals = ActualRuns::collect(suite, &candidate_counts, 1, &config.cluster, 0xAE_2023)
        .expect("ground-truth collection");
    let trace_queries: Vec<TraceQuery> = suite
        .iter()
        .zip(features.iter())
        .map(|(q, feats)| TraceQuery {
            name: q.name.clone(),
            features: feats.clone(),
            digest: feature_digest(feats),
            actual_curve: actuals
                .curve(&q.name)
                .expect("curve for every suite query")
                .iter()
                .map(|&(n, t)| (n as u32, t))
                .collect(),
        })
        .collect();

    // --- Capture: serve through an obs-enabled runtime, record a trace. ---
    let runtime_config = RuntimeConfig::from_auto_executor(config);
    let qos: QosConfig = runtime_config.qos.clone();
    let meta = TraceMeta {
        family: "tpcds".to_string(),
        model: served.name.to_string(),
        objective: format!("{objective:?}"),
        seed: 0xAE_2023,
        candidate_counts: candidate_counts.iter().map(|&c| c as u32).collect(),
        deadline_budgets_ns: std::array::from_fn(|i| qos.deadline_budgets[i].as_nanos() as u64),
        slowdown_targets: qos.slowdown_targets,
        unit_price: qos.unit_price,
    };
    let metrics = Arc::new(MetricsRegistry::new());
    let capture_runtime =
        served.runtime(runtime_config.with_observability(ObsConfig::new(Arc::clone(&metrics))));
    println!(
        "==> capturing {} requests at {} client threads (obs enabled)",
        args.requests, args.threads
    );
    let CaptureResult {
        trace,
        capture_qps,
        events_retained,
        registry_metrics,
    } = capture(
        &capture_runtime,
        &metrics,
        features,
        meta,
        trace_queries,
        args.requests,
        args.threads,
    );
    let completed = trace
        .records
        .iter()
        .filter(|r| r.status == RequestStatus::Completed)
        .count();
    println!(
        "    {} records ({} completed) at {:.0} qps; {} events retained, {} registry metrics",
        trace.records.len(),
        completed,
        capture_qps,
        events_retained,
        registry_metrics,
    );
    assert!(completed > 0, "capture must complete requests");

    // --- Roundtrip: parse(render(t)) == t and render(parse(s)) == s. ---
    let text = trace.render();
    let parsed = ServingTrace::parse(&text).expect("trace parses");
    assert_eq!(parsed, trace, "parse(render(t)) must equal t");
    assert_eq!(parsed.render(), text, "render(parse(s)) must equal s");
    println!(
        "==> trace roundtrip bit-identical ({} bytes rendered)",
        text.len()
    );

    // --- Determinism gate: replay under the capture configuration. ---
    let baseline_policy = ReplayPolicy::baseline(&trace);
    let baseline = replay(
        &trace,
        &baseline_policy,
        capture_config_scorer(&trace, &decoded, objective, &candidate_counts),
    );
    let gate = baseline.verify_against_capture(&trace);
    let mut gate_failures = Vec::new();
    if !gate.is_empty() {
        for mismatch in gate.iter().take(10) {
            eprintln!("gate mismatch: {mismatch}");
        }
        gate_failures.push(format!(
            "{} mismatches over {} records",
            gate.len(),
            trace.records.len()
        ));
    }
    harness::gate(
        "determinism gate",
        &gate_failures,
        &format!(
            "replay reproduced all {} captured outcomes bit-identically",
            trace.records.len()
        ),
    );

    // --- Alternative configurations, replayed without re-simulation. ---
    // The default budgets are milliseconds against microsecond scoring
    // latencies, so halving them reclassifies nothing. To exercise the
    // SLO side of the diff, tighten every budget to the capture's median
    // observed latency: roughly half the completions become misses.
    let mut latencies: Vec<u64> = trace
        .records
        .iter()
        .filter(|r| r.status == RequestStatus::Completed)
        .map(|r| r.observed_latency_ns)
        .collect();
    latencies.sort_unstable();
    let median_latency_ns = latencies[latencies.len() / 2].max(1);
    let strict_policy = ReplayPolicy::baseline(&trace)
        .with_label("strict_budgets")
        .with_budgets_ns([median_latency_ns; TRACE_LEVELS]);
    let strict = replay(
        &trace,
        &strict_policy,
        capture_config_scorer(&trace, &decoded, objective, &candidate_counts),
    );
    let min_time = replay(
        &trace,
        &ReplayPolicy::baseline(&trace).with_label("min_time_objective"),
        capture_config_scorer(
            &trace,
            &decoded,
            SelectionObjective::MinTime,
            &candidate_counts,
        ),
    );
    let diff_strict = ReplayDiff::between(&baseline.report, &strict.report);
    let diff_min_time = ReplayDiff::between(&baseline.report, &min_time.report);
    println!(
        "    strict_budgets: {:+} misses, net revenue {:+.1}",
        diff_strict.misses_delta, diff_strict.net_revenue_delta
    );
    println!(
        "    min_time_objective: mean executors {:+.2}, mean |residual| {:+.4}",
        diff_min_time.mean_executors_delta, diff_min_time.mean_abs_residual_delta
    );

    // --- Drift signal from the baseline replay's residuals. ---
    let drift = ResidualMonitor::new(0.25);
    for outcome in &baseline.outcomes {
        if outcome.status == RequestStatus::Completed && outcome.actual_secs > 0.0 {
            drift.observe(outcome.predicted_secs, outcome.actual_secs);
        }
    }
    let drift_signal = drift.signal();
    println!(
        "==> drift signal: {} samples, mean |rel| {:.4}, drifted(0.25) = {}",
        drift_signal.samples,
        drift_signal.mean_abs_rel,
        drift.drifted()
    );

    // --- Overhead A/B: closed-loop qps without vs with observability. ---
    println!(
        "==> overhead A/B ({:.1}s per side at {} client threads)",
        args.seconds, args.threads
    );
    let plain_runtime = served.runtime(RuntimeConfig::from_auto_executor(config));
    let obs_runtime = served.runtime(
        RuntimeConfig::from_auto_executor(config)
            .with_observability(ObsConfig::new(Arc::new(MetricsRegistry::new()))),
    );
    let (qps_off, qps_on, overhead_pct) = interleaved_ab_qps(
        &plain_runtime,
        &obs_runtime,
        features,
        args.threads,
        duration,
    );
    println!(
        "    obs off: {qps_off:.0} qps   obs on: {qps_on:.0} qps   overhead (median of slice pairs): {overhead_pct:+.2}%"
    );

    let parse = |json: String| Value::parse(&json).expect("obs reports are JSON");
    harness::write_report(
        args.json.as_deref(),
        COMMENT,
        [
            (
                "capture",
                Value::object([
                    ("requests", trace.records.len().into()),
                    ("queries", trace.queries.len().into()),
                    ("client_threads", args.threads.into()),
                    ("capture_qps", capture_qps.into()),
                    ("trace_bytes", text.len().into()),
                    ("events_retained", events_retained.into()),
                    ("registry_metrics", registry_metrics.into()),
                ]),
            ),
            ("roundtrip_bit_identical", true.into()),
            ("determinism_gate_mismatches", gate.len().into()),
            ("baseline_replay", parse(baseline.report.to_json())),
            (
                "alternative_replays",
                Value::object([
                    ("strict_budgets", parse(strict.report.to_json())),
                    ("min_time_objective", parse(min_time.report.to_json())),
                ]),
            ),
            (
                "diffs_vs_baseline",
                vec![parse(diff_strict.to_json()), parse(diff_min_time.to_json())].into(),
            ),
            ("drift_signal", parse(drift_signal.to_json())),
            (
                "overhead",
                Value::object([
                    ("qps_obs_off", qps_off.into()),
                    ("qps_obs_on", qps_on.into()),
                    ("overhead_pct", overhead_pct.into()),
                ]),
            ),
        ],
    );

    if args.smoke {
        let mut failures = Vec::new();
        // The determinism gate already failed the run above; re-assert for
        // clarity.
        if !gate.is_empty() {
            failures.push(format!("{} determinism mismatches", gate.len()));
        }
        if diff_strict.misses_delta < 0 {
            failures.push("halving budgets cannot reduce misses".to_string());
        }
        if drift_signal.samples == 0 {
            failures.push("drift monitor saw no residual samples".to_string());
        }
        if overhead_pct > SMOKE_OVERHEAD_BOUND_PCT {
            failures.push(format!(
                "obs overhead {overhead_pct:.2}% exceeds {SMOKE_OVERHEAD_BOUND_PCT}% bound"
            ));
        }
        harness::gate(
            "obs smoke",
            &failures,
            &format!(
                "roundtrip bit-identical, gate clean, overhead {overhead_pct:.2}% < {SMOKE_OVERHEAD_BOUND_PCT}%"
            ),
        );
    }
}
