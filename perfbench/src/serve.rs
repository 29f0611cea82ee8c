//! The serving workload `serve_blocking`: 2 clients calling the blocking
//! `ScoringRuntime::submit`, the optimizer-rule caller. They send the
//! 149-plan mixed-family SF10 suite in a seeded order, tagged 10/50/40 %
//! Interactive/Standard/BestEffort, to a runtime built with the program's
//! defaults. A traced run also pushes a probe through the queued path (one
//! client keeping 64 `submit_detached` tickets in flight), so the queue and
//! batcher layers are measured too.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ae_engine::plan::QueryPlan;
use ae_ml::matrix::FeatureMatrix;
use ae_serve::{
    RuntimeConfig, RuntimeStats, ScoreOutcome, ScoreRequest, ScoringRuntime, ServeError,
    ServiceLevel,
};
use ae_workload::{mixed_suite, FamilyRegistry, ScaleFactor};
use autoexecutor::evaluation::{error_by_count, sparklens_curves, ActualRuns};
use autoexecutor::{
    featurize_plan, full_feature_names, scoring, AutoExecutorConfig, ModelRegistry, Optimizer,
    ParameterModel, TrainingData,
};

use crate::measure::{mean, median, peak_rss_mib, secs_since, steal_secs};
use crate::phase::{self, ClientLog, PhaseStats};
use crate::requests::{client_stream, Request, STREAM_LEN};
use crate::trace::Tracer;
use crate::{Args, Outcomes, Report};

/// Closed-loop client threads of the measured phase.
const CLIENTS: usize = 2;
/// Tickets the queued probe keeps outstanding.
const PIPELINE_DEPTH: usize = 64;
/// Set-ups before and after the measured phase; `setup_s`, `train_s` and
/// `whatif_s` are medians over all of them.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 4;
/// Requests per client pushed through the measured path at set-up.
const WARMUP_REQUESTS: u64 = 3000;
/// Builds of the reference answer table per set-up.
const TABLE_BUILDS: usize = 20;
/// Requests replayed through the runtime's internal public functions in
/// the traced run, and the batch size of the batched replay.
const REPLAY_REQUESTS: usize = 4096;
const REPLAY_BATCH: usize = 32;
/// Requests the traced run also pushes through the queued path
/// (`submit_detached`, `PIPELINE_DEPTH` in flight), so the queue and batcher
/// layers are measured.
const QUEUED_PROBE_REQUESTS: u64 = 20_000;
/// Latencies each client keeps per slice; a busier slice keeps a uniform
/// sample of this size.
const SAMPLES_PER_SLICE: usize = 1 << 16;
/// Spans kept per client for the trace file.
const SPAN_CAPACITY: usize = 25_000;
const MODEL: &str = "serving";

/// One built serving stack and the inputs that drive it.
struct Served {
    plans: Vec<QueryPlan>,
    streams: Vec<Vec<Request>>,
    /// The executor count the sequential rule picks for each plan.
    expected: Vec<usize>,
    /// The model as the runtime decodes it from the registry.
    model: ParameterModel,
    runtime: ScoringRuntime,
    config: AutoExecutorConfig,
    train_s: f64,
    /// Duration of every reference-table build.
    build_times: Vec<f64>,
    train_err: f64,
}

fn setup(args: &Args, tracer: &mut Tracer) -> Result<Served, String> {
    let config = AutoExecutorConfig::default();
    let suite = tracer.span("workload.suite", 0, |_| {
        mixed_suite(FamilyRegistry::builtin().families(), ScaleFactor::SF10)
    });
    let optimizer = Optimizer::with_default_rules();
    let plans = suite
        .iter()
        .map(|q| optimizer.optimize(q.plan.clone()).map(|ctx| ctx.plan))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("optimizing the suite: {e}"))?;
    let streams = (0..CLIENTS as u64)
        .map(|client| client_stream(args.seed, client, plans.len(), STREAM_LEN))
        .collect();

    let train_start = Instant::now();
    let data = tracer
        .span("eval.collect", 0, |_| {
            TrainingData::collect(&suite, &config)
        })
        .map_err(|e| format!("collecting training data: {e}"))?;
    let trained = tracer
        .span("ml.forest_fit", 0, |_| {
            ParameterModel::train(&data, &config)
        })
        .map_err(|e| format!("training the serving model: {e}"))?;
    let train_s = secs_since(train_start);

    let registry = Arc::new(ModelRegistry::in_memory());
    let portable = trained
        .to_portable(MODEL)
        .map_err(|e| format!("exporting the serving model: {e}"))?;
    registry
        .register(MODEL, portable)
        .map_err(|e| format!("registering the serving model: {e}"))?;
    let model = registry
        .load(MODEL)
        .and_then(|p| ParameterModel::from_portable(&p))
        .map_err(|e| format!("decoding the serving model: {e}"))?;

    // The reference answers: what the sequential rule picks for every plan.
    let counts = config.candidate_counts();
    let mut expected: Vec<usize> = Vec::new();
    // Built on two threads, like the serving load, so the timing follows
    // the host the way the load does rather than one core's speed.
    let score_part = |part: &[QueryPlan]| {
        part.iter()
            .map(|plan| {
                scoring::score_features(&model, &featurize_plan(plan), config.objective, &counts)
                    .map(|scored| scored.request.executors)
            })
            .collect::<Result<Vec<_>, _>>()
    };
    let mut build_times = Vec::with_capacity(TABLE_BUILDS);
    for _ in 0..TABLE_BUILDS {
        let start = Instant::now();
        let (front, back) = plans.split_at(plans.len() / 2);
        let (front, back) = std::thread::scope(|scope| {
            let back = scope.spawn(|| score_part(back));
            let front = score_part(front);
            (
                front,
                back.join().expect("a reference-table thread panicked"),
            )
        });
        let mut table = front.map_err(|e| format!("building the reference table: {e}"))?;
        table.extend(back.map_err(|e| format!("building the reference table: {e}"))?);
        build_times.push(secs_since(start));
        if expected.is_empty() {
            expected = table;
        } else if table != expected {
            return Err("reference table differs between builds".into());
        }
    }

    // Fit error of the serving model on its own training curves (the
    // serving workload has no held-out ground truth).
    let predictions = data
        .examples
        .iter()
        .map(|e| {
            model
                .predict_ppm_from_full_features(&e.full_features)
                .map(|ppm| (e.name.clone(), ppm.predict_curve(&config.training_counts)))
        })
        .collect::<Result<BTreeMap<_, _>, _>>()
        .map_err(|e| format!("predicting training curves: {e}"))?;
    let truth = ActualRuns::from_curves(sparklens_curves(&data));
    let errors: Vec<f64> = error_by_count(&predictions, &truth, &config.training_counts)
        .into_values()
        .collect();

    let runtime = ScoringRuntime::new(
        Arc::clone(&registry),
        MODEL,
        RuntimeConfig::from_auto_executor(&config),
    );
    runtime
        .warm()
        .map_err(|e| format!("warming the runtime: {e}"))?;
    let served = Served {
        plans,
        streams,
        expected,
        model,
        runtime,
        config,
        train_s,
        build_times,
        train_err: mean(&errors),
    };
    // Warm-up through the measured path itself, unrecorded.
    let mut scratch: Vec<ClientLog> = (0..CLIENTS)
        .map(|_| ClientLog::new(0, 0, Tracer::new(false, Instant::now(), 0)))
        .collect();
    run_clients(&served, &mut scratch, None, WARMUP_REQUESTS);
    let warm: Outcomes = total_outcomes(&scratch);
    if warm.failed() > 0 {
        return Err(format!("warm-up requests failed: {warm:?}"));
    }
    Ok(served)
}

/// Counts one answer and, when traced, prices it.
fn finish(result: Result<ScoreOutcome, ServeError>, expected: usize, id: u64, log: &mut ClientLog) {
    let counts = &mut log.outcomes;
    counts.attempted += 1;
    match result {
        Ok(outcome) => {
            if outcome.request.executors != expected {
                counts.mismatches += 1;
            } else if outcome.missed_deadline {
                counts.deadline_misses += 1;
            } else {
                counts.ok += 1;
            }
            if log.tracer.enabled() {
                log.tracer
                    .add_measured("serve.runtime_latency", outcome.latency.as_nanos() as u64);
                log.tracer.span("serve.price", id, |_| outcome.quote());
            }
        }
        Err(ServeError::Saturated) => counts.dropped += 1,
        Err(ServeError::Shed) => counts.shed += 1,
        Err(_) => counts.errors += 1,
    }
}

/// The blocking client: one request at a time, waiting for each answer.
fn blocking_client(
    s: &Served,
    stream: &[Request],
    first_id: u64,
    log: &mut ClientLog,
    slice: &AtomicUsize,
    stop: &AtomicBool,
    limit: u64,
) {
    let mut sent = 0u64;
    while sent < limit && !stop.load(Ordering::Acquire) {
        let r = stream[sent as usize % stream.len()];
        let id = first_id + sent;
        sent += 1;
        let start = Instant::now();
        let result = log.tracer.span("serve.request", id, |t| {
            let request = t.span("core.featurize", id, |_| {
                ScoreRequest::from_plan(&s.plans[r.plan as usize]).with_level(r.level)
            });
            t.span("serve.submit", id, |_| s.runtime.submit(request))
        });
        let latency = start.elapsed();
        finish(result, s.expected[r.plan as usize], id, log);
        log.record(latency, slice);
    }
}

/// Runs every blocking client until `limit` requests each, or — with
/// `timed` — for that many seconds while the main thread marks the slices.
fn run_clients(
    s: &Served,
    logs: &mut [ClientLog],
    timed: Option<f64>,
    limit: u64,
) -> Option<phase::Slices> {
    let slice = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (slice, stop) = (&slice, &stop);
    std::thread::scope(|scope| {
        for (client, log) in logs.iter_mut().enumerate() {
            let stream = &s.streams[client];
            let first_id = (client as u64) << 40;
            scope.spawn(move || blocking_client(s, stream, first_id, log, slice, stop, limit));
        }
        timed.map(|seconds| phase::drive(seconds, slice, stop))
    })
}

fn total_outcomes(logs: &[ClientLog]) -> Outcomes {
    let mut total = Outcomes::default();
    for log in logs {
        total.add(&log.outcomes);
    }
    total
}

/// One measured phase: end-to-end figures, outcomes, runtime counters.
struct Phase {
    stats: PhaseStats,
    outcomes: Outcomes,
    goodput: f64,
    counters: RuntimeStats,
}

fn measure(s: &Served, logs: &mut [ClientLog], seconds: f64, traced: bool) -> Phase {
    for log in logs.iter_mut() {
        log.reset(Tracer::new(traced, Instant::now(), SPAN_CAPACITY));
    }
    let before = s.runtime.stats();
    let slices = run_clients(s, logs, Some(seconds), u64::MAX).expect("timed phase");
    let counters = s.runtime.stats().delta_since(&before);
    let outcomes = total_outcomes(logs);
    Phase {
        stats: phase::summarize(logs, &slices),
        goodput: outcomes.ok as f64 / outcomes.attempted.max(1) as f64,
        outcomes,
        counters,
    }
}

/// The queued probe: one client on the calling thread keeps
/// `PIPELINE_DEPTH` detached tickets in flight, redeeming the oldest before
/// submitting the next, for `QUEUED_PROBE_REQUESTS` requests, traced. Every
/// ticket is redeemed before it returns. Returns the probe's log and the
/// runtime counters it moved.
fn queued_probe(s: &Served, origin: Instant) -> (ClientLog, RuntimeStats) {
    let mut log = ClientLog::new(0, 0, Tracer::new(true, origin, SPAN_CAPACITY));
    let before = s.runtime.stats();
    let stream = &s.streams[0];
    let first_id = 2u64 << 40;
    let mut window = VecDeque::with_capacity(PIPELINE_DEPTH);
    let mut sent = 0u64;
    loop {
        let stopping = sent >= QUEUED_PROBE_REQUESTS;
        if window.len() == PIPELINE_DEPTH || (stopping && !window.is_empty()) {
            let (plan, id, ticket): (usize, u64, ae_serve::ScoreTicket) =
                window.pop_front().expect("window is not empty");
            let result = log.tracer.span("serve.wait", id, |_| ticket.wait());
            finish(result, s.expected[plan], id, &mut log);
            continue;
        }
        if stopping {
            break;
        }
        let r = stream[sent as usize % stream.len()];
        let id = first_id + sent;
        sent += 1;
        let request = log.tracer.span("core.featurize", id, |_| {
            ScoreRequest::from_plan(&s.plans[r.plan as usize]).with_level(r.level)
        });
        match log.tracer.span("serve.submit_detached", id, |_| {
            s.runtime.submit_detached(request)
        }) {
            Ok(ticket) => window.push_back((r.plan as usize, id, ticket)),
            Err(e) => finish(Err(e), s.expected[r.plan as usize], id, &mut log),
        }
    }
    let counters = s.runtime.stats().delta_since(&before);
    (log, counters)
}

/// Replays a prefix of the request sequence through the public functions
/// the runtime calls internally, checking every answer.
fn replay(s: &Served, tracer: &mut Tracer, failures: &mut Vec<String>) {
    let counts = s.config.candidate_counts();
    let objective = s.config.objective;
    let mut matrix = FeatureMatrix::with_capacity(full_feature_names().len(), REPLAY_BATCH);
    let mut batch_plans = Vec::with_capacity(REPLAY_BATCH);
    let mut wrong = 0usize;
    let base = 3u64 << 40;
    for (i, r) in s.streams[0].iter().take(REPLAY_REQUESTS).enumerate() {
        let id = base + i as u64;
        let plan = r.plan as usize;
        let features = featurize_plan(&s.plans[plan]);
        let one = tracer.span("core.score_one", id, |_| {
            scoring::score_features(&s.model, &features, objective, &counts)
        });
        let ppm = tracer.span("ml.predict_row", id, |_| {
            s.model.predict_ppm_from_full_features(&features)
        });
        let selected = tracer.span("ppm.select", id, |_| {
            ppm.as_ref()
                .ok()
                .and_then(|ppm| objective.select(&ppm.predict_curve(&counts)))
        });
        let expected = s.expected[plan];
        if one.map(|o| o.request.executors).ok() != Some(expected) || selected != Some(expected) {
            wrong += 1;
        }
        matrix
            .push_row(&features)
            .expect("featurize_plan emits fixed-width rows");
        batch_plans.push(plan);
        if batch_plans.len() == REPLAY_BATCH {
            let batch = tracer.span("core.score_batch", id, |_| {
                scoring::score_feature_batch(&s.model, &matrix, objective, &counts)
            });
            let ppms = tracer.span("ml.predict_batch", id, |_| {
                s.model.predict_ppm_batch(&matrix)
            });
            match batch {
                Ok(answers) => {
                    wrong += answers
                        .iter()
                        .zip(&batch_plans)
                        .filter(|(a, &p)| a.executors != s.expected[p])
                        .count()
                }
                Err(_) => wrong += REPLAY_BATCH,
            }
            if ppms.map(|p| p.len()).ok() != Some(REPLAY_BATCH) {
                wrong += REPLAY_BATCH;
            }
            matrix.clear();
            batch_plans.clear();
        }
    }
    if wrong > 0 {
        failures.push(format!(
            "{wrong} replayed answers differ from the reference table"
        ));
    }
}

/// One timed set-up.
struct SetupRun {
    /// Host steal seconds during the set-up.
    stolen: f64,
    setup_s: f64,
    train_s: f64,
    build_times: Vec<f64>,
}

/// Repeated set-ups and their timings. Some run before the measured phase
/// and the rest after it, so the medians sample the host at both ends of
/// the run rather than at one moment.
struct SetupClock<'a> {
    args: &'a Args,
    tracer: Tracer,
    runs: Vec<SetupRun>,
    first_table: Option<Vec<usize>>,
    failures: Vec<String>,
}

impl SetupClock<'_> {
    /// One timed set-up; exits the process when set-up fails.
    fn build(&mut self) -> Served {
        let steal = steal_secs();
        let start = Instant::now();
        let built = setup(self.args, &mut self.tracer).unwrap_or_else(|e| {
            eprintln!("set-up failed: {e}");
            std::process::exit(1)
        });
        self.runs.push(SetupRun {
            stolen: steal_secs() - steal,
            setup_s: secs_since(start),
            train_s: built.train_s,
            build_times: built.build_times.clone(),
        });
        match &self.first_table {
            None => self.first_table = Some(built.expected.clone()),
            Some(table) if *table != built.expected => self
                .failures
                .push("reference table differs between set-ups".into()),
            Some(_) => {}
        }
        built
    }

    /// Medians of set-up, training and table-build time over the set-ups
    /// in which the host stole the least CPU.
    fn medians(&self) -> (f64, f64, f64) {
        let stolen: Vec<f64> = self.runs.iter().map(|r| r.stolen).collect();
        let kept: Vec<&SetupRun> = phase::least_stolen(&stolen)
            .into_iter()
            .map(|i| &self.runs[i])
            .collect();
        let setup: Vec<f64> = kept.iter().map(|r| r.setup_s).collect();
        let train: Vec<f64> = kept.iter().map(|r| r.train_s).collect();
        let builds: Vec<f64> = kept
            .iter()
            .flat_map(|r| r.build_times.iter().copied())
            .collect();
        (median(&setup), median(&train), median(&builds))
    }
}

pub fn run(args: &Args) -> Report {
    // Sample buffers first, so their pages are resident before set-up. The
    // untraced phase has the most slices; a traced half has no more.
    let (_, slices) = phase::slicing(args.seconds);
    let origin = Instant::now();
    let mut logs: Vec<ClientLog> = (0..CLIENTS)
        .map(|_| ClientLog::new(slices, SAMPLES_PER_SLICE, Tracer::new(false, origin, 0)))
        .collect();
    let mut report = Report::default();

    let mut clock = SetupClock {
        args,
        tracer: Tracer::new(args.trace, origin, 256),
        runs: Vec::new(),
        first_table: None,
        failures: Vec::new(),
    };
    let mut s = clock.build();
    for _ in 1..SETUPS_BEFORE {
        drop(s);
        s = clock.build();
    }

    let half = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = measure(&s, &mut logs, half, false);
    report.outcomes = plain.outcomes;
    let mut sample_share = plain.stats.sample_share;
    let mut tracer = Tracer::new(true, origin, REPLAY_REQUESTS * 8);
    let mut traced = None;
    if args.trace {
        let phase = measure(&s, &mut logs, half, true);
        sample_share = sample_share.min(phase.stats.sample_share);
        report.outcomes.add(&phase.outcomes);
        replay(&s, &mut tracer, &mut report.check_failures);
        let (probe, probe_counters) = queued_probe(&s, origin);
        report.outcomes.add(&probe.outcomes);
        traced = Some((phase, probe, probe_counters));
    }
    report.latency_sample_share = Some(sample_share);
    let train_err = s.train_err;
    s.runtime.shutdown();
    drop(s);
    for _ in 0..SETUPS_AFTER {
        drop(clock.build());
    }
    report.check_failures.append(&mut clock.failures);

    let m = &mut report.metrics;
    let Some((traced, queued, q)) = traced else {
        m.insert("qps", plain.stats.qps);
        m.insert("p50_us", plain.stats.p50_us);
        m.insert("p90_us", plain.stats.p90_us);
        m.insert("cpu_us_per_req", plain.stats.cpu_us_per_req);
        m.insert("goodput", plain.goodput);
        let (setup_s, train_s, whatif_s) = clock.medians();
        m.insert("train_s", train_s);
        m.insert("whatif_s", whatif_s);
        m.insert("cv_err", train_err);
        // No what-if simulation runs on the serving workload: these three
        // quality ratios are not measured here and are reported as 1.
        m.insert("transfer_err", 1.0);
        m.insert("auc_saving_da", 1.0);
        m.insert("speedup_da", 1.0);
        m.insert("setup_s", setup_s);
        m.insert("peak_rss_mb", peak_rss_mib());
        return report;
    };

    let mut lines = String::new();
    clock.tracer.to_json_lines(0, &mut lines);
    tracer.to_json_lines(1, &mut lines);
    for (client, log) in logs.iter().enumerate() {
        log.tracer.to_json_lines(2 + client, &mut lines);
        tracer.merge_totals(&log.tracer);
    }
    tracer.merge_totals(&clock.tracer);
    queued.tracer.to_json_lines(2 + CLIENTS, &mut lines);
    crate::write_spans(args, &lines);

    let c = &traced.counters;
    let queued_us = |name: &str| queued.tracer.totals(name).mean_us();
    let overhead = |a: f64, b: f64| if a == 0.0 { 0.0 } else { b / a - 1.0 };
    let us = |name: &str| tracer.totals(name).mean_us();
    m.insert("serve.submit_us", us("serve.submit"));
    m.insert(
        "serve.inline_frac",
        c.inline_scored as f64 / c.completed.max(1) as f64,
    );
    m.insert("serve.runtime_latency_us", us("serve.runtime_latency"));
    m.insert("serve.batches", c.batches as f64);
    m.insert("serve.mean_batch", c.mean_batch_size());
    m.insert(
        "serve.submit_detached_us",
        queued_us("serve.submit_detached"),
    );
    m.insert("serve.wait_us", queued_us("serve.wait"));
    m.insert(
        "serve.queued.runtime_latency_us",
        queued_us("serve.runtime_latency"),
    );
    m.insert("serve.queued.batches", q.batches as f64);
    m.insert("serve.queued.mean_batch", q.mean_batch_size());
    let both = |f: fn(&RuntimeStats) -> u64| f(c) + f(&q);
    m.insert("serve.dropped", both(|x| x.dropped) as f64);
    m.insert("serve.shed", both(|x| x.shed()) as f64);
    m.insert("serve.errors", both(|x| x.errors) as f64);
    m.insert("serve.price_us", us("serve.price"));
    for (level, name) in [
        (
            ServiceLevel::Interactive,
            "serve.deadline_misses.interactive",
        ),
        (ServiceLevel::Standard, "serve.deadline_misses.standard"),
        (
            ServiceLevel::BestEffort,
            "serve.deadline_misses.best_effort",
        ),
    ] {
        m.insert(name, c.level(level).deadline_misses as f64);
    }
    m.insert("core.featurize_us", us("core.featurize"));
    m.insert("core.score_one_us", us("core.score_one"));
    m.insert(
        "core.score_batch_row_us",
        us("core.score_batch") / REPLAY_BATCH as f64,
    );
    m.insert("ml.predict_row_us", us("ml.predict_row"));
    m.insert(
        "ml.predict_batch_row_us",
        us("ml.predict_batch") / REPLAY_BATCH as f64,
    );
    m.insert("ppm.select_us", us("ppm.select"));
    let fit = tracer.totals("ml.forest_fit");
    m.insert("ml.forest_fit_ms", fit.mean_us() / 1e3);
    m.insert("ml.forest_fits", fit.count as f64);
    m.insert("eval.collect_s", us("eval.collect") / 1e6);
    m.insert("workload.suite_ms", us("workload.suite") / 1e3);
    let p = (&plain.stats, &traced.stats);
    m.insert("trace.overhead.qps", overhead(p.0.qps, p.1.qps));
    m.insert("trace.overhead.p50_us", overhead(p.0.p50_us, p.1.p50_us));
    m.insert("trace.overhead.p90_us", overhead(p.0.p90_us, p.1.p90_us));
    m.insert(
        "trace.overhead.cpu_us_per_req",
        overhead(p.0.cpu_us_per_req, p.1.cpu_us_per_req),
    );
    m.insert(
        "trace.overhead.goodput",
        overhead(plain.goodput, traced.goodput),
    );
    m.insert("trace.spans", tracer.span_count() as f64);
    report
}
