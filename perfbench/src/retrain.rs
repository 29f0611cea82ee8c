//! The `retrain` workload: the offline pipeline on all three builtin
//! families at SF100 (149 queries), with no serving code. Each pass has two
//! timed phases:
//!
//! * train: `TrainingData::collect`, `ParameterModel::train`, then the
//!   paper's 5-fold × 10-repeat `cross_validate` on tpcds;
//! * what-if: the dense ground-truth sweep (`ActualRuns::collect` at every
//!   count from 1 to 48, 3 repeats), the 3×3 `generalization_matrix`, and
//!   the Figure-13 `compare_allocations` (SA(48) / DA(1,48) / Rule).
//!
//! Cross-validation scores against the sweep's ground truth, so the sweep
//! runs first; the phases are timed separately.

use std::time::Instant;

use ae_engine::scheduler::{RunConfig, Simulator};
use ae_engine::AllocationPolicy;
use ae_ml::matrix::FeatureMatrix;
use ae_ml::portable::PortableModel;
use ae_ppm::fit::{fit_amdahl, fit_power_law};
use ae_sparklens::SparklensAnalyzer;
use ae_workload::{BuiltinFamily, QueryInstance, QueryTemplate, ScaleFactor, WorkloadGenerator};
use autoexecutor::evaluation::{
    cross_validate, generalization_matrix, ratio_averages, ActualRuns, CrossValidationConfig,
    FamilyEvalSet,
};
use autoexecutor::{
    compare_allocations, featurize_plan, full_feature_names, scoring, AutoExecutorConfig,
    ParameterModel, TrainingData,
};

use crate::measure::{
    mean, median, peak_rss_mib, percentile, process_cpu_secs, secs_since, steal_secs,
};
use crate::requests::derived_seed;
use crate::trace::Tracer;
use crate::{Args, Report};

/// Set-ups per round; `setup_s` is the median over all rounds.
const SETUP_ROUND: usize = 5;
/// Repeats per (query, count) cell of the ground-truth sweep.
const SWEEP_REPEATS: usize = 3;
/// Upper end of the executor range (SA(48), DA(1,48), sweep 1..=48).
const MAX_EXECUTORS: usize = 48;
/// Every how-many-th query's collect work the traced run replays.
const REPLAY_STRIDE: usize = 10;

/// The workload's inputs: the suite and the seeds of the simulated runs.
struct Inputs {
    suite: Vec<QueryInstance>,
    config: AutoExecutorConfig,
    sweep_seed: u64,
    alloc_seed: u64,
}

fn setup(args: &Args, tracer: &mut Tracer) -> Inputs {
    // Generated on two threads, like the passes run, so the timing follows
    // the host the way the passes do rather than one core's speed.
    let suite = tracer.span("workload.suite", 0, |_| {
        let work: Vec<(WorkloadGenerator, QueryTemplate)> = BuiltinFamily::ALL
            .iter()
            .flat_map(|&family| {
                let generator = WorkloadGenerator::builtin(family, ScaleFactor::SF100);
                let templates = generator.family().templates();
                templates.into_iter().map(move |t| (generator.clone(), t))
            })
            .collect();
        let make = |part: &[(WorkloadGenerator, QueryTemplate)]| -> Vec<QueryInstance> {
            part.iter().map(|(g, t)| g.instantiate(t)).collect()
        };
        let (front, back) = work.split_at(work.len() / 2);
        std::thread::scope(|scope| {
            let back = scope.spawn(|| make(back));
            let mut suite = make(front);
            suite.extend(back.join().expect("a suite generator thread panicked"));
            suite
        })
    });
    let mut config = AutoExecutorConfig::default();
    config.training_run.seed = derived_seed(args.seed, 1);
    Inputs {
        suite,
        config,
        sweep_seed: derived_seed(args.seed, 2),
        alloc_seed: derived_seed(args.seed, 3),
    }
}

/// Repeated input generation and its timings: one round before the first
/// pass and one after every pass, so `setup_s` samples the host across the
/// whole run rather than at one moment.
struct SetupClock<'a> {
    args: &'a Args,
    tracer: Tracer,
    /// Per set-up: host steal during it and its duration.
    times: Vec<(f64, f64)>,
}

impl SetupClock<'_> {
    fn round(&mut self) -> Inputs {
        let mut inputs = None;
        for _ in 0..SETUP_ROUND {
            drop(inputs.take());
            let steal = steal_secs();
            let start = Instant::now();
            let built = setup(self.args, &mut self.tracer);
            self.times.push((steal_secs() - steal, secs_since(start)));
            inputs = Some(built);
        }
        inputs.expect("a round has at least one set-up")
    }

    /// Median set-up time over the set-ups in which the host stole the
    /// least CPU.
    fn median(&self) -> f64 {
        let stolen: Vec<f64> = self.times.iter().map(|t| t.0).collect();
        let kept: Vec<f64> = crate::phase::least_stolen(&stolen)
            .into_iter()
            .map(|i| self.times[i].1)
            .collect();
        median(&kept)
    }
}

/// The pipeline's quality figures, which must repeat bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quality {
    cv_err: f64,
    transfer_err: f64,
    auc_saving_da: f64,
    speedup_da: f64,
}

/// One pass's timings and answers.
struct Pass {
    train_s: f64,
    whatif_s: f64,
    pass_s: f64,
    cpu_s: f64,
    quality: Quality,
    /// Whether the pass's own output checks held.
    checks_ok: bool,
    /// The collected training data, for the traced replay's check.
    data: TrainingData,
}

fn run_pass(inputs: &Inputs, tracer: &mut Tracer, failures: &mut Vec<String>) -> Option<Pass> {
    let config = &inputs.config;
    let counts = config.training_counts;
    let sweep: Vec<usize> = (1..=MAX_EXECUTORS).collect();
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let failures_before = failures.len();
    let pass_start = Instant::now();
    let cpu_start = process_cpu_secs();

    let started = Instant::now();
    let actuals = tracer.span("eval.actuals", 0, |_| {
        ActualRuns::collect(
            &inputs.suite,
            &sweep,
            SWEEP_REPEATS,
            &config.cluster,
            inputs.sweep_seed,
        )
    });
    let sweep_s = secs_since(started);
    let actuals = match actuals {
        Ok(actuals) => actuals,
        Err(e) => {
            failures.push(fail("ground-truth sweep", &e));
            return None;
        }
    };

    let started = Instant::now();
    let trained = tracer.span("pass.train", 0, |t| {
        let data = t.span("eval.collect", 0, |_| {
            TrainingData::collect(&inputs.suite, config)
        })?;
        let model = t.span("ml.forest_fit", 0, |_| ParameterModel::train(&data, config))?;
        let cv = t.span("eval.cv", 0, |_| {
            cross_validate(
                &data.family_subset(BuiltinFamily::Tpcds.key()),
                &actuals,
                config,
                &CrossValidationConfig::default(),
                &counts,
            )
        })?;
        Ok::<_, autoexecutor::AutoExecutorError>((data, model, cv))
    });
    let train_s = secs_since(started);
    let (data, model, cv) = match trained {
        Ok(out) => out,
        Err(e) => {
            failures.push(fail("train phase", &e));
            return None;
        }
    };

    let sets: Vec<FamilyEvalSet> = BuiltinFamily::ALL
        .iter()
        .map(|family| FamilyEvalSet {
            family: family.key().to_string(),
            suite: inputs
                .suite
                .iter()
                .filter(|q| q.family == family.key())
                .cloned()
                .collect(),
            data: data.family_subset(family.key()),
            actuals: actuals.clone(),
        })
        .collect();
    let started = Instant::now();
    let whatif = tracer.span("pass.whatif", 0, |t| {
        let matrix = t.span("eval.genmatrix", 0, |_| {
            generalization_matrix(&sets, config, &counts)
        })?;
        let candidates = config.candidate_counts();
        let run = RunConfig::default().with_seed(inputs.alloc_seed);
        let comparisons = t.span("eval.alloc", 0, |_| {
            inputs
                .suite
                .iter()
                .map(|q| {
                    let rule = scoring::score_features(
                        &model,
                        &featurize_plan(&q.plan),
                        config.objective,
                        &candidates,
                    )?;
                    compare_allocations(
                        &config.cluster,
                        &q.name,
                        &q.dag,
                        rule.request.executors,
                        MAX_EXECUTORS,
                        &run,
                    )
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok::<_, autoexecutor::AutoExecutorError>((matrix, comparisons))
    });
    let whatif_s = sweep_s + secs_since(started);
    let pass_s = secs_since(pass_start);
    let cpu_s = process_cpu_secs() - cpu_start;
    let (matrix, comparisons) = match whatif {
        Ok(out) => out,
        Err(e) => {
            failures.push(fail("what-if phase", &e));
            return None;
        }
    };

    if !matrix.is_finite() {
        failures.push("generalization matrix has a non-finite cell".into());
    }
    if let Err(e) = check_roundtrip(&model, &data) {
        failures.push(e);
    }
    let test_errors: Vec<f64> = cv.test_error_summary().values().map(|m| m.0).collect();
    let transfer: Vec<f64> = matrix
        .cells
        .iter()
        .filter(|c| c.train_family != c.test_family)
        .map(|c| c.mean_error)
        .collect();
    let averages = ratio_averages(&comparisons);
    let quality = Quality {
        cv_err: mean(&test_errors),
        transfer_err: mean(&transfer),
        auc_saving_da: averages.auc_saving_vs_dynamic,
        speedup_da: averages.speedup_vs_dynamic,
    };
    Some(Pass {
        train_s,
        whatif_s,
        pass_s,
        cpu_s,
        quality,
        checks_ok: failures.len() == failures_before,
        data,
    })
}

/// The portable-model roundtrip must predict identical PPMs for every
/// training row.
fn check_roundtrip(model: &ParameterModel, data: &TrainingData) -> Result<(), String> {
    let bytes = model
        .to_portable("retrain")
        .map_err(|e| e.to_string())
        .and_then(|p| p.to_bytes().map_err(|e| e.to_string()))?;
    let back = PortableModel::from_bytes(&bytes)
        .map_err(|e| e.to_string())
        .and_then(|p| ParameterModel::from_portable(&p).map_err(|e| e.to_string()))?;
    let mut rows = FeatureMatrix::with_capacity(full_feature_names().len(), data.len());
    for example in &data.examples {
        rows.push_row(&example.full_features)
            .map_err(|e| e.to_string())?;
    }
    let bits = |m: &ParameterModel| -> Result<Vec<u64>, String> {
        Ok(m.predict_ppm_batch(&rows)
            .map_err(|e| e.to_string())?
            .iter()
            .flat_map(|ppm| ppm.parameters())
            .map(f64::to_bits)
            .collect())
    };
    if bits(model)? != bits(&back)? {
        return Err("portable-model roundtrip changed predicted PPMs".into());
    }
    Ok(())
}

/// Replays every `REPLAY_STRIDE`-th query's collect work through
/// `Simulator::run`, `SparklensAnalyzer::estimate_from_log` and the PPM
/// fits, checking the result against the pass's training data. Returns the
/// check failures.
fn replay_collect(inputs: &Inputs, data: &TrainingData, tracer: &mut Tracer) -> Vec<String> {
    let config = &inputs.config;
    let mut failures = Vec::new();
    let simulator = match Simulator::new(
        config.cluster,
        AllocationPolicy::static_allocation(config.training_run_executors),
    ) {
        Ok(simulator) => simulator,
        Err(e) => return vec![format!("building the simulator: {e}")],
    };
    let analyzer = SparklensAnalyzer::paper_default();
    for (idx, query) in inputs.suite.iter().enumerate().step_by(REPLAY_STRIDE) {
        let id = idx as u64;
        tracer.span("replay.collect", id, |t| {
            let run = RunConfig {
                seed: config.training_run.seed.wrapping_add(id),
                capture_task_log: true,
                ..config.training_run
            };
            let result = t.span("engine.simulate", id, |_| {
                simulator.run(&query.name, &query.dag, &run)
            });
            let Some(log) = result.task_log.as_ref() else {
                failures.push(format!("{}: no task log captured", query.name));
                return;
            };
            let curve = t.span("sparklens.estimate", id, |_| {
                analyzer.estimate_from_log(log, &config.training_counts)
            });
            let fitted = t.span("ppm.fit", id, |_| {
                fit_power_law(&curve).and_then(|pl| fit_amdahl(&curve).map(|al| (pl, al)))
            });
            let expected = &data.examples[idx];
            let bits = |v: [f64; 5]| v.map(f64::to_bits);
            let want = (expected.power_law, expected.amdahl);
            let same = matches!(&fitted, Ok((pl, al))
                if bits([pl.a, pl.b, pl.m, al.s, al.p])
                    == bits([want.0.a, want.0.b, want.0.m, want.1.s, want.1.p]));
            if !same {
                failures.push(format!("{}: replayed collect differs", query.name));
            }
        });
    }
    failures
}

/// Runs passes until `seconds` have gone by (at least `min_passes`), with
/// a round of set-ups after each.
fn run_passes(
    inputs: &Inputs,
    seconds: f64,
    min_passes: usize,
    tracer: &mut Tracer,
    clock: &mut SetupClock,
    failures: &mut Vec<String>,
    attempted: &mut u64,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || secs_since(start) < seconds {
        *attempted += 1;
        let pass = run_pass(inputs, tracer, failures);
        clock.round();
        match pass {
            Some(pass) => passes.push(pass),
            None => break,
        }
    }
    passes
}

/// End-to-end figures over a set of passes. A pass is this workload's
/// operation, so its rate, latency and CPU fill the per-operation metrics.
fn summarize(passes: &[Pass], attempted: u64) -> [(&'static str, f64); 7] {
    let pick = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    let mut pass_s = pick(|p| p.pass_s);
    pass_s.sort_by(f64::total_cmp);
    let typical = median(&pass_s);
    [
        ("qps", 1.0 / typical),
        ("p50_us", typical * 1e6),
        ("p90_us", percentile(&pass_s, 0.9) * 1e6),
        ("cpu_us_per_req", median(&pick(|p| p.cpu_s)) * 1e6),
        (
            "goodput",
            passes.iter().filter(|p| p.checks_ok).count() as f64 / attempted.max(1) as f64,
        ),
        ("train_s", median(&pick(|p| p.train_s))),
        ("whatif_s", median(&pick(|p| p.whatif_s))),
    ]
}

pub fn run(args: &Args) -> Report {
    let origin = Instant::now();
    let mut report = Report::default();
    let mut clock = SetupClock {
        args,
        tracer: Tracer::new(args.trace, origin, 256),
        times: Vec::new(),
    };
    let inputs = clock.round();

    let failures = &mut report.check_failures;
    let mut attempted = 0;
    let mut untraced = Tracer::new(false, origin, 0);
    let (plain, traced, mut tracer) = if args.trace {
        let half = args.seconds / 2.0;
        let plain = run_passes(
            &inputs,
            half,
            1,
            &mut untraced,
            &mut clock,
            failures,
            &mut attempted,
        );
        let mut tracer = Tracer::new(true, origin, 4096);
        let mut traced_attempts = 0;
        let traced = run_passes(
            &inputs,
            half,
            1,
            &mut tracer,
            &mut clock,
            failures,
            &mut traced_attempts,
        );
        attempted += traced_attempts;
        (plain, traced, tracer)
    } else {
        let plain = run_passes(
            &inputs,
            args.seconds,
            2,
            &mut untraced,
            &mut clock,
            failures,
            &mut attempted,
        );
        (plain, Vec::new(), untraced)
    };
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let checked = all.iter().filter(|p| p.checks_ok).count() as u64;
    report.outcomes.attempted = attempted;
    report.outcomes.ok = checked;
    report.outcomes.mismatches = all.len() as u64 - checked;
    report.outcomes.errors = attempted - all.len() as u64;
    let Some(first) = all.first() else {
        failures.push("no pass completed".into());
        return report;
    };
    if all.iter().any(|p| p.quality != first.quality) {
        failures.push("quality metrics differ between passes of one seed".into());
    }
    let q = first.quality;
    let finite = [q.cv_err, q.transfer_err, q.auc_saving_da, q.speedup_da];
    if !finite.iter().all(|v| v.is_finite() && *v > 0.0) {
        failures.push(format!("quality metrics out of range: {q:?}"));
    }

    let m = &mut report.metrics;
    if !args.trace {
        for (name, value) in summarize(&plain, attempted) {
            m.insert(name, value);
        }
        m.insert("cv_err", q.cv_err);
        m.insert("transfer_err", q.transfer_err);
        m.insert("auc_saving_da", q.auc_saving_da);
        m.insert("speedup_da", q.speedup_da);
        m.insert("setup_s", clock.median());
        m.insert("peak_rss_mb", peak_rss_mib());
        return report;
    }

    let data = &traced.last().unwrap_or(first).data;
    failures.extend(replay_collect(&inputs, data, &mut tracer));
    let mut lines = String::new();
    clock.tracer.to_json_lines(0, &mut lines);
    tracer.to_json_lines(1, &mut lines);
    crate::write_spans(args, &lines);
    tracer.merge_totals(&clock.tracer);

    // Counts are of the spans recorded: calls the benchmark makes itself.
    // Simulations and fits inside a pipeline call (collect, the sweep,
    // cross-validation) are timed by that call's `eval.*` span instead.
    let us = |name: &str| tracer.totals(name).mean_us();
    let fit = tracer.totals("ml.forest_fit");
    m.insert("ml.forest_fit_ms", fit.mean_us() / 1e3);
    m.insert("ml.forest_fits", fit.count as f64);
    let simulate = tracer.totals("engine.simulate");
    m.insert("engine.simulate_us", simulate.mean_us());
    m.insert("engine.simulations", simulate.count as f64);
    m.insert("sparklens.estimate_us", us("sparklens.estimate"));
    m.insert("ppm.fit_us", us("ppm.fit"));
    m.insert("eval.collect_s", us("eval.collect") / 1e6);
    m.insert("eval.cv_s", us("eval.cv") / 1e6);
    m.insert("eval.actuals_s", us("eval.actuals") / 1e6);
    m.insert("eval.genmatrix_s", us("eval.genmatrix") / 1e6);
    m.insert("eval.alloc_s", us("eval.alloc") / 1e6);
    m.insert("workload.suite_ms", us("workload.suite") / 1e3);
    let before = summarize(&plain, plain.len() as u64);
    let after = summarize(&traced, traced.len() as u64);
    for ((name, a), (_, b)) in before.iter().zip(after.iter()) {
        let key = match *name {
            "qps" => "trace.overhead.qps",
            "p50_us" => "trace.overhead.p50_us",
            "p90_us" => "trace.overhead.p90_us",
            "cpu_us_per_req" => "trace.overhead.cpu_us_per_req",
            "goodput" => "trace.overhead.goodput",
            "train_s" => "trace.overhead.train_s",
            _ => "trace.overhead.whatif_s",
        };
        m.insert(key, if *a == 0.0 { 0.0 } else { b / a - 1.0 });
    }
    m.insert("trace.spans", tracer.span_count() as f64);
    report
}
