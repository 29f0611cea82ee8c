//! Fault-tolerance benchmark: deterministic fault injection swept over
//! preemption rates, plus the degraded-mode serving drill.
//!
//! Four phases:
//!
//! * **zero-fault pin** — one reference query simulated with a plain
//!   `RunConfig` and with an explicit `FaultPlan::none()`; the results
//!   must be bit-identical (the fault layer is provably inert when
//!   inactive).
//! * **preemption sweep** — each scoring query is sized by the trained
//!   model twice (risk-unaware, and with the `PreemptionRisk` adjustment
//!   priced at the swept rate), then simulated under spot preemptions at
//!   rates {0, 0.05, 0.1, 0.2}/executor-minute. Reported per rate:
//!   completion rate (queries that finish via retry), retry overhead
//!   (faulty vs clean elapsed at the same seed), fault accounting (tasks
//!   lost, work lost, recovery time, replacements), and **E(n) accuracy**
//!   — how much closer the risk-adjusted expected runtime tracks the
//!   observed elapsed-under-faults than the fault-free prediction.
//! * **risk-aware selection** — where the adjusted curve picks a smaller
//!   `n`, both choices are simulated under faults and their mean elapsed
//!   compared (does pricing the exposure pay?).
//! * **degraded-mode drill** — a serving runtime with a circuit breaker
//!   and a missing model: every request must still be answered (by the
//!   heuristic fallback, marked degraded), the breaker must trip; after
//!   the model is registered and the cooldown elapses, the half-open
//!   probe must restore non-degraded service.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ae-bench --bin bench_faults                # full run
//! ```
//!
//! The driver has no flags of its own. `--smoke` shrinks the grid; its gate
//! fails unless: the zero-fault pin holds bit-for-bit, at a moderate
//! preemption rate (0.1/executor-min) at least 99% of runs complete via
//! retry, and the breaker demonstrably trips to the fallback and recovers.

use std::sync::Arc;
use std::time::Duration;

use ae_bench::harness;
use ae_engine::allocation::AllocationPolicy;
use ae_engine::scheduler::{RunConfig, SimScratch, Simulator};
use ae_engine::FaultPlan;
use ae_ml::json::Value;
use ae_ppm::PreemptionRisk;
use ae_serve::{BreakerConfig, RuntimeConfig, ScoreRequest, ScoringRuntime};
use ae_workload::{FaultSeeds, QueryInstance, ScaleFactor, WorkloadGenerator};
use autoexecutor::features::featurize_plan;
use autoexecutor::prelude::*;
use autoexecutor::scoring::{score_features, score_features_with_risk};
use autoexecutor::ModelRegistry;

const COMMENT: &str = "Fault-tolerance benchmark: spot preemptions injected at swept rates (per \
    executor-minute) into the deterministic scheduler; lost tasks re-enter the ready queue \
    (retry), replacements re-acquire through the allocation lag. 'completion_rate' counts runs \
    finishing via retry; 'retry_overhead' is faulty/clean elapsed at matched noise seeds; \
    'e_err_*' is the mean |prediction-observed|/observed of the fault-free vs risk-adjusted \
    expected runtime; 'risk_selection_ratio' < 1 means selecting on the risk-adjusted curve ran \
    faster under faults. The breaker drill serves against a missing model: requests must \
    complete degraded via the heuristic fallback, then recover after registration. Regenerate \
    with: cargo run --release -p ae-bench --bin bench_faults -- --json BENCH_faults.json";

/// Nominal per-revocation recovery cost (seconds) used to price the risk
/// adjustment before any faulty run is observed: replacement
/// re-acquisition through the allocation lag plus expected re-execution
/// of lost work. A round a-priori figure in the ballpark of the grace
/// window plus executor startup plus half a mean task — the sweep then
/// measures how well the resulting E(n) tracks reality.
const RECOVERY_ESTIMATE_SECS: f64 = 5.0;

/// Grace window between revocation notice and executor death (the spot
/// two-minute warning, scaled to simulation seconds).
const GRACE_SECS: f64 = 2.0;

struct Args {
    smoke: bool,
    json: Option<String>,
}

/// One (rate, query) cell of the sweep.
struct Cell {
    query: String,
    /// Risk-unaware model selection.
    n_plain: usize,
    /// Selection on the risk-adjusted curve at this rate.
    n_risk: usize,
    /// Fault-free predicted elapsed at `n_plain`.
    pred_plain: f64,
    /// Risk-adjusted expected elapsed at `n_plain`.
    pred_risk: f64,
    /// Mean elapsed of *completed* faulty runs at `n_plain`.
    mean_faulty: f64,
    /// Mean elapsed of completed faulty runs at `n_risk`.
    mean_faulty_risk: f64,
    /// Mean clean (fault-free) elapsed at `n_plain`, same noise seeds.
    mean_clean: f64,
    completed: usize,
    runs: usize,
    tasks_lost: u64,
    replacements: u64,
    work_lost_secs: f64,
    recovery_secs: f64,
}

/// Per-rate aggregates over the suite.
struct RateSummary {
    rate: f64,
    completion_rate: f64,
    /// Mean of faulty/clean elapsed ratios (completed runs only).
    retry_overhead: f64,
    /// Mean absolute relative error of the fault-free prediction against
    /// observed elapsed under faults.
    e_err_plain: f64,
    /// Same for the risk-adjusted prediction.
    e_err_risk: f64,
    /// Mean elapsed at the risk-aware selection over mean elapsed at the
    /// plain selection (< 1 means pricing the exposure paid off).
    risk_selection_ratio: f64,
    mean_tasks_lost: f64,
    mean_replacements: f64,
    mean_work_lost_secs: f64,
    mean_recovery_secs: f64,
    cells: Vec<Cell>,
}

impl Cell {
    fn report(&self) -> Value {
        Value::object([
            ("query", self.query.as_str().into()),
            ("n_plain", self.n_plain.into()),
            ("n_risk", self.n_risk.into()),
            ("pred_plain_s", self.pred_plain.into()),
            ("pred_risk_s", self.pred_risk.into()),
            ("mean_faulty_s", self.mean_faulty.into()),
            ("mean_clean_s", self.mean_clean.into()),
            ("completed", self.completed.into()),
            ("runs", self.runs.into()),
            ("tasks_lost", self.tasks_lost.into()),
            ("work_lost_s", self.work_lost_secs.into()),
            ("recovery_s", self.recovery_secs.into()),
        ])
    }
}

impl RateSummary {
    fn report(&self) -> Value {
        Value::object([
            ("rate_per_executor_min", self.rate.into()),
            ("completion_rate", self.completion_rate.into()),
            ("retry_overhead", self.retry_overhead.into()),
            ("e_err_plain", self.e_err_plain.into()),
            ("e_err_risk", self.e_err_risk.into()),
            ("risk_selection_ratio", self.risk_selection_ratio.into()),
            ("mean_tasks_lost", self.mean_tasks_lost.into()),
            ("mean_replacements", self.mean_replacements.into()),
            ("mean_work_lost_secs", self.mean_work_lost_secs.into()),
            ("mean_recovery_secs", self.mean_recovery_secs.into()),
            ("queries", self.cells.iter().map(Cell::report).collect()),
        ])
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Trains the parameter model on a fault-free workload slice.
fn trained_model(
    config: &AutoExecutorConfig,
    generator: &WorkloadGenerator,
) -> autoexecutor::training::ParameterModel {
    let training: Vec<QueryInstance> = ["q1", "q5", "q12", "q23b", "q69", "q77", "q88", "q96"]
        .iter()
        .map(|n| generator.instance(n))
        .collect();
    let (_, model) = train_from_workload(&training, config).expect("training");
    model
}

/// The zero-fault pin: a plain run and an explicit `FaultPlan::none()`
/// run must agree bit-for-bit. Returns true when the pin holds.
fn zero_fault_pin(config: &AutoExecutorConfig, query: &QueryInstance) -> bool {
    let simulator =
        Simulator::new(config.cluster, AllocationPolicy::static_allocation(8)).expect("simulator");
    let plain_cfg = RunConfig {
        seed: 7,
        ..RunConfig::default()
    };
    let gated_cfg = plain_cfg.with_faults(FaultPlan::none());
    let plain = simulator.run(&query.name, &query.dag, &plain_cfg);
    let gated = simulator.run(&query.name, &query.dag, &gated_cfg);
    let identical = plain.elapsed_secs.to_bits() == gated.elapsed_secs.to_bits()
        && plain.auc_executor_secs.to_bits() == gated.auc_executor_secs.to_bits()
        && plain.total_task_secs.to_bits() == gated.total_task_secs.to_bits()
        && plain.max_executors == gated.max_executors
        && gated.is_completed()
        && gated.faults.is_clean();
    println!(
        "zero-fault pin ({}): elapsed {:.6} s, auc {:.3} exec-s, bit-identical: {}",
        query.name, plain.elapsed_secs, plain.auc_executor_secs, identical
    );
    identical
}

/// Simulates `reps` faulty runs (plus same-seed clean runs) of one query
/// at one rate and fills in a [`Cell`].
#[allow(clippy::too_many_arguments)]
fn run_cell(
    config: &AutoExecutorConfig,
    model: &autoexecutor::training::ParameterModel,
    query: &QueryInstance,
    query_index: usize,
    rate: f64,
    reps: usize,
    seeds: &FaultSeeds,
    scratch: &mut SimScratch,
) -> Cell {
    let counts = config.candidate_counts();
    let features = featurize_plan(&query.plan);
    let plain = score_features(model, &features, config.objective, &counts)
        .expect("scoring")
        .request;
    let risk = PreemptionRisk::new(rate, RECOVERY_ESTIMATE_SECS);
    let risky = score_features_with_risk(model, &features, config.objective, &counts, Some(&risk))
        .expect("risk scoring")
        .request;
    let n_plain = plain.executors;
    let n_risk = risky.executors;
    let pred_plain = plain
        .predicted_curve
        .iter()
        .find(|&&(n, _)| n == n_plain)
        .map_or(f64::NAN, |&(_, t)| t);
    let pred_risk = risk.adjust(n_plain, pred_plain);

    let mut cell = Cell {
        query: query.name.clone(),
        n_plain,
        n_risk,
        pred_plain,
        pred_risk,
        mean_faulty: f64::NAN,
        mean_faulty_risk: f64::NAN,
        mean_clean: f64::NAN,
        completed: 0,
        runs: 0,
        tasks_lost: 0,
        replacements: 0,
        work_lost_secs: 0.0,
        recovery_secs: 0.0,
    };
    let mut faulty = Vec::new();
    let mut faulty_risk = Vec::new();
    let mut clean = Vec::new();
    for rep in 0..reps {
        let fault_seed = seeds.seed_for(query_index, rep);
        let noise_seed = 0xC0FFEE_u64
            .wrapping_add(query_index as u64)
            .wrapping_mul(31)
            .wrapping_add(rep as u64);
        let plan = FaultPlan::preemptions(rate, GRACE_SECS).with_seed(fault_seed);
        let faulty_cfg = RunConfig {
            seed: noise_seed,
            ..RunConfig::default()
        }
        .with_faults(plan);
        let clean_cfg = RunConfig {
            seed: noise_seed,
            ..RunConfig::default()
        };

        let sim_plain =
            Simulator::new(config.cluster, AllocationPolicy::static_allocation(n_plain))
                .expect("simulator");
        let fault_run = sim_plain.run_with_scratch(&query.name, &query.dag, &faulty_cfg, scratch);
        cell.runs += 1;
        cell.tasks_lost += fault_run.faults.tasks_lost as u64;
        cell.replacements += fault_run.faults.replacements_requested as u64;
        cell.work_lost_secs += fault_run.faults.work_lost_secs;
        cell.recovery_secs += fault_run.faults.recovery_secs;
        if fault_run.is_completed() {
            cell.completed += 1;
            faulty.push(fault_run.elapsed_secs);
        }
        let clean_run = sim_plain.run_with_scratch(&query.name, &query.dag, &clean_cfg, scratch);
        clean.push(clean_run.elapsed_secs);

        if n_risk == n_plain {
            if fault_run.is_completed() {
                faulty_risk.push(fault_run.elapsed_secs);
            }
        } else {
            let sim_risk =
                Simulator::new(config.cluster, AllocationPolicy::static_allocation(n_risk))
                    .expect("simulator");
            let risk_run = sim_risk.run_with_scratch(&query.name, &query.dag, &faulty_cfg, scratch);
            if risk_run.is_completed() {
                faulty_risk.push(risk_run.elapsed_secs);
            }
        }
    }
    cell.mean_faulty = mean(&faulty);
    cell.mean_faulty_risk = mean(&faulty_risk);
    cell.mean_clean = mean(&clean);
    cell
}

fn sweep_rate(
    config: &AutoExecutorConfig,
    model: &autoexecutor::training::ParameterModel,
    queries: &[QueryInstance],
    rate: f64,
    reps: usize,
) -> RateSummary {
    let seeds = FaultSeeds::new(0xFA17 ^ (rate * 1e4) as u64);
    let mut scratch = SimScratch::new();
    let cells: Vec<Cell> = queries
        .iter()
        .enumerate()
        .map(|(qi, q)| run_cell(config, model, q, qi, rate, reps, &seeds, &mut scratch))
        .collect();

    let total_runs: usize = cells.iter().map(|c| c.runs).sum();
    let total_completed: usize = cells.iter().map(|c| c.completed).sum();
    let overheads: Vec<f64> = cells
        .iter()
        .filter(|c| c.mean_faulty.is_finite() && c.mean_clean.is_finite() && c.mean_clean > 0.0)
        .map(|c| c.mean_faulty / c.mean_clean)
        .collect();
    let e_err = |pred: fn(&Cell) -> f64| {
        let errs: Vec<f64> = cells
            .iter()
            .filter(|c| c.mean_faulty.is_finite() && c.mean_faulty > 0.0)
            .map(|c| ((pred(c) - c.mean_faulty) / c.mean_faulty).abs())
            .collect();
        mean(&errs)
    };
    let selection_ratios: Vec<f64> = cells
        .iter()
        .filter(|c| c.mean_faulty.is_finite() && c.mean_faulty_risk.is_finite())
        .map(|c| c.mean_faulty_risk / c.mean_faulty)
        .collect();

    RateSummary {
        rate,
        completion_rate: if total_runs == 0 {
            f64::NAN
        } else {
            total_completed as f64 / total_runs as f64
        },
        retry_overhead: mean(&overheads),
        e_err_plain: e_err(|c| c.pred_plain),
        e_err_risk: e_err(|c| c.pred_risk),
        risk_selection_ratio: mean(&selection_ratios),
        mean_tasks_lost: cells.iter().map(|c| c.tasks_lost as f64).sum::<f64>()
            / total_runs.max(1) as f64,
        mean_replacements: cells.iter().map(|c| c.replacements as f64).sum::<f64>()
            / total_runs.max(1) as f64,
        mean_work_lost_secs: cells.iter().map(|c| c.work_lost_secs).sum::<f64>()
            / total_runs.max(1) as f64,
        mean_recovery_secs: cells.iter().map(|c| c.recovery_secs).sum::<f64>()
            / total_runs.max(1) as f64,
        cells,
    }
}

struct BreakerDrill {
    requests_during_outage: usize,
    degraded_during_outage: u64,
    trips: u64,
    recovered_non_degraded: bool,
}

/// The degraded-mode drill: breaker + missing model, then recovery by
/// registering `model`.
fn breaker_drill(
    config: &AutoExecutorConfig,
    model: &autoexecutor::training::ParameterModel,
    queries: &[QueryInstance],
) -> BreakerDrill {
    let registry = Arc::new(ModelRegistry::in_memory());
    let runtime = ScoringRuntime::new(
        Arc::clone(&registry),
        "ppm",
        RuntimeConfig::deterministic(config).with_breaker(
            BreakerConfig::default()
                .with_failure_threshold(2)
                .with_cooldown(Duration::from_millis(10)),
        ),
    );
    let mut degraded_ok = 0usize;
    for query in queries {
        let outcome = runtime
            .submit(ScoreRequest::from_plan(&query.plan))
            .expect("degraded mode must answer");
        if outcome.degraded {
            degraded_ok += 1;
        }
    }
    let outage = runtime.stats();

    // Heal: register the model and wait out the cooldown.
    registry
        .register("ppm", model.to_portable("ppm").expect("portable"))
        .expect("register");
    std::thread::sleep(Duration::from_millis(25));
    let recovered = queries
        .iter()
        .map(|q| {
            runtime
                .submit(ScoreRequest::from_plan(&q.plan))
                .expect("recovered scoring")
        })
        .all(|outcome| !outcome.degraded);

    BreakerDrill {
        requests_during_outage: queries.len(),
        degraded_during_outage: outage.degraded.min(degraded_ok as u64),
        trips: outage.breaker_trips,
        recovered_non_degraded: recovered,
    }
}

fn main() {
    let args = harness::args(&[], |flags| {
        Ok(Args {
            smoke: flags.smoke(),
            json: flags.json(),
        })
    });
    let generator = WorkloadGenerator::new(ScaleFactor::SF10);
    let mut config = AutoExecutorConfig::default();
    config.forest.n_estimators = if args.smoke { 8 } else { 16 };
    config.training_run.noise_cv = 0.0;

    let scoring_names: &[&str] = if args.smoke {
        &["q3", "q19", "q55"]
    } else {
        &["q3", "q7", "q19", "q27", "q42", "q55", "q68", "q94"]
    };
    let queries: Vec<QueryInstance> = scoring_names
        .iter()
        .map(|n| generator.instance(n))
        .collect();
    let rates: &[f64] = if args.smoke {
        &[0.0, 0.1]
    } else {
        &[0.0, 0.05, 0.1, 0.2]
    };
    let reps = if args.smoke { 2 } else { 3 };

    println!("== bench_faults: training the parameter model (fault-free) ==");
    let model = trained_model(&config, &generator);

    println!("\n== phase 1: zero-fault pin ==");
    let pin_ok = zero_fault_pin(&config, &queries[0]);

    println!(
        "\n== phase 2+3: preemption sweep ({} rates x {} queries x {} reps) ==",
        rates.len(),
        queries.len(),
        reps
    );
    println!(
        "{:>6} {:>10} {:>9} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "rate", "complete", "overhead", "e_err", "e_err_rsk", "sel_ratio", "lost/run", "recov_s"
    );
    let summaries: Vec<RateSummary> = rates
        .iter()
        .map(|&rate| {
            let s = sweep_rate(&config, &model, &queries, rate, reps);
            println!(
                "{:>6.2} {:>9.1}% {:>9.3} {:>10.3} {:>10.3} {:>9.3} {:>9.2} {:>9.2}",
                s.rate,
                s.completion_rate * 100.0,
                s.retry_overhead,
                s.e_err_plain,
                s.e_err_risk,
                s.risk_selection_ratio,
                s.mean_tasks_lost,
                s.mean_recovery_secs
            );
            s
        })
        .collect();

    println!("\n== phase 4: degraded-mode drill (breaker + missing model) ==");
    let drill = breaker_drill(&config, &model, &queries);
    println!(
        "outage: {}/{} answered degraded, {} breaker trip(s); recovered non-degraded: {}",
        drill.degraded_during_outage,
        drill.requests_during_outage,
        drill.trips,
        drill.recovered_non_degraded
    );

    harness::write_report(
        args.json.as_deref(),
        COMMENT,
        [
            ("zero_fault_pin_bit_identical", pin_ok.into()),
            ("grace_secs", GRACE_SECS.into()),
            ("recovery_estimate_secs", RECOVERY_ESTIMATE_SECS.into()),
            ("repeats_per_query", reps.into()),
            ("rates", summaries.iter().map(RateSummary::report).collect()),
            (
                "breaker_drill",
                Value::object([
                    (
                        "requests_during_outage",
                        drill.requests_during_outage.into(),
                    ),
                    (
                        "degraded_during_outage",
                        drill.degraded_during_outage.into(),
                    ),
                    ("breaker_trips", drill.trips.into()),
                    (
                        "recovered_non_degraded",
                        drill.recovered_non_degraded.into(),
                    ),
                ]),
            ),
        ],
    );

    if args.smoke {
        let mut failures = Vec::new();
        if !pin_ok {
            failures.push("zero-fault runs are not bit-identical".to_string());
        }
        let zero = summaries.iter().find(|s| s.rate == 0.0);
        if let Some(zero) = zero {
            if zero.completion_rate < 1.0 {
                failures.push("fault-free runs must always complete".to_string());
            }
        }
        if let Some(moderate) = summaries.iter().find(|s| s.rate > 0.0 && s.rate <= 0.1) {
            if moderate.completion_rate < 0.99 {
                failures.push(format!(
                    "completion via retry at rate {} is {:.1}%, need >= 99%",
                    moderate.rate,
                    moderate.completion_rate * 100.0
                ));
            }
        } else {
            failures.push("no moderate-rate row in the sweep".to_string());
        }
        if drill.trips == 0 {
            failures.push("the breaker never tripped during the outage".to_string());
        }
        if drill.degraded_during_outage != drill.requests_during_outage as u64 {
            failures.push("not every outage request was served degraded".to_string());
        }
        if !drill.recovered_non_degraded {
            failures.push("the breaker did not recover the model path".to_string());
        }
        harness::gate(
            "faults smoke",
            &failures,
            "zero-fault pin bit-identical, >= 99% completion via retry, breaker trips and recovers",
        );
    }
}
