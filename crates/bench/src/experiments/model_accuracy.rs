//! Model-accuracy experiments: Figures 4, 8, 9, 14, 15, the Section 5.7
//! feature ablation and the Section 5.6 overheads.

use std::collections::BTreeMap;

use ae_engine::{AllocationPolicy, RunConfig, Simulator};
use ae_ml::importance::permutation_importance;
use ae_ml::metrics::total_absolute_error_ratio;
use ae_ppm::model::PpmKind;
use ae_sparklens::SparklensAnalyzer;
use ae_workload::ScaleFactor;
use autoexecutor::evaluation::{
    cross_validate, error_by_count, sparklens_curves, CrossValidationConfig,
};
use autoexecutor::{measure_overheads, FeatureSet, ParameterModel, TrainingData};

use crate::context::ExperimentContext;
use crate::table;

/// Executor counts at which Figure 4 evaluates the PPM fit error.
const FIG4_COUNTS: [usize; 9] = [1, 3, 8, 12, 16, 19, 24, 32, 48];

/// Figure 4: how well AE_PL and AE_AL fit the Sparklens estimates, per
/// executor count, over all SF=100 queries.
pub fn fig4_ppm_fit_errors(ctx: &mut ExperimentContext) {
    table::section(
        "Figure 4",
        "PPM fit error vs Sparklens estimates (all queries, SF=100)",
    );
    let suite = ctx.suite(ScaleFactor::SF100).to_vec();
    let analyzer = SparklensAnalyzer::paper_default();
    let simulator = Simulator::new(
        ctx.config.cluster,
        AllocationPolicy::static_allocation(ctx.config.training_run_executors),
    )
    .expect("valid cluster");

    // Per-query Sparklens estimates at the extended count grid, plus PPM fits
    // on the training-count subset (the procedure of Section 3.4).
    let mut sparklens_by_query: BTreeMap<String, Vec<(usize, f64)>> = BTreeMap::new();
    let mut pl_by_query: BTreeMap<String, Vec<(usize, f64)>> = BTreeMap::new();
    let mut al_by_query: BTreeMap<String, Vec<(usize, f64)>> = BTreeMap::new();
    for query in &suite {
        let run = simulator.run(
            &query.name,
            &query.dag,
            &RunConfig::deterministic().with_task_log(),
        );
        let log = run.task_log.expect("task log requested");
        let estimates = analyzer.estimate_from_log(&log, &FIG4_COUNTS);
        let training_curve: Vec<(usize, f64)> = estimates
            .iter()
            .filter(|(n, _)| ctx.config.training_counts.contains(n))
            .copied()
            .collect();
        let pl = ae_ppm::fit::fit_power_law(&training_curve).expect("fit succeeds");
        let al = ae_ppm::fit::fit_amdahl(&training_curve).expect("fit succeeds");
        pl_by_query.insert(
            query.name.clone(),
            FIG4_COUNTS
                .iter()
                .map(|&n| (n, pl.predict(n as f64)))
                .collect(),
        );
        al_by_query.insert(
            query.name.clone(),
            FIG4_COUNTS
                .iter()
                .map(|&n| (n, al.predict(n as f64)))
                .collect(),
        );
        sparklens_by_query.insert(query.name.clone(), estimates);
    }

    table::header(&["executors", "AE_PL error", "AE_AL error"]);
    for &n in &FIG4_COUNTS {
        let collect = |curves: &BTreeMap<String, Vec<(usize, f64)>>| -> Vec<f64> {
            curves
                .values()
                .filter_map(|curve| curve.iter().find(|&&(c, _)| c == n).map(|&(_, t)| t))
                .collect()
        };
        let reference = collect(&sparklens_by_query);
        let pl_error = total_absolute_error_ratio(&collect(&pl_by_query), &reference);
        let al_error = total_absolute_error_ratio(&collect(&al_by_query), &reference);
        table::row(&[
            n.to_string(),
            table::fmt(pl_error, 3),
            table::fmt(al_error, 3),
        ]);
    }
    println!("paper shape: AE_AL fits Sparklens better for n < 32, AE_PL beyond; both <= ~0.16.");
}

/// Figure 8: predicted vs Sparklens vs actual run-time curves for q94 when
/// q94 is held out of training.
pub fn fig8_example_prediction(ctx: &mut ExperimentContext) {
    table::section(
        "Figure 8",
        "Sparklens estimates, AE_PL / AE_AL predictions, and actual run times (q94, SF=100, held out)",
    );
    let data = ctx.training_data(ScaleFactor::SF100);
    let actuals = ctx.actuals(ScaleFactor::SF100);

    let holdout_idx = data
        .examples
        .iter()
        .position(|e| e.name == "q94")
        .expect("q94 in suite");
    let train_indices: Vec<usize> = (0..data.len()).filter(|&i| i != holdout_idx).collect();
    let train_data = data.subset(&train_indices);

    let pl_model = ParameterModel::train(&train_data, &ctx.config.with_ppm_kind(PpmKind::PowerLaw))
        .expect("training succeeds");
    let al_model = ParameterModel::train(&train_data, &ctx.config.with_ppm_kind(PpmKind::Amdahl))
        .expect("training succeeds");

    let q94 = ctx.query("q94", ScaleFactor::SF100);
    let counts = ctx.config.training_counts;
    let pl_curve = pl_model
        .predict_curve(&q94.plan, &counts)
        .expect("prediction");
    let al_curve = al_model
        .predict_curve(&q94.plan, &counts)
        .expect("prediction");
    let sparklens = &data.examples[holdout_idx].sparklens_curve;
    let actual = actuals.curve("q94").expect("q94 measured");

    table::header(&["executors", "S (s)", "AE_PL (s)", "AE_AL (s)", "Actual (s)"]);
    for (i, &n) in counts.iter().enumerate() {
        table::row(&[
            n.to_string(),
            table::fmt(sparklens[i].1, 1),
            table::fmt(pl_curve[i].1, 1),
            table::fmt(al_curve[i].1, 1),
            table::fmt(actual[i].1, 1),
        ]);
    }
    println!(
        "paper shape: curves differ at small n but converge at larger n; overall shapes match."
    );
}

/// Figure 9: E(n) for the training (fit) and testing (prediction) datasets
/// under 10-repeated 5-fold cross-validation, with the Sparklens reference.
pub fn fig9_cross_validation_errors(ctx: &mut ExperimentContext) {
    table::section(
        "Figure 9",
        "E(n) under 10-repeated 5-fold cross-validation (SF=100)",
    );
    let data = ctx.training_data(ScaleFactor::SF100);
    let actuals = ctx.actuals(ScaleFactor::SF100);
    let counts = ctx.config.training_counts;
    let cv = CrossValidationConfig::default();

    let sparklens_error = error_by_count(&sparklens_curves(&data), &actuals, &counts);

    for kind in [PpmKind::PowerLaw, PpmKind::Amdahl] {
        let config = ctx.config.with_ppm_kind(kind);
        let report =
            cross_validate(&data, &actuals, &config, &cv, &counts).expect("cross-validation");
        let train = report.train_error_summary();
        let test = report.test_error_summary();
        println!("\n{} ({} folds):", kind.label(), report.folds.len());
        table::header(&[
            "executors",
            "S",
            "train mean",
            "train std",
            "test mean",
            "test std",
        ]);
        for &n in &counts {
            let (train_mean, train_std) = train.get(&n).copied().unwrap_or((f64::NAN, f64::NAN));
            let (test_mean, test_std) = test.get(&n).copied().unwrap_or((f64::NAN, f64::NAN));
            table::row(&[
                n.to_string(),
                table::fmt(sparklens_error.get(&n).copied().unwrap_or(f64::NAN), 3),
                table::fmt(train_mean, 3),
                table::fmt(train_std, 3),
                table::fmt(test_mean, 3),
                table::fmt(test_std, 3),
            ]);
        }
    }
    println!(
        "paper shape: errors largest at small n, smallest at intermediate n; model errors close to \
         Sparklens (mean |gap| 0.079 for AE_PL, 0.094 for AE_AL)."
    );
}

/// Figure 14: generalization across scale factors — train at one SF, test at
/// the other, with Sparklens references from both SFs.
pub fn fig14_cross_scale_factor(ctx: &mut ExperimentContext) {
    table::section(
        "Figure 14",
        "E(n) when training and testing scale factors differ",
    );
    let counts = ctx.config.training_counts;
    let data_sf10 = ctx.training_data(ScaleFactor::SF10);
    let data_sf100 = ctx.training_data(ScaleFactor::SF100);
    let suites: Vec<(ScaleFactor, TrainingData, TrainingData)> = vec![
        // (test SF, training data from the other SF, training data from the same SF)
        (ScaleFactor::SF10, data_sf100.clone(), data_sf10.clone()),
        (ScaleFactor::SF100, data_sf10, data_sf100),
    ];

    for (test_sf, train_data_other_sf, same_sf_data) in suites {
        let actuals = ctx.actuals(test_sf);
        let test_suite = ctx.suite(test_sf).to_vec();
        println!("\ntesting dataset: {test_sf} (training dataset: the other scale factor)");

        // Sparklens references: estimates obtained at SF=10 and at SF=100.
        let s_same = error_by_count(&sparklens_curves(&same_sf_data), &actuals, &counts);
        let s_other = error_by_count(&sparklens_curves(&train_data_other_sf), &actuals, &counts);

        let mut model_errors: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
        for kind in [PpmKind::PowerLaw, PpmKind::Amdahl] {
            let config = ctx.config.with_ppm_kind(kind);
            let model =
                ParameterModel::train(&train_data_other_sf, &config).expect("training succeeds");
            let predictions: BTreeMap<String, Vec<(usize, f64)>> = test_suite
                .iter()
                .map(|q| {
                    let curve = model.predict_curve(&q.plan, &counts).expect("prediction");
                    (q.name.clone(), curve)
                })
                .collect();
            model_errors.insert(
                kind.label(),
                error_by_count(&predictions, &actuals, &counts),
            );
        }

        let (s_10, s_100) = if test_sf == ScaleFactor::SF10 {
            (&s_same, &s_other)
        } else {
            (&s_other, &s_same)
        };
        table::header(&["executors", "S_10", "S_100", "AE_PL", "AE_AL"]);
        for &n in &counts {
            let get = |m: &BTreeMap<usize, f64>| m.get(&n).copied().unwrap_or(f64::NAN);
            table::row(&[
                n.to_string(),
                table::fmt(get(s_10), 3),
                table::fmt(get(s_100), 3),
                table::fmt(get(&model_errors["AE_PL"]), 3),
                table::fmt(get(&model_errors["AE_AL"]), 3),
            ]);
        }
    }
    println!(
        "paper shape: error trends resemble the same-SF case (larger at small n); size-aware model \
         predictions can beat the cross-SF Sparklens reference because Sparklens ignores data-size \
         changes."
    );
}

/// Figure 15: top-10 features by permutation importance, summed over the
/// AE_PL and AE_AL models.
pub fn fig15_feature_importance(ctx: &mut ExperimentContext) {
    table::section("Figure 15", "Permutation feature importance (SF=100)");
    let data = ctx.training_data(ScaleFactor::SF100);

    let mut merged: Option<ae_ml::importance::ImportanceReport> = None;
    let mut per_kind: BTreeMap<&'static str, Vec<(String, f64)>> = BTreeMap::new();
    for kind in [PpmKind::PowerLaw, PpmKind::Amdahl] {
        let dataset = data
            .to_dataset(kind, FeatureSet::F0)
            .expect("dataset conversion");
        let config = ctx.config.with_ppm_kind(kind);
        let model = ParameterModel::train_on_dataset(&dataset, kind, FeatureSet::F0, config.forest)
            .expect("training succeeds");
        let report =
            permutation_importance(model.forest(), &dataset, 30, 7).expect("importance succeeds");
        per_kind.insert(kind.label(), report.top_k(10));
        match merged.as_mut() {
            Some(m) => m.merge_sum(&report),
            None => merged = Some(report),
        }
    }

    let merged = merged.expect("two reports merged");
    println!("top 10 features by summed AE_PL + AE_AL importance:");
    table::header(&["rank", "feature", "summed score"]);
    for (rank, (name, score)) in merged.top_k(10).into_iter().enumerate() {
        table::row(&[(rank + 1).to_string(), name, table::fmt(score, 3)]);
    }
    for (label, top) in per_kind {
        let names: Vec<String> = top.into_iter().take(5).map(|(n, _)| n).collect();
        println!("{label} top-5: {}", names.join(", "));
    }
    println!(
        "paper ranking: TotalInputBytes, TotalRowsProcessed, MaxDepth, NumOps, Project, Filter, \
         Aggregate, Sort, Union, NumInputs."
    );
}

/// Section 5.7: feature-set ablation (F0–F3) measured as E(n) on the test
/// folds of a cross-validation.
pub fn ablation_feature_sets(ctx: &mut ExperimentContext) {
    table::section(
        "Section 5.7",
        "Feature-set ablation: E(n) for F0-F3 (test folds, SF=100)",
    );
    let data = ctx.training_data(ScaleFactor::SF100);
    let actuals = ctx.actuals(ScaleFactor::SF100);
    let counts = [8usize, 16, 32];
    let cv = CrossValidationConfig {
        folds: 5,
        repeats: 5,
        seed: 13,
    };

    for kind in [PpmKind::PowerLaw, PpmKind::Amdahl] {
        println!("\n{}:", kind.label());
        table::header(&["feature set", "E(8)", "E(16)", "E(32)"]);
        for set in FeatureSet::ALL {
            let config = ctx.config.with_ppm_kind(kind).with_feature_set(set);
            let report =
                cross_validate(&data, &actuals, &config, &cv, &counts).expect("cross-validation");
            let summary = report.test_error_summary();
            table::row(&[
                set.label().to_string(),
                table::fmt(summary.get(&8).map(|&(m, _)| m).unwrap_or(f64::NAN), 3),
                table::fmt(summary.get(&16).map(|&(m, _)| m).unwrap_or(f64::NAN), 3),
                table::fmt(summary.get(&32).map(|&(m, _)| m).unwrap_or(f64::NAN), 3),
            ]);
        }
    }
    println!(
        "paper at n=8: F0 0.27 / F1 0.26 / F2 0.35 / F3 0.31 for AE_PL (F1 close to F0; F2, F3 worse)."
    );
}

/// Section 5.6: training and scoring overheads.
pub fn overheads(ctx: &mut ExperimentContext) {
    table::section("Section 5.6", "Training and scoring overheads");
    let data = ctx.training_data(ScaleFactor::SF100);
    let suite = ctx.suite(ScaleFactor::SF100).to_vec();
    let report = measure_overheads(&suite, &data, &ctx.config).expect("overhead measurement");

    println!(
        "training queries:               {}",
        report.training_queries
    );
    println!(
        "PPM fit per training point:     {:.4} ms   (paper: ~0.3 ms)",
        report.ppm_fit_per_point.as_secs_f64() * 1e3
    );
    println!(
        "parameter-model training:       {:.1} ms   (paper: ~79 ms)",
        report.forest_training.as_secs_f64() * 1e3
    );
    println!(
        "portable model size:            {:.2} MB   (paper: ~1 MB ONNX)",
        report.portable_model_bytes as f64 / 1e6
    );
    println!(
        "plan featurization per query:   {:.3} ms   (paper: ~10.3 ms)",
        report.featurization_per_query.as_secs_f64() * 1e3
    );
    println!(
        "model load (one-time):          {:.1} ms   (paper: ~88.1 ms)",
        report.model_load.as_secs_f64() * 1e3
    );
    println!(
        "scoring-session setup:          {:.1} ms   (paper: ~47.1 ms)",
        report.session_setup.as_secs_f64() * 1e3
    );
    println!(
        "inference per query:            {:.3} ms   (paper: ~0.9 ms ONNX / ~3.6 ms scikit-learn)",
        report.inference_per_query.as_secs_f64() * 1e3
    );
}
