//! Evaluation harness: ground-truth collection, the `E(n)` error metric,
//! repeated cross-validation, configuration-selection impact, and the
//! allocation-policy ratio summaries (Section 5).

use std::collections::BTreeMap;

use ae_engine::allocation::AllocationPolicy;
use ae_engine::cluster::ClusterConfig;
use ae_engine::scheduler::{RunConfig, SimScratch, Simulator};
use ae_ml::matrix::FeatureMatrix;
use ae_ml::metrics::{iqr_filtered_mean, mean_and_std, total_absolute_error_ratio};
use ae_ppm::curve::PerfCurve;
use ae_ppm::model::Ppm;
use ae_ppm::selection::{elbow_point, slowdown_config};
use ae_workload::QueryInstance;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::config::AutoExecutorConfig;
use crate::execution::AllocationComparison;
use crate::training::{ParameterModel, TrainingData};
use crate::{AutoExecutorError, Result};

/// Ground-truth run times: per query, the IQR-filtered mean elapsed time at
/// each evaluated executor count (the "Actual" series, Section 5.1).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ActualRuns {
    curves: BTreeMap<String, Vec<(usize, f64)>>,
}

impl ActualRuns {
    /// Runs every query `repeats` times at each executor count in `counts`
    /// and stores the outlier-filtered mean elapsed times.
    ///
    /// Each executor count is one parallel unit with one simulator and one
    /// scratch, looping over the repeats and, inside each repeat, over the
    /// queries. A repeat's noise seed is a pure function of
    /// `(seed, repeat, count)` and the same for every query, so the
    /// scratch draws each `(count, repeat)` cell's noise stream once and
    /// every query reads its prefix. Each query's samples are kept in
    /// repeat order, so ground truth is bit-identical at any worker-thread
    /// count.
    pub fn collect(
        queries: &[QueryInstance],
        counts: &[usize],
        repeats: usize,
        cluster: &ClusterConfig,
        seed: u64,
    ) -> Result<Self> {
        let repeats = repeats.max(1);
        let means_by_count = counts
            .par_iter()
            .map(|&n| {
                let simulator = Simulator::new(*cluster, AllocationPolicy::static_allocation(n))
                    .map_err(AutoExecutorError::Engine)?;
                let mut scratch = SimScratch::new();
                let mut samples = vec![Vec::new(); queries.len()];
                for r in 0..repeats {
                    let run_cfg = RunConfig {
                        seed: seed
                            .wrapping_add(r as u64)
                            .wrapping_mul(31)
                            .wrapping_add(n as u64),
                        ..RunConfig::default()
                    };
                    for (query, samples) in queries.iter().zip(&mut samples) {
                        let run = simulator.run_with_scratch(
                            &query.name,
                            &query.dag,
                            &run_cfg,
                            &mut scratch,
                        );
                        samples.push(run.elapsed_secs);
                    }
                }
                Ok(samples.iter().map(|s| iqr_filtered_mean(s)).collect())
            })
            .collect::<Result<Vec<Vec<f64>>>>()?;

        let mut curves: BTreeMap<String, Vec<(usize, f64)>> = BTreeMap::new();
        for (q, query) in queries.iter().enumerate() {
            let curve = curves.entry(query.name.clone()).or_default();
            curve.extend(
                counts
                    .iter()
                    .zip(&means_by_count)
                    .map(|(&n, means)| (n, means[q])),
            );
        }
        Ok(Self { curves })
    }

    /// Builds ground truth from precomputed curves (useful in tests).
    pub fn from_curves(curves: BTreeMap<String, Vec<(usize, f64)>>) -> Self {
        Self { curves }
    }

    /// Query names with ground truth available.
    pub fn names(&self) -> Vec<&str> {
        self.curves.keys().map(String::as_str).collect()
    }

    /// The measured curve for a query.
    pub fn curve(&self, name: &str) -> Option<&[(usize, f64)]> {
        self.curves.get(name).map(Vec::as_slice)
    }

    /// The measured curve, piecewise-linearly interpolated over all `n`.
    pub fn interpolated(&self, name: &str) -> Option<PerfCurve> {
        self.curve(name).map(PerfCurve::from_samples)
    }

    /// The optimal (minimum-time, smallest-n) executor count for a query.
    pub fn optimal_executors(&self, name: &str) -> Option<usize> {
        self.curve(name).and_then(slowdown_config_min)
    }
}

fn slowdown_config_min(curve: &[(usize, f64)]) -> Option<usize> {
    slowdown_config(curve, 1.0)
}

/// The paper's `E(n)` metric over a set of queries: for each executor count,
/// `Σ_q |t̂_q(n) − t_q(n)| / Σ_q t_q(n)` (Equation 6).
///
/// `predictions` maps query name → predicted curve; queries missing from
/// either side are skipped.
pub fn error_by_count(
    predictions: &BTreeMap<String, Vec<(usize, f64)>>,
    actuals: &ActualRuns,
    counts: &[usize],
) -> BTreeMap<usize, f64> {
    let mut result = BTreeMap::new();
    for &n in counts {
        let mut predicted = Vec::new();
        let mut actual = Vec::new();
        for (name, curve) in predictions {
            let Some(actual_curve) = actuals.curve(name) else {
                continue;
            };
            let Some(&(_, t_hat)) = curve.iter().find(|&&(c, _)| c == n) else {
                continue;
            };
            let Some(&(_, t)) = actual_curve.iter().find(|&&(c, _)| c == n) else {
                continue;
            };
            predicted.push(t_hat);
            actual.push(t);
        }
        if !actual.is_empty() {
            result.insert(n, total_absolute_error_ratio(&predicted, &actual));
        }
    }
    result
}

/// Cross-validation protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrossValidationConfig {
    /// Number of folds (5 in the paper: an 80:20 split).
    pub folds: usize,
    /// Number of repeats (10 in the paper).
    pub repeats: usize,
    /// Base seed for fold shuffling and per-repeat forest seeds.
    pub seed: u64,
}

impl Default for CrossValidationConfig {
    fn default() -> Self {
        Self {
            folds: 5,
            repeats: 10,
            seed: 42,
        }
    }
}

impl CrossValidationConfig {
    /// A cheaper protocol for tests and smoke runs.
    pub fn quick(seed: u64) -> Self {
        Self {
            folds: 3,
            repeats: 2,
            seed,
        }
    }
}

/// Predictions for one query from one fold's model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryPrediction {
    /// Query name.
    pub name: String,
    /// The predicted PPM.
    pub ppm: Ppm,
    /// The predicted curve at the evaluation counts.
    pub curve: Vec<(usize, f64)>,
}

/// Results of one train/test fold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FoldReport {
    /// Which repeat this fold belongs to.
    pub repeat: usize,
    /// Fold index within the repeat.
    pub fold: usize,
    /// `E(n)` on the training queries (fit error).
    pub train_error_by_count: BTreeMap<usize, f64>,
    /// `E(n)` on the held-out queries (prediction error).
    pub test_error_by_count: BTreeMap<usize, f64>,
    /// Per-test-query predictions.
    pub test_predictions: Vec<QueryPrediction>,
}

/// Aggregated cross-validation results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrossValidationReport {
    /// All folds across all repeats.
    pub folds: Vec<FoldReport>,
    /// The executor counts at which errors were evaluated.
    pub eval_counts: Vec<usize>,
}

impl CrossValidationReport {
    fn aggregate(
        &self,
        pick: impl Fn(&FoldReport) -> &BTreeMap<usize, f64>,
    ) -> BTreeMap<usize, (f64, f64)> {
        let mut out = BTreeMap::new();
        for &n in &self.eval_counts {
            let values: Vec<f64> = self
                .folds
                .iter()
                .filter_map(|f| pick(f).get(&n).copied())
                .collect();
            if !values.is_empty() {
                out.insert(n, mean_and_std(&values));
            }
        }
        out
    }

    /// Mean and standard deviation of the test `E(n)` across folds, per `n`
    /// (the bars and whiskers of Figure 9b).
    pub fn test_error_summary(&self) -> BTreeMap<usize, (f64, f64)> {
        self.aggregate(|f| &f.test_error_by_count)
    }

    /// Mean and standard deviation of the training `E(n)` across folds
    /// (Figure 9a).
    pub fn train_error_summary(&self) -> BTreeMap<usize, (f64, f64)> {
        self.aggregate(|f| &f.train_error_by_count)
    }

    /// All test-time predicted curves per query (one per fold in which the
    /// query was held out — i.e. one per repeat).
    pub fn test_curves_by_query(&self) -> BTreeMap<String, Vec<Vec<(usize, f64)>>> {
        let mut out: BTreeMap<String, Vec<Vec<(usize, f64)>>> = BTreeMap::new();
        for fold in &self.folds {
            for prediction in &fold.test_predictions {
                out.entry(prediction.name.clone())
                    .or_default()
                    .push(prediction.curve.clone());
            }
        }
        out
    }

    /// The mean predicted test curve per query (averaged over repeats).
    pub fn mean_test_curves(&self) -> BTreeMap<String, Vec<(usize, f64)>> {
        self.test_curves_by_query()
            .into_iter()
            .map(|(name, curves)| {
                let mut mean = curves[0].clone();
                for curve in curves.iter().skip(1) {
                    for (slot, &(_, t)) in mean.iter_mut().zip(curve.iter()) {
                        slot.1 += t;
                    }
                }
                let count = curves.len() as f64;
                for slot in &mut mean {
                    slot.1 /= count;
                }
                (name, mean)
            })
            .collect()
    }
}

/// Runs repeated k-fold cross-validation of the parameter model over the
/// training data, evaluating `E(n)` against ground truth.
///
/// `eval_counts` are the executor counts at which errors are computed (the
/// paper uses the training counts {1, 3, 8, 16, 32, 48}).
pub fn cross_validate(
    data: &TrainingData,
    actuals: &ActualRuns,
    config: &AutoExecutorConfig,
    cv: &CrossValidationConfig,
    eval_counts: &[usize],
) -> Result<CrossValidationReport> {
    if data.is_empty() {
        return Err(AutoExecutorError::EmptyWorkload);
    }
    let splitter = ae_ml::dataset::RepeatedKFold::new(cv.folds, cv.repeats, cv.seed);
    let all_splits = splitter.splits(data.len()).map_err(AutoExecutorError::Ml)?;

    // Flatten the (repeat, fold) grid so every fold trains and scores in
    // parallel. Each fold's forest seed is a pure function of its grid
    // position — identical to the historical sequential derivation — so the
    // report is bit-identical at any worker-thread count.
    let flat: Vec<(usize, usize, &ae_ml::dataset::FoldSplit)> = all_splits
        .iter()
        .enumerate()
        .flat_map(|(repeat, splits)| {
            splits
                .iter()
                .enumerate()
                .map(move |(fold_idx, split)| (repeat, fold_idx, split))
        })
        .collect();

    let folds = flat
        .into_par_iter()
        .map(|(repeat, fold_idx, split)| {
            let train_data = data.subset(&split.train);
            let fold_config = config.with_seed(
                config
                    .forest
                    .seed
                    .wrapping_add((repeat * cv.folds + fold_idx) as u64),
            );
            let model = ParameterModel::train(&train_data, &fold_config)?;

            // One batched-inference call per query set: the full feature
            // rows go into one flat matrix and the compiled kernel returns
            // every PPM at once (bit-identical to the former per-row loop).
            let predict_set = |indices: &[usize]| -> Result<Vec<QueryPrediction>> {
                let width = crate::features::full_feature_names().len();
                let mut matrix = FeatureMatrix::with_capacity(width, indices.len());
                for &i in indices {
                    matrix
                        .push_row(&data.examples[i].full_features)
                        .map_err(AutoExecutorError::Ml)?;
                }
                let ppms = model.predict_ppm_batch(&matrix)?;
                Ok(indices
                    .iter()
                    .zip(ppms)
                    .map(|(&i, ppm)| QueryPrediction {
                        name: data.examples[i].name.clone(),
                        curve: ppm.predict_curve(eval_counts),
                        ppm,
                    })
                    .collect())
            };
            let train_predictions = predict_set(&split.train)?;
            let test_predictions = predict_set(&split.test)?;

            let to_map = |predictions: &[QueryPrediction]| {
                predictions
                    .iter()
                    .map(|p| (p.name.clone(), p.curve.clone()))
                    .collect::<BTreeMap<_, _>>()
            };
            let train_error = error_by_count(&to_map(&train_predictions), actuals, eval_counts);
            let test_error = error_by_count(&to_map(&test_predictions), actuals, eval_counts);

            Ok(FoldReport {
                repeat,
                fold: fold_idx,
                train_error_by_count: train_error,
                test_error_by_count: test_error,
                test_predictions,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(CrossValidationReport {
        folds,
        eval_counts: eval_counts.to_vec(),
    })
}

/// Per-query Sparklens estimate series ("S") from collected training data,
/// evaluated at the training counts.
pub fn sparklens_curves(data: &TrainingData) -> BTreeMap<String, Vec<(usize, f64)>> {
    data.examples
        .iter()
        .map(|e| (e.name.clone(), e.sparklens_curve.clone()))
        .collect()
}

/// One family's evaluation bundle for the cross-family generalization
/// harness: its suite, the training data collected from it, and its
/// ground-truth curves.
#[derive(Debug, Clone)]
pub struct FamilyEvalSet {
    /// Registry key of the family (e.g. `"tpcds"`).
    pub family: String,
    /// The family's query instances (plans drive test-time predictions).
    pub suite: Vec<QueryInstance>,
    /// Training data collected from the suite.
    pub data: TrainingData,
    /// Ground-truth curves measured on the suite.
    pub actuals: ActualRuns,
}

/// One cell of the cross-family generalization matrix: the `E(n)` profile of
/// a model trained on `train_family` and evaluated on `test_family`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneralizationCell {
    /// Family the model was trained on.
    pub train_family: String,
    /// Family the model was evaluated on.
    pub test_family: String,
    /// `E(n)` at each evaluation count.
    pub error_by_count: BTreeMap<usize, f64>,
    /// Mean of `E(n)` over the evaluation counts (the matrix entry).
    pub mean_error: f64,
}

/// The full train-family × test-family accuracy matrix.
///
/// Diagonal cells measure in-family accuracy (train and test draw from the
/// same suite — a fit-style reference); off-diagonal cells measure transfer
/// to a family the model never saw, which is the paper's central
/// generalization claim stressed across workload families instead of
/// across held-out queries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneralizationMatrix {
    /// Family keys, in evaluation order (rows and columns).
    pub families: Vec<String>,
    /// Executor counts the errors were evaluated at.
    pub eval_counts: Vec<usize>,
    /// All train × test cells, row-major in `families` order.
    pub cells: Vec<GeneralizationCell>,
}

impl GeneralizationMatrix {
    /// The cell for a train/test family pair.
    pub fn cell(&self, train: &str, test: &str) -> Option<&GeneralizationCell> {
        self.cells
            .iter()
            .find(|c| c.train_family == train && c.test_family == test)
    }

    /// True when every recorded error is finite (the CI smoke gate).
    pub fn is_finite(&self) -> bool {
        self.cells
            .iter()
            .all(|c| c.mean_error.is_finite() && c.error_by_count.values().all(|e| e.is_finite()))
    }

    /// The measured cross-family generalization gap: mean off-diagonal
    /// error minus mean diagonal error (how much accuracy transfer costs).
    /// `NaN` for a single-family matrix, which has no off-diagonal cells
    /// and therefore no transfer to measure.
    pub fn generalization_gap(&self) -> f64 {
        let (mut diag, mut off) = (Vec::new(), Vec::new());
        for cell in &self.cells {
            if cell.train_family == cell.test_family {
                diag.push(cell.mean_error);
            } else {
                off.push(cell.mean_error);
            }
        }
        if off.is_empty() || diag.is_empty() {
            return f64::NAN;
        }
        mean_and_std(&off).0 - mean_and_std(&diag).0
    }
}

/// Evaluates an already-trained model against one family's suite: per-query
/// predicted curves from the plans, `E(n)` against the family's ground
/// truth.
pub fn cross_family_error(
    model: &ParameterModel,
    suite: &[QueryInstance],
    actuals: &ActualRuns,
    eval_counts: &[usize],
) -> Result<BTreeMap<usize, f64>> {
    // Featurize every plan into one flat matrix and score the whole suite
    // in a single compiled-kernel batch (bit-identical to per-plan
    // `predict_curve` calls).
    let width = crate::features::full_feature_names().len();
    let mut matrix = FeatureMatrix::with_capacity(width, suite.len());
    for q in suite {
        matrix
            .push_row(&crate::features::featurize_plan(&q.plan))
            .map_err(AutoExecutorError::Ml)?;
    }
    let ppms = model.predict_ppm_batch(&matrix)?;
    let predictions = suite
        .iter()
        .zip(ppms)
        .map(|(q, ppm)| (q.name.clone(), ppm.predict_curve(eval_counts)))
        .collect::<BTreeMap<_, _>>();
    Ok(error_by_count(&predictions, actuals, eval_counts))
}

/// Builds the full train-family × test-family accuracy matrix: one model
/// per training family (trained on that family's whole suite), evaluated
/// on every family's suite.
pub fn generalization_matrix(
    sets: &[FamilyEvalSet],
    config: &AutoExecutorConfig,
    eval_counts: &[usize],
) -> Result<GeneralizationMatrix> {
    if sets.is_empty() {
        return Err(AutoExecutorError::EmptyWorkload);
    }
    let mut cells = Vec::with_capacity(sets.len() * sets.len());
    for train in sets {
        if train.data.is_empty() {
            return Err(AutoExecutorError::EmptyWorkload);
        }
        let model = ParameterModel::train(&train.data, config)?;
        for test in sets {
            let error_by_count =
                cross_family_error(&model, &test.suite, &test.actuals, eval_counts)?;
            let errors: Vec<f64> = error_by_count.values().copied().collect();
            let (mean_error, _) = mean_and_std(&errors);
            cells.push(GeneralizationCell {
                train_family: train.family.clone(),
                test_family: test.family.clone(),
                error_by_count,
                mean_error,
            });
        }
    }
    Ok(GeneralizationMatrix {
        families: sets.iter().map(|s| s.family.clone()).collect(),
        eval_counts: eval_counts.to_vec(),
        cells,
    })
}

/// Outcome of bounded-slowdown configuration selection for one `H`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectionImpact {
    /// Target maximum slowdown `H`.
    pub target_slowdown: f64,
    /// Mean actual slowdown (vs. the interpolated actual minimum) incurred
    /// by the selected configurations.
    pub mean_actual_slowdown: f64,
    /// Mean selected executor count.
    pub mean_selected_executors: f64,
}

/// Evaluates bounded-slowdown selection (Figure 10): for each query the
/// configuration is chosen from its *predicted* curve (interpolated over the
/// candidate range) and the slowdown is measured on the *actual*
/// (interpolated) curve.
pub fn selection_impacts(
    predictions: &BTreeMap<String, Vec<(usize, f64)>>,
    actuals: &ActualRuns,
    h_values: &[f64],
    candidate_range: (usize, usize),
) -> Vec<SelectionImpact> {
    let (lo, hi) = candidate_range;
    h_values
        .iter()
        .map(|&h| {
            let mut slowdowns = Vec::new();
            let mut selected = Vec::new();
            for (name, curve) in predictions {
                let Some(actual) = actuals.interpolated(name) else {
                    continue;
                };
                if curve.is_empty() {
                    continue;
                }
                let predicted = PerfCurve::from_samples(curve);
                let dense = predicted.evaluate_integer_range(lo, hi);
                let Some(n) = slowdown_config(&dense, h) else {
                    continue;
                };
                selected.push(n as f64);
                slowdowns.push(actual.slowdown_at(n as f64));
            }
            let (mean_slowdown, _) = mean_and_std(&slowdowns);
            let (mean_n, _) = mean_and_std(&selected);
            SelectionImpact {
                target_slowdown: h,
                mean_actual_slowdown: mean_slowdown,
                mean_selected_executors: mean_n,
            }
        })
        .collect()
}

/// Elbow points per query computed from a set of per-query curves
/// (Figure 11). Curves are interpolated over the candidate range first.
pub fn elbow_distribution(
    curves: &BTreeMap<String, Vec<(usize, f64)>>,
    candidate_range: (usize, usize),
) -> BTreeMap<String, usize> {
    let (lo, hi) = candidate_range;
    curves
        .iter()
        .filter(|(_, curve)| !curve.is_empty())
        .filter_map(|(name, curve)| {
            let dense = PerfCurve::from_samples(curve).evaluate_integer_range(lo, hi);
            elbow_point(&dense).map(|e| (name.clone(), e))
        })
        .collect()
}

/// Averages of the Figure 13 ratios over a set of per-query comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RatioAverages {
    /// Mean SA(max)/Rule maximum-executor ratio.
    pub n_ratio_static: f64,
    /// Mean DA/Rule maximum-executor ratio.
    pub n_ratio_dynamic: f64,
    /// Mean SA(max)/Rule executor-occupancy ratio.
    pub auc_ratio_static: f64,
    /// Mean DA/Rule executor-occupancy ratio.
    pub auc_ratio_dynamic: f64,
    /// Mean speedup of Rule vs SA(max) (< 1 means Rule is slower).
    pub speedup_vs_static: f64,
    /// Mean speedup of Rule vs DA.
    pub speedup_vs_dynamic: f64,
    /// Fraction of queries that ran long enough to receive their full
    /// predicted allocation.
    pub fully_allocated_fraction: f64,
    /// Occupancy saving of Rule vs dynamic allocation, as a fraction
    /// (the paper's headline 48%).
    pub auc_saving_vs_dynamic: f64,
    /// Occupancy saving of Rule vs static allocation at the maximum
    /// (the paper's 73%).
    pub auc_saving_vs_static: f64,
}

/// Summarises allocation comparisons into the Figure 13 averages.
pub fn ratio_averages(comparisons: &[AllocationComparison]) -> RatioAverages {
    if comparisons.is_empty() {
        return RatioAverages::default();
    }
    let mean = |f: &dyn Fn(&AllocationComparison) -> f64| {
        comparisons.iter().map(f).sum::<f64>() / comparisons.len() as f64
    };
    let total_rule_auc: f64 = comparisons.iter().map(|c| c.rule.auc_executor_secs).sum();
    let total_da_auc: f64 = comparisons
        .iter()
        .map(|c| c.dynamic.auc_executor_secs)
        .sum();
    let total_sa_auc: f64 = comparisons
        .iter()
        .map(|c| c.static_max.auc_executor_secs)
        .sum();
    RatioAverages {
        n_ratio_static: mean(&|c| c.n_ratio_static()),
        n_ratio_dynamic: mean(&|c| c.n_ratio_dynamic()),
        auc_ratio_static: mean(&|c| c.auc_ratio_static()),
        auc_ratio_dynamic: mean(&|c| c.auc_ratio_dynamic()),
        speedup_vs_static: mean(&|c| c.speedup_vs_static()),
        speedup_vs_dynamic: mean(&|c| c.speedup_vs_dynamic()),
        fully_allocated_fraction: comparisons.iter().filter(|c| c.fully_allocated).count() as f64
            / comparisons.len() as f64,
        auc_saving_vs_dynamic: 1.0 - total_rule_auc / total_da_auc.max(f64::EPSILON),
        auc_saving_vs_static: 1.0 - total_rule_auc / total_sa_auc.max(f64::EPSILON),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_workload::{ScaleFactor, WorkloadGenerator};

    fn small_queries() -> Vec<QueryInstance> {
        let generator = WorkloadGenerator::new(ScaleFactor::SF10);
        ["q2", "q17", "q33", "q49", "q61", "q94"]
            .iter()
            .map(|n| generator.instance(n))
            .collect()
    }

    fn fast_config() -> AutoExecutorConfig {
        let mut cfg = AutoExecutorConfig::default();
        cfg.forest.n_estimators = 8;
        cfg.training_run.noise_cv = 0.0;
        cfg
    }

    fn quick_actuals(queries: &[QueryInstance]) -> ActualRuns {
        ActualRuns::collect(
            queries,
            &[1, 8, 16, 48],
            1,
            &ClusterConfig::paper_default(),
            3,
        )
        .unwrap()
    }

    #[test]
    fn actual_runs_produce_monotoneish_curves() {
        let queries = small_queries();
        let actuals = quick_actuals(&queries);
        for query in &queries {
            let curve = actuals.curve(&query.name).unwrap();
            assert_eq!(curve.len(), 4);
            // With noise the curve may wiggle slightly, but t(1) >= t(48).
            assert!(curve[0].1 >= curve[3].1 * 0.9);
            let optimal = actuals.optimal_executors(&query.name).unwrap();
            assert!((1..=48).contains(&optimal));
        }
    }

    #[test]
    fn error_metric_is_zero_for_perfect_predictions() {
        let queries = small_queries();
        let actuals = quick_actuals(&queries);
        let predictions: BTreeMap<String, Vec<(usize, f64)>> = queries
            .iter()
            .map(|q| (q.name.clone(), actuals.curve(&q.name).unwrap().to_vec()))
            .collect();
        let errors = error_by_count(&predictions, &actuals, &[1, 8, 16, 48]);
        for (&n, &e) in &errors {
            assert!(e.abs() < 1e-12, "E({n}) = {e}");
        }
    }

    #[test]
    fn cross_validation_produces_all_folds_and_reasonable_errors() {
        let queries = small_queries();
        let config = fast_config();
        let data = TrainingData::collect(&queries, &config).unwrap();
        let actuals = quick_actuals(&queries);
        let cv = CrossValidationConfig::quick(1);
        let counts = [1usize, 8, 16, 48];
        let report = cross_validate(&data, &actuals, &config, &cv, &counts).unwrap();
        assert_eq!(report.folds.len(), cv.folds * cv.repeats);
        let summary = report.test_error_summary();
        for (&n, &(mean, _std)) in &summary {
            assert!(mean.is_finite() && mean >= 0.0, "E({n}) = {mean}");
            // Even a rough model should stay well under 300% error on this
            // synthetic workload.
            assert!(mean < 3.0, "E({n}) = {mean}");
        }
        // Every query appears as a test query at least once per repeat.
        let curves = report.test_curves_by_query();
        assert_eq!(curves.len(), queries.len());
    }

    #[test]
    fn selection_impacts_follow_the_slowdown_knob() {
        let queries = small_queries();
        let actuals = quick_actuals(&queries);
        // Use the actual curves as "predictions" — the selection then tracks
        // the target slowdown from below.
        let predictions: BTreeMap<String, Vec<(usize, f64)>> = queries
            .iter()
            .map(|q| (q.name.clone(), actuals.curve(&q.name).unwrap().to_vec()))
            .collect();
        let impacts = selection_impacts(&predictions, &actuals, &[1.0, 1.2, 2.0], (1, 48));
        assert_eq!(impacts.len(), 3);
        // Larger H → fewer executors selected.
        assert!(impacts[2].mean_selected_executors <= impacts[0].mean_selected_executors);
        // Actual slowdown grows (or stays equal) as H grows.
        assert!(impacts[2].mean_actual_slowdown >= impacts[0].mean_actual_slowdown - 1e-9);
    }

    #[test]
    fn elbow_distribution_covers_queries() {
        let queries = small_queries();
        let actuals = quick_actuals(&queries);
        let curves: BTreeMap<String, Vec<(usize, f64)>> = queries
            .iter()
            .map(|q| (q.name.clone(), actuals.curve(&q.name).unwrap().to_vec()))
            .collect();
        let elbows = elbow_distribution(&curves, (1, 48));
        assert_eq!(elbows.len(), queries.len());
        assert!(elbows.values().all(|&e| (1..=48).contains(&e)));
    }

    #[test]
    fn ratio_averages_empty_is_default() {
        assert_eq!(ratio_averages(&[]), RatioAverages::default());
    }

    fn eval_set(family: ae_workload::BuiltinFamily, names: &[&str]) -> FamilyEvalSet {
        let generator = WorkloadGenerator::builtin(family, ScaleFactor::SF10);
        let suite: Vec<QueryInstance> = names.iter().map(|n| generator.instance(n)).collect();
        let data = TrainingData::collect(&suite, &fast_config()).unwrap();
        let actuals = quick_actuals(&suite);
        FamilyEvalSet {
            family: family.key().to_string(),
            suite,
            data,
            actuals,
        }
    }

    #[test]
    fn generalization_matrix_covers_all_family_pairs() {
        use ae_workload::BuiltinFamily;
        let sets = [
            eval_set(
                BuiltinFamily::Tpcds,
                &["q2", "q17", "q33", "q49", "q61", "q94"],
            ),
            eval_set(
                BuiltinFamily::Tpch,
                &["h1", "h5", "h9", "h13", "h18", "h21"],
            ),
        ];
        let counts = [1usize, 8, 16, 48];
        let matrix = generalization_matrix(&sets, &fast_config(), &counts).unwrap();

        assert_eq!(
            matrix.families,
            vec!["tpcds".to_string(), "tpch".to_string()]
        );
        assert_eq!(matrix.cells.len(), 4);
        assert!(matrix.is_finite());
        for train in ["tpcds", "tpch"] {
            for test in ["tpcds", "tpch"] {
                let cell = matrix.cell(train, test).expect("cell present");
                assert_eq!(cell.error_by_count.len(), counts.len());
                assert!(cell.mean_error >= 0.0);
            }
        }
        assert!(matrix.cell("tpcds", "skew").is_none());
        assert!(matrix.generalization_gap().is_finite());
    }

    #[test]
    fn single_family_matrix_has_no_gap() {
        use ae_workload::BuiltinFamily;
        let sets = [eval_set(BuiltinFamily::Tpcds, &["q2", "q17", "q33", "q49"])];
        let matrix = generalization_matrix(&sets, &fast_config(), &[1, 8, 48]).unwrap();
        assert_eq!(matrix.cells.len(), 1);
        assert!(matrix.is_finite());
        assert!(matrix.generalization_gap().is_nan());
    }

    #[test]
    fn generalization_matrix_rejects_empty_input() {
        assert!(matches!(
            generalization_matrix(&[], &fast_config(), &[1, 8]),
            Err(AutoExecutorError::EmptyWorkload)
        ));
    }

    #[test]
    fn cross_family_error_matches_in_family_reference() {
        // A model evaluated through cross_family_error on its own training
        // family must reproduce the plain predict-and-score path.
        let queries = small_queries();
        let config = fast_config();
        let data = TrainingData::collect(&queries, &config).unwrap();
        let actuals = quick_actuals(&queries);
        let model = ParameterModel::train(&data, &config).unwrap();
        let counts = [1usize, 8, 48];
        let via_harness = cross_family_error(&model, &queries, &actuals, &counts).unwrap();
        let predictions: BTreeMap<String, Vec<(usize, f64)>> = queries
            .iter()
            .map(|q| {
                (
                    q.name.clone(),
                    model.predict_curve(&q.plan, &counts).unwrap(),
                )
            })
            .collect();
        let direct = error_by_count(&predictions, &actuals, &counts);
        assert_eq!(via_harness, direct);
    }
}
