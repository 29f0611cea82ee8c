//! Training-data collection and the parameter model (Sections 3.4 and 4.1–4.2).
//!
//! The pipeline mirrors Figure 6's offline half:
//!
//! 1. run each training query **once** at `n = 16` and capture its task log
//!    (query-plan telemetry),
//! 2. augment with Sparklens estimates of the run time at the other
//!    training executor counts,
//! 3. fit the PPM parameters to that per-query curve (these become the
//!    labels),
//! 4. featurize the query plan (Table 2) and train a Random Forest mapping
//!    features → PPM parameters — one training row per query.

use std::sync::Arc;

use ae_engine::allocation::AllocationPolicy;
use ae_engine::plan::QueryPlan;
use ae_engine::scheduler::Simulator;
use ae_ml::compiled::CompiledForest;
use ae_ml::dataset::Dataset;
use ae_ml::forest::{RandomForestConfig, RandomForestRegressor};
use ae_ml::matrix::FeatureMatrix;
use ae_ml::portable::PortableModel;
use ae_ppm::fit::{fit_amdahl, fit_power_law};
use ae_ppm::model::{AmdahlPpm, PowerLawPpm, Ppm, PpmKind};
use ae_sparklens::SparklensAnalyzer;
use ae_workload::QueryInstance;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::config::AutoExecutorConfig;
use crate::features::{featurize_plan, FeatureSet, NUM_FULL_FEATURES};
use crate::{AutoExecutorError, Result};

/// One training example: a query's features, its Sparklens curve, and the
/// PPM parameters fitted to that curve (for both model families).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingExample {
    /// Query name.
    pub name: String,
    /// Registry key of the workload family the query came from (e.g.
    /// `"tpcds"`); empty for curves supplied without family provenance.
    pub family: String,
    /// Full Table-2 feature vector (ordered as
    /// [`crate::features::full_feature_names`]).
    pub full_features: Vec<f64>,
    /// Sparklens run-time estimates at the training executor counts.
    pub sparklens_curve: Vec<(usize, f64)>,
    /// Elapsed time of the single observed run (at the training executor count).
    pub observed_elapsed_secs: f64,
    /// Fitted power-law parameters.
    pub power_law: PowerLawPpm,
    /// Fitted Amdahl parameters.
    pub amdahl: AmdahlPpm,
}

/// A collected training set: one example per query.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainingData {
    /// The examples, in workload order.
    pub examples: Vec<TrainingExample>,
}

impl TrainingData {
    /// Collects training data for a workload by running each query once at
    /// the configured training executor count and extrapolating with
    /// Sparklens (Section 4.1).
    ///
    /// Queries are simulated in parallel; each query's run seeds its noise
    /// generator from `training_run.seed + query_index` exactly as the
    /// sequential loop did, so the collected data is bit-identical at any
    /// worker-thread count.
    pub fn collect(queries: &[QueryInstance], config: &AutoExecutorConfig) -> Result<Self> {
        let simulator = Simulator::new(
            config.cluster,
            AllocationPolicy::static_allocation(config.training_run_executors),
        )
        .map_err(AutoExecutorError::Engine)?;
        let analyzer = SparklensAnalyzer::paper_default();

        let indexed: Vec<(usize, &QueryInstance)> = queries.iter().enumerate().collect();
        let examples = indexed
            .into_par_iter()
            .map(|(idx, query)| {
                let run_cfg = ae_engine::scheduler::RunConfig {
                    seed: config.training_run.seed.wrapping_add(idx as u64),
                    capture_task_log: true,
                    ..config.training_run
                };
                let result = simulator.run(&query.name, &query.dag, &run_cfg);
                let log = result
                    .task_log
                    .as_ref()
                    .expect("task log capture was requested");
                let curve = analyzer.estimate_from_log(log, &config.training_counts);
                Self::example_from_curve(
                    &query.name,
                    &query.family,
                    &query.plan,
                    &curve,
                    result.elapsed_secs,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { examples })
    }

    /// Builds a training example from an already-available run-time curve
    /// (Sparklens estimates or actual runs — the paper supports both).
    pub fn example_from_curve(
        name: &str,
        family: &str,
        plan: &QueryPlan,
        curve: &[(usize, f64)],
        observed_elapsed_secs: f64,
    ) -> Result<TrainingExample> {
        let power_law = fit_power_law(curve).map_err(AutoExecutorError::Fit)?;
        let amdahl = fit_amdahl(curve).map_err(AutoExecutorError::Fit)?;
        Ok(TrainingExample {
            name: name.to_string(),
            family: family.to_string(),
            full_features: featurize_plan(plan),
            sparklens_curve: curve.to_vec(),
            observed_elapsed_secs,
            power_law,
            amdahl,
        })
    }

    /// Number of examples (one per query).
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// True when no examples have been collected.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Restricts the data to the examples at `indices` (cross-validation).
    pub fn subset(&self, indices: &[usize]) -> TrainingData {
        TrainingData {
            examples: indices.iter().map(|&i| self.examples[i].clone()).collect(),
        }
    }

    /// The distinct workload families represented in the data, in first-seen
    /// order (one entry for single-family data, several after merging).
    pub fn families(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for example in &self.examples {
            if !seen.contains(&example.family) {
                seen.push(example.family.clone());
            }
        }
        seen
    }

    /// Restricts the data to the examples of one workload family.
    pub fn family_subset(&self, family: &str) -> TrainingData {
        TrainingData {
            examples: self
                .examples
                .iter()
                .filter(|e| e.family == family)
                .cloned()
                .collect(),
        }
    }

    /// Concatenates another collection's examples onto this one (mixed-family
    /// training sets).
    pub fn merge(&mut self, other: TrainingData) {
        self.examples.extend(other.examples);
    }

    /// The PPM fitted to a given example for the requested family.
    pub fn fitted_ppm(&self, idx: usize, kind: PpmKind) -> Ppm {
        match kind {
            PpmKind::PowerLaw => Ppm::PowerLaw(self.examples[idx].power_law),
            PpmKind::Amdahl => Ppm::Amdahl(self.examples[idx].amdahl),
        }
    }

    /// Converts the examples into an `ae-ml` dataset for the requested PPM
    /// family and feature set: one row per query, features → PPM parameters.
    pub fn to_dataset(&self, kind: PpmKind, feature_set: FeatureSet) -> Result<Dataset> {
        let feature_names = feature_set.feature_names();
        let target_names: Vec<String> = kind
            .parameter_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut dataset = Dataset::new(feature_names, target_names);
        for example in &self.examples {
            let features = feature_set.project(&example.full_features)?;
            let targets = match kind {
                PpmKind::PowerLaw => vec![
                    example.power_law.a,
                    example.power_law.b,
                    example.power_law.m,
                ],
                PpmKind::Amdahl => vec![example.amdahl.s, example.amdahl.p],
            };
            dataset
                .push_row(example.name.clone(), features, targets)
                .map_err(AutoExecutorError::Ml)?;
        }
        Ok(dataset)
    }
}

/// The trained parameter model: a random forest predicting PPM parameters
/// from compile-time plan features.
///
/// The fitted forest is carried in both representations: the interpreted
/// [`RandomForestRegressor`] (training-time tooling walks it) and the
/// [`CompiledForest`] every scoring path runs on — one flat arena of
/// 16-byte tree nodes with a pooled leaf table, compiled once per model, with
/// predictions bit-identical to the interpreter. Both sit behind `Arc`s, so
/// a clone, an export ([`to_portable`](Self::to_portable)) and a decode
/// ([`from_portable`](Self::from_portable)) share them; only
/// [`with_own_arena`](Self::with_own_arena) copies the arena.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParameterModel {
    forest: Arc<RandomForestRegressor>,
    compiled: Arc<CompiledForest>,
    kind: PpmKind,
    feature_set: FeatureSet,
}

impl ParameterModel {
    /// Trains the parameter model on collected training data using the
    /// pipeline configuration.
    pub fn train(data: &TrainingData, config: &AutoExecutorConfig) -> Result<Self> {
        let dataset = data.to_dataset(config.ppm_kind, config.feature_set)?;
        Self::train_on_dataset(&dataset, config.ppm_kind, config.feature_set, config.forest)
    }

    /// Trains the parameter model on an explicit dataset (used by the
    /// cross-validation harness, which builds per-fold datasets).
    pub fn train_on_dataset(
        dataset: &Dataset,
        kind: PpmKind,
        feature_set: FeatureSet,
        forest_config: RandomForestConfig,
    ) -> Result<Self> {
        let mut forest = RandomForestRegressor::new(forest_config);
        forest.fit(dataset).map_err(AutoExecutorError::Ml)?;
        let compiled = Arc::new(forest.compile().map_err(AutoExecutorError::Ml)?);
        Ok(Self {
            forest: Arc::new(forest),
            compiled,
            kind,
            feature_set,
        })
    }

    /// The PPM family this model predicts.
    pub fn kind(&self) -> PpmKind {
        self.kind
    }

    /// The feature set this model consumes.
    pub fn feature_set(&self) -> FeatureSet {
        self.feature_set
    }

    /// Access to the underlying forest (e.g. for permutation importance).
    pub fn forest(&self) -> &RandomForestRegressor {
        &self.forest
    }

    /// The compiled inference representation the scoring paths run on.
    pub fn compiled(&self) -> &CompiledForest {
        &self.compiled
    }

    /// A copy of this model with a compiled arena of its own (~0.6 MB for
    /// a 100-tree serving model), sharing everything else. A scoring
    /// thread makes one so that its kernel reads nodes no other thread
    /// reads: two threads walking one shared arena each score slower than
    /// one thread alone. Predictions are bit-identical: the copy holds the
    /// same bits.
    pub fn with_own_arena(&self) -> Self {
        Self {
            forest: Arc::clone(&self.forest),
            compiled: Arc::new(CompiledForest::clone(&self.compiled)),
            kind: self.kind,
            feature_set: self.feature_set,
        }
    }

    /// Predicts the PPM for a query plan (features are derived internally).
    pub fn predict_ppm(&self, plan: &QueryPlan) -> Result<Ppm> {
        self.predict_ppm_from_full_features(&featurize_plan(plan))
    }

    /// Predicts the PPM from an already-computed *full* feature vector,
    /// projected through the feature set's static column table (`F0` scores
    /// the vector as it is). Inference runs on the compiled forest
    /// (bit-identical to the interpreted walk). Fails with
    /// [`AutoExecutorError::FeatureWidth`] unless the vector has all
    /// [`NUM_FULL_FEATURES`] columns.
    pub fn predict_ppm_from_full_features(&self, full_features: &[f64]) -> Result<Ppm> {
        let mut buf = [0.0; NUM_FULL_FEATURES];
        let row = self.feature_set.project_into(full_features, &mut buf)?;
        let params = self.compiled.predict(row).map_err(AutoExecutorError::Ml)?;
        Ok(Ppm::from_parameters(self.kind, &params))
    }

    /// Predicts PPMs for a whole batch of *full* feature vectors at once —
    /// the inference stage of the batched serving path. The rows are
    /// projected through the feature set's static column table (`F0`
    /// scores the matrix as it is), and the compiled kernel accumulates
    /// into one flat output buffer (zero per-row allocation) from which the
    /// PPMs are constructed directly (`ae_ppm::ppms_from_flat`); each
    /// returned PPM is bit-identical to what
    /// [`predict_ppm_from_full_features`] yields for the same row.
    ///
    /// [`predict_ppm_from_full_features`]: Self::predict_ppm_from_full_features
    pub fn predict_ppm_batch(&self, full_rows: &FeatureMatrix) -> Result<Vec<Ppm>> {
        let projected = self.feature_set.project_rows(full_rows)?;
        let k = self.compiled.num_outputs();
        let mut flat = vec![0.0; projected.len() * k];
        self.compiled
            .predict_batch_into(&projected, &mut flat)
            .map_err(AutoExecutorError::Ml)?;
        Ok(ae_ppm::ppms_from_flat(self.kind, &flat, k))
    }

    /// Predicts the run-time curve for a plan over candidate executor counts.
    pub fn predict_curve(&self, plan: &QueryPlan, counts: &[usize]) -> Result<Vec<(usize, f64)>> {
        Ok(self.predict_ppm(plan)?.predict_curve(counts))
    }

    /// Exports the model to the portable (ONNX-stand-in) format, sharing
    /// its forest and compiled arena (no copy, no recompilation).
    pub fn to_portable(&self, name: impl Into<String>) -> Result<PortableModel> {
        PortableModel::from_compiled(name, Arc::clone(&self.forest), Arc::clone(&self.compiled))
            .map_err(AutoExecutorError::Ml)
    }

    /// Reconstructs a parameter model from a portable model. The PPM family
    /// is inferred from the portable model's target names and the feature
    /// set from its feature names.
    pub fn from_portable(portable: &PortableModel) -> Result<Self> {
        let kind = if portable.target_names == PpmKind::PowerLaw.parameter_names() {
            PpmKind::PowerLaw
        } else if portable.target_names == PpmKind::Amdahl.parameter_names() {
            PpmKind::Amdahl
        } else {
            return Err(AutoExecutorError::InvalidModel(format!(
                "unrecognised target names {:?}",
                portable.target_names
            )));
        };
        let feature_set = FeatureSet::ALL
            .into_iter()
            .find(|set| set.feature_names() == portable.feature_names)
            .ok_or_else(|| {
                AutoExecutorError::InvalidModel(format!(
                    "feature names {:?} match no known feature set",
                    portable.feature_names
                ))
            })?;
        Ok(Self {
            // Share the portable model's forest and the arena it compiled
            // at construction or deserialization (`Arc` clones): a decode
            // copies and recompiles nothing.
            forest: portable.forest_handle(),
            compiled: portable.compiled_handle(),
            kind,
            feature_set,
        })
    }
}

/// Full convenience pipeline: collect training data and train the model.
pub fn train_from_workload(
    queries: &[QueryInstance],
    config: &AutoExecutorConfig,
) -> Result<(TrainingData, ParameterModel)> {
    let data = TrainingData::collect(queries, config)?;
    if data.is_empty() {
        return Err(AutoExecutorError::EmptyWorkload);
    }
    let model = ParameterModel::train(&data, config)?;
    Ok((data, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_workload::{ScaleFactor, WorkloadGenerator};

    fn small_workload() -> Vec<QueryInstance> {
        let generator = WorkloadGenerator::new(ScaleFactor::SF10);
        ["q1", "q5", "q12", "q42", "q69", "q94", "q23b", "q77"]
            .iter()
            .map(|name| generator.instance(name))
            .collect()
    }

    fn fast_config() -> AutoExecutorConfig {
        let mut cfg = AutoExecutorConfig::default();
        cfg.forest.n_estimators = 10;
        cfg.training_run.noise_cv = 0.0;
        cfg
    }

    #[test]
    fn collect_produces_one_example_per_query() {
        let queries = small_workload();
        let data = TrainingData::collect(&queries, &fast_config()).unwrap();
        assert_eq!(data.len(), queries.len());
        for example in &data.examples {
            assert_eq!(example.family, "tpcds");
            assert_eq!(example.sparklens_curve.len(), 6);
            assert_eq!(example.full_features.len(), NUM_FULL_FEATURES);
            assert!(example.observed_elapsed_secs > 0.0);
            // Fitted PPMs are monotone and positive at n=1.
            assert!(example.power_law.predict(1.0) > 0.0);
            assert!(example.amdahl.predict(1.0) > 0.0);
        }
    }

    #[test]
    fn dataset_shape_matches_parametric_design() {
        // One row per query regardless of how many configurations were
        // estimated — the paper's key training-set reduction.
        let queries = small_workload();
        let data = TrainingData::collect(&queries, &fast_config()).unwrap();
        let ds_pl = data.to_dataset(PpmKind::PowerLaw, FeatureSet::F0).unwrap();
        assert_eq!(ds_pl.len(), queries.len());
        assert_eq!(ds_pl.num_targets(), 3);
        let ds_al = data.to_dataset(PpmKind::Amdahl, FeatureSet::F2).unwrap();
        assert_eq!(ds_al.num_targets(), 2);
        assert_eq!(ds_al.num_features(), 2);
    }

    #[test]
    fn trained_model_predicts_monotone_curves() {
        let queries = small_workload();
        let cfg = fast_config();
        let (_, model) = train_from_workload(&queries, &cfg).unwrap();
        for query in &queries {
            let curve = model
                .predict_curve(&query.plan, &cfg.candidate_counts())
                .unwrap();
            for pair in curve.windows(2) {
                assert!(pair[1].1 <= pair[0].1 + 1e-9, "{}", query.name);
            }
            assert!(curve[0].1 > 0.0);
        }
    }

    #[test]
    fn portable_roundtrip_preserves_predictions() {
        let queries = small_workload();
        let cfg = fast_config();
        let (_, model) = train_from_workload(&queries, &cfg).unwrap();
        let portable = model.to_portable("roundtrip").unwrap();
        let restored = ParameterModel::from_portable(&portable).unwrap();
        assert_eq!(restored.kind(), model.kind());
        assert_eq!(restored.feature_set(), model.feature_set());
        let plan = &queries[0].plan;
        assert_eq!(
            model.predict_ppm(plan).unwrap().parameters(),
            restored.predict_ppm(plan).unwrap().parameters()
        );
    }

    #[test]
    fn export_and_decode_share_the_forest_and_only_own_arena_copies() {
        let queries = small_workload();
        let (_, model) = train_from_workload(&queries, &fast_config()).unwrap();
        let decoded = ParameterModel::from_portable(&model.to_portable("shared").unwrap()).unwrap();
        assert!(std::ptr::eq(decoded.forest(), model.forest()));
        assert!(std::ptr::eq(decoded.compiled(), model.compiled()));

        let own = decoded.with_own_arena();
        assert!(std::ptr::eq(own.forest(), model.forest()));
        assert!(!std::ptr::eq(own.compiled(), model.compiled()));
        let bits = |m: &ParameterModel, plan| -> Vec<u64> {
            let ppm = m.predict_ppm(plan).unwrap();
            ppm.parameters().iter().map(|v| v.to_bits()).collect()
        };
        for query in &queries {
            assert_eq!(bits(&own, &query.plan), bits(&model, &query.plan));
        }
    }

    #[test]
    fn from_portable_rejects_foreign_models() {
        // A forest with unrelated target names cannot become a parameter model.
        let mut ds = Dataset::new(vec!["x".into()], vec!["weird".into()]);
        for i in 0..10 {
            ds.push_row(format!("r{i}"), vec![i as f64], vec![i as f64])
                .unwrap();
        }
        let mut forest = RandomForestRegressor::new(RandomForestConfig {
            n_estimators: 3,
            ..Default::default()
        });
        forest.fit(&ds).unwrap();
        let portable = PortableModel::from_forest("weird", forest).unwrap();
        assert!(ParameterModel::from_portable(&portable).is_err());
    }

    #[test]
    fn family_identity_threads_through_collection_and_merging() {
        use ae_workload::BuiltinFamily;
        let cfg = fast_config();
        let tpcds = TrainingData::collect(&small_workload(), &cfg).unwrap();
        let tpch_suite: Vec<QueryInstance> = {
            let generator = WorkloadGenerator::builtin(BuiltinFamily::Tpch, ScaleFactor::SF10);
            ["h1", "h4", "h9", "h17"]
                .iter()
                .map(|n| generator.instance(n))
                .collect()
        };
        let tpch = TrainingData::collect(&tpch_suite, &cfg).unwrap();
        assert_eq!(tpch.families(), vec!["tpch".to_string()]);

        let mut mixed = tpcds.clone();
        mixed.merge(tpch);
        assert_eq!(
            mixed.families(),
            vec!["tpcds".to_string(), "tpch".to_string()]
        );
        assert_eq!(mixed.family_subset("tpch").len(), 4);
        assert_eq!(mixed.family_subset("tpcds").len(), tpcds.len());
        assert!(mixed.family_subset("nope").is_empty());
        // A mixed-family dataset still trains.
        let model = ParameterModel::train(&mixed, &cfg).unwrap();
        assert_eq!(model.kind(), cfg.ppm_kind);
    }

    #[test]
    fn subset_restricts_examples() {
        let queries = small_workload();
        let data = TrainingData::collect(&queries, &fast_config()).unwrap();
        let sub = data.subset(&[0, 3]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.examples[1].name, data.examples[3].name);
    }

    #[test]
    fn short_feature_vectors_are_rejected() {
        let queries = small_workload();
        for set in [FeatureSet::F0, FeatureSet::F2] {
            let cfg = fast_config().with_feature_set(set);
            let (_, model) = train_from_workload(&queries, &cfg).unwrap();
            let narrow = [1.0, 2.0];
            assert!(matches!(
                model.predict_ppm_from_full_features(&narrow),
                Err(AutoExecutorError::FeatureWidth {
                    expected: 19,
                    actual: 2
                })
            ));
            let matrix = FeatureMatrix::from_rows(&[narrow.to_vec()]).unwrap();
            assert!(matches!(
                model.predict_ppm_batch(&matrix),
                Err(AutoExecutorError::FeatureWidth {
                    expected: 19,
                    actual: 2
                })
            ));
        }
    }

    #[test]
    fn projected_batches_match_single_rows() {
        let queries = small_workload();
        let cfg = fast_config().with_feature_set(FeatureSet::F1);
        let (_, model) = train_from_workload(&queries, &cfg).unwrap();
        let mut matrix = FeatureMatrix::new(NUM_FULL_FEATURES);
        for query in &queries {
            matrix.push_row(&featurize_plan(&query.plan)).unwrap();
        }
        let batched = model.predict_ppm_batch(&matrix).unwrap();
        for (row, ppm) in matrix.rows().zip(&batched) {
            let single = model.predict_ppm_from_full_features(row).unwrap();
            let interpreted = model
                .forest()
                .predict(&FeatureSet::F1.project(row).unwrap())
                .unwrap();
            assert_eq!(single.parameters(), ppm.parameters());
            assert_eq!(single.parameters(), interpreted);
        }
    }

    #[test]
    fn amdahl_configuration_trains_too() {
        let queries = small_workload();
        let cfg = fast_config().with_ppm_kind(PpmKind::Amdahl);
        let (_, model) = train_from_workload(&queries, &cfg).unwrap();
        assert_eq!(model.kind(), PpmKind::Amdahl);
        let ppm = model.predict_ppm(&queries[2].plan).unwrap();
        assert!(matches!(ppm, Ppm::Amdahl(_)));
    }
}
