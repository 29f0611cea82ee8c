//! The non-parametric baseline model the paper contrasts against (§3.4).
//!
//! Instead of predicting a handful of PPM parameters once per query, a
//! non-parametric model regresses the run time directly from
//! `(plan features, executor count)` pairs. That design needs one training
//! row per *(query, configuration)* — `103 × c_tr` rows instead of 103 — and
//! one model scoring per *candidate* configuration instead of one per query.
//! The paper argues the parametric PPM is preferable on training-set size,
//! model size, and scoring cost; this module provides the baseline so those
//! claims can be measured (`experiments -- overheads` prints all three, and
//! the unit tests below check the first two).

use ae_engine::plan::QueryPlan;
use ae_ml::dataset::Dataset;
use ae_ml::forest::RandomForestRegressor;
use serde::{Deserialize, Serialize};

use crate::config::AutoExecutorConfig;
use crate::features::{featurize_plan, FeatureSet};
use crate::training::TrainingData;
use crate::{AutoExecutorError, Result};

/// Name of the synthetic "executor count" feature column appended to the
/// plan features.
pub const EXECUTOR_COUNT_FEATURE: &str = "ExecutorCount";

/// A non-parametric run-time model: features + executor count → seconds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NonParametricModel {
    forest: RandomForestRegressor,
    feature_set: FeatureSet,
    training_rows: usize,
}

impl NonParametricModel {
    /// Trains the baseline on the same collected training data the
    /// parametric pipeline uses, with `config`'s feature set and forest
    /// settings: every `(query, executor count)` point of the
    /// Sparklens-augmented curves becomes one training row.
    pub fn train(data: &TrainingData, config: &AutoExecutorConfig) -> Result<Self> {
        let feature_set = config.feature_set;
        if data.is_empty() {
            return Err(AutoExecutorError::EmptyWorkload);
        }
        let mut feature_names = feature_set.feature_names();
        feature_names.push(EXECUTOR_COUNT_FEATURE.to_string());
        let mut dataset = Dataset::new(feature_names, vec!["time_secs".to_string()]);
        let mut rows = 0usize;
        for example in &data.examples {
            let projected = feature_set.project(&example.full_features)?;
            for &(n, t) in &example.sparklens_curve {
                let mut row = projected.clone();
                row.push(n as f64);
                dataset
                    .push_row(format!("{}@{n}", example.name), row, vec![t])
                    .map_err(AutoExecutorError::Ml)?;
                rows += 1;
            }
        }
        let mut forest = RandomForestRegressor::new(config.forest);
        forest.fit(&dataset).map_err(AutoExecutorError::Ml)?;
        Ok(Self {
            forest,
            feature_set,
            training_rows: rows,
        })
    }

    /// Number of rows the training set contained (`queries × configurations`).
    pub fn training_rows(&self) -> usize {
        self.training_rows
    }

    /// Total tree nodes — a proxy for the serialized model size, for
    /// comparison against the parametric model.
    pub fn total_nodes(&self) -> usize {
        self.forest.total_nodes()
    }

    /// Predicts the run time of a plan at one executor count. Note that this
    /// is one forest scoring per candidate configuration.
    pub fn predict_time(&self, plan: &QueryPlan, executors: usize) -> Result<f64> {
        let mut row = self.feature_set.project(&featurize_plan(plan))?;
        row.push(executors.max(1) as f64);
        let out = self.forest.predict(&row).map_err(AutoExecutorError::Ml)?;
        Ok(out[0])
    }

    /// Predicts the full curve over candidate counts (scores the forest once
    /// per count — the cost the parametric design avoids).
    pub fn predict_curve(&self, plan: &QueryPlan, counts: &[usize]) -> Result<Vec<(usize, f64)>> {
        counts
            .iter()
            .map(|&n| self.predict_time(plan, n).map(|t| (n, t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::ParameterModel;
    use ae_workload::{QueryInstance, ScaleFactor, WorkloadGenerator};

    fn inputs() -> (Vec<QueryInstance>, AutoExecutorConfig, TrainingData) {
        let generator = WorkloadGenerator::new(ScaleFactor::SF10);
        let queries: Vec<_> = ["q6", "q16", "q28", "q37", "q48", "q59", "q70", "q94"]
            .iter()
            .map(|n| generator.instance(n))
            .collect();
        let mut config = AutoExecutorConfig::default();
        config.forest.n_estimators = 10;
        config.training_run.noise_cv = 0.0;
        let data = TrainingData::collect(&queries, &config).unwrap();
        (queries, config, data)
    }

    #[test]
    fn training_set_is_one_row_per_query_configuration() {
        let (queries, config, data) = inputs();
        let model = NonParametricModel::train(&data, &config).unwrap();
        assert_eq!(
            model.training_rows(),
            queries.len() * config.training_counts.len()
        );
    }

    #[test]
    fn predictions_are_positive_and_roughly_decreasing() {
        let (queries, config, data) = inputs();
        let model = NonParametricModel::train(&data, &config).unwrap();
        for query in &queries {
            let curve = model
                .predict_curve(&query.plan, &config.training_counts)
                .unwrap();
            assert!(curve.iter().all(|&(_, t)| t > 0.0));
            // Unlike the PPM, monotonicity is NOT guaranteed — but the broad
            // trend from n=1 to n=48 must still point downward.
            assert!(
                curve.first().unwrap().1 >= curve.last().unwrap().1 * 0.8,
                "{}: {curve:?}",
                query.name
            );
        }
    }

    #[test]
    fn baseline_model_is_larger_than_parametric_model() {
        // The paper's §3.4 size argument: more training rows produce bigger
        // forests for the same hyper-parameters.
        let (_, config, data) = inputs();
        let baseline = NonParametricModel::train(&data, &config).unwrap();
        let parametric = ParameterModel::train(&data, &config).unwrap();
        assert!(
            baseline.total_nodes() > parametric.forest().total_nodes(),
            "baseline {} nodes vs parametric {}",
            baseline.total_nodes(),
            parametric.forest().total_nodes()
        );
    }

    #[test]
    fn empty_training_data_is_rejected() {
        let config = AutoExecutorConfig::default();
        let empty = TrainingData::default();
        assert!(matches!(
            NonParametricModel::train(&empty, &config),
            Err(AutoExecutorError::EmptyWorkload)
        ));
    }
}
