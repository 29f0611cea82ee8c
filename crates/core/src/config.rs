//! System-wide configuration of AutoExecutor.

use ae_engine::cluster::ClusterConfig;
use ae_engine::scheduler::RunConfig;
use ae_ml::forest::RandomForestConfig;
use ae_ppm::model::PpmKind;
use ae_ppm::selection::SelectionObjective;
use serde::{Deserialize, Serialize};

use crate::features::FeatureSet;

/// Configuration of the end-to-end AutoExecutor pipeline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AutoExecutorConfig {
    /// Which PPM family the parameter model predicts.
    pub ppm_kind: PpmKind,
    /// Which feature set the parameter model is trained on.
    pub feature_set: FeatureSet,
    /// Executor count used for the single training run per query
    /// (the paper runs every training query once at n = 16).
    pub training_run_executors: usize,
    /// Executor counts at which Sparklens estimates are generated to fit the
    /// PPM labels.
    pub training_counts: [usize; 6],
    /// Candidate executor counts considered when selecting a configuration.
    pub min_candidate_executors: usize,
    /// Upper end of the candidate range (48 in the paper's setup).
    pub max_candidate_executors: usize,
    /// The default selection objective of the optimizer rule (the paper's
    /// default picks the point "right before the performance flattens").
    pub objective: SelectionObjective,
    /// Random-forest hyper-parameters for the parameter model.
    pub forest: RandomForestConfig,
    /// Cluster the queries run on.
    pub cluster: ClusterConfig,
    /// Per-run simulation settings used while collecting training data.
    pub training_run: RunConfig,
}

impl Default for AutoExecutorConfig {
    fn default() -> Self {
        Self {
            ppm_kind: PpmKind::PowerLaw,
            feature_set: FeatureSet::F0,
            training_run_executors: 16,
            training_counts: [1, 3, 8, 16, 32, 48],
            min_candidate_executors: 1,
            max_candidate_executors: 48,
            objective: SelectionObjective::Elbow,
            forest: RandomForestConfig::paper_default(42),
            cluster: ClusterConfig::paper_default(),
            training_run: RunConfig {
                capture_task_log: true,
                ..RunConfig::default()
            },
        }
    }
}

impl AutoExecutorConfig {
    /// Candidate executor counts as a vector (`min..=max`).
    pub fn candidate_counts(&self) -> Vec<usize> {
        (self.min_candidate_executors..=self.max_candidate_executors).collect()
    }

    /// Sets the selection objective.
    pub fn with_objective(mut self, objective: SelectionObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the PPM family.
    pub fn with_ppm_kind(mut self, kind: PpmKind) -> Self {
        self.ppm_kind = kind;
        self
    }

    /// Sets the feature set (for ablations).
    pub fn with_feature_set(mut self, set: FeatureSet) -> Self {
        self.feature_set = set;
        self
    }

    /// Sets the forest seed (used by cross-validation repeats).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.forest.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let cfg = AutoExecutorConfig::default();
        assert_eq!(cfg.training_run_executors, 16);
        assert_eq!(cfg.training_counts, [1, 3, 8, 16, 32, 48]);
        assert_eq!(cfg.max_candidate_executors, 48);
        assert_eq!(cfg.forest.n_estimators, 100);
        assert!(cfg.training_run.capture_task_log);
        assert_eq!(cfg.candidate_counts().len(), 48);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = AutoExecutorConfig::default()
            .with_ppm_kind(PpmKind::Amdahl)
            .with_feature_set(FeatureSet::F2)
            .with_objective(SelectionObjective::BoundedSlowdown(1.05))
            .with_seed(7);
        assert_eq!(cfg.ppm_kind, PpmKind::Amdahl);
        assert_eq!(cfg.feature_set, FeatureSet::F2);
        assert_eq!(cfg.forest.seed, 7);
        assert!(matches!(
            cfg.objective,
            SelectionObjective::BoundedSlowdown(h) if (h - 1.05).abs() < 1e-12
        ));
    }
}
