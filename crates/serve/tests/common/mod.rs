//! The trained fixture the serving integration tests share.

use std::sync::Arc;

use ae_workload::{QueryInstance, ScaleFactor, WorkloadGenerator};
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;

/// Trains a `trees`-tree forest with seed `seed` on noise-free runs of the
/// `training` SF10 TPC-DS queries, registers it as `"ppm"`, and returns
/// the registry, the training configuration and the `scoring` queries.
pub fn fixture(
    training: &[&str],
    trees: usize,
    seed: u64,
    scoring: &[&str],
) -> (Arc<ModelRegistry>, AutoExecutorConfig, Vec<QueryInstance>) {
    let generator = WorkloadGenerator::new(ScaleFactor::SF10);
    let instances = |names: &[&str]| -> Vec<QueryInstance> {
        names.iter().map(|n| generator.instance(n)).collect()
    };
    let mut config = AutoExecutorConfig::default();
    config.forest.n_estimators = trees;
    config.forest.seed = seed;
    config.training_run.noise_cv = 0.0;
    let (_, model) = train_from_workload(&instances(training), &config).unwrap();
    let registry = Arc::new(ModelRegistry::in_memory());
    registry
        .register("ppm", model.to_portable("ppm").unwrap())
        .unwrap();
    (registry, config, instances(scoring))
}
