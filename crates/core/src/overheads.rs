//! Training and scoring overhead measurement (Section 5.6).
//!
//! The paper reports per-step costs of the offline and online pipeline:
//! PPM-parameter fitting per training point, random-forest training time,
//! model size on disk, plan featurization time, one-time model load/setup
//! time, and per-query inference time. [`measure_overheads`] reproduces the
//! same breakdown on a given workload.

use std::time::{Duration, Instant};

use ae_ml::portable::ScoringRuntime;
use ae_ppm::fit::{fit_amdahl, fit_power_law};
use ae_workload::QueryInstance;
use serde::{Deserialize, Serialize};

use crate::config::AutoExecutorConfig;
use crate::features::featurize_plan;
use crate::training::{ParameterModel, TrainingData};
use crate::Result;

/// Measured overheads of the AutoExecutor pipeline.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OverheadReport {
    /// Number of training queries the measurement used.
    pub training_queries: usize,
    /// Mean time to fit the PPM parameters for one training data point.
    pub ppm_fit_per_point: Duration,
    /// Time to train the random-forest parameter model on the full dataset.
    pub forest_training: Duration,
    /// Size of the exported portable model in bytes.
    pub portable_model_bytes: usize,
    /// Mean plan-featurization time per query.
    pub featurization_per_query: Duration,
    /// One-time model deserialisation (load) time.
    pub model_load: Duration,
    /// One-time scoring-session setup time.
    pub session_setup: Duration,
    /// Mean per-query parameter-model inference time.
    pub inference_per_query: Duration,
}

/// Measures the Section 5.6 overheads on previously collected training data.
pub fn measure_overheads(
    queries: &[QueryInstance],
    data: &TrainingData,
    config: &AutoExecutorConfig,
) -> Result<OverheadReport> {
    // PPM fit time per training point (both model families, as in training).
    let fit_start = Instant::now();
    for example in &data.examples {
        let _ = fit_power_law(&example.sparklens_curve);
        let _ = fit_amdahl(&example.sparklens_curve);
    }
    let ppm_fit_per_point = if data.is_empty() {
        Duration::ZERO
    } else {
        fit_start.elapsed() / data.len() as u32
    };

    // Forest training time.
    let train_start = Instant::now();
    let model = ParameterModel::train(data, config)?;
    let forest_training = train_start.elapsed();

    // Export + measure model size, then load it back through the portable
    // scoring path to time load and session setup.
    let portable = model.to_portable("overheads")?;
    let bytes = portable.to_bytes().map_err(crate::AutoExecutorError::Ml)?;
    let portable_model_bytes = bytes.len();
    let mut runtime = ScoringRuntime::from_bytes(&bytes).map_err(crate::AutoExecutorError::Ml)?;

    // Featurization and inference per query.
    let mut featurization_total = Duration::ZERO;
    let mut inference_total = Duration::ZERO;
    for query in queries {
        let feat_start = Instant::now();
        let features = featurize_plan(&query.plan);
        featurization_total += feat_start.elapsed();

        let projected = config.feature_set.project(&features)?;
        let infer_start = Instant::now();
        let _ = runtime
            .score(&projected)
            .map_err(crate::AutoExecutorError::Ml)?;
        inference_total += infer_start.elapsed();
    }
    let per_query = |total: Duration| {
        if queries.is_empty() {
            Duration::ZERO
        } else {
            total / queries.len() as u32
        }
    };

    Ok(OverheadReport {
        training_queries: data.len(),
        ppm_fit_per_point,
        forest_training,
        portable_model_bytes,
        featurization_per_query: per_query(featurization_total),
        model_load: runtime.stats().load_time,
        session_setup: runtime.stats().setup_time,
        inference_per_query: per_query(inference_total),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_workload::{ScaleFactor, WorkloadGenerator};

    #[test]
    fn overhead_report_has_sensible_values() {
        let generator = WorkloadGenerator::new(ScaleFactor::SF10);
        let queries: Vec<QueryInstance> = ["q4", "q18", "q52", "q88"]
            .iter()
            .map(|n| generator.instance(n))
            .collect();
        let mut config = AutoExecutorConfig::default();
        config.forest.n_estimators = 10;
        config.training_run.noise_cv = 0.0;
        let data = TrainingData::collect(&queries, &config).unwrap();
        let report = measure_overheads(&queries, &data, &config).unwrap();

        assert_eq!(report.training_queries, 4);
        assert!(report.portable_model_bytes > 0);
        assert!(report.forest_training > Duration::ZERO);
        // Per-query costs are small but non-zero.
        assert!(report.inference_per_query > Duration::ZERO);
        assert!(report.featurization_per_query < Duration::from_secs(1));
    }
}
