//! # AutoExecutor — predictive price-performance optimization for serverless query processing
//!
//! A from-scratch Rust reproduction of *"Predictive Price-Performance
//! Optimization for Serverless Query Processing"* (Sen, Roy, Jindal — EDBT
//! 2023). AutoExecutor predicts, **before a query runs**, how its run time
//! scales with the number of executors, and uses that prediction to request
//! a near-optimal executor count from inside the query optimizer, combining
//! predictive allocation with reactive deallocation.
//!
//! ## Crate map
//!
//! * [`features`] — Table-2 plan featurization and the F0–F3 ablation sets.
//! * [`config`] — end-to-end pipeline configuration.
//! * [`training`] — training-data collection (single run + Sparklens
//!   augmentation + PPM label fitting) and the random-forest parameter model.
//! * [`registry`] — the model registry (ONNX-registry stand-in): sharded,
//!   read-mostly, handing out `Arc` model handles.
//! * [`optimizer`] — the rule-based optimizer with the AutoExecutor
//!   extension rule (model load/cache → featurize → predict → select →
//!   request).
//! * [`scoring`] — the shared predict/select scoring path driven by both
//!   the optimizer rule and the `ae-serve` concurrent serving runtime
//!   (single-query and batched entry points, bit-identical results).
//! * [`execution`] — running queries under static / dynamic / predictive
//!   allocation policies for the cost-saving comparisons.
//! * [`evaluation`] — ground-truth collection, the `E(n)` metric, repeated
//!   cross-validation, selection-impact and ratio summaries.
//! * [`overheads`] — the Section 5.6 overhead measurements.
//!
//! ## Quickstart
//!
//! ```
//! use autoexecutor::prelude::*;
//! use std::sync::Arc;
//!
//! // A small training workload (synthetic TPC-DS-like queries at SF=10).
//! let generator = WorkloadGenerator::new(ScaleFactor::SF10);
//! let queries: Vec<_> = ["q3", "q19", "q42", "q68", "q94"]
//!     .iter()
//!     .map(|name| generator.instance(name))
//!     .collect();
//!
//! // Train the parameter model (a small forest keeps the doctest fast).
//! let mut config = AutoExecutorConfig::default();
//! config.forest.n_estimators = 10;
//! let (_data, model) = train_from_workload(&queries, &config).unwrap();
//!
//! // Publish it and let the optimizer rule pick an executor count.
//! let registry = Arc::new(ModelRegistry::in_memory());
//! registry.register("ppm", model.to_portable("ppm").unwrap()).unwrap();
//! let optimizer = Optimizer::with_default_rules()
//!     .with_rule(Box::new(AutoExecutorRule::from_config(registry, "ppm", &config)));
//!
//! let outcome = optimizer.optimize(generator.instance("q7").plan).unwrap();
//! let request = outcome.resource_request.unwrap();
//! assert!((1..=48).contains(&request.executors));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod baseline;
pub mod config;
pub mod evaluation;
pub mod execution;
pub mod features;
pub mod optimizer;
pub mod overheads;
pub mod registry;
pub mod scoring;
pub mod sizing;
pub mod training;

/// Errors surfaced by the AutoExecutor pipeline.
#[derive(Debug)]
pub enum AutoExecutorError {
    /// The execution simulator rejected a configuration or DAG.
    Engine(ae_engine::EngineError),
    /// The ML substrate failed (fitting, scoring, serialization).
    Ml(ae_ml::MlError),
    /// PPM fitting failed.
    Fit(ae_ppm::fit::FitError),
    /// A requested model is not present in the registry.
    ModelNotFound(String),
    /// A portable model is structurally incompatible with AutoExecutor.
    InvalidModel(String),
    /// The training workload is empty.
    EmptyWorkload,
    /// A feature vector does not have the full Table-2 width.
    FeatureWidth {
        /// The full Table-2 width.
        expected: usize,
        /// The width supplied.
        actual: usize,
    },
}

impl std::fmt::Display for AutoExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutoExecutorError::Engine(e) => write!(f, "engine error: {e}"),
            AutoExecutorError::Ml(e) => write!(f, "ml error: {e}"),
            AutoExecutorError::Fit(e) => write!(f, "ppm fit error: {e}"),
            AutoExecutorError::ModelNotFound(name) => write!(f, "model '{name}' not found"),
            AutoExecutorError::InvalidModel(s) => write!(f, "invalid model: {s}"),
            AutoExecutorError::EmptyWorkload => write!(f, "training workload is empty"),
            AutoExecutorError::FeatureWidth { expected, actual } => write!(
                f,
                "feature vector has {actual} columns, expected the {expected} Table-2 features"
            ),
        }
    }
}

impl std::error::Error for AutoExecutorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AutoExecutorError::Engine(e) => Some(e),
            AutoExecutorError::Ml(e) => Some(e),
            AutoExecutorError::Fit(e) => Some(e),
            _ => None,
        }
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, AutoExecutorError>;

pub use baseline::NonParametricModel;
pub use config::AutoExecutorConfig;
pub use evaluation::{
    cross_validate, error_by_count, ratio_averages, selection_impacts, ActualRuns,
    CrossValidationConfig, CrossValidationReport,
};
pub use execution::{compare_allocations, run_with_policy, AllocationComparison};
pub use features::{featurize_plan, full_feature_names, FeatureSet};
pub use optimizer::{
    AutoExecutorRule, Optimizer, OptimizerContext, OptimizerRule, ResourceRequest,
};
pub use overheads::{measure_overheads, OverheadReport};
pub use registry::ModelRegistry;
pub use scoring::{score_feature_batch, score_features, ScoredQuery};
pub use sizing::{recommend_sizing, SizingRecommendation};
pub use training::{train_from_workload, ParameterModel, TrainingData, TrainingExample};

/// Commonly used items from this crate and its substrates.
pub mod prelude {
    pub use crate::config::AutoExecutorConfig;
    pub use crate::evaluation::{
        cross_validate, error_by_count, ActualRuns, CrossValidationConfig,
    };
    pub use crate::execution::compare_allocations;
    pub use crate::features::FeatureSet;
    pub use crate::optimizer::{AutoExecutorRule, Optimizer};
    pub use crate::registry::ModelRegistry;
    pub use crate::training::{train_from_workload, ParameterModel, TrainingData};
    pub use ae_engine::{AllocationPolicy, ClusterConfig, RunConfig, Simulator};
    pub use ae_ppm::model::{Ppm, PpmKind};
    pub use ae_ppm::selection::SelectionObjective;
    pub use ae_sparklens::SparklensAnalyzer;
    pub use ae_workload::{ProductionWorkload, ScaleFactor, WorkloadGenerator};
}
