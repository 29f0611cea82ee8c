//! # ae-ml — machine-learning substrate for the AutoExecutor reproduction
//!
//! The paper trains its *parameter model* with scikit-learn's
//! `RandomForestRegressor` and ships it to the query optimizer as an ONNX
//! model. Neither scikit-learn nor an ONNX runtime is available to this
//! reproduction, so this crate provides the pieces from scratch:
//!
//! * [`dataset`] — feature matrices, train/test splits, k-fold and repeated
//!   k-fold cross-validation.
//! * [`linreg`] — ordinary-least-squares linear regression (used to fit the
//!   PPM parameters in log space / `1/n` space).
//! * [`tree`] — CART regression trees with multi-output targets, grown
//!   from per-tree presorted feature lists (a counting sort by ranks taken
//!   once per fit) that each split partitions (no per-node sorting;
//!   bit-identical to it).
//! * [`forest`] — bagged random forests over those trees (the parameter
//!   model), mirroring scikit-learn's defaults (100 estimators).
//! * [`compiled`] — the fitted forest compiled into one flat tree arena
//!   of 16-byte node records (leaves as self-loops) with a pooled leaf
//!   table and one branchless kernel walking blocks of 8 trees in lockstep
//!   (the inference representation of every scoring path, one row or
//!   many; bit-identical to the interpreter).
//! * [`importance`] — permutation feature importance (Figure 15).
//! * [`matrix`] — flat row-major feature matrices for the batched serving
//!   path (one contiguous buffer per batch instead of a `Vec` per request).
//! * [`portable`] — a compact, serialisable model format that scores
//!   through the compiled forest, standing in for the ONNX export/score
//!   path.
//! * [`metrics`] — the error metrics used throughout the evaluation.
//!
//! Everything is deterministic given a seed so experiments are reproducible.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod compiled;
pub mod dataset;
pub mod forest;
pub mod importance;
pub mod json;
pub mod linreg;
pub mod matrix;
pub mod metrics;
pub mod portable;
pub mod tree;

pub use compiled::CompiledForest;
pub use dataset::{Dataset, FoldSplit, KFold, RepeatedKFold};
pub use forest::{RandomForestConfig, RandomForestRegressor};
pub use importance::{permutation_importance, ImportanceReport};
pub use linreg::SimpleLinearFit;
pub use matrix::FeatureMatrix;
pub use portable::PortableModel;
pub use tree::{DecisionTreeConfig, DecisionTreeRegressor};

/// Errors produced by the ML substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// The dataset is empty or otherwise unusable for the requested operation.
    EmptyDataset,
    /// The shapes of features and targets disagree.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A model was asked to predict before being fitted.
    NotFitted,
    /// (De)serialisation of a portable model failed.
    Serialization(String),
    /// Numerical failure (singular system, non-finite value, ...).
    Numerical(String),
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::EmptyDataset => write!(f, "dataset is empty"),
            MlError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            MlError::NotFitted => write!(f, "model has not been fitted"),
            MlError::Serialization(s) => write!(f, "serialization error: {s}"),
            MlError::Numerical(s) => write!(f, "numerical error: {s}"),
        }
    }
}

impl std::error::Error for MlError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, MlError>;
