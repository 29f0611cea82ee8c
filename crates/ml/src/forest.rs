//! Bagged random-forest regression over CART trees.
//!
//! This is the *parameter model* of the paper (Section 3.4): scikit-learn's
//! `RandomForestRegressor` with its default 100 estimators, trained once per
//! workload on one row per query, predicting the PPM parameter vector.
//!
//! A fit lays the dataset out once — features column-major, each feature's
//! dense value rank per row, targets flat — and shares that layout read-only
//! across the trees, each grown by the presorted CART grower of
//! [`crate::tree`] from its own bootstrap sample. A tree's presort is then a
//! counting sort of its sample by rank, with no float comparison.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{derive_stream_seed, Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::json::Value;
use crate::matrix::FeatureMatrix;
use crate::tree::{DecisionTreeConfig, DecisionTreeRegressor, TrainingColumns};
use crate::{MlError, Result};

/// Hyper-parameters for the random forest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomForestConfig {
    /// Number of trees (scikit-learn default: 100).
    pub n_estimators: usize,
    /// Per-tree configuration.
    pub tree: DecisionTreeConfig,
    /// Fraction of features considered at each split (1.0 = all, the
    /// scikit-learn default for regression).
    pub max_features_fraction: f64,
    /// Whether each tree is trained on a bootstrap sample of the rows.
    pub bootstrap: bool,
    /// RNG seed for bootstrapping and feature subsampling.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            tree: DecisionTreeConfig::default(),
            max_features_fraction: 1.0,
            bootstrap: true,
            seed: 0,
        }
    }
}

impl RandomForestConfig {
    /// The configuration used throughout the paper's evaluation: 100
    /// estimators with otherwise default settings (Section 5.6).
    pub fn paper_default(seed: u64) -> Self {
        Self {
            seed,
            ..Default::default()
        }
    }
}

/// A fitted (or to-be-fitted) random-forest regressor with vector outputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForestRegressor {
    config: RandomForestConfig,
    trees: Vec<DecisionTreeRegressor>,
    feature_names: Vec<String>,
    target_names: Vec<String>,
}

impl RandomForestRegressor {
    /// Creates an unfitted forest.
    pub fn new(config: RandomForestConfig) -> Self {
        Self {
            config,
            trees: Vec::new(),
            feature_names: Vec::new(),
            target_names: Vec::new(),
        }
    }

    /// The configuration the forest was created with.
    pub fn config(&self) -> &RandomForestConfig {
        &self.config
    }

    /// Whether the forest has been fitted.
    pub fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }

    /// Number of fitted trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Feature names captured from the training dataset.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Target names captured from the training dataset.
    pub fn target_names(&self) -> &[String] {
        &self.target_names
    }

    /// Total number of tree nodes; proxies the serialized model size the
    /// paper reports (~1 MB for 103 queries).
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.node_count()).sum()
    }

    /// Fits the forest on a [`Dataset`].
    ///
    /// Trees are trained in parallel (rayon) with one RNG per tree, seeded
    /// by `derive_stream_seed(config.seed, tree_index)`. Because no random
    /// state is shared across trees, the fitted forest is bit-identical for
    /// any worker-thread count, including 1.
    ///
    /// The dataset is validated before the forest changes: ragged rows fail
    /// with [`MlError::ShapeMismatch`] and a NaN or infinite feature or
    /// target with [`MlError::Numerical`], leaving a previously fitted
    /// forest (trees and names) as it was.
    pub fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if self.config.n_estimators == 0 {
            return Err(MlError::ShapeMismatch {
                detail: "n_estimators must be at least 1".into(),
            });
        }
        // Validated before any field is overwritten.
        let columns = TrainingColumns::new(data.rows(), data.targets())?;
        let n = data.len();
        let d = data.num_features();
        // With no feature columns there is nothing to split on: every tree
        // is a single leaf, as `DecisionTreeRegressor` fits zero-width rows.
        let max_features = if d == 0 {
            0
        } else {
            ((d as f64) * self.config.max_features_fraction)
                .round()
                .clamp(1.0, d as f64) as usize
        };

        let config = self.config;
        self.trees = (0..config.n_estimators)
            .into_par_iter()
            .map(|tree_idx| {
                let mut rng =
                    StdRng::seed_from_u64(derive_stream_seed(config.seed, tree_idx as u64));
                let sample: Vec<usize> = if config.bootstrap {
                    (0..n).map(|_| rng.gen_range(0..n)).collect()
                } else {
                    (0..n).collect()
                };
                // Each split draws a fresh random subset of feature columns.
                let mut picker = move |num_features: usize, cols: &mut Vec<usize>| {
                    cols.extend(0..num_features);
                    if max_features < num_features {
                        cols.shuffle(&mut rng);
                        cols.truncate(max_features);
                    }
                };
                let mut tree = DecisionTreeRegressor::new(config.tree);
                tree.fit_columns(&columns, &sample, &mut picker)?;
                Ok(tree)
            })
            .collect::<Result<Vec<_>>>()?;
        self.feature_names = data.feature_names().to_vec();
        self.target_names = data.target_names().to_vec();
        Ok(())
    }

    /// Predicts the mean target vector over all trees for one feature row.
    pub fn predict(&self, row: &[f64]) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        let mut acc = vec![0.0; self.trees[0].num_outputs()];
        self.predict_into(row, &mut acc)?;
        Ok(acc)
    }

    /// Predicts one row into a caller-provided output buffer (`out.len()`
    /// must equal the number of targets). This is the shared scoring core:
    /// [`predict`](Self::predict) and the batched entry points all funnel
    /// through it, so single-row and batched inference accumulate tree
    /// outputs in exactly the same order and are bit-identical.
    pub fn predict_into(&self, row: &[f64], out: &mut [f64]) -> Result<()> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        let k = self.trees[0].num_outputs();
        if out.len() != k {
            return Err(MlError::ShapeMismatch {
                detail: format!("output buffer has {} slots, forest predicts {k}", out.len()),
            });
        }
        out.fill(0.0);
        for tree in &self.trees {
            let p = tree.predict_ref(row)?;
            for (a, v) in out.iter_mut().zip(p) {
                *a += v;
            }
        }
        let nt = self.trees.len() as f64;
        for a in out.iter_mut() {
            *a /= nt;
        }
        Ok(())
    }

    /// Predicts every row of a [`FeatureMatrix`] (output order matches row
    /// order), returning one `Vec<f64>` per row. Results are bit-identical
    /// to calling [`predict`](Self::predict) row by row.
    ///
    /// This is the interpreted batch walk; hot callers use
    /// [`predict_matrix_into`](Self::predict_matrix_into) (flat output, no
    /// per-row allocation) or compile the forest
    /// ([`compile`](Self::compile)) once and run its scoring kernel.
    pub fn predict_matrix(&self, matrix: &FeatureMatrix) -> Result<Vec<Vec<f64>>> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        let k = self.trees[0].num_outputs();
        let mut flat = Vec::new();
        self.predict_matrix_into(matrix, &mut flat)?;
        Ok(flat.chunks(k.max(1)).map(<[f64]>::to_vec).collect())
    }

    /// Flat-output batch prediction: fills `out` with
    /// `matrix.len() × num_outputs` values, row-major, reusing the buffer's
    /// allocation across batches. Bit-identical to
    /// [`predict`](Self::predict) per row.
    pub fn predict_matrix_into(&self, matrix: &FeatureMatrix, out: &mut Vec<f64>) -> Result<()> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        let k = self.trees[0].num_outputs();
        out.clear();
        out.resize(matrix.len() * k, 0.0);
        for (row, slot) in matrix.rows().zip(out.chunks_mut(k.max(1))) {
            self.predict_into(row, slot)?;
        }
        Ok(())
    }

    /// Compiles the fitted forest into the flat node-arena inference
    /// representation (see [`crate::compiled::CompiledForest`]).
    pub fn compile(&self) -> Result<crate::compiled::CompiledForest> {
        crate::compiled::CompiledForest::compile(self)
    }

    /// The fitted trees (compiled-forest construction walks them).
    pub(crate) fn trees(&self) -> &[DecisionTreeRegressor] {
        &self.trees
    }

    /// Maximum depth across the fitted trees (0 before fitting).
    pub fn max_tree_depth(&self) -> usize {
        self.trees.iter().map(|t| t.depth()).max().unwrap_or(0)
    }

    /// Encodes the forest for the portable-model JSON format.
    pub(crate) fn to_json_value(&self) -> Value {
        Value::object([
            ("config", forest_config_to_json(&self.config)),
            (
                "trees",
                Value::Array(self.trees.iter().map(|t| t.to_json_value()).collect()),
            ),
            ("feature_names", Value::strings(&self.feature_names)),
            ("target_names", Value::strings(&self.target_names)),
        ])
    }

    /// Decodes a forest from the portable-model JSON format.
    pub(crate) fn from_json_value(value: &Value) -> Result<Self> {
        let config = forest_config_from_json(value.field("config")?)?;
        let trees = value
            .field("trees")?
            .as_array()?
            .iter()
            .map(DecisionTreeRegressor::from_json_value)
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            config,
            trees,
            feature_names: value.field("feature_names")?.as_string_vec()?,
            target_names: value.field("target_names")?.as_string_vec()?,
        })
    }
}

fn forest_config_to_json(config: &RandomForestConfig) -> Value {
    Value::object([
        ("n_estimators", Value::Number(config.n_estimators as f64)),
        ("tree", config.tree.to_json_value()),
        (
            "max_features_fraction",
            Value::Number(config.max_features_fraction),
        ),
        ("bootstrap", Value::Bool(config.bootstrap)),
        ("seed", Value::Number(config.seed as f64)),
    ])
}

fn forest_config_from_json(value: &Value) -> Result<RandomForestConfig> {
    Ok(RandomForestConfig {
        n_estimators: value.field("n_estimators")?.as_usize()?,
        tree: crate::tree::DecisionTreeConfig::from_json_value(value.field("tree")?)?,
        max_features_fraction: value.field("max_features_fraction")?.as_f64()?,
        bootstrap: value.field("bootstrap")?.as_bool()?,
        seed: value.field("seed")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_dataset(n: usize) -> Dataset {
        // Two outputs with different dependence on the two features.
        let mut d = Dataset::new(
            vec!["x0".into(), "x1".into()],
            vec!["y0".into(), "y1".into()],
        );
        for i in 0..n {
            let x0 = (i % 17) as f64;
            let x1 = (i % 5) as f64;
            let y0 = 3.0 * x0 + 0.5 * x1;
            let y1 = if x1 > 2.0 { 50.0 } else { 10.0 };
            d.push_row(format!("q{i}"), vec![x0, x1], vec![y0, y1])
                .unwrap();
        }
        d
    }

    fn small_forest(seed: u64) -> RandomForestConfig {
        RandomForestConfig {
            n_estimators: 25,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn forest_fits_and_predicts_reasonably() {
        let data = synthetic_dataset(120);
        let mut rf = RandomForestRegressor::new(small_forest(3));
        rf.fit(&data).unwrap();
        assert!(rf.is_fitted());
        assert_eq!(rf.num_trees(), 25);
        let p = rf.predict(&[8.0, 4.0]).unwrap();
        // y0 = 26, y1 = 50 for this input.
        assert!((p[0] - 26.0).abs() < 6.0, "y0 prediction too far: {}", p[0]);
        assert!(
            (p[1] - 50.0).abs() < 10.0,
            "y1 prediction too far: {}",
            p[1]
        );
    }

    #[test]
    fn forest_is_deterministic_for_a_seed() {
        let data = synthetic_dataset(60);
        let mut a = RandomForestRegressor::new(small_forest(9));
        let mut b = RandomForestRegressor::new(small_forest(9));
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        let row = vec![5.0, 1.0];
        assert_eq!(a.predict(&row).unwrap(), b.predict(&row).unwrap());
    }

    #[test]
    fn different_seeds_give_different_forests() {
        let data = synthetic_dataset(60);
        let mut a = RandomForestRegressor::new(small_forest(1));
        let mut b = RandomForestRegressor::new(small_forest(2));
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        // Not a strict requirement per-row, but the node structure should differ.
        assert_ne!(a.total_nodes(), 0);
        assert!(
            a.total_nodes() != b.total_nodes()
                || a.predict(&[3.0, 3.0]).unwrap() != b.predict(&[3.0, 3.0]).unwrap()
        );
    }

    #[test]
    fn predict_before_fit_errors() {
        let rf = RandomForestRegressor::new(RandomForestConfig::default());
        assert!(matches!(rf.predict(&[1.0]), Err(MlError::NotFitted)));
    }

    #[test]
    fn fit_on_empty_dataset_errors() {
        let empty = Dataset::new(vec!["x".into()], vec!["y".into()]);
        let mut rf = RandomForestRegressor::new(RandomForestConfig::default());
        assert!(matches!(rf.fit(&empty), Err(MlError::EmptyDataset)));
    }

    #[test]
    fn zero_estimators_is_rejected() {
        let data = synthetic_dataset(10);
        let mut rf = RandomForestRegressor::new(RandomForestConfig {
            n_estimators: 0,
            ..Default::default()
        });
        assert!(rf.fit(&data).is_err());
    }

    #[test]
    fn feature_subsampling_still_produces_valid_model() {
        let data = synthetic_dataset(80);
        let mut rf = RandomForestRegressor::new(RandomForestConfig {
            n_estimators: 15,
            max_features_fraction: 0.5,
            seed: 4,
            ..Default::default()
        });
        rf.fit(&data).unwrap();
        let p = rf.predict(&[2.0, 4.0]).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn matrix_prediction_is_bit_identical_to_per_row_calls() {
        let data = synthetic_dataset(50);
        let mut rf = RandomForestRegressor::new(small_forest(11));
        rf.fit(&data).unwrap();
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let matrix = FeatureMatrix::from_rows(&rows).unwrap();
        let batched = rf.predict_matrix(&matrix).unwrap();
        assert_eq!(batched.len(), rows.len());
        for (row, out) in rows.iter().zip(&batched) {
            let single = rf.predict(row).unwrap();
            let single_bits: Vec<u64> = single.iter().map(|v| v.to_bits()).collect();
            let out_bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(single_bits, out_bits);
        }
    }

    #[test]
    fn predict_into_validates_buffer_width() {
        let data = synthetic_dataset(30);
        let mut rf = RandomForestRegressor::new(small_forest(2));
        rf.fit(&data).unwrap();
        let mut too_small = vec![0.0; 1];
        assert!(rf.predict_into(&[1.0, 1.0], &mut too_small).is_err());
        let unfitted = RandomForestRegressor::new(RandomForestConfig::default());
        assert!(matches!(
            unfitted.predict_matrix(&FeatureMatrix::new(2)),
            Err(MlError::NotFitted)
        ));
    }

    #[test]
    fn trees_match_the_per_node_sorting_reference() {
        use crate::tree::reference::{self, arena_bits};
        let data = synthetic_dataset(70);
        for max_features_fraction in [1.0, 0.5] {
            let config = RandomForestConfig {
                n_estimators: 12,
                max_features_fraction,
                seed: 21,
                ..Default::default()
            };
            let mut rf = RandomForestRegressor::new(config);
            rf.fit(&data).unwrap();
            let n = data.len();
            for (tree_idx, tree) in rf.trees().iter().enumerate() {
                // The forest's draws, replayed: bootstrap sample, then one
                // shuffle per split attempt when subsampling features.
                let mut rng = StdRng::seed_from_u64(derive_stream_seed(21, tree_idx as u64));
                let sample: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                let d = data.num_features();
                let max_features = (d as f64 * max_features_fraction).round() as usize;
                let mut picker = |d: usize| {
                    let mut cols: Vec<usize> = (0..d).collect();
                    if max_features < d {
                        cols.shuffle(&mut rng);
                        cols.truncate(max_features);
                    }
                    cols
                };
                let expected = reference::fit(
                    config.tree,
                    data.rows(),
                    data.targets(),
                    &sample,
                    &mut picker,
                );
                assert_eq!(
                    arena_bits(tree.nodes()),
                    arena_bits(&expected),
                    "tree {tree_idx}"
                );
            }
        }
    }

    #[test]
    fn failed_refit_keeps_the_previous_model() {
        let data = synthetic_dataset(30);
        let mut rf = RandomForestRegressor::new(small_forest(5));
        rf.fit(&data).unwrap();
        let before = rf.predict(&[3.0, 1.0]).unwrap();
        let mut bad = Dataset::new(vec!["a".into(), "b".into()], vec!["c".into(), "d".into()]);
        bad.push_row("r0", vec![1.0, f64::NAN], vec![1.0, 2.0])
            .unwrap();
        bad.push_row("r1", vec![2.0, 3.0], vec![f64::INFINITY, 2.0])
            .unwrap();
        assert!(matches!(rf.fit(&bad), Err(MlError::Numerical(_))));
        assert_eq!(rf.feature_names(), data.feature_names());
        assert_eq!(rf.target_names(), data.target_names());
        assert_eq!(rf.predict(&[3.0, 1.0]).unwrap(), before);
    }
}
