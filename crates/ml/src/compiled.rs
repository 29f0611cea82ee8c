//! Compiled forest inference: flat SoA tree arenas, a pooled leaf table,
//! and a batch-major scoring kernel.
//!
//! The interpreted [`RandomForestRegressor`] walks a `Vec<Node>` of enum
//! variants whose leaves each own a heap-allocated `Vec<f64>`. That is fine
//! for training-time use, but every scored serving request bottoms out in
//! that traversal, so the serving tier wants a representation built for the
//! walk alone:
//!
//! * **Struct-of-arrays node storage** — one arena across *all* trees:
//!   `feature: Vec<u32>`, `threshold: Vec<f64>`, `right: Vec<u32>`. Nodes
//!   are re-emitted in preorder DFS at compile time, so the **left child is
//!   implicit** (always the next arena slot) and needs no storage at all:
//!   traversal is a tight loop with no enum matching, 16 bytes of node
//!   state, and a sequential access pattern on the ≤-branch.
//! * **Pooled leaf table** — every leaf's output vector lives in one
//!   contiguous `leaf_values` buffer, indexed by `leaf_id × num_outputs`.
//!   A leaf node stores its `leaf_id` in the `right` array and is marked by
//!   `feature == LEAF`.
//! * **Batch-major kernel** — [`predict_batch_into`] iterates trees-outer /
//!   rows-inner over the flat [`FeatureMatrix`] row storage and accumulates
//!   into a caller-owned flat output slice (zero per-row allocation). It
//!   runs on the calling thread: serving batches are already spread over
//!   the runtime's worker threads, and a one-row call costs what the
//!   single-row path costs. Each row's accumulator receives tree
//!   contributions in tree order, so the result is **bit-identical** to the
//!   interpreter.
//!
//! Bit-identity with [`RandomForestRegressor::predict`] is a structural
//! property, not a coincidence: both paths zero an accumulator, add each
//! tree's leaf vector in tree order, and divide by the tree count — the
//! same f64 operations in the same order on the same values.
//!
//! [`predict_batch_into`]: CompiledForest::predict_batch_into

use crate::forest::RandomForestRegressor;
use crate::matrix::FeatureMatrix;
use crate::tree::CompiledNodes;
use crate::{MlError, Result};

/// Marker in the `feature` array identifying a leaf node.
const LEAF: u32 = u32::MAX;

/// A fitted forest compiled into flat struct-of-arrays storage for fast
/// inference. Build one with [`CompiledForest::compile`]; predictions are
/// bit-identical to the source [`RandomForestRegressor`].
#[derive(Debug, Clone)]
pub struct CompiledForest {
    num_features: usize,
    num_outputs: usize,
    num_trees: usize,
    /// Arena index of each tree's root node.
    roots: Vec<u32>,
    /// Split feature per node ([`LEAF`] marks a leaf).
    feature: Vec<u32>,
    /// Split threshold per node (unused for leaves).
    threshold: Vec<f64>,
    /// Right child arena index for splits; the leaf id for leaves. The
    /// left child needs no storage: preorder emission makes it `idx + 1`.
    right: Vec<u32>,
    /// Pooled leaf outputs, `num_outputs` values per leaf id.
    leaf_values: Vec<f64>,
}

impl CompiledForest {
    /// Compiles a fitted forest into the flat representation. Fails with
    /// [`MlError::NotFitted`] on an unfitted forest.
    pub fn compile(forest: &RandomForestRegressor) -> Result<Self> {
        let trees = forest.trees();
        if trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        let num_features = trees[0].num_features();
        let num_outputs = trees[0].num_outputs();
        if num_outputs == 0 {
            return Err(MlError::ShapeMismatch {
                detail: "fitted forest has zero outputs".into(),
            });
        }
        let total_nodes: usize = trees.iter().map(|t| t.node_count()).sum();
        if total_nodes >= LEAF as usize {
            return Err(MlError::Numerical(format!(
                "forest has {total_nodes} nodes, exceeding the u32 arena limit"
            )));
        }

        let mut compiled = Self {
            num_features,
            num_outputs,
            num_trees: trees.len(),
            roots: Vec::with_capacity(trees.len()),
            feature: Vec::with_capacity(total_nodes),
            threshold: Vec::with_capacity(total_nodes),
            right: Vec::with_capacity(total_nodes),
            leaf_values: Vec::new(),
        };
        for tree in trees {
            compiled.roots.push(compiled.feature.len() as u32);
            tree.emit_compiled_nodes(&mut CompiledNodes {
                leaf_marker: LEAF,
                feature: &mut compiled.feature,
                threshold: &mut compiled.threshold,
                right: &mut compiled.right,
                leaf_values: &mut compiled.leaf_values,
                num_outputs,
            });
        }
        Ok(compiled)
    }

    /// Number of input features per row.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of outputs per prediction.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of compiled trees.
    pub fn num_trees(&self) -> usize {
        self.num_trees
    }

    /// Total nodes in the arena (equals the source forest's `total_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Number of pooled leaves across all trees.
    pub fn num_leaves(&self) -> usize {
        self.leaf_values
            .len()
            .checked_div(self.num_outputs)
            .unwrap_or(0)
    }

    /// Walks one tree from `idx` and returns the leaf id the row lands in.
    #[inline]
    fn leaf_of(&self, mut idx: usize, row: &[f64]) -> usize {
        loop {
            let feature = self.feature[idx];
            if feature == LEAF {
                return self.right[idx] as usize;
            }
            idx = if row[feature as usize] <= self.threshold[idx] {
                idx + 1 // left child is the next arena slot by construction
            } else {
                self.right[idx] as usize
            };
        }
    }

    fn check_row_width(&self, width: usize) -> Result<()> {
        if width != self.num_features {
            return Err(MlError::ShapeMismatch {
                detail: format!(
                    "row has {width} features, compiled forest expects {}",
                    self.num_features
                ),
            });
        }
        Ok(())
    }

    /// Predicts one row into a caller-provided buffer of `num_outputs`
    /// slots. Bit-identical to [`RandomForestRegressor::predict_into`].
    pub fn predict_into(&self, row: &[f64], out: &mut [f64]) -> Result<()> {
        self.check_row_width(row.len())?;
        if out.len() != self.num_outputs {
            return Err(MlError::ShapeMismatch {
                detail: format!(
                    "output buffer has {} slots, compiled forest predicts {}",
                    out.len(),
                    self.num_outputs
                ),
            });
        }
        out.fill(0.0);
        let k = self.num_outputs;
        for &root in &self.roots {
            let leaf = self.leaf_of(root as usize, row);
            let src = &self.leaf_values[leaf * k..(leaf + 1) * k];
            for (acc, v) in out.iter_mut().zip(src) {
                *acc += *v;
            }
        }
        let nt = self.num_trees as f64;
        for acc in out.iter_mut() {
            *acc /= nt;
        }
        Ok(())
    }

    /// Predicts one row, allocating the output vector.
    pub fn predict(&self, row: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.num_outputs];
        self.predict_into(row, &mut out)?;
        Ok(out)
    }

    /// The batch-major scoring kernel: predicts every row of `matrix` into
    /// the caller-owned flat output slice `out` (row-major,
    /// `matrix.len() × num_outputs` values, zero per-row allocation).
    ///
    /// Iteration is trees-outer / rows-inner, so the node arrays stream
    /// through cache once per tree instead of once per row. Each row's
    /// accumulator receives tree contributions in tree order, so the output
    /// is bit-identical to [`predict_into`](Self::predict_into) per row.
    pub fn predict_batch_into(&self, matrix: &FeatureMatrix, out: &mut [f64]) -> Result<()> {
        let rows = matrix.len();
        let k = self.num_outputs;
        if out.len() != rows * k {
            return Err(MlError::ShapeMismatch {
                detail: format!(
                    "output buffer has {} slots, batch of {rows} rows needs {}",
                    out.len(),
                    rows * k
                ),
            });
        }
        if rows == 0 {
            return Ok(());
        }
        self.check_row_width(matrix.width())?;
        out.fill(0.0);
        self.accumulate_rows(matrix, out);
        let nt = self.num_trees as f64;
        for acc in out.iter_mut() {
            *acc /= nt;
        }
        Ok(())
    }

    /// Convenience wrapper over [`predict_batch_into`]: resizes and fills a
    /// reusable flat buffer (kept allocation across batches).
    ///
    /// [`predict_batch_into`]: Self::predict_batch_into
    pub fn predict_batch(&self, matrix: &FeatureMatrix, out: &mut Vec<f64>) -> Result<()> {
        out.clear();
        out.resize(matrix.len() * self.num_outputs, 0.0);
        self.predict_batch_into(matrix, out)
    }

    /// Accumulates (un-normalized) tree sums for every row of `matrix` into
    /// `out`, trees-outer / rows-inner. `out` must be zeroed by the caller.
    fn accumulate_rows(&self, matrix: &FeatureMatrix, out: &mut [f64]) {
        let k = self.num_outputs;
        for &root in &self.roots {
            for (r, row) in matrix.rows().enumerate() {
                let leaf = self.leaf_of(root as usize, row);
                let src = &self.leaf_values[leaf * k..(leaf + 1) * k];
                let dst = &mut out[r * k..(r + 1) * k];
                for (acc, v) in dst.iter_mut().zip(src) {
                    *acc += *v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::{RandomForestConfig, RandomForestRegressor};

    fn fitted(seed: u64, n: usize) -> RandomForestRegressor {
        let mut d = Dataset::new(
            vec!["x0".into(), "x1".into()],
            vec!["y0".into(), "y1".into()],
        );
        for i in 0..n {
            let x0 = (i % 13) as f64;
            let x1 = (i % 7) as f64;
            d.push_row(
                format!("q{i}"),
                vec![x0, x1],
                vec![2.0 * x0 + x1, 50.0 - x1],
            )
            .unwrap();
        }
        let mut rf = RandomForestRegressor::new(RandomForestConfig {
            n_estimators: 12,
            seed,
            ..Default::default()
        });
        rf.fit(&d).unwrap();
        rf
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn compiled_matches_interpreter_bit_for_bit() {
        let rf = fitted(5, 90);
        let compiled = CompiledForest::compile(&rf).unwrap();
        assert_eq!(compiled.num_trees(), rf.num_trees());
        assert_eq!(compiled.num_nodes(), rf.total_nodes());
        for i in 0..30 {
            let row = vec![(i % 13) as f64 + 0.25, (i % 7) as f64];
            assert_eq!(
                bits(&compiled.predict(&row).unwrap()),
                bits(&rf.predict(&row).unwrap()),
                "row {i}"
            );
        }
    }

    #[test]
    fn batch_kernel_matches_single_row_path() {
        let rf = fitted(9, 70);
        let compiled = CompiledForest::compile(&rf).unwrap();
        let rows: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![i as f64 * 0.5, (i % 5) as f64])
            .collect();
        let matrix = FeatureMatrix::from_rows(&rows).unwrap();
        let mut flat = vec![0.0; rows.len() * compiled.num_outputs()];
        compiled.predict_batch_into(&matrix, &mut flat).unwrap();
        for (i, row) in rows.iter().enumerate() {
            let single = compiled.predict(row).unwrap();
            let k = compiled.num_outputs();
            assert_eq!(bits(&single), bits(&flat[i * k..(i + 1) * k]), "row {i}");
        }
    }

    #[test]
    fn unfitted_forest_does_not_compile() {
        let rf = RandomForestRegressor::new(RandomForestConfig::default());
        assert!(matches!(
            CompiledForest::compile(&rf),
            Err(MlError::NotFitted)
        ));
    }

    #[test]
    fn width_and_buffer_mismatches_are_rejected() {
        let rf = fitted(2, 40);
        let compiled = CompiledForest::compile(&rf).unwrap();
        assert!(compiled.predict(&[1.0]).is_err());
        let mut short = vec![0.0; 1];
        assert!(compiled.predict_into(&[1.0, 2.0], &mut short).is_err());
        let matrix = FeatureMatrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let mut wrong = vec![0.0; 5];
        assert!(compiled.predict_batch_into(&matrix, &mut wrong).is_err());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let rf = fitted(3, 40);
        let compiled = CompiledForest::compile(&rf).unwrap();
        let matrix = FeatureMatrix::new(2);
        let mut out: Vec<f64> = Vec::new();
        compiled.predict_batch_into(&matrix, &mut out).unwrap();
        assert!(out.is_empty());
    }
}
