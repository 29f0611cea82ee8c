//! Compiled forest inference: one flat arena for every tree, a pooled leaf
//! table, and one branchless lockstep kernel.
//!
//! The interpreted [`RandomForestRegressor`] walks a `Vec<Node>` of enum
//! variants whose leaves each own a heap-allocated `Vec<f64>`, one tree at a
//! time, taking a data-dependent branch at every node. That is fine for
//! training-time use, but every scored serving request bottoms out in the
//! forest walk, so scoring runs on a representation built for the walk
//! alone:
//!
//! * **One 16-byte record per node** — one arena across *all* trees, a
//!   `Vec` of `{ threshold: f64, feature: u32, right: u32 }` records, so a
//!   walk step reads its split from one cache line, not from three
//!   parallel arrays. Nodes are emitted in preorder DFS, so the **left
//!   child is implicit** (always the next arena slot) and needs no storage.
//! * **Leaves are self-loops** — a leaf node reads feature 0, has a NaN
//!   threshold and is its own right child. `x <= NaN` is false for every
//!   `x` (NaN included), so a step from a leaf stays on it, and walking a
//!   tree for its depth lands every row on its leaf without ever asking
//!   "is this a leaf?". The side array `leaf` maps a leaf's arena index to
//!   its row of the pooled `leaf_values` table (`num_outputs` values per
//!   leaf).
//! * **One lockstep kernel** — [`predict_into`] (one row) and
//!   [`predict_batch_into`] (many rows) run the same loop: blocks of
//!   `BLOCK` (8) consecutive trees outside, rows inside. A row walks all of
//!   a block's trees side by side for the block's maximum depth (recorded
//!   at compile time), each step a [`select_unpredictable`] between
//!   `i + 1` and the node's right child: optimized builds emit a
//!   conditional move, so there is no branch to mispredict, and the
//!   block's independent walks overlap their loads. A block's nodes stay
//!   in cache while every row of a batch walks it. The kernel runs on the
//!   calling thread: serving batches are already spread over the
//!   runtime's worker threads.
//!
//! Bit-identity with [`RandomForestRegressor::predict`] is a structural
//! property, not a coincidence: both paths zero an accumulator, add each
//! tree's leaf vector in tree order (blocks in order, trees in order within
//! a block), and divide by the tree count — the same f64 operations in the
//! same order on the same values.
//!
//! [`predict_into`]: CompiledForest::predict_into
//! [`predict_batch_into`]: CompiledForest::predict_batch_into
//! [`select_unpredictable`]: std::hint::select_unpredictable

use std::hint::select_unpredictable;

use crate::forest::RandomForestRegressor;
use crate::matrix::FeatureMatrix;
use crate::tree::Node;
use crate::{MlError, Result};

/// Number of consecutive trees the kernel walks in lockstep.
const BLOCK: usize = 8;

/// One arena node: the split a walk step reads, packed into 16 bytes.
#[derive(Debug, Clone, Copy)]
struct PackedNode {
    /// Split threshold (NaN for leaves).
    threshold: f64,
    /// Split feature (0 for leaves).
    feature: u32,
    /// Right child arena index; a leaf is its own right child. The left
    /// child needs no storage: preorder emission makes it `idx + 1`.
    right: u32,
}

const _: () = assert!(std::mem::size_of::<PackedNode>() == 16);

/// A fitted forest compiled into one flat node arena for fast
/// inference. Build one with [`CompiledForest::compile`]; predictions are
/// bit-identical to the source [`RandomForestRegressor`].
#[derive(Debug, Clone)]
pub struct CompiledForest {
    num_features: usize,
    num_outputs: usize,
    /// Arena index of each tree's root node.
    roots: Vec<u32>,
    /// Maximum tree depth of each block of `BLOCK` consecutive trees.
    block_depths: Vec<usize>,
    /// Every tree's nodes, in preorder per tree.
    nodes: Vec<PackedNode>,
    /// Leaf id per node, indexing `leaf_values`. Splits hold `u32::MAX`,
    /// which a walk never reads: it always ends on a leaf.
    leaf: Vec<u32>,
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
        let total_leaves = trees
            .iter()
            .flat_map(|t| t.nodes())
            .filter(|node| matches!(node, Node::Leaf { .. }))
            .count();
        if total_nodes >= u32::MAX as usize {
            return Err(MlError::Numerical(format!(
                "forest has {total_nodes} nodes, exceeding the u32 arena limit"
            )));
        }

        let mut compiled = Self {
            num_features,
            num_outputs,
            roots: Vec::with_capacity(trees.len()),
            block_depths: Vec::with_capacity(trees.len().div_ceil(BLOCK)),
            nodes: Vec::with_capacity(total_nodes),
            leaf: Vec::with_capacity(total_nodes),
            leaf_values: Vec::with_capacity(total_leaves * num_outputs),
        };
        for block in trees.chunks(BLOCK) {
            let mut block_depth = 0;
            for tree in block {
                compiled.roots.push(compiled.nodes.len() as u32);
                block_depth = block_depth.max(compiled.emit_tree(tree.nodes()));
            }
            compiled.block_depths.push(block_depth);
        }
        Ok(compiled)
    }

    /// Appends one tree's nodes to the arena in preorder (left subtree
    /// first), so that *left child = parent + 1* holds by construction, and
    /// returns the tree's depth (0 for a single leaf). An explicit stack
    /// keeps a chain tree's depth off the call stack.
    fn emit_tree(&mut self, nodes: &[Node]) -> usize {
        let mut depth = 0;
        // (tree node to emit, its depth, arena position whose `right` slot
        // is patched to this node's position — the parent, for right
        // children).
        let mut stack: Vec<(usize, usize, Option<usize>)> = vec![(0, 0, None)];
        while let Some((node_idx, node_depth, patch)) = stack.pop() {
            let pos = self.nodes.len();
            if let Some(parent) = patch {
                self.nodes[parent].right = pos as u32;
            }
            match &nodes[node_idx] {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    self.nodes.push(PackedNode {
                        threshold: *threshold,
                        feature: *feature as u32,
                        right: 0, // patched when the right child is emitted
                    });
                    self.leaf.push(u32::MAX);
                    stack.push((*right, node_depth + 1, Some(pos)));
                    stack.push((*left, node_depth + 1, None)); // emitted next: left = pos + 1
                }
                Node::Leaf { value, .. } => {
                    depth = depth.max(node_depth);
                    self.nodes.push(PackedNode {
                        threshold: f64::NAN,
                        feature: 0,
                        right: pos as u32,
                    });
                    self.leaf.push(self.num_leaves() as u32);
                    self.leaf_values.extend_from_slice(value);
                }
            }
        }
        depth
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
        self.roots.len()
    }

    /// Total nodes in the arena (equals the source forest's `total_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of pooled leaves across all trees.
    pub fn num_leaves(&self) -> usize {
        self.leaf_values.len() / self.num_outputs
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
    /// slots: the kernel's one-row call. Bit-identical to
    /// [`RandomForestRegressor::predict_into`].
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
        self.run(std::iter::once(row), out);
        Ok(())
    }

    /// Predicts one row, allocating the output vector.
    pub fn predict(&self, row: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.num_outputs];
        self.predict_into(row, &mut out)?;
        Ok(out)
    }

    /// Predicts every row of `matrix` into the caller-owned flat output
    /// slice `out` (row-major, `matrix.len() × num_outputs` values, zero
    /// per-row allocation): the kernel's many-row call. Each row's output
    /// is bit-identical to [`predict_into`](Self::predict_into).
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
        self.run(matrix.rows(), out);
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

    /// The scoring kernel. Writes the forest mean for each row of `rows`
    /// into consecutive `num_outputs`-wide slots of `out`; callers have
    /// checked the row width and the buffer length.
    fn run<'r>(&self, rows: impl Iterator<Item = &'r [f64]> + Clone, out: &mut [f64]) {
        let k = self.num_outputs;
        let arena = self.nodes.as_slice();
        out.fill(0.0);
        for (roots, &depth) in self.roots.chunks(BLOCK).zip(&self.block_depths) {
            // A partial last block fills its spare lanes with its last tree,
            // walked but not added, so every block runs all `BLOCK` lanes: a
            // fixed count the compiler unrolls and keeps in registers.
            let mut start = [*roots.last().expect("chunks are non-empty") as usize; BLOCK];
            for (lane, &root) in start.iter_mut().zip(roots) {
                *lane = root as usize;
            }
            for (row, acc) in rows.clone().zip(out.chunks_exact_mut(k)) {
                let mut nodes = start;
                for _ in 0..depth {
                    for node in nodes.iter_mut() {
                        let i = *node;
                        let split = arena[i];
                        let go_left = row[split.feature as usize] <= split.threshold;
                        *node = select_unpredictable(go_left, i + 1, split.right as usize);
                    }
                }
                for &node in &nodes[..roots.len()] {
                    let leaf = self.leaf[node] as usize * k;
                    for (a, v) in acc.iter_mut().zip(&self.leaf_values[leaf..leaf + k]) {
                        *a += *v;
                    }
                }
            }
        }
        let nt = self.roots.len() as f64;
        for acc in out.iter_mut() {
            *acc /= nt;
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
    fn leaves_are_self_loops_and_blocks_record_their_depth() {
        let rf = fitted(7, 80); // 12 trees: one full block and one partial
        let compiled = CompiledForest::compile(&rf).unwrap();
        let mut leaves = 0;
        for (i, node) in compiled.nodes.iter().enumerate() {
            if compiled.leaf[i] == u32::MAX {
                continue;
            }
            leaves += 1;
            assert_eq!(node.right as usize, i, "node {i}");
            assert_eq!(node.feature, 0, "node {i}");
            assert!(node.threshold.is_nan(), "node {i}");
        }
        assert_eq!(leaves, compiled.num_leaves());
        let depths: Vec<usize> = rf.trees().iter().map(|t| t.depth()).collect();
        let expected: Vec<usize> = depths
            .chunks(BLOCK)
            .map(|block| *block.iter().max().unwrap())
            .collect();
        assert_eq!(compiled.block_depths, expected);
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
