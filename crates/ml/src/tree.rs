//! CART regression trees with multi-output targets.
//!
//! The parameter model maps a feature vector to *several* PPM parameters at
//! once ({a, b, m} for the power law, {s, p} for Amdahl's law), so the tree
//! supports vector-valued leaves: splits minimise the summed per-output
//! variance, and a leaf predicts the per-output mean of its samples — the
//! same behaviour as scikit-learn's multi-output `DecisionTreeRegressor`.

use serde::{Deserialize, Serialize};

use crate::json::Value;
use crate::{MlError, Result};

/// Hyper-parameters for a regression tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth (root = depth 0). `None` grows until pure/minimum.
    pub max_depth: Option<usize>,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
    /// Number of candidate features examined per split; `None` = all.
    pub max_features: Option<usize>,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        Self {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
        }
    }
}

/// A node in the fitted tree. Stored in a flat arena indexed by `usize`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Node {
    /// Internal split node: rows with `feature <= threshold` go left.
    Split {
        /// Index of the feature column used by this split.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Arena index of the left child.
        left: usize,
        /// Arena index of the right child.
        right: usize,
    },
    /// Leaf node with the mean target vector of its samples.
    Leaf {
        /// Per-output mean prediction.
        value: Vec<f64>,
        /// Number of training samples that reached the leaf.
        samples: usize,
    },
}

/// A fitted (or to-be-fitted) CART regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTreeRegressor {
    config: DecisionTreeConfig,
    nodes: Vec<Node>,
    num_features: usize,
    num_outputs: usize,
}

impl DecisionTreeRegressor {
    /// Creates an unfitted tree with the given configuration.
    pub fn new(config: DecisionTreeConfig) -> Self {
        Self {
            config,
            nodes: Vec::new(),
            num_features: 0,
            num_outputs: 0,
        }
    }

    /// Whether the tree has been fitted.
    pub fn is_fitted(&self) -> bool {
        !self.nodes.is_empty()
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        self.node_depth(0)
    }

    /// Depth of the subtree rooted at `idx`, with an explicit stack: an
    /// unpruned tree's depth can reach the sample count (a chain tree), and
    /// diagnostics call this on whatever the forest grew — recursion here
    /// would put worst-case tree depth on the call stack.
    fn node_depth(&self, idx: usize) -> usize {
        let mut max_depth = 0;
        let mut stack = vec![(idx, 0usize)];
        while let Some((node, depth)) = stack.pop() {
            match &self.nodes[node] {
                Node::Leaf { .. } => max_depth = max_depth.max(depth),
                Node::Split { left, right, .. } => {
                    stack.push((*left, depth + 1));
                    stack.push((*right, depth + 1));
                }
            }
        }
        max_depth
    }

    /// Fits the tree on `rows`/`targets`, optionally restricted to the sample
    /// indices in `sample_indices` (used for bootstrap bagging) and drawing
    /// candidate split features with `feature_picker`.
    ///
    /// `feature_picker` is called once per split attempt with the number of
    /// features and must return the candidate column indices; the forest uses
    /// it for per-split feature subsampling. Passing a picker that returns all
    /// columns reproduces a plain CART tree.
    pub fn fit_with(
        &mut self,
        rows: &[Vec<f64>],
        targets: &[Vec<f64>],
        sample_indices: &[usize],
        feature_picker: &mut dyn FnMut(usize) -> Vec<usize>,
    ) -> Result<()> {
        if rows.is_empty() || targets.is_empty() || sample_indices.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if rows.len() != targets.len() {
            return Err(MlError::ShapeMismatch {
                detail: format!("{} rows vs {} targets", rows.len(), targets.len()),
            });
        }
        self.num_features = rows[0].len();
        self.num_outputs = targets[0].len();
        if self.num_outputs == 0 {
            return Err(MlError::ShapeMismatch {
                detail: "targets have zero outputs".into(),
            });
        }
        self.nodes.clear();
        let indices: Vec<usize> = sample_indices.to_vec();
        self.build_node(rows, targets, indices, 0, feature_picker);
        Ok(())
    }

    /// Fits the tree on the full dataset with no feature subsampling.
    pub fn fit(&mut self, rows: &[Vec<f64>], targets: &[Vec<f64>]) -> Result<()> {
        let all: Vec<usize> = (0..rows.len()).collect();
        let mut picker = |d: usize| (0..d).collect::<Vec<_>>();
        self.fit_with(rows, targets, &all, &mut picker)
    }

    fn build_node(
        &mut self,
        rows: &[Vec<f64>],
        targets: &[Vec<f64>],
        indices: Vec<usize>,
        depth: usize,
        feature_picker: &mut dyn FnMut(usize) -> Vec<usize>,
    ) -> usize {
        let leaf_value = mean_target(targets, &indices, self.num_outputs);
        let node_idx = self.nodes.len();
        // Push a placeholder leaf; it is replaced by a split if one is found.
        self.nodes.push(Node::Leaf {
            value: leaf_value.clone(),
            samples: indices.len(),
        });

        let depth_ok = self.config.max_depth.is_none_or(|d| depth < d);
        if !depth_ok || indices.len() < self.config.min_samples_split {
            return node_idx;
        }
        let parent_impurity = sse(targets, &indices, &leaf_value);
        if parent_impurity <= 1e-12 {
            return node_idx;
        }

        let candidates = feature_picker(self.num_features);
        let Some(best) = self.find_best_split(rows, targets, &indices, &candidates) else {
            return node_idx;
        };
        if best.gain <= 1e-12 {
            return node_idx;
        }

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| rows[i][best.feature] <= best.threshold);
        if left_idx.len() < self.config.min_samples_leaf
            || right_idx.len() < self.config.min_samples_leaf
        {
            return node_idx;
        }

        let left = self.build_node(rows, targets, left_idx, depth + 1, feature_picker);
        let right = self.build_node(rows, targets, right_idx, depth + 1, feature_picker);
        self.nodes[node_idx] = Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            left,
            right,
        };
        node_idx
    }

    fn find_best_split(
        &self,
        rows: &[Vec<f64>],
        targets: &[Vec<f64>],
        indices: &[usize],
        candidate_features: &[usize],
    ) -> Option<BestSplit> {
        let parent_value = mean_target(targets, indices, self.num_outputs);
        let parent_sse = sse(targets, indices, &parent_value);
        let mut best: Option<BestSplit> = None;

        // Buffers reused across candidate features (the split search is the
        // hot loop of forest training; per-feature allocations dominate the
        // profile otherwise).
        let n = indices.len();
        let k = self.num_outputs;
        let mut keyed: Vec<(f64, usize)> = Vec::with_capacity(n);
        let mut prefix_sum = vec![0.0f64; k];
        let mut prefix_sumsq = vec![0.0f64; k];
        let mut total_sum = vec![0.0f64; k];
        let mut total_sumsq = vec![0.0f64; k];

        for &feature in candidate_features {
            // Sort sample indices by this feature's value and scan split
            // points. Keys are materialised once so the (stable) sort does
            // not chase two levels of indirection per comparison; stability
            // preserves the historical tie order of `indices`.
            keyed.clear();
            keyed.extend(indices.iter().map(|&i| (rows[i][feature], i)));
            keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let order = &keyed;
            // Prefix sums over outputs allow O(1) SSE-decomposition per split.
            prefix_sum.fill(0.0);
            prefix_sumsq.fill(0.0);
            total_sum.fill(0.0);
            total_sumsq.fill(0.0);
            for &(_, i) in order {
                for o in 0..k {
                    total_sum[o] += targets[i][o];
                    total_sumsq[o] += targets[i][o] * targets[i][o];
                }
            }
            for (pos, &(this_v, i)) in order.iter().enumerate().take(n - 1) {
                for o in 0..k {
                    prefix_sum[o] += targets[i][o];
                    prefix_sumsq[o] += targets[i][o] * targets[i][o];
                }
                let left_n = (pos + 1) as f64;
                let right_n = (n - pos - 1) as f64;
                let next_v = order[pos + 1].0;
                if (next_v - this_v).abs() < 1e-15 {
                    continue; // cannot split between equal values
                }
                let mut child_sse = 0.0;
                for o in 0..k {
                    let ls = prefix_sum[o];
                    let lss = prefix_sumsq[o];
                    let rs = total_sum[o] - ls;
                    let rss = total_sumsq[o] - lss;
                    child_sse += lss - ls * ls / left_n;
                    child_sse += rss - rs * rs / right_n;
                }
                let gain = parent_sse - child_sse;
                let threshold = 0.5 * (this_v + next_v);
                if best.as_ref().is_none_or(|b| gain > b.gain) {
                    best = Some(BestSplit {
                        feature,
                        threshold,
                        gain,
                    });
                }
            }
        }
        best
    }

    /// Predicts the target vector for one feature row.
    pub fn predict(&self, row: &[f64]) -> Result<Vec<f64>> {
        self.predict_ref(row).map(<[f64]>::to_vec)
    }

    /// Borrow-returning prediction: walks to the leaf and hands back its
    /// value slice without allocating. The forest's scoring path averages
    /// over many trees per call, so avoiding one `Vec` clone per tree
    /// matters for in-optimizer latency.
    pub fn predict_ref(&self, row: &[f64]) -> Result<&[f64]> {
        if self.nodes.is_empty() {
            return Err(MlError::NotFitted);
        }
        if row.len() != self.num_features {
            return Err(MlError::ShapeMismatch {
                detail: format!(
                    "row has {} features, tree expects {}",
                    row.len(),
                    self.num_features
                ),
            });
        }
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value, .. } => return Ok(value),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The fitted node arena, root first (compiled-forest construction
    /// walks it).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of output dimensions the tree was fitted on.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of input features the tree was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Encodes the fitted tree for the portable-model JSON format.
    pub(crate) fn to_json_value(&self) -> Value {
        let nodes = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => Value::object([
                    ("feature", Value::Number(*feature as f64)),
                    ("threshold", Value::Number(*threshold)),
                    ("left", Value::Number(*left as f64)),
                    ("right", Value::Number(*right as f64)),
                ]),
                Node::Leaf { value, samples } => Value::object([
                    ("value", Value::numbers(value)),
                    ("samples", Value::Number(*samples as f64)),
                ]),
            })
            .collect();
        Value::object([
            ("config", self.config.to_json_value()),
            ("nodes", Value::Array(nodes)),
            ("num_features", Value::Number(self.num_features as f64)),
            ("num_outputs", Value::Number(self.num_outputs as f64)),
        ])
    }

    /// Decodes a tree from the portable-model JSON format.
    pub(crate) fn from_json_value(value: &Value) -> Result<Self> {
        let config = DecisionTreeConfig::from_json_value(value.field("config")?)?;
        let nodes = value
            .field("nodes")?
            .as_array()?
            .iter()
            .map(|node| {
                if let Ok(value_field) = node.field("value") {
                    Ok(Node::Leaf {
                        value: value_field.as_f64_vec()?,
                        samples: node.field("samples")?.as_usize()?,
                    })
                } else {
                    Ok(Node::Split {
                        feature: node.field("feature")?.as_usize()?,
                        threshold: node.field("threshold")?.as_f64()?,
                        left: node.field("left")?.as_usize()?,
                        right: node.field("right")?.as_usize()?,
                    })
                }
            })
            .collect::<Result<Vec<Node>>>()?;
        Ok(Self {
            config,
            nodes,
            num_features: value.field("num_features")?.as_usize()?,
            num_outputs: value.field("num_outputs")?.as_usize()?,
        })
    }
}

impl DecisionTreeConfig {
    /// Encodes the configuration for the portable-model JSON format.
    pub(crate) fn to_json_value(self) -> Value {
        Value::object([
            (
                "max_depth",
                self.max_depth
                    .map_or(Value::Null, |d| Value::Number(d as f64)),
            ),
            (
                "min_samples_split",
                Value::Number(self.min_samples_split as f64),
            ),
            (
                "min_samples_leaf",
                Value::Number(self.min_samples_leaf as f64),
            ),
            (
                "max_features",
                self.max_features
                    .map_or(Value::Null, |d| Value::Number(d as f64)),
            ),
        ])
    }

    /// Decodes the configuration from the portable-model JSON format.
    pub(crate) fn from_json_value(value: &Value) -> Result<Self> {
        let optional = |field: &Value| -> Result<Option<usize>> {
            match field {
                Value::Null => Ok(None),
                other => Ok(Some(other.as_usize()?)),
            }
        };
        Ok(DecisionTreeConfig {
            max_depth: optional(value.field("max_depth")?)?,
            min_samples_split: value.field("min_samples_split")?.as_usize()?,
            min_samples_leaf: value.field("min_samples_leaf")?.as_usize()?,
            max_features: optional(value.field("max_features")?)?,
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

fn mean_target(targets: &[Vec<f64>], indices: &[usize], k: usize) -> Vec<f64> {
    let mut mean = vec![0.0; k];
    for &i in indices {
        for o in 0..k {
            mean[o] += targets[i][o];
        }
    }
    let n = indices.len().max(1) as f64;
    for m in &mut mean {
        *m /= n;
    }
    mean
}

fn sse(targets: &[Vec<f64>], indices: &[usize], mean: &[f64]) -> f64 {
    let mut total = 0.0;
    for &i in indices {
        for (o, &m) in mean.iter().enumerate() {
            let d = targets[i][o] - m;
            total += d * d;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        // y = 10 for x < 5, y = 20 for x >= 5 — a single split should nail it.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let targets: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![if i < 5 { 10.0 } else { 20.0 }])
            .collect();
        (rows, targets)
    }

    #[test]
    fn learns_a_step_function_exactly() {
        let (rows, targets) = step_data();
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig::default());
        tree.fit(&rows, &targets).unwrap();
        assert!((tree.predict(&[2.0]).unwrap()[0] - 10.0).abs() < 1e-9);
        assert!((tree.predict(&[7.0]).unwrap()[0] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth_zero() {
        let (rows, targets) = step_data();
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig {
            max_depth: Some(0),
            ..Default::default()
        });
        tree.fit(&rows, &targets).unwrap();
        assert_eq!(tree.node_count(), 1);
        // Single leaf predicts the global mean.
        assert!((tree.predict(&[0.0]).unwrap()[0] - 15.0).abs() < 1e-9);
    }

    #[test]
    fn multi_output_leaves_predict_vectors() {
        let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let targets: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                if i < 4 {
                    vec![1.0, 100.0]
                } else {
                    vec![2.0, 200.0]
                }
            })
            .collect();
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig::default());
        tree.fit(&rows, &targets).unwrap();
        let p = tree.predict(&[6.0]).unwrap();
        assert_eq!(p.len(), 2);
        assert!((p[0] - 2.0).abs() < 1e-9);
        assert!((p[1] - 200.0).abs() < 1e-9);
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let (rows, targets) = step_data();
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig {
            min_samples_leaf: 6, // cannot split 10 rows into two ≥6-row leaves
            ..Default::default()
        });
        tree.fit(&rows, &targets).unwrap();
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn constant_targets_yield_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, (i * 3) as f64]).collect();
        let targets = vec![vec![7.0]; 6];
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig::default());
        tree.fit(&rows, &targets).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert!((tree.predict(&[3.0, 9.0]).unwrap()[0] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn predict_rejects_wrong_width_and_unfitted() {
        let (rows, targets) = step_data();
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig::default());
        assert!(matches!(tree.predict(&[1.0]), Err(MlError::NotFitted)));
        tree.fit(&rows, &targets).unwrap();
        assert!(tree.predict(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn deeper_trees_fit_piecewise_structure() {
        // Piecewise-constant target with 4 segments needs depth >= 2.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let targets: Vec<Vec<f64>> = (0..40).map(|i| vec![(i / 10) as f64]).collect();
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig::default());
        tree.fit(&rows, &targets).unwrap();
        assert!(tree.depth() >= 2);
        for seg in 0..4 {
            let x = (seg * 10 + 5) as f64;
            assert!((tree.predict(&[x]).unwrap()[0] - seg as f64).abs() < 1e-9);
        }
    }
}
