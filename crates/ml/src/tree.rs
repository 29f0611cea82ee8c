//! CART regression trees with multi-output targets.
//!
//! The parameter model maps a feature vector to *several* PPM parameters at
//! once ({a, b, m} for the power law, {s, p} for Amdahl's law), so the tree
//! supports vector-valued leaves: splits minimise the summed per-output
//! variance, and a leaf predicts the per-output mean of its samples — the
//! same behaviour as scikit-learn's multi-output `DecisionTreeRegressor`.
//!
//! # The grower
//!
//! A tree is grown from presorted lists of sample row ids. The training
//! layout ranks each feature once per fit (one `partial_cmp` sort per
//! column): equal values share a rank, and ranks follow value order. Before
//! the root, each feature's list holds the (bootstrap) sample stably
//! counting-sorted by that rank, once per tree, which is exactly the stable
//! `partial_cmp` sort by value; one more list holds the sample in node order
//! (the order the caller passed it). All lists share one buffer, and every
//! node owns the same `lo..hi` segment of each list. A split scan reads a
//! candidate feature's segment in sorted order; applying a split stably
//! partitions every list by `x[feature] <= threshold`. Stable sorting
//! commutes with stable filtering, so each child's segment of a feature list
//! is exactly the stable sort of the child's node-order rows. No node sorts,
//! and no node allocates scratch.
//!
//! The grower keeps every float operation and its order: leaf means and the
//! parent SSE sum in node order; totals and prefix sums in each feature's
//! sorted order; a gap below `1e-15` between neighbours is a tie that cannot
//! be split; a split wins only on a strictly larger gain; thresholds are
//! `0.5 * (this + next)`; and the feature picker is called at the same
//! preorder points, left subtree first. Trees are therefore bit-identical
//! to sorting at every node, which a test pins against a reference copy of
//! that builder.
//!
//! Commuting sort and filter needs the comparator to be a total preorder,
//! which `partial_cmp` on floats is only without NaN. Fitting rejects a
//! NaN or infinite feature or target with [`MlError::Numerical`], and ragged
//! rows, an out-of-range sample index or candidate feature with
//! [`MlError::ShapeMismatch`].

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

    /// Fits the tree on `rows`/`targets`, restricted to the sample indices
    /// in `sample_indices` (duplicates allowed: the forest passes bootstrap
    /// samples) and drawing candidate split features with `feature_picker`.
    ///
    /// `feature_picker` is called once per split attempt, in preorder with
    /// the left subtree first, with the number of features, and must return
    /// the candidate column indices; the forest uses it for per-split
    /// feature subsampling. Passing a picker that returns all columns
    /// reproduces a plain CART tree.
    ///
    /// Fails with [`MlError::ShapeMismatch`] on ragged feature or target
    /// rows, a sample index past the last row, or a candidate column past
    /// the last feature, and with [`MlError::Numerical`] on a non-finite
    /// feature or target; on error the tree is left as it was.
    pub fn fit_with(
        &mut self,
        rows: &[Vec<f64>],
        targets: &[Vec<f64>],
        sample_indices: &[usize],
        feature_picker: &mut dyn FnMut(usize) -> Vec<usize>,
    ) -> Result<()> {
        let data = TrainingColumns::new(rows, targets)?;
        self.fit_columns(&data, sample_indices, &mut |d, candidates| {
            *candidates = feature_picker(d);
        })
    }

    /// Fits the tree on the full dataset with no feature subsampling.
    pub fn fit(&mut self, rows: &[Vec<f64>], targets: &[Vec<f64>]) -> Result<()> {
        let all: Vec<usize> = (0..rows.len()).collect();
        let mut picker = |d: usize| (0..d).collect::<Vec<_>>();
        self.fit_with(rows, targets, &all, &mut picker)
    }

    /// Grows the tree on already laid-out training data (the forest lays
    /// the data out once and shares it across trees). `feature_picker`
    /// fills its buffer with the candidate columns of one split attempt.
    pub(crate) fn fit_columns(
        &mut self,
        data: &TrainingColumns,
        sample_indices: &[usize],
        feature_picker: &mut dyn FnMut(usize, &mut Vec<usize>),
    ) -> Result<()> {
        if sample_indices.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if let Some(&bad) = sample_indices.iter().find(|&&i| i >= data.rows) {
            return Err(MlError::ShapeMismatch {
                detail: format!("sample index {bad} but only {} rows", data.rows),
            });
        }
        let grower = Grower::new(data, self.config, sample_indices);
        // Fixed widths keep the scan's per-output sums in registers; every
        // parameter model has 2 (Amdahl) or 3 (power law) outputs.
        self.nodes = match data.num_outputs {
            1 => grower.grow::<[f64; 1]>(feature_picker),
            2 => grower.grow::<[f64; 2]>(feature_picker),
            3 => grower.grow::<[f64; 3]>(feature_picker),
            4 => grower.grow::<[f64; 4]>(feature_picker),
            _ => grower.grow::<Vec<f64>>(feature_picker),
        }?;
        self.num_features = data.num_features;
        self.num_outputs = data.num_outputs;
        Ok(())
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

    /// Decodes a tree from the portable-model JSON format. Fails with
    /// [`MlError::Serialization`] unless the nodes form a tree that every
    /// walk can take (`check_arena`).
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
        let tree = Self {
            config,
            nodes,
            num_features: value.field("num_features")?.as_usize()?,
            num_outputs: value.field("num_outputs")?.as_usize()?,
        };
        tree.check_arena()?;
        Ok(tree)
    }

    /// Checks a decoded arena in one pass: it has a node; each split's
    /// children lie past the split and inside the arena; every node but the
    /// root is the child of exactly one split, so the arena is one tree with
    /// no cycle and no shared subtree; each split's feature is below
    /// `num_features`; and each leaf holds `num_outputs` values.
    fn check_arena(&self) -> Result<()> {
        let n = self.nodes.len();
        let malformed = |detail: String| Err(MlError::Serialization(format!("tree: {detail}")));
        if n == 0 {
            return malformed("no nodes".into());
        }
        let mut has_parent = vec![false; n];
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                Node::Split {
                    feature,
                    left,
                    right,
                    ..
                } => {
                    if *feature >= self.num_features {
                        return malformed(format!(
                            "node {i} splits on feature {feature} of {}",
                            self.num_features
                        ));
                    }
                    for &child in [left, right] {
                        if child <= i || child >= n {
                            return malformed(format!("node {i} has child {child} of {n} nodes"));
                        }
                        if std::mem::replace(&mut has_parent[child], true) {
                            return malformed(format!("node {child} has two parents"));
                        }
                    }
                }
                Node::Leaf { value, .. } => {
                    if value.len() != self.num_outputs {
                        return malformed(format!(
                            "leaf {i} holds {} values for {} outputs",
                            value.len(),
                            self.num_outputs
                        ));
                    }
                }
            }
        }
        match has_parent[1..].iter().position(|&p| !p) {
            Some(orphan) => malformed(format!("node {} has no parent", orphan + 1)),
            None => Ok(()),
        }
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

/// Training data laid out for the grower and validated once: features
/// column-major (`columns[f * rows + r]` is feature `f` of row `r`), so a
/// split reads one contiguous column, each feature's dense value rank per
/// row in the same layout, and targets flat row-major
/// (`targets[r * num_outputs + o]`). The forest builds it once per fit and
/// shares it read-only across trees.
#[derive(Debug)]
pub(crate) struct TrainingColumns {
    columns: Vec<f64>,
    /// `ranks[f * rows + r]` is the number of distinct values of feature
    /// `f` below row `r`'s, so equal values (`-0.0` and `0.0` included)
    /// share a rank and every rank is below `rows`.
    ranks: Vec<u32>,
    targets: Vec<f64>,
    rows: usize,
    num_features: usize,
    num_outputs: usize,
}

impl TrainingColumns {
    /// Lays out `rows`/`targets`. Fails with [`MlError::EmptyDataset`] when
    /// there are no rows; with [`MlError::ShapeMismatch`] on a row-count
    /// mismatch, zero outputs, or a feature or target row whose width
    /// differs from the first row's; and with [`MlError::Numerical`] on a
    /// NaN or infinite value.
    pub(crate) fn new(rows: &[Vec<f64>], targets: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() || targets.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if rows.len() != targets.len() {
            return Err(MlError::ShapeMismatch {
                detail: format!("{} rows vs {} targets", rows.len(), targets.len()),
            });
        }
        if u32::try_from(rows.len()).is_err() {
            return Err(MlError::ShapeMismatch {
                detail: format!("{} rows exceed the u32 row ids", rows.len()),
            });
        }
        let num_features = rows[0].len();
        let num_outputs = targets[0].len();
        if num_outputs == 0 {
            return Err(MlError::ShapeMismatch {
                detail: "targets have zero outputs".into(),
            });
        }
        check_widths("feature", rows, num_features)?;
        check_widths("target", targets, num_outputs)?;
        check_finite("feature", rows)?;
        check_finite("target", targets)?;
        let n = rows.len();
        let mut columns = vec![0.0; n * num_features];
        for (r, row) in rows.iter().enumerate() {
            for (f, &v) in row.iter().enumerate() {
                columns[f * n + r] = v;
            }
        }
        let mut ranks = vec![0; n * num_features];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for (column, ranks) in columns.chunks_exact(n).zip(ranks.chunks_exact_mut(n)) {
            order.clear();
            order.extend(0..n as u32);
            order.sort_unstable_by(|&a, &b| {
                column[a as usize]
                    .partial_cmp(&column[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut rank = 0;
            let mut previous = column[order[0] as usize];
            for &r in &order {
                let v = column[r as usize];
                if v != previous {
                    rank += 1;
                    previous = v;
                }
                ranks[r as usize] = rank;
            }
        }
        Ok(Self {
            columns,
            ranks,
            targets: targets.concat(),
            rows: n,
            num_features,
            num_outputs,
        })
    }

    fn column(&self, feature: usize) -> &[f64] {
        &self.columns[feature * self.rows..(feature + 1) * self.rows]
    }

    fn ranks(&self, feature: usize) -> &[u32] {
        &self.ranks[feature * self.rows..(feature + 1) * self.rows]
    }
}

fn check_widths(what: &str, rows: &[Vec<f64>], width: usize) -> Result<()> {
    match rows.iter().position(|row| row.len() != width) {
        Some(r) => Err(MlError::ShapeMismatch {
            detail: format!(
                "{what} row {r} has {} values, row 0 has {width}",
                rows[r].len()
            ),
        }),
        None => Ok(()),
    }
}

fn check_finite(what: &str, rows: &[Vec<f64>]) -> Result<()> {
    for (r, row) in rows.iter().enumerate() {
        if let Some(c) = row.iter().position(|v| !v.is_finite()) {
            return Err(MlError::Numerical(format!(
                "{what} row {r}, column {c} is {}",
                row[c]
            )));
        }
    }
    Ok(())
}

/// Per-output running sums (node mean, split-scan totals and prefixes): a
/// stack array when the output width is a compile-time constant, a `Vec`
/// otherwise. Either is allocated once per tree.
trait Sums: AsRef<[f64]> + AsMut<[f64]> {
    fn zeroed(width: usize) -> Self;
}

impl<const K: usize> Sums for [f64; K] {
    fn zeroed(_: usize) -> Self {
        [0.0; K]
    }
}

impl Sums for Vec<f64> {
    fn zeroed(width: usize) -> Self {
        vec![0.0; width]
    }
}

/// One tree's growing state. `lists` holds `num_features + 1` lists of the
/// `m` sampled row ids: list `f < num_features` is the sample stably sorted
/// by feature `f`, the last is the sample in node order. Every node owns the
/// same `lo..hi` segment of every list.
struct Grower<'a> {
    data: &'a TrainingColumns,
    config: DecisionTreeConfig,
    m: usize,
    lists: Vec<u32>,
    /// Where a stable partition parks the right-going rows of a segment.
    spill: Vec<u32>,
    /// Per row: whether it goes left at the split being applied.
    goes_left: Vec<bool>,
}

/// A node waiting to be grown: its list segment, depth, and (for a right
/// child) the arena index of the parent whose `right` link it fills.
struct Pending {
    lo: usize,
    hi: usize,
    depth: usize,
    right_of: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

impl<'a> Grower<'a> {
    /// Sorts each feature's sample once, with a stable counting sort by the
    /// feature's dense rank. Equal ranks are exactly the values that
    /// `partial_cmp` calls equal, and ties keep sample order, so each list
    /// is the stable `partial_cmp` sort that per-node sorting used.
    fn new(data: &'a TrainingColumns, config: DecisionTreeConfig, sample: &[usize]) -> Self {
        let m = sample.len();
        let mut lists = vec![0; (data.num_features + 1) * m];
        let (feature_lists, node_order) = lists.split_at_mut(data.num_features * m);
        let mut next_slot = vec![0; data.rows];
        for (feature, list) in feature_lists.chunks_exact_mut(m).enumerate() {
            let ranks = data.ranks(feature);
            // Count each rank, then turn the counts into each rank's first
            // slot; placing the sample in order keeps ties in sample order.
            next_slot.fill(0);
            for &r in sample {
                next_slot[ranks[r] as usize] += 1;
            }
            let mut start = 0;
            for slot in next_slot.iter_mut() {
                let count = *slot;
                *slot = start;
                start += count;
            }
            for &r in sample {
                let slot = &mut next_slot[ranks[r] as usize];
                list[*slot] = r as u32;
                *slot += 1;
            }
        }
        for (slot, &r) in node_order.iter_mut().zip(sample) {
            *slot = r as u32;
        }
        Self {
            data,
            config,
            m,
            lists,
            spill: vec![0; m],
            goes_left: vec![false; data.rows],
        }
    }

    /// Grows the tree in preorder, left subtree first, and returns its node
    /// arena.
    ///
    /// A split stably partitions every list by `x[feature] <= threshold`.
    /// Stable sorting commutes with stable filtering, so each child's
    /// segment of a feature list is exactly the stable sort of the child's
    /// node-order rows: what sorting at the node would give, with no sort
    /// and no scratch allocation per node.
    fn grow<S: Sums>(
        mut self,
        feature_picker: &mut dyn FnMut(usize, &mut Vec<usize>),
    ) -> Result<Vec<Node>> {
        let d = self.data.num_features;
        let w = self.data.num_outputs;
        let targets = self.data.targets.as_slice();
        let node_order = d * self.m;
        let mut nodes = Vec::new();
        let mut candidates = Vec::with_capacity(d);
        let mut mean = S::zeroed(w);
        let mut sums = [S::zeroed(w), S::zeroed(w), S::zeroed(w), S::zeroed(w)];
        let mut stack = vec![Pending {
            lo: 0,
            hi: self.m,
            depth: 0,
            right_of: None,
        }];
        while let Some(Pending {
            lo,
            hi,
            depth,
            right_of,
        }) = stack.pop()
        {
            let node_idx = nodes.len();
            if let Some(Node::Split { right, .. }) = right_of.map(|p| &mut nodes[p]) {
                *right = node_idx;
            }
            let rows = &self.lists[node_order + lo..node_order + hi];
            let n = rows.len();
            // Leaf mean and parent SSE are summed in node order.
            mean.as_mut().fill(0.0);
            for &r in rows {
                let y = &targets[r as usize * w..][..w];
                for (m, &v) in mean.as_mut().iter_mut().zip(y) {
                    *m += v;
                }
            }
            let count = n.max(1) as f64;
            for m in mean.as_mut() {
                *m /= count;
            }
            let leaf = || Node::Leaf {
                value: mean.as_ref().to_vec(),
                samples: n,
            };

            let depth_ok = self.config.max_depth.is_none_or(|max| depth < max);
            if !depth_ok || n < self.config.min_samples_split {
                nodes.push(leaf());
                continue;
            }
            let mut parent_sse = 0.0;
            for &r in rows {
                let y = &targets[r as usize * w..][..w];
                for (&v, &m) in y.iter().zip(mean.as_ref()) {
                    let diff = v - m;
                    parent_sse += diff * diff;
                }
            }
            if parent_sse <= 1e-12 {
                nodes.push(leaf());
                continue;
            }

            candidates.clear();
            feature_picker(d, &mut candidates);
            let mut best: Option<BestSplit> = None;
            for &feature in &candidates {
                if feature >= d {
                    return Err(MlError::ShapeMismatch {
                        detail: format!("candidate feature {feature} but only {d} features"),
                    });
                }
                let sorted = &self.lists[feature * self.m + lo..feature * self.m + hi];
                scan_feature(
                    self.data.column(feature),
                    targets,
                    sorted,
                    parent_sse,
                    feature,
                    &mut sums,
                    &mut best,
                );
            }
            let Some(best) = best else {
                nodes.push(leaf());
                continue;
            };
            if best.gain <= 1e-12 {
                nodes.push(leaf());
                continue;
            }

            let column = self.data.column(best.feature);
            let mut left_n = 0;
            for &r in rows {
                let left = column[r as usize] <= best.threshold;
                self.goes_left[r as usize] = left;
                left_n += usize::from(left);
            }
            let min_leaf = self.config.min_samples_leaf;
            if left_n < min_leaf || n - left_n < min_leaf {
                nodes.push(leaf());
                continue;
            }
            for list in self.lists.chunks_exact_mut(self.m) {
                stable_partition(&mut list[lo..hi], &mut self.spill, &self.goes_left);
            }
            nodes.push(Node::Split {
                feature: best.feature,
                threshold: best.threshold,
                left: node_idx + 1,
                right: node_idx, // set when the right child is popped
            });
            stack.push(Pending {
                lo: lo + left_n,
                hi,
                depth: depth + 1,
                right_of: Some(node_idx),
            });
            stack.push(Pending {
                lo,
                hi: lo + left_n,
                depth: depth + 1,
                right_of: None,
            });
        }
        Ok(nodes)
    }
}

/// Scans one candidate feature's sorted node segment and updates `best`:
/// totals and prefix sums accumulate in sorted order, a gap below `1e-15`
/// is a tie that cannot be split, and a split replaces `best` only on a
/// strictly larger gain (the first split found always does).
fn scan_feature<S: Sums>(
    column: &[f64],
    targets: &[f64],
    sorted: &[u32],
    parent_sse: f64,
    feature: usize,
    sums: &mut [S; 4],
    best: &mut Option<BestSplit>,
) {
    let (Some(&first), Some(&last)) = (sorted.first(), sorted.last()) else {
        return;
    };
    // Every adjacent gap is at most `last - first` (float subtraction is
    // monotone), so a constant segment holds no split.
    if column[last as usize] - column[first as usize] < 1e-15 {
        return;
    }
    let [total_sum, total_sumsq, prefix_sum, prefix_sumsq] = sums;
    let (total_sum, total_sumsq) = (total_sum.as_mut(), total_sumsq.as_mut());
    let (prefix_sum, prefix_sumsq) = (prefix_sum.as_mut(), prefix_sumsq.as_mut());
    let w = total_sum.len();
    total_sum.fill(0.0);
    total_sumsq.fill(0.0);
    prefix_sum.fill(0.0);
    prefix_sumsq.fill(0.0);
    for &r in sorted {
        let y = &targets[r as usize * w..][..w];
        for o in 0..w {
            total_sum[o] += y[o];
            total_sumsq[o] += y[o] * y[o];
        }
    }
    let n = sorted.len();
    let mut this_v = column[first as usize];
    for pos in 0..n - 1 {
        let y = &targets[sorted[pos] as usize * w..][..w];
        for o in 0..w {
            prefix_sum[o] += y[o];
            prefix_sumsq[o] += y[o] * y[o];
        }
        let next_v = column[sorted[pos + 1] as usize];
        if (next_v - this_v).abs() < 1e-15 {
            this_v = next_v;
            continue; // cannot split between equal values
        }
        let left_n = (pos + 1) as f64;
        let right_n = (n - pos - 1) as f64;
        let mut child_sse = 0.0;
        for o in 0..w {
            let ls = prefix_sum[o];
            let lss = prefix_sumsq[o];
            let rs = total_sum[o] - ls;
            let rss = total_sumsq[o] - lss;
            child_sse += lss - ls * ls / left_n;
            child_sse += rss - rs * rs / right_n;
        }
        let gain = parent_sse - child_sse;
        if best.as_ref().is_none_or(|b| gain > b.gain) {
            *best = Some(BestSplit {
                feature,
                threshold: 0.5 * (this_v + next_v),
                gain,
            });
        }
        this_v = next_v;
    }
}

/// Stably partitions `segment` so the rows with `goes_left[row]` come
/// first. Branch-free: each row is written to the next left slot (in place;
/// that slot is never ahead of the read) and to the next `spill` slot, and
/// only the matching cursor advances.
fn stable_partition(segment: &mut [u32], spill: &mut [u32], goes_left: &[bool]) {
    let mut left = 0;
    let mut right = 0;
    for i in 0..segment.len() {
        let row = segment[i];
        let go_left = goes_left[row as usize];
        segment[left] = row;
        spill[right] = row;
        left += usize::from(go_left);
        right += usize::from(!go_left);
    }
    segment[left..].copy_from_slice(&spill[..right]);
}

/// The per-node re-sorting builder the grower replaced, kept verbatim as the
/// bit-identity reference for the grower's tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::{DecisionTreeConfig, Node};

    #[derive(Debug, Clone, Copy)]
    struct BestSplit {
        feature: usize,
        threshold: f64,
        gain: f64,
    }

    /// A node with every float as its bit pattern, for exact comparison.
    #[derive(Debug, PartialEq)]
    pub(crate) enum NodeBits {
        Split(usize, u64, usize, usize),
        Leaf(Vec<u64>, usize),
    }

    pub(crate) fn arena_bits(nodes: &[Node]) -> Vec<NodeBits> {
        nodes
            .iter()
            .map(|node| match node {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => NodeBits::Split(*feature, threshold.to_bits(), *left, *right),
                Node::Leaf { value, samples } => {
                    NodeBits::Leaf(value.iter().map(|v| v.to_bits()).collect(), *samples)
                }
            })
            .collect()
    }

    /// Fits a tree's node arena the way the grower's predecessor did.
    pub(crate) fn fit(
        config: DecisionTreeConfig,
        rows: &[Vec<f64>],
        targets: &[Vec<f64>],
        sample_indices: &[usize],
        feature_picker: &mut dyn FnMut(usize) -> Vec<usize>,
    ) -> Vec<Node> {
        let mut builder = Builder {
            config,
            nodes: Vec::new(),
            num_features: rows[0].len(),
            num_outputs: targets[0].len(),
        };
        builder.build_node(rows, targets, sample_indices.to_vec(), 0, feature_picker);
        builder.nodes
    }

    struct Builder {
        config: DecisionTreeConfig,
        nodes: Vec<Node>,
        num_features: usize,
        num_outputs: usize,
    }

    impl Builder {
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
}

#[cfg(test)]
mod tests {
    use super::reference::{self, arena_bits};
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

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

    /// A seeded dataset whose columns cycle through the grower's hard
    /// cases: integers full of ties, continuous values, a constant, and a
    /// mix of `-0.0`/`0.0`/`±1`. Targets mix integer and continuous values.
    fn seeded_dataset(seed: u64, n: usize, d: usize, k: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|f| match f % 4 {
                        0 => rng.gen_range(0..6u32) as f64,
                        1 => rng.gen_range(-50.0..50.0),
                        2 => 3.0,
                        _ => [-0.0, 0.0, 1.0, -1.0][rng.gen_range(0..4usize)],
                    })
                    .collect()
            })
            .collect();
        let targets = rows
            .iter()
            .map(|row| {
                (0..k)
                    .map(|o| {
                        let signal = row.first().copied().unwrap_or(0.0) * (o + 1) as f64;
                        if o % 2 == 0 {
                            signal + rng.gen_range(0..3u32) as f64
                        } else {
                            signal * 0.5 + rng.gen_range(-1.0..1.0)
                        }
                    })
                    .collect()
            })
            .collect();
        (rows, targets)
    }

    /// Feature picker drawing `max_features` of the columns per split from
    /// a seeded shuffle, like the forest's (all columns when `None`).
    fn seeded_picker(seed: u64, max_features: Option<usize>) -> impl FnMut(usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        move |d| {
            let mut cols: Vec<usize> = (0..d).collect();
            if let Some(max) = max_features.filter(|&max| max < d) {
                cols.shuffle(&mut rng);
                cols.truncate(max);
            }
            cols
        }
    }

    #[test]
    fn grower_matches_the_per_node_sorting_reference_bit_for_bit() {
        let configs = [
            DecisionTreeConfig::default(),
            DecisionTreeConfig {
                max_depth: Some(0),
                ..Default::default()
            },
            DecisionTreeConfig {
                max_depth: Some(3),
                ..Default::default()
            },
            DecisionTreeConfig {
                min_samples_split: 0,
                min_samples_leaf: 0,
                ..Default::default()
            },
            DecisionTreeConfig {
                min_samples_split: 7,
                ..Default::default()
            },
            DecisionTreeConfig {
                min_samples_leaf: 4,
                ..Default::default()
            },
        ];
        let mut checked_nodes = 0;
        for seed in 0..12u64 {
            let k = 1 + (seed as usize % 5); // 1–4 outputs, and 5 (dynamic width)
            let d = 1 + (seed as usize % 7);
            let n = 10 + 9 * seed as usize;
            let (rows, targets) = seeded_dataset(seed, n, d, k);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let bootstrap: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let mut shuffled: Vec<usize> = (0..n).collect();
            shuffled.shuffle(&mut rng);
            shuffled.truncate(n * 2 / 3);
            let all: Vec<usize> = (0..n).collect();
            for sample in [&all, &bootstrap, &shuffled] {
                for config in configs {
                    for max_features in [None, Some(d.div_ceil(2))] {
                        let expected = reference::fit(
                            config,
                            &rows,
                            &targets,
                            sample,
                            &mut seeded_picker(seed, max_features),
                        );
                        let mut tree = DecisionTreeRegressor::new(config);
                        tree.fit_with(
                            &rows,
                            &targets,
                            sample,
                            &mut seeded_picker(seed, max_features),
                        )
                        .unwrap();
                        assert_eq!(
                            arena_bits(tree.nodes()),
                            arena_bits(&expected),
                            "seed {seed}, {config:?}, max_features {max_features:?}"
                        );
                        checked_nodes += expected.len();
                    }
                }
            }
        }
        assert!(checked_nodes > 5_000, "only {checked_nodes} nodes compared");
    }

    #[test]
    fn presorted_lists_equal_a_stable_partial_cmp_sort() {
        let ulp = |v: f64, steps: u64| f64::from_bits(v.to_bits() + steps);
        let tiny = f64::MIN_POSITIVE;
        let n = 24;
        // Columns: signed zeros among ±1; values repeating in reverse row
        // order; neighbours one ULP apart; subnormals around zero; a
        // constant; and row-distinct values.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    [-0.0, 0.0, 1.0, -1.0, 0.0, -0.0][i % 6],
                    ((n - i) / 3) as f64,
                    ulp(1.0, (i % 5) as u64),
                    [tiny / 4.0, -tiny / 8.0, tiny, 0.0, -0.0, tiny / 4.0][i % 6],
                    2.5,
                    (i as f64 * 0.37).sin(),
                ]
            })
            .collect();
        let targets: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let data = TrainingColumns::new(&rows, &targets).unwrap();
        let d = rows[0].len();

        for feature in 0..d {
            let column = data.column(feature);
            let ranks = data.ranks(feature);
            let distinct = *ranks.iter().max().unwrap() as usize + 1;
            let mut seen = vec![false; distinct];
            for r in 0..n {
                seen[ranks[r] as usize] = true;
                for s in 0..n {
                    assert_eq!(
                        ranks[r].cmp(&ranks[s]),
                        column[r].partial_cmp(&column[s]).unwrap(),
                        "feature {feature}, rows {r} and {s}"
                    );
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "feature {feature}: ranks not dense"
            );
            assert_eq!(distinct, [3, 9, 5, 4, 1, n][feature], "feature {feature}");
        }

        let mut rng = StdRng::seed_from_u64(17);
        let mut samples: Vec<Vec<usize>> = vec![(0..n).collect(), (0..n).rev().collect()];
        samples.extend((0..4).map(|_| (0..n).map(|_| rng.gen_range(0..n)).collect()));
        samples.push(vec![5, 5, 0, 11, 5, 0]);
        for sample in &samples {
            let m = sample.len();
            let grower = Grower::new(&data, DecisionTreeConfig::default(), sample);
            for feature in 0..d {
                let column = data.column(feature);
                let mut keyed: Vec<(f64, u32)> =
                    sample.iter().map(|&r| (column[r], r as u32)).collect();
                keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                let expected: Vec<u32> = keyed.iter().map(|&(_, r)| r).collect();
                assert_eq!(
                    &grower.lists[feature * m..][..m],
                    expected.as_slice(),
                    "feature {feature}, sample {sample:?}"
                );
            }
            let node_order: Vec<u32> = sample.iter().map(|&r| r as u32).collect();
            assert_eq!(&grower.lists[d * m..], node_order.as_slice());
        }
    }

    #[test]
    fn ragged_feature_rows_are_a_shape_mismatch() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        let targets = vec![vec![1.0], vec![2.0]];
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig::default());
        assert!(matches!(
            tree.fit(&rows, &targets),
            Err(MlError::ShapeMismatch { .. })
        ));
        assert!(!tree.is_fitted());
    }

    #[test]
    fn ragged_target_rows_are_a_shape_mismatch() {
        let rows = vec![vec![1.0], vec![2.0], vec![3.0]];
        let targets = vec![vec![1.0, 5.0], vec![2.0, 6.0], vec![3.0]];
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig::default());
        assert!(matches!(
            tree.fit(&rows, &targets),
            Err(MlError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_sample_index_is_a_shape_mismatch() {
        let rows = vec![vec![1.0], vec![2.0], vec![3.0]];
        let targets = vec![vec![1.0], vec![2.0], vec![3.0]];
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig::default());
        let mut all = |d: usize| (0..d).collect::<Vec<_>>();
        assert!(matches!(
            tree.fit_with(&rows, &targets, &[0, 7, 1], &mut all),
            Err(MlError::ShapeMismatch { .. })
        ));
        let mut out_of_range = |_: usize| vec![1];
        assert!(matches!(
            tree.fit_with(&rows, &targets, &[0, 1, 2], &mut out_of_range),
            Err(MlError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_features_are_rejected() {
        // A cleanly separable step with two NaN features.
        let mut rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let targets: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![if i < 4 { 0.0 } else { 10.0 }])
            .collect();
        rows[1][0] = f64::NAN;
        rows[6][0] = f64::NAN;
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig::default());
        assert!(matches!(
            tree.fit(&rows, &targets),
            Err(MlError::Numerical(_))
        ));
        // Two equal infinities: splitting between them would leave a child
        // empty.
        let rows = vec![
            vec![1.0],
            vec![2.0],
            vec![f64::INFINITY],
            vec![f64::INFINITY],
        ];
        let targets = vec![vec![0.0], vec![10.0], vec![0.0], vec![100.0]];
        assert!(matches!(
            tree.fit(&rows, &targets),
            Err(MlError::Numerical(_))
        ));
        assert!(!tree.is_fitted());
    }

    #[test]
    fn non_finite_targets_are_rejected() {
        let rows: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let targets = vec![vec![1.0], vec![f64::NAN], vec![3.0], vec![4.0]];
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig::default());
        assert!(matches!(
            tree.fit(&rows, &targets),
            Err(MlError::Numerical(_))
        ));
    }

    #[test]
    fn a_failed_refit_leaves_the_tree_as_it_was() {
        let (rows, targets) = step_data();
        let mut tree = DecisionTreeRegressor::new(DecisionTreeConfig::default());
        tree.fit(&rows, &targets).unwrap();
        let before = arena_bits(tree.nodes());
        let ragged = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(tree.fit(&ragged, &targets[..2]).is_err());
        assert_eq!(arena_bits(tree.nodes()), before);
        assert_eq!(tree.num_features(), 1);
    }
}
