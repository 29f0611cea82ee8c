//! Feature-matrix container, train/test splits and cross-validation folds.
//!
//! The parameter model of the paper is trained on *one row per query*
//! (Section 3.4): the features are the compile-time plan characteristics of
//! Table 2 and the targets are the fitted PPM parameters. The evaluation
//! (Section 5) uses 10-repeated 5-fold cross-validation over query templates,
//! which [`RepeatedKFold`] reproduces.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::{MlError, Result};

/// A dense dataset: `rows × features` plus `rows × outputs` targets.
///
/// Rows carry an optional string identifier (the query name) so that
/// evaluation code can map fold membership back to queries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    feature_names: Vec<String>,
    target_names: Vec<String>,
    rows: Vec<Vec<f64>>,
    targets: Vec<Vec<f64>>,
    ids: Vec<String>,
}

impl Dataset {
    /// Creates an empty dataset with the given feature and target names.
    pub fn new(feature_names: Vec<String>, target_names: Vec<String>) -> Self {
        Self {
            feature_names,
            target_names,
            rows: Vec::new(),
            targets: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Adds one labelled row. Returns an error if the widths do not match the
    /// declared feature/target names.
    pub fn push_row(
        &mut self,
        id: impl Into<String>,
        features: Vec<f64>,
        targets: Vec<f64>,
    ) -> Result<()> {
        if features.len() != self.feature_names.len() {
            return Err(MlError::ShapeMismatch {
                detail: format!(
                    "row has {} features, dataset declares {}",
                    features.len(),
                    self.feature_names.len()
                ),
            });
        }
        if targets.len() != self.target_names.len() {
            return Err(MlError::ShapeMismatch {
                detail: format!(
                    "row has {} targets, dataset declares {}",
                    targets.len(),
                    self.target_names.len()
                ),
            });
        }
        self.ids.push(id.into());
        self.rows.push(features);
        self.targets.push(targets);
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of features per row.
    pub fn num_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of target outputs per row.
    pub fn num_targets(&self) -> usize {
        self.target_names.len()
    }

    /// Feature names in column order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Target names in column order.
    pub fn target_names(&self) -> &[String] {
        &self.target_names
    }

    /// Row identifiers (typically query names).
    pub fn ids(&self) -> &[String] {
        &self.ids
    }

    /// Feature rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Target rows.
    pub fn targets(&self) -> &[Vec<f64>] {
        &self.targets
    }

    /// Returns the feature row at `idx`.
    pub fn row(&self, idx: usize) -> &[f64] {
        &self.rows[idx]
    }

    /// Returns the target row at `idx`.
    pub fn target(&self, idx: usize) -> &[f64] {
        &self.targets[idx]
    }

    /// Builds a new dataset restricted to the given row indices (used to
    /// materialise cross-validation folds).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.feature_names.clone(), self.target_names.clone());
        for &i in indices {
            out.ids.push(self.ids[i].clone());
            out.rows.push(self.rows[i].clone());
            out.targets.push(self.targets[i].clone());
        }
        out
    }

    /// Single-column view of a target, useful for fitting per-parameter models.
    pub fn target_column(&self, col: usize) -> Vec<f64> {
        self.targets.iter().map(|t| t[col]).collect()
    }
}

/// One train/test split: indices into the parent dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldSplit {
    /// Row indices forming the training set.
    pub train: Vec<usize>,
    /// Row indices forming the held-out test set.
    pub test: Vec<usize>,
}

/// K-fold cross-validation over row indices, with shuffling.
#[derive(Debug, Clone)]
pub struct KFold {
    /// Number of folds (the paper uses 5, i.e. an 80:20 split).
    pub k: usize,
    /// Seed for the shuffle, so folds are reproducible.
    pub seed: u64,
}

impl KFold {
    /// Creates a k-fold splitter.
    pub fn new(k: usize, seed: u64) -> Self {
        Self { k, seed }
    }

    /// Produces the `k` train/test splits for a dataset of `n` rows.
    ///
    /// Every row appears in exactly one test fold; folds differ in size by at
    /// most one row.
    pub fn splits(&self, n: usize) -> Result<Vec<FoldSplit>> {
        if n == 0 {
            return Err(MlError::EmptyDataset);
        }
        if self.k < 2 || self.k > n {
            return Err(MlError::ShapeMismatch {
                detail: format!("k={} invalid for n={}", self.k, n),
            });
        }
        let mut indices: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        indices.shuffle(&mut rng);

        let base = n / self.k;
        let extra = n % self.k;
        let mut splits = Vec::with_capacity(self.k);
        let mut start = 0usize;
        for fold in 0..self.k {
            let size = base + usize::from(fold < extra);
            let test: Vec<usize> = indices[start..start + size].to_vec();
            let train: Vec<usize> = indices[..start]
                .iter()
                .chain(indices[start + size..].iter())
                .copied()
                .collect();
            splits.push(FoldSplit { train, test });
            start += size;
        }
        Ok(splits)
    }
}

/// Repeated k-fold cross-validation: `repeats` independent shuffles of
/// [`KFold`], as in the paper's "10-repeated, 5-fold cross validations".
#[derive(Debug, Clone)]
pub struct RepeatedKFold {
    /// Number of folds per repeat.
    pub k: usize,
    /// Number of independent repeats.
    pub repeats: usize,
    /// Base seed; repeat `r` uses `seed + r`.
    pub seed: u64,
}

impl RepeatedKFold {
    /// Creates a repeated k-fold splitter.
    pub fn new(k: usize, repeats: usize, seed: u64) -> Self {
        Self { k, repeats, seed }
    }

    /// Produces all `k × repeats` splits, grouped by repeat.
    pub fn splits(&self, n: usize) -> Result<Vec<Vec<FoldSplit>>> {
        (0..self.repeats)
            .map(|r| KFold::new(self.k, self.seed.wrapping_add(r as u64)).splits(n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "y".into()], vec!["t".into()]);
        for i in 0..n {
            d.push_row(
                format!("row{i}"),
                vec![i as f64, (i * 2) as f64],
                vec![i as f64 * 0.5],
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn push_row_validates_shapes() {
        let mut d = Dataset::new(vec!["a".into()], vec!["t".into()]);
        assert!(d.push_row("ok", vec![1.0], vec![2.0]).is_ok());
        assert!(matches!(
            d.push_row("bad", vec![1.0, 2.0], vec![2.0]),
            Err(MlError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            d.push_row("bad", vec![1.0], vec![]),
            Err(MlError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn subset_preserves_rows_and_ids() {
        let d = toy_dataset(5);
        let s = d.subset(&[1, 3]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.ids(), &["row1".to_string(), "row3".to_string()]);
        assert_eq!(s.row(0), &[1.0, 2.0]);
        assert_eq!(s.target(1), &[1.5]);
    }

    #[test]
    fn kfold_covers_all_rows_exactly_once() {
        let splits = KFold::new(5, 42).splits(103).unwrap();
        assert_eq!(splits.len(), 5);
        let mut seen = vec![0usize; 103];
        for s in &splits {
            assert_eq!(s.train.len() + s.test.len(), 103);
            for &i in &s.test {
                seen[i] += 1;
            }
            // train and test are disjoint
            for &i in &s.test {
                assert!(!s.train.contains(&i));
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn kfold_is_deterministic_for_a_seed() {
        let a = KFold::new(5, 7).splits(50).unwrap();
        let b = KFold::new(5, 7).splits(50).unwrap();
        assert_eq!(a, b);
        let c = KFold::new(5, 8).splits(50).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn kfold_rejects_degenerate_parameters() {
        assert!(KFold::new(1, 0).splits(10).is_err());
        assert!(KFold::new(11, 0).splits(10).is_err());
        assert!(KFold::new(5, 0).splits(0).is_err());
    }

    #[test]
    fn repeated_kfold_produces_distinct_repeats() {
        let r = RepeatedKFold::new(5, 10, 1);
        let all = r.splits(103).unwrap();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].len(), 5);
        assert_ne!(all[0], all[1]);
    }

    #[test]
    fn target_column_extracts_single_output() {
        let d = toy_dataset(4);
        assert_eq!(d.target_column(0), vec![0.0, 0.5, 1.0, 1.5]);
    }
}
