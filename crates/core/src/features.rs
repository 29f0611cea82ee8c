//! Plan featurization — Table 2 of the paper.
//!
//! The parameter model only consumes features available at compile /
//! optimization time: per-operator counts, the total operator count, the
//! maximum plan depth, the number of input sources, the estimated total
//! input bytes, and the estimated total rows processed. No runtime
//! statistics are used (Section 3.4), so the same featurization serves both
//! training and in-optimizer scoring.
//!
//! [`FeatureSet`] additionally captures the reduced feature sets of the
//! Section 5.7 ablation: `F0` (all features), `F1` (top six by permutation
//! importance), `F2` (the two input-size features), and `F3 = F1 − F2`
//! (the four plan-shape features).

use std::borrow::Cow;

use ae_engine::plan::{OperatorKind, PlanStats, QueryPlan};
use ae_ml::matrix::FeatureMatrix;
use serde::{Deserialize, Serialize};

use crate::{AutoExecutorError, Result};

/// Feature name for the estimated total input bytes.
pub const TOTAL_INPUT_BYTES: &str = "TotalInputBytes";
/// Feature name for the estimated total rows processed.
pub const TOTAL_ROWS_PROCESSED: &str = "TotalRowsProcessed";
/// Feature name for the maximum plan depth.
pub const MAX_DEPTH: &str = "MaxDepth";
/// Feature name for the total operator count.
pub const NUM_OPS: &str = "NumOps";
/// Feature name for the number of input sources.
pub const NUM_INPUTS: &str = "NumInputs";

/// Number of columns in a full feature vector ([`full_feature_names`]).
pub const NUM_FULL_FEATURES: usize = OperatorKind::ALL.len() + 5;

/// Column of `NumOps` in the full feature vector; the other four plan-wide
/// features follow it in [`full_feature_names`] order.
const NUM_OPS_COLUMN: usize = OperatorKind::ALL.len();
const MAX_DEPTH_COLUMN: usize = NUM_OPS_COLUMN + 1;
const TOTAL_INPUT_BYTES_COLUMN: usize = NUM_OPS_COLUMN + 3;
const TOTAL_ROWS_PROCESSED_COLUMN: usize = NUM_OPS_COLUMN + 4;
/// Operator-count columns follow [`OperatorKind::ALL`], which lists the
/// kinds in declaration order.
const PROJECT_COLUMN: usize = OperatorKind::Project as usize;
const FILTER_COLUMN: usize = OperatorKind::Filter as usize;

/// The full feature-name list, in column order.
///
/// Order: the 14 operator-count features (in [`OperatorKind::ALL`] order),
/// then `NumOps`, `MaxDepth`, `NumInputs`, `TotalInputBytes`,
/// `TotalRowsProcessed`.
pub fn full_feature_names() -> Vec<String> {
    let mut names: Vec<String> = OperatorKind::ALL
        .iter()
        .map(|k| k.name().to_string())
        .collect();
    names.push(NUM_OPS.to_string());
    names.push(MAX_DEPTH.to_string());
    names.push(NUM_INPUTS.to_string());
    names.push(TOTAL_INPUT_BYTES.to_string());
    names.push(TOTAL_ROWS_PROCESSED.to_string());
    names
}

/// Checks that a feature vector has the full Table-2 width.
fn check_full_width(width: usize) -> Result<()> {
    if width != NUM_FULL_FEATURES {
        return Err(AutoExecutorError::FeatureWidth {
            expected: NUM_FULL_FEATURES,
            actual: width,
        });
    }
    Ok(())
}

/// Featurizes plan statistics into the full feature vector (same order as
/// [`full_feature_names`]).
pub fn featurize_stats(stats: &PlanStats) -> Vec<f64> {
    let mut values: Vec<f64> = stats.operator_counts.iter().map(|&c| c as f64).collect();
    values.push(stats.total_operators as f64);
    values.push(stats.max_depth as f64);
    values.push(stats.num_input_sources as f64);
    values.push(stats.total_input_bytes);
    values.push(stats.total_rows_processed);
    values
}

/// Featurizes a query plan (convenience over [`featurize_stats`]).
pub fn featurize_plan(plan: &QueryPlan) -> Vec<f64> {
    featurize_stats(&plan.stats())
}

/// The feature sets of the Section 5.7 ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureSet {
    /// All Table-2 features.
    F0,
    /// The top six features by permutation importance: total input bytes,
    /// total rows processed, max depth, operator count, `Project`, `Filter`.
    F1,
    /// The two input-size features only.
    F2,
    /// The four plan-shape features of F1 (i.e. F1 minus F2).
    F3,
}

impl FeatureSet {
    /// All ablation feature sets, in paper order.
    pub const ALL: [FeatureSet; 4] = [
        FeatureSet::F0,
        FeatureSet::F1,
        FeatureSet::F2,
        FeatureSet::F3,
    ];

    /// Short label as used in the paper ("F0" .. "F3").
    pub fn label(&self) -> &'static str {
        match self {
            FeatureSet::F0 => "F0",
            FeatureSet::F1 => "F1",
            FeatureSet::F2 => "F2",
            FeatureSet::F3 => "F3",
        }
    }

    /// Column indices of this set's features within the full feature vector
    /// (ordered as [`full_feature_names`]), in this set's column order. A
    /// static table: nothing is resolved per call.
    fn columns(&self) -> &'static [usize] {
        const F0: [usize; NUM_FULL_FEATURES] = {
            let mut columns = [0; NUM_FULL_FEATURES];
            let mut i = 0;
            while i < NUM_FULL_FEATURES {
                columns[i] = i;
                i += 1;
            }
            columns
        };
        match self {
            FeatureSet::F0 => &F0,
            FeatureSet::F1 => &[
                TOTAL_INPUT_BYTES_COLUMN,
                TOTAL_ROWS_PROCESSED_COLUMN,
                MAX_DEPTH_COLUMN,
                NUM_OPS_COLUMN,
                PROJECT_COLUMN,
                FILTER_COLUMN,
            ],
            FeatureSet::F2 => &[TOTAL_INPUT_BYTES_COLUMN, TOTAL_ROWS_PROCESSED_COLUMN],
            FeatureSet::F3 => &[
                MAX_DEPTH_COLUMN,
                NUM_OPS_COLUMN,
                PROJECT_COLUMN,
                FILTER_COLUMN,
            ],
        }
    }

    /// The feature names retained by this set, in column order.
    pub fn feature_names(&self) -> Vec<String> {
        let full = full_feature_names();
        self.columns().iter().map(|&c| full[c].clone()).collect()
    }

    /// Projects a full feature vector (ordered as [`full_feature_names`])
    /// onto this feature set without allocating: `F0` is the identity and
    /// returns `full_values` itself; the other sets copy their columns into
    /// `buf`. Fails unless the vector has all [`NUM_FULL_FEATURES`] columns.
    pub(crate) fn project_into<'a>(
        &self,
        full_values: &'a [f64],
        buf: &'a mut [f64; NUM_FULL_FEATURES],
    ) -> Result<&'a [f64]> {
        check_full_width(full_values.len())?;
        if *self == FeatureSet::F0 {
            return Ok(full_values);
        }
        let columns = self.columns();
        for (slot, &c) in buf.iter_mut().zip(columns) {
            *slot = full_values[c];
        }
        Ok(&buf[..columns.len()])
    }

    /// Projects a full feature vector (ordered as [`full_feature_names`])
    /// onto this feature set.
    pub fn project(&self, full_values: &[f64]) -> Result<Vec<f64>> {
        let mut buf = [0.0; NUM_FULL_FEATURES];
        Ok(self.project_into(full_values, &mut buf)?.to_vec())
    }

    /// Projects every row of a matrix of full feature vectors onto this
    /// feature set: `F0` borrows the matrix unchanged, the other sets copy
    /// their columns into a new one. Fails unless the matrix has all
    /// [`NUM_FULL_FEATURES`] columns.
    pub(crate) fn project_rows<'a>(
        &self,
        full_rows: &'a FeatureMatrix,
    ) -> Result<Cow<'a, FeatureMatrix>> {
        check_full_width(full_rows.width())?;
        if *self == FeatureSet::F0 {
            return Ok(Cow::Borrowed(full_rows));
        }
        let columns = self.columns();
        let mut projected = FeatureMatrix::with_capacity(columns.len(), full_rows.len());
        for row in full_rows.rows() {
            projected
                .push_row_from(columns.iter().map(|&c| row[c]))
                .expect("a projected row has one value per column");
        }
        Ok(Cow::Owned(projected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_engine::plan::PlanNode;

    fn sample_plan() -> QueryPlan {
        let scan = PlanNode::leaf(OperatorKind::TableScan, 1e6, 2e9);
        let filter = PlanNode::internal(OperatorKind::Filter, 4e5, vec![scan]);
        let agg = PlanNode::internal(OperatorKind::Aggregate, 1e3, vec![filter]);
        QueryPlan::new("sample", agg)
    }

    #[test]
    fn full_feature_vector_has_nineteen_columns() {
        let names = full_feature_names();
        assert_eq!(names.len(), 14 + 5);
        let values = featurize_plan(&sample_plan());
        assert_eq!(values.len(), names.len());
    }

    #[test]
    fn featurization_reflects_plan_contents() {
        let names = full_feature_names();
        let values = featurize_plan(&sample_plan());
        let get = |name: &str| values[names.iter().position(|n| n == name).unwrap()];
        assert_eq!(get("TableScan"), 1.0);
        assert_eq!(get("Filter"), 1.0);
        assert_eq!(get("Aggregate"), 1.0);
        assert_eq!(get("Join"), 0.0);
        assert_eq!(get(NUM_OPS), 3.0);
        assert_eq!(get(MAX_DEPTH), 3.0);
        assert_eq!(get(NUM_INPUTS), 1.0);
        assert!((get(TOTAL_INPUT_BYTES) - 2e9).abs() < 1.0);
        assert!((get(TOTAL_ROWS_PROCESSED) - 1.401e6).abs() < 1e3);
    }

    #[test]
    fn feature_sets_are_subsets_of_full() {
        let full = full_feature_names();
        for set in FeatureSet::ALL {
            for name in set.feature_names() {
                assert!(full.contains(&name), "{name} missing from full set");
            }
        }
        assert_eq!(FeatureSet::F0.feature_names().len(), full.len());
        assert_eq!(FeatureSet::F1.feature_names().len(), 6);
        assert_eq!(FeatureSet::F2.feature_names().len(), 2);
        assert_eq!(FeatureSet::F3.feature_names().len(), 4);
    }

    #[test]
    fn f3_is_f1_minus_f2() {
        let f1: Vec<String> = FeatureSet::F1.feature_names();
        let f2 = FeatureSet::F2.feature_names();
        let f3 = FeatureSet::F3.feature_names();
        for name in &f3 {
            assert!(f1.contains(name));
            assert!(!f2.contains(name));
        }
        assert_eq!(f1.len(), f2.len() + f3.len());
    }

    #[test]
    fn projection_selects_the_right_columns() {
        let values = featurize_plan(&sample_plan());
        let projected = FeatureSet::F2.project(&values).unwrap();
        assert_eq!(projected.len(), 2);
        assert!((projected[0] - 2e9).abs() < 1.0);
        let f0 = FeatureSet::F0.project(&values).unwrap();
        assert_eq!(f0, values);
    }

    #[test]
    fn column_tables_name_the_paper_feature_sets() {
        assert_eq!(
            FeatureSet::F1.feature_names(),
            [
                TOTAL_INPUT_BYTES,
                TOTAL_ROWS_PROCESSED,
                MAX_DEPTH,
                NUM_OPS,
                OperatorKind::Project.name(),
                OperatorKind::Filter.name(),
            ]
        );
        assert_eq!(FeatureSet::F0.feature_names(), full_feature_names());
        assert_eq!(full_feature_names().len(), NUM_FULL_FEATURES);
    }

    #[test]
    fn short_feature_vectors_are_rejected() {
        let narrow = [1.0, 2.0];
        let matrix = FeatureMatrix::from_rows(&[narrow.to_vec()]).unwrap();
        for set in FeatureSet::ALL {
            assert!(matches!(
                set.project(&narrow),
                Err(AutoExecutorError::FeatureWidth {
                    expected: 19,
                    actual: 2
                })
            ));
            assert!(matches!(
                set.project_rows(&matrix),
                Err(AutoExecutorError::FeatureWidth {
                    expected: 19,
                    actual: 2
                })
            ));
        }
    }

    #[test]
    fn f0_projection_is_the_identity_without_a_copy() {
        let values = featurize_plan(&sample_plan());
        let mut buf = [0.0; NUM_FULL_FEATURES];
        let row = FeatureSet::F0.project_into(&values, &mut buf).unwrap();
        assert!(std::ptr::eq(row, values.as_slice()));
        let matrix = FeatureMatrix::from_rows(std::slice::from_ref(&values)).unwrap();
        assert!(matches!(
            FeatureSet::F0.project_rows(&matrix).unwrap(),
            Cow::Borrowed(_)
        ));
        let f3 = FeatureSet::F3.project_rows(&matrix).unwrap();
        assert_eq!(f3.row(0), FeatureSet::F3.project(&values).unwrap());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FeatureSet::F0.label(), "F0");
        assert_eq!(FeatureSet::F3.label(), "F3");
    }
}
