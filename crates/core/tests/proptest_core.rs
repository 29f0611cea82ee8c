//! Property-based tests on the AutoExecutor core: featurization invariants,
//! training-label fitting, and selection behaviour of predicted models.

use ae_engine::plan::{OperatorKind, PlanNode, QueryPlan};
use ae_ppm::model::PpmKind;
use ae_ppm::selection::slowdown_config;
use autoexecutor::{featurize_plan, full_feature_names, FeatureSet, TrainingData};
use proptest::prelude::*;

/// Builds a random chain-shaped plan from a list of operator choices.
fn plan_strategy() -> impl Strategy<Value = QueryPlan> {
    let ops = prop::collection::vec(0usize..6, 0..12);
    (ops, 1.0f64..1e10, 1.0f64..1e9).prop_map(|(ops, bytes, rows)| {
        let mut node = PlanNode::leaf(OperatorKind::TableScan, rows, bytes);
        for op in ops {
            let kind = match op {
                0 => OperatorKind::Filter,
                1 => OperatorKind::Project,
                2 => OperatorKind::Aggregate,
                3 => OperatorKind::Sort,
                4 => OperatorKind::Window,
                _ => OperatorKind::Exchange,
            };
            let rows = node.estimated_rows * 0.8;
            node = PlanNode::internal(kind, rows, vec![node]);
        }
        QueryPlan::new("prop", node)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Featurization always yields the full-width vector with finite,
    /// non-negative entries, and depth/operator-count features agree with
    /// the plan's own statistics.
    #[test]
    fn featurization_is_well_formed(plan in plan_strategy()) {
        let names = full_feature_names();
        let values = featurize_plan(&plan);
        prop_assert_eq!(values.len(), names.len());
        prop_assert!(values.iter().all(|v| v.is_finite() && *v >= 0.0));
        let stats = plan.stats();
        let idx = |n: &str| names.iter().position(|x| x == n).unwrap();
        prop_assert_eq!(values[idx("NumOps")], stats.total_operators as f64);
        prop_assert_eq!(values[idx("MaxDepth")], stats.max_depth as f64);
        prop_assert_eq!(values[idx("NumInputs")], stats.num_input_sources as f64);
    }

    /// Every feature-set projection selects exactly its declared columns and
    /// never invents values that were not in the full vector.
    #[test]
    fn feature_set_projection_is_a_subset(plan in plan_strategy()) {
        let values = featurize_plan(&plan);
        for set in FeatureSet::ALL {
            let projected = set.project(&values).unwrap();
            prop_assert_eq!(projected.len(), set.feature_names().len());
            for v in &projected {
                prop_assert!(values.contains(v));
            }
        }
    }

    /// Fitting training labels from an arbitrary monotone curve yields PPMs
    /// that are themselves monotone and non-negative over the full candidate
    /// range — the invariant the optimizer rule depends on.
    #[test]
    fn training_labels_are_monotone_models(
        floor in 5.0f64..200.0,
        scale in 10.0f64..2000.0,
        plan in plan_strategy(),
    ) {
        let counts = [1usize, 3, 8, 16, 32, 48];
        let curve: Vec<(usize, f64)> = counts
            .iter()
            .map(|&n| (n, (scale / n as f64).max(floor) + floor))
            .collect();
        let example = TrainingData::example_from_curve("prop", "prop-family", &plan, &curve, curve[0].1).unwrap();
        for kind in [PpmKind::PowerLaw, PpmKind::Amdahl] {
            let data = TrainingData { examples: vec![example.clone()] };
            let ppm = data.fitted_ppm(0, kind);
            let mut last = f64::INFINITY;
            for n in 1..=48usize {
                let t = ppm.predict(n as f64);
                prop_assert!(t.is_finite() && t >= 0.0);
                prop_assert!(t <= last + 1e-9);
                last = t;
            }
        }
    }

    /// Bounded-slowdown selection over any fitted training label always
    /// returns a configuration within the candidate range and within budget
    /// on the model's own curve.
    #[test]
    fn selection_on_fitted_models_respects_budget(
        floor in 5.0f64..100.0,
        scale in 50.0f64..3000.0,
        h in 1.0f64..2.0,
    ) {
        let counts = [1usize, 3, 8, 16, 32, 48];
        let curve: Vec<(usize, f64)> = counts
            .iter()
            .map(|&n| (n, (scale / n as f64).max(floor) + floor))
            .collect();
        let plan = QueryPlan::new("sel", PlanNode::leaf(OperatorKind::TableScan, 10.0, 100.0));
        let example = TrainingData::example_from_curve("sel", "prop-family", &plan, &curve, curve[0].1).unwrap();
        let data = TrainingData { examples: vec![example] };
        let ppm = data.fitted_ppm(0, PpmKind::PowerLaw);
        let dense = ppm.predict_curve(&(1..=48).collect::<Vec<_>>());
        let selected = slowdown_config(&dense, h).unwrap();
        prop_assert!((1..=48).contains(&selected));
        let t_min = dense.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
        let t_sel = dense.iter().find(|&&(n, _)| n == selected).unwrap().1;
        prop_assert!(t_sel <= t_min * h * (1.0 + 1e-9));
    }
}
