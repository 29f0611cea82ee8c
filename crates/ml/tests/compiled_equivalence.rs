//! Compiled-vs-interpreted equivalence on adversarial tree shapes.
//!
//! [`CompiledForest`] must be **bit-identical** to the interpreted
//! [`RandomForestRegressor`] — not approximately equal: the serving tier's
//! determinism guarantee ("served answers ≡ the sequential optimizer
//! rule") rests on it. These tests stress the shapes where a compiled
//! representation is most likely to diverge: degenerate single-leaf trees,
//! maximally deep chain trees, zero-information feature columns, forests
//! with no feature columns at all, tree counts that leave the kernel's last
//! block of 8 trees partial, probe values the walk's comparison treats
//! specially (NaN, ±∞, −0.0, exact split thresholds), empty batches, and
//! (via the proptest shim) random fitted forests.

use ae_ml::compiled::CompiledForest;
use ae_ml::dataset::Dataset;
use ae_ml::forest::{RandomForestConfig, RandomForestRegressor};
use ae_ml::matrix::FeatureMatrix;
use ae_ml::tree::DecisionTreeConfig;
use proptest::prelude::*;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts compiled == interpreted, bit for bit, on single-row and batched
/// paths over the given probe rows.
fn assert_equivalent(forest: &RandomForestRegressor, rows: &[Vec<f64>]) {
    let compiled = CompiledForest::compile(forest).expect("compile");
    assert_eq!(compiled.num_trees(), forest.num_trees());
    assert_eq!(compiled.num_nodes(), forest.total_nodes());

    // Single-row path.
    for (i, row) in rows.iter().enumerate() {
        let interpreted = forest.predict(row).expect("interpreted predict");
        let fast = compiled.predict(row).expect("compiled predict");
        assert_eq!(bits(&interpreted), bits(&fast), "row {i} diverged");
    }

    // The many-row kernel call over the flat matrix.
    let matrix = FeatureMatrix::from_rows(rows).expect("matrix");
    let mut flat = vec![0.0; rows.len() * compiled.num_outputs()];
    compiled
        .predict_batch_into(&matrix, &mut flat)
        .expect("batch kernel");
    let k = compiled.num_outputs();
    for (i, row) in rows.iter().enumerate() {
        let interpreted = forest.predict(row).expect("interpreted predict");
        assert_eq!(
            bits(&interpreted),
            bits(&flat[i * k..(i + 1) * k]),
            "batched row {i} diverged"
        );
    }
}

#[test]
fn single_leaf_trees_are_equivalent() {
    // Constant targets: every tree is exactly one leaf.
    let mut d = Dataset::new(vec!["x".into()], vec!["y".into(), "z".into()]);
    for i in 0..20 {
        d.push_row(format!("r{i}"), vec![i as f64], vec![7.5, -3.25])
            .unwrap();
    }
    let mut rf = RandomForestRegressor::new(RandomForestConfig {
        n_estimators: 8,
        seed: 1,
        ..Default::default()
    });
    rf.fit(&d).unwrap();
    assert_eq!(rf.total_nodes(), 8, "expected one leaf per tree");
    let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 3.0]).collect();
    assert_equivalent(&rf, &rows);
}

#[test]
fn max_depth_chain_trees_are_equivalent() {
    // Exponentially growing targets on one feature: the best split always
    // peels off the largest value, producing a chain tree whose depth
    // approaches the sample count. (Also exercises the iterative
    // `depth()` on a shape where recursion depth would equal the chain.)
    let n = 160;
    let mut d = Dataset::new(vec!["x".into()], vec!["y".into()]);
    for i in 0..n {
        d.push_row(format!("r{i}"), vec![i as f64], vec![2.0f64.powi(i as i32)])
            .unwrap();
    }
    let mut rf = RandomForestRegressor::new(RandomForestConfig {
        n_estimators: 4,
        bootstrap: false, // keep every sample so the chain is as deep as possible
        seed: 3,
        ..Default::default()
    });
    rf.fit(&d).unwrap();
    assert!(
        rf.max_tree_depth() >= n / 2,
        "expected a deep chain, got depth {}",
        rf.max_tree_depth()
    );
    let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 + 0.5]).collect();
    assert_equivalent(&rf, &rows);
}

#[test]
fn constant_feature_rows_are_equivalent() {
    // Every feature column is constant: no split has positive gain, so
    // every tree degenerates to its root leaf even though targets vary.
    let mut d = Dataset::new(vec!["a".into(), "b".into()], vec!["y".into()]);
    for i in 0..30 {
        d.push_row(format!("r{i}"), vec![1.0, 2.0], vec![i as f64])
            .unwrap();
    }
    let mut rf = RandomForestRegressor::new(RandomForestConfig {
        n_estimators: 6,
        seed: 9,
        ..Default::default()
    });
    rf.fit(&d).unwrap();
    let rows = vec![vec![1.0, 2.0], vec![-5.0, 100.0], vec![0.0, 0.0]];
    assert_equivalent(&rf, &rows);
}

#[test]
fn empty_batches_and_zero_width_trees_are_handled() {
    // Empty batch through the compiled kernel.
    let mut d = Dataset::new(vec!["x".into()], vec!["y".into()]);
    for i in 0..10 {
        d.push_row(format!("r{i}"), vec![i as f64], vec![i as f64])
            .unwrap();
    }
    let mut rf = RandomForestRegressor::new(RandomForestConfig {
        n_estimators: 3,
        seed: 2,
        ..Default::default()
    });
    rf.fit(&d).unwrap();
    let compiled = CompiledForest::compile(&rf).unwrap();
    let empty = FeatureMatrix::new(1);
    let mut out: Vec<f64> = Vec::new();
    compiled.predict_batch_into(&empty, &mut out).unwrap();
    assert!(out.is_empty());

    // A tree fitted on zero-width (empty-feature) rows is a single leaf;
    // its prediction on the empty row must survive unchanged.
    let rows: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let targets: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
    let mut tree = ae_ml::tree::DecisionTreeRegressor::new(DecisionTreeConfig::default());
    tree.fit(&rows, &targets).unwrap();
    assert_eq!(tree.node_count(), 1);
    assert_eq!(tree.depth(), 0);
    assert!((tree.predict(&[]).unwrap()[0] - 2.0).abs() < 1e-12);
}

#[test]
fn zero_feature_forests_fit_compile_and_predict() {
    // No feature columns: every tree is a single leaf, and the kernel's
    // depth-0 blocks must never read the (empty) row.
    let mut d = Dataset::new(Vec::new(), vec!["y".into(), "z".into()]);
    for i in 0..12 {
        d.push_row(format!("r{i}"), Vec::new(), vec![i as f64, 0.1 * i as f64])
            .unwrap();
    }
    let mut rf = RandomForestRegressor::new(RandomForestConfig {
        n_estimators: 9,
        seed: 4,
        ..Default::default()
    });
    rf.fit(&d).unwrap();
    assert_eq!(rf.total_nodes(), 9, "expected one leaf per tree");
    let compiled = CompiledForest::compile(&rf).unwrap();
    assert_eq!(compiled.num_features(), 0);
    assert_eq!(
        bits(&compiled.predict(&[]).unwrap()),
        bits(&rf.predict(&[]).unwrap())
    );
}

/// Distinct values of each feature column of the edge-case dataset. A
/// split threshold is the midpoint of two values a bootstrap sample holds,
/// so the probes can hit every one exactly; feature 1's values straddle
/// zero with a threshold of exactly 0.0, which `-0.0` and `0.0` must both
/// satisfy.
fn edge_case_columns() -> [Vec<f64>; 3] {
    [
        (0..9).map(|v| v as f64 - 4.0).collect(),
        vec![-3.0, -1.0, 1.0, 3.0],
        (0..7).map(|v| v as f64 * 1e12).collect(),
    ]
}

fn edge_case_forest(n_estimators: usize) -> RandomForestRegressor {
    let columns = edge_case_columns();
    let mut d = Dataset::new(
        vec!["a".into(), "b".into(), "c".into()],
        vec!["y".into(), "z".into()],
    );
    for i in 0..120 {
        let x: Vec<f64> = columns
            .iter()
            .enumerate()
            .map(|(f, values)| values[(i * (f + 2)) % values.len()])
            .collect();
        let y = x[0] * x[0] + if x[1] > 0.0 { 10.0 } else { -5.0 } + x[2] * 1e-12;
        let z = (x[0] - x[1]).abs() + 0.25 * (i % 3) as f64;
        d.push_row(format!("r{i}"), x, vec![y, z]).unwrap();
    }
    let mut rf = RandomForestRegressor::new(RandomForestConfig {
        n_estimators,
        max_features_fraction: 0.67,
        seed: n_estimators as u64,
        ..Default::default()
    });
    rf.fit(&d).unwrap();
    rf
}

/// Probe rows: every possible split threshold and every special value (NaN, ±∞,
/// −0.0, 0.0) in each feature position, plus all-NaN and all-infinite rows.
fn edge_case_probes() -> Vec<Vec<f64>> {
    let columns = edge_case_columns();
    let base = [0.5, 1.0, 3e12];
    let mut probes = vec![
        vec![f64::NAN; 3],
        vec![f64::INFINITY; 3],
        vec![f64::NEG_INFINITY; 3],
        vec![-0.0; 3],
    ];
    for (f, values) in columns.iter().enumerate() {
        let thresholds = values
            .iter()
            .enumerate()
            .flat_map(|(i, a)| values[i + 1..].iter().map(move |b| 0.5 * (a + b)));
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        for v in thresholds.chain(specials) {
            let mut row = base.to_vec();
            row[f] = v;
            probes.push(row);
        }
    }
    probes
}

#[test]
fn partial_blocks_and_special_values_are_equivalent() {
    let probes = edge_case_probes();
    for n_estimators in [1, 7, 8, 9, 17, 100] {
        let rf = edge_case_forest(n_estimators);
        assert!(rf.max_tree_depth() > 1, "{n_estimators} trees: too shallow");
        assert_equivalent(&rf, &probes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_fitted_forests_are_equivalent(
        seed in 0u64..1_000,
        n_rows in 8usize..40,
        n_features in 1usize..4,
        n_outputs in 1usize..3,
        n_estimators in 1usize..10,
        max_depth in 0usize..6,
        scale in 0.1f64..50.0,
    ) {
        let feature_names: Vec<String> = (0..n_features).map(|i| format!("f{i}")).collect();
        let target_names: Vec<String> = (0..n_outputs).map(|i| format!("t{i}")).collect();
        let mut d = Dataset::new(feature_names, target_names);
        // Deterministic pseudo-random rows derived from the drawn seed.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n_rows {
            let features: Vec<f64> = (0..n_features).map(|_| next() * scale).collect();
            let targets: Vec<f64> = (0..n_outputs)
                .map(|o| features.iter().sum::<f64>() * (o as f64 + 1.0) + next())
                .collect();
            d.push_row(format!("r{i}"), features, targets).unwrap();
        }
        let mut rf = RandomForestRegressor::new(RandomForestConfig {
            n_estimators,
            seed,
            tree: DecisionTreeConfig {
                max_depth: if max_depth == 0 { None } else { Some(max_depth) },
                ..Default::default()
            },
            ..Default::default()
        });
        rf.fit(&d).unwrap();
        let compiled = CompiledForest::compile(&rf).unwrap();
        let probes: Vec<Vec<f64>> = (0..10)
            .map(|_| (0..n_features).map(|_| next() * scale * 1.5 - scale * 0.25).collect())
            .collect();
        let matrix = FeatureMatrix::from_rows(&probes).unwrap();
        let mut flat = vec![0.0; probes.len() * compiled.num_outputs()];
        compiled.predict_batch_into(&matrix, &mut flat).unwrap();
        let k = compiled.num_outputs();
        for (i, row) in probes.iter().enumerate() {
            let interpreted = rf.predict(row).unwrap();
            let single = compiled.predict(row).unwrap();
            prop_assert_eq!(bits(&interpreted), bits(&single));
            prop_assert_eq!(bits(&interpreted), bits(&flat[i * k..(i + 1) * k]));
        }
    }
}
