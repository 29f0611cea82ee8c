//! Regression suite pinning [`CompiledForest`] predictions against the
//! interpreted [`RandomForestRegressor::predict`] across all three builtin
//! workload families.
//!
//! The compiled representation (one flat arena of 16-byte tree nodes,
//! pooled leaf table, one lockstep kernel) is what every scoring path — the sequential
//! `AutoExecutorRule`, the `ScoringRuntime` micro-batches, CV/evaluation,
//! and the QoS price quotes — now runs on, so it must be **bit-identical**
//! to the interpreter, not approximately equal: serving determinism
//! (`crates/serve/tests/determinism.rs`) is pinned against the sequential
//! rule, and both sides of that pin now traverse compiled arenas.
//!
//! [`CompiledForest`]: ae_ml::compiled::CompiledForest
//! [`RandomForestRegressor::predict`]: ae_ml::forest::RandomForestRegressor::predict

use ae_ml::matrix::FeatureMatrix;
use ae_workload::{BuiltinFamily, ScaleFactor, WorkloadGenerator};
use autoexecutor::featurize_plan;
use autoexecutor::training::{train_from_workload, ParameterModel};
use autoexecutor::AutoExecutorConfig;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn fast_config() -> AutoExecutorConfig {
    let mut cfg = AutoExecutorConfig::default();
    cfg.forest.n_estimators = 10;
    cfg.training_run.noise_cv = 0.0;
    cfg
}

/// Trains a model on a few of the family's queries and asserts that the
/// compiled forest reproduces the interpreted forest bit-for-bit over the
/// *whole* suite, on the single-row path, the many-row kernel call, and the
/// `predict_ppm` wrappers.
fn assert_family_pinned(family: BuiltinFamily, train_names: &[&str]) {
    let generator = WorkloadGenerator::builtin(family, ScaleFactor::SF10);
    let train: Vec<_> = train_names
        .iter()
        .map(|name| generator.instance(name))
        .collect();
    let config = fast_config();
    let (_, model) = train_from_workload(&train, &config).expect("training");
    let compiled = model.compiled();
    let forest = model.forest();
    assert_eq!(compiled.num_trees(), forest.num_trees());
    assert_eq!(compiled.num_nodes(), forest.total_nodes());

    let suite = generator.suite();
    let k = compiled.num_outputs();
    let mut projected = FeatureMatrix::with_capacity(compiled.num_features(), suite.len());
    for query in &suite {
        let full = featurize_plan(&query.plan);
        let row = model.feature_set().project(&full).expect("projection");

        // Single-row: compiled vs interpreted, bit for bit.
        let interpreted = forest.predict(&row).expect("interpreted predict");
        let fast = compiled.predict(&row).expect("compiled predict");
        assert_eq!(
            bits(&interpreted),
            bits(&fast),
            "{family:?}/{} diverged on the single-row path",
            query.name
        );

        // The PPM wrapper (what the optimizer rule and serving score with)
        // must carry the same parameters.
        let ppm = model
            .predict_ppm_from_full_features(&full)
            .expect("predict_ppm");
        assert_eq!(
            bits(&ppm.parameters()),
            bits(&ae_ppm::Ppm::from_parameters(model.kind(), &interpreted).parameters()),
            "{family:?}/{} diverged through the PPM wrapper",
            query.name
        );

        projected.push_row(&row).expect("projected row");
    }

    // The many-row kernel call over the whole suite at once.
    let mut flat = vec![0.0; suite.len() * k];
    compiled
        .predict_batch_into(&projected, &mut flat)
        .expect("batch kernel");
    for (i, query) in suite.iter().enumerate() {
        let interpreted = forest.predict(projected.row(i)).expect("interpreted");
        assert_eq!(
            bits(&interpreted),
            bits(&flat[i * k..(i + 1) * k]),
            "{family:?}/{} diverged on the batch kernel",
            query.name
        );
    }

    // And the batched PPM path equals the single-row PPM path.
    let mut full_matrix = FeatureMatrix::with_capacity(
        autoexecutor::features::full_feature_names().len(),
        suite.len(),
    );
    for query in &suite {
        full_matrix.push_row(&featurize_plan(&query.plan)).unwrap();
    }
    let batched = model.predict_ppm_batch(&full_matrix).expect("ppm batch");
    assert_eq!(batched.len(), suite.len());
    for (query, ppm) in suite.iter().zip(&batched) {
        let single = model
            .predict_ppm(&query.plan)
            .expect("single ppm prediction");
        assert_eq!(
            bits(&single.parameters()),
            bits(&ppm.parameters()),
            "{family:?}/{} diverged between batched and single PPM prediction",
            query.name
        );
    }
}

#[test]
fn tpcds_compiled_predictions_are_pinned_to_the_interpreter() {
    assert_family_pinned(
        BuiltinFamily::Tpcds,
        &["q3", "q19", "q55", "q68", "q79", "q94"],
    );
}

#[test]
fn tpch_compiled_predictions_are_pinned_to_the_interpreter() {
    assert_family_pinned(BuiltinFamily::Tpch, &["h1", "h4", "h9", "h17", "h21"]);
}

#[test]
fn skew_compiled_predictions_are_pinned_to_the_interpreter() {
    let generator = WorkloadGenerator::builtin(BuiltinFamily::Skew, ScaleFactor::SF10);
    let names: Vec<String> = generator
        .suite()
        .into_iter()
        .take(6)
        .map(|q| q.name)
        .collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    assert_family_pinned(BuiltinFamily::Skew, &refs);
}

#[test]
fn portable_roundtrip_preserves_the_compiled_pin() {
    // Deserialization recompiles: a model that went through bytes must
    // score bit-identically to the in-memory original.
    let generator = WorkloadGenerator::new(ScaleFactor::SF10);
    let train: Vec<_> = ["q1", "q5", "q12", "q42"]
        .iter()
        .map(|name| generator.instance(name))
        .collect();
    let (_, model) = train_from_workload(&train, &fast_config()).expect("training");
    let bytes = model
        .to_portable("pin-roundtrip")
        .expect("to_portable")
        .to_bytes()
        .expect("serialize");
    let restored = ParameterModel::from_portable(
        &ae_ml::portable::PortableModel::from_bytes(&bytes).expect("deserialize"),
    )
    .expect("from_portable");
    for name in ["q3", "q55", "q94"] {
        let plan = generator.instance(name).plan;
        let original = model.predict_ppm(&plan).expect("original");
        let roundtripped = restored.predict_ppm(&plan).expect("roundtripped");
        assert_eq!(
            bits(&original.parameters()),
            bits(&roundtripped.parameters()),
            "{name} diverged across the portable roundtrip"
        );
    }
}
