//! Regression pins for parameter-model training.
//!
//! The fingerprints below were recorded from the per-node re-sorting CART
//! builder that preceded the presorted grower. The grower keeps every float
//! operation and its order, so the serialized model — every split feature,
//! threshold bit pattern, child index, leaf value and sample count of all
//! 100 trees — must reproduce them **bit for bit**.

use ae_ppm::model::PpmKind;
use ae_workload::{ScaleFactor, WorkloadGenerator};
use autoexecutor::{AutoExecutorConfig, FeatureSet, ParameterModel, TrainingData};

/// FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of the portable encoding of the parameter model trained on
/// the SF10 TPC-DS-like suite with the paper's forest (100 trees, seed 42).
fn fingerprint(data: &TrainingData, kind: PpmKind, set: FeatureSet) -> u64 {
    let config = AutoExecutorConfig::default()
        .with_ppm_kind(kind)
        .with_feature_set(set)
        .with_seed(42);
    let model = ParameterModel::train(data, &config).unwrap();
    fnv1a(&model.to_portable("pinned").unwrap().to_bytes().unwrap())
}

#[test]
fn trained_models_match_the_recorded_fingerprints() {
    let suite = WorkloadGenerator::new(ScaleFactor::SF10).suite();
    let data = TrainingData::collect(&suite, &AutoExecutorConfig::default()).unwrap();
    assert_eq!(data.len(), 103);
    assert_eq!(
        fingerprint(&data, PpmKind::PowerLaw, FeatureSet::F0),
        7531745296551181589,
        "power law / F0"
    );
    assert_eq!(
        fingerprint(&data, PpmKind::Amdahl, FeatureSet::F2),
        7733191896455462160,
        "Amdahl / F2"
    );
}
