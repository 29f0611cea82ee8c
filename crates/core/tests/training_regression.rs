//! Regression pins for parameter-model training and the simulated runs
//! behind it.
//!
//! The model fingerprints were recorded from the per-node re-sorting CART
//! builder that preceded the presorted grower. The grower keeps every float
//! operation and its order, so the serialized model — every split feature,
//! threshold bit pattern, child index, leaf value and sample count of all
//! 100 trees — must reproduce them **bit for bit**.
//!
//! The simulator fingerprints pin the ground-truth sweep and one run per
//! allocation policy per SF10 query the same way: every elapsed time, AUC,
//! total task time and skyline point, bit for bit.

use ae_engine::{AllocationPolicy, ClusterConfig, QueryRunResult, RunConfig, Simulator};
use ae_ppm::model::PpmKind;
use ae_workload::{mixed_suite, FamilyRegistry, ScaleFactor, WorkloadGenerator};
use autoexecutor::{ActualRuns, AutoExecutorConfig, FeatureSet, ParameterModel, TrainingData};

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

/// FNV-1a input builder for simulator outputs: integers and float bit
/// patterns, little-endian.
#[derive(Default)]
struct Bytes(Vec<u8>);

impl Bytes {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A run's elapsed time, AUC and total task time, then every skyline
    /// point.
    fn run(&mut self, run: &QueryRunResult) {
        self.f64(run.elapsed_secs);
        self.f64(run.auc_executor_secs);
        self.f64(run.total_task_secs);
        for &(t, count) in run.skyline.points() {
            self.f64(t);
            self.u64(count as u64);
        }
    }
}

/// The ground-truth sweep the offline pipeline runs (`ActualRuns::collect`
/// over all three builtin families at SF100, counts 1..=48, one repeat,
/// the paper's cluster) must reproduce these curves bit for bit. The
/// fingerprint was recorded from the simulator loop that preceded the
/// per-step run state.
#[test]
fn sf100_ground_truth_matches_the_recorded_fingerprint() {
    let suite = mixed_suite(FamilyRegistry::builtin().families(), ScaleFactor::SF100);
    assert_eq!(suite.len(), 149);
    let counts: Vec<usize> = (1..=48).collect();
    let actuals =
        ActualRuns::collect(&suite, &counts, 1, &ClusterConfig::paper_default(), 11).unwrap();
    assert_eq!(actuals.names().len(), 149);
    let mut bytes = Bytes::default();
    for name in actuals.names() {
        bytes.0.extend_from_slice(name.as_bytes());
        for &(n, t) in actuals.curve(name).unwrap() {
            bytes.u64(n as u64);
            bytes.f64(t);
        }
    }
    assert_eq!(fnv1a(&bytes.0), 10354075345226541346, "SF100 ground truth");
}

/// One SA(48), one DA(1,48) and one Rule(16) run per SF10 query of every
/// builtin family, each pinned by its own fingerprint (recorded from the
/// same preceding simulator loop).
#[test]
fn sf10_policy_runs_match_the_recorded_fingerprints() {
    let suite = mixed_suite(FamilyRegistry::builtin().families(), ScaleFactor::SF10);
    assert_eq!(suite.len(), 149);
    let pinned: [(&str, AllocationPolicy, u64); 3] = [
        (
            "SA(48)",
            AllocationPolicy::static_allocation(48),
            7750849101253213396,
        ),
        (
            "DA(1,48)",
            AllocationPolicy::dynamic(1, 48),
            1212288651447207081,
        ),
        (
            "Rule(16)",
            AllocationPolicy::predictive(16),
            4383225823694936338,
        ),
    ];
    for (label, policy, expected) in pinned {
        let simulator = Simulator::new(ClusterConfig::paper_default(), policy).unwrap();
        let mut bytes = Bytes::default();
        for (i, query) in suite.iter().enumerate() {
            let cfg = RunConfig::default().with_seed(i as u64);
            bytes.run(&simulator.run(&query.name, &query.dag, &cfg));
        }
        assert_eq!(fnv1a(&bytes.0), expected, "{label}");
    }
}
