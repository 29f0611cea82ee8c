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
//! total task time and skyline point, bit for bit. The executor-size
//! shapes run the same three policies at 1, 2 and 8 cores per executor, so
//! pools wider than 64 executors and slot counts other than four are pinned
//! too.

use ae_engine::{AllocationPolicy, ClusterConfig, QueryRunResult, RunConfig, Simulator};
use ae_ppm::model::PpmKind;
use ae_workload::{mixed_suite, BuiltinFamily, FamilyRegistry, ScaleFactor, WorkloadGenerator};
use autoexecutor::{
    cross_validate, ActualRuns, AutoExecutorConfig, CrossValidationConfig, FeatureSet,
    ParameterModel, TrainingData,
};

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

/// Repeated k-fold cross-validation of a 10-tree forest on the SF10
/// TPC-DS-like suite (3 folds × 2 repeats, ground truth at 1, 8, 16 and 48
/// executors) must reproduce every fold's train and test `E(n)` bit for
/// bit. This pins the fold splits, the per-fold forest seeds and the
/// batched scoring behind perfbench's `cv_err`, not only the model bytes.
/// The fingerprint was recorded from the per-tree comparison presort that
/// preceded the forest-wide feature ranks.
#[test]
fn cross_validation_matches_the_recorded_fingerprint() {
    let suite = WorkloadGenerator::new(ScaleFactor::SF10).suite();
    let mut config = AutoExecutorConfig::default().with_seed(42);
    config.forest.n_estimators = 10;
    let data = TrainingData::collect(&suite, &config).unwrap();
    let counts = [1, 8, 16, 48];
    let actuals =
        ActualRuns::collect(&suite, &counts, 1, &ClusterConfig::paper_default(), 11).unwrap();
    let cv = CrossValidationConfig::quick(7);
    let report = cross_validate(&data, &actuals, &config, &cv, &counts).unwrap();
    assert_eq!(report.folds.len(), 6);
    let mut bytes = Bytes::default();
    for fold in &report.folds {
        bytes.u64(fold.repeat as u64);
        bytes.u64(fold.fold as u64);
        for errors in [&fold.train_error_by_count, &fold.test_error_by_count] {
            assert_eq!(errors.len(), counts.len());
            for (&n, &e) in errors {
                bytes.u64(n as u64);
                bytes.f64(e);
            }
        }
    }
    assert_eq!(
        fnv1a(&bytes.0),
        12731977935484085502,
        "cross-validation E(n)"
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
    assert_eq!(
        curves_fingerprint(&actuals),
        10354075345226541346,
        "SF100 ground truth"
    );
}

/// The sweep at perfbench's three repeats: every builtin family at SF10,
/// six counts, seed 11. With fewer than four samples the IQR filter keeps
/// them all and sums them in the order they were pushed, so this pins that
/// order as well as each repeat's noise, which one repeat cannot. Recorded
/// from the sweep that simulated one (query, count) cell per parallel unit.
#[test]
fn sf10_three_repeat_ground_truth_matches_the_recorded_fingerprint() {
    let suite = mixed_suite(FamilyRegistry::builtin().families(), ScaleFactor::SF10);
    assert_eq!(suite.len(), 149);
    let counts = [1, 2, 8, 16, 32, 48];
    let actuals =
        ActualRuns::collect(&suite, &counts, 3, &ClusterConfig::paper_default(), 11).unwrap();
    assert_eq!(actuals.names().len(), 149);
    assert_eq!(
        curves_fingerprint(&actuals),
        12264408925454739648,
        "SF10 ground truth, 3 repeats"
    );
}

/// Every query name, then each point of its curve, in name order.
fn curves_fingerprint(actuals: &ActualRuns) -> u64 {
    let mut bytes = Bytes::default();
    for name in actuals.names() {
        bytes.0.extend_from_slice(name.as_bytes());
        for &(n, t) in actuals.curve(name).unwrap() {
            bytes.u64(n as u64);
            bytes.f64(t);
        }
    }
    fnv1a(&bytes.0)
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

/// SA(n), DA(1, n) and Rule(n) on every SF10 TPC-H-like query at three of
/// Table 1's total-cores shapes with other executor sizes: 128 cores as
/// 128 one-core executors (a pool of 200), 32 as 16 two-core executors and
/// 128 as 16 eight-core executors. Each shape is pinned by one fingerprint
/// per policy, recorded from the simulator loop that preceded the exact
/// free-slot index.
#[test]
fn executor_size_shapes_match_the_recorded_fingerprints() {
    let suite =
        WorkloadGenerator::for_family(BuiltinFamily::Tpch.family(), ScaleFactor::SF10).suite();
    assert_eq!(suite.len(), 22);
    let pinned: [(usize, usize, [u64; 3]); 3] = [
        (
            1,
            128,
            [
                14316911308058281357,
                18227763432253607448,
                4310016720868880963,
            ],
        ),
        (
            2,
            16,
            [
                11270616083568859812,
                1417260104352599745,
                8850284380646417344,
            ],
        ),
        (
            8,
            16,
            [
                4109611825452119098,
                8323822189004156746,
                2178284641740113460,
            ],
        ),
    ];
    let mut widest = 0;
    for (ec, n, expected) in pinned {
        let cluster = ClusterConfig::paper_default().with_cores_per_executor(ec);
        let policies = [
            AllocationPolicy::static_allocation(n),
            AllocationPolicy::dynamic(1, n),
            AllocationPolicy::predictive(n),
        ];
        let fingerprints = policies.map(|policy| {
            let simulator = Simulator::new(cluster, policy).unwrap();
            let mut bytes = Bytes::default();
            for (i, query) in suite.iter().enumerate() {
                let cfg = RunConfig::default().with_seed(i as u64);
                let run = simulator.run(&query.name, &query.dag, &cfg);
                widest = widest.max(run.max_executors);
                bytes.run(&run);
            }
            fnv1a(&bytes.0)
        });
        assert_eq!(fingerprints, expected, "ec = {ec}, n = {n}: SA, DA, Rule");
    }
    // Executor indices must cross a 64-bit word for the pin to cover wide
    // pools.
    assert!(widest > 64, "the widest run held only {widest} executors");
}
