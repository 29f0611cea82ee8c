//! Criterion benches for the offline training path (Section 5.6):
//! PPM-parameter fitting per training point and random-forest training over
//! the full workload, contrasted with a non-parametric training set.

use ae_ppm::fit::{fit_amdahl, fit_power_law};
use ae_ppm::model::PpmKind;
use ae_workload::{ScaleFactor, WorkloadGenerator};
use autoexecutor::{
    AutoExecutorConfig, FeatureSet, NonParametricModel, ParameterModel, TrainingData,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn training_inputs() -> (
    Vec<ae_workload::QueryInstance>,
    AutoExecutorConfig,
    TrainingData,
) {
    let suite = WorkloadGenerator::new(ScaleFactor::SF10).suite();
    let mut config = AutoExecutorConfig::default();
    config.training_run.noise_cv = 0.0;
    let data = TrainingData::collect(&suite, &config).expect("training data");
    (suite, config, data)
}

fn bench_data_collection(c: &mut Criterion) {
    // The offline phase the paper re-runs whenever the workload drifts:
    // one simulated run per query plus Sparklens extrapolation. Parallel
    // across queries; bounded by the scheduler hot loop.
    let suite = WorkloadGenerator::new(ScaleFactor::SF10).suite();
    let mut config = AutoExecutorConfig::default();
    config.training_run.noise_cv = 0.0;
    let mut group = c.benchmark_group("training_data");
    group.sample_size(10);
    group.bench_function("collect_103_queries", |b| {
        b.iter(|| TrainingData::collect(black_box(&suite), &config).unwrap())
    });
    group.finish();
}

fn bench_ppm_fit(c: &mut Criterion) {
    let (_, _, data) = training_inputs();
    let curve = data.examples[0].sparklens_curve.clone();
    c.bench_function("ppm_fit/power_law_per_point", |b| {
        b.iter(|| fit_power_law(black_box(&curve)).unwrap())
    });
    c.bench_function("ppm_fit/amdahl_per_point", |b| {
        b.iter(|| fit_amdahl(black_box(&curve)).unwrap())
    });
}

fn bench_forest_training(c: &mut Criterion) {
    let (_, config, data) = training_inputs();
    let dataset = data
        .to_dataset(PpmKind::PowerLaw, FeatureSet::F0)
        .expect("dataset");
    let mut group = c.benchmark_group("parameter_model_training");
    group.sample_size(10);
    group.bench_function("random_forest_103_queries", |b| {
        b.iter_batched(
            || dataset.clone(),
            |ds| {
                ParameterModel::train_on_dataset(
                    black_box(&ds),
                    PpmKind::PowerLaw,
                    FeatureSet::F0,
                    config.forest,
                )
                .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_parametric_vs_nonparametric_dataset(c: &mut Criterion) {
    // The paper's argument for the parametric PPM: one row per query instead
    // of one row per (query, configuration). Compare dataset-construction
    // plus model-training cost for both designs.
    let (_, config, data) = training_inputs();
    let mut group = c.benchmark_group("training_set_design");
    group.sample_size(10);

    group.bench_function("parametric_one_row_per_query", |b| {
        b.iter(|| {
            let dataset = data.to_dataset(PpmKind::PowerLaw, FeatureSet::F0).unwrap();
            ParameterModel::train_on_dataset(
                &dataset,
                PpmKind::PowerLaw,
                FeatureSet::F0,
                config.forest,
            )
            .unwrap()
        })
    });

    group.bench_function("nonparametric_row_per_configuration", |b| {
        // Directly regress run time from (features, n) pairs: one row per
        // Sparklens point, 6x the rows.
        b.iter(|| {
            let model =
                NonParametricModel::train_with(&data, FeatureSet::F0, config.forest).unwrap();
            black_box(model.training_rows())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_data_collection,
    bench_ppm_fit,
    bench_forest_training,
    bench_parametric_vs_nonparametric_dataset
);
criterion_main!(benches);
