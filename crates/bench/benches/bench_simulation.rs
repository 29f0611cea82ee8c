//! Criterion benches for the execution-simulation substrate: single-query
//! runs under each allocation policy and Sparklens estimate generation.
//! These bound how fast ground truth and training data can be (re)collected.

use ae_engine::{AllocationPolicy, ClusterConfig, RunConfig, Simulator};
use ae_sparklens::SparklensAnalyzer;
use ae_workload::{ScaleFactor, WorkloadGenerator};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_query_simulation(c: &mut Criterion) {
    let query = WorkloadGenerator::new(ScaleFactor::SF100).instance("q94");
    let cluster = ClusterConfig::paper_default();
    let run_cfg = RunConfig::default();

    let mut group = c.benchmark_group("simulation/q94_sf100");
    for (label, policy) in [
        ("static_1", AllocationPolicy::static_allocation(1)),
        ("static_16", AllocationPolicy::static_allocation(16)),
        ("static_48", AllocationPolicy::static_allocation(48)),
        ("dynamic_1_48", AllocationPolicy::dynamic(1, 48)),
        ("predictive_25", AllocationPolicy::predictive(25)),
    ] {
        let simulator = Simulator::new(cluster, policy).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| simulator.run("q94", black_box(&query.dag), &run_cfg))
        });
    }
    group.finish();
}

fn bench_suite_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    group.sample_size(10);
    group.bench_function("generate_103_query_suite_sf100", |b| {
        b.iter(|| WorkloadGenerator::new(ScaleFactor::SF100).suite())
    });
    group.finish();
}

fn bench_sparklens(c: &mut Criterion) {
    let query = WorkloadGenerator::new(ScaleFactor::SF100).instance("q94");
    let simulator = Simulator::new(
        ClusterConfig::paper_default(),
        AllocationPolicy::static_allocation(16),
    )
    .unwrap();
    let log = simulator
        .run(
            "q94",
            &query.dag,
            &RunConfig::deterministic().with_task_log(),
        )
        .task_log
        .unwrap();
    let analyzer = SparklensAnalyzer::paper_default();
    let counts: Vec<usize> = (1..=48).collect();

    c.bench_function("sparklens/estimate_48_counts_from_one_log", |b| {
        b.iter(|| analyzer.estimate_from_log(black_box(&log), &counts))
    });
}

criterion_group!(
    benches,
    bench_query_simulation,
    bench_suite_generation,
    bench_sparklens
);
criterion_main!(benches);
