//! The sequential reference the serving determinism suites pin against.

use std::sync::Arc;

use ae_workload::QueryInstance;
use autoexecutor::optimizer::ResourceRequest;
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;

/// Scores every query through the sequential path: an `Optimizer` with
/// the `AutoExecutorRule` registered last, one query at a time.
pub fn sequential_requests(
    registry: &Arc<ModelRegistry>,
    config: &AutoExecutorConfig,
    queries: &[QueryInstance],
) -> Vec<ResourceRequest> {
    let rule = AutoExecutorRule::from_config(Arc::clone(registry), "ppm", config);
    let optimizer = Optimizer::with_default_rules().with_rule(Box::new(rule));
    queries
        .iter()
        .map(|q| {
            optimizer
                .optimize(q.plan.clone())
                .unwrap()
                .resource_request
                .unwrap()
        })
        .collect()
}

/// Bit-level comparison of two resource requests (executor count, PPM
/// parameters, and every point of the predicted curve).
pub fn assert_bit_identical(name: &str, sequential: &ResourceRequest, served: &ResourceRequest) {
    assert_eq!(sequential.executors, served.executors, "{name}: executors");
    let seq_params: Vec<u64> = sequential
        .predicted_ppm
        .parameters()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let srv_params: Vec<u64> = served
        .predicted_ppm
        .parameters()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(seq_params, srv_params, "{name}: ppm parameters");
    let seq_curve: Vec<(usize, u64)> = sequential
        .predicted_curve
        .iter()
        .map(|&(n, t)| (n, t.to_bits()))
        .collect();
    let srv_curve: Vec<(usize, u64)> = served
        .predicted_curve
        .iter()
        .map(|&(n, t)| (n, t.to_bits()))
        .collect();
    assert_eq!(seq_curve, srv_curve, "{name}: predicted curve");
}
