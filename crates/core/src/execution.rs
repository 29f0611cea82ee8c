//! Executing queries under the allocation policies compared in the paper
//! (Section 5.4, Figures 12 and 13).
//!
//! Three policies are compared per query:
//!
//! * `SA(n)` — static allocation of `n` executors at submission,
//! * `DA(min, max)` — Spark dynamic allocation restricted to a range,
//! * `Rule(n)` — AutoExecutor: a small initial pool, the predicted count
//!   requested when the optimizer rule fires, and reactive deallocation of
//!   idle executors.

use ae_engine::allocation::AllocationPolicy;
use ae_engine::cluster::ClusterConfig;
use ae_engine::scheduler::{QueryRunResult, RunConfig, SimScratch, Simulator};
use ae_engine::stage::StageDag;
use serde::{Deserialize, Serialize};

use crate::{AutoExecutorError, Result};

/// Executes one query under one allocation policy.
pub fn run_with_policy(
    cluster: &ClusterConfig,
    policy: AllocationPolicy,
    name: &str,
    dag: &StageDag,
    run_config: &RunConfig,
) -> Result<QueryRunResult> {
    let simulator = Simulator::new(*cluster, policy).map_err(AutoExecutorError::Engine)?;
    Ok(simulator.run(name, dag, run_config))
}

/// Side-by-side comparison of the three allocation policies for one query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocationComparison {
    /// Query name.
    pub name: String,
    /// The executor count the AutoExecutor rule requested.
    pub predicted_executors: usize,
    /// Static allocation at the maximum (SA(48) in the paper).
    pub static_max: QueryRunResult,
    /// Dynamic allocation over [1, max].
    pub dynamic: QueryRunResult,
    /// The AutoExecutor rule policy.
    pub rule: QueryRunResult,
    /// Whether the query ran long enough for the full predicted request to
    /// be allocated (the ◆ marker in Figure 13).
    pub fully_allocated: bool,
}

impl AllocationComparison {
    /// Ratio of maximum executors: SA(max) / Rule.
    pub fn n_ratio_static(&self) -> f64 {
        ratio(
            self.static_max.max_executors as f64,
            self.rule.max_executors as f64,
        )
    }

    /// Ratio of maximum executors: DA / Rule.
    pub fn n_ratio_dynamic(&self) -> f64 {
        ratio(
            self.dynamic.max_executors as f64,
            self.rule.max_executors as f64,
        )
    }

    /// Ratio of executor occupancy: SA(max) / Rule.
    pub fn auc_ratio_static(&self) -> f64 {
        ratio(
            self.static_max.auc_executor_secs,
            self.rule.auc_executor_secs,
        )
    }

    /// Ratio of executor occupancy: DA / Rule.
    pub fn auc_ratio_dynamic(&self) -> f64 {
        ratio(self.dynamic.auc_executor_secs, self.rule.auc_executor_secs)
    }

    /// Speedup of Rule relative to SA(max): `t_SA / t_Rule` (< 1 means the
    /// rule is slower, as the paper observes due to allocation lag).
    pub fn speedup_vs_static(&self) -> f64 {
        ratio(self.static_max.elapsed_secs, self.rule.elapsed_secs)
    }

    /// Speedup of Rule relative to DA.
    pub fn speedup_vs_dynamic(&self) -> f64 {
        ratio(self.dynamic.elapsed_secs, self.rule.elapsed_secs)
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator.abs() < f64::EPSILON {
        0.0
    } else {
        numerator / denominator
    }
}

/// Runs the three policies for one query and packages the comparison.
///
/// `max_executors` is the upper bound shared by SA and DA (48 in the paper);
/// `predicted` is the AutoExecutor prediction for the query. The three runs
/// share `run_config` and one scratch, so the query's noise is drawn once.
pub fn compare_allocations(
    cluster: &ClusterConfig,
    name: &str,
    dag: &StageDag,
    predicted: usize,
    max_executors: usize,
    run_config: &RunConfig,
) -> Result<AllocationComparison> {
    let mut scratch = SimScratch::new();
    let mut run = |policy| {
        Simulator::new(*cluster, policy)
            .map(|simulator| simulator.run_with_scratch(name, dag, run_config, &mut scratch))
            .map_err(AutoExecutorError::Engine)
    };
    let static_max = run(AllocationPolicy::static_allocation(max_executors))?;
    let dynamic = run(AllocationPolicy::dynamic(1, max_executors))?;
    let rule = run(AllocationPolicy::predictive(predicted))?;
    let fully_allocated = rule.max_executors >= predicted;
    Ok(AllocationComparison {
        name: name.to_string(),
        predicted_executors: predicted,
        static_max,
        dynamic,
        rule,
        fully_allocated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_workload::{ScaleFactor, WorkloadGenerator};

    #[test]
    fn comparison_reports_consistent_ratios() {
        let query = WorkloadGenerator::new(ScaleFactor::SF10).instance("q94");
        let comparison = compare_allocations(
            &ClusterConfig::paper_default(),
            "q94",
            &query.dag,
            12,
            48,
            &RunConfig::deterministic(),
        )
        .unwrap();
        // SA(48) allocates the most executors (a short SF=10 query may finish
        // before the last grant wave lands); the rule stays at or below its
        // request.
        assert!(comparison.static_max.max_executors <= 48);
        assert!(comparison.static_max.max_executors >= comparison.rule.max_executors);
        assert!(comparison.rule.max_executors <= 12);
        assert!(comparison.n_ratio_static() >= 1.0);
        assert!(comparison.auc_ratio_static() > 1.0);
        // Speedups are positive finite numbers.
        assert!(comparison.speedup_vs_static() > 0.0);
        assert!(comparison.speedup_vs_dynamic() > 0.0);
    }

    #[test]
    fn fully_allocated_flag_reflects_reaching_the_request() {
        let query = WorkloadGenerator::new(ScaleFactor::SF100).instance("q94");
        // A long SF=100 query easily outlives the allocation ramp for a
        // modest request.
        let comparison = compare_allocations(
            &ClusterConfig::paper_default(),
            "q94",
            &query.dag,
            8,
            48,
            &RunConfig::deterministic(),
        )
        .unwrap();
        assert!(comparison.fully_allocated);
    }

    #[test]
    fn comparison_matches_fresh_runs_of_each_policy() {
        // The three runs share one scratch and its noise stream; each must
        // match its own fresh run bit for bit.
        let cluster = ClusterConfig::paper_default();
        let query = WorkloadGenerator::new(ScaleFactor::SF10).instance("q94");
        let cfg = RunConfig::default().with_seed(17);
        let comparison = compare_allocations(&cluster, "q94", &query.dag, 12, 48, &cfg).unwrap();
        for (policy, run) in [
            (
                AllocationPolicy::static_allocation(48),
                &comparison.static_max,
            ),
            (AllocationPolicy::dynamic(1, 48), &comparison.dynamic),
            (AllocationPolicy::predictive(12), &comparison.rule),
        ] {
            let fresh = run_with_policy(&cluster, policy, "q94", &query.dag, &cfg).unwrap();
            assert_eq!(fresh.elapsed_secs.to_bits(), run.elapsed_secs.to_bits());
            assert_eq!(
                fresh.auc_executor_secs.to_bits(),
                run.auc_executor_secs.to_bits()
            );
            assert_eq!(
                fresh.total_task_secs.to_bits(),
                run.total_task_secs.to_bits()
            );
            assert_eq!(fresh.skyline.points(), run.skyline.points());
        }
    }

    #[test]
    fn run_with_policy_respects_static_count() {
        let query = WorkloadGenerator::new(ScaleFactor::SF10).instance("q5");
        let result = run_with_policy(
            &ClusterConfig::paper_default(),
            AllocationPolicy::static_allocation(25),
            "q5",
            &query.dag,
            &RunConfig::deterministic(),
        )
        .unwrap();
        assert!(result.max_executors <= 25);
        assert!(result.elapsed_secs > 0.0);
    }
}
