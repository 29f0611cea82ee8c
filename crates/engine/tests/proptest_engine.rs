//! Property-based tests for the execution simulator.

use ae_engine::scheduler::SimScratch;
use ae_engine::{
    AllocationPolicy, ClusterConfig, FailureReason, FaultPlan, QueryRunResult, RunConfig,
    RunOutcome, Simulator, Stage, StageDag, Task,
};
use proptest::prelude::*;

/// Strategy producing small random stage DAGs (each stage depends on the
/// previous one with some probability, otherwise it is a root).
fn dag_strategy() -> impl Strategy<Value = StageDag> {
    prop::collection::vec((1usize..40, 0.5f64..30.0, prop::bool::ANY), 1..6).prop_map(|specs| {
        let stages: Vec<Stage> = specs
            .iter()
            .enumerate()
            .map(|(idx, &(tasks, secs, chain))| Stage {
                id: idx,
                tasks: vec![Task::new(secs); tasks],
                parents: if idx > 0 && chain {
                    vec![idx - 1]
                } else {
                    vec![]
                },
            })
            .collect();
        StageDag::new(stages).expect("generated DAG is valid")
    })
}

/// Strategy producing valid fault plans that mix every fault kind with
/// checkpointing, restart overhead, a retry cap and (no) re-acquisition.
fn fault_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        (0.0f64..0.6, 0.0f64..0.3, 0.0f64..4.0),
        (0.0f64..0.5, 1.0f64..4.0),
        (0.0f64..=1.0, 0.0f64..2.0),
        (0u32..8, prop::bool::ANY, 0u64..1_000_000),
    )
        .prop_map(
            |((preempt, node_loss, grace), (prob, slowdown), (checkpoint, restart), misc)| {
                let (retries, reacquire, seed) = misc;
                FaultPlan {
                    seed,
                    preemption_rate_per_executor_min: preempt,
                    node_loss_rate_per_node_min: node_loss,
                    grace_period_secs: grace,
                    straggler_prob: prob,
                    straggler_slowdown: slowdown,
                    checkpoint_fraction: checkpoint,
                    restart_overhead_secs: restart,
                    max_task_retries: retries,
                    reacquire,
                }
            },
        )
}

/// Strategy producing one of the three policies, sized 1..48.
fn policy_strategy() -> impl Strategy<Value = AllocationPolicy> {
    (0usize..3, 1usize..48).prop_map(|(kind, n)| match kind {
        0 => AllocationPolicy::static_allocation(n),
        1 => AllocationPolicy::dynamic(1, n),
        _ => AllocationPolicy::predictive(n),
    })
}

/// Asserts two runs agree bit for bit, task log included.
fn assert_bit_identical(a: &QueryRunResult, b: &QueryRunResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.elapsed_secs.to_bits(), b.elapsed_secs.to_bits());
    prop_assert_eq!(a.auc_executor_secs.to_bits(), b.auc_executor_secs.to_bits());
    prop_assert_eq!(a.total_task_secs.to_bits(), b.total_task_secs.to_bits());
    prop_assert_eq!(a.skyline.points(), b.skyline.points());
    prop_assert_eq!(&a.outcome, &b.outcome);
    prop_assert_eq!(a.faults, b.faults);
    let records = |r: &QueryRunResult| r.task_log.as_ref().map(|log| log.records.clone());
    prop_assert_eq!(records(a), records(b));
    Ok(())
}

fn static_sim(n: usize) -> Simulator {
    Simulator::new(
        ClusterConfig::paper_default(),
        AllocationPolicy::static_allocation(n),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Noise-free run times never increase when executors are added
    /// (the monotonicity assumption behind the PPM, Section 3.1).
    #[test]
    fn run_time_monotone_in_executors(dag in dag_strategy()) {
        let cfg = RunConfig::deterministic();
        let mut last = f64::INFINITY;
        for n in [1usize, 2, 4, 8, 16, 32, 48] {
            let t = static_sim(n).run("prop", &dag, &cfg).elapsed_secs;
            prop_assert!(t <= last + 1e-6, "t({}) = {} exceeds previous {}", n, t, last);
            last = t;
        }
    }

    /// Elapsed time is bounded below by driver overhead + critical path and
    /// above by driver overhead + serial work (plus scheduling slack).
    #[test]
    fn elapsed_within_theoretical_bounds(dag in dag_strategy(), n in 1usize..48) {
        let cfg = RunConfig::deterministic();
        let r = static_sim(n).run("prop", &dag, &cfg).elapsed_secs;
        let lower = cfg.driver_overhead_secs + dag.critical_path_secs();
        // ec penalty is at most 8% (ec between 1 and 8), allocation waits are
        // bounded by the ramp for 48 executors (~30 s).
        let upper = cfg.driver_overhead_secs + dag.total_work_secs() * 1.1 + 40.0;
        prop_assert!(r >= lower - 1e-6, "elapsed {} below lower bound {}", r, lower);
        prop_assert!(r <= upper + 1e-6, "elapsed {} above upper bound {}", r, upper);
    }

    /// The executor occupancy is at least (max executors seen × 0) and at
    /// most max executors × elapsed; the skyline maximum never exceeds the
    /// static request.
    #[test]
    fn skyline_consistency(dag in dag_strategy(), n in 1usize..48) {
        let cfg = RunConfig::deterministic();
        let r = static_sim(n).run("prop", &dag, &cfg);
        prop_assert!(r.max_executors <= n);
        let bound = r.max_executors as f64 * r.elapsed_secs;
        prop_assert!(r.auc_executor_secs <= bound + 1e-6);
        prop_assert!(r.auc_executor_secs >= 0.0);
    }

    /// Dynamic allocation never exceeds its configured maximum.
    #[test]
    fn dynamic_allocation_respects_max(dag in dag_strategy(), max in 1usize..48) {
        let sim = Simulator::new(
            ClusterConfig::paper_default(),
            AllocationPolicy::dynamic(1, max),
        )
        .unwrap();
        let r = sim.run("prop", &dag, &RunConfig::deterministic());
        prop_assert!(r.max_executors <= max, "allocated {} > max {}", r.max_executors, max);
    }

    /// Task logs account for every task in the DAG.
    #[test]
    fn task_log_complete(dag in dag_strategy()) {
        let r = static_sim(8).run("prop", &dag, &RunConfig::deterministic().with_task_log());
        let log = r.task_log.unwrap();
        prop_assert_eq!(log.records.len(), dag.num_tasks());
        let logged: usize = log.stages.iter().map(|s| s.task_durations_secs.len()).sum();
        prop_assert_eq!(logged, dag.num_tasks());
    }

    /// Faulted runs over random DAGs, valid fault plans and all three
    /// policies: every run ends completed or failed for a fault reason, a
    /// completed run logs exactly one record per task, loss accounting is
    /// non-negative, the skyline stays within the cluster's executor cap,
    /// and a rerun on the reused scratch is bit-identical.
    #[test]
    fn faulted_runs_keep_their_invariants(
        dag in dag_strategy(),
        plan in fault_plan_strategy(),
        policy in policy_strategy(),
        seed in 0u64..1_000,
    ) {
        let cluster = ClusterConfig::paper_default();
        let sim = Simulator::new(cluster, policy).unwrap();
        let cfg = RunConfig::default().with_seed(seed).with_faults(plan).with_task_log();
        let mut scratch = SimScratch::new();
        let r = sim.run_with_scratch("prop", &dag, &cfg, &mut scratch);
        match &r.outcome {
            RunOutcome::Completed => {
                let log = r.task_log.as_ref().unwrap();
                let mut per_stage = vec![0usize; dag.num_stages()];
                for record in &log.records {
                    per_stage[record.stage_id] += 1;
                }
                for (stage, count) in dag.stages().iter().zip(per_stage) {
                    prop_assert_eq!(count, stage.tasks.len());
                }
            }
            RunOutcome::Failed(FailureReason::RetriesExhausted { stage, task }) => {
                prop_assert!(*task < dag.stages()[*stage].tasks.len());
                prop_assert!(r.faults.tasks_lost > plan.max_task_retries);
            }
            RunOutcome::Failed(FailureReason::ResourcesExhausted) => {}
            RunOutcome::Failed(reason) => {
                prop_assert!(false, "valid plan failed: {}", reason);
            }
        }
        prop_assert!(r.faults.work_lost_secs >= 0.0, "work lost {}", r.faults.work_lost_secs);
        prop_assert!(r.faults.recovery_secs >= 0.0, "recovery {}", r.faults.recovery_secs);
        let cap = cluster.max_executors();
        prop_assert!(r.skyline.points().iter().all(|&(_, count)| count <= cap));
        prop_assert!(r.max_executors <= cap);
        let rerun = sim.run_with_scratch("prop", &dag, &cfg, &mut scratch);
        assert_bit_identical(&r, &rerun)?;
        assert_bit_identical(&r, &sim.run("prop", &dag, &cfg))?;
    }
}
