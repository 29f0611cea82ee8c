//! Run inputs the simulator cannot honour are rejected before any event is
//! simulated.
//!
//! [`Simulator::new`] refuses a policy that can hold no executor and policy
//! durations that are not finite and non-negative. Every run checks its
//! [`RunConfig`] first: an invalid one reports
//! `RunOutcome::Failed(FailureReason::InvalidConfig(..))` with a zero
//! elapsed time and a zero skyline instead of ticking to the simulation
//! bound, clamping every task, or running a fault plan its own validation
//! rejects.

use ae_engine::{
    AllocationPolicy, ApplicationSession, ClusterConfig, DynamicAllocationConfig, EngineError,
    FailureReason, FaultPlan, QuerySubmission, RunConfig, RunOutcome, Simulator, Stage, StageDag,
    Task,
};

/// The reference DAG of `scheduler_regression.rs`.
fn reference_dag() -> StageDag {
    StageDag::new(vec![
        Stage {
            id: 0,
            tasks: vec![Task::new(5.0); 32],
            parents: vec![],
        },
        Stage {
            id: 1,
            tasks: vec![Task::new(8.0); 4],
            parents: vec![0],
        },
        Stage {
            id: 2,
            tasks: vec![Task::new(2.5); 16],
            parents: vec![0],
        },
        Stage {
            id: 3,
            tasks: vec![Task::new(12.0); 2],
            parents: vec![1, 2],
        },
    ])
    .unwrap()
}

/// Asserts that `cfg` fails validation and that a run with it reports
/// `InvalidConfig` without simulating a single event.
fn assert_run_rejected(cfg: RunConfig) {
    assert!(cfg.validate().is_err(), "{cfg:?} passed validation");
    let sim = Simulator::new(
        ClusterConfig::paper_default(),
        AllocationPolicy::static_allocation(8),
    )
    .unwrap();
    let result = sim.run("q", &reference_dag(), &cfg);
    assert!(
        matches!(
            &result.outcome,
            RunOutcome::Failed(FailureReason::InvalidConfig(_))
        ),
        "{cfg:?} ran to {}",
        result.outcome
    );
    assert_eq!(result.elapsed_secs, 0.0);
    assert_eq!(result.total_task_secs, 0.0);
    assert_eq!(result.skyline.points(), &[(0.0, 0)]);
    assert!(result.faults.is_clean());
}

/// Asserts that `Simulator::new` refuses `policy`.
fn assert_policy_rejected(policy: AllocationPolicy) {
    assert!(
        matches!(
            Simulator::new(ClusterConfig::paper_default(), policy),
            Err(EngineError::InvalidConfig(_))
        ),
        "{policy:?} was accepted"
    );
}

#[test]
fn non_finite_or_negative_driver_overhead_is_rejected() {
    // A NaN overhead never lets a task start: the run used to tick to the
    // 10^7 s bound and report exhausted resources.
    for overhead in [f64::NAN, f64::INFINITY, -1.0] {
        assert_run_rejected(RunConfig {
            driver_overhead_secs: overhead,
            ..RunConfig::default()
        });
    }
}

#[test]
fn non_finite_or_negative_noise_is_rejected() {
    // A NaN coefficient clamped every task to 0.2× its work and still
    // reported a completed run.
    for cv in [f64::NAN, f64::INFINITY, -0.05] {
        assert_run_rejected(RunConfig {
            noise_cv: cv,
            ..RunConfig::default()
        });
    }
}

#[test]
fn straggler_plan_that_fails_validation_is_not_run() {
    // A slowdown below 1 sped tasks up while counting no stragglers.
    assert_run_rejected(
        RunConfig::default().with_faults(FaultPlan::none().with_stragglers(0.5, 0.25)),
    );
}

#[test]
fn negative_grace_and_out_of_range_checkpoint_are_rejected() {
    // Together they completed with negative work lost.
    let mut plan = FaultPlan::preemptions(2.0, -5.0);
    plan.checkpoint_fraction = 1.5;
    assert_run_rejected(RunConfig::default().with_faults(plan));
}

#[test]
fn policy_that_can_hold_no_executor_is_rejected() {
    // Static allocation of zero executors used to tick to the simulation
    // bound.
    assert_policy_rejected(AllocationPolicy::static_allocation(0));
}

#[test]
fn non_finite_or_negative_policy_durations_are_rejected() {
    // A NaN rule delay meant the predictive request never fired.
    for delay in [f64::NAN, f64::INFINITY, -1.0] {
        assert_policy_rejected(AllocationPolicy::Predictive {
            initial: 5,
            predicted: 16,
            rule_delay_secs: delay,
            idle_timeout_secs: 60.0,
        });
    }
    assert_policy_rejected(AllocationPolicy::Predictive {
        initial: 5,
        predicted: 16,
        rule_delay_secs: 1.0,
        idle_timeout_secs: f64::NAN,
    });
    let da = DynamicAllocationConfig::paper_default();
    for bad in [
        DynamicAllocationConfig {
            idle_timeout_secs: -1.0,
            ..da
        },
        DynamicAllocationConfig {
            schedule_interval_secs: f64::NAN,
            ..da
        },
        DynamicAllocationConfig {
            sustained_backlog_secs: f64::INFINITY,
            ..da
        },
    ] {
        assert_policy_rejected(AllocationPolicy::Dynamic(bad));
    }
}

#[test]
fn session_rejects_an_invalid_run_config() {
    let cfg = RunConfig {
        noise_cv: f64::NAN,
        ..RunConfig::default()
    };
    assert!(ApplicationSession::new(ClusterConfig::paper_default(), 60.0, cfg).is_err());
}

#[test]
fn session_rejects_an_idle_timeout_that_is_not_finite_and_non_negative() {
    // A session of dynamic-fallback queries never hands the timeout to the
    // simulator. At -10 s its totals went below the query's own elapsed
    // time and AUC, and a NaN timeout made both totals NaN.
    let submissions = [QuerySubmission {
        name: "q".into(),
        dag: StageDag::new(vec![Stage {
            id: 0,
            tasks: vec![Task::new(5.0); 32],
            parents: vec![],
        }])
        .unwrap(),
        predicted_executors: None,
        gap_before_secs: 0.0,
    }];
    for timeout in [f64::NAN, f64::INFINITY, -10.0] {
        let session = ApplicationSession::new(
            ClusterConfig::paper_default(),
            timeout,
            RunConfig::default(),
        );
        assert!(
            matches!(session, Err(EngineError::InvalidConfig(_))),
            "idle timeout {timeout} was accepted"
        );
    }
    let session =
        ApplicationSession::new(ClusterConfig::paper_default(), 0.0, RunConfig::default()).unwrap();
    let result = session.run(&submissions).unwrap();
    assert_eq!(result.total_elapsed_secs, result.queries[0].elapsed_secs);
}

#[test]
fn honourable_inputs_still_validate() {
    for cfg in [
        RunConfig::default(),
        RunConfig::deterministic(),
        RunConfig::default().with_faults(
            FaultPlan::preemptions(0.5, 2.0)
                .with_node_loss(0.1)
                .with_stragglers(0.1, 3.0)
                .with_checkpoint_fraction(1.0),
        ),
    ] {
        assert!(cfg.validate().is_ok(), "{cfg:?}");
    }
    for policy in [
        AllocationPolicy::static_allocation(1),
        AllocationPolicy::dynamic(0, 48),
        AllocationPolicy::Dynamic(DynamicAllocationConfig::spark_default()),
        AllocationPolicy::predictive(0),
    ] {
        assert!(Simulator::new(ClusterConfig::paper_default(), policy).is_ok());
    }
}
