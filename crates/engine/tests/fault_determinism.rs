//! Determinism pins for fault injection.
//!
//! Two guarantees are pinned here, alongside `scheduler_regression.rs`:
//!
//! 1. **Zero-fault bit-identity** — a run with an explicit
//!    [`FaultPlan::none`] reproduces the pre-fault scheduler's recorded
//!    constants bit for bit (the fault machinery must be entirely inert).
//! 2. **Seeded-fault reproducibility** — the same `FaultPlan` seed yields
//!    bit-identical [`ae_engine::QueryRunResult`]s across repeated runs,
//!    scratch reuse, and thread placement (every fault draw comes from an
//!    index-keyed seed stream, never from shared mutable state).

#![allow(clippy::excessive_precision)]

use ae_engine::cluster::AllocationLag;
use ae_engine::scheduler::SimScratch;
use ae_engine::{
    AllocationPolicy, ClusterConfig, FaultPlan, RunConfig, RunOutcome, Simulator, Stage, StageDag,
    Task,
};

/// The same reference DAG as `scheduler_regression.rs`.
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

fn simulator(policy: AllocationPolicy) -> Simulator {
    Simulator::new(ClusterConfig::paper_default(), policy).unwrap()
}

fn assert_bit_identical(a: &ae_engine::QueryRunResult, b: &ae_engine::QueryRunResult) {
    assert_eq!(a.elapsed_secs.to_bits(), b.elapsed_secs.to_bits());
    assert_eq!(a.auc_executor_secs.to_bits(), b.auc_executor_secs.to_bits());
    assert_eq!(a.max_executors, b.max_executors);
    assert_eq!(a.total_task_secs.to_bits(), b.total_task_secs.to_bits());
    assert_eq!(a.skyline.points(), b.skyline.points());
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.faults, b.faults);
}

#[test]
fn zero_fault_plan_reproduces_pre_fault_pins() {
    // The recorded constants of scheduler_regression.rs, re-asserted with
    // an *explicit* zero-fault plan: FaultPlan::none() must be inert.
    let cfg = RunConfig {
        seed: 7,
        noise_cv: 0.05,
        faults: FaultPlan::none(),
        ..RunConfig::default()
    };
    let result =
        simulator(AllocationPolicy::static_allocation(8)).run("ref", &reference_dag(), &cfg);
    assert_eq!(result.elapsed_secs, 35.5519048100705817);
    assert_eq!(result.auc_executor_secs, 252.415238480564653);
    assert_eq!(result.max_executors, 8);
    assert_eq!(result.outcome, RunOutcome::Completed);
    assert!(result.faults.is_clean());

    let noise_free = RunConfig {
        noise_cv: 0.0,
        faults: FaultPlan::none(),
        ..RunConfig::default()
    };
    let result =
        simulator(AllocationPolicy::dynamic(1, 48)).run("ref", &reference_dag(), &noise_free);
    assert_eq!(result.elapsed_secs, 37.0);
    assert_eq!(result.auc_executor_secs, 426.0);
    assert_eq!(result.max_executors, 18);
}

#[test]
fn same_fault_seed_is_bit_identical_across_runs_and_scratch_reuse() {
    let dag = reference_dag();
    let mut scratch = SimScratch::new();
    for policy in [
        AllocationPolicy::static_allocation(12),
        AllocationPolicy::dynamic(1, 48),
        AllocationPolicy::predictive(20),
    ] {
        let sim = simulator(policy);
        for fault_seed in [1u64, 5, 11] {
            let plan = FaultPlan::preemptions(0.5, 2.0)
                .with_node_loss(0.05)
                .with_stragglers(0.05, 3.0)
                .with_seed(fault_seed);
            let cfg = RunConfig::default().with_seed(3).with_faults(plan);
            let fresh = sim.run("q", &dag, &cfg);
            let repeated = sim.run("q", &dag, &cfg);
            let reused = sim.run_with_scratch("q", &dag, &cfg, &mut scratch);
            assert_bit_identical(&fresh, &repeated);
            assert_bit_identical(&fresh, &reused);
        }
    }
}

#[test]
fn fault_runs_are_thread_placement_independent() {
    // Simulate the same faulty run from many rayon worker threads at once;
    // every result must be bit-identical to the sequential one (no fault
    // draw may depend on shared mutable state or execution order).
    let dag = reference_dag();
    let plan = FaultPlan::preemptions(0.4, 2.0)
        .with_stragglers(0.1, 2.0)
        .with_seed(17);
    let cfg = RunConfig::default().with_seed(5).with_faults(plan);
    let sim = simulator(AllocationPolicy::static_allocation(16));
    let sequential = sim.run("q", &dag, &cfg);
    use rayon::prelude::*;
    let parallel: Vec<_> = (0..8)
        .collect::<Vec<u32>>()
        .into_par_iter()
        .map(|_| sim.run("q", &dag, &cfg))
        .collect();
    for result in &parallel {
        assert_bit_identical(&sequential, result);
    }
}

#[test]
fn moderate_preemption_completes_via_retry() {
    // At the acceptance-criteria rate (0.1 revocations per executor-minute)
    // queries must complete through the retry path across many seeds.
    let dag = reference_dag();
    let sim = simulator(AllocationPolicy::static_allocation(16));
    let mut revoked_total = 0u32;
    for fault_seed in 0..50u64 {
        let plan = FaultPlan::preemptions(0.1, 2.0).with_seed(fault_seed);
        let cfg = RunConfig::default().with_seed(2).with_faults(plan);
        let result = sim.run("q", &dag, &cfg);
        assert_eq!(
            result.outcome,
            RunOutcome::Completed,
            "seed {fault_seed} failed: {:?}",
            result.faults
        );
        revoked_total += result.faults.executors_revoked();
    }
    assert!(
        revoked_total > 0,
        "the sweep should observe at least one revocation"
    );
}

#[test]
fn preemption_increases_elapsed_and_accounts_losses() {
    let dag = reference_dag();
    let sim = simulator(AllocationPolicy::static_allocation(16));
    let clean_cfg = RunConfig::default().with_seed(2);
    let clean = sim.run("q", &dag, &clean_cfg);

    // An aggressive plan whose seed provably loses tasks.
    let mut lossy = None;
    for fault_seed in 0..32u64 {
        let plan = FaultPlan::preemptions(2.0, 1.0).with_seed(fault_seed);
        let cfg = clean_cfg.with_faults(plan);
        let result = sim.run("q", &dag, &cfg);
        if result.faults.tasks_lost > 0 && result.outcome.is_completed() {
            lossy = Some(result);
            break;
        }
    }
    let lossy = lossy.expect("an aggressive preemption plan should lose tasks");
    assert!(lossy.elapsed_secs > clean.elapsed_secs);
    assert!(lossy.faults.work_lost_secs > 0.0);
    assert!(lossy.faults.recovery_secs > 0.0);
    assert!(lossy.faults.replacements_requested > 0);
}

#[test]
fn checkpointing_reduces_work_lost() {
    // With full checkpointing, a retry resumes where the task was lost, so
    // no work is lost and recovery completes no later than from scratch.
    let dag = reference_dag();
    let sim = simulator(AllocationPolicy::static_allocation(16));
    for fault_seed in 0..32u64 {
        let scratch_plan = FaultPlan::preemptions(2.0, 1.0).with_seed(fault_seed);
        let ckpt_plan = scratch_plan.with_checkpoint_fraction(1.0);
        let base = RunConfig::default().with_seed(2);
        let from_scratch = sim.run("q", &dag, &base.with_faults(scratch_plan));
        let checkpointed = sim.run("q", &dag, &base.with_faults(ckpt_plan));
        if from_scratch.faults.tasks_lost == 0 {
            continue;
        }
        assert_eq!(checkpointed.faults.work_lost_secs, 0.0);
        assert!(checkpointed.elapsed_secs <= from_scratch.elapsed_secs + 1e-9);
        return;
    }
    panic!("no seed lost a task at rate 2.0/executor-min");
}

#[test]
fn retry_exhaustion_fails_the_run() {
    // Permanent revocation of everything with retries capped at zero: the
    // first loss must surface as a first-class failure outcome.
    let dag = reference_dag();
    let sim = simulator(AllocationPolicy::static_allocation(8));
    for fault_seed in 0..32u64 {
        let plan = FaultPlan::preemptions(20.0, 0.0)
            .with_seed(fault_seed)
            .with_max_task_retries(0);
        let cfg = RunConfig::default().with_faults(plan);
        let result = sim.run("q", &dag, &cfg);
        if let RunOutcome::Failed(reason) = &result.outcome {
            assert!(
                matches!(
                    reason,
                    ae_engine::FailureReason::RetriesExhausted { .. }
                        | ae_engine::FailureReason::ResourcesExhausted
                ),
                "unexpected failure reason: {reason}"
            );
            return;
        }
    }
    panic!("no seed failed at rate 20/executor-min with zero retries");
}

#[test]
fn no_reacquire_exhausts_resources() {
    // Everything dies quickly and nothing is re-acquired: the run must
    // fail (resources exhausted or retries exhausted), never hang.
    let dag = reference_dag();
    let sim = simulator(AllocationPolicy::static_allocation(8));
    let mut saw_failure = false;
    for fault_seed in 0..16u64 {
        let plan = FaultPlan::preemptions(30.0, 0.5)
            .with_seed(fault_seed)
            .with_reacquire(false);
        let cfg = RunConfig::default().with_faults(plan);
        let result = sim.run("q", &dag, &cfg);
        saw_failure |= !result.outcome.is_completed();
    }
    assert!(saw_failure, "permanent total revocation should fail runs");
}

#[test]
fn stragglers_slow_the_run_without_touching_base_noise() {
    let dag = reference_dag();
    let sim = simulator(AllocationPolicy::static_allocation(16));
    let base = RunConfig::default().with_seed(4);
    let clean = sim.run("q", &dag, &base);
    let straggly = sim.run(
        "q",
        &dag,
        &base.with_faults(FaultPlan::none().with_stragglers(1.0, 2.0).with_seed(1)),
    );
    // Every task a 2× straggler: elapsed grows, and the straggler count
    // covers the whole DAG.
    assert!(straggly.elapsed_secs > clean.elapsed_secs);
    assert_eq!(straggly.faults.stragglers, 54);
    assert!(straggly.total_task_secs > clean.total_task_secs * 1.9);
}

#[test]
fn node_loss_takes_colocated_executors_together() {
    // Node loss only (no spot preemption): revocations must come in groups
    // sharing a node (paper cluster hosts 2 executors per node).
    let dag = reference_dag();
    let sim = simulator(AllocationPolicy::static_allocation(16));
    let mut observed = false;
    for fault_seed in 0..64u64 {
        let plan = FaultPlan::none().with_node_loss(0.5).with_seed(fault_seed);
        let cfg = RunConfig::default().with_seed(2).with_faults(plan);
        let result = sim.run("q", &dag, &cfg);
        assert_eq!(result.faults.preempted_executors, 0);
        if result.faults.node_loss_executors >= 2 {
            observed = true;
        }
    }
    assert!(observed, "node loss should revoke co-located executors");
}

#[test]
fn allocation_lag_instant_vs_synapse_changes_recovery() {
    // Re-acquisition goes back through AllocationLag: with instant grants a
    // replacement is usable immediately, with Synapse-like lag it is not.
    let dag = reference_dag();
    let instant = Simulator::new(
        ClusterConfig {
            lag: AllocationLag::instant(),
            ..ClusterConfig::paper_default()
        },
        AllocationPolicy::static_allocation(16),
    )
    .unwrap();
    let laggy = simulator(AllocationPolicy::static_allocation(16));
    for fault_seed in 0..32u64 {
        let plan = FaultPlan::preemptions(2.0, 1.0).with_seed(fault_seed);
        let cfg = RunConfig::default().with_seed(2).with_faults(plan);
        let fast = instant.run("q", &dag, &cfg);
        let slow = laggy.run("q", &dag, &cfg);
        if fast.faults.tasks_lost > 0 && slow.faults.tasks_lost > 0 {
            assert!(slow.elapsed_secs >= fast.elapsed_secs - 1e-9);
            return;
        }
    }
    panic!("no seed lost tasks under both lag models");
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends everything a faulted run reports: elapsed, AUC and total task
/// bits, the skyline points, the outcome and every `FaultSummary` field.
fn push_run(bytes: &mut Vec<u8>, r: &ae_engine::QueryRunResult) {
    let mut u64 = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    u64(r.elapsed_secs.to_bits());
    u64(r.auc_executor_secs.to_bits());
    u64(r.total_task_secs.to_bits());
    for &(t, count) in r.skyline.points() {
        u64(t.to_bits());
        u64(count as u64);
    }
    let f = r.faults;
    for count in [
        f.preempted_executors,
        f.node_loss_executors,
        f.tasks_lost,
        f.replacements_requested,
        f.stragglers,
    ] {
        u64(u64::from(count));
    }
    u64(f.work_lost_secs.to_bits());
    u64(f.recovery_secs.to_bits());
    bytes.extend_from_slice(format!("{:?}", r.outcome).as_bytes());
}

#[test]
fn fault_grid_matches_the_recorded_fingerprints() {
    // SA, DA and Rule × six fault shapes × four seeds on the reference
    // DAG, one fingerprint per shape. Recorded from the simulator loop
    // that preceded the per-step run state; any change to the fault path's
    // event order, RNG draws or accounting moves them.
    let shapes: [(&str, FaultPlan, u64); 6] = [
        (
            "preemption",
            FaultPlan::preemptions(0.5, 2.0),
            1921811212633478424,
        ),
        (
            "node loss",
            FaultPlan::none().with_node_loss(1.0),
            3422926024071679798,
        ),
        (
            "no re-acquire",
            FaultPlan::preemptions(3.0, 1.0).with_reacquire(false),
            14824253157913985429,
        ),
        (
            "stragglers",
            FaultPlan::none().with_stragglers(0.2, 3.0),
            17291393065573052265,
        ),
        (
            "checkpoint 0.5",
            FaultPlan::preemptions(1.0, 1.0).with_checkpoint_fraction(0.5),
            5387664062646221155,
        ),
        (
            "retry cap 1",
            FaultPlan::preemptions(2.0, 1.0).with_max_task_retries(1),
            3414861116038764470,
        ),
    ];
    let dag = reference_dag();
    for (label, plan, expected) in shapes {
        let mut bytes = Vec::new();
        for policy in [
            AllocationPolicy::static_allocation(12),
            AllocationPolicy::dynamic(1, 48),
            AllocationPolicy::predictive(20),
        ] {
            let sim = simulator(policy);
            for fault_seed in 0..4u64 {
                let cfg = RunConfig::default()
                    .with_seed(3)
                    .with_faults(plan.with_seed(fault_seed));
                push_run(&mut bytes, &sim.run("q", &dag, &cfg));
            }
        }
        assert_eq!(fnv1a(&bytes), expected, "{label}");
    }
}

#[test]
fn replacements_past_sixty_four_executors_match_the_recorded_fingerprint() {
    // SA(48) under heavy re-acquiring preemption: the replacements take
    // executor indices past 64, beyond a single 64-bit word. Hashes the
    // same fields as the fault grid; recorded from the simulator loop that
    // preceded the exact free-slot index.
    let dag = reference_dag();
    let sim = simulator(AllocationPolicy::static_allocation(48));
    let mut bytes = Vec::new();
    for fault_seed in 0..4u64 {
        let plan = FaultPlan::preemptions(3.0, 1.0).with_seed(fault_seed);
        let cfg = RunConfig::default().with_seed(3).with_faults(plan);
        let result = sim.run("q", &dag, &cfg);
        assert!(
            48 + result.faults.replacements_requested > 64,
            "seed {fault_seed}: only {} replacements",
            result.faults.replacements_requested
        );
        push_run(&mut bytes, &result);
    }
    assert_eq!(
        fnv1a(&bytes),
        13218312797025239090,
        "re-acquired replacements"
    );
}
