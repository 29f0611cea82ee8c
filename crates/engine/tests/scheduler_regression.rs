//! Regression pins for the event-driven scheduler rewrite.
//!
//! The elapsed-time / AUC constants below were produced by the original
//! scan-based simulator loop on a fixed DAG, across every allocation
//! policy, both allocation-lag models, and noisy and noise-free runs. The
//! event-queue implementation must reproduce them **bit for bit** — the
//! rewrite is a pure performance optimization, not a behaviour change.

// The pinned constants keep the full printed precision of the recorded runs.
#![allow(clippy::excessive_precision)]

use ae_engine::cluster::AllocationLag;
use ae_engine::scheduler::SimScratch;
use ae_engine::{
    AllocationPolicy, ClusterConfig, FaultPlan, RunConfig, Simulator, Stage, StageDag, Task,
};

/// The reference DAG: a wide scan feeding two mid stages that join into a
/// narrow tail (fan-out/fan-in exercises the ready-queue bookkeeping).
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

fn run(policy: AllocationPolicy, instant: bool, seed: u64, noise_cv: f64) -> (f64, f64, usize) {
    let cluster = if instant {
        ClusterConfig {
            lag: AllocationLag::instant(),
            ..ClusterConfig::paper_default()
        }
    } else {
        ClusterConfig::paper_default()
    };
    let simulator = Simulator::new(cluster, policy).unwrap();
    let cfg = RunConfig {
        seed,
        noise_cv,
        ..RunConfig::default()
    };
    let result = simulator.run("ref", &reference_dag(), &cfg);
    (
        result.elapsed_secs,
        result.auc_executor_secs,
        result.max_executors,
    )
}

#[test]
fn static_allocation_pins() {
    // Values recorded from the pre-rewrite scan-based scheduler.
    assert_eq!(
        run(AllocationPolicy::static_allocation(8), false, 0, 0.0),
        (33.0, 232.0, 8)
    );
    assert_eq!(
        run(AllocationPolicy::static_allocation(8), false, 7, 0.05),
        (35.5519048100705817, 252.415238480564653, 8)
    );
    assert_eq!(
        run(AllocationPolicy::static_allocation(48), true, 0, 0.05),
        (34.4308491862658599, 1652.68076094076127, 48)
    );
}

#[test]
fn dynamic_allocation_pins() {
    assert_eq!(
        run(AllocationPolicy::dynamic(1, 48), false, 0, 0.0),
        (37.0, 426.0, 18)
    );
    assert_eq!(
        run(AllocationPolicy::dynamic(1, 48), true, 7, 0.05),
        (35.5519048100705817, 244.415238480564653, 8)
    );
}

#[test]
fn predictive_allocation_pins() {
    assert_eq!(
        run(AllocationPolicy::predictive(25), false, 0, 0.0),
        (33.0, 648.0, 25)
    );
    assert_eq!(
        run(AllocationPolicy::predictive(25), true, 7, 0.05),
        (35.5519048100705817, 868.797620251764556, 25)
    );
}

/// The reference DAG's first two stages: a shorter prefix of its task
/// order, so a noise stream drawn for one DAG covers part of the other.
fn short_dag() -> StageDag {
    let mut stages = reference_dag().stages().to_vec();
    stages.truncate(2);
    StageDag::new(stages).unwrap()
}

/// Runs `dag` on `scratch` and on a fresh scratch and asserts that every
/// output matches bit for bit.
fn assert_reuse_matches_fresh(
    simulator: &Simulator,
    dag: &StageDag,
    cfg: &RunConfig,
    scratch: &mut SimScratch,
) {
    let cfg = cfg.with_task_log();
    let fresh = simulator.run("q", dag, &cfg);
    let reused = simulator.run_with_scratch("q", dag, &cfg, scratch);
    let case = format!("{} tasks, {cfg:?}", dag.num_tasks());
    assert_eq!(fresh.elapsed_secs, reused.elapsed_secs, "{case}");
    assert_eq!(fresh.auc_executor_secs, reused.auc_executor_secs, "{case}");
    assert_eq!(fresh.max_executors, reused.max_executors, "{case}");
    assert_eq!(fresh.total_task_secs, reused.total_task_secs, "{case}");
    assert_eq!(fresh.faults, reused.faults, "{case}");
    assert_eq!(fresh.skyline.points(), reused.skyline.points(), "{case}");
    let (fresh_log, reused_log) = (fresh.task_log.unwrap(), reused.task_log.unwrap());
    assert_eq!(fresh_log.records, reused_log.records, "{case}");
    assert_eq!(fresh_log.stages.len(), reused_log.stages.len(), "{case}");
}

#[test]
fn scratch_reuse_is_bit_identical_to_fresh_runs() {
    let dag = reference_dag();
    let mut scratch = SimScratch::new();
    for policy in [
        AllocationPolicy::static_allocation(12),
        AllocationPolicy::dynamic(1, 48),
        AllocationPolicy::predictive(20),
    ] {
        let simulator = Simulator::new(ClusterConfig::paper_default(), policy).unwrap();
        for seed in [0u64, 3, 9] {
            let cfg = RunConfig::default().with_seed(seed);
            assert_reuse_matches_fresh(&simulator, &dag, &cfg, &mut scratch);
        }
    }

    // One scratch carried through runs that share a noise seed and runs
    // that do not: a longer DAG after a shorter one and the reverse, a
    // return to a seed after another, other noise levels on one seed, and
    // stragglers drawn on top of the noise.
    let simulator = Simulator::new(
        ClusterConfig::paper_default(),
        AllocationPolicy::static_allocation(12),
    )
    .unwrap();
    let short = short_dag();
    let seeded = |seed: u64, noise_cv: f64| RunConfig {
        seed,
        noise_cv,
        ..RunConfig::default()
    };
    let stragglers = seeded(5, 0.05).with_faults(FaultPlan::none().with_stragglers(0.2, 3.0));
    let cases = [
        (&short, seeded(5, 0.05)),
        (&dag, seeded(5, 0.05)),
        (&short, seeded(5, 0.05)),
        (&dag, seeded(6, 0.05)),
        (&dag, seeded(5, 0.05)),
        (&dag, seeded(5, 0.0)),
        (&dag, seeded(5, 0.05)),
        (&dag, seeded(5, 0.1)),
        (&short, seeded(5, 0.05)),
        (&dag, stragglers),
        (&dag, seeded(5, 0.05)),
    ];
    for (dag, cfg) in cases {
        assert_reuse_matches_fresh(&simulator, dag, &cfg, &mut scratch);
    }
}

#[test]
fn task_log_capture_off_still_reports_totals() {
    // Task-log bookkeeping is skipped entirely when capture is off; the
    // aggregate outputs must not change because of it.
    let dag = reference_dag();
    let simulator = Simulator::new(
        ClusterConfig::paper_default(),
        AllocationPolicy::static_allocation(8),
    )
    .unwrap();
    let with_log = simulator.run(
        "q",
        &dag,
        &RunConfig::default().with_seed(4).with_task_log(),
    );
    let without_log = simulator.run("q", &dag, &RunConfig::default().with_seed(4));
    assert!(without_log.task_log.is_none());
    assert_eq!(with_log.elapsed_secs, without_log.elapsed_secs);
    assert_eq!(with_log.auc_executor_secs, without_log.auc_executor_secs);
    assert_eq!(with_log.total_task_secs, without_log.total_task_secs);
}

/// A three-stage DAG whose task durations are whole seconds plus 5e-10 s.
/// Tasks start on whole-second ticks, so each completion lands inside the
/// `1e-9` s slack after a tick: the tick iteration completes it, and the
/// next wave starts on the tick, not 5e-10 s later.
fn tick_window_dag() -> StageDag {
    let task = |secs: f64| Task::new(secs + 5e-10);
    StageDag::new(vec![
        Stage {
            id: 0,
            tasks: vec![task(3.0); 24],
            parents: vec![],
        },
        Stage {
            id: 1,
            tasks: vec![task(2.0); 6],
            parents: vec![0],
        },
        Stage {
            id: 2,
            tasks: vec![task(4.0); 2],
            parents: vec![1],
        },
    ])
    .unwrap()
}

#[test]
fn completions_inside_a_ticks_slack_pins() {
    // Recorded before static ticks could be folded: a tick whose slack
    // holds a completion must still run, or every later start moves.
    // (executors, instant lag) -> (elapsed, AUC, max executors).
    let cases = [
        ((1, false), (34.0, 31.0, 1)),
        ((3, false), (20.0, 51.0, 3)),
        ((6, false), (17.0, 80.0, 6)),
        ((16, false), (17.0, 176.0, 16)),
        ((1, true), (34.0, 34.0, 1)),
        ((5, true), (20.0, 100.0, 5)),
    ];
    for ((n, instant), pinned) in cases {
        let cluster = if instant {
            ClusterConfig {
                lag: AllocationLag::instant(),
                ..ClusterConfig::paper_default()
            }
        } else {
            ClusterConfig::paper_default()
        };
        let simulator = Simulator::new(cluster, AllocationPolicy::static_allocation(n)).unwrap();
        let r = simulator.run("tick", &tick_window_dag(), &RunConfig::deterministic());
        assert_eq!(
            (r.elapsed_secs, r.auc_executor_secs, r.max_executors),
            pinned,
            "static {n}, instant lag {instant}"
        );
    }
}
