//! # ae-sparklens — post-hoc executor-count analysis from a single run
//!
//! Qubole Sparklens analyses the event log of a completed Spark application
//! and, by simulating the Spark scheduler, estimates what the application's
//! run time *would have been* with different executor counts. The paper uses
//! it in two roles:
//!
//! 1. **Training-data augmentation** — each training query is run once
//!    (at n = 16) and Sparklens extrapolates its run-time curve over all
//!    candidate executor counts (Section 4.1), avoiding expensive re-runs.
//! 2. **A post-hoc baseline** — the `S` series in Figures 4, 8, 9 and 14.
//!
//! [`SparklensAnalyzer`] reproduces the algorithmic core: from a
//! [`TaskLog`] it derives, per stage, the critical (longest) task time and
//! the total task work, and estimates the stage time at `n` executors as
//! `max(longest task, total work / slots)` — work spreading bounded below by
//! the critical path. Estimates are therefore deterministic and monotone
//! non-increasing in `n`, exactly the properties the paper relies on
//! (Section 3.1, reason 3).

#![warn(missing_docs)]
#![deny(unsafe_code)]

use ae_engine::stage::TaskLog;
use serde::{Deserialize, Serialize};

/// Configuration of the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SparklensConfig {
    /// Cores per executor assumed when converting executor counts to slots.
    pub cores_per_executor: usize,
    /// Fraction of per-stage scheduling overhead added per wave of tasks
    /// (models task launch latency; small).
    pub per_wave_overhead_secs: f64,
}

impl Default for SparklensConfig {
    fn default() -> Self {
        Self {
            cores_per_executor: 4,
            per_wave_overhead_secs: 0.05,
        }
    }
}

/// Per-stage summary extracted from the task log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Stage identifier.
    pub stage_id: usize,
    /// Parent stage ids.
    pub parents: Vec<usize>,
    /// Number of tasks in the stage.
    pub num_tasks: usize,
    /// Total task work in core-seconds.
    pub total_work_secs: f64,
    /// Longest single task (the stage's critical time).
    pub critical_task_secs: f64,
}

/// The full analysis of one run: per-stage summaries plus driver overhead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparklensReport {
    /// Query name from the log.
    pub query_name: String,
    /// Executor count of the observed run.
    pub observed_executors: usize,
    /// Observed elapsed time.
    pub observed_elapsed_secs: f64,
    /// Per-stage summaries in DAG order.
    pub stages: Vec<StageSummary>,
    /// Driver-side time not attributable to tasks.
    pub driver_overhead_secs: f64,
}

impl SparklensReport {
    /// Total task work across stages, in core-seconds.
    pub fn total_work_secs(&self) -> f64 {
        self.stages.iter().map(|s| s.total_work_secs).sum()
    }

    /// Critical-path time through the stage DAG (unbounded parallelism).
    pub fn critical_path_secs(&self) -> f64 {
        let mut completion = vec![0.0f64; self.stages.len()];
        for (idx, stage) in self.stages.iter().enumerate() {
            let ready = stage
                .parents
                .iter()
                .map(|&p| completion[p])
                .fold(0.0, f64::max);
            completion[idx] = ready + stage.critical_task_secs;
        }
        completion.into_iter().fold(0.0, f64::max)
    }
}

/// The analyzer: turns task logs into run-time estimates per executor count.
#[derive(Debug, Clone, Copy, Default)]
pub struct SparklensAnalyzer {
    config: SparklensConfig,
}

impl SparklensAnalyzer {
    /// Creates an analyzer with the given configuration.
    pub fn new(config: SparklensConfig) -> Self {
        Self { config }
    }

    /// Creates an analyzer with the paper's configuration (4-core executors).
    pub fn paper_default() -> Self {
        Self::new(SparklensConfig::default())
    }

    /// Summarises a task log into a report.
    pub fn analyze(&self, log: &TaskLog) -> SparklensReport {
        let stages = log
            .stages
            .iter()
            .map(|stage| {
                let total: f64 = stage.task_durations_secs.iter().sum();
                let critical = stage
                    .task_durations_secs
                    .iter()
                    .copied()
                    .fold(0.0, f64::max);
                StageSummary {
                    stage_id: stage.stage_id,
                    parents: stage.parents.clone(),
                    num_tasks: stage.task_durations_secs.len(),
                    total_work_secs: total,
                    critical_task_secs: critical,
                }
            })
            .collect();
        SparklensReport {
            query_name: log.query_name.clone(),
            observed_executors: log.executors,
            observed_elapsed_secs: log.elapsed_secs,
            stages,
            driver_overhead_secs: log.driver_overhead_secs,
        }
    }

    /// Estimates the application run time with `executors` executors.
    ///
    /// Each stage takes `max(critical task, total work / slots)` plus a small
    /// per-wave launch overhead; stages are laid out along the DAG's critical
    /// path; driver overhead is added once. The estimate is monotone
    /// non-increasing in `executors`.
    pub fn estimate_elapsed_secs(&self, report: &SparklensReport, executors: usize) -> f64 {
        let executors = executors.max(1);
        let slots = (executors * self.config.cores_per_executor.max(1)) as f64;
        let mut completion = vec![0.0f64; report.stages.len()];
        for (idx, stage) in report.stages.iter().enumerate() {
            let ready = stage
                .parents
                .iter()
                .map(|&p| completion[p])
                .fold(0.0, f64::max);
            let spread = stage.total_work_secs / slots;
            let waves = (stage.num_tasks as f64 / slots).ceil().max(1.0);
            let stage_time =
                stage.critical_task_secs.max(spread) + waves * self.config.per_wave_overhead_secs;
            completion[idx] = ready + stage_time;
        }
        report.driver_overhead_secs + completion.into_iter().fold(0.0, f64::max)
    }

    /// Estimates the run-time curve over a set of executor counts, returning
    /// `(executors, estimated seconds)` pairs in the given order.
    pub fn estimate_curve(
        &self,
        report: &SparklensReport,
        executor_counts: &[usize],
    ) -> Vec<(usize, f64)> {
        executor_counts
            .iter()
            .map(|&n| (n, self.estimate_elapsed_secs(report, n)))
            .collect()
    }

    /// Convenience: analyse a log and estimate a curve in one call.
    pub fn estimate_from_log(&self, log: &TaskLog, executor_counts: &[usize]) -> Vec<(usize, f64)> {
        let report = self.analyze(log);
        self.estimate_curve(&report, executor_counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_engine::stage::{StageLog, TaskLog};

    fn toy_log() -> TaskLog {
        TaskLog {
            query_name: "toy".into(),
            executors: 16,
            cores_per_executor: 4,
            stages: vec![
                StageLog {
                    stage_id: 0,
                    parents: vec![],
                    task_durations_secs: vec![2.0; 64], // 128 core-seconds
                },
                StageLog {
                    stage_id: 1,
                    parents: vec![0],
                    task_durations_secs: vec![10.0], // serial tail
                },
            ],
            records: vec![],
            driver_overhead_secs: 5.0,
            elapsed_secs: 20.0,
        }
    }

    #[test]
    fn report_summarises_stages() {
        let analyzer = SparklensAnalyzer::paper_default();
        let report = analyzer.analyze(&toy_log());
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].num_tasks, 64);
        assert!((report.stages[0].total_work_secs - 128.0).abs() < 1e-9);
        assert!((report.stages[0].critical_task_secs - 2.0).abs() < 1e-9);
        assert!((report.total_work_secs() - 138.0).abs() < 1e-9);
        assert!((report.critical_path_secs() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn estimates_are_monotone_non_increasing() {
        let analyzer = SparklensAnalyzer::paper_default();
        let report = analyzer.analyze(&toy_log());
        let mut last = f64::INFINITY;
        for n in 1..=48 {
            let t = analyzer.estimate_elapsed_secs(&report, n);
            assert!(t <= last + 1e-9, "estimate increased at n={n}");
            last = t;
        }
    }

    #[test]
    fn estimates_saturate_at_critical_path_plus_driver() {
        let analyzer = SparklensAnalyzer::paper_default();
        let report = analyzer.analyze(&toy_log());
        let t_large = analyzer.estimate_elapsed_secs(&report, 1000);
        // 5 (driver) + 2 (stage 0 critical) + 10 (tail) plus tiny overheads.
        assert!((t_large - 17.0).abs() < 0.5, "saturated estimate {t_large}");
    }

    #[test]
    fn single_executor_estimate_close_to_serial_time() {
        let analyzer = SparklensAnalyzer::paper_default();
        let report = analyzer.analyze(&toy_log());
        let t1 = analyzer.estimate_elapsed_secs(&report, 1);
        // 128/4 = 32 for stage 0 (work-bound), 10 for the tail, 5 driver.
        assert!((t1 - 47.0).abs() < 2.0, "t1 = {t1}");
    }

    #[test]
    fn zero_executors_treated_as_one() {
        let analyzer = SparklensAnalyzer::paper_default();
        let report = analyzer.analyze(&toy_log());
        assert_eq!(
            analyzer.estimate_elapsed_secs(&report, 0),
            analyzer.estimate_elapsed_secs(&report, 1)
        );
    }

    #[test]
    fn curve_preserves_requested_order() {
        let analyzer = SparklensAnalyzer::paper_default();
        let report = analyzer.analyze(&toy_log());
        let curve = analyzer.estimate_curve(&report, &[8, 1, 32]);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].0, 8);
        assert_eq!(curve[1].0, 1);
        assert_eq!(curve[2].0, 32);
    }
}
