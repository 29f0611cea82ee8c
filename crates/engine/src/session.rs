//! Multi-query application sessions (Figure 7 of the paper).
//!
//! An interactive Spark application (for example a notebook) submits several
//! queries with think-time gaps in between. Executors allocated for one
//! query can be reused by the next query if it arrives before the idle
//! timeout releases them; otherwise the reactive deallocation path shrinks
//! the pool during the gap. [`ApplicationSession`] composes per-query
//! simulator runs into a single application-level skyline so that the
//! predictive-allocation + reactive-deallocation interplay can be observed.

use serde::{Deserialize, Serialize};

use crate::allocation::AllocationPolicy;
use crate::cluster::ClusterConfig;
use crate::scheduler::{QueryRunResult, RunConfig, Simulator};
use crate::skyline::Skyline;
use crate::stage::StageDag;
use crate::{require_finite_nonneg, Result};

/// One query submitted to the session.
#[derive(Debug, Clone)]
pub struct QuerySubmission {
    /// Query name.
    pub name: String,
    /// Stage DAG of the query.
    pub dag: StageDag,
    /// Executor count requested for this query (e.g. an AutoExecutor
    /// prediction). `None` lets the session fall back to dynamic allocation.
    pub predicted_executors: Option<usize>,
    /// Think-time gap between the previous query finishing and this query
    /// being submitted.
    pub gap_before_secs: f64,
}

/// Per-query outcome within a session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionQueryOutcome {
    /// Query name.
    pub name: String,
    /// Submission time relative to session start.
    pub submitted_at_secs: f64,
    /// Elapsed time of the query.
    pub elapsed_secs: f64,
    /// Maximum executors allocated while the query ran.
    pub max_executors: usize,
    /// Executor occupancy attributable to the query window.
    pub auc_executor_secs: f64,
}

/// Result of simulating a whole application session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionResult {
    /// Combined executor skyline over the application lifetime.
    pub skyline: Skyline,
    /// Per-query outcomes in submission order.
    pub queries: Vec<SessionQueryOutcome>,
    /// Total elapsed application time.
    pub total_elapsed_secs: f64,
    /// Total executor occupancy of the application.
    pub total_auc_executor_secs: f64,
}

/// An interactive application session on a shared executor pool.
#[derive(Debug, Clone)]
pub struct ApplicationSession {
    cluster: ClusterConfig,
    idle_timeout_secs: f64,
    run_config: RunConfig,
}

impl ApplicationSession {
    /// Creates a session over the given cluster after validating it, the
    /// per-query run configuration and `idle_timeout_secs`, the
    /// reactive-deallocation timeout applied between queries (finite and
    /// non-negative).
    pub fn new(
        cluster: ClusterConfig,
        idle_timeout_secs: f64,
        run_config: RunConfig,
    ) -> Result<Self> {
        cluster.validate()?;
        run_config.validate()?;
        require_finite_nonneg("session", &[("idle timeout", idle_timeout_secs)])?;
        Ok(Self {
            cluster,
            idle_timeout_secs,
            run_config,
        })
    }

    /// Simulates the submissions in order and returns the combined result.
    pub fn run(&self, submissions: &[QuerySubmission]) -> Result<SessionResult> {
        let mut skyline = Skyline::new();
        let mut outcomes = Vec::with_capacity(submissions.len());
        let mut clock = 0.0f64;
        let mut carried_executors = 0usize;
        let mut total_auc = 0.0f64;

        for (idx, submission) in submissions.iter().enumerate() {
            // Idle gap before this query: executors persist until the idle
            // timeout, then the reactive path releases them.
            let gap = submission.gap_before_secs.max(0.0);
            if gap > 0.0 {
                if carried_executors > 0 {
                    let hold = gap.min(self.idle_timeout_secs);
                    skyline.record(clock, carried_executors);
                    total_auc += carried_executors as f64 * hold;
                    if gap > self.idle_timeout_secs {
                        skyline.record(clock + self.idle_timeout_secs, 0);
                        carried_executors = 0;
                    }
                }
                clock += gap;
            }

            let policy = match submission.predicted_executors {
                Some(predicted) => AllocationPolicy::Predictive {
                    initial: carried_executors.max(1),
                    predicted,
                    rule_delay_secs: 1.0,
                    idle_timeout_secs: self.idle_timeout_secs,
                },
                None => AllocationPolicy::dynamic(carried_executors.max(1), 48),
            };
            let simulator = Simulator::new(self.cluster, policy)?;
            let run_cfg = RunConfig {
                seed: self.run_config.seed.wrapping_add(idx as u64),
                ..self.run_config
            };
            let result: QueryRunResult = simulator.run(&submission.name, &submission.dag, &run_cfg);

            // Splice the per-query skyline into the application skyline.
            for &(t, count) in result.skyline.points() {
                skyline.record(clock + t, count);
            }
            skyline.finish(clock + result.elapsed_secs);

            outcomes.push(SessionQueryOutcome {
                name: submission.name.clone(),
                submitted_at_secs: clock,
                elapsed_secs: result.elapsed_secs,
                max_executors: result.max_executors,
                auc_executor_secs: result.auc_executor_secs,
            });
            total_auc += result.auc_executor_secs;
            carried_executors = result.skyline.value_at(result.elapsed_secs);
            clock += result.elapsed_secs;
        }

        // Executors remaining at the end are released by the idle timeout.
        if carried_executors > 0 {
            skyline.record(clock + self.idle_timeout_secs, 0);
            total_auc += carried_executors as f64 * self.idle_timeout_secs;
            clock += self.idle_timeout_secs;
        }
        skyline.finish(clock);

        Ok(SessionResult {
            skyline,
            queries: outcomes,
            total_elapsed_secs: clock,
            total_auc_executor_secs: total_auc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{Stage, Task};

    fn small_dag(tasks: usize, secs: f64) -> StageDag {
        StageDag::new(vec![Stage {
            id: 0,
            tasks: vec![Task::new(secs); tasks],
            parents: vec![],
        }])
        .unwrap()
    }

    fn session() -> ApplicationSession {
        ApplicationSession::new(
            ClusterConfig::paper_default(),
            60.0,
            RunConfig::deterministic(),
        )
        .unwrap()
    }

    #[test]
    fn two_query_session_produces_two_outcomes() {
        let subs = vec![
            QuerySubmission {
                name: "q1".into(),
                dag: small_dag(32, 5.0),
                predicted_executors: Some(22),
                gap_before_secs: 0.0,
            },
            QuerySubmission {
                name: "q2".into(),
                dag: small_dag(48, 5.0),
                predicted_executors: Some(27),
                gap_before_secs: 20.0,
            },
        ];
        let result = session().run(&subs).unwrap();
        assert_eq!(result.queries.len(), 2);
        // Short queries can finish before the final grant wave lands, so the
        // observed maximum may fall slightly short of the request — but it
        // must never exceed it (the request is an upper bound).
        assert!(result.queries[0].max_executors <= 22);
        assert!(result.queries[0].max_executors >= 10);
        assert!(result.queries[1].max_executors <= 27);
        assert!(result.queries[1].max_executors >= 10);
        assert!(result.total_elapsed_secs > result.queries[0].elapsed_secs);
        assert!(result.total_auc_executor_secs > 0.0);
    }

    #[test]
    fn long_gap_releases_executors() {
        let subs = vec![
            QuerySubmission {
                name: "q1".into(),
                dag: small_dag(16, 5.0),
                predicted_executors: Some(10),
                gap_before_secs: 0.0,
            },
            QuerySubmission {
                name: "q2".into(),
                dag: small_dag(16, 5.0),
                predicted_executors: Some(10),
                gap_before_secs: 500.0, // far beyond the 60 s idle timeout
            },
        ];
        let result = session().run(&subs).unwrap();
        // Between queries the skyline must drop to zero at some point.
        let q2_start = result.queries[1].submitted_at_secs;
        let mid_gap = q2_start - 100.0;
        assert_eq!(result.skyline.value_at(mid_gap), 0);
    }

    #[test]
    fn submissions_in_order_have_increasing_submit_times() {
        let subs: Vec<QuerySubmission> = (0..3)
            .map(|i| QuerySubmission {
                name: format!("q{i}"),
                dag: small_dag(8, 2.0),
                predicted_executors: Some(4),
                gap_before_secs: 5.0,
            })
            .collect();
        let result = session().run(&subs).unwrap();
        for pair in result.queries.windows(2) {
            assert!(pair[1].submitted_at_secs > pair[0].submitted_at_secs);
        }
    }

    #[test]
    fn dynamic_fallback_works_without_prediction() {
        let subs = vec![QuerySubmission {
            name: "q".into(),
            dag: small_dag(32, 4.0),
            predicted_executors: None,
            gap_before_secs: 0.0,
        }];
        let result = session().run(&subs).unwrap();
        assert_eq!(result.queries.len(), 1);
        assert!(result.queries[0].max_executors >= 1);
    }
}
