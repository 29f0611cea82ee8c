//! Deterministic trace replay: re-drive a captured serving trace
//! through an alternative scheduler/model/pricing configuration —
//! without re-simulation — and diff the outcomes.
//!
//! Replay is a *pure function* of `(trace, policy, scorer)`:
//!
//! * the **scorer** re-decides each completed request from the captured
//!   feature vector (an alternative model, objective, candidate set, or
//!   pricing rule plugs in here);
//! * the chosen executor count is evaluated against the query's
//!   captured **ground-truth actual curve** `t_actual(n)` — no
//!   simulation runs at replay time;
//! * **SLO** flags reuse the captured serving latencies (scoring
//!   latency does not depend on the replayed policy) against the
//!   *policy's* deadline budgets, so tightening budgets reclassifies
//!   misses deterministically;
//! * **revenue** is `Σ price(served) − penalty_ratio · Σ price(missed)`.
//!
//! Admission outcomes (shed/dropped/throttled) are carried over from
//! capture: replay evaluates per-request *decisions*, not queueing
//! dynamics — re-running the arrival process would be re-simulation,
//! exactly what this mode avoids. The determinism gate in `bench_obs`
//! relies on purity: replaying a trace under its own capture
//! configuration must reproduce every captured outcome bit-identically
//! ([`ReplayRun::verify_against_capture`]).

use crate::drift::ResidualTracker;
use crate::trace::{RequestStatus, ServingTrace, TraceQuery, TRACE_LEVELS};
use crate::{escape_json, json_f64};

/// The replay-side configuration: deadline budgets and the revenue
/// penalty model. Build one from the trace for a baseline run, then
/// override fields for the alternative.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayPolicy {
    /// Label used in reports and diffs.
    pub label: String,
    /// Per-level scoring deadline budgets (ns), indexed by
    /// service-level index.
    pub deadline_budgets_ns: [u64; TRACE_LEVELS],
    /// Revenue penalty per deadline miss, as a fraction of the missed
    /// request's price.
    pub miss_penalty_ratio: f64,
}

impl ReplayPolicy {
    /// The baseline policy: the trace's own budgets and a 25% miss
    /// penalty.
    pub fn baseline(trace: &ServingTrace) -> Self {
        Self {
            label: "baseline".to_string(),
            deadline_budgets_ns: trace.meta.deadline_budgets_ns,
            miss_penalty_ratio: 0.25,
        }
    }

    /// Renames the policy.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Overrides the deadline budgets.
    pub fn with_budgets_ns(mut self, budgets: [u64; TRACE_LEVELS]) -> Self {
        self.deadline_budgets_ns = budgets;
        self
    }
}

/// A scorer's decision for one replayed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayScore {
    /// Chosen executor count.
    pub executors: u32,
    /// Predicted runtime at that count, seconds.
    pub predicted_secs: f64,
    /// Quoted price.
    pub price: f64,
}

/// One replayed request's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOutcome {
    /// The captured record's sequence number.
    pub seq: u64,
    /// Carried-over admission status.
    pub status: RequestStatus,
    /// Requested service-level index.
    pub level: u8,
    /// Chosen executor count (0 when not completed or the scorer
    /// declined).
    pub executors: u32,
    /// Predicted runtime at `executors`, seconds.
    pub predicted_secs: f64,
    /// Quoted price.
    pub price: f64,
    /// Ground-truth runtime at `executors` from the captured curve
    /// (0.0 when the request did not complete or the count is off the
    /// curve — no ground truth).
    pub actual_secs: f64,
    /// Deadline miss under the replay policy's budgets.
    pub missed: bool,
}

/// Per-service-level SLO accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelSlo {
    /// Completed requests at this level.
    pub completed: u64,
    /// Completed requests past the policy's budget.
    pub misses: u64,
}

impl LevelSlo {
    /// Miss rate over completions (0.0 when idle).
    pub fn miss_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.misses as f64 / self.completed as f64
        }
    }
}

/// Aggregate SLO + accuracy + revenue report of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The policy label.
    pub label: String,
    /// Total records replayed.
    pub requests: u64,
    /// Completed requests.
    pub completed: u64,
    /// Carried-over sheds.
    pub shed: u64,
    /// Carried-over drops.
    pub dropped: u64,
    /// Carried-over throttles.
    pub throttled: u64,
    /// Carried-over scoring errors plus scorer declines at replay time.
    pub errored: u64,
    /// SLO accounting per service level, indexed by level index.
    pub levels: [LevelSlo; TRACE_LEVELS],
    /// Number of residual samples: completions at an on-curve count with
    /// a finite prediction and a finite, positive actual runtime.
    pub residual_samples: u64,
    /// Mean |predicted − actual| / actual over the residual samples.
    pub mean_abs_residual: f64,
    /// Mean signed residual (positive = over-prediction).
    pub mean_residual_bias: f64,
    /// Worst |relative residual|.
    pub max_abs_residual: f64,
    /// Σ price over completions.
    pub gross_revenue: f64,
    /// Σ penalty over misses.
    pub miss_penalties: f64,
    /// `gross_revenue − miss_penalties`.
    pub net_revenue: f64,
    /// Mean executors over completions.
    pub mean_executors: f64,
}

impl ReplayReport {
    /// Total deadline misses across levels.
    pub fn total_misses(&self) -> u64 {
        self.levels.iter().map(|l| l.misses).sum()
    }

    /// JSON object with the full report.
    pub fn to_json(&self) -> String {
        let levels: Vec<String> = self
            .levels
            .iter()
            .map(|l| {
                format!(
                    "{{\"completed\":{},\"misses\":{},\"miss_rate\":{}}}",
                    l.completed,
                    l.misses,
                    json_f64(l.miss_rate())
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"label\":\"{}\",\"requests\":{},\"completed\":{},\"shed\":{},",
                "\"dropped\":{},\"throttled\":{},\"errored\":{},\"levels\":[{}],",
                "\"residual_samples\":{},\"mean_abs_residual\":{},",
                "\"mean_residual_bias\":{},\"max_abs_residual\":{},",
                "\"gross_revenue\":{},\"miss_penalties\":{},\"net_revenue\":{},",
                "\"mean_executors\":{}}}"
            ),
            escape_json(&self.label),
            self.requests,
            self.completed,
            self.shed,
            self.dropped,
            self.throttled,
            self.errored,
            levels.join(","),
            self.residual_samples,
            json_f64(self.mean_abs_residual),
            json_f64(self.mean_residual_bias),
            json_f64(self.max_abs_residual),
            json_f64(self.gross_revenue),
            json_f64(self.miss_penalties),
            json_f64(self.net_revenue),
            json_f64(self.mean_executors),
        )
    }
}

/// A completed replay: per-request outcomes plus the aggregate report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRun {
    /// Per-request outcomes, in capture order.
    pub outcomes: Vec<ReplayOutcome>,
    /// The aggregate report.
    pub report: ReplayReport,
}

impl ReplayRun {
    /// The determinism gate: checks that this run (expected: a replay
    /// under the trace's own capture configuration) reproduced every
    /// captured completed-request outcome bit-identically — executor
    /// counts, predicted-runtime bits, price bits, and miss flags.
    /// Returns human-readable descriptions of every mismatch.
    pub fn verify_against_capture(&self, trace: &ServingTrace) -> Vec<String> {
        let mut mismatches = Vec::new();
        if self.outcomes.len() != trace.records.len() {
            mismatches.push(format!(
                "outcome count {} != record count {}",
                self.outcomes.len(),
                trace.records.len()
            ));
            return mismatches;
        }
        for (outcome, record) in self.outcomes.iter().zip(&trace.records) {
            if record.status != RequestStatus::Completed {
                continue;
            }
            if outcome.executors != record.executors {
                mismatches.push(format!(
                    "seq {}: executors {} != captured {}",
                    record.seq, outcome.executors, record.executors
                ));
            }
            if outcome.predicted_secs.to_bits() != record.predicted_secs.to_bits() {
                mismatches.push(format!(
                    "seq {}: predicted_secs {:e} != captured {:e} (bit mismatch)",
                    record.seq, outcome.predicted_secs, record.predicted_secs
                ));
            }
            if outcome.price.to_bits() != record.price.to_bits() {
                mismatches.push(format!(
                    "seq {}: price {:e} != captured {:e} (bit mismatch)",
                    record.seq, outcome.price, record.price
                ));
            }
            if outcome.missed != record.missed {
                mismatches.push(format!(
                    "seq {}: missed {} != captured {}",
                    record.seq, outcome.missed, record.missed
                ));
            }
        }
        mismatches
    }
}

/// Replays `trace` under `policy`, re-deciding each completed request
/// with `scorer(query_index, query)`. A scorer returning `None` counts
/// the request as errored. Pure: equal inputs give equal outputs.
pub fn replay<F>(trace: &ServingTrace, policy: &ReplayPolicy, mut scorer: F) -> ReplayRun
where
    F: FnMut(usize, &TraceQuery) -> Option<ReplayScore>,
{
    let mut outcomes = Vec::with_capacity(trace.records.len());
    let mut levels = [LevelSlo::default(); TRACE_LEVELS];
    let (mut completed, mut shed, mut dropped, mut throttled, mut errored) = (0u64, 0, 0, 0, 0);
    let residuals = ResidualTracker::new();
    let (mut gross, mut penalties) = (0.0f64, 0.0f64);
    let mut executor_sum = 0u64;

    for record in &trace.records {
        let level_idx = (record.level as usize).min(TRACE_LEVELS - 1);
        let mut outcome = ReplayOutcome {
            seq: record.seq,
            status: record.status,
            level: record.level,
            executors: 0,
            predicted_secs: 0.0,
            price: 0.0,
            actual_secs: 0.0,
            missed: false,
        };
        match record.status {
            RequestStatus::Shed => shed += 1,
            RequestStatus::Dropped => dropped += 1,
            RequestStatus::Throttled => throttled += 1,
            RequestStatus::Errored => errored += 1,
            RequestStatus::Completed => {
                let query = &trace.queries[record.query as usize];
                match scorer(record.query as usize, query) {
                    None => {
                        outcome.status = RequestStatus::Errored;
                        errored += 1;
                    }
                    Some(score) => {
                        completed += 1;
                        executor_sum += score.executors as u64;
                        outcome.executors = score.executors;
                        outcome.predicted_secs = score.predicted_secs;
                        outcome.price = score.price;
                        outcome.missed =
                            record.observed_latency_ns > policy.deadline_budgets_ns[level_idx];
                        levels[level_idx].completed += 1;
                        if outcome.missed {
                            levels[level_idx].misses += 1;
                            penalties += policy.miss_penalty_ratio * score.price;
                        }
                        gross += score.price;
                        if let Some(actual) = query.actual_secs(score.executors) {
                            outcome.actual_secs = actual;
                            residuals.record(score.predicted_secs, actual);
                        }
                    }
                }
            }
        }
        outcomes.push(outcome);
    }

    let residuals = residuals.signal();
    let report = ReplayReport {
        label: policy.label.clone(),
        requests: trace.records.len() as u64,
        completed,
        shed,
        dropped,
        throttled,
        errored,
        levels,
        residual_samples: residuals.samples,
        mean_abs_residual: residuals.mean_abs_rel,
        mean_residual_bias: residuals.mean_rel_bias,
        max_abs_residual: residuals.max_abs_rel,
        gross_revenue: gross,
        miss_penalties: penalties,
        net_revenue: gross - penalties,
        mean_executors: if completed == 0 {
            0.0
        } else {
            executor_sum as f64 / completed as f64
        },
    };
    ReplayRun { outcomes, report }
}

/// The deltas between two replay reports of the same trace (`candidate`
/// − `baseline`): the one-look answer to "what would this alternative
/// configuration have done to SLOs, accuracy, and revenue".
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayDiff {
    /// Baseline policy label.
    pub baseline: String,
    /// Candidate policy label.
    pub candidate: String,
    /// Per-level miss-rate deltas (candidate − baseline).
    pub miss_rate_delta: [f64; TRACE_LEVELS],
    /// Total-miss delta.
    pub misses_delta: i64,
    /// Mean-|residual| delta (accuracy; negative = candidate more
    /// accurate).
    pub mean_abs_residual_delta: f64,
    /// Mean-executors delta (resource footprint).
    pub mean_executors_delta: f64,
    /// Gross-revenue delta.
    pub gross_revenue_delta: f64,
    /// Net-revenue delta.
    pub net_revenue_delta: f64,
    /// Net-revenue delta as a fraction of the baseline's |net revenue|
    /// (0.0 when the baseline is 0).
    pub net_revenue_delta_frac: f64,
}

impl ReplayDiff {
    /// Computes `candidate − baseline`.
    pub fn between(baseline: &ReplayReport, candidate: &ReplayReport) -> Self {
        let miss_rate_delta = std::array::from_fn(|i| {
            candidate.levels[i].miss_rate() - baseline.levels[i].miss_rate()
        });
        let net_delta = candidate.net_revenue - baseline.net_revenue;
        Self {
            baseline: baseline.label.clone(),
            candidate: candidate.label.clone(),
            miss_rate_delta,
            misses_delta: candidate.total_misses() as i64 - baseline.total_misses() as i64,
            mean_abs_residual_delta: candidate.mean_abs_residual - baseline.mean_abs_residual,
            mean_executors_delta: candidate.mean_executors - baseline.mean_executors,
            gross_revenue_delta: candidate.gross_revenue - baseline.gross_revenue,
            net_revenue_delta: net_delta,
            net_revenue_delta_frac: if baseline.net_revenue.abs() > 0.0 {
                net_delta / baseline.net_revenue.abs()
            } else {
                0.0
            },
        }
    }

    /// JSON object with every delta.
    pub fn to_json(&self) -> String {
        let rates: Vec<String> = self.miss_rate_delta.iter().map(|&d| json_f64(d)).collect();
        format!(
            concat!(
                "{{\"baseline\":\"{}\",\"candidate\":\"{}\",\"miss_rate_delta\":[{}],",
                "\"misses_delta\":{},\"mean_abs_residual_delta\":{},",
                "\"mean_executors_delta\":{},\"gross_revenue_delta\":{},",
                "\"net_revenue_delta\":{},\"net_revenue_delta_frac\":{}}}"
            ),
            escape_json(&self.baseline),
            escape_json(&self.candidate),
            rates.join(","),
            self.misses_delta,
            json_f64(self.mean_abs_residual_delta),
            json_f64(self.mean_executors_delta),
            json_f64(self.gross_revenue_delta),
            json_f64(self.net_revenue_delta),
            json_f64(self.net_revenue_delta_frac),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{feature_digest, TraceMeta, TraceQuery, TraceRecord};

    fn two_query_trace() -> ServingTrace {
        let mk_query = |name: &str, base: f64| {
            let features = vec![base, base * 2.0];
            TraceQuery {
                digest: feature_digest(&features),
                name: name.into(),
                features,
                actual_curve: vec![(1, base), (2, base / 1.9), (4, base / 3.4)],
            }
        };
        let mk_record =
            |seq: u64, query: u32, level: u8, latency: u64, status: RequestStatus| TraceRecord {
                seq,
                arrival_ns: seq * 1_000,
                query,
                level,
                tenant: 0,
                status,
                executors: if status == RequestStatus::Completed {
                    2
                } else {
                    0
                },
                predicted_secs: 10.0,
                price: 8.0,
                observed_latency_ns: latency,
                missed: latency > [250_000_000u64, 50_000_000, 10_000_000][level as usize],
                degraded: false,
                demoted: false,
            };
        ServingTrace {
            meta: TraceMeta {
                family: "synthetic".into(),
                model: "m".into(),
                objective: "elbow".into(),
                seed: 7,
                candidate_counts: vec![1, 2, 4],
                deadline_budgets_ns: [250_000_000, 50_000_000, 10_000_000],
                slowdown_targets: [f64::INFINITY, 1.15, 1.05],
                unit_price: 1.0,
            },
            queries: vec![mk_query("qa", 20.0), mk_query("qb", 60.0)],
            records: vec![
                mk_record(0, 0, 2, 5_000_000, RequestStatus::Completed),
                mk_record(1, 1, 2, 60_000_000, RequestStatus::Completed), // miss at 10ms budget
                mk_record(2, 0, 0, 1_000_000, RequestStatus::Completed),
                mk_record(3, 1, 1, 0, RequestStatus::Shed),
                mk_record(4, 0, 1, 0, RequestStatus::Throttled),
            ],
        }
    }

    /// The "capture scorer": returns exactly what the trace recorded, as
    /// a baseline replay would.
    fn capture_scorer(
        trace: &ServingTrace,
    ) -> impl FnMut(usize, &TraceQuery) -> Option<ReplayScore> + '_ {
        let mut next = trace
            .records
            .iter()
            .filter(|r| r.status == RequestStatus::Completed)
            .map(|r| ReplayScore {
                executors: r.executors,
                predicted_secs: r.predicted_secs,
                price: r.price,
            })
            .collect::<Vec<_>>()
            .into_iter();
        move |_, _| next.next()
    }

    #[test]
    fn baseline_replay_reproduces_capture() {
        let trace = two_query_trace();
        let policy = ReplayPolicy::baseline(&trace);
        let run = replay(&trace, &policy, capture_scorer(&trace));
        assert!(run.verify_against_capture(&trace).is_empty());
        assert_eq!(run.report.requests, 5);
        assert_eq!(run.report.completed, 3);
        assert_eq!(run.report.shed, 1);
        assert_eq!(run.report.throttled, 1);
        assert_eq!(run.report.total_misses(), 1);
        assert_eq!(run.report.levels[2].completed, 2);
        assert_eq!(run.report.levels[2].misses, 1);
        // Revenue: 3 × 8.0 gross, one miss at 25% of 8.0 penalty.
        assert!((run.report.gross_revenue - 24.0).abs() < 1e-12);
        assert!((run.report.net_revenue - 22.0).abs() < 1e-12);
        // Residuals: predicted 10.0 vs actual at n=2.
        assert_eq!(run.report.residual_samples, 3);
        assert!(run.report.mean_abs_residual > 0.0);
        // Purity: replaying again gives the identical run.
        assert_eq!(run, replay(&trace, &policy, capture_scorer(&trace)));
    }

    #[test]
    fn verify_catches_every_field() {
        let trace = two_query_trace();
        let policy = ReplayPolicy::baseline(&trace);
        let mut run = replay(&trace, &policy, capture_scorer(&trace));
        run.outcomes[0].executors += 1;
        run.outcomes[1].predicted_secs += 1e-9;
        run.outcomes[2].missed = !run.outcomes[2].missed;
        let mismatches = run.verify_against_capture(&trace);
        assert_eq!(mismatches.len(), 3, "{mismatches:?}");
    }

    #[test]
    fn alternative_policy_shifts_slo_and_revenue() {
        let trace = two_query_trace();
        let baseline = replay(
            &trace,
            &ReplayPolicy::baseline(&trace),
            capture_scorer(&trace),
        );
        // Tighten every budget to 2 ms: more misses, more penalties.
        let strict_policy = ReplayPolicy::baseline(&trace)
            .with_label("strict")
            .with_budgets_ns([2_000_000; TRACE_LEVELS]);
        let strict = replay(&trace, &strict_policy, capture_scorer(&trace));
        assert!(strict.report.total_misses() > baseline.report.total_misses());
        assert!(strict.report.net_revenue < baseline.report.net_revenue);

        let diff = ReplayDiff::between(&baseline.report, &strict.report);
        assert_eq!(diff.baseline, "baseline");
        assert_eq!(diff.candidate, "strict");
        assert!(diff.misses_delta > 0);
        assert!(diff.net_revenue_delta < 0.0);
        assert!(diff.net_revenue_delta_frac < 0.0);
        assert!(diff.miss_rate_delta[2] > 0.0);
        let json = diff.to_json();
        assert!(json.contains("\"candidate\":\"strict\""));
        assert!(json.contains("misses_delta"));
    }

    #[test]
    fn alternative_scorer_changes_accuracy_and_footprint() {
        let trace = two_query_trace();
        let baseline = replay(
            &trace,
            &ReplayPolicy::baseline(&trace),
            capture_scorer(&trace),
        );
        // An "oracle" scorer that picks n = 4 and predicts the actual
        // runtime perfectly: residuals collapse to zero.
        let oracle_policy = ReplayPolicy::baseline(&trace).with_label("oracle");
        let oracle = replay(&trace, &oracle_policy, |_, q| {
            let actual = q.actual_secs(4)?;
            Some(ReplayScore {
                executors: 4,
                predicted_secs: actual,
                price: 4.0,
            })
        });
        assert_eq!(oracle.report.mean_abs_residual, 0.0);
        assert_eq!(oracle.report.mean_executors, 4.0);
        let diff = ReplayDiff::between(&baseline.report, &oracle.report);
        assert!(diff.mean_abs_residual_delta < 0.0);
        assert!(diff.mean_executors_delta > 0.0);
    }

    #[test]
    fn declining_scorer_counts_as_errored() {
        let trace = two_query_trace();
        let run = replay(&trace, &ReplayPolicy::baseline(&trace), |_, _| None);
        assert_eq!(run.report.completed, 0);
        assert_eq!(run.report.errored, 3);
        assert_eq!(run.outcomes[0].status, RequestStatus::Errored);
        assert_eq!(run.report.net_revenue, 0.0);
    }

    #[test]
    fn report_json_renders() {
        let trace = two_query_trace();
        let run = replay(
            &trace,
            &ReplayPolicy::baseline(&trace),
            capture_scorer(&trace),
        );
        let json = run.report.to_json();
        assert!(json.contains("\"label\":\"baseline\""));
        assert!(json.contains("\"requests\":5"));
        assert!(json.contains("\"levels\":["));
    }
}
