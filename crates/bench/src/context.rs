//! Shared, lazily-computed inputs for the experiment harness.
//!
//! Several figures consume the same expensive artifacts: the per-family
//! query suites at SF=10 and SF=100, training data collected from single
//! runs at n=16 plus Sparklens augmentation, and ground-truth ("Actual")
//! run-time curves measured at the evaluation executor counts. The context
//! computes each of these at most once per `(family, scale factor)` pair
//! per process.
//!
//! The paper's figures use the TPC-DS-like family, which the no-argument
//! accessors read; the cross-family generalization experiment asks for
//! other families explicitly.

use std::collections::BTreeMap;

use ae_workload::{BuiltinFamily, QueryInstance, ScaleFactor, WorkloadGenerator};
use autoexecutor::evaluation::ActualRuns;
use autoexecutor::{AutoExecutorConfig, TrainingData};

/// Number of repeated runs used when measuring ground-truth curves.
pub const ACTUAL_RUN_REPEATS: usize = 3;

/// The family the no-argument accessors read: the paper's TPC-DS-like
/// suite.
const DEFAULT_FAMILY: BuiltinFamily = BuiltinFamily::Tpcds;

/// Cache key: one artifact per family per scale factor.
type Key = (BuiltinFamily, u32);

/// Lazily-built shared state for all experiments.
#[derive(Default)]
pub struct ExperimentContext {
    /// Pipeline configuration shared by the experiments (paper defaults).
    pub config: AutoExecutorConfig,
    suites: BTreeMap<Key, Vec<QueryInstance>>,
    training: BTreeMap<Key, TrainingData>,
    actuals: BTreeMap<Key, ActualRuns>,
}

impl ExperimentContext {
    /// Creates an empty context with the paper-default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// The full suite of one family at the given scale factor (cached).
    pub fn suite_for(&mut self, family: BuiltinFamily, sf: ScaleFactor) -> &[QueryInstance] {
        self.suites.entry((family, sf.0)).or_insert_with(|| {
            eprintln!("[context] generating {family} {sf} suite ...");
            WorkloadGenerator::builtin(family, sf).suite()
        })
    }

    /// The default family's suite at the given scale factor (cached).
    pub fn suite(&mut self, sf: ScaleFactor) -> &[QueryInstance] {
        self.suite_for(DEFAULT_FAMILY, sf)
    }

    /// Training data (single n=16 run + Sparklens augmentation + PPM labels)
    /// for one family and scale factor (cached).
    pub fn training_data_for(&mut self, family: BuiltinFamily, sf: ScaleFactor) -> TrainingData {
        if !self.training.contains_key(&(family, sf.0)) {
            let config = self.config;
            let suite = self.suite_for(family, sf).to_vec();
            eprintln!(
                "[context] collecting {family} training data at {sf} ({} queries) ...",
                suite.len()
            );
            let data = TrainingData::collect(&suite, &config).expect("training-data collection");
            self.training.insert((family, sf.0), data);
        }
        self.training[&(family, sf.0)].clone()
    }

    /// The default family's training data (cached).
    pub fn training_data(&mut self, sf: ScaleFactor) -> TrainingData {
        self.training_data_for(DEFAULT_FAMILY, sf)
    }

    /// Ground-truth run-time curves at the training counts for one family
    /// and scale factor (cached). Uses [`ACTUAL_RUN_REPEATS`] repeats with
    /// outlier-filtered means, as in Section 5.1.
    pub fn actuals_for(&mut self, family: BuiltinFamily, sf: ScaleFactor) -> ActualRuns {
        if !self.actuals.contains_key(&(family, sf.0)) {
            let config = self.config;
            let counts = config.training_counts;
            let suite = self.suite_for(family, sf).to_vec();
            eprintln!(
                "[context] measuring {family} ground truth at {sf} ({} queries x {} counts x {} repeats) ...",
                suite.len(),
                counts.len(),
                ACTUAL_RUN_REPEATS
            );
            let actuals = ActualRuns::collect(
                &suite,
                &counts,
                ACTUAL_RUN_REPEATS,
                &config.cluster,
                0xAE_2023,
            )
            .expect("ground-truth collection");
            self.actuals.insert((family, sf.0), actuals);
        }
        self.actuals[&(family, sf.0)].clone()
    }

    /// The default family's ground truth (cached).
    pub fn actuals(&mut self, sf: ScaleFactor) -> ActualRuns {
        self.actuals_for(DEFAULT_FAMILY, sf)
    }

    /// One query instance by name from the default family at a scale factor
    /// (no caching needed).
    pub fn query(&self, name: &str, sf: ScaleFactor) -> QueryInstance {
        WorkloadGenerator::builtin(DEFAULT_FAMILY, sf).instance(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_cached_and_complete() {
        let mut ctx = ExperimentContext::new();
        let len_first = ctx.suite(ScaleFactor::SF10).len();
        let len_second = ctx.suite(ScaleFactor::SF10).len();
        assert_eq!(len_first, 103);
        assert_eq!(len_second, 103);
    }

    #[test]
    fn per_family_suites_are_distinct_cache_entries() {
        let mut ctx = ExperimentContext::new();
        assert_eq!(
            ctx.suite_for(BuiltinFamily::Tpch, ScaleFactor::SF10).len(),
            22
        );
        assert_eq!(
            ctx.suite_for(BuiltinFamily::Skew, ScaleFactor::SF10).len(),
            24
        );
        assert_eq!(
            ctx.suite_for(BuiltinFamily::Tpcds, ScaleFactor::SF10).len(),
            103
        );
        assert!(ctx
            .suite_for(BuiltinFamily::Tpch, ScaleFactor::SF10)
            .iter()
            .all(|q| q.family == "tpch"));
    }

    #[test]
    fn query_lookup_matches_suite_entry() {
        let ctx = ExperimentContext::new();
        let q = ctx.query("q94", ScaleFactor::SF10);
        assert_eq!(q.name, "q94");
        assert_eq!(q.scale_factor, ScaleFactor::SF10);
    }
}
