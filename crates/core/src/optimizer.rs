//! A miniature rule-based query optimizer with prediction-based extensions
//! (Section 4 and Figure 6).
//!
//! Spark's optimizer applies rule-based and cost-based transformations and
//! exposes an extension point (SPARK-18127) that AutoExecutor hooks into.
//! This module provides the equivalent structure:
//!
//! * an [`OptimizerRule`] trait applied in sequence over an
//!   [`OptimizerContext`],
//! * two conventional rewrite rules ([`CollapseProjectsRule`],
//!   [`CombineFiltersRule`]) so the pipeline is a real optimizer and the
//!   AutoExecutor rule genuinely runs *last*,
//! * [`AutoExecutorRule`], which performs the five steps of Figure 6:
//!   (1) model load and cache, (2) plan featurization, (3) PPM parameter
//!   prediction, (4) elbow (or other objective) selection, and (5) the
//!   resource request.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ae_engine::plan::{OperatorKind, PlanNode, QueryPlan};
use ae_ml::portable::PortableModel;
use ae_ppm::model::Ppm;
use ae_ppm::selection::SelectionObjective;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::config::AutoExecutorConfig;
use crate::features::featurize_plan;
use crate::registry::ModelRegistry;
use crate::scoring;
use crate::training::ParameterModel;
use crate::Result;

/// The executor request produced by the AutoExecutor rule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceRequest {
    /// Executor count requested from the cluster manager.
    pub executors: usize,
    /// The predicted PPM behind the request.
    pub predicted_ppm: Ppm,
    /// The predicted run-time curve over the candidate counts.
    pub predicted_curve: Vec<(usize, f64)>,
}

/// Per-step timing of the AutoExecutor rule (the Section 5.6 overheads).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RuleTimings {
    /// Model load + session setup time (zero after the first query thanks to
    /// caching).
    pub model_load: Duration,
    /// Plan featurization time.
    pub featurization: Duration,
    /// Parameter-model inference time.
    pub inference: Duration,
    /// Configuration-selection time.
    pub selection: Duration,
}

impl RuleTimings {
    /// Total time the rule added to query optimization.
    pub fn total(&self) -> Duration {
        self.model_load + self.featurization + self.inference + self.selection
    }
}

/// Mutable state threaded through the optimizer rules.
#[derive(Debug, Clone)]
pub struct OptimizerContext {
    /// The (possibly rewritten) query plan.
    pub plan: QueryPlan,
    /// Resource request, set by the AutoExecutor rule when present.
    pub resource_request: Option<ResourceRequest>,
    /// Timings of the AutoExecutor rule, when it ran.
    pub rule_timings: Option<RuleTimings>,
}

impl OptimizerContext {
    /// Creates a context for a plan.
    pub fn new(plan: QueryPlan) -> Self {
        Self {
            plan,
            resource_request: None,
            rule_timings: None,
        }
    }
}

/// A single optimizer rule.
pub trait OptimizerRule: Send + Sync {
    /// Human-readable rule name.
    fn name(&self) -> &str;
    /// Applies the rule, mutating the context.
    fn apply(&self, ctx: &mut OptimizerContext) -> Result<()>;
}

/// Collapses adjacent `Project` operators (`Project(Project(x)) → Project(x)`).
#[derive(Debug, Default, Clone, Copy)]
pub struct CollapseProjectsRule;

impl OptimizerRule for CollapseProjectsRule {
    fn name(&self) -> &str {
        "CollapseProjects"
    }

    fn apply(&self, ctx: &mut OptimizerContext) -> Result<()> {
        fn rewrite(node: PlanNode) -> PlanNode {
            let mut node = node;
            node.children = node.children.into_iter().map(rewrite).collect();
            if node.kind == OperatorKind::Project
                && node.children.len() == 1
                && node.children[0].kind == OperatorKind::Project
            {
                let mut child = node.children.pop().expect("checked length");
                child.estimated_rows = node.estimated_rows;
                return child;
            }
            node
        }
        let root = std::mem::replace(
            &mut ctx.plan.root,
            PlanNode::leaf(OperatorKind::LocalRelation, 0.0, 0.0),
        );
        ctx.plan.root = rewrite(root);
        Ok(())
    }
}

/// Combines adjacent `Filter` operators (`Filter(Filter(x)) → Filter(x)`).
#[derive(Debug, Default, Clone, Copy)]
pub struct CombineFiltersRule;

impl OptimizerRule for CombineFiltersRule {
    fn name(&self) -> &str {
        "CombineFilters"
    }

    fn apply(&self, ctx: &mut OptimizerContext) -> Result<()> {
        fn rewrite(node: PlanNode) -> PlanNode {
            let mut node = node;
            node.children = node.children.into_iter().map(rewrite).collect();
            if node.kind == OperatorKind::Filter
                && node.children.len() == 1
                && node.children[0].kind == OperatorKind::Filter
            {
                let mut child = node.children.pop().expect("checked length");
                // The combined filter keeps the more selective estimate.
                child.estimated_rows = child.estimated_rows.min(node.estimated_rows);
                return child;
            }
            node
        }
        let root = std::mem::replace(
            &mut ctx.plan.root,
            PlanNode::leaf(OperatorKind::LocalRelation, 0.0, 0.0),
        );
        ctx.plan.root = rewrite(root);
        Ok(())
    }
}

/// The prediction-based rule: loads the parameter model from the registry
/// (decoded once and cached; revalidated by handle identity so a re-registered
/// model is picked up), featurizes the optimized plan, predicts the PPM,
/// selects an executor count for the configured objective, and records the
/// resource request.
pub struct AutoExecutorRule {
    registry: Arc<ModelRegistry>,
    model_name: String,
    objective: SelectionObjective,
    candidate_counts: Vec<usize>,
    /// `(registry handle, decoded model)`: the handle pins which registry
    /// version the decoded model came from, so a re-registration (an
    /// RCU-style `Arc` swap in the registry) is detected by pointer
    /// identity and picked up on the next query — the same protocol the
    /// `ae-serve` runtime uses, keeping the two paths in lock-step.
    cached_model: Mutex<Option<(Arc<PortableModel>, Arc<ParameterModel>)>>,
}

impl std::fmt::Debug for AutoExecutorRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AutoExecutorRule")
            .field("model_name", &self.model_name)
            .field("objective", &self.objective)
            .field("cached", &self.cached_model.lock().is_some())
            .finish()
    }
}

impl AutoExecutorRule {
    /// Creates the rule over a registry and model name.
    pub fn new(
        registry: Arc<ModelRegistry>,
        model_name: impl Into<String>,
        objective: SelectionObjective,
        candidate_counts: Vec<usize>,
    ) -> Self {
        Self {
            registry,
            model_name: model_name.into(),
            objective,
            candidate_counts,
            cached_model: Mutex::new(None),
        }
    }

    /// Creates the rule from an [`AutoExecutorConfig`].
    pub fn from_config(
        registry: Arc<ModelRegistry>,
        model_name: impl Into<String>,
        config: &AutoExecutorConfig,
    ) -> Self {
        Self::new(
            registry,
            model_name,
            config.objective,
            config.candidate_counts(),
        )
    }

    /// Loads (and caches) the decoded parameter model. Every call fetches
    /// the current registry handle (a cheap `Arc` clone under a shard read
    /// lock) and revalidates the cache by pointer identity, so model
    /// re-registration is observed on the next query. The mutex guards only
    /// the cache lookup and the final insert — model deserialization runs
    /// with no lock held, so a cold-start (or model-swap) query cannot
    /// stall concurrent queries that already hold the current model. If
    /// several threads race through the decode path, the first insert wins
    /// and the losers adopt it (double-checked insert).
    fn load_model(&self) -> Result<Arc<ParameterModel>> {
        let portable = self.registry.load(&self.model_name)?;
        {
            let cache = self.cached_model.lock();
            if let Some((handle, model)) = cache.as_ref() {
                if Arc::ptr_eq(handle, &portable) {
                    return Ok(Arc::clone(model));
                }
            }
        }
        let model = Arc::new(ParameterModel::from_portable(&portable)?);
        let mut cache = self.cached_model.lock();
        match cache.as_ref() {
            Some((handle, existing)) if Arc::ptr_eq(handle, &portable) => Ok(Arc::clone(existing)),
            _ => {
                *cache = Some((portable, Arc::clone(&model)));
                Ok(model)
            }
        }
    }
}

impl OptimizerRule for AutoExecutorRule {
    fn name(&self) -> &str {
        "AutoExecutor"
    }

    fn apply(&self, ctx: &mut OptimizerContext) -> Result<()> {
        // Step 1: model load and cache.
        let load_start = Instant::now();
        let model = self.load_model()?;
        let model_load = load_start.elapsed();

        // Step 2: plan featurization.
        let feat_start = Instant::now();
        let features = featurize_plan(&ctx.plan);
        let featurization = feat_start.elapsed();

        // Steps 3–5: prediction, selection, resource request — the shared
        // scoring path, also driven (batched) by the `ae-serve` runtime.
        let scored =
            scoring::score_features(&model, &features, self.objective, &self.candidate_counts)?;
        ctx.resource_request = Some(scored.request);
        ctx.rule_timings = Some(RuleTimings {
            model_load,
            featurization,
            inference: scored.inference,
            selection: scored.selection,
        });
        Ok(())
    }
}

/// The optimizer: an ordered pipeline of rules.
pub struct Optimizer {
    rules: Vec<Box<dyn OptimizerRule>>,
}

impl std::fmt::Debug for Optimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.rules.iter().map(|r| r.name()).collect();
        f.debug_struct("Optimizer").field("rules", &names).finish()
    }
}

impl Optimizer {
    /// Creates an optimizer with the two conventional rewrite rules.
    pub fn with_default_rules() -> Self {
        Self {
            rules: vec![Box::new(CollapseProjectsRule), Box::new(CombineFiltersRule)],
        }
    }

    /// Creates an empty optimizer (no rules).
    pub fn empty() -> Self {
        Self { rules: Vec::new() }
    }

    /// Appends an extension rule at the end of the pipeline. The
    /// AutoExecutor rule is "the last rule invoked once per query"
    /// (Section 5.6), so registering it last mirrors the paper.
    pub fn with_rule(mut self, rule: Box<dyn OptimizerRule>) -> Self {
        self.rules.push(rule);
        self
    }

    /// Runs all rules over the plan and returns the final context.
    pub fn optimize(&self, plan: QueryPlan) -> Result<OptimizerContext> {
        let mut ctx = OptimizerContext::new(plan);
        for rule in &self.rules {
            rule.apply(&mut ctx)?;
        }
        Ok(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::train_from_workload;
    use crate::AutoExecutorError;
    use ae_workload::{ScaleFactor, WorkloadGenerator};

    fn nested_projects_plan() -> QueryPlan {
        let scan = PlanNode::leaf(OperatorKind::TableScan, 1000.0, 1e6);
        let p1 = PlanNode::internal(OperatorKind::Project, 1000.0, vec![scan]);
        let p2 = PlanNode::internal(OperatorKind::Project, 900.0, vec![p1]);
        let f1 = PlanNode::internal(OperatorKind::Filter, 500.0, vec![p2]);
        let f2 = PlanNode::internal(OperatorKind::Filter, 300.0, vec![f1]);
        QueryPlan::new("nested", f2)
    }

    #[test]
    fn rewrite_rules_collapse_adjacent_operators() {
        let optimizer = Optimizer::with_default_rules();
        let ctx = optimizer.optimize(nested_projects_plan()).unwrap();
        let stats = ctx.plan.stats();
        assert_eq!(stats.count_of(OperatorKind::Project), 1);
        assert_eq!(stats.count_of(OperatorKind::Filter), 1);
        assert_eq!(stats.count_of(OperatorKind::TableScan), 1);
        assert!(ctx.resource_request.is_none());
    }

    #[test]
    fn autoexecutor_rule_requests_resources_and_caches_model() {
        let generator = WorkloadGenerator::new(ScaleFactor::SF10);
        let queries: Vec<_> = ["q3", "q19", "q55", "q68", "q79", "q94"]
            .iter()
            .map(|n| generator.instance(n))
            .collect();
        let mut config = AutoExecutorConfig::default();
        config.forest.n_estimators = 10;
        config.training_run.noise_cv = 0.0;
        let (_, model) = train_from_workload(&queries, &config).unwrap();

        let registry = Arc::new(ModelRegistry::in_memory());
        registry
            .register("ppm", model.to_portable("ppm").unwrap())
            .unwrap();
        let rule = AutoExecutorRule::from_config(Arc::clone(&registry), "ppm", &config);
        let optimizer = Optimizer::with_default_rules().with_rule(Box::new(rule));

        let test_plan = generator.instance("q11").plan;
        let ctx = optimizer.optimize(test_plan).unwrap();
        let request = ctx.resource_request.expect("rule sets a request");
        assert!(request.executors >= 1 && request.executors <= 48);
        assert_eq!(request.predicted_curve.len(), 48);
        let timings = ctx.rule_timings.expect("rule records timings");
        assert!(timings.total() > Duration::ZERO);

        // Second query: the model is served from the in-process cache.
        let ctx2 = optimizer.optimize(generator.instance("q27").plan).unwrap();
        let t2 = ctx2.rule_timings.unwrap();
        assert!(t2.model_load <= timings.model_load);
    }

    #[test]
    fn reregistered_model_is_picked_up_by_the_rule() {
        let generator = WorkloadGenerator::new(ScaleFactor::SF10);
        let queries: Vec<_> = ["q3", "q19", "q55", "q68", "q79", "q94"]
            .iter()
            .map(|n| generator.instance(n))
            .collect();
        let mut config = AutoExecutorConfig::default();
        config.forest.n_estimators = 8;
        config.training_run.noise_cv = 0.0;
        let (_, model_a) = train_from_workload(&queries, &config).unwrap();
        let (_, model_b) = train_from_workload(&queries, &config.with_seed(99)).unwrap();

        let registry = Arc::new(ModelRegistry::in_memory());
        registry
            .register("ppm", model_a.to_portable("ppm").unwrap())
            .unwrap();
        let rule = AutoExecutorRule::from_config(Arc::clone(&registry), "ppm", &config);
        let optimizer = Optimizer::empty().with_rule(Box::new(rule));

        let plan = generator.instance("q11").plan;
        let before = optimizer.optimize(plan.clone()).unwrap();

        // An RCU swap in the registry must reach the cached rule too.
        registry
            .register("ppm", model_b.to_portable("ppm").unwrap())
            .unwrap();
        let after = optimizer.optimize(plan).unwrap();
        assert_ne!(
            before.resource_request.unwrap().predicted_ppm.parameters(),
            after.resource_request.unwrap().predicted_ppm.parameters(),
            "a different forest must predict different parameters"
        );
    }

    #[test]
    fn missing_model_surfaces_as_error() {
        let registry = Arc::new(ModelRegistry::in_memory());
        let rule = AutoExecutorRule::new(
            registry,
            "absent",
            SelectionObjective::Elbow,
            (1..=48).collect(),
        );
        let optimizer = Optimizer::empty().with_rule(Box::new(rule));
        let plan = nested_projects_plan();
        assert!(matches!(
            optimizer.optimize(plan),
            Err(AutoExecutorError::ModelNotFound(_))
        ));
    }
}
