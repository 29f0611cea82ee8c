//! The shared scoring path of the AutoExecutor rule (Figure 6, steps 3–5).
//!
//! Historically these steps lived inline in
//! [`AutoExecutorRule::apply`](crate::optimizer::AutoExecutorRule); the
//! serving runtime (`ae-serve`) needs the identical arithmetic without the
//! optimizer-rule wrapper, so they are factored out here and both callers
//! funnel through these functions. That sharing is what makes the serving
//! runtime's deterministic-mode guarantee ("bit-identical
//! [`ResourceRequest`]s to the sequential rule") a structural property
//! rather than a test-enforced coincidence.
//!
//! Entry points:
//!
//! * [`score_features`] — one query: predict the PPM, then decide. Returns
//!   the inference and decision timings for the Section 5.6 overhead
//!   accounting.
//! * [`score_features_with_risk`] — the same with a preemption-risk model
//!   applied to the curve before selection; the fault benchmark
//!   (`bench_faults`) measures risk-aware selection through it. Neither
//!   the optimizer rule nor the serving runtime applies a risk model.
//! * [`score_feature_batch`] — a micro-batch of queries laid out in one
//!   [`FeatureMatrix`]: batched forest inference
//!   ([`ParameterModel::predict_ppm_batch`], the compiled kernel
//!   accumulating into one flat output buffer), then each row's PPM
//!   decided straight into its request.
//!
//! [`score_features`] and [`score_feature_batch`] end in one private
//! per-row step, `decide`: evaluate the PPM at the candidate counts, select
//! on that curve, build the [`ResourceRequest`]. So a batched row's request
//! is bit-identical to [`score_features`]' by construction.
//!
//! Every entry point runs inference on the model's
//! [`CompiledForest`](ae_ml::compiled::CompiledForest) — one flat arena of
//! 16-byte tree nodes compiled once per model — whose predictions are
//! bit-identical to the interpreted forest, so the determinism guarantee
//! is unchanged.

use std::time::{Duration, Instant};

use ae_ml::matrix::FeatureMatrix;
use ae_ppm::risk::PreemptionRisk;
use ae_ppm::selection::SelectionObjective;
use ae_ppm::Ppm;

use crate::optimizer::ResourceRequest;
use crate::training::ParameterModel;
use crate::{AutoExecutorError, Result};

/// A scored query plus the per-step latencies of producing it.
#[derive(Debug, Clone)]
pub struct ScoredQuery {
    /// The resource request the optimizer (or serving client) receives.
    pub request: ResourceRequest,
    /// Time spent in parameter-model inference.
    pub inference: Duration,
    /// Time spent in curve evaluation + configuration selection.
    pub selection: Duration,
}

/// Scores one query from its full (Table 2) feature vector.
pub fn score_features(
    model: &ParameterModel,
    full_features: &[f64],
    objective: SelectionObjective,
    candidate_counts: &[usize],
) -> Result<ScoredQuery> {
    score_features_with_risk(model, full_features, objective, candidate_counts, None)
}

/// Like [`score_features`], but with an optional preemption-risk model:
/// the predicted curve is converted to expected runtime under revocation
/// before selection, so larger `n` pays for its exposure. `None` is
/// bit-identical to [`score_features`]. The returned
/// [`ResourceRequest::predicted_curve`] carries the adjusted curve (it is
/// the curve the selection was made on).
pub fn score_features_with_risk(
    model: &ParameterModel,
    full_features: &[f64],
    objective: SelectionObjective,
    candidate_counts: &[usize],
    risk: Option<&PreemptionRisk>,
) -> Result<ScoredQuery> {
    let infer_start = Instant::now();
    let ppm = model.predict_ppm_from_full_features(full_features)?;
    let inference = infer_start.elapsed();

    let select_start = Instant::now();
    let request = match risk {
        Some(risk) if risk.is_active() => {
            let curve = risk.adjust_samples(&ppm.predict_curve(candidate_counts));
            select_on(ppm, objective, curve)
        }
        _ => decide(ppm, objective, candidate_counts),
    }?;
    let selection = select_start.elapsed();

    Ok(ScoredQuery {
        request,
        inference,
        selection,
    })
}

/// Scores a micro-batch of queries whose full feature vectors are laid out
/// row-major in `features`. Output order matches row order.
pub fn score_feature_batch(
    model: &ParameterModel,
    features: &FeatureMatrix,
    objective: SelectionObjective,
    candidate_counts: &[usize],
) -> Result<Vec<ResourceRequest>> {
    model
        .predict_ppm_batch(features)?
        .into_iter()
        .map(|ppm| decide(ppm, objective, candidate_counts))
        .collect()
}

/// The per-row decision step of every entry point: the PPM's curve at the
/// candidate counts, the objective's choice on it, and the request.
fn decide(
    ppm: Ppm,
    objective: SelectionObjective,
    candidate_counts: &[usize],
) -> Result<ResourceRequest> {
    select_on(ppm, objective, ppm.predict_curve(candidate_counts))
}

/// Selects on `curve` and builds the request that carries it.
fn select_on(
    ppm: Ppm,
    objective: SelectionObjective,
    curve: Vec<(usize, f64)>,
) -> Result<ResourceRequest> {
    let executors = objective
        .select(&curve)
        .ok_or_else(|| AutoExecutorError::InvalidModel("empty candidate range".into()))?;
    Ok(ResourceRequest {
        executors,
        predicted_ppm: ppm,
        predicted_curve: curve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AutoExecutorConfig;
    use crate::features::featurize_plan;
    use crate::training::train_from_workload;
    use ae_workload::{ScaleFactor, WorkloadGenerator};

    fn trained_fixture() -> (
        ParameterModel,
        AutoExecutorConfig,
        Vec<ae_engine::QueryPlan>,
    ) {
        let generator = WorkloadGenerator::new(ScaleFactor::SF10);
        let queries: Vec<_> = ["q3", "q19", "q55", "q68", "q79", "q94"]
            .iter()
            .map(|n| generator.instance(n))
            .collect();
        let mut config = AutoExecutorConfig::default();
        config.forest.n_estimators = 10;
        config.training_run.noise_cv = 0.0;
        let (_, model) = train_from_workload(&queries, &config).unwrap();
        let plans = ["q11", "q27", "q42", "q7"]
            .iter()
            .map(|n| generator.instance(n).plan)
            .collect();
        (model, config, plans)
    }

    #[test]
    fn batch_scoring_is_bit_identical_to_single_scoring() {
        let (model, config, plans) = trained_fixture();
        let counts = config.candidate_counts();
        let mut matrix = FeatureMatrix::new(crate::features::full_feature_names().len());
        let mut singles = Vec::new();
        for plan in &plans {
            let features = featurize_plan(plan);
            singles.push(
                score_features(&model, &features, config.objective, &counts)
                    .unwrap()
                    .request,
            );
            matrix.push_row(&features).unwrap();
        }
        let batched = score_feature_batch(&model, &matrix, config.objective, &counts).unwrap();
        assert_eq!(batched.len(), singles.len());
        for (single, batch) in singles.iter().zip(&batched) {
            assert_eq!(single.executors, batch.executors);
            assert_eq!(
                single.predicted_ppm.parameters(),
                batch.predicted_ppm.parameters()
            );
            let single_bits: Vec<(usize, u64)> = single
                .predicted_curve
                .iter()
                .map(|&(n, t)| (n, t.to_bits()))
                .collect();
            let batch_bits: Vec<(usize, u64)> = batch
                .predicted_curve
                .iter()
                .map(|&(n, t)| (n, t.to_bits()))
                .collect();
            assert_eq!(single_bits, batch_bits);
        }
    }

    #[test]
    fn empty_candidate_range_is_an_error() {
        let (model, _, plans) = trained_fixture();
        let features = featurize_plan(&plans[0]);
        assert!(score_features(&model, &features, SelectionObjective::Elbow, &[]).is_err());
        let mut matrix = FeatureMatrix::new(features.len());
        matrix.push_row(&features).unwrap();
        assert!(score_feature_batch(&model, &matrix, SelectionObjective::Elbow, &[]).is_err());
    }

    #[test]
    fn risk_none_is_bit_identical_and_active_risk_shrinks_selection() {
        let (model, config, plans) = trained_fixture();
        let counts = config.candidate_counts();
        let features = featurize_plan(&plans[0]);
        let plain = score_features(&model, &features, config.objective, &counts).unwrap();
        let no_risk =
            score_features_with_risk(&model, &features, config.objective, &counts, None).unwrap();
        assert_eq!(plain.request.executors, no_risk.request.executors);
        let plain_bits: Vec<u64> = plain
            .request
            .predicted_curve
            .iter()
            .map(|&(_, t)| t.to_bits())
            .collect();
        let no_risk_bits: Vec<u64> = no_risk
            .request
            .predicted_curve
            .iter()
            .map(|&(_, t)| t.to_bits())
            .collect();
        assert_eq!(plain_bits, no_risk_bits);

        // A harsh risk model: every extra executor costs a minute of
        // expected recovery per revocation; the selection must not grow.
        let risk = PreemptionRisk::new(0.5, 60.0);
        let risky =
            score_features_with_risk(&model, &features, config.objective, &counts, Some(&risk))
                .unwrap();
        assert!(risky.request.executors <= plain.request.executors);
        // And the adjusted curve is what selection saw: pointwise ≥ plain.
        for (&(n, adj), &(_, base)) in risky
            .request
            .predicted_curve
            .iter()
            .zip(&plain.request.predicted_curve)
        {
            assert!(adj >= base, "E({n})={adj} must dominate t({n})={base}");
        }
    }

    #[test]
    fn empty_batch_yields_empty_results() {
        let (model, config, _) = trained_fixture();
        let matrix = FeatureMatrix::new(crate::features::full_feature_names().len());
        let out = score_feature_batch(
            &model,
            &matrix,
            config.objective,
            &config.candidate_counts(),
        )
        .unwrap();
        assert!(out.is_empty());
    }
}
