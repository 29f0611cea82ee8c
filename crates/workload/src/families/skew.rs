//! The skew-adversarial query suite.
//!
//! Where the TPC-DS-like and TPC-H-like families are "benchmark-shaped",
//! this family is deliberately hostile to a parameter model trained on them:
//!
//! * **Heavy-tailed input sizes** — fact-table volumes follow a truncated
//!   Pareto draw, so a few queries scan an order of magnitude more data than
//!   the median one (production telemetry, not benchmark uniformity).
//! * **Straggler stages** — per-stage skew reaches 8× (vs ≤2.5× in TPC-DS),
//!   so stage completion is dominated by a single slow task.
//! * **Extreme elbows** — the suite is bimodal: half the queries are
//!   serial-dominated (elbow at the very bottom of the 1–48 range), the
//!   other half are embarrassingly parallel with tiny serial tails (elbow
//!   pushed toward the top). A model that has only ever seen elbows around 8
//!   must extrapolate to both ends at once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::family::QueryFamily;
use crate::templates::{seed_from_name, QueryTemplate};

/// Number of queries in the skew-adversarial suite.
pub const SKEW_QUERY_COUNT: usize = 24;

/// The skew-adversarial family descriptor.
#[derive(Debug, Clone, Copy, Default)]
pub struct SkewFamily;

impl QueryFamily for SkewFamily {
    fn name(&self) -> &str {
        "skew"
    }

    fn description(&self) -> &str {
        "skew-adversarial: heavy-tailed input sizes, straggler stages, extreme elbows"
    }

    fn query_names(&self) -> Vec<String> {
        skew_query_names()
    }

    fn template(&self, query: &str) -> Option<QueryTemplate> {
        template_for(query)
    }
}

/// The canonical 24 query names: sk1..sk24.
pub fn skew_query_names() -> Vec<String> {
    (1..=SKEW_QUERY_COUNT).map(|i| format!("sk{i}")).collect()
}

/// The template for one canonical query name, `None` for unknown names.
pub fn template_for(name: &str) -> Option<QueryTemplate> {
    is_canonical_name(name).then(|| sample_template(name))
}

fn is_canonical_name(name: &str) -> bool {
    let Some(rest) = name.strip_prefix("sk") else {
        return false;
    };
    rest.parse::<u32>()
        .is_ok_and(|n| (1..=SKEW_QUERY_COUNT as u32).contains(&n) && rest == n.to_string())
}

/// Truncated-Pareto draw in `[scale, cap]` with tail index `alpha`.
fn pareto(rng: &mut StdRng, scale: f64, alpha: f64, cap: f64) -> f64 {
    let u: f64 = rng.gen();
    (scale / (1.0 - u).powf(1.0 / alpha)).min(cap)
}

/// One seeded draw per name, on the `skew/`-salted stream.
fn sample_template(name: &str) -> QueryTemplate {
    let mut rng = StdRng::seed_from_u64(seed_from_name(&format!("skew/{name}")));

    // Half the suite is serial-dominated, half embarrassingly parallel —
    // the draw is seeded, so each query's mode is fixed forever.
    let serial_dominated = rng.gen_bool(0.5);

    // Heavy-tailed inputs: Pareto fact table (up to 4 GB per SF unit, an
    // order of magnitude past the TPC-DS ceiling), skewed dimension sizes.
    let num_inputs = rng.gen_range(1..=5usize);
    let mut input_gb_per_sf = Vec::with_capacity(num_inputs);
    for i in 0..num_inputs {
        let gb = if i == 0 {
            pareto(&mut rng, 0.04, 1.1, 4.0)
        } else {
            pareto(&mut rng, 0.001, 1.3, 0.2)
        };
        input_gb_per_sf.push(gb);
    }

    let num_joins = rng.gen_range(0..=6usize).min(num_inputs + 2);
    let num_aggregates = rng.gen_range(1..=4usize);
    // Serial-dominated queries funnel through long narrow chains; parallel
    // ones keep the chain short so the wide scans dominate.
    let num_shuffle_stages = if serial_dominated {
        (2 + num_joins + num_aggregates).clamp(3, 8)
    } else {
        (num_joins / 2 + 1).clamp(1, 3)
    };
    let num_filters = rng.gen_range(1..=10);
    let num_projects = rng.gen_range(2..=12);
    let num_sorts = rng.gen_range(0..=2);
    let num_unions = rng.gen_range(0..=1);
    let num_windows = rng.gen_range(0..=1);
    let num_subqueries = rng.gen_range(0..=2);

    let work_secs_per_gb = (6.0
        + 4.0 * num_joins as f64
        + 3.0 * num_aggregates as f64
        + 2.0 * num_sorts as f64
        + 0.4 * num_filters as f64)
        * rng.gen_range(0.6..1.6);

    // The bimodal serial fraction is what pushes elbows to the extremes of
    // the 1–48 range: ~0.3–0.45 flattens the curve almost immediately,
    // ~0.005–0.02 keeps it dropping to the top of the range.
    let serial_fraction = if serial_dominated {
        rng.gen_range(0.30..0.45)
    } else {
        rng.gen_range(0.005..0.02)
    };

    QueryTemplate {
        name: name.to_string(),
        num_inputs,
        input_gb_per_sf,
        rows_per_gb: rng.gen_range(1.0e6..4.0e7),
        work_secs_per_gb,
        serial_fraction,
        num_shuffle_stages,
        skew: rng.gen_range(2.0..8.0),
        num_joins,
        num_aggregates,
        num_filters,
        num_projects,
        num_sorts,
        num_unions,
        num_windows,
        num_subqueries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::ScaleFactor;

    #[test]
    fn suite_has_24_unique_queries() {
        let names = skew_query_names();
        assert_eq!(names.len(), SKEW_QUERY_COUNT);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), SKEW_QUERY_COUNT);
    }

    #[test]
    fn templates_are_deterministic_and_membership_checked() {
        assert_eq!(template_for("sk12"), template_for("sk12"));
        assert_ne!(template_for("sk12"), template_for("sk13"));
        for name in ["sk0", "sk25", "sk01", "q12", "h12", "sk", ""] {
            assert!(template_for(name).is_none(), "{name:?} should be unknown");
        }
    }

    #[test]
    fn suite_is_bimodal_in_serial_fraction() {
        let templates = SkewFamily.templates();
        let low = templates
            .iter()
            .filter(|t| t.serial_fraction < 0.05)
            .count();
        let high = templates
            .iter()
            .filter(|t| t.serial_fraction > 0.25)
            .count();
        assert_eq!(
            low + high,
            SKEW_QUERY_COUNT,
            "no mid-range serial fractions"
        );
        // Both modes are well populated (the coin is fair and seeded).
        assert!(low >= SKEW_QUERY_COUNT / 4, "only {low} parallel queries");
        assert!(high >= SKEW_QUERY_COUNT / 4, "only {high} serial queries");
    }

    #[test]
    fn input_sizes_are_heavy_tailed() {
        let volumes: Vec<f64> = SkewFamily
            .templates()
            .iter()
            .map(|t| t.total_input_gb_at(1.0))
            .collect();
        let max = volumes.iter().cloned().fold(0.0, f64::max);
        let mut sorted = volumes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(
            max / median > 8.0,
            "tail not heavy enough: max {max}, median {median}"
        );
    }

    #[test]
    fn stages_have_stragglers() {
        let templates = SkewFamily.templates();
        assert!(templates.iter().all(|t| t.skew >= 2.0));
        assert!(
            templates.iter().any(|t| t.skew > 5.0),
            "no extreme stragglers drawn"
        );
    }

    #[test]
    fn template_fields_are_in_valid_ranges() {
        for template in SkewFamily.templates() {
            assert!(template.num_inputs >= 1 && template.num_inputs <= 5);
            assert_eq!(template.input_gb_per_sf.len(), template.num_inputs);
            assert!(template.input_gb_per_sf.iter().all(|&gb| gb > 0.0));
            assert!(template.serial_fraction > 0.0 && template.serial_fraction < 0.5);
            assert!(template.num_shuffle_stages >= 1 && template.num_shuffle_stages <= 8);
            assert!(template.work_secs_per_gb > 0.0);
            assert!(template.total_work_secs(ScaleFactor::SF10) > 0.0);
        }
    }

    #[test]
    fn family_descriptor_matches_free_functions() {
        let family = SkewFamily;
        assert_eq!(family.name(), "skew");
        assert_eq!(family.query_names(), skew_query_names());
        assert_eq!(family.template("sk7"), template_for("sk7"));
        assert_eq!(family.template("7"), None);
    }
}
