//! The 22 synthetic TPC-H-like query templates.
//!
//! TPC-H is the scan/join-heavy counterpoint to TPC-DS: a handful of large
//! fact-like tables (lineitem, orders) joined through shallow, wide plans
//! with one or two aggregations on top, almost no windows or subqueries, and
//! plenty of parallel-friendly work. The family exists so the
//! cross-family generalization harness can ask whether a parameter model
//! trained on deep aggregation-heavy plans transfers to shallow scan-heavy
//! ones (it shares no template with the TPC-DS-like suite and draws from a
//! family-salted seed stream).
//!
//! Qualitative targets: fewer shuffle stages (1–5 vs up to 8), larger
//! per-query input volumes, smaller serial fractions, modest skew — so
//! elbows land a little later than TPC-DS's "mostly 8" but inside the same
//! 1–48 range.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::family::QueryFamily;
use crate::templates::{seed_from_name, QueryTemplate};

/// Number of queries in the TPC-H-like suite.
pub const TPCH_QUERY_COUNT: usize = 22;

/// The TPC-H-like family descriptor: shallow scan/join-heavy plans.
#[derive(Debug, Clone, Copy, Default)]
pub struct TpchFamily;

impl QueryFamily for TpchFamily {
    fn name(&self) -> &str {
        "tpch"
    }

    fn description(&self) -> &str {
        "TPC-H-like: 22 shallow scan/join-heavy queries over large fact tables"
    }

    fn query_names(&self) -> Vec<String> {
        tpch_query_names()
    }

    fn template(&self, query: &str) -> Option<QueryTemplate> {
        template_for(query)
    }
}

/// The canonical 22 query names: h1..h22.
pub fn tpch_query_names() -> Vec<String> {
    (1..=TPCH_QUERY_COUNT).map(|i| format!("h{i}")).collect()
}

/// The template for one canonical query name, `None` for unknown names.
pub fn template_for(name: &str) -> Option<QueryTemplate> {
    is_canonical_name(name).then(|| sample_template(name))
}

fn is_canonical_name(name: &str) -> bool {
    let Some(rest) = name.strip_prefix('h') else {
        return false;
    };
    rest.parse::<u32>()
        .is_ok_and(|n| (1..=TPCH_QUERY_COUNT as u32).contains(&n) && rest == n.to_string())
}

/// One seeded draw per name, on the `tpch/`-salted stream.
fn sample_template(name: &str) -> QueryTemplate {
    let mut rng = StdRng::seed_from_u64(seed_from_name(&format!("tpch/{name}")));

    // One or two big fact tables (lineitem-, orders-like) plus a few small
    // dimensions: scan-dominated inputs, larger than the TPC-DS draws.
    let num_inputs = rng.gen_range(2..=6usize);
    let mut input_gb_per_sf = Vec::with_capacity(num_inputs);
    for i in 0..num_inputs {
        let gb = match i {
            // Primary fact table: 0.3–1.5 GB per SF unit.
            0 => rng.gen_range(0.3..1.5),
            // Secondary fact-like table: 0.08–0.5 GB per SF unit.
            1 => rng.gen_range(0.08..0.5),
            // Dimensions.
            _ => rng.gen_range(0.002..0.08),
        };
        input_gb_per_sf.push(gb);
    }

    // Joins connect the scans; plans stay shallow: one aggregation block,
    // rarely two, and a short shuffle chain.
    let num_joins = rng.gen_range(1..=7usize).min(num_inputs + 2);
    let num_aggregates = rng.gen_range(1..=2usize);
    let num_shuffle_stages = (num_joins / 2 + num_aggregates).clamp(1, 5);
    let num_filters = rng.gen_range(1..=7);
    let num_projects = rng.gen_range(2..=9);
    let num_sorts = rng.gen_range(0..=1);
    let num_unions = 0;
    let num_windows = 0;
    let num_subqueries = rng.gen_range(0..=1);

    // Scan-heavy cost: a lower operator-driven component than TPC-DS (the
    // work is in reading and joining, not in deep aggregation towers).
    let work_secs_per_gb = (8.0
        + 5.0 * num_joins as f64
        + 2.0 * num_aggregates as f64
        + 1.5 * num_sorts as f64
        + 0.3 * num_filters as f64)
        * rng.gen_range(0.85..1.15);
    // Shallow plans end in short tails: little inherently serial work.
    let serial_fraction = (0.015 + 0.015 * num_aggregates as f64 + 0.01 * num_sorts as f64)
        .clamp(0.015, 0.10)
        * rng.gen_range(0.8..1.2);

    QueryTemplate {
        name: name.to_string(),
        num_inputs,
        input_gb_per_sf,
        rows_per_gb: rng.gen_range(4.0e6..3.0e7),
        work_secs_per_gb,
        serial_fraction: serial_fraction.clamp(0.01, 0.12),
        num_shuffle_stages,
        skew: rng.gen_range(1.0..1.8),
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
    use crate::families::tpcds;
    use crate::templates::ScaleFactor;

    #[test]
    fn suite_has_22_unique_queries() {
        let names = tpch_query_names();
        assert_eq!(names.len(), TPCH_QUERY_COUNT);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), TPCH_QUERY_COUNT);
    }

    #[test]
    fn templates_are_deterministic_and_membership_checked() {
        assert_eq!(template_for("h6"), template_for("h6"));
        assert_ne!(template_for("h6"), template_for("h7"));
        for name in ["h0", "h23", "h06", "q1", "sk1", ""] {
            assert!(template_for(name).is_none(), "{name:?} should be unknown");
        }
    }

    #[test]
    fn suite_is_shallower_and_more_scan_heavy_than_tpcds() {
        let tpch = TpchFamily.templates();
        let tpcds = tpcds::tpcds_templates();
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let mean_shuffles =
            |ts: &[QueryTemplate]| mean(ts.iter().map(|t| t.num_shuffle_stages as f64).collect());
        let mean_input =
            |ts: &[QueryTemplate]| mean(ts.iter().map(|t| t.total_input_gb_at(1.0)).collect());
        let mean_serial =
            |ts: &[QueryTemplate]| mean(ts.iter().map(|t| t.serial_fraction).collect());
        assert!(mean_shuffles(&tpch) < mean_shuffles(&tpcds));
        assert!(mean_input(&tpch) > mean_input(&tpcds));
        assert!(mean_serial(&tpch) < mean_serial(&tpcds));
        assert!(tpch.iter().all(|t| t.num_shuffle_stages <= 5));
        assert!(tpch.iter().all(|t| t.num_windows == 0 && t.num_unions == 0));
    }

    #[test]
    fn template_fields_are_in_valid_ranges() {
        for template in TpchFamily.templates() {
            assert!(template.num_inputs >= 2 && template.num_inputs <= 6);
            assert_eq!(template.input_gb_per_sf.len(), template.num_inputs);
            assert!(template.input_gb_per_sf.iter().all(|&gb| gb > 0.0));
            assert!(template.serial_fraction > 0.0 && template.serial_fraction <= 0.12);
            assert!(template.skew >= 1.0 && template.skew < 1.8);
            assert!(template.work_secs_per_gb > 0.0);
            assert!(template.num_joins >= 1);
        }
    }

    #[test]
    fn suite_spans_a_wide_range_of_work() {
        let works: Vec<f64> = TpchFamily
            .templates()
            .iter()
            .map(|t| t.total_work_secs(ScaleFactor::SF100))
            .collect();
        let min = works.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = works.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 4.0, "work range too narrow: {min}..{max}");
    }

    #[test]
    fn family_descriptor_matches_free_functions() {
        let family = TpchFamily;
        assert_eq!(family.name(), "tpch");
        assert_eq!(family.query_names(), tpch_query_names());
        assert_eq!(family.template("h21"), template_for("h21"));
        assert_eq!(family.template("q21"), None);
    }
}
