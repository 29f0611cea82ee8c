//! The shared template vocabulary of every workload family.
//!
//! A [`QueryTemplate`] is a compact description of one decision-support
//! query: how many inputs it scans, its operator mix, how much work it does
//! per gigabyte of input, how wide its scan and shuffle stages are, and how
//! much of its work is inherently serial. Families
//! ([`crate::family::QueryFamily`]) differ only in *which* templates they
//! produce — the TPC-DS-like suite draws deep aggregation-heavy mixes, the
//! TPC-H-like suite draws shallow scan/join-heavy ones, the skew-adversarial
//! suite draws heavy-tailed sizes and stragglers — while the materialisation
//! into plans and DAGs ([`crate::generator`]) is family-agnostic.
//!
//! Every family's concrete values are drawn once from a seeded generator
//! keyed by the query name (plus a family salt), so `q23` always has the
//! same shape, across processes and runs — the synthetic analogue of a
//! fixed benchmark suite.

use serde::{Deserialize, Serialize};

/// Benchmark scale factor (the paper evaluates TPC-DS at 10 and 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScaleFactor(pub u32);

impl ScaleFactor {
    /// Scale factor 10.
    pub const SF10: ScaleFactor = ScaleFactor(10);
    /// Scale factor 100.
    pub const SF100: ScaleFactor = ScaleFactor(100);

    /// Multiplier relative to SF=1.
    pub fn multiplier(&self) -> f64 {
        self.0 as f64
    }
}

impl std::fmt::Display for ScaleFactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SF={}", self.0)
    }
}

/// Compact description of one query template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryTemplate {
    /// Query name, e.g. `"q94"`, `"h6"`, or `"sk17"`.
    pub name: String,
    /// Number of input data sources (fact/dimension tables scanned).
    pub num_inputs: usize,
    /// Gigabytes read per input source at SF=1.
    pub input_gb_per_sf: Vec<f64>,
    /// Rows per gigabyte of input (drives the rows-processed estimate).
    pub rows_per_gb: f64,
    /// CPU-seconds of task work per gigabyte of input scanned.
    pub work_secs_per_gb: f64,
    /// Fraction of total work that is inherently serial (narrow tail stages).
    pub serial_fraction: f64,
    /// Number of shuffle stages after the scans (joins + aggregations).
    pub num_shuffle_stages: usize,
    /// Skew factor: ≥1, how much longer the slowest task of a stage is than
    /// the average task.
    pub skew: f64,
    /// Operator-mix counts used to synthesise the logical plan.
    pub num_joins: usize,
    /// Aggregate operators in the plan.
    pub num_aggregates: usize,
    /// Filter operators in the plan.
    pub num_filters: usize,
    /// Project operators in the plan.
    pub num_projects: usize,
    /// Sort operators in the plan.
    pub num_sorts: usize,
    /// Union operators in the plan.
    pub num_unions: usize,
    /// Window operators in the plan.
    pub num_windows: usize,
    /// Subquery operators in the plan.
    pub num_subqueries: usize,
}

impl QueryTemplate {
    /// Total gigabytes read at the given size multiplier relative to SF=1.
    ///
    /// Families with non-linear scale-factor semantics pass their own
    /// multiplier here (see
    /// [`crate::family::QueryFamily::scale_multiplier`]).
    pub fn total_input_gb_at(&self, multiplier: f64) -> f64 {
        self.input_gb_per_sf.iter().sum::<f64>() * multiplier
    }

    /// Total task work in core-seconds at the given size multiplier.
    ///
    /// Work grows slightly sub-linearly with data size (larger scans amortise
    /// per-task overheads), which keeps SF=10 queries from being trivially
    /// 10× cheaper than SF=100 ones.
    pub fn total_work_secs_at(&self, multiplier: f64) -> f64 {
        let gb = self.total_input_gb_at(multiplier);
        self.work_secs_per_gb * gb.powf(0.92)
    }

    /// Total task work in core-seconds at the given scale factor (linear
    /// semantics).
    pub fn total_work_secs(&self, sf: ScaleFactor) -> f64 {
        self.total_work_secs_at(sf.multiplier())
    }
}

/// Stable 64-bit seed derived from a query name (FNV-1a).
///
/// New families should hash a family-prefixed name (e.g. `"tpch/h1"`) so
/// name collisions across families draw distinct shapes. The one exception
/// is the TPC-DS-like family, which hashes the bare name: that is the
/// historical stream, and salting it would break the suite's pinned
/// bit-identity with the pre-registry generator.
pub(crate) fn seed_from_name(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_scales_with_scale_factor() {
        let t = crate::families::tpcds::template_for("q42").expect("canonical name");
        let w10 = t.total_work_secs(ScaleFactor::SF10);
        let w100 = t.total_work_secs(ScaleFactor::SF100);
        assert!(w100 > w10 * 4.0, "w10={w10} w100={w100}");
        assert!(w100 < w10 * 12.0, "sub-linear scaling expected");
    }

    #[test]
    fn explicit_multiplier_matches_scale_factor_path() {
        let t = crate::families::tpcds::template_for("q7").expect("canonical name");
        assert_eq!(
            t.total_work_secs(ScaleFactor::SF100).to_bits(),
            t.total_work_secs_at(100.0).to_bits()
        );
    }

    #[test]
    fn scale_factor_display() {
        assert_eq!(ScaleFactor::SF100.to_string(), "SF=100");
        assert_eq!(ScaleFactor(37).multiplier(), 37.0);
    }
}
