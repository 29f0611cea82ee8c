//! # ae-ppm — price-performance models and configuration selection
//!
//! The heart of the paper's Section 3: a query's run time as a function of
//! its computational resources is represented by a small parametric function
//! (the *Price-Performance Model*, PPM), fitted per query, and then used to
//! select an operating point for a price-performance objective.
//!
//! * [`model`] — the two PPM families: `AE_PL` (power law with a saturation
//!   floor) and `AE_AL` (Amdahl's law), both monotone non-increasing in the
//!   resource count by construction.
//! * [`fit`] — fitting PPM parameters to observed or estimated `(n, t)`
//!   curves (log-space least squares for the power law, `1/n`-space least
//!   squares for Amdahl's law), as described in Section 3.4.
//! * [`curve`] — piecewise-linear performance curves used to interpolate
//!   "Actual" and Sparklens series over all candidate executor counts
//!   (Section 5.3).
//! * [`selection`] — configuration selection: minimum-time, bounded slowdown
//!   `H`, the normalized-slope "elbow point" (Section 5.3), and the
//!   deadline/pricing lookups the serving tier's service levels are built on
//!   (cheapest `n` meeting a deadline, executor-seconds cost of a point).
//! * [`cores`] — the total-cores view `k = n × ec` (Section 3.3) and the
//!   executor-size factorization that minimizes stranded node resources.
//! * [`risk`] — expected-runtime-under-preemption adjustment: selection on
//!   spot-priced capacity prices the risk that larger `n` means more
//!   exposure to revocation.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cores;
pub mod curve;
pub mod fit;
pub mod model;
pub mod risk;
pub mod selection;

pub use cores::{factorize_total_cores, interpolate_by_cores, FactorizationConstraints};
pub use curve::PerfCurve;
pub use fit::{fit_amdahl, fit_power_law, FitError};
pub use model::{ppms_from_flat, AmdahlPpm, PowerLawPpm, Ppm, PpmKind};
pub use risk::PreemptionRisk;
pub use selection::{
    cheapest_config, cost_at, deadline_config, elbow_point, min_time_config, price_for_deadline,
    slowdown_config, SelectionObjective,
};
