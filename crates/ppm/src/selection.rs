//! Configuration selection on top of a predicted or measured PPM curve.
//!
//! Section 5.3 evaluates two selection scenarios plus the default strategy
//! of the AutoExecutor rule:
//!
//! * **Bounded slowdown** — pick the smallest `n` whose run time is within a
//!   factor `H` of the minimum achievable time (`H = 1` is
//!   "fastest-with-fewest-executors").
//! * **Elbow point** — normalize both axes to `[0, 1]` and pick the smallest
//!   `n` at which the curve's slope crosses unit slope, balancing the rate
//!   of time decrease against the rate of resource increase (Equations 7–9).
//!
//! The serving tier's tiered service levels (PixelsDB-style SLAs) add a
//! third family of lookups on the same curve: **deadline selection**
//! ([`deadline_config`] — the smallest `n` meeting a run-time deadline)
//! and **pricing** ([`cost_at`], [`cheapest_config`],
//! [`price_for_deadline`] — the executor-seconds cost of an operating
//! point and the cheapest point honoring a deadline, which is what a
//! price multiplier for a deadline promise is derived from).

use serde::{Deserialize, Serialize};

/// A price-performance selection objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SelectionObjective {
    /// Smallest `n` achieving the minimum time (the paper's `H = 1`).
    MinTime,
    /// Smallest `n` within a slowdown factor `H ≥ 1` of the minimum time.
    BoundedSlowdown(f64),
    /// The normalized-slope elbow point.
    Elbow,
}

impl SelectionObjective {
    /// Applies the objective to a `(n, t)` curve and returns the selected `n`.
    pub fn select(&self, curve: &[(usize, f64)]) -> Option<usize> {
        match *self {
            SelectionObjective::MinTime => min_time_config(curve),
            SelectionObjective::BoundedSlowdown(h) => slowdown_config(curve, h),
            SelectionObjective::Elbow => elbow_point(curve),
        }
    }
}

use std::borrow::Cow;

/// True when the curve is already strictly increasing in `n` with finite
/// times — the shape every `predict_curve` / interpolation path produces.
fn is_clean(curve: &[(usize, f64)]) -> bool {
    curve.iter().all(|&(_, t)| t.is_finite()) && curve.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Returns the curve sorted by `n`, deduplicated, with non-finite times
/// dropped. Selection objectives run inside the optimizer rule on every
/// query, so the common already-clean case **borrows** the input instead of
/// allocating and re-sorting a copy per call; only genuinely unsorted or
/// dirty curves pay for a normalising copy.
fn normalised(curve: &[(usize, f64)]) -> Cow<'_, [(usize, f64)]> {
    if is_clean(curve) {
        return Cow::Borrowed(curve);
    }
    let mut pts: Vec<(usize, f64)> = curve
        .iter()
        .copied()
        .filter(|&(_, t)| t.is_finite())
        .collect();
    pts.sort_by_key(|&(n, _)| n);
    pts.dedup_by_key(|&mut (n, _)| n);
    Cow::Owned(pts)
}

/// Smallest `n` whose time is within the `slowdown_config` tolerance of the
/// minimum time over the curve. This delegates to `slowdown_config(curve,
/// 1.0)`, whose threshold is `t_min · (1 + 1e-9)`: the 1e-9 slack is a
/// *relative* tolerance absorbing floating-point wobble in curves that
/// saturate to a constant floor, not an absolute one.
pub fn min_time_config(curve: &[(usize, f64)]) -> Option<usize> {
    slowdown_config(curve, 1.0)
}

/// Smallest `n` such that `t(n) ≤ H · t_min` where `t_min` is the minimum
/// time over the curve. Returns `None` on an empty curve; `H` below 1 is
/// treated as 1.
pub fn slowdown_config(curve: &[(usize, f64)], h: f64) -> Option<usize> {
    let pts = normalised(curve);
    if pts.is_empty() {
        return None;
    }
    let t_min = pts.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
    let h = h.max(1.0);
    let threshold = t_min * h * (1.0 + 1e-9);
    pts.iter().find(|&&(_, t)| t <= threshold).map(|&(n, _)| n)
}

/// The elbow point: both axes are range-normalized to `[0, 1]` and the elbow
/// is the smallest `n` at which the (descending) slope crosses unit slope —
/// i.e. `slope(u(n)) ≥ 1` and `slope(u(n+1)) ≤ 1` (Equations 7–9).
///
/// Degenerate cases: a flat curve returns the smallest `n`; a curve that is
/// still steep at its last point returns the largest `n`.
pub fn elbow_point(curve: &[(usize, f64)]) -> Option<usize> {
    let pts = normalised(curve);
    if pts.is_empty() {
        return None;
    }
    if pts.len() == 1 {
        return Some(pts[0].0);
    }
    let n_min = pts[0].0 as f64;
    let n_max = pts[pts.len() - 1].0 as f64;
    let t_min = pts.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
    let t_max = pts
        .iter()
        .map(|&(_, t)| t)
        .fold(f64::NEG_INFINITY, f64::max);
    if (n_max - n_min).abs() < 1e-12 || (t_max - t_min).abs() < 1e-12 {
        // Flat curve (or single n): any extra executor is wasted.
        return Some(pts[0].0);
    }
    let u = |n: f64| (n - n_min) / (n_max - n_min);
    let v = |t: f64| (t - t_min) / (t_max - t_min);

    // One pass over the slopes (the normalized drop from one point to the
    // next): the elbow is the first point whose slope in is ≥ 1 and whose
    // slope out is ≤ 1. The first point has no slope in (NaN never
    // compares true).
    let mut slope_in = f64::NAN;
    // Whether some slope fails `s < 1.0` (a NaN slope does).
    let mut steep = false;
    for w in pts.windows(2) {
        let du = u(w[1].0 as f64) - u(w[0].0 as f64);
        let dv = v(w[0].1) - v(w[1].1);
        let slope_out = if du.abs() < 1e-12 { 0.0 } else { dv / du };
        if slope_in >= 1.0 && slope_out <= 1.0 {
            return Some(w[0].0);
        }
        steep |= slope_out >= 1.0 || slope_out.is_nan();
        slope_in = slope_out;
    }
    // The last point's slope out counts as 0, so it is the elbow when its
    // slope in is ≥ 1 — which makes `steep` true. Otherwise there is no
    // crossover: a curve that never reached unit steepness is shallow
    // everywhere → the smallest n; one that did stays steep → the largest.
    if steep {
        Some(pts[pts.len() - 1].0)
    } else {
        Some(pts[0].0)
    }
}

/// Smallest `n` whose predicted run time meets `deadline`
/// (`t(n) ≤ deadline`). Returns `None` on an empty curve or when no point
/// meets the deadline — an *unattainable* promise, which callers must
/// surface rather than silently over-provision.
pub fn deadline_config(curve: &[(usize, f64)], deadline: f64) -> Option<usize> {
    let pts = normalised(curve);
    pts.iter().find(|&&(_, t)| t <= deadline).map(|&(n, _)| n)
}

/// The executor-seconds cost `n · t(n)` of running at the sampled point
/// `n`. Returns `None` when `n` is not a sampled point of the curve (the
/// serving path always asks about points it just evaluated).
pub fn cost_at(curve: &[(usize, f64)], n: usize) -> Option<f64> {
    let pts = normalised(curve);
    pts.iter()
        .find(|&&(m, _)| m == n)
        .map(|&(n, t)| n as f64 * t)
}

/// The cheapest operating point of the curve: the `(n, n · t(n))` pair
/// minimizing executor-seconds. Ties keep the smallest `n`. This is the
/// natural "best effort" price anchor: what the query costs when the only
/// promise is that it finishes.
pub fn cheapest_config(curve: &[(usize, f64)]) -> Option<(usize, f64)> {
    let pts = normalised(curve);
    pts.iter().map(|&(n, t)| (n, n as f64 * t)).fold(
        None,
        |best: Option<(usize, f64)>, (n, cost)| match best {
            Some((_, best_cost)) if best_cost <= cost => best,
            _ => Some((n, cost)),
        },
    )
}

/// Deadline-constrained pricing: the **cheapest** point meeting `deadline`
/// — the `(n, n · t(n))` pair minimizing executor-seconds over all sampled
/// counts with `t(n) ≤ deadline` — i.e. the point a serving tier should
/// buy to honor the deadline. On curves with a superlinear-speedup prefix
/// this can be a larger `n` than [`deadline_config`]'s smallest-feasible
/// choice (faster *and* cheaper). Ties keep the smallest `n`. `None` when
/// the curve is empty or the deadline is unattainable at any sampled
/// count.
pub fn price_for_deadline(curve: &[(usize, f64)], deadline: f64) -> Option<(usize, f64)> {
    let pts = normalised(curve);
    pts.iter()
        .filter(|&&(_, t)| t <= deadline)
        .map(|&(n, t)| (n, n as f64 * t))
        .fold(None, |best: Option<(usize, f64)>, cand| match best {
            Some((_, best_cost)) if best_cost <= cand.1 => best,
            _ => Some(cand),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AmdahlPpm, PowerLawPpm, Ppm};

    fn amdahl_curve() -> Vec<(usize, f64)> {
        let model = Ppm::Amdahl(AmdahlPpm::new(30.0, 470.0));
        model.predict_curve(&(1..=48).collect::<Vec<_>>())
    }

    #[test]
    fn min_time_picks_smallest_n_reaching_minimum() {
        // Saturating power law: times equal the floor beyond the saturation point.
        let model = Ppm::PowerLaw(PowerLawPpm::new(-1.0, 480.0, 20.0));
        let curve = model.predict_curve(&(1..=48).collect::<Vec<_>>());
        let n = min_time_config(&curve).unwrap();
        assert_eq!(n, 24); // 480/n = 20 → n = 24
    }

    #[test]
    fn slowdown_relaxation_reduces_selected_n() {
        let curve = amdahl_curve();
        let strict = slowdown_config(&curve, 1.0).unwrap();
        let relaxed = slowdown_config(&curve, 1.5).unwrap();
        let very_relaxed = slowdown_config(&curve, 2.0).unwrap();
        assert!(relaxed < strict);
        assert!(very_relaxed <= relaxed);
    }

    #[test]
    fn amdahl_without_saturation_selects_max_n_for_h1() {
        // AE_AL keeps decreasing, so H=1 forces the maximum candidate —
        // exactly the behaviour the paper reports for AE_AL in Figure 10b.
        let curve = amdahl_curve();
        assert_eq!(min_time_config(&curve).unwrap(), 48);
    }

    #[test]
    fn elbow_of_amdahl_curve_is_moderate() {
        let curve = amdahl_curve();
        let elbow = elbow_point(&curve).unwrap();
        assert!(
            (4..=12).contains(&elbow),
            "elbow {elbow} should sit in the knee region"
        );
    }

    #[test]
    fn elbow_of_flat_curve_is_smallest_n() {
        let curve: Vec<(usize, f64)> = (1..=48).map(|n| (n, 100.0)).collect();
        assert_eq!(elbow_point(&curve).unwrap(), 1);
    }

    #[test]
    fn elbow_of_linear_curve_is_interior_or_endpoint() {
        // A linearly decreasing curve has slope exactly 1 everywhere in
        // normalized space: the first crossover fires at the second point.
        let curve: Vec<(usize, f64)> = (1..=10).map(|n| (n, 100.0 - n as f64)).collect();
        let elbow = elbow_point(&curve).unwrap();
        assert!(elbow <= 3, "elbow {elbow}");
    }

    #[test]
    fn selection_objective_dispatches() {
        let curve = amdahl_curve();
        assert_eq!(
            SelectionObjective::MinTime.select(&curve),
            min_time_config(&curve)
        );
        assert_eq!(
            SelectionObjective::BoundedSlowdown(1.2).select(&curve),
            slowdown_config(&curve, 1.2)
        );
        assert_eq!(
            SelectionObjective::Elbow.select(&curve),
            elbow_point(&curve)
        );
    }

    /// The elbow rule over a collected list of slopes: the reference for
    /// `elbow_point`'s one-pass loop, on clean curves with ≥ 2 points.
    fn elbow_from_slope_list(pts: &[(usize, f64)]) -> usize {
        let (n_min, n_max) = (pts[0].0 as f64, pts[pts.len() - 1].0 as f64);
        let t_min = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let t_max = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        if (n_max - n_min).abs() < 1e-12 || (t_max - t_min).abs() < 1e-12 {
            return pts[0].0;
        }
        let u = |n: f64| (n - n_min) / (n_max - n_min);
        let v = |t: f64| (t - t_min) / (t_max - t_min);
        let slopes: Vec<f64> = pts
            .windows(2)
            .map(|w| {
                let du = u(w[1].0 as f64) - u(w[0].0 as f64);
                let dv = v(w[0].1) - v(w[1].1);
                if du.abs() < 1e-12 {
                    0.0
                } else {
                    dv / du
                }
            })
            .collect();
        for i in 0..slopes.len() {
            let slope_out = slopes.get(i + 1).copied().unwrap_or(0.0);
            if slopes[i] >= 1.0 && slope_out <= 1.0 {
                return pts[i + 1].0;
            }
        }
        if slopes.iter().all(|&s| s < 1.0) {
            pts[0].0
        } else {
            pts[pts.len() - 1].0
        }
    }

    #[test]
    fn elbow_point_matches_a_collected_slope_list() {
        let power_law = Ppm::PowerLaw(PowerLawPpm::new(-1.0, 480.0, 20.0));
        let mut curves = vec![
            amdahl_curve(),
            power_law.predict_curve(&(1..=48).collect::<Vec<_>>()),
            (1..=10).map(|n| (n, 100.0 - n as f64)).collect(),
            // Steepest at the end: no crossover, the largest n.
            (1..=10).map(|n| (n, 100.0 - (n * n) as f64)).collect(),
            // t_max − t_min overflows, so the first slope is NaN.
            vec![(1, 1e308), (2, 0.0), (3, -1e308)],
        ];
        // Seeded random decreasing curves with a random step per count.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..300 {
            let mut t = 1e3;
            let curve = (1..=48)
                .map(|n| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    t -= (state % 1000) as f64 * 0.01;
                    (n, t)
                })
                .collect();
            curves.push(curve);
        }
        for curve in &curves {
            assert_eq!(
                elbow_point(curve),
                Some(elbow_from_slope_list(curve)),
                "{curve:?}"
            );
        }
    }

    #[test]
    fn empty_curves_return_none() {
        assert_eq!(min_time_config(&[]), None);
        assert_eq!(slowdown_config(&[], 1.5), None);
        assert_eq!(elbow_point(&[]), None);
    }

    #[test]
    fn h_below_one_is_clamped() {
        let curve = amdahl_curve();
        assert_eq!(slowdown_config(&curve, 0.5), slowdown_config(&curve, 1.0));
    }

    #[test]
    fn deadline_config_picks_smallest_n_meeting_the_deadline() {
        let curve = amdahl_curve();
        // Amdahl with s=30, p=470: t(n) = 30 + 470/n, strictly decreasing.
        let n = deadline_config(&curve, 100.0).unwrap();
        assert!(curve.iter().any(|&(m, t)| m == n && t <= 100.0));
        // Every smaller n misses the deadline.
        assert!(curve
            .iter()
            .filter(|&&(m, _)| m < n)
            .all(|&(_, t)| t > 100.0));
        // An unattainable deadline (below the serial fraction) is None.
        assert_eq!(deadline_config(&curve, 10.0), None);
        assert_eq!(deadline_config(&[], 10.0), None);
    }

    #[test]
    fn cost_and_cheapest_point() {
        let curve = vec![(1, 100.0), (2, 60.0), (4, 40.0), (8, 35.0)];
        assert!((cost_at(&curve, 2).unwrap() - 120.0).abs() < 1e-12);
        assert_eq!(cost_at(&curve, 3), None);
        // Costs: 100, 120, 160, 280 — n = 1 is cheapest.
        assert_eq!(cheapest_config(&curve).unwrap(), (1, 100.0));
        // A superlinear-speedup prefix makes a larger n cheapest.
        let curve = vec![(1, 100.0), (2, 40.0), (4, 30.0)];
        assert_eq!(cheapest_config(&curve).unwrap(), (2, 80.0));
        assert_eq!(cheapest_config(&[]), None);
    }

    #[test]
    fn price_for_deadline_picks_the_cheapest_feasible_point() {
        let curve = vec![(1, 100.0), (2, 60.0), (4, 40.0), (8, 35.0)];
        let (n, cost) = price_for_deadline(&curve, 50.0).unwrap();
        assert_eq!(n, 4);
        assert!((cost - 160.0).abs() < 1e-12);
        // Tighter deadlines cost at least as much.
        let (_, tighter) = price_for_deadline(&curve, 35.0).unwrap();
        assert!(tighter >= cost);
        assert_eq!(price_for_deadline(&curve, 1.0), None);
        // A superlinear-speedup prefix: n=2 meets the deadline cheaper AND
        // faster than the smallest feasible n=1 — pricing must not pick n=1.
        let superlinear = vec![(1, 100.0), (2, 40.0)];
        assert_eq!(price_for_deadline(&superlinear, 100.0).unwrap(), (2, 80.0));
        assert_eq!(deadline_config(&superlinear, 100.0), Some(1));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut curve = amdahl_curve();
        curve.reverse();
        assert_eq!(slowdown_config(&curve, 1.1), {
            let sorted = amdahl_curve();
            slowdown_config(&sorted, 1.1)
        });
    }
}
