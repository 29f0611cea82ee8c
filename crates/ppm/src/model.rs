//! The two parametric price-performance model families.
//!
//! Both express the run time `t(n)` of a query as a function of its resource
//! allocation `n` (executors, or total cores in the Section 3.3 variant):
//!
//! * **AE_PL** — power law with saturation: `t(n) = max(b·n^a, m)`, with
//!   query-specific parameters `{a, b, m}` (Equation 3). For a sensible
//!   query `a ≤ 0` (more resources never hurt) and `m > 0` is the floor.
//! * **AE_AL** — Amdahl's law: `t(n) = s + p/n`, with parameters `{s, p}`
//!   (Equation 4): a serial component `s` and a perfectly scalable
//!   component `p`.
//!
//! Both are monotone non-increasing in `n` (for `a ≤ 0`, `p ≥ 0`), which the
//! constructors enforce by clamping — the monotonicity condition the paper
//! imposes in Section 3.1.

use serde::{Deserialize, Serialize};

/// Which PPM family a model belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PpmKind {
    /// Power law with saturation (`AE_PL`).
    PowerLaw,
    /// Amdahl's law (`AE_AL`).
    Amdahl,
}

impl PpmKind {
    /// Short label used in reports ("AE_PL" / "AE_AL", as in the paper).
    pub fn label(&self) -> &'static str {
        match self {
            PpmKind::PowerLaw => "AE_PL",
            PpmKind::Amdahl => "AE_AL",
        }
    }

    /// Names of the model's parameters, in the order used by
    /// [`Ppm::parameters`] and the parameter-model targets.
    pub fn parameter_names(&self) -> &'static [&'static str] {
        match self {
            PpmKind::PowerLaw => &["a", "b", "m"],
            PpmKind::Amdahl => &["s", "p"],
        }
    }
}

/// Power-law-with-saturation PPM: `t(n) = max(b·n^a, m)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerLawPpm {
    /// Exponent (≤ 0 for monotone non-increasing curves).
    pub a: f64,
    /// Scale factor (time at `n = 1` before the floor applies).
    pub b: f64,
    /// Saturation floor: the minimum achievable run time.
    pub m: f64,
}

impl PowerLawPpm {
    /// Creates a power-law PPM, clamping parameters so the curve is
    /// monotone non-increasing and non-negative.
    pub fn new(a: f64, b: f64, m: f64) -> Self {
        Self {
            a: a.min(0.0),
            b: b.max(0.0),
            m: m.max(0.0),
        }
    }

    /// Evaluates `t(n)`.
    pub fn predict(&self, n: f64) -> f64 {
        self.scaled(n).max(self.m)
    }

    /// `b·n^a` before the floor applies, with `n` clamped to 1.
    fn scaled(&self, n: f64) -> f64 {
        self.b * n.max(1.0).powf(self.a)
    }

    /// [`predict`](Self::predict) at each count, under the floor rule of
    /// [`Ppm::predict_curve`].
    fn predict_curve(&self, counts: &[usize]) -> Vec<(usize, f64)> {
        let floor_rule = self.a <= 0.0
            && self.b.is_finite()
            && self.b >= 0.0
            && self.m.is_normal()
            && self.m > 0.0;
        let below_floor = self.m * (1.0 - 1e-9);
        // The last count, once an evaluated point has passed the floor.
        let mut past_floor: Option<usize> = None;
        counts
            .iter()
            .map(|&n| {
                if past_floor.is_some_and(|prev| n >= prev) {
                    past_floor = Some(n);
                    return (n, self.m);
                }
                let scaled = self.scaled(n as f64);
                past_floor = (floor_rule && scaled <= below_floor).then_some(n);
                (n, scaled.max(self.m))
            })
            .collect()
    }

    /// The resource count at which the power-law part reaches the floor `m`
    /// (the saturation point), or `None` when the curve never saturates
    /// (e.g. `m = 0` or `a = 0`).
    pub fn saturation_point(&self) -> Option<f64> {
        if self.m <= 0.0 || self.b <= 0.0 || self.a >= 0.0 {
            return None;
        }
        // b·n^a = m  →  n = (m/b)^(1/a)
        let n = (self.m / self.b).powf(1.0 / self.a);
        n.is_finite().then_some(n.max(1.0))
    }
}

/// Amdahl's-law PPM: `t(n) = s + p/n`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmdahlPpm {
    /// Serial (resource-invariant) component.
    pub s: f64,
    /// Scalable component (time at one unit of resource beyond `s`).
    pub p: f64,
}

impl AmdahlPpm {
    /// Creates an Amdahl PPM, clamping both components to be non-negative so
    /// the curve is monotone non-increasing.
    pub fn new(s: f64, p: f64) -> Self {
        Self {
            s: s.max(0.0),
            p: p.max(0.0),
        }
    }

    /// Evaluates `t(n)`.
    pub fn predict(&self, n: f64) -> f64 {
        let n = n.max(1.0);
        self.s + self.p / n
    }
}

/// A fitted PPM of either family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Ppm {
    /// Power law with saturation.
    PowerLaw(PowerLawPpm),
    /// Amdahl's law.
    Amdahl(AmdahlPpm),
}

impl Ppm {
    /// The model family.
    pub fn kind(&self) -> PpmKind {
        match self {
            Ppm::PowerLaw(_) => PpmKind::PowerLaw,
            Ppm::Amdahl(_) => PpmKind::Amdahl,
        }
    }

    /// Evaluates `t(n)` for a resource count `n` (executors or cores).
    pub fn predict(&self, n: f64) -> f64 {
        match self {
            Ppm::PowerLaw(m) => m.predict(n),
            Ppm::Amdahl(m) => m.predict(n),
        }
    }

    /// Evaluates the model at each integer resource count in `counts`.
    /// Every point equals [`predict`](Self::predict) bit for bit.
    ///
    /// A power law with `a ≤ 0`, finite `b ≥ 0` and normal `m > 0` skips
    /// `powf` past its floor. The counts are walked in order; once an
    /// evaluated point's `b·n^a` is at most `m·(1 − 1e-9)`, every later
    /// count not smaller than its predecessor returns `m`, and a smaller
    /// count is evaluated in full and starts the rule afresh. This is
    /// exact: for such parameters the true `b·n^a` never increases with
    /// `n`, and the computed value lies within a few ULPs of the true one
    /// (libm's `pow` errs by less than one ULP and the product rounds
    /// once). A later point's computed value thus exceeds an earlier one's
    /// by far less than the 1e-9 margin (~10^7 ULPs), so it stays below
    /// `m` and `max` returns `m`, as `predict` does. A normal `m` keeps the
    /// margin above the absolute error of subnormal values.
    pub fn predict_curve(&self, counts: &[usize]) -> Vec<(usize, f64)> {
        match self {
            Ppm::PowerLaw(m) => m.predict_curve(counts),
            Ppm::Amdahl(m) => counts.iter().map(|&n| (n, m.predict(n as f64))).collect(),
        }
    }

    /// The parameter vector, ordered as in [`PpmKind::parameter_names`].
    pub fn parameters(&self) -> Vec<f64> {
        match self {
            Ppm::PowerLaw(m) => vec![m.a, m.b, m.m],
            Ppm::Amdahl(m) => vec![m.s, m.p],
        }
    }

    /// Reconstructs a model from a parameter vector produced by a parameter
    /// model (the inverse of [`Ppm::parameters`]). Extra entries are ignored;
    /// missing entries are treated as zero.
    pub fn from_parameters(kind: PpmKind, params: &[f64]) -> Self {
        let get = |i: usize| params.get(i).copied().unwrap_or(0.0);
        match kind {
            PpmKind::PowerLaw => Ppm::PowerLaw(PowerLawPpm::new(get(0), get(1), get(2))),
            PpmKind::Amdahl => Ppm::Amdahl(AmdahlPpm::new(get(0), get(1))),
        }
    }
}

/// Builds one PPM per row from a flat row-major parameter matrix —
/// `params_per_row` values per model, the shape the compiled forest's
/// kernel writes. The batched serving path hands the flat
/// output slice straight here without materialising per-row vectors; each
/// model equals [`Ppm::from_parameters`] on the corresponding chunk.
///
/// A trailing partial chunk (fewer than `params_per_row` values) is
/// ignored, matching `chunks_exact` semantics; `params_per_row == 0`
/// yields no models.
pub fn ppms_from_flat(kind: PpmKind, flat: &[f64], params_per_row: usize) -> Vec<Ppm> {
    if params_per_row == 0 {
        return Vec::new();
    }
    flat.chunks_exact(params_per_row)
        .map(|chunk| Ppm::from_parameters(kind, chunk))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_predicts_and_saturates() {
        let ppm = PowerLawPpm::new(-0.8, 400.0, 60.0);
        assert!((ppm.predict(1.0) - 400.0).abs() < 1e-9);
        assert!(ppm.predict(8.0) < ppm.predict(2.0));
        // Far out the floor applies.
        assert_eq!(ppm.predict(1e6), 60.0);
        let sat = ppm.saturation_point().unwrap();
        assert!((ppm.predict(sat) - 60.0).abs() < 1e-6);
    }

    #[test]
    fn power_law_clamps_positive_exponent() {
        let ppm = PowerLawPpm::new(0.5, 100.0, 10.0);
        assert_eq!(ppm.a, 0.0);
        // Constant curve, never increasing.
        assert_eq!(ppm.predict(1.0), ppm.predict(50.0));
    }

    #[test]
    fn amdahl_predicts_serial_plus_scalable() {
        let ppm = AmdahlPpm::new(30.0, 300.0);
        assert!((ppm.predict(1.0) - 330.0).abs() < 1e-9);
        assert!((ppm.predict(10.0) - 60.0).abs() < 1e-9);
        // Approaches s asymptotically.
        assert!((ppm.predict(1e9) - 30.0).abs() < 1e-3);
    }

    #[test]
    fn amdahl_clamps_negative_components() {
        let ppm = AmdahlPpm::new(-5.0, -10.0);
        assert_eq!(ppm.predict(1.0), 0.0);
        assert_eq!(ppm.predict(100.0), 0.0);
    }

    #[test]
    fn both_models_are_monotone_non_increasing() {
        let models = [
            Ppm::PowerLaw(PowerLawPpm::new(-0.6, 500.0, 40.0)),
            Ppm::Amdahl(AmdahlPpm::new(20.0, 480.0)),
        ];
        for model in models {
            let mut last = f64::INFINITY;
            for n in 1..=64 {
                let t = model.predict(n as f64);
                assert!(t <= last + 1e-12, "{model:?} increased at n={n}");
                last = t;
            }
        }
    }

    #[test]
    fn parameter_roundtrip() {
        let pl = Ppm::PowerLaw(PowerLawPpm::new(-0.7, 321.0, 45.0));
        let back = Ppm::from_parameters(PpmKind::PowerLaw, &pl.parameters());
        assert_eq!(pl, back);
        let al = Ppm::Amdahl(AmdahlPpm::new(12.0, 200.0));
        let back = Ppm::from_parameters(PpmKind::Amdahl, &al.parameters());
        assert_eq!(al, back);
    }

    #[test]
    fn from_parameters_handles_short_vectors() {
        let model = Ppm::from_parameters(PpmKind::PowerLaw, &[-0.5]);
        assert_eq!(model.parameters(), vec![-0.5, 0.0, 0.0]);
    }

    #[test]
    fn predictions_below_n_one_clamp_to_n_one() {
        let ppm = Ppm::Amdahl(AmdahlPpm::new(10.0, 100.0));
        assert_eq!(ppm.predict(0.0), ppm.predict(1.0));
        assert_eq!(ppm.predict(-3.0), ppm.predict(1.0));
    }

    #[test]
    fn flat_parameter_matrix_builds_one_ppm_per_row() {
        let flat = [-0.5, 100.0, 10.0, -0.2, 80.0, 5.0];
        let ppms = ppms_from_flat(PpmKind::PowerLaw, &flat, 3);
        assert_eq!(ppms.len(), 2);
        assert_eq!(ppms[0], Ppm::from_parameters(PpmKind::PowerLaw, &flat[..3]));
        assert_eq!(ppms[1], Ppm::from_parameters(PpmKind::PowerLaw, &flat[3..]));
        // Degenerate shapes: zero-width rows yield nothing, a trailing
        // partial chunk is dropped.
        assert!(ppms_from_flat(PpmKind::Amdahl, &flat, 0).is_empty());
        assert_eq!(ppms_from_flat(PpmKind::Amdahl, &flat[..5], 2).len(), 2);
    }

    /// One SplitMix64 step: the seeded stream of the curve tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    fn unit(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn assert_curve_is_predict(ppm: Ppm, counts: &[usize]) {
        let curve = ppm.predict_curve(counts);
        assert_eq!(curve.len(), counts.len(), "{ppm:?}");
        for (&(n, t), &count) in curve.iter().zip(counts) {
            assert_eq!(n, count, "{ppm:?}");
            assert_eq!(
                t.to_bits(),
                ppm.predict(n as f64).to_bits(),
                "{ppm:?} at n = {n} in {counts:?}"
            );
        }
    }

    #[test]
    fn curve_points_equal_predict_bit_for_bit() {
        let count_lists: [Vec<usize>; 4] = [
            (1..=48).collect(),
            vec![48, 3, 17, 1, 40, 2, 33, 9, 47, 46],
            vec![8, 8, 16, 16, 16, 4, 4, 48, 48, 1, 1],
            vec![0, 1, 0, 2, 48, 0, 5, 0, 0],
        ];
        let subnormal = f64::MIN_POSITIVE / 4.0;
        for a in [-0.0, -1e-300, -1e-12, -3.0] {
            for b in [0.0, 5e-324, 1e-300, 400.0, 1e300, f64::MAX] {
                for m in [subnormal, f64::MIN_POSITIVE, 60.0, 1e300] {
                    for counts in &count_lists {
                        // A literal, not `new`: the parameters stay exact.
                        assert_curve_is_predict(Ppm::PowerLaw(PowerLawPpm { a, b, m }), counts);
                    }
                }
            }
        }

        // Seeded power laws whose floors fall anywhere on the curve, from
        // below n = 1 to beyond n = 48, over ascending and random counts.
        let mut state = 0x00c0_ffee;
        for i in 0..2_000 {
            let a = -3.0 * unit(&mut state);
            let b = 10f64.powf(8.0 * unit(&mut state) - 2.0);
            let m = b * 10f64.powf(-6.0 * unit(&mut state) + 0.5);
            let counts: Vec<usize> = if i % 2 == 0 {
                (1..=48).collect()
            } else {
                let len = (splitmix(&mut state) % 60) as usize;
                (0..len)
                    .map(|_| (splitmix(&mut state) % 100) as usize)
                    .collect()
            };
            assert_curve_is_predict(Ppm::PowerLaw(PowerLawPpm { a, b, m }), &counts);
        }

        for counts in &count_lists {
            assert_curve_is_predict(Ppm::Amdahl(AmdahlPpm::new(30.0, 470.0)), counts);
            assert_curve_is_predict(Ppm::Amdahl(AmdahlPpm::new(0.0, 1e300)), counts);
        }
    }

    #[test]
    fn kind_labels_match_paper_names() {
        assert_eq!(PpmKind::PowerLaw.label(), "AE_PL");
        assert_eq!(PpmKind::Amdahl.label(), "AE_AL");
        assert_eq!(PpmKind::PowerLaw.parameter_names(), &["a", "b", "m"]);
        assert_eq!(PpmKind::Amdahl.parameter_names(), &["s", "p"]);
    }
}
