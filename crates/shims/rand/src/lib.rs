//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this shim provides
//! the (small) subset of the rand 0.8 API the workspace uses, backed by the
//! xoshiro256** generator seeded through SplitMix64. Everything is
//! deterministic given a seed, which is all the reproduction relies on —
//! no claim of statistical equivalence with upstream `StdRng` is made.

#![warn(missing_docs)]
#![deny(unsafe_code)]

/// Low-level generator interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 step; used for seed expansion and stream derivation.
#[inline]
pub fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent stream seed from `(base, index)`.
///
/// Parallel pipelines seed one generator per work unit with
/// `derive_stream_seed(base, unit_index)`, which makes results independent
/// of the order units execute in — the foundation of the workspace's
/// "parallel ≡ sequential, bit for bit" guarantee.
#[inline]
pub fn derive_stream_seed(base: u64, index: u64) -> u64 {
    let mut state = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    // Two mixing rounds decorrelate adjacent indices.
    let first = split_mix64(&mut state);
    let mut state = first ^ base.rotate_left(32);
    split_mix64(&mut state)
}

/// Types that can be sampled uniformly over their whole domain (`rng.gen()`).
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

// A draw is `next_u64() % width` added to the start, the same value as the
// remainder taken in `u128`. The width is taken with wrapping `u64`
// arithmetic, which is exact for signed ranges with a negative start too:
// sign extension moves both ends by the same multiple of 2^64. Every `a..b`
// and every `a..=b` short of the full 2^64 span has a width that fits in
// `u64`; the full span's remainder is the word itself.
macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let width = (self.end as u64).wrapping_sub(self.start as u64);
                let draw = (rng.next_u64() % width) as $t;
                self.start.wrapping_add(draw)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as u64).wrapping_sub(start as u64);
                let draw = match span.checked_add(1) {
                    Some(width) => rng.next_u64() % width,
                    None => rng.next_u64(),
                };
                start.wrapping_add(draw as $t)
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let unit = f64::sample_standard(rng);
        self.start + unit * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "gen_range: empty range");
        let unit = f64::sample_standard(rng);
        start + unit * (end - start)
    }
}

/// High-level sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a uniform value of type `T` (`rng.gen::<f64>()`, etc.).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of [0, 1]");
        f64::sample_standard(self) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Concrete generators.
pub mod rngs {
    use super::{split_mix64, RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (xoshiro256**).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = split_mix64(&mut sm);
            }
            // All-zero state would be a fixed point; SplitMix64 cannot
            // produce four zero outputs in a row, so no check is needed.
            Self { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling and random selection over slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` when empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64_public(), b.next_u64_public());
        }
    }

    impl StdRng {
        fn next_u64_public(&mut self) -> u64 {
            use super::RngCore;
            self.next_u64()
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..10);
            assert!((3..10).contains(&v));
            let w = rng.gen_range(5u64..=6);
            assert!((5..=6).contains(&w));
            let s = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&s));
            let f = rng.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    /// The `u128` formula: `start + word % width` over the inclusive range
    /// `start..=end`, in integers wide enough that nothing wraps.
    fn u128_draw(word: u64, start: i128, end: i128) -> i128 {
        let width = (end - start + 1) as u128;
        start + ((word as u128) % width) as i128
    }

    #[test]
    fn integer_draws_equal_the_u128_formula() {
        let widths: [u128; 9] = [
            1,
            2,
            3,
            1000,
            1 << 32,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX as u128,
            1 << 64,
        ];
        for (seed, &width) in widths.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut words = rng.clone();
            let w = width as i128;
            // Unsigned ranges start at 0, signed ones about half the width
            // below 0 (at `i64::MIN` for the widest).
            let last = (w - 1) as u64;
            let start = (-w / 2 - 1).max(i64::MIN as i128);
            let (lo, hi) = (start as i64, (start + w - 1) as i64);
            assert!(lo < 0, "width {width}: start {lo} is not negative");
            for _ in 0..2000 {
                let word = words.next_u64_public();
                let draw = rng.gen_range(0..=last);
                assert_eq!(draw as i128, u128_draw(word, 0, w - 1), "0..={last}");
                let word = words.next_u64_public();
                let draw = rng.gen_range(lo..=hi);
                assert_eq!(draw as i128, u128_draw(word, start, start + w - 1));
                if let Ok(end) = u64::try_from(width) {
                    let word = words.next_u64_public();
                    let draw = rng.gen_range(0..end);
                    assert_eq!(draw as i128, u128_draw(word, 0, w - 1), "0..{end}");
                    let word = words.next_u64_public();
                    let draw = rng.gen_range(0..end as usize);
                    assert_eq!(draw as i128, u128_draw(word, 0, w - 1));
                }
                if let Ok(end) = i64::try_from(start + w) {
                    let word = words.next_u64_public();
                    let draw = rng.gen_range(lo..end);
                    assert_eq!(draw as i128, u128_draw(word, start, start + w - 1));
                }
                if w <= 1 << 32 {
                    let start = (-w / 2 - 1).max(i32::MIN as i128);
                    let (lo, hi) = (start as i32, (start + w - 1) as i32);
                    let word = words.next_u64_public();
                    let draw = rng.gen_range(lo..=hi);
                    assert_eq!(draw as i128, u128_draw(word, start, start + w - 1));
                    let word = words.next_u64_public();
                    let draw = rng.gen_range(0..=last as u32);
                    assert_eq!(draw as i128, u128_draw(word, 0, w - 1));
                }
            }
            assert_eq!(rng, words, "width {width}: one word per draw");
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
