//! Lock-free histograms over fixed bucket ladders.
//!
//! Two ladder shapes cover every use in the workspace:
//!
//! * [`Ladder::LogLinear`] — an HdrHistogram-style log-linear ladder for
//!   latencies: each power-of-two octave is split into `2^sub_bits`
//!   equal-width sub-buckets, bounding the relative quantization error at
//!   `2^-sub_bits` (≈ 3.1% for the default `sub_bits = 5`) across the
//!   full `u64` range with a few KB of buckets.
//! * [`Ladder::Linear`] — fixed-width buckets with an offset, used for
//!   small-integer distributions such as worker batch sizes where every
//!   value gets its own exact bucket.
//!
//! [`AtomicHistogram`] is a plain array of `AtomicU64` bucket counters
//! plus an exact sum and an exact maximum (`fetch_max`); recording is
//! three relaxed atomic RMWs and never takes a lock. [`ShardedHistogram`]
//! spreads recorders over [`crate::DEFAULT_SHARDS`]
//! copies keyed by a dense per-thread slot so concurrent writers do not
//! contend on cache lines; snapshots merge the shards.
//!
//! **Merge invariant:** a [`HistogramSnapshot`] is a pure function of
//! (bucket counts, sum, max), and merging is element-wise addition plus
//! `max`. Percentiles computed from `N` merged per-thread histograms are
//! therefore *identical* to percentiles from one histogram that saw all
//! samples sequentially — pinned by the concurrency test below.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::{thread_slot, DEFAULT_SHARDS};

/// A fixed bucket ladder: the shared shape of a histogram and all
/// snapshots merged from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ladder {
    /// `buckets` fixed-width buckets: bucket `i` covers values
    /// `[offset + i·width, offset + (i+1)·width)`. Values below `offset`
    /// clamp into bucket 0, values off the top clamp into the last
    /// bucket.
    Linear {
        /// Lowest value of bucket 0.
        offset: u64,
        /// Width of every bucket (≥ 1).
        width: u64,
        /// Number of buckets (≥ 1).
        buckets: usize,
    },
    /// Log-linear ladder over the full `u64` range: values below
    /// `2^sub_bits` get exact unit buckets, and each subsequent octave
    /// `[2^m, 2^{m+1})` is split into `2^sub_bits` equal sub-buckets.
    LogLinear {
        /// Sub-bucket resolution per octave; relative error ≤ `2^-sub_bits`.
        sub_bits: u32,
    },
}

impl Ladder {
    /// The default latency ladder: log-linear with 32 sub-buckets per
    /// octave (≤ 3.125% relative error), covering the entire `u64`
    /// nanosecond range in 1920 buckets (15 KiB of counters).
    pub fn latency() -> Self {
        Ladder::LogLinear { sub_bits: 5 }
    }

    /// A linear ladder with one exact bucket per value in `1..=max`,
    /// matching the serving runtime's batch-size accounting (sizes beyond
    /// `max` clamp into the last bucket).
    pub fn batch_sizes(max: usize) -> Self {
        Ladder::Linear {
            offset: 1,
            width: 1,
            buckets: max.max(1),
        }
    }

    /// Total number of buckets in the ladder.
    pub fn num_buckets(&self) -> usize {
        match *self {
            Ladder::Linear { buckets, .. } => buckets.max(1),
            Ladder::LogLinear { sub_bits } => {
                let sub = sub_bits.min(16);
                // Octave of the MSB ranges over sub..=63; plus the exact
                // linear region [0, 2^sub).
                (((63 - sub) + 1) as usize + 1) << sub
            }
        }
    }

    /// Bucket index of `value` (always in range).
    pub fn index(&self, value: u64) -> usize {
        match *self {
            Ladder::Linear {
                offset,
                width,
                buckets,
            } => {
                let buckets = buckets.max(1);
                if value <= offset {
                    0
                } else {
                    (((value - offset) / width.max(1)) as usize).min(buckets - 1)
                }
            }
            Ladder::LogLinear { sub_bits } => {
                let sub = sub_bits.min(16);
                if value < (1u64 << sub) {
                    value as usize
                } else {
                    let msb = 63 - value.leading_zeros();
                    let shift = msb - sub;
                    let base = ((msb - sub + 1) as usize) << sub;
                    base + ((value >> shift) as usize - (1usize << sub))
                }
            }
        }
    }

    /// Lowest value mapping into bucket `idx`.
    pub fn bucket_low(&self, idx: usize) -> u64 {
        match *self {
            Ladder::Linear { offset, width, .. } => offset + idx as u64 * width.max(1),
            Ladder::LogLinear { sub_bits } => {
                let sub = sub_bits.min(16);
                let m = 1usize << sub;
                if idx < m {
                    idx as u64
                } else {
                    let octave = idx >> sub; // ≥ 1
                    let within = (idx & (m - 1)) as u64;
                    (m as u64 + within) << (octave - 1)
                }
            }
        }
    }

    /// Highest value mapping into bucket `idx` (saturates on the top
    /// bucket).
    pub fn bucket_high(&self, idx: usize) -> u64 {
        if idx + 1 >= self.num_buckets() {
            return u64::MAX;
        }
        self.bucket_low(idx + 1).saturating_sub(1)
    }
}

/// A lock-free histogram: bucket counters plus an exact sum and maximum.
/// Recording is three relaxed atomic read-modify-writes.
#[derive(Debug)]
pub struct AtomicHistogram {
    ladder: Ladder,
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    /// Creates an empty histogram over `ladder`.
    pub fn new(ladder: Ladder) -> Self {
        let counts = (0..ladder.num_buckets())
            .map(|_| AtomicU64::new(0))
            .collect();
        Self {
            ladder,
            counts,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The histogram's ladder.
    pub fn ladder(&self) -> Ladder {
        self.ladder
    }

    /// Records one value.
    ///
    /// Memory ordering: all updates are `Relaxed`. Each atomic is
    /// individually monotonic, so any snapshot is a valid (if possibly
    /// torn across *different* counters) state; no recording is ever
    /// lost or double-counted.
    pub fn record(&self, value: u64) {
        self.counts[self.ladder.index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating past ~584 years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Copies the counters into an immutable, mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            ladder: self.ladder,
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A histogram sharded over per-thread copies so concurrent recorders
/// never contend; [`ShardedHistogram::snapshot`] merges the shards.
#[derive(Debug)]
pub struct ShardedHistogram {
    shards: Box<[AtomicHistogram]>,
}

impl ShardedHistogram {
    /// Creates a histogram with [`DEFAULT_SHARDS`] shards.
    pub fn new(ladder: Ladder) -> Self {
        Self::with_shards(ladder, DEFAULT_SHARDS)
    }

    /// Creates a histogram with an explicit shard count (≥ 1).
    pub fn with_shards(ladder: Ladder, shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| AtomicHistogram::new(ladder))
                .collect(),
        }
    }

    /// The histogram's ladder.
    pub fn ladder(&self) -> Ladder {
        self.shards[0].ladder()
    }

    /// Records one value into the calling thread's shard.
    pub fn record(&self, value: u64) {
        self.shards[thread_slot() % self.shards.len()].record(value);
    }

    /// Records a duration as nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Merged snapshot across all shards.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = self.shards[0].snapshot();
        for shard in &self.shards[1..] {
            merged.merge(&shard.snapshot());
        }
        merged
    }
}

/// An immutable copy of a histogram's counters. Snapshots over the same
/// ladder merge exactly; percentiles are pure functions of the merged
/// counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    ladder: Ladder,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over `ladder`.
    pub fn empty(ladder: Ladder) -> Self {
        Self {
            ladder,
            counts: vec![0; ladder.num_buckets()],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The ladder the counts are bucketed over.
    pub fn ladder(&self) -> Ladder {
        self.ladder
    }

    /// Per-bucket counts.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds another snapshot's counts into this one.
    ///
    /// # Panics
    /// When the ladders differ — merged percentiles would be meaningless.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.ladder, other.ladder,
            "cannot merge histograms over different ladders"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank percentile (`p` in `[0, 1]`), reported as the upper
    /// bound of the bucket holding that rank, clamped to the exact
    /// recorded maximum. Returns 0 when empty. Quantization error is
    /// bounded by the ladder (≤ 3.125% for [`Ladder::latency`]).
    pub fn value_at_percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (idx, &bucket) in self.counts.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return self.ladder.bucket_high(idx).min(self.max);
            }
        }
        self.max
    }

    /// Count/mean/p50/p90/p99/max as [`Duration`]s, interpreting the
    /// recorded values as nanoseconds.
    pub fn latency_stats(&self) -> LatencyStats {
        LatencyStats {
            count: self.count,
            mean: Duration::from_nanos(self.mean() as u64),
            p50: Duration::from_nanos(self.value_at_percentile(0.50)),
            p90: Duration::from_nanos(self.value_at_percentile(0.90)),
            p99: Duration::from_nanos(self.value_at_percentile(0.99)),
            max: Duration::from_nanos(self.max),
        }
    }
}

/// Percentile summary of a latency histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (nearest-rank, bucket-quantized).
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Worst observed latency (exact).
    pub max: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn log_linear_indexing_is_monotone_and_tight() {
        let ladder = Ladder::latency();
        // The exact region: unit buckets.
        for v in 0..64u64 {
            let idx = ladder.index(v);
            assert!(ladder.bucket_low(idx) <= v && v <= ladder.bucket_high(idx));
        }
        // Spot values across octaves: containment and monotonicity.
        let mut last_idx = 0;
        for shift in 0..63u32 {
            let v = 1u64 << shift;
            for probe in [v, v + v / 3, (v << 1).saturating_sub(1)] {
                let idx = ladder.index(probe);
                assert!(idx < ladder.num_buckets());
                assert!(
                    ladder.bucket_low(idx) <= probe && probe <= ladder.bucket_high(idx),
                    "v={probe} idx={idx} low={} high={}",
                    ladder.bucket_low(idx),
                    ladder.bucket_high(idx)
                );
                assert!(idx >= last_idx);
                last_idx = idx;
            }
        }
        assert_eq!(ladder.index(u64::MAX), ladder.num_buckets() - 1);
    }

    #[test]
    fn log_linear_relative_error_is_bounded() {
        let ladder = Ladder::latency();
        for &v in &[100u64, 1_000, 12_345, 1_000_000, 987_654_321, u64::MAX / 3] {
            let idx = ladder.index(v);
            let (low, high) = (ladder.bucket_low(idx), ladder.bucket_high(idx));
            let width = high - low;
            assert!(
                (width as f64) <= 0.032 * low as f64,
                "bucket [{low}, {high}] too wide for {v}"
            );
        }
    }

    #[test]
    fn linear_ladder_matches_batch_size_semantics() {
        let ladder = Ladder::batch_sizes(4);
        assert_eq!(ladder.num_buckets(), 4);
        assert_eq!(ladder.index(0), 0); // clamp low
        assert_eq!(ladder.index(1), 0);
        assert_eq!(ladder.index(3), 2);
        assert_eq!(ladder.index(4), 3);
        assert_eq!(ladder.index(9), 3); // clamp high
        assert_eq!(ladder.bucket_low(2), 3);
        assert_eq!(ladder.bucket_high(2), 3);
    }

    #[test]
    fn percentiles_match_nearest_rank_on_exact_buckets() {
        // With unit-width buckets the histogram must reproduce the exact
        // nearest-rank percentiles of the sample set.
        let hist = AtomicHistogram::new(Ladder::Linear {
            offset: 0,
            width: 1,
            buckets: 2048,
        });
        for v in 1..=100u64 {
            hist.record(v);
        }
        hist.record(1000);
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 101);
        assert_eq!(snap.value_at_percentile(0.50), 51);
        assert_eq!(snap.value_at_percentile(0.99), 100);
        assert_eq!(snap.max(), 1000);
        assert!((snap.mean() - (5050.0 + 1000.0) / 101.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_recording_matches_sequential_merge() {
        // Satellite: N threads hammering one sharded histogram must
        // produce the exact same snapshot as one thread recording the
        // same multiset of values sequentially.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5_000;
        let sharded = Arc::new(ShardedHistogram::new(Ladder::latency()));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let hist = Arc::clone(&sharded);
                std::thread::spawn(move || {
                    // Deterministic pseudo-random values, disjoint per thread.
                    let mut state = 0x9e3779b97f4a7c15u64.wrapping_mul(t + 1);
                    for _ in 0..PER_THREAD {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        hist.record(state % 50_000_000);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let sequential = AtomicHistogram::new(Ladder::latency());
        for t in 0..THREADS {
            let mut state = 0x9e3779b97f4a7c15u64.wrapping_mul(t + 1);
            for _ in 0..PER_THREAD {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                sequential.record(state % 50_000_000);
            }
        }

        assert_eq!(sharded.snapshot(), sequential.snapshot());
    }

    #[test]
    fn merge_rejects_ladder_mismatch() {
        let a = HistogramSnapshot::empty(Ladder::latency());
        let b = HistogramSnapshot::empty(Ladder::batch_sizes(8));
        let result = std::panic::catch_unwind(move || {
            let mut a = a;
            a.merge(&b);
        });
        assert!(result.is_err());
    }

    #[test]
    fn empty_snapshot_is_all_zeroes() {
        let snap = ShardedHistogram::new(Ladder::latency()).snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.value_at_percentile(0.99), 0);
        let stats = snap.latency_stats();
        assert_eq!(stats.max, Duration::ZERO);
        assert_eq!(stats.count, 0);
    }
}
