//! Runtime counters, batch-size accounting, and QoS per-level accounting.
//!
//! # Memory-ordering contract
//!
//! Every counter is an `AtomicU64` updated with `Relaxed` ordering: each
//! counter is individually monotonic and no update is ever lost, but a
//! [`RuntimeStats`] snapshot is **not** a single linearization point — it
//! may be torn *across* counters (e.g. observe a batch's `completed`
//! increment but not yet its histogram bucket). Derived quantities are
//! therefore computed saturating ([`RuntimeStats::batched`],
//! [`RuntimeStats::delta_since`]) so a torn read can never underflow.
//! Once the runtime is quiescent (all submitted requests resolved), a
//! snapshot is exact.

use std::sync::atomic::{AtomicU64, Ordering};

use ae_obs::{AtomicHistogram, HistogramSnapshot, Ladder};

use crate::qos::ServiceLevel;

/// Interior counters shared between workers and submitters.
#[derive(Debug)]
pub(crate) struct StatsInner {
    completed: AtomicU64,
    inline_scored: AtomicU64,
    batches: AtomicU64,
    dropped: AtomicU64,
    errors: AtomicU64,
    level_completed: [AtomicU64; ServiceLevel::COUNT],
    level_misses: [AtomicU64; ServiceLevel::COUNT],
    level_shed: [AtomicU64; ServiceLevel::COUNT],
    demoted: AtomicU64,
    throttled: AtomicU64,
    degraded: AtomicU64,
    breaker_trips: AtomicU64,
    /// Lock-free batch-size distribution over [`Ladder::batch_sizes`]:
    /// bucket `i` counts worker batches of size `i + 1`; sizes beyond
    /// `max_batch` (after a config change) clamp into the last bucket.
    histogram: AtomicHistogram,
}

impl StatsInner {
    pub(crate) fn new(max_batch: usize) -> Self {
        Self {
            completed: AtomicU64::new(0),
            inline_scored: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            level_completed: std::array::from_fn(|_| AtomicU64::new(0)),
            level_misses: std::array::from_fn(|_| AtomicU64::new(0)),
            level_shed: std::array::from_fn(|_| AtomicU64::new(0)),
            demoted: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            histogram: AtomicHistogram::new(Ladder::batch_sizes(max_batch)),
        }
    }

    pub(crate) fn record_inline(&self) {
        self.inline_scored.fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(&self, size: usize, failed: bool) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if failed {
            self.errors.fetch_add(size as u64, Ordering::Relaxed);
        } else {
            self.completed.fetch_add(size as u64, Ordering::Relaxed);
        }
        // Clamp before recording so the histogram's sum/mean/max agree
        // with its (clamped) buckets — same semantics as the ladder index.
        let cap = self.histogram.ladder().num_buckets();
        self.histogram.record(size.clamp(1, cap) as u64);
    }

    pub(crate) fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// One request fulfilled at `level`; `missed` marks a deadline miss.
    pub(crate) fn record_level_completed(&self, level: ServiceLevel, missed: bool) {
        self.level_completed[level.index()].fetch_add(1, Ordering::Relaxed);
        if missed {
            self.level_misses[level.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One queued request shed (admission eviction) at `level`.
    pub(crate) fn record_shed(&self, level: ServiceLevel) {
        self.level_shed[level.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// One over-rate request demoted to `BestEffort` by the tenant governor.
    pub(crate) fn record_demoted(&self) {
        self.demoted.fetch_add(1, Ordering::Relaxed);
    }

    /// One over-rate request rejected by the tenant governor.
    pub(crate) fn record_throttled(&self) {
        self.throttled.fetch_add(1, Ordering::Relaxed);
    }

    /// One request answered by the heuristic fallback (degraded mode).
    pub(crate) fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// The circuit breaker tripped open (threshold reached or a half-open
    /// probe failed).
    pub(crate) fn record_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// The batch-size distribution as a mergeable [`HistogramSnapshot`]
    /// (for metric export; [`RuntimeStats::batch_size_histogram`] carries
    /// the same buckets as a plain vector).
    pub(crate) fn batch_histogram(&self) -> HistogramSnapshot {
        self.histogram.snapshot()
    }

    pub(crate) fn snapshot(&self) -> RuntimeStats {
        fn load(counters: &[AtomicU64; ServiceLevel::COUNT]) -> [u64; ServiceLevel::COUNT] {
            std::array::from_fn(|i| counters[i].load(Ordering::Relaxed))
        }
        let completed = load(&self.level_completed);
        let misses = load(&self.level_misses);
        let shed = load(&self.level_shed);
        RuntimeStats {
            completed: self.completed.load(Ordering::Relaxed),
            inline_scored: self.inline_scored.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            levels: std::array::from_fn(|i| LevelStats {
                completed: completed[i],
                deadline_misses: misses[i],
                shed: shed[i],
            }),
            demoted: self.demoted.load(Ordering::Relaxed),
            throttled: self.throttled.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            batch_size_histogram: self.histogram.snapshot().bucket_counts().to_vec(),
        }
    }
}

/// Per-service-level QoS counters, indexed by [`ServiceLevel::index`] in
/// [`RuntimeStats::levels`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Requests fulfilled at this level (after any demotion).
    pub completed: u64,
    /// Fulfilled requests that finished past their deadline.
    pub deadline_misses: u64,
    /// Queued requests evicted (shed) at this level under saturation.
    pub shed: u64,
}

impl LevelStats {
    /// Deadline-miss rate over this level's completions (0.0 when idle).
    pub fn miss_rate(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.deadline_misses as f64 / self.completed as f64
    }
}

/// A point-in-time snapshot of the runtime's counters.
///
/// See the [module docs](crate::stats) for the memory-ordering contract:
/// every field is individually monotonic, but a snapshot taken while
/// requests are in flight may be torn across fields. All derived
/// quantities on this type are saturating so that torn reads degrade to
/// slight undercounts, never to underflow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Successfully scored requests (inline + batched).
    pub completed: u64,
    /// Requests served on the submitting thread via the idle shortcut.
    pub inline_scored: u64,
    /// Worker batches processed.
    pub batches: u64,
    /// Requests rejected by a fail-fast submission because the queue was
    /// full.
    pub dropped: u64,
    /// Requests that completed with an error.
    pub errors: u64,
    /// Per-service-level completions, deadline misses, and sheds, indexed
    /// by [`ServiceLevel::index`].
    pub levels: [LevelStats; ServiceLevel::COUNT],
    /// Requests demoted to `BestEffort` by the tenant governor.
    pub demoted: u64,
    /// Requests rejected outright by the tenant governor.
    pub throttled: u64,
    /// Requests answered by the heuristic fallback while the circuit
    /// breaker bypassed the model path (degraded mode). These also count
    /// in `completed` — degraded requests still succeed.
    pub degraded: u64,
    /// Times the circuit breaker tripped open (including failed half-open
    /// probes).
    pub breaker_trips: u64,
    /// `batch_size_histogram[i]` = number of worker batches of size `i + 1`.
    pub batch_size_histogram: Vec<u64>,
}

impl RuntimeStats {
    /// Requests that went through worker batches (completed minus inline).
    pub fn batched(&self) -> u64 {
        self.completed.saturating_sub(self.inline_scored)
    }

    /// The per-level counters of one service level.
    pub fn level(&self, level: ServiceLevel) -> &LevelStats {
        &self.levels[level.index()]
    }

    /// Queued requests shed across all levels.
    pub fn shed(&self) -> u64 {
        self.levels.iter().map(|l| l.shed).sum()
    }

    /// Counter-wise difference against an earlier snapshot of the same
    /// runtime — what happened *since* `before`.
    ///
    /// Covers **every** field, including the per-level QoS arrays and the
    /// batch-size histogram, and subtracts saturating: because snapshots
    /// are taken without a global lock (see the module docs), a later
    /// snapshot can transiently show a *lower* value on one counter than
    /// an interleaved earlier one; such races clamp to 0 instead of
    /// wrapping. Histogram buckets beyond `before`'s length (none in
    /// practice) are kept as-is.
    pub fn delta_since(&self, before: &RuntimeStats) -> RuntimeStats {
        let mut delta = self.clone();
        delta.completed = delta.completed.saturating_sub(before.completed);
        delta.inline_scored = delta.inline_scored.saturating_sub(before.inline_scored);
        delta.batches = delta.batches.saturating_sub(before.batches);
        delta.dropped = delta.dropped.saturating_sub(before.dropped);
        delta.errors = delta.errors.saturating_sub(before.errors);
        delta.demoted = delta.demoted.saturating_sub(before.demoted);
        delta.throttled = delta.throttled.saturating_sub(before.throttled);
        delta.degraded = delta.degraded.saturating_sub(before.degraded);
        delta.breaker_trips = delta.breaker_trips.saturating_sub(before.breaker_trips);
        for (level, earlier) in delta.levels.iter_mut().zip(&before.levels) {
            level.completed = level.completed.saturating_sub(earlier.completed);
            level.deadline_misses = level
                .deadline_misses
                .saturating_sub(earlier.deadline_misses);
            level.shed = level.shed.saturating_sub(earlier.shed);
        }
        for (bucket, earlier) in delta
            .batch_size_histogram
            .iter_mut()
            .zip(&before.batch_size_histogram)
        {
            *bucket = bucket.saturating_sub(*earlier);
        }
        delta
    }

    /// Adds another runtime's counters into this snapshot field-by-field
    /// — the aggregation primitive behind
    /// [`FleetStats`](crate::fleet::FleetStats). Every counter is summed,
    /// including the per-level QoS arrays and `breaker_trips` (breakers
    /// are per-runtime, so a fleet total is the sum of independent trip
    /// counts); batch-size histograms are added bucket-wise, extending
    /// this histogram when `other`'s is longer (shards may differ in
    /// `max_batch`).
    pub fn merge_from(&mut self, other: &RuntimeStats) {
        self.completed += other.completed;
        self.inline_scored += other.inline_scored;
        self.batches += other.batches;
        self.dropped += other.dropped;
        self.errors += other.errors;
        self.demoted += other.demoted;
        self.throttled += other.throttled;
        self.degraded += other.degraded;
        self.breaker_trips += other.breaker_trips;
        for (level, addend) in self.levels.iter_mut().zip(&other.levels) {
            level.completed += addend.completed;
            level.deadline_misses += addend.deadline_misses;
            level.shed += addend.shed;
        }
        if self.batch_size_histogram.len() < other.batch_size_histogram.len() {
            self.batch_size_histogram
                .resize(other.batch_size_histogram.len(), 0);
        }
        for (bucket, addend) in self
            .batch_size_histogram
            .iter_mut()
            .zip(&other.batch_size_histogram)
        {
            *bucket += addend;
        }
    }

    /// Mean worker-batch size (0.0 when no batches ran).
    pub fn mean_batch_size(&self) -> f64 {
        let batches: u64 = self.batch_size_histogram.iter().sum();
        if batches == 0 {
            return 0.0;
        }
        let requests: u64 = self
            .batch_size_histogram
            .iter()
            .enumerate()
            .map(|(i, &count)| (i as u64 + 1) * count)
            .sum();
        requests as f64 / batches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_and_mean_batch_size() {
        let inner = StatsInner::new(4);
        inner.record_batch(1, false);
        inner.record_batch(3, false);
        inner.record_batch(3, false);
        inner.record_batch(9, false); // clamped into the last bucket
        let snap = inner.snapshot();
        assert_eq!(snap.batch_size_histogram, vec![1, 0, 2, 1]);
        assert_eq!(snap.completed, 16);
        assert_eq!(snap.batches, 4);
        // Mean over the histogram uses clamped sizes: (1 + 3 + 3 + 4) / 4.
        assert!((snap.mean_batch_size() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn inline_and_batched_accounting() {
        let inner = StatsInner::new(8);
        inner.record_inline();
        inner.record_inline();
        inner.record_batch(5, false);
        inner.record_batch(2, true);
        inner.record_error();
        inner.record_dropped();
        let snap = inner.snapshot();
        assert_eq!(snap.completed, 7);
        assert_eq!(snap.inline_scored, 2);
        assert_eq!(snap.batched(), 5);
        assert_eq!(snap.errors, 3);
        assert_eq!(snap.dropped, 1);
    }

    #[test]
    fn level_accounting_and_delta() {
        let inner = StatsInner::new(4);
        inner.record_inline();
        inner.record_level_completed(ServiceLevel::Interactive, false);
        inner.record_level_completed(ServiceLevel::Interactive, true);
        inner.record_level_completed(ServiceLevel::BestEffort, false);
        inner.record_shed(ServiceLevel::BestEffort);
        inner.record_demoted();
        inner.record_throttled();
        let before = inner.snapshot();
        assert_eq!(before.level(ServiceLevel::Interactive).completed, 2);
        assert_eq!(before.level(ServiceLevel::Interactive).deadline_misses, 1);
        assert!((before.level(ServiceLevel::Interactive).miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(before.level(ServiceLevel::BestEffort).shed, 1);
        assert_eq!(before.shed(), 1);
        assert_eq!(before.demoted, 1);
        assert_eq!(before.throttled, 1);

        inner.record_level_completed(ServiceLevel::Standard, true);
        inner.record_shed(ServiceLevel::BestEffort);
        inner.record_batch(2, false);
        let delta = inner.snapshot().delta_since(&before);
        assert_eq!(delta.level(ServiceLevel::Standard).completed, 1);
        assert_eq!(delta.level(ServiceLevel::Standard).deadline_misses, 1);
        assert_eq!(delta.level(ServiceLevel::Interactive).completed, 0);
        assert_eq!(delta.shed(), 1);
        assert_eq!(delta.demoted, 0);
        assert_eq!(delta.completed, 2);
        assert_eq!(delta.batch_size_histogram, vec![0, 1, 0, 0]);
    }

    #[test]
    fn merge_from_sums_every_field() {
        let a = StatsInner::new(4);
        a.record_inline();
        a.record_batch(3, false);
        a.record_level_completed(ServiceLevel::Interactive, true);
        a.record_level_completed(ServiceLevel::Standard, false);
        a.record_shed(ServiceLevel::BestEffort);
        a.record_demoted();
        a.record_breaker_trip();
        let b = StatsInner::new(8); // longer histogram than `a`
        b.record_batch(6, false);
        b.record_batch(2, true);
        b.record_error();
        b.record_dropped();
        b.record_throttled();
        b.record_degraded();
        b.record_level_completed(ServiceLevel::Interactive, false);
        let mut merged = a.snapshot();
        merged.merge_from(&b.snapshot());
        assert_eq!(merged.completed, 1 + 3 + 6);
        assert_eq!(merged.inline_scored, 1);
        assert_eq!(merged.batches, 3);
        assert_eq!(merged.errors, 2 + 1);
        assert_eq!(merged.dropped, 1);
        assert_eq!(merged.demoted, 1);
        assert_eq!(merged.throttled, 1);
        assert_eq!(merged.degraded, 1);
        assert_eq!(merged.breaker_trips, 1);
        assert_eq!(merged.level(ServiceLevel::Interactive).completed, 2);
        assert_eq!(merged.level(ServiceLevel::Interactive).deadline_misses, 1);
        assert_eq!(merged.level(ServiceLevel::Standard).completed, 1);
        assert_eq!(merged.level(ServiceLevel::BestEffort).shed, 1);
        // Bucket-wise sum over the longer (8-bucket) shape: a recorded one
        // 3-batch, b recorded one 6-batch and one 2-batch.
        assert_eq!(merged.batch_size_histogram, vec![0, 1, 1, 0, 0, 1, 0, 0]);
        // Merging is order-insensitive on the counter totals.
        let mut flipped = b.snapshot();
        flipped.merge_from(&a.snapshot());
        assert_eq!(flipped.completed, merged.completed);
        assert_eq!(flipped.batch_size_histogram, merged.batch_size_histogram);
    }

    #[test]
    fn delta_saturates_instead_of_wrapping() {
        let inner = StatsInner::new(2);
        inner.record_inline();
        let later = inner.snapshot();
        inner.record_inline();
        let earlier = inner.snapshot();
        // Model of a torn read: the "later" snapshot observed fewer
        // increments than the baseline it is diffed against.
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.completed, 0);
        assert_eq!(delta.inline_scored, 0);
    }

    #[test]
    fn batch_histogram_snapshot_matches_vec() {
        let inner = StatsInner::new(4);
        inner.record_batch(2, false);
        inner.record_batch(9, false); // clamped into the last bucket
        let hist = inner.batch_histogram();
        let stats = inner.snapshot();
        assert_eq!(hist.bucket_counts(), stats.batch_size_histogram.as_slice());
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.max(), 4);
    }
}
