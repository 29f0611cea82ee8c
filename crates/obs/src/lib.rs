//! Unified observability for the AutoExecutor reproduction: lock-free
//! metrics, structured event tracing, and deterministic serving-trace
//! capture/replay.
//!
//! The paper's premise is choosing executor counts from *predicted*
//! price-performance curves; this crate is how the system observes how
//! those predictions fare against reality. It is deliberately a leaf
//! crate with **zero dependencies** (not even the workspace shims) so the
//! serving runtime and the bench drivers can instrument through it
//! without cycles.
//!
//! Three subsystems:
//!
//! * **Metrics** ([`metrics`], [`hist`], [`drift`]) — lock-free
//!   log-linear latency histograms with mergeable snapshots
//!   (p50/p90/p99/max) and observed-vs-predicted residual trackers (the
//!   drift signal). A sharded [`MetricsRegistry`] holds named histograms
//!   plus [`MetricSource`]s, components' own counters and gauges polled
//!   at snapshot time. Hot paths touch only pre-registered `Arc` handles;
//!   the registry itself is only locked at registration and snapshot time.
//! * **Events** ([`events`]) — a bounded, thread-sharded [`EventSink`]
//!   recording typed events (admission, shed, demotion, batch drain,
//!   breaker transitions, model swaps, shard quarantines and failovers)
//!   with monotonic timestamps. Overflow drops the oldest events and
//!   counts the drops; recording never blocks on a contended lock in
//!   steady state.
//! * **Traces** ([`trace`], [`mod@replay`]) — a compact, versioned,
//!   bit-exact serving-trace format (every request's envelope and
//!   outcome) plus a replay evaluator that re-drives a captured trace
//!   through an alternative scheduler/model/pricing configuration
//!   *without re-simulation* and diffs SLO, accuracy, and revenue.
//!
//! Everything here is plain `std`: `AtomicU64`, short uncontended
//! `Mutex` sections, and a hand-rolled trace format (floats travel as
//! `f64::to_bits` hex, so capture → serialize → parse → replay is
//! bit-identical by construction). Reports built from these types go
//! through the bench drivers' one JSON writer.

pub mod drift;
pub mod events;
pub mod hist;
pub mod metrics;
pub mod replay;
pub mod trace;

pub use drift::{DriftSignal, ResidualTracker};
pub use events::{Event, EventKind, EventSink};
pub use hist::{AtomicHistogram, HistogramSnapshot, Ladder, LatencyStats, ShardedHistogram};
pub use metrics::{MetricSource, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use replay::{
    replay, LevelSlo, ReplayDiff, ReplayOutcome, ReplayPolicy, ReplayReport, ReplayRun, ReplayScore,
};
pub use trace::{
    feature_digest, RequestStatus, ServingTrace, TraceError, TraceMeta, TraceQuery, TraceRecord,
    TraceRecorder, TRACE_FORMAT_VERSION, TRACE_LEVELS,
};

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of shards used by [`ShardedHistogram`], [`EventSink`], and
/// [`TraceRecorder`]. Eight is enough that a handful of worker plus
/// load-generator threads land on distinct shards with high probability.
pub const DEFAULT_SHARDS: usize = 8;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// A small dense per-thread index (0, 1, 2, … in first-use order), used to
/// pick shards so that each thread keeps hitting the same uncontended
/// shard. Unlike hashing `ThreadId`, consecutive threads never collide
/// until there are more threads than shards.
pub(crate) fn thread_slot() -> usize {
    THREAD_SLOT.with(|slot| *slot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_slots_are_dense_and_stable() {
        let here = thread_slot();
        assert_eq!(here, thread_slot(), "slot must be stable per thread");
        let other = std::thread::spawn(thread_slot).join().unwrap();
        assert_ne!(here, other, "distinct threads get distinct slots");
    }
}
