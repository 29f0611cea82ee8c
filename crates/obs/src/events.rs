//! Structured event tracing: a bounded, thread-sharded sink of typed
//! events with monotonic timestamps.
//!
//! Events answer the *sequence* questions counters cannot: did the
//! breaker trip before or after the shed burst? how many batch drains
//! separated a model swap from the first demotion? The sink is bounded —
//! each shard keeps a ring of the most recent events and counts what it
//! evicted — so an instrumented runtime can run forever without growing.
//!
//! Timestamps are monotonic nanoseconds from the sink's creation
//! ([`EventSink::record`]). Recording locks only the calling thread's
//! shard — a different shard per thread up to
//! [`crate::DEFAULT_SHARDS`] — so the lock is
//! uncontended in steady state.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::{thread_slot, DEFAULT_SHARDS};

/// A typed event. Levels are `ServiceLevel::index()` values (0 =
/// best-effort, 2 = interactive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A request was admitted: `queued` distinguishes the worker queue
    /// path from the inline idle shortcut.
    Admission {
        /// Admitted service level (after any demotion).
        level: u8,
        /// True when enqueued for a worker, false for inline scoring.
        queued: bool,
    },
    /// A queued request was evicted to make room under saturation.
    Shed {
        /// Level the victim was queued at.
        level: u8,
    },
    /// A request was rejected outright (queue full, no shed candidate).
    Dropped {
        /// Level of the rejected request.
        level: u8,
    },
    /// The tenant governor demoted an over-rate request to best-effort.
    Demotion {
        /// The level the request asked for.
        from_level: u8,
    },
    /// The tenant governor rejected an over-rate request.
    Throttle,
    /// A worker drained one batch from the queues.
    BatchDrain {
        /// Requests in the batch.
        size: u32,
        /// Requests still pending after the drain.
        backlog: u32,
    },
    /// The circuit breaker tripped open (threshold reached or a
    /// half-open probe failed).
    BreakerTrip,
    /// A half-open probe succeeded; the breaker closed again.
    BreakerRecovered,
    /// The runtime observed a new model registration and swapped its
    /// cached decode (RCU swap).
    ModelSwap,
    /// The serving runtime began shutdown.
    Shutdown,
    /// A fleet health pass quarantined a shard: it was removed from
    /// the routing ring and its non-interactive backlog was evacuated.
    ShardQuarantine {
        /// Index of the quarantined shard.
        shard: u16,
    },
    /// A probationary shard passed its trickle-traffic checks and was
    /// re-inserted into the routing ring.
    ShardRecover {
        /// Index of the recovered shard.
        shard: u16,
    },
    /// A failed request was re-submitted to a different shard under the
    /// fleet's cross-shard retry budget.
    FailoverRetry {
        /// Shard whose attempt failed.
        from_shard: u16,
        /// Shard the request was retried on.
        to_shard: u16,
    },
    /// Quarantine evacuated a batch of queued requests from a shard into
    /// survivors (never `Interactive` entries).
    BacklogEvacuation {
        /// Shard the backlog was evacuated from.
        from_shard: u16,
        /// Requests moved to surviving shards.
        count: u32,
    },
}

/// One recorded event: a timestamp, a global sequence number (total
/// order of recording), and the typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds, monotonic since sink creation.
    pub ts_ns: u64,
    /// Global recording sequence number (gap-free only while nothing is
    /// evicted).
    pub seq: u64,
    /// The typed payload.
    pub kind: EventKind,
}

struct Shard {
    ring: VecDeque<Event>,
}

/// A bounded, thread-sharded event sink. See the module docs.
pub struct EventSink {
    epoch: Instant,
    shards: Box<[Mutex<Shard>]>,
    per_shard_capacity: usize,
    seq: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink")
            .field("capacity", &(self.per_shard_capacity * self.shards.len()))
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventSink {
    /// Creates a sink retaining at most `capacity` events in total
    /// (split evenly across [`DEFAULT_SHARDS`] shards; at least one per
    /// shard). Older events are evicted, and counted, on overflow.
    pub fn new(capacity: usize) -> Self {
        let per_shard_capacity = capacity.div_ceil(DEFAULT_SHARDS).max(1);
        Self {
            epoch: Instant::now(),
            shards: (0..DEFAULT_SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        ring: VecDeque::with_capacity(per_shard_capacity.min(1024)),
                    })
                })
                .collect(),
            per_shard_capacity,
            seq: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records `kind` stamped with the monotonic time since sink
    /// creation.
    pub fn record(&self, kind: EventKind) {
        let ts_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record_at(ts_ns, kind);
    }

    /// Records `kind` stamped `ts_ns`; [`snapshot`](Self::snapshot) sorts
    /// by `(ts_ns, seq)`.
    fn record_at(&self, ts_ns: u64, kind: EventKind) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = Event { ts_ns, seq, kind };
        let mut shard = self.shards[thread_slot() % self.shards.len()]
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if shard.ring.len() >= self.per_shard_capacity {
            shard.ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.ring.push_back(event);
        drop(shard);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Total events ever recorded (including later-evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted by the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).ring.len())
            .sum()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the retained events, sorted by `(ts_ns, seq)`.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut events: Vec<Event> = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            let shard = shard.lock().unwrap_or_else(|poison| poison.into_inner());
            events.extend(shard.ring.iter().copied());
        }
        events.sort_by_key(|e| (e.ts_ns, e.seq));
        events
    }

    /// Moves the retained events out (sorted like
    /// [`snapshot`](Self::snapshot)), leaving the sink empty.
    pub fn drain(&self) -> Vec<Event> {
        let mut events: Vec<Event> = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            let mut shard = shard.lock().unwrap_or_else(|poison| poison.into_inner());
            events.extend(shard.ring.drain(..));
        }
        events.sort_by_key(|e| (e.ts_ns, e.seq));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_sorted_and_typed() {
        let sink = EventSink::new(64);
        let admission = EventKind::Admission {
            level: 2,
            queued: true,
        };
        let drain = EventKind::BatchDrain {
            size: 8,
            backlog: 3,
        };
        sink.record_at(30, EventKind::BreakerTrip);
        sink.record_at(10, admission);
        sink.record_at(20, drain);
        let events: Vec<_> = sink.snapshot().iter().map(|e| (e.ts_ns, e.kind)).collect();
        assert_eq!(
            events,
            [(10, admission), (20, drain), (30, EventKind::BreakerTrip)]
        );
    }

    #[test]
    fn overflow_evicts_oldest_and_counts() {
        let sink = EventSink::new(8); // 1 slot per shard
        for i in 0..20u64 {
            sink.record_at(i, EventKind::Throttle);
        }
        assert_eq!(sink.recorded(), 20);
        assert_eq!(sink.dropped() as usize, 20 - sink.len());
        assert!(sink.len() <= 8);
        // The single-threaded recorder maps to one shard: it retains
        // exactly the newest event of that shard.
        assert!(sink.snapshot().last().unwrap().ts_ns == 19);
    }

    #[test]
    fn drain_empties_the_sink() {
        let sink = EventSink::new(16);
        sink.record(EventKind::ModelSwap);
        sink.record(EventKind::Shutdown);
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert!(sink.is_empty());
        assert_eq!(sink.recorded(), 2, "drain does not reset the totals");
    }

    #[test]
    fn wall_clock_timestamps_are_monotone_per_thread() {
        let sink = EventSink::new(16);
        sink.record(EventKind::BreakerRecovered);
        sink.record(EventKind::BreakerTrip);
        let events = sink.snapshot();
        assert!(events[0].ts_ns <= events[1].ts_ns);
        assert!(events[0].seq < events[1].seq);
    }

    #[test]
    fn resilience_payloads_render() {
        let sink = EventSink::new(64);
        let kinds = [
            EventKind::ShardQuarantine { shard: 2 },
            EventKind::BacklogEvacuation {
                from_shard: 2,
                count: 37,
            },
            EventKind::FailoverRetry {
                from_shard: 2,
                to_shard: 0,
            },
            EventKind::ShardRecover { shard: 2 },
        ];
        for (ts, &kind) in (1..).zip(&kinds) {
            sink.record_at(ts, kind);
        }
        let recorded: Vec<_> = sink.snapshot().iter().map(|e| e.kind).collect();
        assert_eq!(recorded, kinds);
    }
}
