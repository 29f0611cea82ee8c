//! The sharded metrics registry: named histograms plus polled sources.
//!
//! The registry exists so that *reading* telemetry is one call
//! ([`MetricsRegistry::snapshot`]) while *writing* it costs nothing
//! beyond the instrument itself: [`MetricsRegistry::histogram`] hands
//! back an `Arc` handle at registration time (cold), and hot paths only
//! ever touch that handle — never the registry's locks. The name
//! map is additionally sharded by a name hash so even concurrent
//! registration bursts (e.g. many runtimes starting at once) do not
//! serialize on one lock.
//!
//! Components that already keep their own atomic counters (like the
//! serving runtime's `RuntimeStats`) plug in as a [`MetricSource`]: a
//! callback collected at snapshot time, so existing hot paths gain
//! observability without double-counting or extra writes.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::hist::{HistogramSnapshot, Ladder, ShardedHistogram};

/// One collected metric value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic counter.
    Counter(u64),
    /// A last-write-wins gauge.
    Gauge(f64),
    /// A full histogram snapshot.
    Histogram(HistogramSnapshot),
}

/// A provider of externally-owned metrics, collected at snapshot time.
/// Implementors must not block; they are called under no registry lock.
pub trait MetricSource: Send + Sync {
    /// Appends `(name, value)` pairs to `out`.
    fn collect(&self, out: &mut Vec<(String, MetricValue)>);
}

const REGISTRY_SHARDS: usize = 8;

/// The process-wide (or per-deployment) metric namespace. Cheap to share
/// as an `Arc`; see the module docs for the locking contract.
pub struct MetricsRegistry {
    shards: [Mutex<BTreeMap<String, Arc<ShardedHistogram>>>; REGISTRY_SHARDS],
    sources: Mutex<Vec<Box<dyn MetricSource>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let named: usize = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum();
        f.debug_struct("MetricsRegistry")
            .field("histograms", &named)
            .finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn name_shard(name: &str) -> usize {
    // FNV-1a over the name bytes.
    let mut hash = 0xcbf29ce484222325u64;
    for &b in name.as_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    (hash % REGISTRY_SHARDS as u64) as usize
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
            sources: Mutex::new(Vec::new()),
        }
    }

    /// Returns (registering on first use) the sharded histogram named
    /// `name` over `ladder`. The ladder only applies on first
    /// registration; later callers get the existing instrument.
    pub fn histogram(&self, name: &str, ladder: Ladder) -> Arc<ShardedHistogram> {
        let mut shard = self.shards[name_shard(name)]
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        Arc::clone(
            shard
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(ShardedHistogram::new(ladder))),
        )
    }

    /// Registers an externally-owned metric provider, polled on every
    /// [`snapshot`](Self::snapshot). Use a `Weak` inside the source when
    /// the provider also holds this registry, to avoid a reference cycle.
    pub fn register_source(&self, source: Box<dyn MetricSource>) {
        self.sources
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .push(source);
    }

    /// Collects every registered histogram and source into a sorted,
    /// immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut values: Vec<(String, MetricValue)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|poison| poison.into_inner());
            for (name, histogram) in shard.iter() {
                values.push((name.clone(), MetricValue::Histogram(histogram.snapshot())));
            }
        }
        // Collect sources outside the shard locks.
        let sources = self
            .sources
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        for source in sources.iter() {
            source.collect(&mut values);
        }
        drop(sources);
        values.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { values }
    }
}

/// A sorted point-in-time copy of every metric in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    values: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// All `(name, value)` pairs, sorted by name.
    pub fn values(&self) -> &[(String, MetricValue)] {
        &self.values
    }

    /// Looks up one metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|idx| &self.values[idx].1)
    }

    /// Convenience: the value of a counter metric, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_handles_are_shared() {
        let registry = MetricsRegistry::new();
        let a = registry.histogram("latency", Ladder::latency());
        let b = registry.histogram("latency", Ladder::batch_sizes(8));
        a.record(1000);
        b.record(2000);
        assert!(Arc::ptr_eq(&a, &b), "the first registration's ladder wins");
        assert!(matches!(
            registry.snapshot().get("latency"),
            Some(MetricValue::Histogram(h)) if h.count() == 2
        ));
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        struct Fixed;
        impl MetricSource for Fixed {
            fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
                out.push(("z.last".into(), MetricValue::Counter(1)));
                out.push(("a.first".into(), MetricValue::Gauge(2.5)));
            }
        }
        let registry = MetricsRegistry::new();
        registry.register_source(Box::new(Fixed));
        registry.histogram("m.hist", Ladder::latency()).record(1000);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.values().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", "m.hist", "z.last"]);
        assert_eq!(snap.counter("z.last"), Some(1));
        assert_eq!(snap.counter("m.hist"), None, "a histogram is not a counter");
        assert!(matches!(snap.get("a.first"), Some(MetricValue::Gauge(v)) if *v == 2.5));
        assert!(matches!(snap.get("m.hist"), Some(MetricValue::Histogram(h)) if h.count() == 1));
    }

    #[test]
    fn sources_are_polled_at_snapshot_time() {
        struct Fixed;
        impl MetricSource for Fixed {
            fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
                out.push(("ext.requests".into(), MetricValue::Counter(7)));
            }
        }
        let registry = MetricsRegistry::new();
        registry.register_source(Box::new(Fixed));
        assert_eq!(registry.snapshot().counter("ext.requests"), Some(7));
    }
}
