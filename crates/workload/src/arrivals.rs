//! Request-arrival generators for the serving path.
//!
//! The offline evaluation replays the suite once, query after query. A
//! serving benchmark instead needs a *request process*: which query arrives
//! when, at what rate, from how many clients. Two standard load shapes are
//! provided (both fully deterministic given a seed):
//!
//! * **Open loop** ([`OpenLoop`]) — requests arrive on a Poisson process at
//!   a target rate regardless of how fast the system responds (exponential
//!   inter-arrival times), the shape used by PixelsDB-style per-query
//!   service-level evaluations. Queues grow when the system falls behind —
//!   exactly the behaviour a latency benchmark must expose.
//! * **Closed loop** ([`ClosedLoop`]) — a fixed number of clients each
//!   submit their next request as soon as the previous one completes,
//!   measuring sustained throughput under full backpressure.
//!
//! Query indices refer to positions in whatever suite the caller replays —
//! any family's [`crate::WorkloadGenerator::suite`], or a mixed-family
//! concatenation built with [`crate::family::mixed_suite`] — so a single
//! arrival schedule can drive single-family and cross-family request
//! streams alike.
//!
//! For QoS benchmarks, [`OpenLoop::schedule_tagged`] additionally tags
//! every arrival with a *service-level index* and a *tenant index* drawn
//! from weighted categorical mixes ([`WeightedMix`]). The tags are plain
//! indices — the serving tier maps them onto its own service-level and
//! tenant types — and draw from seed streams independent of the
//! inter-arrival and query-choice streams, so tagging a schedule never
//! changes *when* requests arrive or *which* queries they score.

use std::time::Duration;

use ae_engine::exp_sample;
use rand::rngs::StdRng;
use rand::{derive_stream_seed, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One scheduled request of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Arrival {
    /// Offset from the start of the run at which the request is issued.
    pub at: Duration,
    /// Index of the query to score (into the replayed suite).
    pub query_index: usize,
}

/// An open-loop (Poisson) arrival process at a target request rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpenLoop {
    /// Target arrival rate in requests per second (must be positive).
    pub rate_qps: f64,
    /// Total number of requests to schedule.
    pub requests: usize,
    /// Seed for inter-arrival and query-choice randomness.
    pub seed: u64,
}

impl OpenLoop {
    /// Creates an open-loop process.
    pub fn new(rate_qps: f64, requests: usize, seed: u64) -> Self {
        Self {
            rate_qps,
            requests,
            seed,
        }
    }

    /// Materialises the full arrival schedule over a suite of
    /// `num_queries` queries: exponential inter-arrival gaps at
    /// `rate_qps`, uniformly random query choice. Arrival times are
    /// strictly non-decreasing.
    ///
    /// Inter-arrival and query-choice randomness draw from independent
    /// seed streams, so changing the request count never reshuffles which
    /// queries earlier requests map to.
    pub fn schedule(&self, num_queries: usize) -> Vec<Arrival> {
        assert!(self.rate_qps > 0.0, "open-loop rate must be positive");
        assert!(num_queries > 0, "cannot schedule over an empty suite");
        let mut gaps = StdRng::seed_from_u64(derive_stream_seed(self.seed, 0));
        let mut picks = StdRng::seed_from_u64(derive_stream_seed(self.seed, 1));
        let mut at = 0.0f64;
        (0..self.requests)
            .map(|_| {
                at += exp_sample(&mut gaps, self.rate_qps);
                Arrival {
                    at: Duration::from_secs_f64(at),
                    query_index: picks.gen_range(0..num_queries),
                }
            })
            .collect()
    }

    /// [`schedule`](Self::schedule) plus per-request service-level and
    /// tenant tags drawn from weighted mixes.
    ///
    /// The `(at, query_index)` pairs are **identical** to the untagged
    /// schedule for the same seed: level and tenant draws use their own
    /// seed streams, so changing a mix (or ignoring the tags) never
    /// reshuffles arrival times or query choice — the QoS benchmark and
    /// the plain serving benchmark replay the same base process.
    pub fn schedule_tagged(
        &self,
        num_queries: usize,
        levels: &WeightedMix,
        tenants: &WeightedMix,
    ) -> Vec<TaggedArrival> {
        let base = self.schedule(num_queries);
        let mut level_draws = StdRng::seed_from_u64(derive_stream_seed(self.seed, 2));
        let mut tenant_draws = StdRng::seed_from_u64(derive_stream_seed(self.seed, 3));
        base.into_iter()
            .map(|arrival| TaggedArrival {
                at: arrival.at,
                query_index: arrival.query_index,
                level_index: levels.pick(level_draws.gen()),
                tenant_index: tenants.pick(tenant_draws.gen()),
            })
            .collect()
    }
}

/// A weighted categorical distribution over `len` classes (service levels,
/// tenants, …), sampled deterministically from a seed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedMix {
    /// Non-negative per-class weights; at least one must be positive.
    weights: Vec<f64>,
}

impl WeightedMix {
    /// Builds a mix from per-class weights. Panics when no weight is
    /// positive, or any weight is negative or non-finite.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|&w| w.is_finite() && w >= 0.0),
            "mix weights must be finite and non-negative"
        );
        assert!(
            weights.iter().any(|&w| w > 0.0),
            "a mix needs at least one positive weight"
        );
        Self { weights }
    }

    /// A uniform mix over `classes` classes.
    pub fn uniform(classes: usize) -> Self {
        Self::new(vec![1.0; classes.max(1)])
    }

    /// A degenerate mix: every draw returns `class` (out of `classes`).
    pub fn single(class: usize, classes: usize) -> Self {
        let mut weights = vec![0.0; classes.max(class + 1)];
        weights[class] = 1.0;
        Self { weights }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.weights.len()
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to a class index by cumulative
    /// weight.
    pub fn pick(&self, u: f64) -> usize {
        let total: f64 = self.weights.iter().sum();
        let mut acc = 0.0;
        for (i, &w) in self.weights.iter().enumerate() {
            acc += w;
            if u * total < acc {
                return i;
            }
        }
        // Rounding at u ≈ 1: the last positively-weighted class.
        self.weights
            .iter()
            .rposition(|&w| w > 0.0)
            .unwrap_or(self.weights.len() - 1)
    }
}

/// One scheduled request of a QoS (tagged) open-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaggedArrival {
    /// Offset from the start of the run at which the request is issued.
    pub at: Duration,
    /// Index of the query to score (into the replayed suite).
    pub query_index: usize,
    /// Index into the service-level mix the schedule was tagged with.
    pub level_index: usize,
    /// Index into the tenant mix the schedule was tagged with.
    pub tenant_index: usize,
}

/// A closed-loop load shape: `clients` concurrent clients, each issuing
/// `requests_per_client` back-to-back requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoop {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Seed for the per-client query sequences.
    pub seed: u64,
}

impl ClosedLoop {
    /// Creates a closed-loop shape.
    pub fn new(clients: usize, requests_per_client: usize, seed: u64) -> Self {
        Self {
            clients,
            requests_per_client,
            seed,
        }
    }

    /// The query sequence of each client: uniformly random indices into a
    /// suite of `num_queries`, one independent seed stream per client so
    /// sequences do not depend on client scheduling or count.
    pub fn sequences(&self, num_queries: usize) -> Vec<Vec<usize>> {
        assert!(num_queries > 0, "cannot schedule over an empty suite");
        (0..self.clients)
            .map(|client| {
                let mut rng = StdRng::seed_from_u64(derive_stream_seed(self.seed, client as u64));
                (0..self.requests_per_client)
                    .map(|_| rng.gen_range(0..num_queries))
                    .collect()
            })
            .collect()
    }
}

/// Deterministic per-`(query, repeat)` fault-plan seeds for sweeps that
/// inject faults (`ae-engine`'s `FaultPlan`) across a suite.
///
/// Each cell of a `queries × repeats` grid gets its own independent seed
/// stream derived from one base seed, so fault draws never depend on sweep
/// order, repeat count, or which queries are included — the same
/// properties the arrival processes above guarantee for their streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSeeds {
    /// Base seed all per-cell streams derive from.
    pub base: u64,
}

impl FaultSeeds {
    /// Creates the seed family.
    pub fn new(base: u64) -> Self {
        Self { base }
    }

    /// The fault-plan seed of one `(query_index, repeat)` cell. Streams
    /// are disjoint for any suite of up to 2^32 queries and 2^32 repeats.
    pub fn seed_for(&self, query_index: usize, repeat: usize) -> u64 {
        let stream = ((query_index as u64) << 32) | (repeat as u64 & 0xFFFF_FFFF);
        derive_stream_seed(self.base, stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over a byte stream.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn tagged_schedule_matches_the_recorded_fingerprint() {
        // Every arrival offset (in nanoseconds), query, level and tenant of
        // a tagged open-loop schedule, pinned bit for bit.
        let process = OpenLoop::new(250.0, 4000, 31);
        let levels = WeightedMix::new(vec![0.1, 0.5, 0.4]);
        let tenants = WeightedMix::uniform(7);
        let mut bytes = Vec::new();
        for a in process.schedule_tagged(149, &levels, &tenants) {
            for v in [
                a.at.as_nanos() as u64,
                a.query_index as u64,
                a.level_index as u64,
                a.tenant_index as u64,
            ] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        assert_eq!(fnv1a(&bytes), 6153216398372160570);
    }

    #[test]
    fn open_loop_schedule_is_deterministic_and_ordered() {
        let process = OpenLoop::new(500.0, 200, 7);
        let a = process.schedule(103);
        let b = process.schedule(103);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        for pair in a.windows(2) {
            assert!(pair[0].at <= pair[1].at, "arrivals must be ordered");
        }
        assert!(a.iter().all(|arr| arr.query_index < 103));
    }

    #[test]
    fn open_loop_rate_is_roughly_respected() {
        let process = OpenLoop::new(1000.0, 5000, 42);
        let schedule = process.schedule(10);
        let span = schedule.last().unwrap().at.as_secs_f64();
        let empirical_rate = schedule.len() as f64 / span;
        assert!(
            (empirical_rate / 1000.0 - 1.0).abs() < 0.1,
            "empirical rate {empirical_rate} too far from 1000"
        );
    }

    #[test]
    fn open_loop_prefix_is_stable_across_request_counts() {
        let short = OpenLoop::new(100.0, 50, 3).schedule(20);
        let long = OpenLoop::new(100.0, 500, 3).schedule(20);
        assert_eq!(&long[..50], &short[..]);
    }

    #[test]
    fn closed_loop_sequences_are_per_client_stable() {
        let shape = ClosedLoop::new(4, 25, 11);
        let seqs = shape.sequences(103);
        assert_eq!(seqs.len(), 4);
        assert!(seqs.iter().all(|s| s.len() == 25));
        assert!(seqs.iter().flatten().all(|&i| i < 103));
        // Client 2's sequence does not depend on how many clients run.
        let fewer = ClosedLoop::new(3, 25, 11).sequences(103);
        assert_eq!(seqs[2], fewer[2]);
        // Distinct clients draw distinct streams.
        assert_ne!(seqs[0], seqs[1]);
    }

    #[test]
    #[should_panic(expected = "empty suite")]
    fn empty_suite_is_rejected() {
        OpenLoop::new(10.0, 1, 0).schedule(0);
    }

    #[test]
    fn weighted_mix_picks_by_cumulative_weight() {
        let mix = WeightedMix::new(vec![1.0, 3.0, 0.0, 4.0]);
        assert_eq!(mix.classes(), 4);
        assert_eq!(mix.pick(0.0), 0);
        assert_eq!(mix.pick(0.124), 0);
        assert_eq!(mix.pick(0.126), 1);
        assert_eq!(mix.pick(0.49), 1);
        assert_eq!(mix.pick(0.51), 3); // zero-weight class 2 is never picked
        assert_eq!(mix.pick(0.999999), 3);
        let single = WeightedMix::single(1, 3);
        for u in [0.0, 0.3, 0.99] {
            assert_eq!(single.pick(u), 1);
        }
        assert_eq!(WeightedMix::uniform(2).pick(0.6), 1);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn all_zero_mix_is_rejected() {
        WeightedMix::new(vec![0.0, 0.0]);
    }

    #[test]
    fn fault_seeds_are_deterministic_and_disjoint() {
        let seeds = FaultSeeds::new(0xFA);
        assert_eq!(seeds.seed_for(3, 1), seeds.seed_for(3, 1));
        let mut all = std::collections::HashSet::new();
        for q in 0..8 {
            for r in 0..4 {
                assert!(all.insert(seeds.seed_for(q, r)), "cell ({q},{r}) collides");
            }
        }
        assert_ne!(seeds.seed_for(0, 1), FaultSeeds::new(0xFB).seed_for(0, 1));
    }

    #[test]
    fn tagged_schedule_preserves_the_base_process() {
        let process = OpenLoop::new(800.0, 300, 13);
        let base = process.schedule(50);
        let tagged = process.schedule_tagged(
            50,
            &WeightedMix::new(vec![1.0, 4.0, 5.0]),
            &WeightedMix::uniform(4),
        );
        assert_eq!(tagged.len(), base.len());
        for (t, b) in tagged.iter().zip(&base) {
            assert_eq!(t.at, b.at, "tagging must not move arrivals");
            assert_eq!(t.query_index, b.query_index);
            assert!(t.level_index < 3);
            assert!(t.tenant_index < 4);
        }
        // A different mix re-tags but still does not move the base process.
        let retagged =
            process.schedule_tagged(50, &WeightedMix::single(0, 3), &WeightedMix::uniform(4));
        assert!(retagged.iter().all(|t| t.level_index == 0));
        for (t, b) in retagged.iter().zip(&base) {
            assert_eq!(t.at, b.at);
            assert_eq!(t.query_index, b.query_index);
        }
        // Tagging is deterministic and all classes of a mixed mix show up.
        let again = process.schedule_tagged(
            50,
            &WeightedMix::new(vec![1.0, 4.0, 5.0]),
            &WeightedMix::uniform(4),
        );
        assert_eq!(tagged, again);
        for class in 0..3 {
            assert!(tagged.iter().any(|t| t.level_index == class));
        }
    }
}
