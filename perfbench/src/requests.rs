//! Seeded request streams for the serving workload.
//!
//! The generator is a local SplitMix64, not the workspace's `rand` shim or
//! `ae_workload::ClosedLoop`, so the inputs a seed produces cannot change
//! when the code under test changes.

use ae_serve::ServiceLevel;

/// Share of requests per level: 10 % Interactive, 50 % Standard,
/// 40 % BestEffort.
pub const LEVEL_MIX: [(ServiceLevel, f64); 3] = [
    (ServiceLevel::Interactive, 0.10),
    (ServiceLevel::Standard, 0.50),
    (ServiceLevel::BestEffort, 0.40),
];

/// Requests per client stream; clients cycle through their stream.
pub const STREAM_LEN: usize = 1 << 16;

/// One request: which plan of the suite to send, at which level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub plan: u32,
    pub level: ServiceLevel,
}

/// SplitMix64: a tiny, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The request stream of one client: `len` requests over `plans` plans,
/// drawn from a stream keyed by `(seed, client)` so each client's stream is
/// independent of how many clients run.
pub fn client_stream(seed: u64, client: u64, plans: usize, len: usize) -> Vec<Request> {
    assert!(plans > 0, "cannot draw requests over an empty suite");
    let mut rng = SplitMix64(seed ^ client.wrapping_mul(0xD1B5_4A32_D192_ED03));
    (0..len)
        .map(|_| {
            let plan = (rng.next_u64() % plans as u64) as u32;
            let mut u = rng.next_f64();
            let mut level = ServiceLevel::BestEffort;
            for (candidate, share) in LEVEL_MIX {
                if u < share {
                    level = candidate;
                    break;
                }
                u -= share;
            }
            Request { plan, level }
        })
        .collect()
}

/// A seed stream for the simulation noise of the retrain workload's inputs.
pub fn derived_seed(seed: u64, purpose: u64) -> u64 {
    SplitMix64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_gives_the_same_requests_and_levels() {
        let a = client_stream(7, 0, 149, 4096);
        let b = client_stream(7, 0, 149, 4096);
        assert_eq!(a, b);
        // Pinned prefix: a change to the generator changes every input.
        let head: Vec<(u32, ServiceLevel)> = a[..4].iter().map(|r| (r.plan, r.level)).collect();
        assert_eq!(
            head,
            [
                (109, ServiceLevel::Interactive),
                (119, ServiceLevel::Standard),
                (53, ServiceLevel::Standard),
                (25, ServiceLevel::Standard),
            ]
        );
    }

    #[test]
    fn seeds_and_clients_give_distinct_streams() {
        let base = client_stream(7, 0, 149, 512);
        assert_ne!(base, client_stream(8, 0, 149, 512));
        assert_ne!(base, client_stream(7, 1, 149, 512));
        assert!(base.iter().all(|r| (r.plan as usize) < 149));
    }

    #[test]
    fn level_tags_follow_the_mix() {
        let stream = client_stream(11, 0, 149, 100_000);
        for (level, expected) in LEVEL_MIX {
            let share = stream.iter().filter(|r| r.level == level).count() as f64 / 1e5;
            assert!((share - expected).abs() < 0.01, "{level:?}: {share}");
        }
    }

    #[test]
    fn derived_seeds_differ_by_purpose_and_repeat() {
        assert_eq!(derived_seed(3, 1), derived_seed(3, 1));
        assert_ne!(derived_seed(3, 1), derived_seed(3, 2));
        assert_ne!(derived_seed(3, 1), derived_seed(4, 1));
    }
}
