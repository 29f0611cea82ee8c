//! Fleet-scale serving: shard-local runtimes behind a deterministic
//! consistent-hash router.
//!
//! One [`ScoringRuntime`](crate::ScoringRuntime) tops out near the
//! throughput of a single admission queue and batcher; the fleet layer
//! (`docs/fleet.md`) scales past that by *sharding the whole runtime*,
//! not just the workers:
//!
//! * [`ShardedRuntime`] owns N complete shard-local runtimes — each with
//!   its own admission queues, micro-batcher, RCU model cache, breaker,
//!   token buckets, stats, and observability namespace — so shards share
//!   no hot state and a fleet maps 1:1 onto N independent nodes.
//! * [`HashRing`] routes by tenant (or feature content) on a fixed
//!   virtual-node ring: placement is a pure function of `(seed, shard
//!   set, key)`, stable under unrelated shard removal. Routing alone
//!   decides placement: without a health policy, every request is
//!   scored on the shard the ring names.
//! * [`FleetStats`] aggregates per-shard counters exactly — every
//!   request is counted by the one shard that scored it.
//! * [`resilience`] makes shard loss a steady-state condition: an
//!   [`InducedFault`] (crash, stall or model outage, set and cleared with
//!   [`ShardedRuntime::induce_shard_fault`] and
//!   [`ShardedRuntime::clear_shard_fault`]) strikes one shard, a
//!   per-shard [`HealthState`] machine, advanced only by
//!   [`ShardedRuntime::tick`], quarantines failing shards
//!   (successor rerouting + backlog evacuation, the one cross-shard
//!   move of queued work), a bounded retry budget
//!   rescues failed in-flight requests, and probation re-admits
//!   recovered shards on a trickle of real traffic.

pub mod resilience;
pub mod ring;
pub mod sharded;
pub mod stats;

pub use resilience::{HealthPolicy, HealthState, InducedFault};
pub use ring::HashRing;
pub use sharded::{FleetConfig, ShardedRuntime};
pub use stats::FleetStats;
