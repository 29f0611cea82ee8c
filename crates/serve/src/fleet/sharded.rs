//! The sharded fleet runtime: N shard-local [`ScoringRuntime`]s behind a
//! deterministic consistent-hash router, with health-driven failover.
//!
//! Request flow:
//!
//! ```text
//!  client threads                    shards (config.shards)
//!  ──────────────                    ─────────────────────────────
//!  hash tenant (or features) ──────▶ shard-local ScoringRuntime:
//!  onto the current vnode ring        own queues / workers / model
//!                                     cache / breaker / stats / obs
//!                tick(now), called by the owner:
//!                failure rate / drain stall
//!                → Suspect → Quarantined (ring removal + backlog
//!                  evacuation) → Probation (trickle) → Healthy
//! ```
//!
//! The fleet runs no thread of its own: health changes only inside
//! [`ShardedRuntime::tick`], one pass over every shard at the instant the
//! caller passes, so tests drive it step by step on a virtual clock.
//!
//! Contracts, pinned by `tests/fleet_determinism.rs`,
//! `tests/fleet_stress.rs`, and `tests/fleet_resilience.rs`:
//!
//! * **Routing is deterministic**: placement is a pure function of
//!   `(ring seed, current ring membership, tenant)` — never of thread
//!   interleaving, load, or wall-clock (see [`HashRing`]). With no
//!   health policy the membership never changes, so routing reduces to
//!   a pure function of `(seed, shard count, tenant)`, and every request
//!   is scored on the shard the ring names.
//! * **Sharding never changes answers**: scoring is a pure function of
//!   features and model, so which shard (routed shard, evacuee host, or
//!   failover target) scores a request can only change *when* it
//!   completes, never the
//!   [`ResourceRequest`](autoexecutor::optimizer::ResourceRequest). A
//!   1-shard fleet in deterministic mode is bit-identical to a bare
//!   [`ScoringRuntime`].
//! * **Counters are exact**: every request is counted by exactly one
//!   shard — the one that scored it — so [`FleetStats::aggregate`]
//!   totals equal the sum of per-shard counters with no double-count on
//!   evacuated or retried requests. A rescued failover retry
//!   leaves one error on the failed shard and one completion on the
//!   target, so `aggregate().errors` equals client-visible errors plus
//!   [`FleetStats::failover_retries`].
//!
//! There is no cross-shard work stealing: on skewed floods it made the
//! slowest shard finish later, not sooner (`docs/fleet.md`, "No work
//! stealing"). Quarantine evacuation is the only cross-shard move.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex as StdMutex, Weak};
use std::time::Instant;

use ae_obs::{EventKind, EventSink, MetricSource, MetricValue};
use autoexecutor::config::AutoExecutorConfig;
use autoexecutor::registry::ModelRegistry;
use parking_lot::RwLock;

use super::resilience::{HealthPolicy, HealthState, InducedFault, RetryBudget};
use super::ring::HashRing;
use super::stats::FleetStats;
use crate::config::RuntimeConfig;
use crate::obs::EVENT_CAPACITY;
use crate::qos::{QueuedRequest, ServiceLevel};
use crate::runtime::{lock, ScoreOutcome, ScoreRequest, ScoreTicket, ScoringRuntime};
use crate::{Result, ServeError};

/// Virtual nodes per shard: enough that per-shard load shares
/// concentrate near `1/N` for the fleet sizes the bench drives (≤ 8).
const VNODES_PER_SHARD: usize = 128;

/// Ring seed. Fixed so that every fleet of the same shard count routes
/// identically.
const RING_SEED: u64 = 0x0AE5_E11F_1EE7;

/// The fixed part of the health rule (see [`HealthPolicy`]): a window is
/// bad at this share of failed answers (errors plus degraded answers);
/// probation diverts every `PROBATION_STRIDE`-th non-`Interactive`
/// submission and re-admits after `PROBATION_MIN_COMPLETIONS` clean
/// completions and `PROBATION_CHECKS` consecutive clean checks (no
/// errors, no degraded answers).
const ERROR_RATE_THRESHOLD: f64 = 0.5;
const PROBATION_STRIDE: u64 = 4;
const PROBATION_MIN_COMPLETIONS: u64 = 8;
const PROBATION_CHECKS: u32 = 2;

/// Configuration of a [`ShardedRuntime`]: how many shards, the
/// health/failover policy, and the per-shard [`RuntimeConfig`] template.
/// The ring layout is fixed (128 vnodes per shard, one seed), so two
/// fleets with the same shard count route every tenant identically.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shard-local runtimes (clamped to `1..=u16::MAX`).
    pub shards: usize,
    /// Health checks, quarantine/failover, and probationary recovery,
    /// driven by [`ShardedRuntime::tick`]; `None` (the default) makes
    /// `tick` a no-op and never changes the ring (see
    /// `docs/resilience.md`).
    pub health: Option<HealthPolicy>,
    /// Template for every shard's [`ScoringRuntime`]. When observability
    /// is configured, each shard registers under
    /// `{prefix}.shard{i}` and the fleet itself under `{prefix}.fleet`.
    pub runtime: RuntimeConfig,
}

impl FleetConfig {
    /// A fleet of `shards` runtimes built from the given per-shard
    /// template, with no health policy.
    pub fn new(shards: usize, runtime: RuntimeConfig) -> Self {
        Self {
            shards,
            health: None,
            runtime,
        }
    }

    /// Deterministic fleet: every shard in
    /// [`RuntimeConfig::deterministic`] mode and no health policy, so
    /// completion sets, per-shard placement, and (for a 1-shard fleet)
    /// the full observable behavior are reproducible. Scores are
    /// bit-identical to the sequential rule at any shard count — routing
    /// only decides *where* a request is scored, never its answer.
    pub fn deterministic(shards: usize, config: &AutoExecutorConfig) -> Self {
        Self::new(shards, RuntimeConfig::deterministic(config))
    }

    /// Enables health checks, quarantine/failover, and probationary
    /// recovery with the given policy.
    pub fn with_health(mut self, policy: HealthPolicy) -> Self {
        self.health = Some(policy);
        self
    }

    fn sanitized(mut self) -> Self {
        self.shards = self.shards.clamp(1, u16::MAX as usize);
        self.health = self.health.map(HealthPolicy::sanitized);
        self
    }
}

/// The fleet's state, shared with its metrics source.
struct FleetShared {
    shards: Vec<ScoringRuntime>,
    /// The current routing ring: members are exactly the shards whose
    /// [`HealthState::is_routable`]. Rebuilt (never mutated in place) on
    /// quarantine and recovery; with no health policy it never changes.
    ring: RwLock<HashRing>,
    /// Per-shard [`HealthState`] words (written only by ticks).
    health: Vec<AtomicU8>,
    /// The sanitized health policy, when health checks are enabled.
    health_policy: Option<HealthPolicy>,
    /// Per-shard bookkeeping between health passes. Its lock serializes
    /// ticks, and shutdown takes it so no pass races the drain.
    books: StdMutex<Vec<ShardBook>>,
    /// The failover retry token bucket (present iff a health policy with
    /// a non-zero budget is configured on a multi-shard fleet).
    retry_budget: Option<RetryBudget>,
    quarantines: AtomicU64,
    recoveries: AtomicU64,
    evacuated_requests: AtomicU64,
    failover_retries: AtomicU64,
    retries_denied: AtomicU64,
    /// Round-robin counter for the probation trickle diversion.
    probe_counter: AtomicU64,
    /// Fast-path gate: true iff some shard is in [`HealthState::Probation`].
    /// False in steady state, so submission pays one relaxed load.
    probation_active: AtomicBool,
    /// Fleet-level event sink (quarantines, recoveries, retries,
    /// evacuations); present only when the per-shard template enables
    /// observability.
    events: Option<EventSink>,
    /// Set by the first [`ShardedRuntime::shutdown`] caller; ticks stop,
    /// and failover stops retrying so shutdown errors propagate
    /// unamplified.
    shutting_down: AtomicBool,
}

impl FleetShared {
    fn record_event(&self, kind: EventKind) {
        if let Some(events) = &self.events {
            events.record(kind);
        }
    }

    fn health_state(&self, shard: usize) -> HealthState {
        HealthState::from_u8(self.health[shard].load(Ordering::Acquire))
    }

    fn set_health(&self, shard: usize, state: HealthState) {
        self.health[shard].store(state as u8, Ordering::Release);
    }

    /// Shard indices currently eligible for routing.
    fn routable_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&shard| self.health_state(shard).is_routable())
            .collect()
    }

    /// Rebuilds the routing ring from the current routable membership.
    /// Non-members' vnode points are untouched by construction, so every
    /// surviving shard keeps its keys (the removal-stability contract).
    fn rebuild_ring(&self) {
        let members: Vec<u16> = self
            .routable_shards()
            .into_iter()
            .map(|shard| shard as u16)
            .collect();
        let ring = HashRing::with_shard_ids(RING_SEED, VNODES_PER_SHARD, &members);
        *self.ring.write() = ring;
    }

    /// Recomputes the probation fast-path gate.
    fn refresh_probation_flag(&self) {
        let any =
            (0..self.shards.len()).any(|shard| self.health_state(shard) == HealthState::Probation);
        self.probation_active.store(any, Ordering::Release);
    }
}

/// Publishes the fleet's own counters (resilience accounting,
/// membership, per-shard health) under `{prefix}.fleet`; the per-shard
/// runtime counters are published by each shard's own stats source under
/// `{prefix}.shard{i}`.
struct FleetSource {
    prefix: String,
    shared: Weak<FleetShared>,
}

impl MetricSource for FleetSource {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        let p = &self.prefix;
        let counters = [
            ("quarantines", &shared.quarantines),
            ("recoveries", &shared.recoveries),
            ("evacuated_requests", &shared.evacuated_requests),
            ("failover_retries", &shared.failover_retries),
            ("retries_denied", &shared.retries_denied),
        ];
        for (name, counter) in counters {
            out.push((
                format!("{p}.{name}"),
                MetricValue::Counter(counter.load(Ordering::Relaxed)),
            ));
        }
        out.push((
            format!("{p}.shards"),
            MetricValue::Gauge(shared.shards.len() as f64),
        ));
        out.push((
            format!("{p}.routable_shards"),
            MetricValue::Gauge(shared.routable_shards().len() as f64),
        ));
        for shard in 0..shared.shards.len() {
            out.push((
                format!("{p}.health.shard{shard}"),
                MetricValue::Gauge(f64::from(shared.health_state(shard) as u8)),
            ));
        }
    }
}

/// Per-shard bookkeeping kept between health passes.
#[derive(Default)]
struct ShardBook {
    /// Cumulative counters at the previous check (window deltas).
    completed: u64,
    errors: u64,
    degraded: u64,
    /// Consecutive checks with queued work and zero progress.
    stall_streak: u32,
    /// When the shard entered quarantine.
    quarantined_at: Option<Instant>,
    /// Cumulative `(completed, errors, degraded)` at probation start.
    probation_base: Option<(u64, u64, u64)>,
    /// Consecutive clean probation checks.
    clean_checks: u32,
}

/// One health check of one shard at `now`: advance the window deltas,
/// then drive the `Healthy → Suspect → Quarantined → Probation` machine.
/// Reads no clock itself: the quarantine hold is judged at `now`.
fn check_shard(
    shared: &FleetShared,
    policy: &HealthPolicy,
    shard: usize,
    book: &mut ShardBook,
    now: Instant,
) {
    let stats = shared.shards[shard].stats();
    let window_completed = stats.completed.saturating_sub(book.completed);
    let window_errors = stats.errors.saturating_sub(book.errors);
    let window_degraded = stats.degraded.saturating_sub(book.degraded);
    book.completed = stats.completed;
    book.errors = stats.errors;
    book.degraded = stats.degraded;
    match shared.health_state(shard) {
        state @ (HealthState::Healthy | HealthState::Suspect) => {
            let events = window_completed + window_errors;
            let mut bad = false;
            // Failure-rate signal, gated on a minimum event count so one
            // unlucky request cannot condemn an idle shard. A degraded
            // answer (counted in `completed`) fails like an error: behind
            // a breaker, a model outage produces no errors at all.
            if events >= policy.min_window_events.max(1)
                && (window_errors + window_degraded) as f64 >= ERROR_RATE_THRESHOLD * events as f64
            {
                bad = true;
            }
            // Drain-stall watchdog: queued work, zero progress, for
            // `stall_checks` consecutive checks (a wedged or straggling
            // shard that produces neither completions nor errors).
            if shared.shards[shard].queue_depth() >= policy.stall_depth.max(1)
                && window_completed == 0
                && window_errors == 0
            {
                book.stall_streak += 1;
                if book.stall_streak >= policy.stall_checks {
                    bad = true;
                }
            } else {
                book.stall_streak = 0;
            }
            if bad {
                if state == HealthState::Healthy {
                    shared.set_health(shard, HealthState::Suspect);
                } else {
                    quarantine(shared, shard, book, now);
                }
            } else if state == HealthState::Suspect && events > 0 {
                // A clean window with real traffic clears the suspicion.
                shared.set_health(shard, HealthState::Healthy);
            }
        }
        HealthState::Quarantined => {
            let held_long_enough = match book.quarantined_at {
                Some(at) => now.saturating_duration_since(at) >= policy.quarantine_hold,
                None => true,
            };
            if held_long_enough {
                shared.set_health(shard, HealthState::Probation);
                book.probation_base = Some((stats.completed, stats.errors, stats.degraded));
                book.clean_checks = 0;
                shared.refresh_probation_flag();
            }
        }
        HealthState::Probation => {
            let (base_completed, base_errors, base_degraded) =
                book.probation_base
                    .unwrap_or((stats.completed, stats.errors, stats.degraded));
            // A degraded answer fails the trickle as an error does: behind
            // an open breaker, a shard whose model path is still down
            // answers from the heuristic and produces no errors at all.
            if stats.errors > base_errors || stats.degraded > base_degraded {
                // The trickle failed: back to quarantine (counted again),
                // and evacuate whatever the trickle queued on it.
                quarantine(shared, shard, book, now);
            } else {
                book.clean_checks += 1;
                let proven =
                    stats.completed.saturating_sub(base_completed) >= PROBATION_MIN_COMPLETIONS;
                if proven && book.clean_checks >= PROBATION_CHECKS {
                    recover(shared, shard, book);
                }
            }
        }
    }
}

/// Quarantines a shard: off the ring (successor rerouting), backlog
/// evacuated to survivors, hold timer started at `now`. Refuses to
/// remove the last routable shard — a fleet with nowhere to route keeps
/// serving (however badly) rather than blackholing everything.
fn quarantine(shared: &FleetShared, shard: usize, book: &mut ShardBook, now: Instant) {
    let was_probation = shared.health_state(shard) == HealthState::Probation;
    if !was_probation && shared.routable_shards().len() <= 1 {
        return;
    }
    shared.set_health(shard, HealthState::Quarantined);
    if !was_probation {
        // A probation shard is already off the ring.
        shared.rebuild_ring();
    }
    shared.quarantines.fetch_add(1, Ordering::Relaxed);
    book.quarantined_at = Some(now);
    book.stall_streak = 0;
    book.probation_base = None;
    book.clean_checks = 0;
    shared.record_event(EventKind::ShardQuarantine {
        shard: shard as u16,
    });
    evacuate(shared, shard);
    shared.refresh_probation_flag();
}

/// Re-admits a probation shard: back on the ring, counters reset.
fn recover(shared: &FleetShared, shard: usize, book: &mut ShardBook) {
    shared.set_health(shard, HealthState::Healthy);
    shared.rebuild_ring();
    shared.recoveries.fetch_add(1, Ordering::Relaxed);
    book.quarantined_at = None;
    book.probation_base = None;
    book.clean_checks = 0;
    book.stall_streak = 0;
    shared.record_event(EventKind::ShardRecover {
        shard: shard as u16,
    });
    shared.refresh_probation_flag();
}

/// Evacuates a quarantined shard's migratable backlog (`Standard` ∪
/// `BestEffort`; `Interactive` always drains on its home shard) into the
/// surviving routable shards, shallowest first, split evenly; each
/// survivor's EDF heaps order what it receives. Every ticket survives: a
/// survivor rejects an injection only while shutting down, in which case
/// the batch cascades to the next survivor, then re-homes to the victim
/// (whose workers still run under quarantine), then — both ends shutting
/// down — fails with `ShutDown` exactly like shutdown's own queue drain.
fn evacuate(shared: &FleetShared, from: usize) {
    let mut remaining: Vec<QueuedRequest> = shared.shards[from].take_evacuable();
    if remaining.is_empty() {
        return;
    }
    let total = remaining.len();
    let mut survivors: Vec<usize> = shared
        .routable_shards()
        .into_iter()
        .filter(|&shard| shard != from)
        .collect();
    survivors.sort_by_key(|&shard| shared.shards[shard].queue_depth());
    let count = survivors.len();
    for (index, &target) in survivors.iter().enumerate() {
        if remaining.is_empty() {
            break;
        }
        let share = remaining.len().div_ceil(count - index);
        let batch: Vec<QueuedRequest> = remaining.drain(..share).collect();
        let rejected = shared.shards[target].inject_backlog(batch);
        remaining.extend(rejected);
    }
    let moved = total - remaining.len();
    if !remaining.is_empty() {
        let stranded = shared.shards[from].inject_backlog(remaining);
        if !stranded.is_empty() {
            shared.shards[from].abandon_backlog(stranded);
        }
    }
    if moved > 0 {
        shared
            .evacuated_requests
            .fetch_add(moved as u64, Ordering::Relaxed);
        shared.record_event(EventKind::BacklogEvacuation {
            from_shard: from as u16,
            count: moved.min(u32::MAX as usize) as u32,
        });
    }
}

/// True for errors a cross-shard retry can plausibly rescue: the failed
/// shard's model/scoring path is down, or that one shard is shutting
/// down. Saturation, shedding, and throttling are *policy* outcomes —
/// retrying them elsewhere would launder QoS decisions.
fn retryable(error: &ServeError) -> bool {
    matches!(
        error,
        ServeError::Model(_) | ServeError::Scoring(_) | ServeError::ShutDown
    )
}

/// The ring key a request routes by: its tenant's position, or — for
/// untenanted requests — the position of its feature content.
fn routing_key(request: &ScoreRequest) -> u64 {
    match request.tenant() {
        Some(tenant) => HashRing::key_for_tenant(tenant),
        None => HashRing::key_for_features(request.features()),
    }
}

/// A fleet of shard-local [`ScoringRuntime`]s behind a deterministic
/// consistent-hash router, with optional health-driven failover. See the
/// [module docs](self) for the architecture and contracts.
///
/// Construct with [`ShardedRuntime::new`]; submit from any thread with
/// [`submit`](Self::submit) (blocking, with failover) or
/// [`submit_detached`](Self::submit_detached) (a ticket); inspect with
/// [`stats`](Self::stats) (per-shard + aggregate + health); stop with
/// [`shutdown`](Self::shutdown) (or drop the handle).
pub struct ShardedRuntime {
    shared: Arc<FleetShared>,
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("shards", &self.shared.shards.len())
            .field("queue_depths", &self.queue_depths())
            .field("health", &self.health())
            .finish()
    }
}

impl ShardedRuntime {
    /// Builds the fleet: `config.shards` runtimes over one registry and
    /// model name and the fixed-seed vnode ring. The fleet starts no
    /// thread beyond the shards' workers: health checks run only when the
    /// owner calls [`tick`](Self::tick).
    ///
    /// With observability configured in the per-shard template, shard `i`
    /// registers its metrics under `{prefix}.shard{i}` and the fleet
    /// registers its own counters under `{prefix}.fleet` — all in the
    /// same registry, no name collisions.
    pub fn new(
        registry: Arc<ModelRegistry>,
        model_name: impl Into<String>,
        config: FleetConfig,
    ) -> Self {
        let config = config.sanitized();
        let model_name = model_name.into();
        let base_obs = config.runtime.observability.clone();
        let shards: Vec<ScoringRuntime> = (0..config.shards)
            .map(|shard| {
                let mut runtime_config = config.runtime.clone();
                if let Some(obs) = &mut runtime_config.observability {
                    obs.prefix = format!("{}.shard{shard}", obs.prefix);
                }
                ScoringRuntime::new(Arc::clone(&registry), model_name.clone(), runtime_config)
            })
            .collect();
        // Health checks and failover need somewhere to fail over to.
        let health_policy = config.health.filter(|_| config.shards > 1);
        let retry_budget = health_policy
            .as_ref()
            .filter(|policy| policy.retry_budget > 0)
            .map(|policy| RetryBudget::new(policy.retry_budget, policy.retry_refill_per_sec));
        let shared = Arc::new(FleetShared {
            ring: RwLock::new(HashRing::new(RING_SEED, VNODES_PER_SHARD, config.shards)),
            health: (0..config.shards)
                .map(|_| AtomicU8::new(HealthState::Healthy as u8))
                .collect(),
            health_policy,
            books: StdMutex::new((0..config.shards).map(|_| ShardBook::default()).collect()),
            retry_budget,
            shards,
            quarantines: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            evacuated_requests: AtomicU64::new(0),
            failover_retries: AtomicU64::new(0),
            retries_denied: AtomicU64::new(0),
            probe_counter: AtomicU64::new(0),
            probation_active: AtomicBool::new(false),
            events: base_obs.as_ref().map(|_| EventSink::new(EVENT_CAPACITY)),
            shutting_down: AtomicBool::new(false),
        });
        if let Some(obs) = &base_obs {
            obs.registry.register_source(Box::new(FleetSource {
                prefix: format!("{}.fleet", obs.prefix),
                shared: Arc::downgrade(&shared),
            }));
        }
        Self { shared }
    }

    /// Runs one health pass at `now`: refills the retry budget for the
    /// time since the previous tick, then checks every shard over the
    /// window since the previous pass, judging holds at `now`. The
    /// caller owns the period and the clock. Ticks are
    /// serialized, and do nothing without a health policy, on a one-shard
    /// fleet, or once shutdown has begun.
    pub fn tick(&self, now: Instant) {
        let shared = &*self.shared;
        let Some(policy) = &shared.health_policy else {
            return;
        };
        let mut books = lock(&shared.books);
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        if let Some(budget) = &shared.retry_budget {
            budget.refill(now);
        }
        for (shard, book) in books.iter_mut().enumerate() {
            check_shard(shared, policy, shard, book, now);
        }
    }

    /// Pre-resolves the model on every shard (each shard holds its own
    /// decoded-model cache), so no shard pays the cold-start decode on
    /// its first request.
    pub fn warm(&self) -> Result<()> {
        for shard in &self.shared.shards {
            shard.warm()?;
        }
        Ok(())
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Direct handle to one shard's runtime (tests and benchmarks; going
    /// through the shard handle bypasses the router).
    pub fn shard(&self, shard: usize) -> &ScoringRuntime {
        &self.shared.shards[shard]
    }

    /// A snapshot of the fleet's current consistent-hash ring (members
    /// are the routable shards; without a health policy, all of them).
    pub fn ring(&self) -> HashRing {
        self.shared.ring.read().clone()
    }

    /// One shard's current health state.
    pub fn shard_health(&self, shard: usize) -> HealthState {
        self.shared.health_state(shard)
    }

    /// Every shard's current health state, indexed by shard id.
    pub fn health(&self) -> Vec<HealthState> {
        (0..self.shared.shards.len())
            .map(|shard| self.shared.health_state(shard))
            .collect()
    }

    /// Induces a fault on one shard: the one way to fault a shard, for
    /// tests and operational drills, which pick the window by calling
    /// [`clear_shard_fault`](Self::clear_shard_fault) later. Takes effect
    /// on the shard's next scoring call; overwrites any prior induced
    /// fault.
    pub fn induce_shard_fault(&self, shard: usize, fault: InducedFault) {
        self.shared.shards[shard].set_induced_fault(Some(fault));
    }

    /// Clears any induced fault on one shard. Service recovers on
    /// the next batch (modulo a still-open breaker cooling down); ring
    /// re-admission is the probation path of later ticks, not this.
    pub fn clear_shard_fault(&self, shard: usize) {
        self.shared.shards[shard].set_induced_fault(None);
    }

    /// The currently induced fault on one shard, if any.
    pub fn shard_fault(&self, shard: usize) -> Option<InducedFault> {
        self.shared.shards[shard].induced_fault()
    }

    /// The shard a request routes to: its tenant's position on the
    /// current ring, or — for untenanted requests — the position of its
    /// feature content. A pure function of the request and the current
    /// ring membership (which only a health policy ever changes).
    pub fn route(&self, request: &ScoreRequest) -> usize {
        self.shared.ring.read().shard_for_key(routing_key(request)) as usize
    }

    /// The shard a tenant routes to on the current ring.
    pub fn shard_for_tenant(&self, tenant: crate::tenant::TenantId) -> usize {
        self.shared.ring.read().shard_for_tenant(tenant) as usize
    }

    /// [`route`](Self::route), plus the probation trickle: when some
    /// shard is in [`HealthState::Probation`], every
    /// `PROBATION_STRIDE`-th non-`Interactive` submission diverts to it
    /// as the fleet-level half-open probe. `Interactive` traffic never
    /// probes — its deadlines are too tight to gamble on a recovering
    /// shard. One relaxed load in steady state.
    fn route_for_submit(&self, request: &ScoreRequest) -> usize {
        let shard = self.route(request);
        if !self.shared.probation_active.load(Ordering::Acquire)
            || request.level() == ServiceLevel::Interactive
        {
            return shard;
        }
        let probe = self.shared.probe_counter.fetch_add(1, Ordering::Relaxed);
        if !probe.is_multiple_of(PROBATION_STRIDE) {
            return shard;
        }
        (0..self.shared.shards.len())
            .find(|&candidate| self.shared.health_state(candidate) == HealthState::Probation)
            .unwrap_or(shard)
    }

    /// Routes and submits with backpressure, blocking until the result is
    /// ready (the fleet analogue of [`ScoringRuntime::submit`]). With a
    /// health policy configured, a retryable error from the routed shard
    /// is re-submitted once to a surviving ring member (the key's
    /// successor with the failed shard removed), bounded by the retry
    /// token bucket, which the call takes from without reading a clock.
    /// Without a health policy this adds nothing to the call — no clone,
    /// no extra branch beyond one `None` check.
    pub fn submit(&self, request: ScoreRequest) -> Result<ScoreOutcome> {
        let shard = self.route_for_submit(&request);
        let Some(budget) = &self.shared.retry_budget else {
            return self.shared.shards[shard].submit(request);
        };
        let retry = request.clone();
        let error = match self.shared.shards[shard].submit(request) {
            Ok(outcome) => return Ok(outcome),
            Err(error) => error,
        };
        if !retryable(&error) || self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(error);
        }
        let Some(target) = self.failover_target(&retry, shard) else {
            return Err(error);
        };
        if !budget.try_take() {
            self.shared.retries_denied.fetch_add(1, Ordering::Relaxed);
            return Err(error);
        }
        self.shared.failover_retries.fetch_add(1, Ordering::Relaxed);
        self.shared.record_event(EventKind::FailoverRetry {
            from_shard: shard as u16,
            to_shard: target as u16,
        });
        self.shared.shards[target].submit(retry)
    }

    /// The failover destination for a request whose routed shard failed:
    /// the key's successor on the current ring with the failed shard
    /// removed (deterministic — the same rerouting quarantining that
    /// shard would cause). `None` when no other shard is routable.
    fn failover_target(&self, request: &ScoreRequest, from: usize) -> Option<usize> {
        let ring = self.shared.ring.read();
        let key = routing_key(request);
        let candidate = ring.shard_for_key(key) as usize;
        if candidate != from {
            // The ring already routes elsewhere (the shard was
            // quarantined between routing and failure).
            return Some(candidate);
        }
        if ring.num_shards() <= 1 {
            return None;
        }
        Some(ring.without_shard(from as u16).shard_for_key(key) as usize)
    }

    /// Routes and admits a detached submission (with backpressure),
    /// returning the shard's [`ScoreTicket`]. Detached tickets redeem on
    /// their admitting shard; failover applies to [`submit`](Self::submit),
    /// where the caller is still present to re-submit.
    pub fn submit_detached(&self, request: ScoreRequest) -> Result<ScoreTicket> {
        let shard = self.route_for_submit(&request);
        self.shared.shards[shard].submit_detached(request)
    }

    /// Per-shard queue depths (queued-but-undrained requests).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shared.shards.iter().map(|s| s.queue_depth()).collect()
    }

    /// A point-in-time snapshot of every shard's counters plus the
    /// fleet's resilience accounting.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            shards: self.shared.shards.iter().map(|s| s.stats()).collect(),
            quarantines: self.shared.quarantines.load(Ordering::Relaxed),
            recoveries: self.shared.recoveries.load(Ordering::Relaxed),
            evacuated_requests: self.shared.evacuated_requests.load(Ordering::Relaxed),
            failover_retries: self.shared.failover_retries.load(Ordering::Relaxed),
            retries_denied: self.shared.retries_denied.load(Ordering::Relaxed),
            health: self.health(),
        }
    }

    /// The fleet-level event sink (quarantines, recoveries, failover
    /// retries, evacuations), when the per-shard template
    /// enables observability. Per-shard events stay in each shard's own
    /// sink ([`ScoringRuntime::observability`]).
    pub fn events(&self) -> Option<&EventSink> {
        self.shared.events.as_ref()
    }

    /// Stops the fleet: ticks first (a tick in progress, evacuation
    /// included, completes before any shard begins draining, and later
    /// ticks do nothing), then every shard — in-flight batches finish,
    /// queued requests fail with [`ServeError::ShutDown`], workers are
    /// joined. Idempotent and safe to call concurrently (each worker is
    /// joined exactly once; stats are not double-counted); dropping the
    /// handle shuts down too.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        drop(lock(&self.shared.books));
        for shard in &self.shared.shards {
            shard.shutdown();
        }
    }
}

impl Drop for ShardedRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_config_builders_and_clamps() {
        let cfg = AutoExecutorConfig::default();
        let fleet = FleetConfig::new(0, RuntimeConfig::from_auto_executor(&cfg));
        assert!(fleet.health.is_none());
        let fleet = fleet.sanitized();
        assert_eq!(fleet.shards, 1);
        let det = FleetConfig::deterministic(4, &cfg);
        assert!(det.health.is_none());
        assert_eq!(det.runtime.workers, 1);
        let monitored = FleetConfig::new(2, RuntimeConfig::deterministic(&cfg))
            .with_health(HealthPolicy::default());
        assert!(monitored.health.is_some());
    }

    #[test]
    fn retryable_errors_exclude_policy_outcomes() {
        assert!(retryable(&ServeError::Model("down".into())));
        assert!(retryable(&ServeError::Scoring("crash".into())));
        assert!(retryable(&ServeError::ShutDown));
        assert!(!retryable(&ServeError::Saturated));
        assert!(!retryable(&ServeError::Shed));
        assert!(!retryable(&ServeError::Throttled(crate::tenant::TenantId(
            7
        ))));
    }
}
