//! The concurrent batched, QoS-aware scoring runtime.
//!
//! Request flow:
//!
//! ```text
//!  client threads                        workers (config.workers)
//!  ──────────────                        ────────────────────────
//!  featurize plan, check width           wake on the first queued request
//!  tenant token bucket                   drain min(queued, max_batch):
//!  (grant / demote / reject)             WRR across levels, EDF within level
//!  busy? → per-level EDF queue ────────▶ lay rows out in one FeatureMatrix
//!          (full? shed BestEffort)                   │
//!  idle? → one-row FeatureMatrix ──┐                 │
//!                                  ▼                 ▼
//!           score_rows: induced fault, breaker, registry lookup,
//!                       the thread's own model copy, batched
//!                       kernel, heuristic fallback
//!                                  │
//!           complete: deadline hit/miss per level, degraded, latency
//!                                  │
//!  inline answer / completion ◀────┘
//! ```
//!
//! Inline and batched requests differ only in who calls the scoring
//! point and which path counter they bump (`inline_scored` or a batch).
//!
//! Every scoring thread, client or worker, runs the kernel on its own copy
//! of the registered model's compiled arena, made on its first score of a
//! registration: one arena per scoring thread is the memory the runtime
//! trades for threads that never walk the same nodes.
//!
//! Batching is natural: a worker never waits for a batch to fill. It takes
//! whatever has queued while it was busy, so batches grow with load and a
//! lone queued request is scored as soon as a worker is free.
//!
//! Scoring is pure (no RNG, no shared mutable state), so results are a
//! function of the submitted plan and the registered model only — batching,
//! worker count, service level, and scheduling order cannot change any
//! individual [`ResourceRequest`]. QoS affects *when* a request is scored
//! (its queueing delay, and whether it survives saturation), never
//! *answers*.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ae_engine::plan::QueryPlan;
use ae_ml::matrix::FeatureMatrix;
use ae_ml::portable::PortableModel;
use ae_obs::{EventKind, MetricSource, MetricValue};
use autoexecutor::features::{featurize_plan, full_feature_names};
use autoexecutor::optimizer::ResourceRequest;
use autoexecutor::registry::ModelRegistry;
use autoexecutor::scoring;
use autoexecutor::training::ParameterModel;
use parking_lot::RwLock;

use crate::breaker::{heuristic_request, Breaker};
use crate::config::RuntimeConfig;
use crate::fleet::resilience::{decode_fault, encode_fault, InducedFault};
use crate::obs::RuntimeObs;
use crate::qos::{self, PriceQuote, PriorityQueues, QueuedRequest, ServiceLevel};
use crate::stats::{RuntimeStats, StatsInner};
use crate::tenant::{Admission, TenantGovernor, TenantId};
use crate::{Result, ServeError};

/// Budgets are clamped so `Instant + budget` can never overflow (a year is
/// "forever" for a scoring call).
const MAX_DEADLINE_BUDGET: Duration = Duration::from_secs(365 * 24 * 3600);

/// Locks a std mutex, recovering from poisoning (a panicking worker must
/// not wedge every client).
pub(crate) fn lock<T>(mutex: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// One scoring request with its QoS envelope: what to score, at which
/// service level, on whose behalf, and under what deadline.
///
/// Build one with [`from_plan`](Self::from_plan) (featurizes the plan) or
/// [`from_features`](Self::from_features), then refine with the `with_*`
/// builders. The default envelope is [`ServiceLevel::Standard`], no tenant
/// (exempt from fairness policing), and the level's configured deadline
/// budget.
#[derive(Debug, Clone)]
pub struct ScoreRequest {
    features: Vec<f64>,
    level: ServiceLevel,
    tenant: Option<TenantId>,
    deadline_budget: Option<Duration>,
}

impl ScoreRequest {
    /// A request for an optimized plan (featurized here, like the
    /// optimizer rule does).
    pub fn from_plan(plan: &QueryPlan) -> Self {
        Self::from_features(featurize_plan(plan))
    }

    /// A request for an already-featurized plan.
    pub fn from_features(features: Vec<f64>) -> Self {
        Self {
            features,
            level: ServiceLevel::Standard,
            tenant: None,
            deadline_budget: None,
        }
    }

    /// Sets the service level.
    pub fn with_level(mut self, level: ServiceLevel) -> Self {
        self.level = level;
        self
    }

    /// Attributes the request to a tenant (subject to the fairness policy).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Overrides the level's deadline budget for this request.
    /// `Duration::ZERO` is honored literally: the request is admitted and
    /// scored, and counts as a deadline miss.
    pub fn with_deadline_budget(mut self, budget: Duration) -> Self {
        self.deadline_budget = Some(budget);
        self
    }

    /// The requested service level.
    pub fn level(&self) -> ServiceLevel {
        self.level
    }

    /// The tenant the request is attributed to, if any. The fleet router
    /// keys consistent hashing on this.
    pub fn tenant(&self) -> Option<TenantId> {
        self.tenant
    }

    /// The featurized plan (the fleet router hashes untenanted requests
    /// by feature content so placement stays deterministic).
    pub(crate) fn features(&self) -> &[f64] {
        &self.features
    }
}

/// The answer to a [`ScoreRequest`]: the scored resource request plus its
/// QoS disposition.
#[derive(Debug, Clone)]
pub struct ScoreOutcome {
    /// The scored plan: executor count, predicted PPM, predicted curve —
    /// identical to what the sequential optimizer rule returns, regardless
    /// of level.
    pub request: ResourceRequest,
    /// The level the request was *served* at (differs from the requested
    /// level only when the tenant governor demoted it).
    pub level: ServiceLevel,
    /// True when the request was fulfilled after its deadline.
    pub missed_deadline: bool,
    /// Admission-to-fulfillment latency as observed by the runtime
    /// (queueing delay + batching + scoring; excludes client-side
    /// featurization).
    pub latency: Duration,
    /// True when the answer came from the heuristic fallback because the
    /// circuit breaker had the model path open (degraded mode). Always
    /// false when [`crate::RuntimeConfig::breaker`] is `None`.
    pub degraded: bool,
    /// Pricing inputs captured from the runtime's QoS config so
    /// [`quote`](Self::quote) can derive the price lazily.
    quote_targets: [f64; ServiceLevel::COUNT],
    quote_unit_price: f64,
}

impl ScoreOutcome {
    /// The price of this query's promise at the served level, derived on
    /// demand from the predicted curve (a caller that only wants the
    /// request never pays for pricing it discards). `None` only when the
    /// predicted curve is empty (never for a successfully scored request
    /// in practice).
    pub fn quote(&self) -> Option<PriceQuote> {
        qos::price_quote_parts(
            &self.request.predicted_curve,
            self.level,
            &self.quote_targets,
            self.quote_unit_price,
        )
    }
}

/// A one-shot completion slot the submitting thread blocks on.
#[derive(Default)]
pub(crate) struct Completion {
    slot: StdMutex<Option<Result<ScoreOutcome>>>,
    ready: Condvar,
}

impl Completion {
    pub(crate) fn fulfill(&self, result: Result<ScoreOutcome>) {
        *lock(&self.slot) = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<ScoreOutcome> {
        let mut guard = lock(&self.slot);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }

    /// Like [`wait`](Self::wait), but gives up after `timeout` and returns
    /// `None` — the slot stays armed, so a later wait can still redeem it.
    fn wait_timeout(&self, timeout: Duration) -> Option<Result<ScoreOutcome>> {
        let deadline = Instant::now() + timeout.min(MAX_DEADLINE_BUDGET);
        let mut guard = lock(&self.slot);
        loop {
            if let Some(result) = guard.take() {
                return Some(result);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _timed_out) = self
                .ready
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|poison| poison.into_inner());
            guard = next;
        }
    }
}

/// A pending detached submission, returned by
/// [`ScoringRuntime::submit_detached`] /
/// [`ScoringRuntime::try_submit_detached`]: the request is admitted and
/// will be scored whether or not the ticket is redeemed; [`wait`](Self::wait)
/// blocks until the result is ready and returns the [`ScoreOutcome`].
/// Dropping a ticket abandons the *result*, not the request.
#[must_use = "the scored result is only observable by waiting on the ticket"]
pub struct ScoreTicket {
    done: Arc<Completion>,
    level: ServiceLevel,
}

impl ScoreTicket {
    /// The service level the request was admitted at (after any demotion).
    pub fn level(&self) -> ServiceLevel {
        self.level
    }

    /// Blocks until the request is fulfilled and returns its outcome.
    pub fn wait(self) -> Result<ScoreOutcome> {
        self.done.wait()
    }

    /// Like [`wait`](Self::wait), but gives up after `timeout`: the outer
    /// `Err` hands the (still-live) ticket back so the caller can retry,
    /// do other work, or drop it. The request itself is unaffected — it
    /// will still be scored, and a later `wait` still redeems the result.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> std::result::Result<Result<ScoreOutcome>, ScoreTicket> {
        self.done.wait_timeout(timeout).ok_or(self)
    }
}

impl std::fmt::Debug for ScoreTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoreTicket")
            .field("level", &self.level)
            .finish()
    }
}

thread_local! {
    /// The model this thread last scored, keyed by the registry handle it
    /// was decoded from: a copy of the runtime's decode with a compiled
    /// arena of its own, so that no two threads walk the same nodes (two
    /// threads on one shared arena each score a row about a third slower
    /// than two threads on arenas of their own). The handle is held, so
    /// its address cannot be reused while it keys the entry. Every runtime
    /// over one registry (the shards of a fleet) shares the entry; a
    /// re-registration replaces it on the thread's next score, so a thread
    /// holds at most one copy, dropped when the thread exits.
    static OWN_MODEL: RefCell<Option<(Arc<PortableModel>, ParameterModel)>> =
        const { RefCell::new(None) };
}

/// State shared between the handle, submitters, and workers.
struct Shared {
    registry: Arc<ModelRegistry>,
    model_name: String,
    config: RuntimeConfig,
    feature_width: usize,
    /// The per-level EDF admission queues (WRR-drained; see
    /// [`crate::qos::PriorityQueues`]).
    queues: StdMutex<PriorityQueues>,
    /// Signalled when a request is enqueued (idle workers wait on it) and
    /// on shutdown.
    not_empty: Condvar,
    /// Signalled when a batch is drained (blocked submitters wait on it)
    /// and on shutdown.
    not_full: Condvar,
    /// Queued-but-undrained request count (the reported queue depth).
    pending: AtomicUsize,
    /// Requests anywhere in the system: being scored inline, queued, or in
    /// a batch currently being scored. The idle shortcut reads this —
    /// "idle" must mean *nothing in flight*, not merely "queue empty",
    /// otherwise concurrent submitters all take the inline path and the
    /// batcher never engages.
    in_flight: AtomicUsize,
    shutdown: AtomicBool,
    /// The per-tenant token-bucket governor (present only when the config
    /// enables fairness).
    governor: Option<TenantGovernor>,
    /// The runtime's decode of the registered model: `(registry handle,
    /// decoded model)`, re-resolved by `Arc` pointer identity so an RCU
    /// re-registration is validated and announced once per runtime. The
    /// decode shares the registered model's compiled arena; no thread
    /// scores on it. Each scoring thread copies the arena from it on its
    /// first score of a registration (see [`OWN_MODEL`]), so the runtime's
    /// memory grows by one compiled arena per scoring thread (~0.6 MB for
    /// the 100-tree serving model).
    model: RwLock<Option<(Arc<PortableModel>, Arc<ParameterModel>)>>,
    /// The degraded-mode circuit breaker (present only when the config
    /// enables it; see [`crate::breaker`]).
    breaker: Option<Breaker>,
    /// The induced fault word (see [`crate::fleet::resilience`]):
    /// zero when no fault is induced, so the production hot path pays one
    /// relaxed load per scoring call and stays bit-identical to a runtime
    /// built before fault injection existed.
    induced: AtomicU64,
    stats: StatsInner,
    /// Opt-in observability (event sink + latency histograms; see
    /// [`crate::obs`]). `None` keeps every instrumentation site to one
    /// untaken branch.
    obs: Option<RuntimeObs>,
}

impl Shared {
    /// Records a typed event when observability is enabled; a single
    /// branch otherwise.
    fn obs_event(&self, kind: EventKind) {
        if let Some(obs) = &self.obs {
            obs.events().record(kind);
        }
    }

    /// The currently induced fault, if any (one relaxed load).
    fn induced(&self) -> Option<InducedFault> {
        let word = self.induced.load(Ordering::Relaxed);
        if word == 0 {
            None
        } else {
            decode_fault(word)
        }
    }

    /// The registry's current handle for the served model.
    fn registered_model(&self) -> Result<Arc<PortableModel>> {
        self.registry
            .load(&self.model_name)
            .map_err(|e| ServeError::Model(e.to_string()))
    }

    /// Returns the runtime's decode of `portable`, the registry's current
    /// handle, validating and decoding it if the cache has not seen that
    /// handle (never holds a cache lock across deserialization) and
    /// announcing a swap when it replaces an earlier decode. Only a thread
    /// without a copy of `portable` asks, so a fleet shard whose scoring
    /// threads all copied a registration through another shard records no
    /// swap for it.
    fn resolve_model(&self, portable: Arc<PortableModel>) -> Result<Arc<ParameterModel>> {
        {
            let cached = self.model.read();
            if let Some((handle, decoded)) = cached.as_ref() {
                if Arc::ptr_eq(handle, &portable) {
                    return Ok(Arc::clone(decoded));
                }
            }
        }
        let decoded = Arc::new(
            ParameterModel::from_portable(&portable)
                .map_err(|e| ServeError::Model(e.to_string()))?,
        );
        let swapped = {
            let mut cached = self.model.write();
            // A swap replaces an existing decode; the first resolve is a
            // cold load, not a swap.
            let swapped = cached
                .as_ref()
                .is_some_and(|(handle, _)| !Arc::ptr_eq(handle, &portable));
            *cached = Some((portable, Arc::clone(&decoded)));
            swapped
        };
        if swapped {
            self.obs_event(EventKind::ModelSwap);
        }
        Ok(decoded)
    }

    /// Runs the batched kernel on this thread's own copy of the registered
    /// model ([`OWN_MODEL`]), making the copy from the runtime's decode when
    /// the thread has none for the registry's current handle.
    fn score_model(&self, rows: &FeatureMatrix) -> Result<Vec<ResourceRequest>> {
        let portable = self.registered_model()?;
        OWN_MODEL.with_borrow_mut(|own| {
            let model = match own {
                Some((handle, model)) if Arc::ptr_eq(handle, &portable) => model,
                _ => {
                    let decoded = self.resolve_model(Arc::clone(&portable))?;
                    &own.insert((portable, decoded.with_own_arena())).1
                }
            };
            scoring::score_feature_batch(
                model,
                rows,
                self.config.objective,
                &self.config.candidate_counts,
            )
            .map_err(|e| ServeError::Scoring(e.to_string()))
        })
    }

    /// Records a breaker failure, counting the trip if this one opened it.
    fn breaker_failure(&self, breaker: &Breaker) {
        if breaker.record_failure(Instant::now()) {
            self.stats.record_breaker_trip();
            self.obs_event(EventKind::BreakerTrip);
        }
    }

    /// The one scoring point: a worker batch and an inline request (a
    /// one-row matrix) both score here. Applies the induced fault, asks
    /// the breaker, resolves the model, runs the batched kernel, records
    /// the breaker's verdict, and falls back to the heuristic row by row.
    /// The flag marks a fallback (degraded) answer. Without a breaker,
    /// model errors surface unchanged.
    fn score_rows(&self, rows: &FeatureMatrix) -> Result<(Vec<ResourceRequest>, bool)> {
        let outage = match self.induced() {
            // A crashed shard fails hard — past the breaker's fallback — so
            // the fleet's health passes see real errors, like a dead process.
            Some(InducedFault::Crash) => {
                return Err(ServeError::Scoring("induced shard crash".into()))
            }
            // A stalled shard still answers correctly, late: a worker's
            // queue backs up like a straggler's, an inline caller waits.
            Some(InducedFault::Stall(delay)) => {
                std::thread::sleep(delay);
                false
            }
            Some(InducedFault::ModelOutage) => true,
            None => false,
        };
        // The heuristic fails only on an empty candidate range, which every
        // row shares, so one failed row means they all fail.
        let fallback = || {
            rows.rows()
                .map(|row| {
                    heuristic_request(row, self.config.objective, &self.config.candidate_counts)
                })
                .collect::<Result<Vec<_>>>()
                .map(|requests| (requests, true))
        };
        let breaker = self.breaker.as_ref();
        if breaker.is_some_and(|breaker| !breaker.allow_model(Instant::now())) {
            return fallback();
        }
        let scored = if outage {
            Err(ServeError::Model("induced model outage".into()))
        } else {
            self.score_model(rows)
        };
        let Some(breaker) = breaker else {
            return scored.map(|requests| (requests, false));
        };
        match scored {
            Ok(requests) => {
                if breaker.record_success() {
                    // A half-open probe closed the breaker.
                    self.obs_event(EventKind::BreakerRecovered);
                }
                Ok((requests, false))
            }
            Err(_) => {
                self.breaker_failure(breaker);
                fallback()
            }
        }
    }

    /// The one completion recorder, for worker batches and inline requests
    /// alike: records the level's completion and deadline hit/miss,
    /// degraded service, and the observed latency, and builds the outcome
    /// (with the pricing inputs [`ScoreOutcome::quote`] needs). Path
    /// counters (`inline_scored`, batches) stay with the callers.
    fn complete(
        &self,
        request: ResourceRequest,
        degraded: bool,
        level: ServiceLevel,
        admitted_at: Instant,
        deadline: Instant,
    ) -> ScoreOutcome {
        let now = Instant::now();
        let missed = now > deadline;
        let latency = now.saturating_duration_since(admitted_at);
        self.stats.record_level_completed(level, missed);
        if degraded {
            self.stats.record_degraded();
        }
        if let Some(obs) = &self.obs {
            obs.record_latency(level, latency);
        }
        ScoreOutcome {
            request,
            level,
            missed_deadline: missed,
            latency,
            degraded,
            quote_targets: self.config.qos.slowdown_targets,
            quote_unit_price: self.config.qos.unit_price,
        }
    }

    /// Scores one drained batch through [`score_rows`](Self::score_rows)
    /// and fulfills every completion.
    fn process_batch(&self, matrix: &mut FeatureMatrix, batch: Vec<QueuedRequest>) {
        debug_assert!(!batch.is_empty());
        matrix.clear();
        for queued in &batch {
            matrix
                .push_row(&queued.features)
                .expect("admission checks the row width");
        }
        let result = self.score_rows(matrix);
        self.stats.record_batch(batch.len(), result.is_err());
        match result {
            Ok((requests, degraded)) => {
                for (queued, request) in batch.iter().zip(requests) {
                    let outcome = self.complete(
                        request,
                        degraded,
                        queued.level,
                        queued.admitted_at,
                        queued.deadline,
                    );
                    queued.done.fulfill(Ok(outcome));
                }
            }
            Err(e) => {
                for queued in &batch {
                    queued.done.fulfill(Err(e.clone()));
                }
            }
        }
    }
}

/// Publishes the runtime's own counters (and the batch-size histogram)
/// into a metrics registry at snapshot time, so the hot-path atomics in
/// [`StatsInner`] stay the single source of truth. Holds the runtime
/// weakly: a snapshot taken after the runtime is dropped simply omits
/// these metrics.
struct StatsSource {
    prefix: String,
    shared: Weak<Shared>,
}

impl MetricSource for StatsSource {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        let stats = shared.stats.snapshot();
        let p = &self.prefix;
        let counters = [
            ("completed", stats.completed),
            ("inline_scored", stats.inline_scored),
            ("batches", stats.batches),
            ("dropped", stats.dropped),
            ("errors", stats.errors),
            ("demoted", stats.demoted),
            ("throttled", stats.throttled),
            ("degraded", stats.degraded),
            ("breaker_trips", stats.breaker_trips),
        ];
        for (name, value) in counters {
            out.push((format!("{p}.{name}"), MetricValue::Counter(value)));
        }
        for level in ServiceLevel::ALL {
            let counts = stats.level(level);
            let n = level.name();
            out.push((
                format!("{p}.level.{n}.completed"),
                MetricValue::Counter(counts.completed),
            ));
            out.push((
                format!("{p}.level.{n}.deadline_misses"),
                MetricValue::Counter(counts.deadline_misses),
            ));
            out.push((
                format!("{p}.level.{n}.shed"),
                MetricValue::Counter(counts.shed),
            ));
        }
        out.push((
            format!("{p}.batch_size"),
            MetricValue::Histogram(shared.stats.batch_histogram()),
        ));
        out.push((
            format!("{p}.queue_depth"),
            MetricValue::Gauge(shared.pending.load(Ordering::Acquire) as f64),
        ));
    }
}

/// Worker loop: wait for the first queued request, drain up to `max_batch`
/// by WRR-across-levels / EDF-within-level, score, repeat.
fn worker_loop(shared: Arc<Shared>) {
    let mut matrix = FeatureMatrix::with_capacity(shared.feature_width, shared.config.max_batch);
    loop {
        let batch = {
            let mut queues = lock(&shared.queues);
            // Wait for the first request (or shutdown).
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if !queues.is_empty() {
                    break;
                }
                queues = shared
                    .not_empty
                    .wait(queues)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
            // The lock is held from the emptiness check to the drain, so
            // the batch holds at least one request.
            let batch = queues.pop_batch(shared.config.max_batch);
            shared.pending.fetch_sub(batch.len(), Ordering::AcqRel);
            shared.not_full.notify_all();
            batch
        };
        let size = batch.len();
        if shared.obs.is_some() {
            let backlog = shared.pending.load(Ordering::Acquire);
            shared.obs_event(EventKind::BatchDrain {
                size: size.min(u32::MAX as usize) as u32,
                backlog: backlog.min(u32::MAX as usize) as u32,
            });
        }
        shared.process_batch(&mut matrix, batch);
        shared.in_flight.fetch_sub(size, Ordering::AcqRel);
    }
}

/// A shared, concurrent, micro-batching, QoS-aware scoring service over one
/// registered model. See the crate docs for the architecture; construct
/// with [`ScoringRuntime::new`], score from any thread with
/// [`submit`](Self::submit) / [`try_submit`](Self::try_submit) (or their
/// detached forms), inspect with [`stats`](Self::stats), and stop with
/// [`shutdown`](Self::shutdown) (or drop the handle).
pub struct ScoringRuntime {
    shared: Arc<Shared>,
    worker_count: usize,
    workers: StdMutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ScoringRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoringRuntime")
            .field("model_name", &self.shared.model_name)
            .field("workers", &self.worker_count)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

impl ScoringRuntime {
    /// Spawns the runtime over a registry and model name. The model is
    /// resolved lazily (first score), mirroring the optimizer rule, so the
    /// runtime may be built before the model is registered.
    pub fn new(
        registry: Arc<ModelRegistry>,
        model_name: impl Into<String>,
        config: RuntimeConfig,
    ) -> Self {
        let config = config.sanitized();
        let shared = Arc::new(Shared {
            registry,
            model_name: model_name.into(),
            feature_width: full_feature_names().len(),
            queues: StdMutex::new(PriorityQueues::new(config.queue_capacity)),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            pending: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            governor: config.qos.fairness.map(TenantGovernor::new),
            model: RwLock::new(None),
            breaker: config.breaker.clone().map(Breaker::new),
            induced: AtomicU64::new(0),
            stats: StatsInner::new(config.max_batch),
            obs: config.observability.as_ref().map(RuntimeObs::new),
            config,
        });
        if let Some(obs_cfg) = &shared.config.observability {
            // The registry outlives the runtime in the common case; the
            // Weak breaks the registry → source → Shared → ObsConfig →
            // registry cycle and makes the source vanish with the runtime.
            obs_cfg.registry.register_source(Box::new(StatsSource {
                prefix: obs_cfg.prefix.clone(),
                shared: Arc::downgrade(&shared),
            }));
        }
        let workers: Vec<JoinHandle<()>> = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ae-serve-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning a scoring worker")
            })
            .collect();
        Self {
            shared,
            worker_count: workers.len(),
            workers: StdMutex::new(workers),
        }
    }

    /// Pre-resolves (fetches, validates and decodes) the model so the first
    /// scored query does not pay the cold-start cost. Each scoring thread
    /// still copies the compiled arena on its first score (one arena per
    /// scoring thread, ~0.6 MB for the 100-tree serving model); the calling
    /// thread makes no copy here.
    pub fn warm(&self) -> Result<()> {
        let portable = self.shared.registered_model()?;
        self.shared.resolve_model(portable).map(|_| ())
    }

    /// Scores with a full QoS envelope, blocking while the admission queue
    /// is full (backpressure; a non-`BestEffort` request sheds the
    /// least-urgent queued `BestEffort` request beyond the protected floor
    /// instead of waiting, if one exists) and until the result is ready.
    /// `ScoreRequest::from_plan(plan)` with `.map(|o| o.request)` is the
    /// plain optimizer-rule call.
    pub fn submit(&self, request: ScoreRequest) -> Result<ScoreOutcome> {
        self.submit_sync(request, true)
    }

    /// [`submit`](Self::submit) without backpressure: fails fast with
    /// [`ServeError::Saturated`] (counting the request as dropped) when the
    /// queue is full and shedding cannot make room.
    pub fn try_submit(&self, request: ScoreRequest) -> Result<ScoreOutcome> {
        self.submit_sync(request, false)
    }

    /// Fire-and-forget [`submit`](Self::submit): admits the request (with
    /// backpressure) and returns a [`ScoreTicket`] to redeem later, instead
    /// of blocking until the result is ready. Detached submissions always
    /// go through the queues (never the inline shortcut) — the point is to
    /// keep the submitting thread free.
    pub fn submit_detached(&self, request: ScoreRequest) -> Result<ScoreTicket> {
        self.submit_queued(request, true)
    }

    /// Fire-and-forget [`try_submit`](Self::try_submit): like
    /// [`submit_detached`](Self::submit_detached) but fails fast with
    /// [`ServeError::Saturated`] instead of applying backpressure. This is
    /// what an open-loop load generator uses: arrivals keep their schedule
    /// and overload turns into sheds/drops rather than client-side queueing.
    pub fn try_submit_detached(&self, request: ScoreRequest) -> Result<ScoreTicket> {
        self.submit_queued(request, false)
    }

    /// The synchronous path behind [`submit`](Self::submit) and
    /// [`try_submit`](Self::try_submit): scores inline when a slot is free,
    /// otherwise queues (waiting for room when `blocking`, failing fast
    /// otherwise) and waits for the worker's answer.
    fn submit_sync(&self, request: ScoreRequest, blocking: bool) -> Result<ScoreOutcome> {
        let (level, deadline) = self.admit(&request)?;
        if self.try_claim_inline() {
            return self.score_inline_claimed(request.features, level, deadline);
        }
        self.admit_to_queues(request.features, level, deadline, blocking)?
            .wait()
    }

    /// The queued path behind [`submit_detached`](Self::submit_detached)
    /// and [`try_submit_detached`](Self::try_submit_detached): never
    /// inline.
    fn submit_queued(&self, request: ScoreRequest, blocking: bool) -> Result<ScoreTicket> {
        let (level, deadline) = self.admit(&request)?;
        self.admit_to_queues(request.features, level, deadline, blocking)
    }

    /// Admission for every entry point. Rejects feature vectors of the
    /// wrong width up front (past this point a malformed row would only
    /// surface inside a worker batch, where a panic would kill the worker
    /// and strand every completion in the batch), applies the tenant
    /// fairness policy (which may demote the level or reject outright), and
    /// stamps the absolute deadline.
    fn admit(&self, request: &ScoreRequest) -> Result<(ServiceLevel, Instant)> {
        if request.features.len() != self.shared.feature_width {
            return Err(ServeError::Scoring(format!(
                "feature vector has {} columns, the model expects {}",
                request.features.len(),
                self.shared.feature_width
            )));
        }
        let now = Instant::now();
        let mut level = request.level;
        if let (Some(governor), Some(tenant)) = (&self.shared.governor, request.tenant) {
            match governor.admit(tenant, now) {
                Admission::Granted => {}
                Admission::Demoted => {
                    if level != ServiceLevel::BestEffort {
                        self.shared.obs_event(EventKind::Demotion {
                            from_level: level.index() as u8,
                        });
                        level = ServiceLevel::BestEffort;
                        self.shared.stats.record_demoted();
                    }
                }
                Admission::Rejected => {
                    self.shared.stats.record_throttled();
                    self.shared.obs_event(EventKind::Throttle);
                    return Err(ServeError::Throttled(tenant));
                }
            }
        }
        let budget = request
            .deadline_budget
            .unwrap_or_else(|| self.shared.config.qos.deadline_budget(level))
            .min(MAX_DEADLINE_BUDGET);
        Ok((level, now + budget))
    }

    /// The shared queue-admission path: waits for room (`blocking`) or
    /// fails fast, shedding the least-urgent `BestEffort` request to make
    /// room for a higher level when the queue is full. The shed victim is
    /// failed outside the queue lock. Returns the ticket the submitter
    /// redeems (at once on the synchronous path).
    fn admit_to_queues(
        &self,
        features: Vec<f64>,
        level: ServiceLevel,
        deadline: Instant,
        blocking: bool,
    ) -> Result<ScoreTicket> {
        let mut shed_victim = None;
        let done = {
            let mut queues = lock(&self.shared.queues);
            loop {
                if self.shared.shutdown.load(Ordering::Acquire) {
                    return Err(ServeError::ShutDown);
                }
                if queues.len() < self.shared.config.queue_capacity {
                    break;
                }
                if level > ServiceLevel::BestEffort {
                    if let Some(victim) = queues.shed_best_effort() {
                        self.shared.pending.fetch_sub(1, Ordering::AcqRel);
                        self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                        shed_victim = Some(victim);
                        break;
                    }
                }
                if !blocking {
                    self.shared.stats.record_dropped();
                    self.shared.obs_event(EventKind::Dropped {
                        level: level.index() as u8,
                    });
                    return Err(ServeError::Saturated);
                }
                queues = self
                    .shared
                    .not_full
                    .wait(queues)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
            self.enqueue(&mut queues, features, level, deadline)
        };
        if let Some(victim) = shed_victim {
            self.shed(victim);
        }
        self.shared.obs_event(EventKind::Admission {
            level: level.index() as u8,
            queued: true,
        });
        self.shared.not_empty.notify_one();
        Ok(ScoreTicket { done, level })
    }

    fn enqueue(
        &self,
        queues: &mut StdMutexGuard<'_, PriorityQueues>,
        features: Vec<f64>,
        level: ServiceLevel,
        deadline: Instant,
    ) -> Arc<Completion> {
        let done = Arc::new(Completion::default());
        queues.push(QueuedRequest {
            features,
            level,
            admitted_at: Instant::now(),
            deadline,
            done: Arc::clone(&done),
        });
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        self.shared.in_flight.fetch_add(1, Ordering::AcqRel);
        done
    }

    /// Fails a shed victim (outside the queue lock) and records the shed.
    fn shed(&self, victim: QueuedRequest) {
        self.shared.stats.record_shed(victim.level);
        self.shared.obs_event(EventKind::Shed {
            level: victim.level.index() as u8,
        });
        victim.done.fulfill(Err(ServeError::Shed));
    }

    /// Attempts to claim an inline-scoring slot: succeeds only when workers
    /// exist to drain the queue otherwise and fewer than
    /// `inline_max_in_flight` requests are in flight anywhere (a bound of
    /// 0 disables inlining). Lightly loaded traffic is judged on the
    /// *in-flight* count, not on "queue empty" — under concurrent
    /// submission the queue stays empty exactly because everyone would
    /// take the shortcut. Load beyond the bound overflows into the queue,
    /// where batching amortizes it. On success the caller holds
    /// one in-flight slot and must score and release via
    /// [`score_inline_claimed`](Self::score_inline_claimed).
    fn try_claim_inline(&self) -> bool {
        if self.worker_count == 0 || self.shared.shutdown.load(Ordering::Acquire) {
            return false;
        }
        let limit = self.shared.config.inline_max_in_flight;
        let mut current = self.shared.in_flight.load(Ordering::Acquire);
        while current < limit {
            match self.shared.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
        false
    }

    /// Scores on the submitting thread as a one-row call of the scoring
    /// point the workers use; the caller must hold an in-flight claim from
    /// [`try_claim_inline`](Self::try_claim_inline).
    fn score_inline_claimed(
        &self,
        features: Vec<f64>,
        level: ServiceLevel,
        deadline: Instant,
    ) -> Result<ScoreOutcome> {
        let begin = Instant::now();
        // No admission event here: the inline fast path makes no
        // scheduling decision (no queue, no demotion, no shed), and at
        // fast-path rates a per-request event record would be the single
        // largest observability cost. Inline traffic is fully accounted
        // by the latency histograms and the `inline_scored` counter.
        let mut row = FeatureMatrix::with_capacity(self.shared.feature_width, 1);
        row.push_row(&features)
            .expect("admission checks the row width");
        let result = self.shared.score_rows(&row);
        self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        match result {
            Ok((mut requests, degraded)) => {
                self.shared.stats.record_inline();
                let request = requests.pop().expect("one answer per row");
                Ok(self
                    .shared
                    .complete(request, degraded, level, begin, deadline))
            }
            Err(e) => {
                self.shared.stats.record_error();
                Err(e)
            }
        }
    }

    /// Crate-internal (fleet evacuation): removes every queued
    /// `Standard` and `BestEffort` request, transferring their
    /// pending/in-flight accounting out of this runtime. The taken
    /// requests keep their admission timestamps, deadlines, and completion
    /// slots — whichever runtime scores them fulfills (and counts) them,
    /// so an evacuated request is never double-counted.
    pub(crate) fn take_evacuable(&self) -> Vec<QueuedRequest> {
        let taken = lock(&self.shared.queues).take_evacuable();
        if !taken.is_empty() {
            self.shared.pending.fetch_sub(taken.len(), Ordering::AcqRel);
            self.shared
                .in_flight
                .fetch_sub(taken.len(), Ordering::AcqRel);
            // Room opened up: unblock submitters waiting on a full queue.
            self.shared.not_full.notify_all();
        }
        taken
    }

    /// Crate-internal (fleet evacuation): admits evacuated requests into
    /// this runtime's queues, taking over their pending/in-flight
    /// accounting. Returns the batch unchanged (nothing admitted) when
    /// this runtime is shutting down — the caller must re-home or fail
    /// those requests; their completion slots are still unfulfilled.
    pub(crate) fn inject_backlog(&self, batch: Vec<QueuedRequest>) -> Vec<QueuedRequest> {
        if batch.is_empty() {
            return batch;
        }
        {
            let mut queues = lock(&self.shared.queues);
            // Checked under the queue lock: shutdown drains the queues
            // under this same lock, so an injection serialized before the
            // drain is drained (and failed) by it, and one serialized
            // after is rejected here. Either way no completion is lost.
            if self.shared.shutdown.load(Ordering::Acquire) {
                return batch;
            }
            let count = batch.len();
            for request in batch {
                queues.push(request);
            }
            self.shared.pending.fetch_add(count, Ordering::AcqRel);
            self.shared.in_flight.fetch_add(count, Ordering::AcqRel);
        }
        self.shared.not_empty.notify_all();
        Vec::new()
    }

    /// Crate-internal (fleet evacuation): fails stranded evacuated
    /// requests (both runtimes shutting down) with
    /// [`ServeError::ShutDown`], counting them as errors here — the same
    /// accounting shutdown applies to its own abandoned queue.
    pub(crate) fn abandon_backlog(&self, batch: Vec<QueuedRequest>) {
        for request in batch {
            self.shared.stats.record_error();
            request.done.fulfill(Err(ServeError::ShutDown));
        }
    }

    /// Crate-internal (fleet fault drills): induces or clears a fault on
    /// this runtime. Takes effect on the next batch/inline score; clearing
    /// restores normal service (modulo a still-open breaker cooling down).
    pub(crate) fn set_induced_fault(&self, fault: Option<InducedFault>) {
        self.shared
            .induced
            .store(encode_fault(fault), Ordering::Relaxed);
    }

    /// Crate-internal (fleet fault drills): the currently induced fault,
    /// if any.
    pub(crate) fn induced_fault(&self) -> Option<InducedFault> {
        decode_fault(self.shared.induced.load(Ordering::Relaxed))
    }

    /// A point-in-time snapshot of the runtime counters.
    pub fn stats(&self) -> RuntimeStats {
        self.shared.stats.snapshot()
    }

    /// The runtime's live observability handles (event sink, per-level
    /// latency histograms), when [`crate::RuntimeConfig::observability`]
    /// is set.
    pub fn observability(&self) -> Option<&RuntimeObs> {
        self.shared.obs.as_ref()
    }

    /// Requests currently queued (excludes batches being scored).
    pub fn queue_depth(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// The model name this runtime serves.
    pub fn model_name(&self) -> &str {
        &self.shared.model_name
    }

    /// Stops the runtime: in-flight batches finish, queued-but-undrained
    /// requests across every priority level fail with
    /// [`ServeError::ShutDown`], workers are joined. Callable on a shared
    /// handle (e.g. through an `Arc`); subsequent calls are no-ops, and
    /// dropping the runtime shuts it down too.
    pub fn shutdown(&self) {
        if !self.shared.shutdown.swap(true, Ordering::AcqRel) {
            // First shutdown only: repeat calls are no-ops and must not
            // repeat the event.
            self.shared.obs_event(EventKind::Shutdown);
        }
        let abandoned: Vec<QueuedRequest> = {
            let mut queues = lock(&self.shared.queues);
            let abandoned = queues.drain_all();
            self.shared
                .pending
                .fetch_sub(abandoned.len(), Ordering::AcqRel);
            self.shared
                .in_flight
                .fetch_sub(abandoned.len(), Ordering::AcqRel);
            abandoned
        };
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for request in abandoned {
            self.shared.stats.record_error();
            request.done.fulfill(Err(ServeError::ShutDown));
        }
        for worker in lock(&self.workers).drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ScoringRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}
