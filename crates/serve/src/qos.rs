//! Service levels, deadlines, pricing, and the priority admission queues.
//!
//! A serverless serving tier does not sell "a scoring call"; it sells a
//! *promise* — how fast the answer comes back and at what price (the
//! PixelsDB model of tiered SLAs). This module is that promise layer on top
//! of the batching runtime:
//!
//! * [`ServiceLevel`] — the three tiers (`Interactive` / `Standard` /
//!   `BestEffort`), each with a completion-deadline budget, a weighted
//!   share of the drain bandwidth, and a run-time target on the predicted
//!   performance curve that its price is derived from.
//! * [`QosConfig`] — the per-level budgets, curve targets, and the
//!   optional per-tenant fairness policy. The drain weights (8/4/1) and the
//!   protected `BestEffort` floor (128) are constants of the drain policy,
//!   not settings.
//! * [`PriceQuote`] — the executor count, predicted run time, and
//!   executor-seconds price implied by scoring a query at a level, computed
//!   from the predicted [`PerfCurve`](ae_ppm::PerfCurve)-shaped curve via
//!   [`ae_ppm::selection`]'s deadline/pricing lookups.
//! * `PriorityQueues` (crate-internal) — the admission structure replacing
//!   the single FIFO: one earliest-deadline-first heap per level, drained
//!   by weighted round-robin across levels, with `BestEffort` shed first
//!   under saturation.
//!
//! Scheduling never changes *answers* (scoring stays a pure function of
//! features and model); levels only decide *when* a request is scored and
//! what its promise costs.

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use ae_ppm::selection::{cheapest_config, cost_at, price_for_deadline};

use crate::tenant::TenantPolicy;

/// A tiered service level: the per-request price-performance promise.
///
/// Levels are ordered by priority: `BestEffort < Standard < Interactive`.
/// The level decides the request's completion-deadline budget, its weighted
/// share of the drain bandwidth, whether it may be shed under saturation
/// (only `BestEffort` is sheddable), and which point of the predicted
/// performance curve its price is quoted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceLevel {
    /// Lowest tier: no run-time promise beyond completion, first to be shed
    /// under saturation, priced at the curve's cheapest operating point.
    BestEffort = 0,
    /// The default tier: a moderate deadline at a bounded-slowdown point of
    /// the curve.
    Standard = 1,
    /// Highest tier: tight deadline, near-fastest point of the curve,
    /// highest price.
    Interactive = 2,
}

impl ServiceLevel {
    /// Number of service levels.
    pub const COUNT: usize = 3;

    /// All levels in ascending priority order (`BestEffort` first).
    pub const ALL: [ServiceLevel; Self::COUNT] = [
        ServiceLevel::BestEffort,
        ServiceLevel::Standard,
        ServiceLevel::Interactive,
    ];

    /// Stable index of this level into per-level arrays
    /// (`BestEffort = 0`, `Standard = 1`, `Interactive = 2`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The level for a per-level array index, if valid.
    pub fn from_index(index: usize) -> Option<ServiceLevel> {
        Self::ALL.get(index).copied()
    }

    /// Lower-case display name (`"interactive"` etc.).
    pub fn name(self) -> &'static str {
        match self {
            ServiceLevel::Interactive => "interactive",
            ServiceLevel::Standard => "standard",
            ServiceLevel::BestEffort => "best_effort",
        }
    }
}

impl std::fmt::Display for ServiceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// QoS tuning of the serving tier: one entry per [`ServiceLevel`], indexed
/// by [`ServiceLevel::index`].
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Completion-deadline budget per level: a request admitted at `t` must
    /// be answered by `t + budget` or it counts as a deadline miss (the
    /// request is still answered — a miss is an SLA violation, not a
    /// failure).
    pub deadline_budgets: [Duration; ServiceLevel::COUNT],
    /// Run-time target per level as a slowdown factor over the curve's
    /// minimum time (`1.05` = "within 5 % of the fastest possible run").
    /// `f64::INFINITY` means "no run-time promise" — the level is priced at
    /// the curve's cheapest operating point.
    pub slowdown_targets: [f64; ServiceLevel::COUNT],
    /// Price of one executor-second, the unit [`PriceQuote::price`] is
    /// denominated in.
    pub unit_price: f64,
    /// Per-tenant token-bucket fairness; `None` disables tenant policing
    /// (every request is admitted on level alone).
    pub fairness: Option<TenantPolicy>,
}

impl Default for QosConfig {
    fn default() -> Self {
        let mut deadline_budgets = [Duration::ZERO; ServiceLevel::COUNT];
        deadline_budgets[ServiceLevel::Interactive.index()] = Duration::from_millis(10);
        deadline_budgets[ServiceLevel::Standard.index()] = Duration::from_millis(50);
        deadline_budgets[ServiceLevel::BestEffort.index()] = Duration::from_millis(250);
        let mut slowdown_targets = [f64::INFINITY; ServiceLevel::COUNT];
        slowdown_targets[ServiceLevel::Interactive.index()] = 1.05;
        slowdown_targets[ServiceLevel::Standard.index()] = 1.15;
        Self {
            deadline_budgets,
            slowdown_targets,
            unit_price: 1.0,
            fairness: None,
        }
    }
}

impl QosConfig {
    /// The completion-deadline budget of one level.
    pub fn deadline_budget(&self, level: ServiceLevel) -> Duration {
        self.deadline_budgets[level.index()]
    }

    /// Overrides one level's completion-deadline budget.
    pub fn with_deadline_budget(mut self, level: ServiceLevel, budget: Duration) -> Self {
        self.deadline_budgets[level.index()] = budget;
        self
    }

    /// Sets the per-tenant fairness policy.
    pub fn with_fairness(mut self, policy: TenantPolicy) -> Self {
        self.fairness = Some(policy);
        self
    }
}

/// The price-performance promise implied by scoring one query at one level:
/// which point of the predicted curve the level buys, and what it costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceQuote {
    /// The level the quote is for.
    pub level: ServiceLevel,
    /// Executor count the level's run-time target selects on the curve.
    pub executors: usize,
    /// Predicted run time at that count (curve units, the paper's seconds).
    pub predicted_seconds: f64,
    /// Price: `executors × predicted_seconds × unit_price`.
    pub price: f64,
    /// Price relative to the curve's cheapest operating point (the
    /// `BestEffort` anchor) — the level's *derived* price multiplier.
    pub multiplier: f64,
    /// False when the level's run-time target is below the curve's minimum
    /// (the promise cannot be met at any count); the quote then falls back
    /// to the fastest point and callers should surface the shortfall.
    pub attainable: bool,
}

/// Quotes a level's price off a predicted `(n, t)` curve.
///
/// The level's slowdown target sets a run-time deadline `target × t_min`;
/// the quote buys the **cheapest** point honoring it
/// ([`price_for_deadline`]). An infinite target prices at the curve's
/// cheapest executor-seconds point ([`cheapest_config`]) — the best-effort
/// anchor every multiplier is relative to. An unattainable target
/// (possible only with a target below 1) falls back to the fastest sampled
/// point with `attainable = false`. Returns `None` only for an empty
/// curve.
pub fn price_quote(
    curve: &[(usize, f64)],
    level: ServiceLevel,
    cfg: &QosConfig,
) -> Option<PriceQuote> {
    price_quote_parts(curve, level, &cfg.slowdown_targets, cfg.unit_price)
}

/// [`price_quote`] from the raw pricing inputs (per-level slowdown targets
/// and unit price) instead of a full [`QosConfig`] — what
/// [`ScoreOutcome::quote`](crate::ScoreOutcome::quote) captures so quotes
/// can be derived lazily, off the scoring hot path.
pub fn price_quote_parts(
    curve: &[(usize, f64)],
    level: ServiceLevel,
    slowdown_targets: &[f64; ServiceLevel::COUNT],
    unit_price: f64,
) -> Option<PriceQuote> {
    let (cheapest_n, base_cost) = cheapest_config(curve)?;
    let target = slowdown_targets[level.index()];
    let ((executors, cost), attainable) = if target.is_infinite() {
        ((cheapest_n, base_cost), true)
    } else {
        let t_min = curve.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
        match price_for_deadline(curve, t_min * target) {
            Some(point) => (point, true),
            // Fastest sampled point: the closest the curve gets.
            None => {
                let n = curve
                    .iter()
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|&(n, _)| n)?;
                ((n, cost_at(curve, n)?), false)
            }
        }
    };
    let predicted_seconds = curve
        .iter()
        .find(|&&(n, _)| n == executors)
        .map(|&(_, t)| t)?;
    Some(PriceQuote {
        level,
        executors,
        predicted_seconds,
        price: cost * unit_price,
        multiplier: if base_cost > 0.0 {
            cost / base_cost
        } else {
            1.0
        },
        attainable,
    })
}

/// One request admitted into the priority queues: the featurized plan, its
/// promise (level + absolute deadline), and its completion slot.
pub(crate) struct QueuedRequest {
    pub(crate) features: Vec<f64>,
    pub(crate) level: ServiceLevel,
    pub(crate) admitted_at: Instant,
    pub(crate) deadline: Instant,
    pub(crate) done: std::sync::Arc<crate::runtime::Completion>,
}

/// Heap entry ordering admitted requests earliest-deadline-first within a
/// level; the admission sequence number breaks deadline ties FIFO, which is
/// what keeps single-level equal-budget traffic exactly FIFO (the PR 2/3
/// deterministic-mode contract).
struct EdfEntry {
    deadline: Instant,
    seq: u64,
    request: QueuedRequest,
}

impl PartialEq for EdfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for EdfEntry {}
impl PartialOrd for EdfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EdfEntry {
    // Reversed so `BinaryHeap` (a max-heap) pops the earliest deadline;
    // among equal deadlines, the lowest sequence number (FIFO).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Levels in drain-priority order (highest first).
const DRAIN_ORDER: [ServiceLevel; ServiceLevel::COUNT] = [
    ServiceLevel::Interactive,
    ServiceLevel::Standard,
    ServiceLevel::BestEffort,
];

/// Weighted-round-robin drain weights, indexed like [`DRAIN_ORDER`]:
/// within one round each level contributes up to its weight before the
/// next level's turn, highest priority first.
const DRAIN_WEIGHTS: [u32; ServiceLevel::COUNT] = [8, 4, 1];

/// Protected `BestEffort` queue floor: shedding never shrinks the queued
/// `BestEffort` class below this many requests (clamped to an eighth of
/// the queue capacity, so small test queues shed freely). The floor keeps
/// best-effort traffic *flowing* under sustained overload — admitted
/// survivors drain at the WRR share instead of the class being evicted to
/// extinction; overflow beyond the floor is shed, bounding best-effort
/// queueing.
const BEST_EFFORT_FLOOR: usize = 128;

/// The per-level admission queues: one EDF heap per [`ServiceLevel`],
/// drained weighted-round-robin across levels (highest priority first
/// within a round), with `BestEffort` shed first under saturation.
pub(crate) struct PriorityQueues {
    heaps: [BinaryHeap<EdfEntry>; ServiceLevel::COUNT],
    /// Effective protected floor: [`BEST_EFFORT_FLOOR`] clamped to an
    /// eighth of the queue capacity.
    best_effort_floor: usize,
    /// WRR position: index into [`DRAIN_ORDER`] of the level currently
    /// being granted, and how many grants it has left this round. The
    /// cursor persists **across batches** — a `max_batch` smaller than one
    /// level's weight must not restart the round at `Interactive` every
    /// time, or lower levels would starve.
    cursor: usize,
    budget: u32,
    next_seq: u64,
    len: usize,
}

impl PriorityQueues {
    pub(crate) fn new(queue_capacity: usize) -> Self {
        Self {
            heaps: std::array::from_fn(|_| BinaryHeap::new()),
            best_effort_floor: BEST_EFFORT_FLOOR.min(queue_capacity / 8),
            cursor: 0,
            budget: DRAIN_WEIGHTS[0],
            next_seq: 0,
            len: 0,
        }
    }

    /// Total queued requests across all levels.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Admits one request into its level's EDF heap.
    pub(crate) fn push(&mut self, request: QueuedRequest) {
        let level = request.level;
        let entry = EdfEntry {
            deadline: request.deadline,
            seq: self.next_seq,
            request,
        };
        self.next_seq += 1;
        self.heaps[level.index()].push(entry);
        self.len += 1;
    }

    /// Sheds one `BestEffort` request to make room for a higher level under
    /// saturation: the **least-urgent** entry (latest deadline, newest on
    /// ties) is dropped — the EDF-consistent choice, since the entry with
    /// the most slack is the cheapest promise to break, while requests
    /// already close to their deadline keep their place in line. Costs one
    /// O(n) scan + re-heapify of the `BestEffort` heap, paid only at
    /// saturation (where the alternative is dropping the arrival outright).
    /// Returns `None` when shedding would shrink the queued `BestEffort`
    /// class to (or below) its protected floor — including when nothing is
    /// queued.
    pub(crate) fn shed_best_effort(&mut self) -> Option<QueuedRequest> {
        let heap = &mut self.heaps[ServiceLevel::BestEffort.index()];
        if heap.len() <= self.best_effort_floor {
            return None;
        }
        let mut entries = std::mem::take(heap).into_vec();
        let victim_index = entries
            .iter()
            .enumerate()
            .max_by_key(|&(_, entry)| (entry.deadline, entry.seq))
            .map(|(i, _)| i)?;
        let victim = entries.swap_remove(victim_index);
        *heap = BinaryHeap::from(entries);
        self.len -= 1;
        Some(victim.request)
    }

    /// Forms one drain batch of up to `take` requests: weighted round-robin
    /// across levels (each round grants every level up to its drain weight,
    /// highest priority first), earliest-deadline-first within a level.
    /// Single-level traffic therefore drains in pure EDF order — FIFO when
    /// deadlines share one budget.
    ///
    /// The round-robin cursor carries over between calls, so small batches
    /// (`take` below a level's weight) consume a round across several
    /// batches instead of restarting at `Interactive` — every level keeps
    /// its share of the drain bandwidth no matter the batch size.
    pub(crate) fn pop_batch(&mut self, take: usize) -> Vec<QueuedRequest> {
        let mut out = Vec::with_capacity(take.min(self.len));
        while out.len() < take && self.len > 0 {
            let level = DRAIN_ORDER[self.cursor];
            if self.budget > 0 {
                if let Some(entry) = self.heaps[level.index()].pop() {
                    self.len -= 1;
                    self.budget -= 1;
                    out.push(entry.request);
                    continue;
                }
            }
            // Level out of budget or empty: move the round to the next one.
            self.cursor = (self.cursor + 1) % DRAIN_ORDER.len();
            self.budget = DRAIN_WEIGHTS[self.cursor];
        }
        out
    }

    /// Empties the `Standard` and `BestEffort` heaps for quarantine
    /// evacuation, in heap order, without sorting: the survivor that
    /// admits them pushes each into its own EDF heap, which orders them
    /// again. `Interactive` entries stay — their deadline budget would not
    /// survive a queue hop, and tenant → shard affinity is part of the
    /// Interactive promise, so they always drain on their home shard.
    pub(crate) fn take_evacuable(&mut self) -> Vec<QueuedRequest> {
        let mut out = Vec::new();
        for level in [ServiceLevel::Standard, ServiceLevel::BestEffort] {
            out.extend(
                std::mem::take(&mut self.heaps[level.index()])
                    .into_iter()
                    .map(|entry| entry.request),
            );
        }
        self.len -= out.len();
        out
    }

    /// Empties every queue (shutdown), returning the abandoned requests.
    pub(crate) fn drain_all(&mut self) -> Vec<QueuedRequest> {
        let mut out = Vec::with_capacity(self.len);
        for heap in &mut self.heaps {
            out.extend(heap.drain().map(|entry| entry.request));
        }
        self.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn queued(level: ServiceLevel, deadline: Instant) -> QueuedRequest {
        QueuedRequest {
            features: Vec::new(),
            level,
            admitted_at: Instant::now(),
            deadline,
            done: Arc::new(crate::runtime::Completion::default()),
        }
    }

    #[test]
    fn level_order_and_indexing() {
        assert!(ServiceLevel::BestEffort < ServiceLevel::Standard);
        assert!(ServiceLevel::Standard < ServiceLevel::Interactive);
        for level in ServiceLevel::ALL {
            assert_eq!(ServiceLevel::from_index(level.index()), Some(level));
        }
        assert_eq!(ServiceLevel::from_index(3), None);
        assert_eq!(ServiceLevel::Interactive.to_string(), "interactive");
    }

    #[test]
    fn edf_within_a_level_and_fifo_on_ties() {
        let mut queues = PriorityQueues::new(4);
        let base = Instant::now();
        // Out-of-deadline-order arrival within one level.
        queues.push(queued(
            ServiceLevel::Standard,
            base + Duration::from_millis(30),
        ));
        queues.push(queued(
            ServiceLevel::Standard,
            base + Duration::from_millis(10),
        ));
        queues.push(queued(
            ServiceLevel::Standard,
            base + Duration::from_millis(20),
        ));
        let batch = queues.pop_batch(3);
        let deadlines: Vec<Instant> = batch.iter().map(|r| r.deadline).collect();
        assert_eq!(
            deadlines,
            vec![
                base + Duration::from_millis(10),
                base + Duration::from_millis(20),
                base + Duration::from_millis(30)
            ]
        );
        // Equal deadlines drain FIFO by admission order.
        let mut queues = PriorityQueues::new(4);
        for i in 0..4 {
            let mut request = queued(ServiceLevel::Standard, base);
            request.features = vec![i as f64];
            queues.push(request);
        }
        let order: Vec<f64> = queues.pop_batch(4).iter().map(|r| r.features[0]).collect();
        assert_eq!(order, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn weighted_round_robin_across_levels() {
        // Drain weights: I=8, S=4, B=1.
        let mut queues = PriorityQueues::new(4);
        let base = Instant::now();
        for _ in 0..20 {
            queues.push(queued(ServiceLevel::Interactive, base));
            queues.push(queued(ServiceLevel::Standard, base));
            queues.push(queued(ServiceLevel::BestEffort, base));
        }
        let batch = queues.pop_batch(13); // exactly one WRR round
        let count = |level: ServiceLevel| batch.iter().filter(|r| r.level == level).count();
        assert_eq!(count(ServiceLevel::Interactive), 8);
        assert_eq!(count(ServiceLevel::Standard), 4);
        assert_eq!(count(ServiceLevel::BestEffort), 1);
        // The round starts with the highest priority level.
        assert_eq!(batch[0].level, ServiceLevel::Interactive);
        // BestEffort is never starved across rounds.
        let rest = queues.pop_batch(26); // two more rounds
        assert_eq!(
            rest.iter()
                .filter(|r| r.level == ServiceLevel::BestEffort)
                .count(),
            2
        );
    }

    #[test]
    fn small_batches_do_not_starve_lower_levels() {
        // A batch size at or below the Interactive drain weight must not
        // restart the WRR round every batch: the cursor persists, so
        // Standard and BestEffort still get their share of the bandwidth.
        // Drain weights: I=8, S=4, B=1.
        let mut queues = PriorityQueues::new(4);
        let base = Instant::now();
        for _ in 0..40 {
            queues.push(queued(ServiceLevel::Interactive, base));
        }
        for _ in 0..6 {
            queues.push(queued(ServiceLevel::Standard, base));
        }
        for _ in 0..3 {
            queues.push(queued(ServiceLevel::BestEffort, base));
        }
        // Drain in batches of 4 (half the Interactive weight). Over 13
        // rounds' worth of pops, every level must appear.
        let mut drained = [0usize; ServiceLevel::COUNT];
        for _ in 0..7 {
            for request in queues.pop_batch(4) {
                drained[request.level.index()] += 1;
            }
        }
        // 28 pops span two-plus WRR rounds: all 6 Standard and at least 2
        // BestEffort must have drained despite the Interactive backlog.
        assert_eq!(drained.iter().sum::<usize>(), 28);
        assert!(
            drained[ServiceLevel::Standard.index()] >= 6,
            "standard starved: {drained:?}"
        );
        assert!(
            drained[ServiceLevel::BestEffort.index()] >= 2,
            "best-effort starved: {drained:?}"
        );
    }

    #[test]
    fn shedding_takes_best_effort_only_and_least_urgent_first() {
        let mut queues = PriorityQueues::new(4);
        let base = Instant::now();
        queues.push(queued(ServiceLevel::Interactive, base));
        queues.push(queued(
            ServiceLevel::BestEffort,
            base + Duration::from_millis(5),
        ));
        queues.push(queued(
            ServiceLevel::BestEffort,
            base + Duration::from_millis(1),
        ));
        queues.push(queued(
            ServiceLevel::BestEffort,
            base + Duration::from_millis(3),
        ));
        // The entry with the most slack (latest deadline) is evicted first;
        // the most urgent one survives longest.
        let shed = queues.shed_best_effort().unwrap();
        assert_eq!(shed.level, ServiceLevel::BestEffort);
        assert_eq!(shed.deadline, base + Duration::from_millis(5));
        assert_eq!(
            queues.shed_best_effort().unwrap().deadline,
            base + Duration::from_millis(3)
        );
        // The survivor still drains (after the Interactive entry) in EDF
        // order once the heap is rebuilt.
        let drained = queues.pop_batch(2);
        assert_eq!(drained[0].level, ServiceLevel::Interactive);
        assert_eq!(drained[1].deadline, base + Duration::from_millis(1));
        // Nothing left to shed.
        assert!(queues.shed_best_effort().is_none());
        assert!(queues.is_empty());
    }

    #[test]
    fn protected_floor_stops_shedding_but_not_draining() {
        // Capacity 1024 → effective floor min(128, 1024/8) = 128.
        let mut queues = PriorityQueues::new(1024);
        let base = Instant::now();
        for i in 0..130 {
            queues.push(queued(
                ServiceLevel::BestEffort,
                base + Duration::from_millis(i),
            ));
        }
        // Only the overflow beyond the floor is sheddable.
        assert!(queues.shed_best_effort().is_some());
        assert!(queues.shed_best_effort().is_some());
        assert!(queues.shed_best_effort().is_none());
        assert_eq!(queues.len(), 128);
        // The floor never blocks draining.
        assert_eq!(queues.pop_batch(128).len(), 128);
        assert!(queues.is_empty());
        // A small queue capacity clamps the floor to zero: shedding works
        // on the first queued entry.
        let mut small = PriorityQueues::new(4);
        small.push(queued(ServiceLevel::BestEffort, base));
        assert!(small.shed_best_effort().is_some());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Evacuation takes every `Standard` and `BestEffort` entry and
        /// leaves every `Interactive` one, no matter the queue mix, and
        /// accounting stays exact: taken + remaining = pushed.
        #[test]
        fn evacuation_takes_every_non_interactive_entry(
            levels in proptest::prop::collection::vec(0usize..3, 1..40),
        ) {
            let mut queues = PriorityQueues::new(64);
            let base = Instant::now();
            let mut pushed = [0usize; ServiceLevel::COUNT];
            for (i, &level_index) in levels.iter().enumerate() {
                let level = ServiceLevel::from_index(level_index).unwrap();
                pushed[level.index()] += 1;
                queues.push(queued(level, base + Duration::from_millis(i as u64 % 7)));
            }
            let taken = queues.take_evacuable();
            let interactive = pushed[ServiceLevel::Interactive.index()];
            proptest::prop_assert_eq!(taken.len(), levels.len() - interactive);
            for level in [ServiceLevel::Standard, ServiceLevel::BestEffort] {
                let count = taken.iter().filter(|r| r.level == level).count();
                proptest::prop_assert_eq!(count, pushed[level.index()]);
            }
            proptest::prop_assert_eq!(queues.len(), interactive);
            // Every Interactive entry is still drainable from its heap.
            let drained = queues.pop_batch(levels.len());
            proptest::prop_assert_eq!(drained.len(), interactive);
            proptest::prop_assert!(
                drained.iter().all(|r| r.level == ServiceLevel::Interactive)
            );
            proptest::prop_assert!(queues.is_empty());
        }
    }

    #[test]
    fn drain_all_empties_every_level() {
        let mut queues = PriorityQueues::new(4);
        let base = Instant::now();
        for level in ServiceLevel::ALL {
            queues.push(queued(level, base));
            queues.push(queued(level, base));
        }
        assert_eq!(queues.len(), 6);
        let drained = queues.drain_all();
        assert_eq!(drained.len(), 6);
        assert!(queues.is_empty());
    }

    #[test]
    fn price_quotes_order_by_level_strictness() {
        let cfg = QosConfig::default();
        // A saturating curve: t(n) = 30 + 470/n sampled over 1..=48.
        let curve: Vec<(usize, f64)> = (1..=48).map(|n| (n, 30.0 + 470.0 / n as f64)).collect();
        let interactive = price_quote(&curve, ServiceLevel::Interactive, &cfg).unwrap();
        let standard = price_quote(&curve, ServiceLevel::Standard, &cfg).unwrap();
        let best_effort = price_quote(&curve, ServiceLevel::BestEffort, &cfg).unwrap();
        assert!(interactive.attainable && standard.attainable && best_effort.attainable);
        // Stricter promises buy more executors at a higher price.
        assert!(interactive.executors > standard.executors);
        assert!(standard.executors >= best_effort.executors);
        assert!(interactive.price > standard.price);
        assert!(standard.price >= best_effort.price);
        // The multiplier is anchored at the cheapest point.
        assert!((best_effort.multiplier - 1.0).abs() < 1e-12);
        assert!(interactive.multiplier > 1.0);
        // Predicted time orders the other way.
        assert!(interactive.predicted_seconds < best_effort.predicted_seconds);
    }

    #[test]
    fn unattainable_target_falls_back_to_fastest_point() {
        let cfg = QosConfig {
            slowdown_targets: {
                let mut t = QosConfig::default().slowdown_targets;
                t[ServiceLevel::Interactive.index()] = 0.5; // below t_min: impossible
                t
            },
            ..QosConfig::default()
        };
        let curve = vec![(1, 100.0), (2, 60.0), (4, 40.0)];
        let quote = price_quote(&curve, ServiceLevel::Interactive, &cfg).unwrap();
        assert!(!quote.attainable);
        assert_eq!(quote.executors, 4);
        assert_eq!(price_quote(&[], ServiceLevel::Standard, &cfg), None);
    }
}
