//! Discrete-event simulation of query execution on a pool of executors.
//!
//! The simulator plays the role of the Azure Synapse Spark runtime in the
//! paper: given a stage DAG, a cluster configuration, and an allocation
//! policy, it schedules tasks onto executor core-slots over simulated time
//! and reports the elapsed time, the executor-allocation skyline, and the
//! area under that skyline (executor occupancy, `AUC`).
//!
//! Timing behaviour deliberately reproduces the mechanics the paper's
//! figures depend on:
//!
//! * run time saturates once the slot count exceeds the widest stage,
//! * executor requests are satisfied gradually (allocation lag, §5.4),
//! * dynamic allocation ramps up exponentially on backlog and releases idle
//!   executors after a timeout,
//! * run-to-run noise of a few percent (§5.1) is applied per task from a
//!   seeded generator.
//!
//! ## The run loop
//!
//! This is the innermost loop of every offline phase (a ground-truth sweep
//! runs the simulator tens of thousands of times). A run is one private
//! per-run state — the [`SimScratch`] buffers plus the clock, skyline,
//! allocation ramp, sequence counters and fault summary — and a loop that
//! makes one call per step, in this order:
//!
//! 1. bring granted executors online, drawing each one's fault fate;
//! 2. process due revocations: an announcement revokes an executor, the
//!    reap at the end of its grace window loses what still runs on it;
//!    then stop if every executor is lost with nothing left to grant;
//! 3. record the skyline if the live count changed and, at a tick
//!    boundary, apply the allocation policy;
//! 4. dispatch lost tasks, then pending tasks of ready stages, onto free
//!    core-slots;
//! 5. advance the clock to the next event;
//! 6. complete the tasks that are due.
//!
//! "Due" always allows the same `1e-9` s slack. Steps 1–3 run only in an
//! iteration where a grant, a revocation, the tick or the end of the
//! driver overhead is due; the run caches the earliest grant, revocation
//! and overhead end after they run, since only they push grants and
//! revocations. In any other iteration they would change nothing: nothing
//! pops, the tick is not due, and the live count, which only they change,
//! is already recorded. The resources-exhausted stop is checked every
//! iteration.
//!
//! A static policy's tick does nothing, so the clock advance folds every
//! tick with no completion, grant, revocation, usable executor or overhead
//! end within the slack after it. That tick's iteration would only move
//! `next_tick` on by `tick_interval`, and the fold makes the same
//! addition, so output stays bit-identical. A tick with an event in its
//! slack still runs: it completes the tasks ending within the slack, and
//! later start times move in their last bits. Dynamic and predictive
//! ticks always run.
//!
//! Completions, grants, executors becoming usable and revocations wait in
//! one 4-ary min-heap type keyed by a packed `u128`: the total-order bits
//! of the time (the order `f64::total_cmp` uses) above a 64-bit tie (start
//! order for completions and grants, executor index for usable executors,
//! executor index plus a reap bit for revocations), so simultaneous events
//! pop in the order a FIFO scan would see them. Every heap's keys are
//! unique, so any exact min-heap pops the same sequence. A completion
//! entry is 16 bytes, its key alone; the attempt sits in an arena indexed
//! by its start sequence.
//!
//! Free core-slots come from an exact index, one bitset over executor
//! indices per free-slot count plus the total of free slots. An executor
//! is listed under its free count from the moment it becomes usable until
//! it is removed, so a pick never meets a stale entry: most free slots,
//! highest index on ties. A live-executor count, kept where executors come
//! online and are removed, feeds the skyline. Stages enter a sorted ready
//! queue when their last parent finishes.
//!
//! Fault injection has no separate path. An inactive [`FaultPlan`] draws
//! infinite executor lifetimes and no straggler stream, so the revocation
//! heap and the retry queue stay empty and fault-free output is the
//! fault-unaware scheduler's, bit for bit.
//!
//! [`Simulator::run_with_scratch`] reuses a caller's [`SimScratch`] across
//! runs, so collection loops do not re-allocate the buffers per run;
//! `Simulator::run` allocates a fresh scratch and is bit-identical to it.
//! The scratch keeps the prefix of the last run's noise stream (seed and
//! noise level, the generator after the prefix, the drawn factors). A run
//! with the same seed and level reads the prefix and draws only the tasks
//! past its end; any other run restarts the stream. A fresh scratch draws
//! every factor, so both entry points take the one path.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::allocation::AllocationPolicy;
use crate::cluster::ClusterConfig;
use crate::faults::{FailureReason, FaultKind, FaultPlan, FaultSummary, RunOutcome};
use crate::skyline::Skyline;
use crate::stage::{StageDag, StageLog, TaskLog, TaskRecord};
use crate::{require_finite_nonneg, EngineError, Result};

/// Slack of every "due by now" comparison, in simulated seconds.
const EPS: f64 = 1e-9;
/// Simulated-time bound that stops a run which can make no progress.
const MAX_SIM_SECS: f64 = 1e7;

/// Per-run configuration: noise, driver overhead, fault plan, and log
/// capture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Seed for the run-to-run noise generator.
    pub seed: u64,
    /// Coefficient of variation of per-task noise (0 disables noise). The
    /// paper observes 4–7% run-to-run variation; the default is 0.05.
    pub noise_cv: f64,
    /// Fixed driver/compilation overhead before the first task can run.
    pub driver_overhead_secs: f64,
    /// Whether to capture a full task log for post-hoc (Sparklens) analysis.
    pub capture_task_log: bool,
    /// Deterministic fault injection (preemptions, node loss, stragglers).
    /// The default, [`FaultPlan::none`], injects nothing and leaves
    /// scheduler output bit-identical to a fault-unaware run.
    pub faults: FaultPlan,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            noise_cv: 0.05,
            driver_overhead_secs: 8.0,
            capture_task_log: false,
            faults: FaultPlan::none(),
        }
    }
}

impl RunConfig {
    /// A deterministic configuration (no noise), useful for tests and for
    /// generating reference curves.
    pub fn deterministic() -> Self {
        Self {
            noise_cv: 0.0,
            ..Self::default()
        }
    }

    /// Enables task-log capture.
    pub fn with_task_log(mut self) -> Self {
        self.capture_task_log = true;
        self
    }

    /// Sets the noise seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Rejects a configuration the simulator cannot honour: a noise
    /// coefficient or driver overhead that is not finite and non-negative,
    /// or a fault plan that fails [`FaultPlan::validate`]. Every run checks
    /// this before simulating anything.
    pub fn validate(&self) -> Result<()> {
        require_finite_nonneg(
            "run-config",
            &[
                ("noise coefficient of variation", self.noise_cv),
                ("driver overhead", self.driver_overhead_secs),
            ],
        )?;
        self.faults.validate()
    }
}

/// Result of simulating one query execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryRunResult {
    /// Query name.
    pub query_name: String,
    /// Elapsed (wall-clock) time of the query in seconds — `t(n)`.
    pub elapsed_secs: f64,
    /// Executor-allocation skyline over the run.
    pub skyline: Skyline,
    /// Maximum executors allocated at any instant.
    pub max_executors: usize,
    /// Area under the skyline in executor-seconds — `AUC`.
    pub auc_executor_secs: f64,
    /// Total task work executed, in core-seconds.
    pub total_task_secs: f64,
    /// Full task log, present when requested in [`RunConfig`].
    pub task_log: Option<TaskLog>,
    /// Terminal status: [`RunOutcome::Completed`] unless the run
    /// configuration was invalid, or fault injection exhausted a task's
    /// retries or revoked all capacity.
    pub outcome: RunOutcome,
    /// Fault accounting for the run (all-zero without injected faults).
    pub faults: FaultSummary,
}

impl QueryRunResult {
    /// True when every task of the run finished.
    pub fn is_completed(&self) -> bool {
        self.outcome.is_completed()
    }
}

/// The simulator: a cluster configuration plus an allocation policy.
#[derive(Debug, Clone)]
pub struct Simulator {
    cluster: ClusterConfig,
    policy: AllocationPolicy,
}

/// Internal per-executor state.
#[derive(Debug, Clone, Copy)]
struct ExecutorState {
    /// Time from which the executor can run tasks.
    usable_at: f64,
    /// Busy core-slots.
    busy_slots: usize,
    /// Time at which it last became fully idle.
    idle_since: f64,
    /// Whether the executor has been released.
    removed: bool,
}

/// An entry of an [`EventHeap`]: the event's time and tie packed into one
/// key, and its payload.
#[derive(Debug, Clone, Copy)]
struct Event<T> {
    /// The total-order bits of the time (the order `f64::total_cmp` uses)
    /// above the 64-bit tie, so one unsigned compare orders by time, then
    /// by tie.
    key: u128,
    item: T,
}

impl<T> Event<T> {
    fn new(at: f64, tie: u64, item: T) -> Self {
        // A negative time flips every bit, any other only the sign bit.
        let bits = at.to_bits();
        let ordered = bits ^ ((bits as i64 >> 63) as u64 | 1 << 63);
        Self {
            key: (ordered as u128) << 64 | tie as u128,
            item,
        }
    }

    /// The event's time, unpacked bit for bit.
    fn at(&self) -> f64 {
        let ordered = (self.key >> 64) as u64;
        f64::from_bits(ordered ^ (!((ordered as i64 >> 63) as u64) | 1 << 63))
    }

    fn tie(&self) -> u64 {
        self.key as u64
    }
}

/// A 4-ary min-heap of timed events: the earliest time pops first, then
/// the smallest tie. A sift-down picks the least of four children with
/// branch-free compares. Every heap of a run holds unique keys, so any
/// exact min-heap pops its events in one order.
#[derive(Debug)]
struct EventHeap<T> {
    entries: Vec<Event<T>>,
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
        }
    }
}

impl<T: Copy> EventHeap<T> {
    fn clear(&mut self) {
        self.entries.clear();
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Time of the earliest event, infinite when the heap is empty.
    fn next_at(&self) -> f64 {
        self.entries.first().map_or(f64::INFINITY, Event::at)
    }

    /// Pushes an event. Inlined: a late event, the common case, stops at
    /// its first parent.
    #[inline(always)]
    fn push(&mut self, at: f64, tie: u64, item: T) {
        let entry = Event::new(at, tie, item);
        let mut pos = self.entries.len();
        self.entries.push(entry);
        while pos > 0 {
            let parent = (pos - 1) / 4;
            if self.entries[parent].key < entry.key {
                break;
            }
            self.entries[pos] = self.entries[parent];
            pos = parent;
        }
        self.entries[pos] = entry;
    }

    /// Pops the earliest event if it is due by `time`.
    fn pop_due(&mut self, time: f64) -> Option<Event<T>> {
        if self.next_at() > time + EPS {
            return None;
        }
        self.pop()
    }

    /// Pops the earliest event. Kept out of line, so a `pop_due` that finds
    /// nothing due costs a compare, not a call.
    #[inline(never)]
    fn pop(&mut self) -> Option<Event<T>> {
        let last = self.entries.pop()?;
        let Some(&top) = self.entries.first() else {
            return Some(last);
        };
        self.sift_down(0, last);
        Some(top)
    }

    /// Fills the hole at `pos` with `entry`, moving the least child up
    /// while it is less than `entry`.
    fn sift_down(&mut self, mut pos: usize, entry: Event<T>) {
        let len = self.entries.len();
        loop {
            let first = 4 * pos + 1;
            let child = if first + 4 <= len {
                let kids = &self.entries[first..first + 4];
                let low = (kids[1].key < kids[0].key) as usize;
                let high = 2 + (kids[3].key < kids[2].key) as usize;
                first + low + (high - low) * (kids[high].key < kids[low].key) as usize
            } else if first < len {
                (first + 1..len).fold(first, |least, c| {
                    if self.entries[c].key < self.entries[least].key {
                        c
                    } else {
                        least
                    }
                })
            } else {
                break;
            };
            if self.entries[child].key > entry.key {
                break;
            }
            self.entries[pos] = self.entries[child];
            pos = child;
        }
        self.entries[pos] = entry;
    }

    /// Removes and returns every event for which `take` holds, in no
    /// particular order, and restores the heap order of the rest.
    fn extract(&mut self, mut take: impl FnMut(&Event<T>) -> bool) -> Vec<Event<T>> {
        let mut taken = Vec::new();
        self.entries.retain(|e| {
            let keep = !take(e);
            if !keep {
                taken.push(*e);
            }
            keep
        });
        if !taken.is_empty() && self.entries.len() > 1 {
            for pos in (0..=(self.entries.len() - 2) / 4).rev() {
                self.sift_down(pos, self.entries[pos]);
            }
        }
        taken
    }
}

/// A task attempt, stored in the run's arena at its start sequence. Its
/// completion-heap entry holds only its end time and that sequence.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    executor: usize,
    stage: usize,
    /// Task index within the stage (identifies the task on loss/retry).
    task: usize,
    start: f64,
    duration: f64,
    /// Time of the first revocation that lost this task, or
    /// `NEG_INFINITY` for a first attempt. Finite values mark retries and
    /// feed the recovery-time accounting on completion.
    lost_at: f64,
}

/// Tie bit of a reap in the revocation heap, above the executor index. An
/// announcement (bit clear) marks the executor revoked (no new tasks; a
/// replacement may be requested), the reap at the end of the grace window
/// loses whatever is still running on it; at one time every announcement
/// pops before any reap, each in executor order.
const REAP: u64 = 1 << 63;

/// A task lost to a revocation, waiting to be re-scheduled.
#[derive(Debug, Clone, Copy)]
struct RetryTask {
    stage: usize,
    task: usize,
    /// Remaining duration of the retry attempt (original duration minus any
    /// checkpointed progress, plus the restart overhead).
    remaining: f64,
    /// Time of the earliest loss of this task (for recovery accounting).
    lost_at: f64,
}

/// Reusable per-run simulation state. Collection loops that simulate many
/// runs should allocate one scratch (per worker thread) and pass it to
/// [`Simulator::run_with_scratch`]; all buffers are cleared, not freed,
/// between runs.
///
/// The scratch also keeps the noise factors it last drew and the seeded
/// stream positioned after them. A run whose seed and noise level match
/// reuses that prefix and draws only the tasks past its end; any other run
/// restarts the stream. Loops that run many queries under one seed (each
/// cell of a ground-truth sweep, the three policies of one comparison)
/// should pass them through one scratch, so the shared stream is drawn
/// once.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// The noise stream of the last run, kept across runs.
    noise: NoisePrefix,
    /// Flattened noisy task durations, stage-major.
    noisy: Vec<f64>,
    /// Start offset of each stage within `noisy` (plus a final sentinel).
    stage_offsets: Vec<usize>,
    /// Next unscheduled task index per stage.
    next_task: Vec<usize>,
    /// Completed task count per stage.
    completed_tasks: Vec<usize>,
    /// Number of unfinished parent stages per stage.
    unfinished_parents: Vec<usize>,
    /// Child adjacency, flattened (`children_offsets` indexes into it).
    children: Vec<usize>,
    /// Start offset of each stage's children (plus a final sentinel).
    children_offsets: Vec<usize>,
    /// Ready stages, kept sorted ascending. Every ready stage has an
    /// unscheduled task: dispatch drops a stage once it has none left.
    ready: Vec<usize>,
    /// Executor pool (grows only; `removed` marks released executors).
    executors: Vec<ExecutorState>,
    /// Pending grants: the time each executor comes online, tied by
    /// request order, carrying the time it becomes usable.
    pending: EventHeap<f64>,
    /// Executors that become usable in the future, tied by index.
    usable_queue: EventHeap<()>,
    /// Executors listed by free core-slots: per block of 64 executor
    /// indices, one bit word for each count 1..=ec (word `block * ec +
    /// count - 1`).
    free_slots: Vec<u64>,
    /// In-flight task attempts by end time, tied by start sequence: 16
    /// bytes an entry, the attempt itself sits in `attempts`.
    completions: EventHeap<()>,
    /// Every task attempt of the run, indexed by its start sequence.
    attempts: Vec<Attempt>,
    /// Captured task records (only filled when the log is requested).
    records: Vec<TaskRecord>,
    /// Pending executor revocations (empty without fault injection), tied
    /// by executor index, with [`REAP`] set for a reap.
    revocations: EventHeap<FaultKind>,
    /// Lost tasks awaiting re-scheduling, FIFO by loss order.
    retry: VecDeque<RetryTask>,
    /// Loss count per task, flattened stage-major.
    task_retries: Vec<u32>,
}

/// The noise factors drawn so far from one seeded stream, in task order,
/// and the stream positioned after the last of them.
#[derive(Debug, Default)]
struct NoisePrefix {
    /// The stream's seed and the bits of the `noise_cv` its factors were
    /// drawn at, with the generator; `None` before the first draw.
    stream: Option<((u64, u64), StdRng)>,
    /// Factor of task `i` (stage-major over a run's DAG) at index `i`.
    factors: Vec<f64>,
}

impl NoisePrefix {
    /// Extends the factors to `len` tasks of the stream seeded with
    /// `seed` at coefficient of variation `cv`, drawing only those past
    /// the stored prefix. A different seed or `cv` restarts the stream, so
    /// the first `len` factors are always the ones a fresh generator
    /// draws.
    fn draw(&mut self, seed: u64, cv: f64, len: usize) {
        let key = (seed, cv.to_bits());
        let rng = match &mut self.stream {
            Some((stored, rng)) if *stored == key => rng,
            stream => {
                self.factors.clear();
                &mut stream.insert((key, StdRng::seed_from_u64(seed))).1
            }
        };
        let drawn = self.factors.len();
        self.factors
            .extend((drawn..len).map(|_| noise_factor(rng, cv)));
    }
}

impl SimScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, dag: &StageDag) {
        let num_stages = dag.num_stages();
        self.noisy.clear();
        self.stage_offsets.clear();
        self.stage_offsets.reserve(num_stages + 1);
        self.next_task.clear();
        self.next_task.resize(num_stages, 0);
        self.completed_tasks.clear();
        self.completed_tasks.resize(num_stages, 0);
        self.unfinished_parents.clear();
        self.unfinished_parents.resize(num_stages, 0);
        self.children.clear();
        self.children_offsets.clear();
        self.ready.clear();
        self.executors.clear();
        self.pending.clear();
        self.usable_queue.clear();
        self.free_slots.clear();
        self.completions.clear();
        self.attempts.clear();
        self.records.clear();
        self.revocations.clear();
        self.retry.clear();
        self.task_retries.clear();
        self.task_retries.resize(dag.num_tasks(), 0);

        // Dependency bookkeeping: parent counts and child adjacency.
        for stage in dag.stages() {
            self.unfinished_parents[stage.id] = stage.parents.len();
        }
        // Children, grouped by parent in one flat vector. Stage ids are
        // 0..n in topological order, so a counting pass suffices.
        let mut counts = vec![0usize; num_stages];
        for stage in dag.stages() {
            for &p in &stage.parents {
                counts[p] += 1;
            }
        }
        self.children_offsets.reserve(num_stages + 1);
        let mut offset = 0usize;
        for &c in &counts {
            self.children_offsets.push(offset);
            offset += c;
        }
        self.children_offsets.push(offset);
        self.children.resize(offset, 0);
        let mut cursor: Vec<usize> = self.children_offsets[..num_stages].to_vec();
        for stage in dag.stages() {
            for &p in &stage.parents {
                self.children[cursor[p]] = stage.id;
                cursor[p] += 1;
            }
        }
        // Root stages are ready immediately.
        self.ready
            .extend((0..num_stages).filter(|&s| self.unfinished_parents[s] == 0));
    }

    /// Task count of stage `s`.
    fn stage_size(&self, s: usize) -> usize {
        self.stage_offsets[s + 1] - self.stage_offsets[s]
    }

    /// Noisy duration of task `t` of stage `s`.
    fn duration(&self, s: usize, t: usize) -> f64 {
        self.noisy[self.stage_offsets[s] + t]
    }

    /// Counts one finished task of `stage`. When it was the stage's last,
    /// every child whose last unfinished parent this was joins the sorted
    /// ready queue.
    fn task_done(&mut self, stage: usize) {
        self.completed_tasks[stage] += 1;
        if self.completed_tasks[stage] < self.stage_size(stage) {
            return;
        }
        for pos in self.children_offsets[stage]..self.children_offsets[stage + 1] {
            let child = self.children[pos];
            self.unfinished_parents[child] -= 1;
            if self.unfinished_parents[child] == 0 && self.next_task[child] < self.stage_size(child)
            {
                if let Err(at) = self.ready.binary_search(&child) {
                    self.ready.insert(at, child);
                }
            }
        }
    }
}

impl Simulator {
    /// Creates a simulator after validating the cluster configuration and
    /// the allocation policy: a policy that can hold no executor, or whose
    /// durations are not finite and non-negative, is rejected.
    pub fn new(cluster: ClusterConfig, policy: AllocationPolicy) -> Result<Self> {
        cluster.validate()?;
        policy.validate()?;
        Ok(Self { cluster, policy })
    }

    /// The cluster configuration.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// The allocation policy.
    pub fn policy(&self) -> &AllocationPolicy {
        &self.policy
    }

    /// Simulates the execution of `dag` and returns timing and occupancy.
    ///
    /// A `cfg` that fails [`RunConfig::validate`] is not simulated: the
    /// result reports [`FailureReason::InvalidConfig`], zero elapsed time
    /// and no task log.
    pub fn run(&self, query_name: &str, dag: &StageDag, cfg: &RunConfig) -> QueryRunResult {
        self.simulate(query_name, dag, cfg, &mut SimScratch::new())
    }

    /// Like [`Simulator::run`], but reuses the caller's scratch buffers.
    ///
    /// Results are bit-identical to `run`; collection loops that simulate
    /// thousands of runs avoid re-allocating the event queues and duration
    /// matrix on every run, and runs that share a noise seed draw its
    /// stream once (see [`SimScratch`]).
    pub fn run_with_scratch(
        &self,
        query_name: &str,
        dag: &StageDag,
        cfg: &RunConfig,
        scratch: &mut SimScratch,
    ) -> QueryRunResult {
        self.simulate(query_name, dag, cfg, scratch)
    }

    fn simulate(
        &self,
        query_name: &str,
        dag: &StageDag,
        cfg: &RunConfig,
        scratch: &mut SimScratch,
    ) -> QueryRunResult {
        if let Err(error) = cfg.validate() {
            return rejected(query_name, error);
        }
        let mut run = Run::new(self, dag, cfg, scratch);
        let failure = loop {
            if !run.in_progress() {
                break None;
            }
            // Steps 1–3 change nothing unless a grant, a revocation, the
            // tick or the end of the driver overhead is due.
            let due = run.event_due();
            if due {
                run.bring_grants_online();
                if let Some(reason) = run.process_revocations() {
                    break Some(reason);
                }
            }
            if run.resources_exhausted() {
                break Some(FailureReason::ResourcesExhausted);
            }
            if due {
                run.policy_tick();
                run.cache_next_event();
            }
            run.dispatch();
            if !run.advance_time() {
                break None;
            }
            run.complete_due_tasks();
            #[cfg(debug_assertions)]
            run.check_counts();
        };
        run.finish(query_name, dag, failure)
    }
}

/// The state of one run: the scratch buffers plus the clock, skyline,
/// allocation ramp, sequence counters and fault summary.
struct Run<'a> {
    sim: &'a Simulator,
    cfg: &'a RunConfig,
    s: &'a mut SimScratch,
    /// Core-slots per executor.
    ec: usize,
    /// Most executors the cluster can host.
    pool_cap: usize,
    /// Executors per node, mapping executor indices onto nodes.
    executors_per_node: usize,
    /// The simulated clock, in seconds.
    time: f64,
    next_tick: f64,
    tick_interval: f64,
    /// Whether a tick with nothing else due in its slack may be folded
    /// into the clock advance: true for a static policy, whose tick does
    /// nothing.
    folds_ticks: bool,
    /// Earliest grant, revocation or end of the driver overhead, cached by
    /// the last iteration that ran steps 1–3 (only they change the first
    /// two; see [`Run::cache_next_event`]).
    next_event: f64,
    skyline: Skyline,
    /// Executors requested so far, net of revocations.
    requested_target: usize,
    /// Size of dynamic allocation's next request.
    da_next_add: usize,
    /// Time of dynamic allocation's last request.
    da_last_request: f64,
    /// Whether the predictive rule has issued its request.
    predictive_requested: bool,
    grant_seq: u64,
    /// Online executors not yet removed.
    live: usize,
    /// Free core-slots over the executors in the free-slot index.
    free_total: usize,
    finished_tasks: usize,
    faults: FaultSummary,
}

impl<'a> Run<'a> {
    /// Resets the scratch for `dag`, draws every task's duration and
    /// issues the policy's initial request at time zero.
    fn new(sim: &'a Simulator, dag: &StageDag, cfg: &'a RunConfig, s: &'a mut SimScratch) -> Self {
        s.reset(dag);
        let cluster = &sim.cluster;
        let mut run = Run {
            sim,
            cfg,
            s,
            ec: cluster.executor.cores.max(1),
            pool_cap: cluster.max_executors().max(1),
            executors_per_node: cluster.node.executors_per_node(&cluster.executor).max(1),
            time: 0.0,
            next_tick: 0.0,
            tick_interval: match sim.policy {
                AllocationPolicy::Dynamic(da) => da.schedule_interval_secs.max(0.25),
                _ => 1.0,
            },
            folds_ticks: matches!(sim.policy, AllocationPolicy::Static { .. }),
            // The tick at time zero makes the first iteration run steps
            // 1–3, which cache the real value.
            next_event: f64::INFINITY,
            skyline: Skyline::new(),
            requested_target: 0,
            da_next_add: 1,
            da_last_request: f64::NEG_INFINITY,
            predictive_requested: false,
            grant_seq: 0,
            live: 0,
            free_total: 0,
            finished_tasks: 0,
            faults: FaultSummary::default(),
        };
        run.draw_durations(dag);
        run.grant(sim.policy.initial_executors().min(run.pool_cap));
        run
    }

    /// Materialises every task's noisy duration, stage-major. The
    /// cores-per-executor penalty keeps ec≠4 configurations slightly off
    /// the ec=4 trend (Figure 5). Task `i` takes factor `i` of the noise
    /// stream, which the scratch extends (or restarts on another seed) to
    /// cover the DAG. Straggler multipliers come from their own seed
    /// stream, consumed in the same order, so enabling them does not
    /// perturb the base noise draws.
    fn draw_durations(&mut self, dag: &StageDag) {
        let cfg = self.cfg;
        self.s.noise.draw(cfg.seed, cfg.noise_cv, dag.num_tasks());
        let mut stragglers = cfg.faults.straggler_rng();
        let ec_penalty = 1.0 + 0.02 * (self.ec as f64 - 4.0).abs();
        for stage in dag.stages() {
            self.s.stage_offsets.push(self.s.noisy.len());
            for t in &stage.tasks {
                let mut duration =
                    t.work_secs * ec_penalty * self.s.noise.factors[self.s.noisy.len()];
                if let Some(rng) = stragglers.as_mut() {
                    let factor = cfg.faults.straggler_factor(rng);
                    if factor > 1.0 {
                        self.faults.stragglers += 1;
                    }
                    duration *= factor;
                }
                self.s.noisy.push(duration);
            }
        }
        self.s.stage_offsets.push(self.s.noisy.len());
    }

    /// Whether tasks remain and the clock is inside the simulation bound.
    fn in_progress(&self) -> bool {
        self.finished_tasks < self.s.noisy.len() && self.time < MAX_SIM_SECS
    }

    /// Step 1: executors whose grant is due come online. Each draws its
    /// revocation time (the earlier of its spot lifetime and its node's
    /// failure) from index-keyed seed streams, so its fate does not depend
    /// on scheduling order, and executors on one node die together.
    fn bring_grants_online(&mut self) {
        let plan = &self.cfg.faults;
        while let Some(grant) = self.s.pending.pop_due(self.time) {
            let (online_at, usable_at) = (grant.at(), grant.item);
            let idx = self.s.executors.len();
            self.s.executors.push(ExecutorState {
                usable_at,
                busy_slots: 0,
                idle_since: usable_at,
                removed: false,
            });
            self.live += 1;
            // The free-slot index grows by a block of words per 64 indices.
            self.s.free_slots.resize((idx / 64 + 1) * self.ec, 0);
            self.s.usable_queue.push(usable_at, idx as u64, ());
            let mut revoke = (
                online_at + plan.executor_lifetime(idx),
                FaultKind::Preemption,
            );
            let node_loss_at = plan.node_loss_time(idx / self.executors_per_node);
            // A node that failed before this executor came online cannot
            // kill it (replacements land on healthy capacity).
            if node_loss_at > online_at && node_loss_at < revoke.0 {
                revoke = (node_loss_at, FaultKind::NodeLoss);
            }
            if revoke.0.is_finite() {
                self.s.revocations.push(revoke.0, idx as u64, revoke.1);
            }
        }
    }

    /// Step 2: due revocations. An announcement revokes the executor and
    /// schedules its reap; a reap loses the tasks still running on it.
    /// Returns why the run must stop, if it must.
    fn process_revocations(&mut self) -> Option<FailureReason> {
        while let Some(revoke) = self.s.revocations.pop_due(self.time) {
            let executor = (revoke.tie() & !REAP) as usize;
            if revoke.tie() & REAP == 0 {
                self.announce(revoke.at(), executor, revoke.item);
            } else if let Some(reason) = self.reap(executor) {
                return Some(reason);
            }
        }
        None
    }

    /// Whether every executor was lost with nothing left to grant. With
    /// re-acquisition disabled, total capacity loss leaves unfinished work
    /// that can never run: the run fails fast instead of ticking to the
    /// simulation bound. Checked every iteration, after step 2.
    fn resources_exhausted(&self) -> bool {
        let s = &self.s;
        s.completions.is_empty()
            && s.pending.is_empty()
            && !s.executors.is_empty()
            && self.live == 0
    }

    /// Revokes `executor` (announced for `at`): it takes no new tasks, a
    /// replacement is requested when the plan re-acquires, and its reap is
    /// scheduled at the end of the grace window.
    fn announce(&mut self, at: f64, executor: usize, kind: FaultKind) {
        if self.s.executors[executor].removed {
            return; // already released by idle timeout
        }
        self.remove_executor(executor);
        match kind {
            FaultKind::Preemption => self.faults.preempted_executors += 1,
            FaultKind::NodeLoss => self.faults.node_loss_executors += 1,
        }
        self.requested_target = self.requested_target.saturating_sub(1);
        let plan = &self.cfg.faults;
        if plan.reacquire {
            self.grant(1);
            self.faults.replacements_requested += 1;
        }
        self.s
            .revocations
            .push(at + plan.grace_period_secs, REAP | executor as u64, kind);
    }

    /// Reaps a revoked executor at the end of its grace window: every task
    /// still running on it is lost and queued for retry with the restart
    /// cost implied by the plan's checkpoint fraction. Returns a failure
    /// when a task exceeds its retry cap.
    fn reap(&mut self, executor: usize) -> Option<FailureReason> {
        let time = self.time;
        let s = &mut *self.s;
        // Rebuilding the heap is O(n), but reaps with in-flight tasks are
        // rare relative to scheduling events.
        let mut lost = s
            .completions
            .extract(|c| s.attempts[c.tie() as usize].executor == executor && c.at() > time + EPS);
        if lost.is_empty() {
            return None;
        }
        // Lost tasks re-enter the retry queue in start order.
        lost.sort_by_key(Event::tie);
        let plan = &self.cfg.faults;
        let mut failure = None;
        for c in lost {
            let a = self.s.attempts[c.tie() as usize];
            let exec = &mut self.s.executors[a.executor];
            exec.busy_slots = exec.busy_slots.saturating_sub(1);
            let elapsed = (time - a.start).max(0.0);
            let preserved = plan.checkpoint_fraction * elapsed;
            self.faults.tasks_lost += 1;
            self.faults.work_lost_secs += elapsed - preserved;
            let flat = self.s.stage_offsets[a.stage] + a.task;
            let retries = &mut self.s.task_retries[flat];
            *retries += 1;
            if *retries > plan.max_task_retries {
                failure.get_or_insert(FailureReason::RetriesExhausted {
                    stage: a.stage,
                    task: a.task,
                });
                continue;
            }
            self.s.retry.push_back(RetryTask {
                stage: a.stage,
                task: a.task,
                remaining: (a.duration - preserved).max(0.0) + plan.restart_overhead_secs,
                // Recovery is measured from the first loss of the task.
                lost_at: if a.lost_at.is_finite() {
                    a.lost_at
                } else {
                    time
                },
            });
        }
        failure
    }

    /// Step 3: records the allocation and, at a tick boundary, applies the
    /// allocation policy (reactive scale-up, the predictive rule's request,
    /// idle-timeout removals) and records it again.
    fn policy_tick(&mut self) {
        self.record_skyline();
        if self.time + EPS < self.next_tick {
            return;
        }
        match self.sim.policy {
            AllocationPolicy::Static { .. } => {}
            AllocationPolicy::Dynamic(da) => {
                // Backlog: a ready stage (each has an unscheduled task) or
                // a lost task awaiting its retry.
                if !self.s.ready.is_empty() || !self.s.retry.is_empty() {
                    // Each exponentially-larger request only fires after
                    // the backlog has been sustained since the previous one.
                    let sustained =
                        self.time - self.da_last_request >= da.sustained_backlog_secs - EPS;
                    let desired = (self.requested_target + self.da_next_add)
                        .min(da.max_executors)
                        .min(self.pool_cap);
                    if sustained && desired > self.requested_target {
                        self.grant(desired - self.requested_target);
                        self.da_next_add *= 2;
                        self.da_last_request = self.time;
                    }
                } else {
                    self.da_next_add = 1;
                }
                self.remove_idle(da.idle_timeout_secs, da.min_executors.max(1));
            }
            AllocationPolicy::Predictive {
                predicted,
                rule_delay_secs,
                idle_timeout_secs,
                ..
            } => {
                if !self.predictive_requested && self.time + EPS >= rule_delay_secs {
                    self.predictive_requested = true;
                    let target = predicted.min(self.pool_cap);
                    self.grant(target.saturating_sub(self.requested_target));
                }
                self.remove_idle(idle_timeout_secs, 1);
            }
        }
        self.record_skyline();
        self.next_tick = self.time + self.tick_interval;
    }

    /// Step 4: once the driver overhead has passed, executors that became
    /// usable join the free-slot index, then lost tasks (FIFO by loss
    /// order: they sit on the critical path of recovery) and pending tasks
    /// of ready stages start on free slots until none is left.
    fn dispatch(&mut self) {
        if self.time + EPS < self.cfg.driver_overhead_secs {
            return;
        }
        while let Some(usable) = self.s.usable_queue.pop_due(self.time) {
            let idx = usable.tie() as usize;
            let exec = self.s.executors[idx];
            if !exec.removed && exec.busy_slots < self.ec {
                self.move_free(idx, 0, self.ec - exec.busy_slots);
            }
        }
        while self.free_total > 0 {
            let Some(retry) = self.s.retry.pop_front() else {
                break;
            };
            self.start_task(retry.stage, retry.task, retry.remaining, retry.lost_at);
        }
        let mut pos = 0;
        while pos < self.s.ready.len() && self.free_total > 0 {
            let stage = self.s.ready[pos];
            let size = self.s.stage_size(stage);
            while self.s.next_task[stage] < size && self.free_total > 0 {
                let task = self.s.next_task[stage];
                self.s.next_task[stage] += 1;
                let duration = self.s.duration(stage, task);
                self.start_task(stage, task, duration, f64::NEG_INFINITY);
            }
            if self.s.next_task[stage] == size {
                self.s.ready.remove(pos);
            } else {
                pos += 1;
            }
        }
    }

    /// Starts an attempt of `task` of `stage` now on the best free slot: a
    /// first attempt (`lost_at` = −∞) or a retry of a task first lost at
    /// `lost_at`. Call only while a slot is free.
    fn start_task(&mut self, stage: usize, task: usize, duration: f64, lost_at: f64) {
        let exec = self.best_free_slot();
        let free = self.ec - self.s.executors[exec].busy_slots;
        self.s.executors[exec].busy_slots += 1;
        self.move_free(exec, free, free - 1);
        self.s
            .completions
            .push(self.time + duration, self.s.attempts.len() as u64, ());
        self.s.attempts.push(Attempt {
            executor: exec,
            stage,
            task,
            start: self.time,
            duration,
            lost_at,
        });
    }

    /// The listed executor with the most free core-slots, highest index on
    /// ties (the historical linear-scan tie-break). Call only while a slot
    /// is free.
    fn best_free_slot(&self) -> usize {
        let blocks = self.s.free_slots.len() / self.ec;
        for free in (1..=self.ec).rev() {
            for block in (0..blocks).rev() {
                let word = self.s.free_slots[block * self.ec + free - 1];
                if word != 0 {
                    return block * 64 + 63 - word.leading_zeros() as usize;
                }
            }
        }
        unreachable!("no core-slot is free")
    }

    /// Moves `exec` in the free-slot index from `from` to `to` free
    /// core-slots, where zero means unlisted.
    fn move_free(&mut self, exec: usize, from: usize, to: usize) {
        let (base, bit) = (exec / 64 * self.ec, 1u64 << (exec % 64));
        if from > 0 {
            self.s.free_slots[base + from - 1] &= !bit;
        }
        if to > 0 {
            self.s.free_slots[base + to - 1] |= bit;
        }
        self.free_total = self.free_total + to - from;
    }

    /// Whether `exec` is listed in the free-slot index under `free` slots.
    fn is_listed(&self, exec: usize, free: usize) -> bool {
        free > 0 && self.s.free_slots[exec / 64 * self.ec + free - 1] >> (exec % 64) & 1 == 1
    }

    /// Marks `exec` removed: it leaves the live count and, if listed, the
    /// free-slot index.
    fn remove_executor(&mut self, exec: usize) {
        self.s.executors[exec].removed = true;
        self.live -= 1;
        let free = self.ec - self.s.executors[exec].busy_slots;
        if self.is_listed(exec, free) {
            self.move_free(exec, free, 0);
        }
    }

    /// Whether a grant, a revocation, the tick or the end of the driver
    /// overhead is due, so steps 1–3 must run.
    fn event_due(&self) -> bool {
        self.next_event.min(self.next_tick) <= self.time + EPS
    }

    /// Caches the earliest grant, revocation or end of the driver overhead
    /// after steps 1–3. It holds until they run again: only they push
    /// grants and revocations, and the clock cannot pass the overhead's end
    /// without that end falling due first.
    fn cache_next_event(&mut self) {
        let overhead_end = if self.time < self.cfg.driver_overhead_secs {
            self.cfg.driver_overhead_secs
        } else {
            f64::INFINITY
        };
        self.next_event = self
            .s
            .pending
            .next_at()
            .min(self.s.revocations.next_at())
            .min(overhead_end);
    }

    /// Step 5: advances the clock to the next event — a completion, a
    /// grant, a revocation, the next tick, or the end of the driver
    /// overhead. Returns false when nothing is left to happen (defensive:
    /// the tick is always finite).
    ///
    /// A static policy's tick first folds every tick before the simulation
    /// bound that has no completion, grant, revocation, usable executor or
    /// overhead end within `EPS` after it. Such a tick's iteration would
    /// change nothing but `next_tick`, which the fold advances by the same
    /// `+ tick_interval`: nothing pops, dispatch finds the slots and work
    /// the last dispatch left, and the live count is already recorded. A
    /// tick with an event in its slack still runs: it completes the tasks
    /// due by then, and later starts move in their last bits.
    fn advance_time(&mut self) -> bool {
        let next = self.s.completions.next_at().min(self.next_event);
        if self.folds_ticks {
            let quiet_until = next.min(self.s.usable_queue.next_at());
            while self.next_tick + EPS < quiet_until && self.next_tick < MAX_SIM_SECS {
                self.next_tick += self.tick_interval;
            }
        }
        let next = next.min(self.next_tick);
        if !next.is_finite() {
            return false;
        }
        self.time = next.max(self.time);
        true
    }

    /// Step 6: completes every task that finished by now, freeing its slot
    /// and readying the children of stages it finished.
    fn complete_due_tasks(&mut self) {
        while let Some(done) = self.s.completions.pop_due(self.time) {
            let (end, a) = (done.at(), self.s.attempts[done.tie() as usize]);
            self.finished_tasks += 1;
            if a.lost_at.is_finite() {
                // A retry finishing: recovery trailed the loss by this.
                self.faults.recovery_secs += end - a.lost_at;
            }
            self.s.task_done(a.stage);
            let exec = &mut self.s.executors[a.executor];
            let free = self.ec - exec.busy_slots;
            exec.busy_slots -= 1;
            if exec.busy_slots == 0 {
                exec.idle_since = end;
            }
            // An executor running a task has been usable since it started.
            if !exec.removed {
                self.move_free(a.executor, free, free + 1);
            }
            if self.cfg.capture_task_log {
                self.s.records.push(TaskRecord {
                    stage_id: a.stage,
                    start_secs: a.start,
                    duration_secs: a.duration,
                });
            }
        }
    }

    /// Requests `count` more executors (capped at the pool) under the
    /// cluster's allocation-lag model: they come online in waves and
    /// become usable after the startup delay.
    fn grant(&mut self, count: usize) {
        let count = count.min(self.pool_cap.saturating_sub(self.requested_target));
        let lag = self.sim.cluster.lag;
        for i in 0..count {
            // Zero executors per wave means one wave for the whole request.
            let wave = i.checked_div(lag.executors_per_wave).unwrap_or(0);
            let allocated_at =
                self.time + lag.grant_delay_secs + wave as f64 * lag.wave_interval_secs;
            self.s.pending.push(
                allocated_at,
                self.grant_seq,
                allocated_at + lag.executor_startup_secs,
            );
            self.grant_seq += 1;
        }
        self.requested_target += count;
    }

    /// Releases executors idle past `timeout`, never dropping below
    /// `keep_min` live executors.
    fn remove_idle(&mut self, timeout: f64, keep_min: usize) {
        for idx in 0..self.s.executors.len() {
            if self.live <= keep_min {
                break;
            }
            let exec = self.s.executors[idx];
            if !exec.removed
                && exec.busy_slots == 0
                && exec.usable_at <= self.time
                && self.time - exec.idle_since >= timeout
            {
                self.remove_executor(idx);
            }
        }
    }

    /// Records the live executor count (grants not yet online are not
    /// counted) when it differs from the skyline's last change point. A
    /// record of the same count would only move the skyline's end, which
    /// `finish` sets to the elapsed time, past every record.
    fn record_skyline(&mut self) {
        if self.skyline.points().last().map(|p| p.1) != Some(self.live) {
            self.skyline.record(self.time, self.live);
        }
    }

    /// Recounts the live count and the free-slot index from the executors
    /// and the usable queue. Every live executor with a free slot is either
    /// listed under its free count or still waiting to become usable.
    #[cfg(debug_assertions)]
    fn check_counts(&self) {
        let s = &self.s;
        let (mut live, mut listed, mut free_total, mut waiting) = (0, 0, 0, 0);
        for (idx, exec) in s.executors.iter().enumerate().filter(|(_, e)| !e.removed) {
            let free = self.ec - exec.busy_slots;
            live += 1;
            if self.is_listed(idx, free) {
                (listed, free_total) = (listed + 1, free_total + free);
            } else if free > 0 {
                waiting += 1;
            }
        }
        let bits: u32 = s.free_slots.iter().map(|w| w.count_ones()).sum();
        let queued = s
            .usable_queue
            .entries
            .iter()
            .filter(|u| !s.executors[u.tie() as usize].removed);
        assert_eq!(
            (self.live, bits as usize, self.free_total, queued.count()),
            (live, listed, free_total, waiting),
            "live count, listed executors, free slots, executors awaiting use"
        );
    }

    /// Closes the skyline at the elapsed time and assembles the result.
    fn finish(
        self,
        query_name: &str,
        dag: &StageDag,
        failure: Option<FailureReason>,
    ) -> QueryRunResult {
        let Run {
            cfg,
            s,
            ec,
            time,
            mut skyline,
            finished_tasks,
            faults,
            ..
        } = self;
        let elapsed = time.max(cfg.driver_overhead_secs);
        skyline.finish(elapsed);
        let max_executors = skyline.max_executors();
        let task_log = cfg.capture_task_log.then(|| TaskLog {
            query_name: query_name.to_string(),
            executors: max_executors,
            cores_per_executor: ec,
            stages: dag
                .stages()
                .iter()
                .enumerate()
                .map(|(idx, stage)| StageLog {
                    stage_id: idx,
                    parents: stage.parents.clone(),
                    task_durations_secs: s.noisy[s.stage_offsets[idx]..s.stage_offsets[idx + 1]]
                        .to_vec(),
                })
                .collect(),
            records: s.records.clone(),
            driver_overhead_secs: cfg.driver_overhead_secs,
            elapsed_secs: elapsed,
        });
        let outcome = match failure {
            Some(reason) => RunOutcome::Failed(reason),
            // Hitting the simulation bound with unfinished work means the
            // run deadlocked (possible only under pathological fault plans).
            None if finished_tasks < s.noisy.len() => {
                RunOutcome::Failed(FailureReason::ResourcesExhausted)
            }
            None => RunOutcome::Completed,
        };
        QueryRunResult {
            query_name: query_name.to_string(),
            elapsed_secs: elapsed,
            auc_executor_secs: skyline.auc_executor_secs(),
            skyline,
            max_executors,
            total_task_secs: s.noisy.iter().sum(),
            task_log,
            outcome,
            faults,
        }
    }
}

/// The result of a run whose configuration failed validation: nothing was
/// simulated.
fn rejected(query_name: &str, error: EngineError) -> QueryRunResult {
    QueryRunResult {
        query_name: query_name.to_string(),
        elapsed_secs: 0.0,
        skyline: Skyline::new(),
        max_executors: 0,
        auc_executor_secs: 0.0,
        total_task_secs: 0.0,
        task_log: None,
        outcome: RunOutcome::Failed(FailureReason::InvalidConfig(error.to_string())),
        faults: FaultSummary::default(),
    }
}

/// Lognormal-ish multiplicative noise with coefficient of variation `cv`,
/// generated without external distribution crates (Irwin–Hall approximation
/// of a standard normal).
fn noise_factor(rng: &mut StdRng, cv: f64) -> f64 {
    if cv <= 0.0 {
        return 1.0;
    }
    let normal: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
    (1.0 + normal * cv).max(0.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{Stage, Task};

    /// A single wide stage: 64 tasks of 10 s each.
    fn wide_dag() -> StageDag {
        StageDag::new(vec![Stage {
            id: 0,
            tasks: vec![Task::new(10.0); 64],
            parents: vec![],
        }])
        .unwrap()
    }

    /// Two stages: a wide scan feeding a narrow aggregation.
    fn two_stage_dag() -> StageDag {
        StageDag::new(vec![
            Stage {
                id: 0,
                tasks: vec![Task::new(5.0); 32],
                parents: vec![],
            },
            Stage {
                id: 1,
                tasks: vec![Task::new(8.0); 4],
                parents: vec![0],
            },
        ])
        .unwrap()
    }

    fn sim(n: usize) -> Simulator {
        Simulator::new(
            ClusterConfig::paper_default(),
            AllocationPolicy::static_allocation(n),
        )
        .unwrap()
    }

    fn instant_cluster() -> ClusterConfig {
        ClusterConfig {
            lag: crate::cluster::AllocationLag::instant(),
            ..ClusterConfig::paper_default()
        }
    }

    #[test]
    fn more_executors_never_slow_down_a_wide_stage() {
        let dag = wide_dag();
        let cfg = RunConfig::deterministic();
        let mut last = f64::INFINITY;
        for n in [1usize, 2, 4, 8, 16] {
            let r = sim(n).run("wide", &dag, &cfg);
            assert!(
                r.elapsed_secs <= last + 1e-6,
                "t({n}) = {} > t(prev) = {last}",
                r.elapsed_secs
            );
            last = r.elapsed_secs;
        }
    }

    #[test]
    fn run_time_saturates_beyond_stage_width() {
        let dag = wide_dag(); // 64 tasks, ec=4 → saturates at 16 executors
        let cfg = RunConfig::deterministic();
        let t16 = sim(16).run("wide", &dag, &cfg).elapsed_secs;
        let t32 = sim(32).run("wide", &dag, &cfg).elapsed_secs;
        // Allocation lag differs slightly, but times should be within a few %.
        assert!((t32 - t16).abs() / t16 < 0.2, "t16={t16} t32={t32}");
    }

    #[test]
    fn auc_grows_with_executor_count_in_saturation() {
        // Long tasks keep the query running well past the allocation ramp,
        // so the full executor count contributes to the skyline.
        let dag = StageDag::new(vec![Stage {
            id: 0,
            tasks: vec![Task::new(40.0); 64],
            parents: vec![],
        }])
        .unwrap();
        let cfg = RunConfig::deterministic();
        let r16 = sim(16).run("wide", &dag, &cfg);
        let r48 = sim(48).run("wide", &dag, &cfg);
        // Same saturated run time (64 slots already cover 64 tasks) ...
        assert!((r48.elapsed_secs - r16.elapsed_secs).abs() / r16.elapsed_secs < 0.2);
        // ... but substantially more executor occupancy.
        assert!(
            r48.auc_executor_secs > r16.auc_executor_secs * 1.5,
            "a16={} a48={}",
            r16.auc_executor_secs,
            r48.auc_executor_secs
        );
    }

    #[test]
    fn elapsed_at_least_driver_plus_critical_path() {
        let dag = two_stage_dag();
        let cfg = RunConfig::deterministic();
        let r = sim(48).run("two", &dag, &cfg);
        let lower_bound = cfg.driver_overhead_secs + dag.critical_path_secs();
        assert!(
            r.elapsed_secs >= lower_bound - 1e-6,
            "elapsed {} < bound {lower_bound}",
            r.elapsed_secs
        );
    }

    #[test]
    fn single_executor_time_close_to_serial_work() {
        // With instant allocation and ec=1, one executor runs everything serially.
        let cluster = ClusterConfig {
            lag: crate::cluster::AllocationLag::instant(),
            ..ClusterConfig::paper_default()
        }
        .with_cores_per_executor(1);
        let sim = Simulator::new(cluster, AllocationPolicy::static_allocation(1)).unwrap();
        let dag = StageDag::new(vec![Stage {
            id: 0,
            tasks: vec![Task::new(3.0); 10],
            parents: vec![],
        }])
        .unwrap();
        let cfg = RunConfig::deterministic();
        let r = sim.run("serial", &dag, &cfg);
        // 30 s of work, slight ec penalty (|1-4|*2% = 6%), plus driver overhead.
        let expected = cfg.driver_overhead_secs + 30.0 * 1.06;
        assert!(
            (r.elapsed_secs - expected).abs() < 1.0,
            "elapsed {} expected ~{expected}",
            r.elapsed_secs
        );
    }

    #[test]
    fn deterministic_runs_are_reproducible() {
        let dag = two_stage_dag();
        let cfg = RunConfig::default().with_seed(7);
        let a = sim(8).run("q", &dag, &cfg);
        let b = sim(8).run("q", &dag, &cfg);
        assert_eq!(a.elapsed_secs, b.elapsed_secs);
        assert_eq!(a.auc_executor_secs, b.auc_executor_secs);
    }

    #[test]
    fn noise_changes_run_time_slightly() {
        let dag = two_stage_dag();
        let a = sim(8).run("q", &dag, &RunConfig::default().with_seed(1));
        let b = sim(8).run("q", &dag, &RunConfig::default().with_seed(2));
        assert_ne!(a.elapsed_secs, b.elapsed_secs);
        let rel = (a.elapsed_secs - b.elapsed_secs).abs() / a.elapsed_secs;
        assert!(rel < 0.3, "noise should be modest, got {rel}");
    }

    #[test]
    fn static_allocation_skyline_is_flat_at_n() {
        let dag = wide_dag();
        let r = sim(12).run("wide", &dag, &RunConfig::deterministic());
        assert_eq!(r.max_executors, 12);
        // All 12 executors stay allocated until the end (no idle removal for SA).
        assert_eq!(r.skyline.value_at(r.elapsed_secs - 0.1), 12);
    }

    #[test]
    fn dynamic_allocation_ramps_up_and_stays_within_bounds() {
        let dag = wide_dag();
        let simulator =
            Simulator::new(instant_cluster(), AllocationPolicy::dynamic(1, 48)).unwrap();
        let r = simulator.run("wide", &dag, &RunConfig::deterministic());
        assert!(r.max_executors > 1, "DA should scale up beyond 1 executor");
        assert!(r.max_executors <= 48);
    }

    #[test]
    fn dynamic_allocation_uses_fewer_executor_seconds_than_max_static_for_narrow_tail() {
        // A long narrow stage after a short wide one: static 48 wastes
        // executors during the tail; dynamic allocation should not allocate
        // more AUC than static-48.
        let dag = StageDag::new(vec![
            Stage {
                id: 0,
                tasks: vec![Task::new(3.0); 48],
                parents: vec![],
            },
            Stage {
                id: 1,
                tasks: vec![Task::new(60.0); 2],
                parents: vec![0],
            },
        ])
        .unwrap();
        let da = Simulator::new(instant_cluster(), AllocationPolicy::dynamic(1, 48)).unwrap();
        let sa =
            Simulator::new(instant_cluster(), AllocationPolicy::static_allocation(48)).unwrap();
        let cfg = RunConfig::deterministic();
        let r_da = da.run("tail", &dag, &cfg);
        let r_sa = sa.run("tail", &dag, &cfg);
        assert!(
            r_da.auc_executor_secs < r_sa.auc_executor_secs,
            "DA AUC {} should be below SA(48) AUC {}",
            r_da.auc_executor_secs,
            r_sa.auc_executor_secs
        );
    }

    #[test]
    fn predictive_policy_reaches_requested_count() {
        let dag = wide_dag();
        let simulator = Simulator::new(
            ClusterConfig::paper_default(),
            AllocationPolicy::predictive(25),
        )
        .unwrap();
        let r = simulator.run("wide", &dag, &RunConfig::deterministic());
        assert_eq!(r.max_executors, 25);
    }

    #[test]
    fn task_log_capture_matches_dag_shape() {
        let dag = two_stage_dag();
        let r = sim(8).run("two", &dag, &RunConfig::deterministic().with_task_log());
        let log = r.task_log.expect("task log requested");
        assert_eq!(log.stages.len(), 2);
        assert_eq!(log.stages[0].task_durations_secs.len(), 32);
        assert_eq!(log.stages[1].parents, vec![0]);
        assert_eq!(log.records.len(), 36);
        assert!(log.elapsed_secs > 0.0);
    }

    #[test]
    fn completion_heap_entries_are_sixteen_bytes() {
        fn entry_size<T>(_: &EventHeap<T>) -> usize {
            std::mem::size_of::<Event<T>>()
        }
        assert_eq!(entry_size(&SimScratch::new().completions), 16);
    }

    /// Pops every event of `heap` due by `now` and checks each against the
    /// least entry of `reference`, ordered by `(at.total_cmp, tie)`; then
    /// checks that the least remaining entry is not due.
    fn drain_and_check(heap: &mut EventHeap<u64>, reference: &mut Vec<(f64, u64, u64)>, now: f64) {
        reference.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
        while let Some(event) = heap.pop_due(now) {
            let (at, tie, item) = reference.pop().expect("heap popped more than it holds");
            assert_eq!(
                (event.at().to_bits(), event.tie(), event.item),
                (at.to_bits(), tie, item),
                "at {now}"
            );
        }
        assert!(reference.last().is_none_or(|e| e.0 > now + EPS), "at {now}");
        assert_eq!(
            heap.next_at(),
            reference.last().map_or(f64::INFINITY, |e| e.0)
        );
    }

    #[test]
    fn event_heap_pops_in_time_then_tie_order() {
        let one = 1.0f64.to_bits();
        // Times that stress the packed key: zero, subnormals, one-ULP
        // neighbours, the largest finite time and infinity.
        let specials = [
            0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::from_bits(one - 1),
            1.0,
            f64::from_bits(one + 1),
            f64::MAX,
            f64::INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(30);
        let mut heap = EventHeap::default();
        let mut reference: Vec<(f64, u64, u64)> = Vec::new();
        let mut now = 0.0;
        for seq in 0u64..3000 {
            // An odd multiplier keeps ties unique and spreads their bits.
            let tie = seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let at = match rng.gen_range(0..4) {
                0 => specials[rng.gen_range(0..specials.len())],
                // Another event's time, so equal times pop by tie.
                1 if !reference.is_empty() => reference[rng.gen_range(0..reference.len())].0,
                _ => now + rng.gen::<f64>() * 8.0,
            };
            heap.push(at, tie, seq);
            reference.push((at, tie, seq));
            if seq % 4 == 0 {
                now += rng.gen::<f64>() * 3.0;
                drain_and_check(&mut heap, &mut reference, now);
            }
            if seq % 101 == 100 {
                // As a reap does: take the not-yet-due events of a subset.
                let lost = |item: u64, at: f64| item.is_multiple_of(3) && at > now + EPS;
                let mut taken: Vec<_> = heap
                    .extract(|e| lost(e.item, e.at()))
                    .iter()
                    .map(|e| (e.at().to_bits(), e.tie(), e.item))
                    .collect();
                let mut expected: Vec<_> = reference
                    .iter()
                    .filter(|e| lost(e.2, e.0))
                    .map(|e| (e.0.to_bits(), e.1, e.2))
                    .collect();
                reference.retain(|e| !lost(e.2, e.0));
                taken.sort_by_key(|e| e.1);
                expected.sort_by_key(|e| e.1);
                assert_eq!(taken, expected);
                assert!(!taken.is_empty());
                drain_and_check(&mut heap, &mut reference, now);
            }
        }
        drain_and_check(&mut heap, &mut reference, f64::INFINITY);
        assert!(heap.is_empty() && reference.is_empty());
    }

    #[test]
    fn total_task_secs_close_to_dag_work_when_noise_free() {
        let dag = two_stage_dag();
        let r = sim(8).run("two", &dag, &RunConfig::deterministic());
        // Only the ec penalty (ec=4 → none) applies, so totals match.
        assert!((r.total_task_secs - dag.total_work_secs()).abs() < 1e-6);
    }
}
