//! List-scheduling executor.
//!
//! Non-preemptive event-driven execution of a [`TaskGraph`]: every
//! processor runs at most one task at a time; whenever a processor goes
//! idle it starts its highest-priority *ready* task (all predecessors
//! finished). With rank priorities this is exactly the paper's order
//! scheduling heuristic; with arrival-order priorities it models
//! TensorFlow's default FIFO executor (the §6.6 baseline).
//!
//! The executor exists in three layers so the planner reward path can
//! run allocation-free:
//!
//! * [`list_schedule`] — the convenient entry point; allocates a fresh
//!   [`ScheduleScratch`] per call.
//! * [`list_schedule_into`] — reuses caller-owned scratch buffers and an
//!   output [`Schedule`]; zero heap allocations after warm-up.
//! * [`list_schedule_observed`] — additionally invokes a monomorphized
//!   [`ScheduleHook`] at every task start/finish, which is how the
//!   simulator fuses memory accounting into the event loop without the
//!   scheduler depending on it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::rank::{critical_path_from, upward_ranks, upward_ranks_into, RankScratch};
use crate::task::{TaskGraph, TaskId};

static TASKS_SCHEDULED: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_sched_tasks_scheduled_total",
    "Tasks executed by the list scheduler",
);
static QUEUE_DEPTH_HIWATER: heterog_telemetry::Gauge = heterog_telemetry::Gauge::new(
    "heterog_sched_queue_depth_hiwater",
    "Largest per-processor ready-queue depth observed",
);
static SCHEDULE_SECONDS: heterog_telemetry::Histogram = heterog_telemetry::Histogram::new(
    "heterog_sched_schedule_seconds",
    "Wall-clock time of list_schedule calls",
);

/// How each processor orders its ready tasks.
#[derive(Debug, Clone)]
pub enum OrderPolicy {
    /// Paper's heuristic: highest upward rank first; ties by lower id.
    RankBased,
    /// TensorFlow default: first-ready-first-run (§6.6's baseline).
    Fifo,
    /// Explicit per-task priorities (higher runs first); ties by lower id.
    /// Used by the appendix worst-case instance to pin tie-breaking.
    Priorities(Vec<f64>),
}

/// The result of executing a task graph under a policy.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// End-to-end execution time (per-iteration time).
    pub makespan: f64,
    /// Per-task start times.
    pub start: Vec<f64>,
    /// Per-task finish times.
    pub finish: Vec<f64>,
    /// Busy time per dense processor index (GPUs first, then links).
    pub proc_busy: Vec<f64>,
}

impl Schedule {
    /// Utilization of processor `p` (busy / makespan).
    pub fn utilization(&self, proc: usize) -> f64 {
        if self.makespan <= 0.0 {
            0.0
        } else {
            self.proc_busy[proc] / self.makespan
        }
    }
}

/// Observer called from inside the scheduling event loop. Monomorphized,
/// so [`NoHook`] compiles to the plain loop. The simulator's memory
/// tracker implements this to collect alloc/free events in the same pass
/// that computes the schedule.
pub trait ScheduleHook {
    /// `task` was dispatched at `time`.
    #[inline]
    fn on_start(&mut self, task: TaskId, time: f64) {
        let _ = (task, time);
    }
    /// `task` completed at `time` (all of its successors have been
    /// notified *after* this call returns).
    #[inline]
    fn on_finish(&mut self, task: TaskId, time: f64) {
        let _ = (task, time);
    }
    /// [`list_schedule_recorded`] captured a resumable cut (checkpoint
    /// number `idx`, 0-based). Stateful hooks snapshot their own state
    /// here so a later [`list_schedule_resumed`] from this cut can
    /// restore it; the default does nothing.
    #[inline]
    fn on_checkpoint(&mut self, idx: usize) {
        let _ = idx;
    }
}

/// The do-nothing observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl ScheduleHook for NoHook {}

/// Reusable buffers for [`list_schedule_into`]: per-processor ready
/// heaps, the event queue, indegrees and rank buffers. A warm scratch
/// (one prior call on a graph at least as large) makes scheduling
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ScheduleScratch {
    ready: Vec<BinaryHeap<Key>>,
    busy: Vec<bool>,
    indeg: Vec<u32>,
    events: BinaryHeap<Done>,
    ranks: Vec<f64>,
    rank_scratch: RankScratch,
}

/// Heap key: higher priority first; among equals, lower sequence first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key {
    priority: f64,
    seq: u64, // lower = earlier; encodes id or arrival order
    task: TaskId,
}

impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq)) // lower seq = greater key
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Completion event in the global event queue (earliest first; ties by
/// task id for determinism).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Done {
    time: f64,
    task: TaskId,
}

impl Eq for Done {}

impl Ord for Done {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.task.cmp(&self.task))
    }
}

impl PartialOrd for Done {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A borrowed view of per-task priorities. `Fifo` uses a uniform view
/// (ordering comes from arrival seq) and `Priorities` borrows the
/// caller's vector — neither allocates.
#[derive(Clone, Copy)]
enum Prio<'a> {
    Uniform,
    Slice(&'a [f64]),
}

impl Prio<'_> {
    #[inline]
    fn get(self, i: usize) -> f64 {
        match self {
            Prio::Uniform => 0.0,
            Prio::Slice(s) => s[i],
        }
    }
}

/// Executes `tg` under `policy` and returns the schedule. Allocates
/// fresh buffers; hot loops should hold a [`ScheduleScratch`] and call
/// [`list_schedule_into`] instead.
pub fn list_schedule(tg: &TaskGraph, policy: &OrderPolicy) -> Schedule {
    let mut scratch = ScheduleScratch::default();
    let mut out = Schedule::default();
    list_schedule_into(tg, policy, &mut scratch, &mut out);
    out
}

/// [`list_schedule`] into caller-owned scratch and output buffers —
/// zero heap allocations per call after warm-up.
pub fn list_schedule_into(
    tg: &TaskGraph,
    policy: &OrderPolicy,
    scratch: &mut ScheduleScratch,
    out: &mut Schedule,
) {
    list_schedule_observed(tg, policy, scratch, out, &mut NoHook);
}

/// [`list_schedule_into`] with a [`ScheduleHook`] observing every task
/// start and finish. The hook does not influence the schedule.
pub fn list_schedule_observed<H: ScheduleHook>(
    tg: &TaskGraph,
    policy: &OrderPolicy,
    scratch: &mut ScheduleScratch,
    out: &mut Schedule,
    hook: &mut H,
) {
    let ScheduleScratch {
        ready,
        busy,
        indeg,
        events,
        ranks,
        rank_scratch,
    } = scratch;

    let priorities: Prio<'_> = match policy {
        OrderPolicy::RankBased => {
            upward_ranks_into(tg, rank_scratch, ranks);
            Prio::Slice(ranks)
        }
        OrderPolicy::Fifo => Prio::Uniform, // ordering comes from arrival seq
        OrderPolicy::Priorities(p) => {
            assert_eq!(p.len(), tg.len(), "priority vector length mismatch");
            Prio::Slice(p)
        }
    };
    let fifo = matches!(policy, OrderPolicy::Fifo);
    schedule_full(tg, priorities, fifo, ready, busy, indeg, events, out, hook);
}

/// [`list_schedule_observed`] with the priority vector supplied by the
/// caller instead of derived from the policy: `Some(p)` behaves exactly
/// like `OrderPolicy::Priorities`/`RankBased` run with those priorities
/// (no rank sweep), `None` like `OrderPolicy::Fifo`. This is the entry
/// point the incremental re-simulator uses — it has already computed the
/// perturbed graph's ranks to diff them against the base run's.
pub fn list_schedule_observed_with<H: ScheduleHook>(
    tg: &TaskGraph,
    priorities: Option<&[f64]>,
    scratch: &mut ScheduleScratch,
    out: &mut Schedule,
    hook: &mut H,
) {
    let ScheduleScratch {
        ready,
        busy,
        indeg,
        events,
        ..
    } = scratch;
    let (prio, fifo) = match priorities {
        Some(p) => {
            assert_eq!(p.len(), tg.len(), "priority vector length mismatch");
            (Prio::Slice(p), false)
        }
        None => (Prio::Uniform, true),
    };
    schedule_full(tg, prio, fifo, ready, busy, indeg, events, out, hook);
}

/// Shared full-run driver: reset buffers, seed sources, drain the event
/// loop.
#[allow(clippy::too_many_arguments)]
fn schedule_full<H: ScheduleHook>(
    tg: &TaskGraph,
    priorities: Prio<'_>,
    fifo: bool,
    ready: &mut Vec<BinaryHeap<Key>>,
    busy: &mut Vec<bool>,
    indeg: &mut Vec<u32>,
    events: &mut BinaryHeap<Done>,
    out: &mut Schedule,
    hook: &mut H,
) {
    let _span = heterog_telemetry::span("list_schedule");
    let telemetry_on = heterog_telemetry::enabled();
    let wall_start = telemetry_on.then(std::time::Instant::now);
    let n = tg.len();
    let num_procs = tg.num_procs();

    if ready.len() < num_procs {
        ready.resize_with(num_procs, BinaryHeap::new);
    }
    let ready = &mut ready[..num_procs];
    for h in ready.iter_mut() {
        h.clear();
    }
    busy.clear();
    busy.resize(num_procs, false);
    indeg.clear();
    indeg.extend(tg.task_ids().map(|t| tg.in_degree(t) as u32));
    events.clear();
    out.start.clear();
    out.start.resize(n, f64::NAN);
    out.finish.clear();
    out.finish.resize(n, f64::NAN);
    out.proc_busy.clear();
    out.proc_busy.resize(num_procs, 0.0);

    let mut arrival_seq: u64 = 0;
    let mut completed = 0usize;

    // Seed with dependency-free tasks (in id order, defining FIFO arrival).
    for t in tg.task_ids() {
        if indeg[t.index()] == 0 {
            push_ready(
                tg,
                t,
                priorities,
                fifo,
                telemetry_on,
                ready,
                &mut arrival_seq,
            );
        }
    }

    // Dispatch everything possible at t = 0.
    let mut now = 0.0f64;
    for p in 0..num_procs {
        dispatch(p, now, tg, ready, busy, &mut out.start, events, hook);
    }

    run_loop(
        tg,
        priorities,
        fifo,
        telemetry_on,
        ready,
        busy,
        indeg,
        events,
        out,
        hook,
        &mut now,
        &mut arrival_seq,
        &mut completed,
    );

    assert_eq!(completed, n, "deadlock: task graph must be acyclic");
    TASKS_SCHEDULED.add(n as u64);
    if let Some(t0) = wall_start {
        SCHEDULE_SECONDS.observe(t0.elapsed().as_secs_f64());
    }
    out.makespan = now;
}

/// Enqueue a ready task on its processor's heap.
#[inline]
fn push_ready(
    tg: &TaskGraph,
    t: TaskId,
    priorities: Prio<'_>,
    fifo: bool,
    telemetry_on: bool,
    ready: &mut [BinaryHeap<Key>],
    seq: &mut u64,
) {
    let p = tg.proc_index(tg.task(t).proc);
    let s = if fifo { *seq } else { t.0 as u64 };
    *seq += 1;
    ready[p].push(Key {
        priority: priorities.get(t.index()),
        seq: s,
        task: t,
    });
    if telemetry_on {
        QUEUE_DEPTH_HIWATER.record_max(ready[p].len() as f64);
    }
}

/// The event loop proper: drain completions, release successors,
/// dispatch. Shared between full runs and checkpoint-resumed runs.
#[allow(clippy::too_many_arguments)]
fn run_loop<H: ScheduleHook>(
    tg: &TaskGraph,
    priorities: Prio<'_>,
    fifo: bool,
    telemetry_on: bool,
    ready: &mut [BinaryHeap<Key>],
    busy: &mut [bool],
    indeg: &mut [u32],
    events: &mut BinaryHeap<Done>,
    out: &mut Schedule,
    hook: &mut H,
    now: &mut f64,
    arrival_seq: &mut u64,
    completed: &mut usize,
) {
    while let Some(Done { time, task }) = events.pop() {
        debug_assert!(time >= *now - 1e-12);
        *now = time;
        out.finish[task.index()] = *now;
        *completed += 1;
        let p = tg.proc_index(tg.task(task).proc);
        out.proc_busy[p] += tg.task(task).duration;
        busy[p] = false;
        hook.on_finish(task, *now);

        // Newly-ready successors.
        for &s in tg.succs(task) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                push_ready(tg, s, priorities, fifo, telemetry_on, ready, arrival_seq);
                let sp = tg.proc_index(tg.task(s).proc);
                dispatch(sp, *now, tg, ready, busy, &mut out.start, events, hook);
            }
        }
        dispatch(p, *now, tg, ready, busy, &mut out.start, events, hook);
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch<H: ScheduleHook>(
    p: usize,
    now: f64,
    tg: &TaskGraph,
    ready: &mut [BinaryHeap<Key>],
    busy: &mut [bool],
    start: &mut [f64],
    events: &mut BinaryHeap<Done>,
    hook: &mut H,
) {
    if busy[p] {
        return;
    }
    if let Some(key) = ready[p].pop() {
        busy[p] = true;
        start[key.task.index()] = now;
        hook.on_start(key.task, now);
        events.push(Done {
            time: now + tg.task(key.task).duration,
            task: key.task,
        });
    }
}

/// One resumable cut of the event loop: the complete scheduler state at
/// the moment the cut was captured (between two completion events, after
/// all dispatches for the earlier event settled).
#[derive(Debug, Clone, Default)]
struct Checkpoint {
    time: f64,
    completed: usize,
    arrival_seq: u64,
    /// Tasks dispatched (started) strictly before this cut.
    dispatched: u32,
    /// Tasks pushed onto ready heaps strictly before this cut.
    pushes: u32,
    ready: Vec<BinaryHeap<Key>>,
    busy: Vec<bool>,
    indeg: Vec<u32>,
    events: BinaryHeap<Done>,
    start: Vec<f64>,
    finish: Vec<f64>,
    proc_busy: Vec<f64>,
}

/// Checkpoints and per-task event positions recorded by
/// [`list_schedule_recorded`] over one *base* run, enabling
/// [`list_schedule_resumed`] to replay only the suffix of a perturbed
/// run whose prefix provably matches the base run.
///
/// Validity rule (see `best_resumable`): resuming from cut `k` is exact
/// iff no *duration-dirty* task was dispatched before `k` (its stale
/// completion time would sit in the restored event queue or have steered
/// the prefix) and no *priority-dirty* task was pushed ready before `k`
/// (its stale key would sit in — or have been popped in the wrong order
/// from — a restored ready heap).
#[derive(Debug, Clone, Default)]
pub struct CheckpointLog {
    fifo: bool,
    /// The priority vector the base run used (empty under FIFO).
    ranks: Vec<f64>,
    /// Global push counter value when each task entered a ready heap.
    push_pos: Vec<u32>,
    /// Global dispatch counter value when each task started.
    dispatch_pos: Vec<u32>,
    checkpoints: Vec<Checkpoint>,
}

impl CheckpointLog {
    /// Number of cuts captured.
    pub fn num_checkpoints(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether the base run used FIFO ordering.
    pub fn fifo(&self) -> bool {
        self.fifo
    }

    /// The priority vector the base run was scheduled with (empty under
    /// FIFO). Diff new priorities against this to find priority-dirty
    /// tasks.
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// Tasks already completed at cut `k` — the work a resume from `k`
    /// skips.
    pub fn completed_at(&self, k: usize) -> usize {
        self.checkpoints[k].completed
    }

    /// The latest cut from which a replay is exact for the given dirty
    /// sets, or `None` if even the earliest cut is invalid (callers then
    /// fall back to a full replay).
    pub fn best_resumable(
        &self,
        duration_dirty: &[TaskId],
        priority_dirty: &[TaskId],
    ) -> Option<usize> {
        let min_dispatch = duration_dirty
            .iter()
            .map(|t| self.dispatch_pos[t.index()])
            .min()
            .unwrap_or(u32::MAX);
        let min_push = priority_dirty
            .iter()
            .map(|t| self.push_pos[t.index()])
            .min()
            .unwrap_or(u32::MAX);
        // Checkpoints are in increasing (dispatched, pushes) order; take
        // the last valid one.
        self.checkpoints
            .iter()
            .rposition(|ck| ck.dispatched <= min_dispatch && ck.pushes <= min_push)
    }
}

/// [`list_schedule_observed`] that additionally records resumable
/// checkpoints every `interval` task completions (0 = record positions
/// only, no cuts) into `log`. The schedule produced is bit-identical to
/// the unrecorded run; recording costs one `O(state)` clone per cut.
///
/// The hook's [`ScheduleHook::on_checkpoint`] fires at each cut so
/// stateful observers (the simulator's memory tracker) can snapshot
/// alongside.
#[allow(clippy::too_many_arguments)]
pub fn list_schedule_recorded<H: ScheduleHook>(
    tg: &TaskGraph,
    policy: &OrderPolicy,
    interval: usize,
    scratch: &mut ScheduleScratch,
    out: &mut Schedule,
    hook: &mut H,
    log: &mut CheckpointLog,
) {
    let _span = heterog_telemetry::span("list_schedule");
    let telemetry_on = heterog_telemetry::enabled();
    let wall_start = telemetry_on.then(std::time::Instant::now);
    let n = tg.len();
    let num_procs = tg.num_procs();

    let ScheduleScratch {
        ready,
        busy,
        indeg,
        events,
        ranks,
        rank_scratch,
    } = scratch;

    log.fifo = matches!(policy, OrderPolicy::Fifo);
    log.ranks.clear();
    let priorities: Prio<'_> = match policy {
        OrderPolicy::RankBased => {
            upward_ranks_into(tg, rank_scratch, ranks);
            log.ranks.extend_from_slice(ranks);
            Prio::Slice(ranks)
        }
        OrderPolicy::Fifo => Prio::Uniform,
        OrderPolicy::Priorities(p) => {
            assert_eq!(p.len(), n, "priority vector length mismatch");
            log.ranks.extend_from_slice(p);
            Prio::Slice(p)
        }
    };
    let fifo = log.fifo;
    log.push_pos.clear();
    log.push_pos.resize(n, u32::MAX);
    log.dispatch_pos.clear();
    log.dispatch_pos.resize(n, u32::MAX);
    log.checkpoints.clear();

    if ready.len() < num_procs {
        ready.resize_with(num_procs, BinaryHeap::new);
    }
    let ready = &mut ready[..num_procs];
    for h in ready.iter_mut() {
        h.clear();
    }
    busy.clear();
    busy.resize(num_procs, false);
    indeg.clear();
    indeg.extend(tg.task_ids().map(|t| tg.in_degree(t) as u32));
    events.clear();
    out.start.clear();
    out.start.resize(n, f64::NAN);
    out.finish.clear();
    out.finish.resize(n, f64::NAN);
    out.proc_busy.clear();
    out.proc_busy.resize(num_procs, 0.0);

    let mut arrival_seq: u64 = 0;
    let mut completed = 0usize;
    let mut pushes: u32 = 0;
    let mut dispatched: u32 = 0;

    macro_rules! push_ready_rec {
        ($t:expr) => {{
            let t = $t;
            log.push_pos[t.index()] = pushes;
            pushes += 1;
            push_ready(
                tg,
                t,
                priorities,
                fifo,
                telemetry_on,
                ready,
                &mut arrival_seq,
            );
        }};
    }
    macro_rules! dispatch_rec {
        ($p:expr, $now:expr) => {{
            let p = $p;
            if !busy[p] {
                if let Some(key) = ready[p].pop() {
                    busy[p] = true;
                    out.start[key.task.index()] = $now;
                    log.dispatch_pos[key.task.index()] = dispatched;
                    dispatched += 1;
                    hook.on_start(key.task, $now);
                    events.push(Done {
                        time: $now + tg.task(key.task).duration,
                        task: key.task,
                    });
                }
            }
        }};
    }

    for t in tg.task_ids() {
        if indeg[t.index()] == 0 {
            push_ready_rec!(t);
        }
    }
    let mut now = 0.0f64;
    for p in 0..num_procs {
        dispatch_rec!(p, now);
    }

    let mut next_mark = if interval == 0 { usize::MAX } else { interval };
    loop {
        // Capture at the loop top: the state after the previous event
        // (and all of its dispatches) fully settled.
        if completed >= next_mark && completed < n {
            log.checkpoints.push(Checkpoint {
                time: now,
                completed,
                arrival_seq,
                dispatched,
                pushes,
                ready: ready.to_vec(),
                busy: busy.clone(),
                indeg: indeg.clone(),
                events: events.clone(),
                start: out.start.clone(),
                finish: out.finish.clone(),
                proc_busy: out.proc_busy.clone(),
            });
            hook.on_checkpoint(log.checkpoints.len() - 1);
            next_mark = completed + interval;
        }
        let Some(Done { time, task }) = events.pop() else {
            break;
        };
        debug_assert!(time >= now - 1e-12);
        now = time;
        out.finish[task.index()] = now;
        completed += 1;
        let p = tg.proc_index(tg.task(task).proc);
        out.proc_busy[p] += tg.task(task).duration;
        busy[p] = false;
        hook.on_finish(task, now);
        for &s in tg.succs(task) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                push_ready_rec!(s);
                let sp = tg.proc_index(tg.task(s).proc);
                dispatch_rec!(sp, now);
            }
        }
        dispatch_rec!(p, now);
    }

    assert_eq!(completed, n, "deadlock: task graph must be acyclic");
    TASKS_SCHEDULED.add(n as u64);
    if let Some(t0) = wall_start {
        SCHEDULE_SECONDS.observe(t0.elapsed().as_secs_f64());
    }
    out.makespan = now;
}

/// Resumes a schedule of `tg` (a graph with the *same structure* as the
/// recorded base, possibly different durations) from checkpoint `k` of
/// `log`. `priorities` are the perturbed graph's priorities (`None` for
/// FIFO — must match the recorded policy's mode). The caller must have
/// validated `k` via [`CheckpointLog::best_resumable`]; the result is
/// then bit-identical to a full run on `tg`.
pub fn list_schedule_resumed<H: ScheduleHook>(
    tg: &TaskGraph,
    priorities: Option<&[f64]>,
    log: &CheckpointLog,
    k: usize,
    scratch: &mut ScheduleScratch,
    out: &mut Schedule,
    hook: &mut H,
) {
    let _span = heterog_telemetry::span("list_schedule");
    let telemetry_on = heterog_telemetry::enabled();
    let wall_start = telemetry_on.then(std::time::Instant::now);
    let n = tg.len();
    let num_procs = tg.num_procs();
    let ck = &log.checkpoints[k];
    assert_eq!(
        priorities.is_none(),
        log.fifo,
        "resume ordering mode must match the recorded run"
    );
    let (prio, fifo) = match priorities {
        Some(p) => {
            assert_eq!(p.len(), n, "priority vector length mismatch");
            (Prio::Slice(p), false)
        }
        None => (Prio::Uniform, true),
    };

    let ScheduleScratch {
        ready,
        busy,
        indeg,
        events,
        ..
    } = scratch;
    if ready.len() < num_procs {
        ready.resize_with(num_procs, BinaryHeap::new);
    }
    let ready = &mut ready[..num_procs];
    for (h, src) in ready.iter_mut().zip(&ck.ready) {
        h.clone_from(src);
    }
    busy.clone_from(&ck.busy);
    indeg.clone_from(&ck.indeg);
    events.clone_from(&ck.events);
    out.start.clone_from(&ck.start);
    out.finish.clone_from(&ck.finish);
    out.proc_busy.clone_from(&ck.proc_busy);

    let mut now = ck.time;
    let mut arrival_seq = ck.arrival_seq;
    let mut completed = ck.completed;

    run_loop(
        tg,
        prio,
        fifo,
        telemetry_on,
        ready,
        busy,
        indeg,
        events,
        out,
        hook,
        &mut now,
        &mut arrival_seq,
        &mut completed,
    );

    assert_eq!(completed, n, "deadlock: task graph must be acyclic");
    TASKS_SCHEDULED.add((n - ck.completed) as u64);
    if let Some(t0) = wall_start {
        SCHEDULE_SECONDS.observe(t0.elapsed().as_secs_f64());
    }
    out.makespan = now;
}

/// A lower bound on the optimal makespan `T*`: the max of the critical
/// path and the heaviest single processor's total work. Used to verify
/// Theorem 1 (`T_LS <= (M + M^2) T*`) without solving the NP-hard
/// problem exactly. One upward-rank sweep covers both terms.
pub fn makespan_lower_bound(tg: &TaskGraph) -> f64 {
    let ranks = upward_ranks(tg);
    busiest_processor_load(tg, &mut Vec::new()).max(critical_path_from(&ranks))
}

/// The heaviest single processor's total work, summed into `per_proc`
/// (one slot per dense processor index). Every processor runs one task
/// at a time, so no schedule of `tg` finishes sooner. Reads only the
/// task arena: it needs no [`TaskGraph::build_index`].
pub fn busiest_processor_load(tg: &TaskGraph, per_proc: &mut Vec<f64>) -> f64 {
    per_proc.clear();
    per_proc.resize(tg.num_procs(), 0.0);
    for (_, t) in tg.iter() {
        per_proc[tg.proc_index(t.proc)] += t.duration;
    }
    per_proc.iter().copied().fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Proc, Task};
    use heterog_graph::OpKind;

    fn g(name: &str, proc: u32, d: f64) -> Task {
        Task::new(name, OpKind::NoOp, Proc::Gpu(proc), d)
    }

    #[test]
    fn single_chain_runs_serially() {
        let mut tg = TaskGraph::new("c", 1, 0);
        let a = tg.add_task(g("a", 0, 1.0));
        let b = tg.add_task(g("b", 0, 2.0));
        tg.add_dep(a, b);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        assert_eq!(s.makespan, 3.0);
        assert_eq!(s.start[b.index()], 1.0);
        assert_eq!(s.utilization(0), 1.0);
    }

    #[test]
    fn independent_tasks_on_two_gpus_overlap() {
        let mut tg = TaskGraph::new("p", 2, 0);
        tg.add_task(g("a", 0, 2.0));
        tg.add_task(g("b", 1, 2.0));
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        assert_eq!(s.makespan, 2.0);
    }

    #[test]
    fn rank_policy_prefers_critical_path() {
        // On one GPU: task `long_head` unlocks a long chain; `cheap` is
        // independent. Rank runs long_head first; FIFO (arrival: cheap
        // first by id) runs cheap first and pays for it.
        let mut tg = TaskGraph::new("r", 2, 0);
        let cheap = tg.add_task(g("cheap", 0, 5.0));
        let long_head = tg.add_task(g("head", 0, 1.0));
        let tail = tg.add_task(g("tail", 1, 10.0));
        tg.add_dep(long_head, tail);
        let rank = list_schedule(&tg, &OrderPolicy::RankBased);
        let fifo = list_schedule(&tg, &OrderPolicy::Fifo);
        assert_eq!(rank.makespan, 11.0); // head@0..1, tail@1..11, cheap@1..6
        assert_eq!(fifo.makespan, 16.0); // cheap@0..5, head@5..6, tail@6..16
        let _ = cheap;
    }

    #[test]
    fn explicit_priorities_respected() {
        let mut tg = TaskGraph::new("e", 1, 0);
        let a = tg.add_task(g("a", 0, 1.0));
        let b = tg.add_task(g("b", 0, 1.0));
        let s = list_schedule(&tg, &OrderPolicy::Priorities(vec![0.0, 1.0]));
        assert_eq!(s.start[b.index()], 0.0);
        assert_eq!(s.start[a.index()], 1.0);
    }

    #[test]
    fn links_are_processors_too() {
        // GPU0 -> link -> GPU1; communication overlaps with independent
        // compute on GPU0.
        let mut tg = TaskGraph::new("l", 2, 1);
        let a = tg.add_task(g("a", 0, 1.0));
        let x = tg.add_task(Task::new("xfer", OpKind::Transfer, Proc::Link(0), 2.0));
        let b = tg.add_task(g("b", 1, 1.0));
        let other = tg.add_task(g("other", 0, 3.0));
        tg.add_dep(a, x);
        tg.add_dep(x, b);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        // a: 0..1, xfer: 1..3, b: 3..4; other overlaps on GPU0.
        assert_eq!(s.makespan, 4.0);
        assert!(s.finish[other.index()] <= 4.0);
    }

    #[test]
    fn makespan_never_below_lower_bound() {
        let mut tg = TaskGraph::new("lb", 2, 0);
        let a = tg.add_task(g("a", 0, 3.0));
        let b = tg.add_task(g("b", 0, 4.0));
        let c = tg.add_task(g("c", 1, 5.0));
        tg.add_dep(a, c);
        let _ = b;
        let lb = makespan_lower_bound(&tg);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        assert!(s.makespan >= lb - 1e-12, "{} < {}", s.makespan, lb);
        assert_eq!(lb, 8.0); // critical path a->c
    }

    #[test]
    fn theorem1_bound_holds_on_small_graph() {
        let mut tg = TaskGraph::new("t1", 2, 1);
        let a = tg.add_task(g("a", 0, 1.0));
        let x = tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5));
        let b = tg.add_task(g("b", 1, 2.0));
        tg.add_dep(a, x);
        tg.add_dep(x, b);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let bound = (tg.num_procs() as f64) * makespan_lower_bound(&tg);
        assert!(s.makespan <= bound + 1e-12);
        // T_LS <= sum of all durations (first inequality of the proof).
        assert!(s.makespan <= tg.total_work() + 1e-12);
    }

    #[test]
    fn zero_duration_tasks_complete_instantly() {
        let mut tg = TaskGraph::new("z", 1, 0);
        let a = tg.add_task(g("a", 0, 0.0));
        let b = tg.add_task(g("b", 0, 0.0));
        tg.add_dep(a, b);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        assert_eq!(s.makespan, 0.0);
        assert_eq!(s.finish[b.index()], 0.0);
    }

    #[test]
    fn busy_time_accounts_every_task() {
        let mut tg = TaskGraph::new("b", 2, 1);
        tg.add_task(g("a", 0, 1.5));
        tg.add_task(g("b", 1, 2.5));
        tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.25));
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let total: f64 = s.proc_busy.iter().sum();
        assert!((total - 4.25).abs() < 1e-12);
    }

    #[test]
    fn scratch_reuse_matches_fresh_schedule() {
        let mut scratch = ScheduleScratch::default();
        let mut out = Schedule::default();
        // Alternate between a larger and a smaller graph to exercise
        // buffer shrink/regrow paths.
        for gpus in [3u32, 1, 2] {
            let mut tg = TaskGraph::new("s", gpus, 1);
            let mut prev = None;
            for i in 0..(gpus * 4) {
                let id = tg.add_task(g("t", i % gpus, 1.0 + i as f64 * 0.25));
                if let Some(p) = prev {
                    tg.add_dep(p, id);
                }
                prev = Some(id);
            }
            for policy in [
                OrderPolicy::RankBased,
                OrderPolicy::Fifo,
                OrderPolicy::Priorities(vec![1.0; tg.len()]),
            ] {
                let fresh = list_schedule(&tg, &policy);
                list_schedule_into(&tg, &policy, &mut scratch, &mut out);
                assert_eq!(fresh.makespan, out.makespan);
                assert_eq!(fresh.start, out.start);
                assert_eq!(fresh.finish, out.finish);
                assert_eq!(fresh.proc_busy, out.proc_busy);
            }
        }
    }

    /// Deterministic ragged DAG for checkpoint tests: `procs` processors,
    /// chains of varying length with cross-proc edges.
    fn ragged(procs: u32, tasks: u32, seed: u64) -> TaskGraph {
        let mut tg = TaskGraph::new("ragged", procs, 0);
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let ids: Vec<TaskId> = (0..tasks)
            .map(|i| {
                let p = (next() % procs as u64) as u32;
                let d = 0.25 + (next() % 16) as f64 * 0.125;
                tg.add_task(g(&format!("t{i}"), p, d))
            })
            .collect();
        for (i, &id) in ids.iter().enumerate().skip(1) {
            // 1-2 predecessors from earlier tasks.
            for _ in 0..(1 + next() % 2) {
                let p = ids[(next() % i as u64) as usize];
                if p != id {
                    tg.add_dep(p, id);
                }
            }
        }
        tg
    }

    #[test]
    fn recorded_run_matches_plain_run() {
        let tg = ragged(4, 60, 7);
        for policy in [OrderPolicy::RankBased, OrderPolicy::Fifo] {
            let plain = list_schedule(&tg, &policy);
            let mut scratch = ScheduleScratch::default();
            let mut out = Schedule::default();
            let mut log = CheckpointLog::default();
            list_schedule_recorded(
                &tg,
                &policy,
                10,
                &mut scratch,
                &mut out,
                &mut NoHook,
                &mut log,
            );
            assert_eq!(plain.makespan.to_bits(), out.makespan.to_bits());
            assert_eq!(plain.start, out.start);
            assert_eq!(plain.finish, out.finish);
            assert!(log.num_checkpoints() >= 3, "{}", log.num_checkpoints());
        }
    }

    #[test]
    fn observed_with_matches_policy_forms() {
        let tg = ragged(3, 40, 11);
        let ranks = crate::rank::upward_ranks(&tg);
        let mut scratch = ScheduleScratch::default();
        let mut out = Schedule::default();
        list_schedule_observed_with(&tg, Some(&ranks), &mut scratch, &mut out, &mut NoHook);
        let rank_run = list_schedule(&tg, &OrderPolicy::RankBased);
        assert_eq!(rank_run.start, out.start);
        list_schedule_observed_with(&tg, None, &mut scratch, &mut out, &mut NoHook);
        let fifo_run = list_schedule(&tg, &OrderPolicy::Fifo);
        assert_eq!(fifo_run.start, out.start);
    }

    #[test]
    fn resume_after_duration_change_is_bit_identical() {
        // Perturb one late task's duration; resume from the best valid
        // cut and compare against a fresh full run of the perturbed
        // graph, bitwise.
        for seed in [3u64, 9, 21] {
            let tg = ragged(4, 80, seed);
            for policy in [OrderPolicy::Fifo, OrderPolicy::RankBased] {
                let mut scratch = ScheduleScratch::default();
                let mut out = Schedule::default();
                let mut log = CheckpointLog::default();
                list_schedule_recorded(
                    &tg,
                    &policy,
                    8,
                    &mut scratch,
                    &mut out,
                    &mut NoHook,
                    &mut log,
                );

                // Perturb the task that was dispatched last.
                let victim = (0..tg.len())
                    .max_by_key(|&i| out.finish[i].to_bits())
                    .map(|i| TaskId(i as u32))
                    .unwrap();
                let mut tg2 = tg.clone();
                tg2.task_mut(victim).duration *= 3.0;

                let duration_dirty = [victim];
                let (new_ranks, priority_dirty): (Vec<f64>, Vec<TaskId>) = match policy {
                    OrderPolicy::Fifo => (Vec::new(), Vec::new()),
                    _ => {
                        let nr = crate::rank::upward_ranks(&tg2);
                        let dirty = (0..tg.len())
                            .filter(|&i| nr[i].to_bits() != log.ranks()[i].to_bits())
                            .map(|i| TaskId(i as u32))
                            .collect();
                        (nr, dirty)
                    }
                };
                let Some(k) = log.best_resumable(&duration_dirty, &priority_dirty) else {
                    continue; // every cut invalidated; nothing to test
                };
                let prio = match policy {
                    OrderPolicy::Fifo => None,
                    _ => Some(new_ranks.as_slice()),
                };
                let mut resumed = Schedule::default();
                list_schedule_resumed(&tg2, prio, &log, k, &mut scratch, &mut resumed, &mut NoHook);
                let fresh = list_schedule(&tg2, &policy);
                assert_eq!(fresh.makespan.to_bits(), resumed.makespan.to_bits());
                assert_eq!(fresh.start, resumed.start);
                assert_eq!(fresh.finish, resumed.finish);
                assert_eq!(fresh.proc_busy, resumed.proc_busy);
            }
        }
    }

    #[test]
    fn best_resumable_rejects_early_dirty_tasks() {
        let tg = ragged(2, 30, 5);
        let mut scratch = ScheduleScratch::default();
        let mut out = Schedule::default();
        let mut log = CheckpointLog::default();
        list_schedule_recorded(
            &tg,
            &OrderPolicy::Fifo,
            5,
            &mut scratch,
            &mut out,
            &mut NoHook,
            &mut log,
        );
        assert!(log.num_checkpoints() > 0);
        // The very first dispatched task invalidates every cut.
        let first = (0..tg.len())
            .min_by_key(|&i| out.start[i].to_bits())
            .map(|i| TaskId(i as u32))
            .unwrap();
        assert_eq!(log.best_resumable(&[first], &[]), None);
        // An empty dirty set can resume from the last cut.
        assert_eq!(
            log.best_resumable(&[], &[]),
            Some(log.num_checkpoints() - 1)
        );
    }

    #[test]
    fn hook_sees_every_start_and_finish_in_time_order() {
        struct Recorder {
            starts: Vec<(TaskId, f64)>,
            finishes: Vec<(TaskId, f64)>,
        }
        impl ScheduleHook for Recorder {
            fn on_start(&mut self, task: TaskId, time: f64) {
                self.starts.push((task, time));
            }
            fn on_finish(&mut self, task: TaskId, time: f64) {
                self.finishes.push((task, time));
            }
        }
        let mut tg = TaskGraph::new("h", 2, 0);
        let a = tg.add_task(g("a", 0, 1.0));
        let b = tg.add_task(g("b", 1, 2.0));
        let c = tg.add_task(g("c", 0, 1.0));
        tg.add_dep(a, c);
        tg.add_dep(b, c);
        let mut hook = Recorder {
            starts: Vec::new(),
            finishes: Vec::new(),
        };
        let mut scratch = ScheduleScratch::default();
        let mut out = Schedule::default();
        list_schedule_observed(
            &tg,
            &OrderPolicy::RankBased,
            &mut scratch,
            &mut out,
            &mut hook,
        );
        assert_eq!(hook.starts.len(), 3);
        assert_eq!(hook.finishes.len(), 3);
        for (t, time) in &hook.starts {
            assert_eq!(out.start[t.index()], *time);
        }
        for (t, time) in &hook.finishes {
            assert_eq!(out.finish[t.index()], *time);
        }
        assert!(hook.finishes.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
