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

    // The event loop proper: drain completions, release successors,
    // dispatch.
    while let Some(Done { time, task }) = events.pop() {
        debug_assert!(time >= now - 1e-12);
        now = time;
        out.finish[task.index()] = now;
        completed += 1;
        let p = tg.proc_index(tg.task(task).proc);
        out.proc_busy[p] += tg.task(task).duration;
        busy[p] = false;
        hook.on_finish(task, now);

        // Newly-ready successors.
        for &s in tg.succs(task) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                push_ready(
                    tg,
                    s,
                    priorities,
                    fifo,
                    telemetry_on,
                    ready,
                    &mut arrival_seq,
                );
                let sp = tg.proc_index(tg.task(s).proc);
                dispatch(sp, now, tg, ready, busy, &mut out.start, events, hook);
            }
        }
        dispatch(p, now, tg, ready, busy, &mut out.start, events, hook);
    }

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
