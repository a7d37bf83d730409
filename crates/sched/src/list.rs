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
//!   scheduler depending on it, and stops once a running lower bound
//!   on the makespan exceeds a limit, which is how the search drops a
//!   candidate that cannot beat its incumbent.
//!
//! The event loop compares plain integers. Every heap entry is one
//! `u128`: an order word in the high half and the complemented task id
//! in the low half, so a max-heap pops the largest order word first and,
//! among equal words, the lowest task id. A ready task's order word is
//! its priority's [`f64::total_cmp`] bits, or under FIFO its complemented
//! arrival index; a completion's is its finish time, descending. Each
//! task's processor and duration are copied into columns once per call,
//! so the loop reads no [`crate::Task`].

use std::collections::BinaryHeap;

use crate::rank::{critical_path_from, upward_ranks, upward_ranks_into, RankScratch};
use crate::task::{Dir, TaskGraph, TaskId};
use crate::view::GraphRead;

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
    /// Panics, naming both lengths, unless the schedule holds a start
    /// and a finish time for each of the task graph's `tasks` tasks. An
    /// evaluation's schedule keeps no task times; a simulation's own
    /// report does.
    pub fn assert_covers(&self, tasks: usize) {
        let times = self.start.len();
        assert!(
            times == tasks && self.finish.len() == tasks,
            "schedule has {times} task times, task graph has {tasks} tasks \
             (evaluations carry no task times)"
        );
    }

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
/// tracker implements this to apply allocations and frees in the same
/// pass that computes the schedule. Calls come in nondecreasing time.
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
/// heaps, the event queue, indegrees, the per-task processor and
/// duration columns, rank buffers and per-processor loads. A warm
/// scratch (one prior call on a graph at least as large) makes
/// scheduling allocation-free. [`head_body_tail_bound_into`] borrows
/// the rank buffers and loads too, plus vectors of heads and sort keys
/// of its own.
#[derive(Debug, Clone, Default)]
pub struct ScheduleScratch {
    ready: Vec<BinaryHeap<u128>>,
    busy: Vec<bool>,
    indeg: Vec<u32>,
    events: BinaryHeap<u128>,
    proc: Vec<u32>,
    dur: Vec<f64>,
    ranks: Vec<f64>,
    rank_scratch: RankScratch,
    /// Per-processor loads; a bounded schedule counts each down to the
    /// work its processor has not started.
    loads: Vec<f64>,
    heads: Vec<f64>,
    hbt_keys: Vec<HbtKey>,
}

/// A head–body–tail sort key: `(desc(head), desc(tail), task index)`.
/// Ascending key order is descending head, then descending tail, then
/// ascending index.
type HbtKey = (u64, u64, u32);

/// The `u64` whose unsigned order is [`f64::total_cmp`]'s: all bits
/// flipped for a negative sign, the sign bit set otherwise.
#[inline]
fn total_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// A key whose ascending unsigned order is `x`'s descending
/// [`f64::total_cmp`] order.
#[inline]
fn desc(x: f64) -> u64 {
    !total_order_bits(x)
}

/// The value [`desc`] encoded.
#[inline]
fn undesc(k: u64) -> f64 {
    let b = !k;
    f64::from_bits(if b >> 63 == 1 { b & !(1 << 63) } else { !b })
}

/// A heap entry: `word` in the high half, the complemented task id in
/// the low half. A max-heap pops the largest `word` first and, among
/// equal words, the lowest task id.
#[inline]
fn pack(word: u64, task: usize) -> u128 {
    u128::from(word) << 64 | u128::from(!(task as u64))
}

/// The task id [`pack`] stored.
#[inline]
fn task_of(key: u128) -> usize {
    !(key as u64) as usize
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
    let full = list_schedule_observed(tg, None, policy, f64::INFINITY, scratch, out, &mut NoHook);
    debug_assert!(full.is_ok(), "no bound exceeds an infinite limit");
}

/// [`list_schedule_into`] with a [`ScheduleHook`] observing every task
/// start and finish (the hook does not influence the schedule), stopped
/// once the schedule is sure to end after `limit`. The upward ranks
/// that rank-based priorities and the bound read are `ranks` when given
/// (which must equal [`upward_ranks`] bit for bit), else swept here.
///
/// At a finite `limit` each dispatch of task `t` on processor `p` at
/// `now` raises a running lower bound on the makespan to `now + rank(t)`
/// (the longest path from `t`'s start to a sink) and to `now + dur(t) +
/// unstarted(p)` (`p` runs its unstarted tasks one at a time after `t`).
/// Once the bound [`load_exceeds`] `limit` it is returned as `Err`, with
/// `out` and the hook partial. The last task to finish raises the bound
/// to the makespan, so every schedule that ends beyond `limit` by the
/// margin is cut; one that completes is the unbounded one, bit for bit.
pub fn list_schedule_observed<G: GraphRead + ?Sized, H: ScheduleHook>(
    tg: &G,
    ranks: Option<&[f64]>,
    policy: &OrderPolicy,
    limit: f64,
    scratch: &mut ScheduleScratch,
    out: &mut Schedule,
    hook: &mut H,
) -> Result<(), f64> {
    let ScheduleScratch {
        ready,
        busy,
        indeg,
        events,
        proc,
        dur,
        ranks: swept,
        rank_scratch,
        loads: unstarted,
        ..
    } = scratch;

    let bounded = limit < f64::INFINITY;
    let ranks: &[f64] = match ranks {
        Some(r) => {
            assert_eq!(r.len(), tg.len(), "one rank per task");
            r
        }
        None if bounded || matches!(policy, OrderPolicy::RankBased) => {
            upward_ranks_into(tg, rank_scratch, swept);
            swept
        }
        None => &[],
    };
    // `None` under FIFO, whose order comes from arrival.
    let priorities: Option<&[f64]> = match policy {
        OrderPolicy::RankBased => Some(ranks),
        OrderPolicy::Fifo => None,
        OrderPolicy::Priorities(p) => {
            assert_eq!(p.len(), tg.len(), "priority vector length mismatch");
            Some(p)
        }
    };

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
    events.clear();
    proc.clear();
    dur.clear();
    unstarted.clear();
    unstarted.resize(num_procs, 0.0);
    tg.degrees_into(Dir::Preds, indeg);
    tg.for_each_task(|t| {
        let p = tg.proc_index(t.proc);
        proc.push(p as u32);
        dur.push(t.duration);
        unstarted[p] += t.duration;
    });
    out.start.clear();
    out.start.resize(n, f64::NAN);
    out.finish.clear();
    out.finish.resize(n, f64::NAN);
    out.proc_busy.clear();
    out.proc_busy.resize(num_procs, 0.0);

    // Higher priority first, ties to the lower id; under FIFO, the
    // earlier arrival first.
    let mut arrivals = 0u64;
    let mut ready_key = |t: usize| {
        let word = match priorities {
            Some(p) => total_order_bits(p[t]),
            None => {
                arrivals += 1;
                !arrivals
            }
        };
        pack(word, t)
    };
    // Raises the running bound for `t` starting at `now`.
    let mut bound = 0.0f64;
    let mut raise = |t: usize, now: f64| {
        if !bounded {
            return Ok(());
        }
        let p = proc[t] as usize;
        unstarted[p] -= dur[t];
        bound = bound.max(now + ranks[t]).max(now + dur[t] + unstarted[p]);
        if load_exceeds(bound, limit) {
            Err(bound)
        } else {
            Ok(())
        }
    };

    // Seed with dependency-free tasks (in id order, defining FIFO arrival).
    for t in 0..n {
        if indeg[t] == 0 {
            let queue = &mut ready[proc[t] as usize];
            queue.push(ready_key(t));
            if telemetry_on {
                QUEUE_DEPTH_HIWATER.record_max(queue.len() as f64);
            }
        }
    }

    // Each round offers processors their best ready task: every
    // processor at t = 0, afterwards the one whose task just finished.
    let mut now = 0.0f64;
    let mut completed = 0usize;
    let mut offers = 0..num_procs;
    loop {
        for p in offers {
            if busy[p] {
                continue;
            }
            if let Some(key) = ready[p].pop() {
                let t = task_of(key);
                raise(t, now)?;
                busy[p] = true;
                out.start[t] = now;
                hook.on_start(TaskId(t as u32), now);
                events.push(pack(desc(now + dur[t]), t));
            }
        }
        let Some(event) = events.pop() else { break };
        let t = task_of(event);
        let time = undesc((event >> 64) as u64);
        debug_assert!(time >= now);
        now = time;
        out.finish[t] = now;
        completed += 1;
        let p = proc[t] as usize;
        out.proc_busy[p] += dur[t];
        busy[p] = false;
        hook.on_finish(TaskId(t as u32), now);

        // Each newly ready successor joins its processor's queue; an
        // idle processor starts its best ready task at once, before the
        // next successor arrives and before its own offer. On an idle
        // processor the successor is swapped for the queue's best task
        // when that one is better, which is a push and a pop in one.
        for s in tg.succs(TaskId(t as u32)) {
            let s = s.index();
            indeg[s] -= 1;
            if indeg[s] > 0 {
                continue;
            }
            let (q, mut key) = (proc[s] as usize, ready_key(s));
            if telemetry_on {
                QUEUE_DEPTH_HIWATER.record_max((ready[q].len() + 1) as f64);
            }
            if busy[q] {
                ready[q].push(key);
                continue;
            }
            if let Some(mut best) = ready[q].peek_mut() {
                if *best > key {
                    key = std::mem::replace(&mut *best, key);
                }
            }
            let t = task_of(key);
            raise(t, now)?;
            busy[q] = true;
            out.start[t] = now;
            hook.on_start(TaskId(t as u32), now);
            events.push(pack(desc(now + dur[t]), t));
        }
        offers = p..p + 1;
    }

    assert_eq!(completed, n, "deadlock: task graph must be acyclic");
    TASKS_SCHEDULED.add(n as u64);
    if let Some(t0) = wall_start {
        SCHEDULE_SECONDS.observe(t0.elapsed().as_secs_f64());
    }
    out.makespan = now;
    Ok(())
}

/// A lower bound on the optimal makespan `T*`: the max of the critical
/// path and the heaviest single processor's total work. Used to verify
/// Theorem 1 (`T_LS <= (M + M^2) T*`) without solving the NP-hard
/// problem exactly. One upward-rank sweep covers both terms.
pub fn makespan_lower_bound(tg: &TaskGraph) -> f64 {
    let ranks = upward_ranks(tg);
    busiest_processor_load(tg, &mut Vec::new()).max(critical_path_from(&ranks))
}

/// Relative slack on a lower bound before it counts as exceeding a
/// limit. The bounds sum work in task or head order and the simulator's
/// makespan in schedule order; on the task graphs here the two orders
/// differ by ~1e-12 relative.
const LOAD_MARGIN: f64 = 1e-9;

/// True when a task graph whose iteration time is bounded below by
/// `load` (its busiest processor's load, or a bound a schedule raises
/// as it runs) has an iteration time strictly above `limit`, float
/// summation order included.
pub fn load_exceeds(load: f64, limit: f64) -> bool {
    load * (1.0 - LOAD_MARGIN) > limit
}

/// A lower bound on the makespan of every schedule of `tg`, at least
/// [`makespan_lower_bound`]: the one-machine head–body–tail relaxation.
///
/// A task's *head* is the longest path from the sources up to its start
/// and its *tail* the longest path from its finish to the sinks (the
/// largest upward rank among its successors). Take any set `S` of tasks on
/// one processor. No task of `S` starts before the smallest head in
/// `S`; the processor runs them one at a time, so the last of them
/// finishes no sooner than that head plus their summed durations, and
/// its own tail still follows. So every schedule takes at least
/// `min head(S) + work(S) + min tail(S)`. Per processor, the sets
/// tried are the prefixes of its tasks sorted by head, largest first
/// (for a given smallest head, the prefix holds the most work). The
/// bound is the largest such value, the busiest processor's load (the
/// whole set, summed in task order exactly as
/// [`busiest_processor_load`] sums it) and the critical path.
///
/// Heads never exceed starts in any schedule: a head is a maximum of
/// float sums along a path, the schedule's start times are such sums
/// with idle gaps added, and float addition is monotone. The simulated
/// iteration time is that schedule's makespan. Work and tails are
/// summed in another order than the schedule's clock adds them, which
/// [`load_exceeds`] absorbs with a relative margin.
///
/// Each processor's tasks are sorted as packed `(head, tail, index)`
/// keys whose unsigned order is the descending [`f64::total_cmp`] order
/// of head, then of tail, then the ascending index.
///
/// The upward-rank sweep of [`upward_ranks_into`] gives each task's
/// tail and the critical path; one forward pass over its topological
/// order settles the heads. Reuses `scratch`'s rank buffers and its
/// head, key and load vectors: allocation-free once warm.
pub fn head_body_tail_bound_into(tg: &TaskGraph, scratch: &mut ScheduleScratch) -> f64 {
    let ScheduleScratch {
        ranks,
        rank_scratch,
        heads,
        hbt_keys: keys,
        loads,
        ..
    } = scratch;
    upward_ranks_into(tg, rank_scratch, ranks);
    let mut best = critical_path_from(ranks);
    let RankScratch { indeg, order, .. } = rank_scratch;
    heads.clear();
    heads.resize(tg.len(), 0.0);
    for &id in order.iter() {
        let finish = heads[id.index()] + tg.task(id).duration;
        for &s in tg.succs(id) {
            heads[s.index()] = heads[s.index()].max(finish);
        }
    }

    // Each processor's load, summed in task order, and the start of its
    // run of sort keys.
    let num_procs = tg.num_procs();
    let offsets = indeg;
    offsets.clear();
    offsets.resize(num_procs + 1, 0);
    loads.clear();
    loads.resize(num_procs, 0.0);
    for (_, t) in tg.iter() {
        let p = tg.proc_index(t.proc);
        offsets[p + 1] += 1;
        loads[p] += t.duration;
    }
    for p in 0..num_procs {
        offsets[p + 1] += offsets[p];
    }
    // One sort key per task, grouped by processor.
    keys.clear();
    keys.resize(tg.len(), (0, 0, 0));
    for (id, t) in tg.iter() {
        let tail = tg
            .succs(id)
            .iter()
            .map(|s| ranks[s.index()])
            .fold(0.0f64, f64::max);
        let slot = &mut offsets[tg.proc_index(t.proc)];
        keys[*slot as usize] = (desc(heads[id.index()]), desc(tail), id.0);
        *slot += 1;
    }

    // `offsets[p]` now ends processor `p`'s run and `offsets[p - 1]`
    // starts it.
    for (p, &load) in loads.iter().enumerate() {
        best = best.max(load);
        let start = if p == 0 { 0 } else { offsets[p - 1] as usize };
        let run = &mut keys[start..offsets[p] as usize];
        // Largest head first; among equal heads the larger tail first,
        // which keeps each prefix's smallest tail as large as it can be.
        run.sort_unstable();
        let (mut work, mut min_tail) = (0.0f64, f64::INFINITY);
        for &(head, tail, i) in run.iter() {
            work += tg.task(TaskId(i)).duration;
            min_tail = min_tail.min(undesc(tail));
            best = best.max(undesc(head) + work + min_tail);
        }
    }
    best
}

/// The heaviest single processor's total work, summed into `per_proc`
/// (one slot per dense processor index). Every processor runs one task
/// at a time, so no schedule of `tg` finishes sooner. Reads only the
/// task arena, not the rows.
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
    use crate::task::{Proc, Task, TaskGraphBuilder};
    use heterog_graph::OpKind;

    fn g(name: &str, proc: u32, d: f64) -> Task {
        Task::new(name, OpKind::NoOp, Proc::Gpu(proc), d)
    }

    #[test]
    fn single_chain_runs_serially() {
        let mut tg = TaskGraphBuilder::new("c", 1, 0);
        let a = tg.add_task(g("a", 0, 1.0));
        let b = tg.add_task(g("b", 0, 2.0));
        tg.add_dep(a, b);
        let tg = tg.finish();
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        assert_eq!(s.makespan, 3.0);
        assert_eq!(s.start[b.index()], 1.0);
        assert_eq!(s.utilization(0), 1.0);
    }

    #[test]
    fn independent_tasks_on_two_gpus_overlap() {
        let mut tg = TaskGraphBuilder::new("p", 2, 0);
        tg.add_task(g("a", 0, 2.0));
        tg.add_task(g("b", 1, 2.0));
        let tg = tg.finish();
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        assert_eq!(s.makespan, 2.0);
    }

    #[test]
    fn rank_policy_prefers_critical_path() {
        // On one GPU: task `long_head` unlocks a long chain; `cheap` is
        // independent. Rank runs long_head first; FIFO (arrival: cheap
        // first by id) runs cheap first and pays for it.
        let mut tg = TaskGraphBuilder::new("r", 2, 0);
        let cheap = tg.add_task(g("cheap", 0, 5.0));
        let long_head = tg.add_task(g("head", 0, 1.0));
        let tail = tg.add_task(g("tail", 1, 10.0));
        tg.add_dep(long_head, tail);
        let tg = tg.finish();
        let rank = list_schedule(&tg, &OrderPolicy::RankBased);
        let fifo = list_schedule(&tg, &OrderPolicy::Fifo);
        assert_eq!(rank.makespan, 11.0); // head@0..1, tail@1..11, cheap@1..6
        assert_eq!(fifo.makespan, 16.0); // cheap@0..5, head@5..6, tail@6..16
        let _ = cheap;
    }

    #[test]
    fn explicit_priorities_respected() {
        let mut tg = TaskGraphBuilder::new("e", 1, 0);
        let a = tg.add_task(g("a", 0, 1.0));
        let b = tg.add_task(g("b", 0, 1.0));
        let tg = tg.finish();
        let s = list_schedule(&tg, &OrderPolicy::Priorities(vec![0.0, 1.0]));
        assert_eq!(s.start[b.index()], 0.0);
        assert_eq!(s.start[a.index()], 1.0);
    }

    #[test]
    fn links_are_processors_too() {
        // GPU0 -> link -> GPU1; communication overlaps with independent
        // compute on GPU0.
        let mut tg = TaskGraphBuilder::new("l", 2, 1);
        let a = tg.add_task(g("a", 0, 1.0));
        let x = tg.add_task(Task::new("xfer", OpKind::Transfer, Proc::Link(0), 2.0));
        let b = tg.add_task(g("b", 1, 1.0));
        let other = tg.add_task(g("other", 0, 3.0));
        tg.add_dep(a, x);
        tg.add_dep(x, b);
        let tg = tg.finish();
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        // a: 0..1, xfer: 1..3, b: 3..4; other overlaps on GPU0.
        assert_eq!(s.makespan, 4.0);
        assert!(s.finish[other.index()] <= 4.0);
    }

    #[test]
    fn makespan_never_below_lower_bound() {
        let mut tg = TaskGraphBuilder::new("lb", 2, 0);
        let a = tg.add_task(g("a", 0, 3.0));
        let b = tg.add_task(g("b", 0, 4.0));
        let c = tg.add_task(g("c", 1, 5.0));
        tg.add_dep(a, c);
        let tg = tg.finish();
        let _ = b;
        let lb = makespan_lower_bound(&tg);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        assert!(s.makespan >= lb - 1e-12, "{} < {}", s.makespan, lb);
        assert_eq!(lb, 8.0); // critical path a->c
    }

    #[test]
    fn head_body_tail_bound_sees_release_and_delivery_times() {
        // GPU 1 runs `b` and `c`, both released by `a` (3.0 on GPU 0) and
        // both followed by `d` (4.0 on GPU 0): 3 + (2 + 2) + 4 = 11,
        // above both the critical path (9) and the busiest load (7).
        let mut tg = TaskGraphBuilder::new("hbt", 2, 0);
        let a = tg.add_task(g("a", 0, 3.0));
        let b = tg.add_task(g("b", 1, 2.0));
        let c = tg.add_task(g("c", 1, 2.0));
        let d = tg.add_task(g("d", 0, 4.0));
        for t in [b, c] {
            tg.add_dep(a, t);
            tg.add_dep(t, d);
        }
        let tg = tg.finish();
        assert_eq!(makespan_lower_bound(&tg), 9.0);
        let mut scratch = ScheduleScratch::default();
        assert_eq!(head_body_tail_bound_into(&tg, &mut scratch), 11.0);
        assert_eq!(list_schedule(&tg, &OrderPolicy::RankBased).makespan, 11.0);
        // A warm scratch gives the same bound, and scheduling with it
        // afterwards is unaffected.
        assert_eq!(head_body_tail_bound_into(&tg, &mut scratch), 11.0);
        let mut out = Schedule::default();
        list_schedule_into(&tg, &OrderPolicy::RankBased, &mut scratch, &mut out);
        assert_eq!(out.makespan, 11.0);
    }

    /// The head–body–tail bound with task indices sorted by a
    /// comparator reading the head and tail tables: the reference the
    /// packed-key sort must equal bit for bit.
    fn bound_by_index(tg: &TaskGraph) -> f64 {
        let mut ranks = upward_ranks(tg);
        let mut best = critical_path_from(&ranks);
        let (mut indeg, mut order) = (Vec::new(), Vec::new());
        crate::view::topo_order_into(tg, &mut indeg, &mut order);
        let mut heads = vec![0.0f64; tg.len()];
        for &id in &order {
            let i = id.index();
            let finish = heads[i] + tg.task(id).duration;
            let mut tail = 0.0f64;
            for &s in tg.succs(id) {
                heads[s.index()] = heads[s.index()].max(finish);
                tail = tail.max(ranks[s.index()]);
            }
            ranks[i] = tail;
        }
        let tails = &ranks;
        for p in 0..tg.num_procs() {
            let mut tasks: Vec<u32> = tg
                .iter()
                .filter(|(_, t)| tg.proc_index(t.proc) == p)
                .map(|(id, _)| id.0)
                .collect();
            let load = tasks
                .iter()
                .fold(0.0, |sum, &i| sum + tg.task(TaskId(i)).duration);
            best = best.max(load);
            tasks.sort_unstable_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                heads[b]
                    .total_cmp(&heads[a])
                    .then(tails[b].total_cmp(&tails[a]))
                    .then(a.cmp(&b))
            });
            let (mut work, mut min_tail) = (0.0f64, f64::INFINITY);
            for &i in &tasks {
                work += tg.task(TaskId(i)).duration;
                min_tail = min_tail.min(tails[i as usize]);
                best = best.max(heads[i as usize] + work + min_tail);
            }
        }
        best
    }

    #[test]
    fn packed_key_order_is_descending_total_cmp() {
        let values = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            2.0,
        ];
        for &a in &values {
            assert_eq!(undesc(desc(a)).to_bits(), a.to_bits());
            for &b in &values {
                assert_eq!(desc(a).cmp(&desc(b)), b.total_cmp(&a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn packed_key_bound_equals_index_sorted_bound() {
        let mut rng = heterog_telemetry::rng::SplitMix64::new(23);
        let mut scratch = ScheduleScratch::default();
        for case in 0..200 {
            let (gpus, links) = (1 + case % 3, case % 2);
            let mut tg = TaskGraphBuilder::new("ties", gpus, links);
            let n = 2 + rng.below(40) as usize;
            for i in 0..n {
                let d = [0.0, 0.5, 1.0, 2.0][rng.below(4) as usize];
                let p = rng.below(u64::from(gpus + links)) as u32;
                let proc = if p < gpus {
                    Proc::Gpu(p)
                } else {
                    Proc::Link(p - gpus)
                };
                let id = tg.add_task(Task::new(format!("t{i}"), OpKind::NoOp, proc, d));
                for j in 0..i {
                    if rng.below(4) == 0 {
                        tg.add_dep(TaskId(j as u32), id);
                    }
                }
            }
            let tg = tg.finish();
            let want = bound_by_index(&tg);
            let got = head_body_tail_bound_into(&tg, &mut scratch);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "case {case}: {got} vs {want}"
            );
        }
    }

    /// The scheduler before packed keys: comparator-ordered `Key` and
    /// `Done` entries in `BinaryHeap`s, reading every `Task`. The
    /// reference the packed-key scheduler must equal bit for bit.
    mod reference {
        use super::*;
        use std::cmp::Ordering;

        /// Higher priority first; among equals, lower sequence first.
        #[derive(Clone, Copy, PartialEq)]
        struct Key {
            priority: f64,
            seq: u64,
            task: TaskId,
        }

        impl Eq for Key {}

        impl Ord for Key {
            fn cmp(&self, other: &Self) -> Ordering {
                self.priority
                    .total_cmp(&other.priority)
                    .then_with(|| other.seq.cmp(&self.seq))
            }
        }

        impl PartialOrd for Key {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        /// Earliest completion first; ties by task id.
        #[derive(Clone, Copy, PartialEq)]
        struct Done {
            time: f64,
            task: TaskId,
        }

        impl Eq for Done {}

        impl Ord for Done {
            fn cmp(&self, other: &Self) -> Ordering {
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

        struct State<'a> {
            tg: &'a TaskGraph,
            priorities: Vec<f64>,
            fifo: bool,
            seq: u64,
            ready: Vec<BinaryHeap<Key>>,
            busy: Vec<bool>,
            events: BinaryHeap<Done>,
            out: Schedule,
        }

        impl State<'_> {
            fn push_ready(&mut self, t: TaskId) {
                let p = self.tg.proc_index(self.tg.task(t).proc);
                let seq = if self.fifo { self.seq } else { t.0 as u64 };
                self.seq += 1;
                self.ready[p].push(Key {
                    priority: self.priorities[t.index()],
                    seq,
                    task: t,
                });
            }

            fn dispatch(&mut self, p: usize, now: f64) {
                if self.busy[p] {
                    return;
                }
                if let Some(key) = self.ready[p].pop() {
                    self.busy[p] = true;
                    self.out.start[key.task.index()] = now;
                    self.events.push(Done {
                        time: now + self.tg.task(key.task).duration,
                        task: key.task,
                    });
                }
            }
        }

        pub fn schedule(tg: &TaskGraph, policy: &OrderPolicy) -> Schedule {
            let (n, num_procs) = (tg.len(), tg.num_procs());
            let priorities = match policy {
                OrderPolicy::RankBased => upward_ranks(tg),
                OrderPolicy::Fifo => vec![0.0; n],
                OrderPolicy::Priorities(p) => p.clone(),
            };
            let mut st = State {
                tg,
                priorities,
                fifo: matches!(policy, OrderPolicy::Fifo),
                seq: 0,
                ready: (0..num_procs).map(|_| BinaryHeap::new()).collect(),
                busy: vec![false; num_procs],
                events: BinaryHeap::new(),
                out: Schedule {
                    makespan: 0.0,
                    start: vec![f64::NAN; n],
                    finish: vec![f64::NAN; n],
                    proc_busy: vec![0.0; num_procs],
                },
            };
            let mut indeg = Vec::new();
            tg.degrees_into(Dir::Preds, &mut indeg);
            for t in tg.task_ids() {
                if indeg[t.index()] == 0 {
                    st.push_ready(t);
                }
            }
            let mut now = 0.0f64;
            for p in 0..num_procs {
                st.dispatch(p, now);
            }
            while let Some(Done { time, task }) = st.events.pop() {
                now = time;
                st.out.finish[task.index()] = now;
                let p = tg.proc_index(tg.task(task).proc);
                st.out.proc_busy[p] += tg.task(task).duration;
                st.busy[p] = false;
                for &s in tg.succs(task) {
                    indeg[s.index()] -= 1;
                    if indeg[s.index()] == 0 {
                        st.push_ready(s);
                        st.dispatch(tg.proc_index(tg.task(s).proc), now);
                    }
                }
                st.dispatch(p, now);
            }
            st.out.makespan = now;
            st.out
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packed_keys_schedule_as_the_comparator_reference() {
        let mut scratch = ScheduleScratch::default();
        let mut out = Schedule::default();
        heterog_telemetry::rng::for_each_seed(300, |rng| {
            let gpus = rng.gen_range(1..4usize) as u32;
            let links = rng.gen_range(0..3usize) as u32;
            let mut tg = TaskGraphBuilder::new("ref", gpus, links);
            let n = rng.gen_range(1..60usize);
            for i in 0..n {
                // Few distinct dyadic durations, zero among them: equal
                // finish times and instant tasks are common.
                let d = [0.0, 0.25, 0.5, 1.0, 1.5][rng.gen_range(0..5usize)];
                let p = rng.gen_range(0..(gpus + links) as usize) as u32;
                let proc = if p < gpus {
                    Proc::Gpu(p)
                } else {
                    Proc::Link(p - gpus)
                };
                let id = tg.add_task(Task::new(format!("t{i}"), OpKind::NoOp, proc, d));
                for j in 0..i {
                    if rng.gen_range(0..5usize) == 0 {
                        tg.add_dep(TaskId(j as u32), id);
                    }
                }
            }
            let tg = tg.finish();
            // Priorities drawn from a few values, so ties are frequent.
            let priorities = (0..n)
                .map(|_| [-1.0, 0.0, 0.0, 2.0][rng.gen_range(0..4usize)])
                .collect();
            for policy in [
                OrderPolicy::RankBased,
                OrderPolicy::Fifo,
                OrderPolicy::Priorities(priorities),
            ] {
                let want = reference::schedule(&tg, &policy);
                list_schedule_into(&tg, &policy, &mut scratch, &mut out);
                assert_eq!(
                    out.makespan.to_bits(),
                    want.makespan.to_bits(),
                    "{policy:?}"
                );
                assert_eq!(bits(&out.start), bits(&want.start), "{policy:?}");
                assert_eq!(bits(&out.finish), bits(&want.finish), "{policy:?}");
                assert_eq!(bits(&out.proc_busy), bits(&want.proc_busy), "{policy:?}");
            }
        });
    }

    #[test]
    fn theorem1_bound_holds_on_small_graph() {
        let mut tg = TaskGraphBuilder::new("t1", 2, 1);
        let a = tg.add_task(g("a", 0, 1.0));
        let x = tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5));
        let b = tg.add_task(g("b", 1, 2.0));
        tg.add_dep(a, x);
        tg.add_dep(x, b);
        let tg = tg.finish();
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let bound = (tg.num_procs() as f64) * makespan_lower_bound(&tg);
        assert!(s.makespan <= bound + 1e-12);
        // T_LS <= sum of all durations (first inequality of the proof).
        assert!(s.makespan <= tg.total_work() + 1e-12);
    }

    #[test]
    fn zero_duration_tasks_complete_instantly() {
        let mut tg = TaskGraphBuilder::new("z", 1, 0);
        let a = tg.add_task(g("a", 0, 0.0));
        let b = tg.add_task(g("b", 0, 0.0));
        tg.add_dep(a, b);
        let tg = tg.finish();
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        assert_eq!(s.makespan, 0.0);
        assert_eq!(s.finish[b.index()], 0.0);
    }

    #[test]
    fn busy_time_accounts_every_task() {
        let mut tg = TaskGraphBuilder::new("b", 2, 1);
        tg.add_task(g("a", 0, 1.5));
        tg.add_task(g("b", 1, 2.5));
        tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.25));
        let tg = tg.finish();
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
            let mut tg = TaskGraphBuilder::new("s", gpus, 1);
            let mut prev = None;
            for i in 0..(gpus * 4) {
                let id = tg.add_task(g("t", i % gpus, 1.0 + i as f64 * 0.25));
                if let Some(p) = prev {
                    tg.add_dep(p, id);
                }
                prev = Some(id);
            }
            let tg = tg.finish();
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
    fn bounded_schedule_stops_once_its_bound_exceeds_the_limit() {
        // GPU 0 runs `a` (1.0) then `b` (2.0); GPU 1 runs `c` (5.0). At
        // t = 0 `a` raises the bound to 3.0 and `c` to 5.0.
        let mut tg = TaskGraphBuilder::new("b", 2, 0);
        let a = tg.add_task(g("a", 0, 1.0));
        let b = tg.add_task(g("b", 0, 2.0));
        tg.add_dep(a, b);
        tg.add_task(g("c", 1, 5.0));
        let tg = tg.finish();
        let mut scratch = ScheduleScratch::default();
        for policy in [OrderPolicy::RankBased, OrderPolicy::Fifo] {
            let want = list_schedule(&tg, &policy);
            assert_eq!(want.makespan, 5.0);
            let mut out = Schedule::default();
            let mut run = |limit| {
                list_schedule_observed(
                    &tg,
                    None,
                    &policy,
                    limit,
                    &mut scratch,
                    &mut out,
                    &mut NoHook,
                )
            };
            assert_eq!(run(2.5), Err(3.0));
            assert_eq!(run(4.0), Err(5.0));
            assert_eq!(run(5.0), Ok(()));
            assert_eq!((out.start, out.finish), (want.start, want.finish));
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
        let mut tg = TaskGraphBuilder::new("h", 2, 0);
        let a = tg.add_task(g("a", 0, 1.0));
        let b = tg.add_task(g("b", 1, 2.0));
        let c = tg.add_task(g("c", 0, 1.0));
        tg.add_dep(a, c);
        tg.add_dep(b, c);
        let tg = tg.finish();
        let mut hook = Recorder {
            starts: Vec::new(),
            finishes: Vec::new(),
        };
        let mut scratch = ScheduleScratch::default();
        let mut out = Schedule::default();
        let policy = OrderPolicy::RankBased;
        let full =
            list_schedule_observed(&tg, None, &policy, 3.0, &mut scratch, &mut out, &mut hook);
        assert_eq!(full, Ok(()));
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
