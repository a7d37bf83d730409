//! Strict per-device-order execution.
//!
//! The appendix's analysis (Theorems 1–2) assumes each device executes
//! its operations in a *fixed total order*: the device waits — idling if
//! necessary — until the next operation in its order is ready ("run an
//! operation with a higher rank when it is ready ... before moving on to
//! the next operation", §4.2). This is stricter than the work-conserving
//! priority execution of [`crate::list_schedule`] (which models the
//! TensorFlow engine's ready-queue behaviour): a strict device never
//! runs a lower-priority ready op ahead of a higher-priority not-yet-
//! ready one.
//!
//! Strict execution is what the worst-case instance's `≈ M + M^2`
//! degradation is proved against; work-conserving execution can only do
//! better on that instance (our tests confirm both).

use crate::list::Schedule;
use crate::task::{TaskGraph, TaskId};

/// Executes `tg` with each device following the total order induced by
/// `priorities` (higher first; ties by lower task id). Returns the
/// schedule. Panics if the combination of precedence and order deadlocks
/// (a cross-device priority cycle) — the rank-based order can never
/// deadlock because ranks strictly decrease along dependency edges.
pub fn strict_schedule(tg: &TaskGraph, priorities: &[f64]) -> Schedule {
    assert_eq!(priorities.len(), tg.len());
    let num_procs = tg.num_procs();

    // Per-device sequence: tasks sorted by (priority desc, id asc).
    let mut seq: Vec<Vec<TaskId>> = vec![Vec::new(); num_procs];
    for (id, t) in tg.iter() {
        seq[tg.proc_index(t.proc)].push(id);
    }
    for s in &mut seq {
        s.sort_by(|a, b| {
            priorities[b.index()]
                .total_cmp(&priorities[a.index()])
                .then_with(|| a.cmp(b))
        });
    }

    let n = tg.len();
    let mut head = vec![0usize; num_procs]; // next index into seq[p]
    let mut proc_free = vec![0.0f64; num_procs];
    let mut proc_busy = vec![0.0f64; num_procs];
    let mut done = vec![false; n];
    let mut remaining_preds: Vec<usize> =
        (0..n).map(|i| tg.preds(TaskId(i as u32)).len()).collect();
    let mut ready_at = vec![0.0f64; n]; // max finish of preds
    let mut start = vec![f64::NAN; n];
    let mut finish = vec![f64::NAN; n];
    let mut completed = 0usize;

    // Greedy fixpoint: repeatedly start the device-head task with the
    // earliest feasible start time. O(n * procs) — fine at our scales.
    while completed < n {
        let mut best: Option<(f64, usize)> = None; // (start_time, proc)
        for p in 0..num_procs {
            if head[p] >= seq[p].len() {
                continue;
            }
            let t = seq[p][head[p]];
            if remaining_preds[t.index()] > 0 {
                continue; // head not ready; this device idles
            }
            let s = proc_free[p].max(ready_at[t.index()]);
            if best.is_none_or(|(bs, _)| s < bs) {
                best = Some((s, p));
            }
        }
        let (s, p) = best.expect(
            "strict order deadlocked: priority order conflicts with dependencies across devices",
        );
        let t = seq[p][head[p]];
        head[p] += 1;
        let dur = tg.task(t).duration;
        start[t.index()] = s;
        finish[t.index()] = s + dur;
        proc_free[p] = s + dur;
        proc_busy[p] += dur;
        done[t.index()] = true;
        completed += 1;
        for &succ in tg.succs(t) {
            remaining_preds[succ.index()] -= 1;
            ready_at[succ.index()] = ready_at[succ.index()].max(s + dur);
        }
    }

    let makespan = finish.iter().cloned().fold(0.0f64, f64::max);
    Schedule {
        makespan,
        start,
        finish,
        proc_busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::upward_ranks;
    use crate::task::{Proc, Task, TaskGraphBuilder};
    use heterog_graph::OpKind;

    fn g(name: &str, proc: u32, d: f64) -> Task {
        Task::new(name, OpKind::NoOp, Proc::Gpu(proc), d)
    }

    #[test]
    fn strict_device_idles_for_higher_priority_task() {
        // GPU1: task `late` (high priority) depends on `slow` (GPU0);
        // `early` (low priority) is ready at t=0 but must wait.
        let mut tg = TaskGraphBuilder::new("s", 2, 0);
        let slow = tg.add_task(g("slow", 0, 5.0));
        let late = tg.add_task(g("late", 1, 1.0));
        let early = tg.add_task(g("early", 1, 1.0));
        tg.add_dep(slow, late);
        let tg = tg.finish();
        let prio = vec![10.0, 9.0, 1.0];
        let s = strict_schedule(&tg, &prio);
        assert_eq!(s.start[late.index()], 5.0);
        assert_eq!(s.start[early.index()], 6.0); // waited despite being ready
        assert_eq!(s.makespan, 7.0);
    }

    #[test]
    fn rank_priorities_never_deadlock() {
        let mut tg = TaskGraphBuilder::new("r", 2, 0);
        let a = tg.add_task(g("a", 0, 1.0));
        let b = tg.add_task(g("b", 1, 1.0));
        let c = tg.add_task(g("c", 0, 1.0));
        tg.add_dep(a, b);
        tg.add_dep(b, c);
        let tg = tg.finish();
        let ranks = upward_ranks(&tg);
        let s = strict_schedule(&tg, &ranks);
        assert_eq!(s.makespan, 3.0);
    }

    #[test]
    fn matches_work_conserving_when_no_contention() {
        let mut tg = TaskGraphBuilder::new("m", 2, 0);
        tg.add_task(g("a", 0, 2.0));
        tg.add_task(g("b", 1, 3.0));
        let tg = tg.finish();
        let ranks = upward_ranks(&tg);
        let strict = strict_schedule(&tg, &ranks);
        let wc = crate::list::list_schedule(&tg, &crate::list::OrderPolicy::RankBased);
        assert_eq!(strict.makespan, wc.makespan);
    }
}
