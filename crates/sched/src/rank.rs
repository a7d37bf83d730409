//! Upward-rank computation (§4.2).

use crate::task::{TaskGraph, TaskId};
use crate::view::{topo_order_into, GraphRead};

static RANK_SECONDS: heterog_telemetry::Histogram = heterog_telemetry::Histogram::new(
    "heterog_sched_rank_seconds",
    "Wall-clock time of upward-rank sweeps",
);

/// Reusable buffers for rank sweeps: with a warm scratch,
/// [`upward_ranks_into`] performs zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct RankScratch {
    pub(crate) indeg: Vec<u32>,
    pub(crate) order: Vec<TaskId>,
    /// Each task's place in [`mark_ancestors`]' and
    /// [`rerank_marked_into`]'s walks.
    places: Vec<u8>,
    /// [`rerank_marked_into`]'s depth-first frames: a task, where
    /// its next successor to read is among the successor entries, and
    /// the largest successor rank read so far.
    frames: Vec<(TaskId, u32, f64)>,
}

/// Computes the paper's rank for every task:
///
/// ```text
/// rank(o_i) = p_i + max_{o_j in succ(o_i)} rank(o_j)
/// ```
///
/// i.e. the length of the longest downstream path including the task
/// itself (HEFT's upward rank with fixed placements). Sinks rank at
/// their own duration. Computed in one reverse-topological sweep, O(V+E).
pub fn upward_ranks(tg: &TaskGraph) -> Vec<f64> {
    let mut scratch = RankScratch::default();
    let mut rank = Vec::new();
    upward_ranks_into(tg, &mut scratch, &mut rank);
    rank
}

/// [`upward_ranks`] into caller-owned buffers — allocation-free once the
/// scratch and `rank` vector have grown to the graph's size.
pub fn upward_ranks_into<G: GraphRead + ?Sized>(
    tg: &G,
    scratch: &mut RankScratch,
    rank: &mut Vec<f64>,
) {
    heterog_telemetry::metrics::time_closure(&RANK_SECONDS, || {
        topo_order_into(tg, &mut scratch.indeg, &mut scratch.order);
        rank.clear();
        rank.resize(tg.len(), 0.0);
        for &id in scratch.order.iter().rev() {
            let best_succ = tg.succs(id).map(|s| rank[s.index()]).fold(0.0f64, f64::max);
            rank[id.index()] = tg.task(id).duration + best_succ;
        }
    })
}

/// A task's place in [`mark_ancestors`]' and [`rerank_marked_into`]'s
/// walks.
const KEPT: u8 = 0;
const QUEUED: u8 = 1;
const OPEN: u8 = 2;
const RANKED: u8 = 3;

/// Marks the tasks of `changed` and all their ancestors, found by a
/// walk over predecessor rows, for [`rerank_marked_into`], and returns
/// how many tasks it marked: what re-ranking them costs, which a caller
/// can weigh against one [`upward_ranks_into`] sweep before paying for
/// it. Allocation-free once the scratch has grown to the graph's size.
pub fn mark_ancestors<G: GraphRead + ?Sized>(
    tg: &G,
    changed: &[TaskId],
    scratch: &mut RankScratch,
) -> usize {
    let RankScratch {
        order: queued,
        places: state,
        ..
    } = scratch;
    state.clear();
    state.resize(tg.len(), KEPT);
    queued.clear();
    for &t in changed {
        if state[t.index()] == KEPT {
            state[t.index()] = QUEUED;
            queued.push(t);
        }
    }
    let mut head = 0;
    while head < queued.len() {
        let t = queued[head];
        head += 1;
        for p in tg.preds(t) {
            if state[p.index()] == KEPT {
                state[p.index()] = QUEUED;
                queued.push(p);
            }
        }
    }
    queued.len()
}

/// [`upward_ranks_into`] for a graph whose ranks `rank` already holds
/// for every task with no path to a task of `changed`, the tasks
/// [`mark_ancestors`] last marked in `scratch`: those keep their
/// entries, and the marked tasks are ranked afresh, bit for bit as
/// [`upward_ranks`] ranks them. A task's rank reads only its duration
/// and its successors' ranks, so `changed` must hold every task whose
/// duration or successor row differs from the graph the kept ranks were
/// computed on.
///
/// The marked tasks are ranked depth first over their successor rows,
/// each successor's rank read in row order as the full sweep reads it.
/// A cycle of `tg` that passes through a task of `changed` panics as
/// [`crate::topo_order_into`] does; the kept part is trusted to be
/// acyclic. Allocation-free once the scratch has grown to the graph's
/// size.
pub fn rerank_marked_into<G: GraphRead + ?Sized>(
    tg: &G,
    scratch: &mut RankScratch,
    rank: &mut [f64],
) {
    assert_eq!(rank.len(), tg.len(), "one rank per task");
    let RankScratch {
        order: queued,
        places: state,
        frames,
        ..
    } = scratch;
    assert_eq!(state.len(), tg.len(), "tasks marked on another graph");
    // The open task's frame lives in locals; its ancestors' on `frames`.
    frames.clear();
    for &root in queued.iter() {
        if state[root.index()] != QUEUED {
            continue;
        }
        state[root.index()] = OPEN;
        let (mut t, mut row, mut next, mut best) = (root, tg.succs(root), 0u32, 0.0f64);
        loop {
            if let Some(s) = row.next() {
                next += 1;
                match state[s.index()] {
                    QUEUED => {
                        frames.push((t, next, best));
                        state[s.index()] = OPEN;
                        (t, row, next, best) = (s, tg.succs(s), 0, 0.0);
                    }
                    OPEN => panic!("task graph contains a cycle"),
                    _ => best = best.max(rank[s.index()]),
                }
                continue;
            }
            let r = tg.task(t).duration + best;
            rank[t.index()] = r;
            state[t.index()] = RANKED;
            let Some((parent, at, parent_best)) = frames.pop() else {
                break;
            };
            // Resume the parent's row after the `at` entries it read.
            (t, row, next, best) = (parent, tg.succs(parent), at, parent_best.max(r));
            if at > 0 {
                row.nth(at as usize - 1);
            }
        }
    }
}

/// The critical-path length given an already-computed rank vector: the
/// largest rank overall. Lets callers derive the bound from the same
/// sweep they scheduled with.
pub fn critical_path_from(ranks: &[f64]) -> f64 {
    ranks.iter().copied().fold(0.0, f64::max)
}

/// The critical-path length: the largest rank among source tasks (equal
/// to the largest rank overall). A lower bound on any schedule. One
/// rank sweep, no re-run.
pub fn critical_path(tg: &TaskGraph) -> f64 {
    critical_path_from(&upward_ranks(tg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Proc, Task, TaskGraphBuilder};
    use heterog_graph::OpKind;

    fn t(d: f64) -> Task {
        Task::new("t", OpKind::NoOp, Proc::Gpu(0), d)
    }

    #[test]
    fn chain_rank_accumulates() {
        let mut tg = TaskGraphBuilder::new("c", 1, 0);
        let a = tg.add_task(t(1.0));
        let b = tg.add_task(t(2.0));
        let c = tg.add_task(t(3.0));
        tg.add_dep(a, b);
        tg.add_dep(b, c);
        let tg = tg.finish();
        let r = upward_ranks(&tg);
        assert_eq!(r[c.index()], 3.0);
        assert_eq!(r[b.index()], 5.0);
        assert_eq!(r[a.index()], 6.0);
        assert_eq!(critical_path(&tg), 6.0);
    }

    #[test]
    fn rank_takes_max_branch() {
        let mut tg = TaskGraphBuilder::new("b", 1, 0);
        let a = tg.add_task(t(1.0));
        let long = tg.add_task(t(10.0));
        let short = tg.add_task(t(2.0));
        tg.add_dep(a, long);
        tg.add_dep(a, short);
        let tg = tg.finish();
        let r = upward_ranks(&tg);
        assert_eq!(r[a.index()], 11.0);
    }

    #[test]
    fn independent_tasks_rank_own_duration() {
        let mut tg = TaskGraphBuilder::new("i", 1, 0);
        let a = tg.add_task(t(4.0));
        let b = tg.add_task(t(7.0));
        let tg = tg.finish();
        let r = upward_ranks(&tg);
        assert_eq!(r[a.index()], 4.0);
        assert_eq!(r[b.index()], 7.0);
        assert_eq!(critical_path(&tg), 7.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_computation() {
        let mut scratch = RankScratch::default();
        let mut rank = Vec::new();
        for size in [3usize, 7, 2] {
            let mut tg = TaskGraphBuilder::new("s", 1, 0);
            let ids: Vec<_> = (0..size).map(|i| tg.add_task(t(i as f64 + 1.0))).collect();
            for w in ids.windows(2) {
                tg.add_dep(w[0], w[1]);
            }
            let tg = tg.finish();
            upward_ranks_into(&tg, &mut scratch, &mut rank);
            assert_eq!(rank, upward_ranks(&tg));
            assert_eq!(critical_path_from(&rank), critical_path(&tg));
        }
    }

    /// Ranks kept for the tasks with no path to a changed one and
    /// re-ranked for the rest equal a full sweep, bit for bit: a diamond
    /// whose one branch grows, on top of a chain that does not change.
    #[test]
    fn reranked_ancestors_equal_a_full_sweep() {
        let build = |branch: f64| {
            let mut tg = TaskGraphBuilder::new("d", 1, 0);
            let ids: Vec<_> = [1.0, 2.0, branch, 0.5, 3.0, 0.25]
                .into_iter()
                .map(|d| tg.add_task(t(d)))
                .collect();
            for &(a, b) in &[(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (3, 5)] {
                tg.add_dep(ids[a], ids[b]);
            }
            tg.finish()
        };
        let (before, after) = (build(0.1), build(7.0));
        let mut rank = upward_ranks(&before);
        let mut scratch = RankScratch::default();
        assert_eq!(mark_ancestors(&after, &[TaskId(2)], &mut scratch), 2);
        rerank_marked_into(&after, &mut scratch, &mut rank);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rank), bits(&upward_ranks(&after)));
        // Task 4 reaches no changed task: its kept entry is never read.
        let mut kept = upward_ranks(&after);
        kept[4] = -1.0;
        mark_ancestors(&after, &[TaskId(2)], &mut scratch);
        rerank_marked_into(&after, &mut scratch, &mut kept);
        assert_eq!(kept[4], -1.0);
    }

    /// A graph with a cycle through a changed task: re-ranking its
    /// ancestors panics as a sweep would. Finishing a graph checks for
    /// repeated edges, not cycles.
    #[test]
    #[should_panic(expected = "task graph contains a cycle")]
    fn a_cycle_through_a_changed_task_panics() {
        let mut tg = TaskGraphBuilder::new("c", 1, 0);
        for i in 0..4 {
            tg.add_task(t(i as f64));
        }
        // 0 -> 1 -> 2 -> {1, 3}: 1 and 2 form a cycle.
        for (a, b) in [(0, 1), (1, 2), (2, 1), (2, 3)] {
            tg.add_dep(TaskId(a), TaskId(b));
        }
        let tg = tg.finish();
        let mut scratch = RankScratch::default();
        mark_ancestors(&tg, &[TaskId(2)], &mut scratch);
        rerank_marked_into(&tg, &mut scratch, &mut [0.0; 4]);
    }
}
