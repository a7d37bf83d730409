//! Upward-rank computation (§4.2).

use crate::task::{TaskGraph, TaskId};

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
pub fn upward_ranks_into(tg: &TaskGraph, scratch: &mut RankScratch, rank: &mut Vec<f64>) {
    heterog_telemetry::metrics::time_closure(&RANK_SECONDS, || {
        tg.topo_order_into(&mut scratch.indeg, &mut scratch.order);
        rank.clear();
        rank.resize(tg.len(), 0.0);
        for &id in scratch.order.iter().rev() {
            let best_succ = tg
                .succs(id)
                .iter()
                .map(|s| rank[s.index()])
                .fold(0.0f64, f64::max);
            rank[id.index()] = tg.task(id).duration + best_succ;
        }
    })
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
    use crate::task::{Proc, Task};
    use heterog_graph::OpKind;

    fn t(d: f64) -> Task {
        Task::new("t", OpKind::NoOp, Proc::Gpu(0), d)
    }

    #[test]
    fn chain_rank_accumulates() {
        let mut tg = TaskGraph::new("c", 1, 0);
        let a = tg.add_task(t(1.0));
        let b = tg.add_task(t(2.0));
        let c = tg.add_task(t(3.0));
        tg.add_dep(a, b);
        tg.add_dep(b, c);
        let r = upward_ranks(&tg);
        assert_eq!(r[c.index()], 3.0);
        assert_eq!(r[b.index()], 5.0);
        assert_eq!(r[a.index()], 6.0);
        assert_eq!(critical_path(&tg), 6.0);
    }

    #[test]
    fn rank_takes_max_branch() {
        let mut tg = TaskGraph::new("b", 1, 0);
        let a = tg.add_task(t(1.0));
        let long = tg.add_task(t(10.0));
        let short = tg.add_task(t(2.0));
        tg.add_dep(a, long);
        tg.add_dep(a, short);
        let r = upward_ranks(&tg);
        assert_eq!(r[a.index()], 11.0);
    }

    #[test]
    fn independent_tasks_rank_own_duration() {
        let mut tg = TaskGraph::new("i", 1, 0);
        let a = tg.add_task(t(4.0));
        let b = tg.add_task(t(7.0));
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
            let mut tg = TaskGraph::new("s", 1, 0);
            let ids: Vec<_> = (0..size).map(|i| tg.add_task(t(i as f64 + 1.0))).collect();
            for w in ids.windows(2) {
                tg.add_dep(w[0], w[1]);
            }
            upward_ranks_into(&tg, &mut scratch, &mut rank);
            assert_eq!(rank, upward_ranks(&tg));
            assert_eq!(critical_path_from(&rank), critical_path(&tg));
        }
    }
}
