//! Simulated-critical-path extraction.
//!
//! The static critical path (`heterog_sched::critical_path`) follows
//! upward ranks and ignores resource contention; here we instead walk the
//! *simulated* timeline backwards from the task that finishes last. The
//! event-driven list scheduler dispatches tasks only at event times, so
//! every task's start equals the finish of a justifying event: the
//! predecessor whose completion made it ready (a dependency edge), or the
//! finish of the task that freed its processor (a processor-order edge),
//! or `t = 0`. Following justifying events yields a chain whose segment
//! durations — plus any idle gaps, which are zero for work-conserving
//! schedules but tracked defensively against float drift — tile
//! `[0, makespan]` exactly.

use heterog_graph::OpKind;
use heterog_sched::{upward_ranks, Proc, Schedule, Task, TaskGraph, TaskId};

/// What a critical-path segment spends its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Computation on a GPU (forward/backward/update math).
    Compute,
    /// Gradient-aggregation work: ring/hierarchical all-reduce slots on
    /// links and PS-side aggregation ops on GPUs.
    Collective,
    /// Point-to-point activation/parameter movement on a link.
    Transfer,
}

impl SegmentKind {
    /// Stable lowercase label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Collective => "collective",
            SegmentKind::Transfer => "transfer",
        }
    }
}

/// Classifies a task for makespan attribution.
pub fn segment_kind(task: &Task) -> SegmentKind {
    match task.kind {
        OpKind::NcclAllReduce
        | OpKind::AllGather
        | OpKind::ReduceScatter
        | OpKind::GradAggregate => SegmentKind::Collective,
        _ if task.proc.is_link() => SegmentKind::Transfer,
        _ => SegmentKind::Compute,
    }
}

/// How a segment's start time is justified by the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathEdge {
    /// First segment: starts the iteration (at or after `t = 0`).
    Start,
    /// A dependency edge: the predecessor's completion made it ready.
    Dep,
    /// A processor-order edge: the previous task on the same GPU/link
    /// freed the processor.
    ProcOrder,
}

/// One task on the simulated critical path.
#[derive(Debug, Clone)]
pub struct PathSegment {
    /// Task index in the compiled task graph.
    pub task: u32,
    /// Rendered task name.
    pub name: String,
    /// Processor the task ran on.
    pub proc: Proc,
    /// Attribution bucket.
    pub kind: SegmentKind,
    /// Simulated start time, seconds.
    pub start: f64,
    /// Simulated duration, seconds.
    pub duration: f64,
    /// Gap between the justifying event and this task's start (zero in a
    /// work-conserving schedule; accounted so segments always tile the
    /// makespan).
    pub idle_before: f64,
    /// Dependency slack: how much later this task could have started
    /// without its static downstream chain exceeding the makespan
    /// (`makespan - start - upward_rank`, clamped at zero). Critical
    /// tasks sit at or near zero.
    pub slack: f64,
    /// How this segment's start is justified.
    pub edge: PathEdge,
}

/// The simulated critical path of one training iteration.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Segments in time order (first starts at/near 0, last finishes at
    /// the makespan).
    pub segments: Vec<PathSegment>,
    /// The schedule's makespan, seconds.
    pub makespan: f64,
    /// Total idle time along the path, seconds.
    pub total_idle: f64,
}

impl CriticalPath {
    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the graph was empty.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Sum of segment durations plus idle gaps — equals the makespan by
    /// construction (the integration tests assert this).
    pub fn coverage(&self) -> f64 {
        self.segments.iter().map(|s| s.duration).sum::<f64>() + self.total_idle
    }
}

/// Extracts the simulated critical path from a scheduled task graph.
///
/// Panics unless `s` holds a start and a finish time for every task of
/// `tg`; an evaluation the serve plan memo kept has none.
pub fn critical_path(tg: &TaskGraph, s: &Schedule) -> CriticalPath {
    s.assert_covers(tg.len());
    if tg.is_empty() {
        return CriticalPath::default();
    }

    // Per-processor execution order, to find processor-order justifiers.
    let mut by_proc: Vec<Vec<TaskId>> = vec![Vec::new(); tg.num_procs()];
    for (id, t) in tg.iter() {
        by_proc[tg.proc_index(t.proc)].push(id);
    }
    for lane in &mut by_proc {
        lane.sort_by(|a, b| {
            s.start[a.index()]
                .total_cmp(&s.start[b.index()])
                .then(s.finish[a.index()].total_cmp(&s.finish[b.index()]))
                .then(a.index().cmp(&b.index()))
        });
    }
    let mut pos = vec![0usize; tg.len()];
    for lane in &by_proc {
        for (i, &id) in lane.iter().enumerate() {
            pos[id.index()] = i;
        }
    }

    let ranks = upward_ranks(tg);

    // The task that finishes last defines the makespan (lowest id on ties).
    let mut cur = tg
        .task_ids()
        .max_by(|a, b| {
            s.finish[a.index()]
                .total_cmp(&s.finish[b.index()])
                .then(b.index().cmp(&a.index()))
        })
        .expect("non-empty graph");

    let mut segments = Vec::new();
    let mut total_idle = 0.0;
    loop {
        let task = tg.task(cur);
        let start = s.start[cur.index()];
        let slack = (s.makespan - start - ranks[cur.index()]).max(0.0);

        // Justifying event: predecessor with the latest finish vs. the
        // previous task on the same processor. All candidates finish at
        // or before `start`; in an event-driven schedule one of them
        // finishes exactly at `start`.
        let dep = tg.preds(cur).iter().copied().max_by(|a, b| {
            s.finish[a.index()]
                .total_cmp(&s.finish[b.index()])
                .then(b.index().cmp(&a.index()))
        });
        let lane = &by_proc[tg.proc_index(task.proc)];
        let prev = (pos[cur.index()] > 0).then(|| lane[pos[cur.index()] - 1]);

        let dep_f = dep.map_or(f64::NEG_INFINITY, |d| s.finish[d.index()]);
        let prev_f = prev.map_or(f64::NEG_INFINITY, |p| s.finish[p.index()]);
        let (next, edge, justify_f) = if dep_f >= prev_f && dep.is_some() {
            (dep, PathEdge::Dep, dep_f)
        } else if prev.is_some() {
            (prev, PathEdge::ProcOrder, prev_f)
        } else {
            (None, PathEdge::Start, 0.0)
        };
        let (next, edge, justify_f) = if next.is_some() && justify_f > 0.0 {
            (next, edge, justify_f)
        } else {
            (None, PathEdge::Start, 0.0)
        };

        let idle_before = (start - justify_f).max(0.0);
        total_idle += idle_before;
        segments.push(PathSegment {
            task: cur.index() as u32,
            name: tg.task_name(cur).to_string(),
            proc: task.proc,
            kind: segment_kind(task),
            start,
            duration: task.duration,
            idle_before,
            slack,
            edge,
        });

        match next {
            Some(n) => cur = n,
            None => break,
        }
    }
    segments.reverse();

    CriticalPath {
        segments,
        makespan: s.makespan,
        total_idle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_sched::{list_schedule, OrderPolicy};

    fn chain_graph() -> TaskGraph {
        // GPU0: a(1.0) -> link x(0.5) -> GPU1: b(1.0); GPU0 also c(2.0).
        let mut tg = TaskGraph::new("demo", 2, 1);
        let a = tg.add_task(Task::new("a", OpKind::Conv2D, Proc::Gpu(0), 1.0));
        let x = tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5));
        let b = tg.add_task(Task::new("b", OpKind::Conv2D, Proc::Gpu(1), 1.0));
        tg.add_task(Task::new("c", OpKind::Conv2D, Proc::Gpu(0), 2.0));
        tg.add_dep(a, x);
        tg.add_dep(x, b);
        tg
    }

    #[test]
    fn path_tiles_the_makespan() {
        let tg = chain_graph();
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let cp = critical_path(&tg, &s);
        assert!((cp.coverage() - s.makespan).abs() < 1e-12);
        assert!((cp.makespan - 3.0).abs() < 1e-9);
    }

    #[test]
    fn path_is_time_ordered_and_justified() {
        let tg = chain_graph();
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let cp = critical_path(&tg, &s);
        assert_eq!(cp.segments.first().unwrap().edge, PathEdge::Start);
        for w in cp.segments.windows(2) {
            let prev_finish = w[0].start + w[0].duration;
            assert!(
                (w[1].start - w[1].idle_before - prev_finish).abs() < 1e-12,
                "segment must start at its justifier's finish"
            );
            assert_ne!(w[1].edge, PathEdge::Start);
        }
        let last = cp.segments.last().unwrap();
        assert!((last.start + last.duration - cp.makespan).abs() < 1e-12);
    }

    #[test]
    fn proc_order_edges_are_found() {
        // Two independent 1.0s tasks on one GPU: the second's start is
        // justified by the first freeing the processor, not by any dep.
        let mut tg = TaskGraph::new("po", 1, 0);
        tg.add_task(Task::new("a", OpKind::Conv2D, Proc::Gpu(0), 1.0));
        tg.add_task(Task::new("b", OpKind::Conv2D, Proc::Gpu(0), 1.0));
        let s = list_schedule(&tg, &OrderPolicy::Fifo);
        let cp = critical_path(&tg, &s);
        assert_eq!(cp.len(), 2);
        assert_eq!(cp.segments[1].edge, PathEdge::ProcOrder);
        assert!((cp.coverage() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "schedule has 0 task times, task graph has")]
    fn a_cached_evaluation_has_no_task_times_to_walk() {
        use heterog_cluster::paper_testbed_8gpu;
        use heterog_compile::{compile, CommMethod, Strategy};
        use heterog_graph::{BenchmarkModel, ModelSpec};
        use heterog_profile::GroundTruthCost;

        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        // As the serve plan memo keeps it.
        let cached =
            heterog_strategies::evaluate(&g, &c, &GroundTruthCost, &s).without_task_times();
        critical_path(&tg, &cached.report.schedule);
    }

    #[test]
    fn empty_graph_yields_empty_path() {
        let tg = TaskGraph::new("empty", 1, 0);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let cp = critical_path(&tg, &s);
        assert!(cp.is_empty());
        assert_eq!(cp.coverage(), 0.0);
    }

    #[test]
    fn collective_and_transfer_kinds_classified() {
        let t = Task::new("x", OpKind::Transfer, Proc::Link(0), 0.1);
        assert_eq!(segment_kind(&t), SegmentKind::Transfer);
        let c = Task::new("ar", OpKind::NcclAllReduce, Proc::Link(0), 0.1);
        assert_eq!(segment_kind(&c), SegmentKind::Collective);
        let g = Task::new("agg", OpKind::GradAggregate, Proc::Gpu(0), 0.1);
        assert_eq!(segment_kind(&g), SegmentKind::Collective);
        let k = Task::new("mm", OpKind::MatMul, Proc::Gpu(0), 0.1);
        assert_eq!(segment_kind(&k), SegmentKind::Compute);
    }
}
