//! The main lowering: (graph, cluster, cost model, strategy) -> placed,
//! priced task graph.
//!
//! ## Segments
//!
//! One lowering emits its task graph as an ordered sequence of
//! segments, each a function of a few placements:
//!
//! * `R(op)` — the op's replica tasks (its replicas and shard marker);
//! * `W(u)` — the wiring of op `u`'s out-edges: transfers, Split/Concat
//!   and the cached all-gather or reduce-scatter of a sharded `u` (the
//!   replicas of `u` and of its successors);
//! * `A(g)` — gradient aggregation for parameter-gradient op `g` (`g`'s
//!   whole placement, communication method included, the replicas of
//!   its ApplyGradient and, for PS, the NIC load earlier PS rounds
//!   committed).
//!
//! All `R` segments come first, then all `W`, then all `A`, each in op
//! order. Every edge is added once, by the segment that emits it, so a
//! task's successor (or predecessor) row lists its edges segment by
//! segment, each segment's in the order it added them. A `W(u)` adds
//! edges only among `u`'s replicas, its consumers' replicas and its own
//! tasks, an `A(g)` only among `g`'s replicas, its ApplyGradient's and
//! its own tasks, and an `R` adds none. Every compile lowers into a
//! [`TaskGraphBuilder`] and returns the graph it finishes
//! ([`TaskGraphBuilder::finish`]): its successor and predecessor rows
//! are its only edges.
//!
//! [`compile_logged`] records where each segment's tasks and PS rounds
//! start and end. [`splice_into`] builds another placement's graph from
//! that base as a [`Patch`]: it copies every segment whose inputs are
//! unchanged, each run of consecutive such segments as one range of the
//! base's tasks that the patch reads in place, and re-runs only the
//! dirty ones through the same `Lowerer` code a full compile runs,
//! keeping their edges apart. It then writes only the rows that change:
//! the replicas a dirty segment wires become the patch's own tasks,
//! with their base rows with that segment's base edges dropped and its
//! new ones merged in segment order; a re-lowered task gets its new
//! edges. Every other copied task's rows are the base's, read through
//! the patch's id map. Read over the base
//! ([`heterog_sched::PatchView`]), the patch equals a fresh
//! [`compile_priced`] graph task for task and row for row. A spliced
//! graph has no price book: nothing re-prices it. The splice also tells
//! which tasks' successor rows it wrote afresh
//! ([`SpliceScratch::rewritten`]); with the patch's copied runs, a
//! caller derives the spliced graph's ranks and memory pre-pass from
//! the base's.
//!
//! Both walk only the segments the candidate's placements can make
//! dirty: the moved ops' `R`, the `W` of those ops and their producers,
//! and the `A` of each gradient whose placement changed or whose
//! ApplyGradient moved (every later `A` too once a PS round diverged
//! from the base's); the rest are clean, so a walk costs the move, not
//! the log.
//!
//! [`splice_loads`] walks the same segments with the same clean/dirty
//! decisions but builds nothing: it takes the dirty segments' base
//! tasks out of the base's per-processor loads and re-lowers those
//! segments into a [`TaskSink`] that only adds up work per processor,
//! which prices a candidate's busiest processor before any splice.
//!
//! [`log_compiled`] logs a graph [`compile`] already built: it re-runs
//! the lowering into a sink that stores no task or edge, numbering
//! tasks as that graph numbers them, so the graph is held once.
//!
//! Re-lowering an aggregation keeps its per-device lists, and an
//! AllReduce's server leaders and link tasks, in buffers the splice
//! reuses, as does re-lowering a broadcast its per-device feeders; a
//! splice and its load pass record no price-book entry, so re-lowering a
//! segment allocates nothing once the buffers have grown.

use std::sync::Arc;

use heterog_cluster::{Cluster, DeviceId};
use heterog_graph::{Graph, Node, OpId, OpKind, Phase, TensorMeta};
use heterog_profile::CostEstimator;
use heterog_sched::{
    Dir, NameTable, Pass, Patch, PatchIds, Proc, RowWriter, Tag, Task, TaskGraph, TaskGraphBuilder,
    TaskId, TaskName,
};

use crate::collective::{
    emit_allreduce, emit_one_pass_collective, emit_ps, pick_ps, CollectiveScratch, PsLoadTracker,
};
use crate::placement::{resolve_placements, OpPlacement};
use crate::price::{CollectiveKind, PriceBook};
use crate::strategy::{CommMethod, Strategy};

static COMPILATIONS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_compilations_total",
    "Graph-to-task-graph lowerings performed",
);
static REPLICA_TASKS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_replica_tasks_total",
    "Per-replica compute tasks created by lowering",
);
static SPLIT_TASKS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_split_tasks_total",
    "Split structural tasks inserted for data-parallel fan-out",
);
static CONCAT_TASKS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_concat_tasks_total",
    "Concat structural tasks inserted for data-parallel fan-in",
);

/// Training-state multiplier for pinned parameter memory: the weights
/// themselves plus Adam's two moment tensors (the paper's testbed trains
/// with stateful optimizers; TF1 allocates all three persistently).
pub const OPTIMIZER_STATE_FACTOR: u64 = 3;

/// The strings every task graph compiled from `g` on `cluster` indexes:
/// op names and link labels, built once per compile and shared by every
/// graph spliced from it.
fn name_table(g: &Graph, cluster: &Cluster) -> Arc<NameTable> {
    Arc::new(NameTable::new(
        g.iter().map(|(_, n)| n.name.as_str().into()).collect(),
        cluster.links().iter().map(|l| l.label.clone()).collect(),
    ))
}

/// A builder of a task graph labelled `label`, over `cluster`'s
/// processors, naming tasks from `g`.
fn empty_graph(label: String, g: &Graph, cluster: &Cluster) -> TaskGraphBuilder {
    let mut tg = TaskGraphBuilder::new(
        label,
        cluster.num_devices() as u32,
        cluster.num_links() as u32,
    );
    tg.set_names(name_table(g, cluster));
    tg
}

/// Op kinds whose outputs are computed in place (or fused) by real
/// frameworks — they add no resident activation memory, though their
/// outputs still define transfer sizes.
fn is_in_place(kind: OpKind) -> bool {
    // Dropout is NOT in-place: TF1 materializes the dropped tensor (and
    // keeps the mask) for backward. NoOp is pure wiring (the builder's
    // gradient fan-out points) and owns no tensor.
    matches!(
        kind,
        OpKind::Activation | OpKind::BatchNorm | OpKind::LayerNorm | OpKind::NoOp
    )
}

/// The ApplyGradient op consuming gradient op `gid`'s output, if any.
fn apply_of(g: &Graph, gid: OpId) -> Option<OpId> {
    g.succs(gid)
        .iter()
        .copied()
        .find(|&s| g.node(s).kind == OpKind::ApplyGradient)
}

/// Where a lowering puts the tasks and edges it emits: a
/// [`TaskGraphBuilder`], a [`Patch`] in [`splice_into`], or, in
/// [`splice_loads`], a sum that keeps only each processor's work.
pub trait TaskSink {
    /// Adds a task; returns its id.
    fn add_task(&mut self, task: Task) -> TaskId;
    /// Adds a precedence edge `src -> dst`.
    fn add_dep(&mut self, src: TaskId, dst: TaskId);
}

impl TaskSink for TaskGraphBuilder {
    fn add_task(&mut self, task: Task) -> TaskId {
        TaskGraphBuilder::add_task(self, task)
    }

    fn add_dep(&mut self, src: TaskId, dst: TaskId) {
        TaskGraphBuilder::add_dep(self, src, dst)
    }
}

/// A sink that numbers the tasks it receives as a [`TaskGraph`] would,
/// so that a segment log can record where each segment starts and ends.
trait Numbered: TaskSink {
    /// The tasks received so far.
    fn tasks(&self) -> u32;
}

impl Numbered for TaskGraphBuilder {
    fn tasks(&self) -> u32 {
        self.len() as u32
    }
}

/// A sink that stores no task or edge: it numbers the tasks of a
/// lowering of the placements `tg` was lowered from, which are `tg`'s,
/// and counts its edges. In debug builds it checks each task against
/// `tg`'s, and each edge against the next unread entry of its source's
/// successor row (`next` holds each row's read count).
struct Replay<'t> {
    tg: &'t TaskGraph,
    tasks: u32,
    edges: u32,
    next: Vec<u32>,
}

impl<'t> Replay<'t> {
    fn new(tg: &'t TaskGraph) -> Self {
        let next = if cfg!(debug_assertions) {
            vec![0; tg.len()]
        } else {
            Vec::new()
        };
        Replay {
            tg,
            tasks: 0,
            edges: 0,
            next,
        }
    }

    /// In debug builds, panics unless every successor row was read to
    /// its end.
    fn check_rows_consumed(&self) {
        if cfg!(debug_assertions) {
            for s in self.tg.task_ids() {
                assert_eq!(
                    self.next[s.index()] as usize,
                    self.tg.out_degree(s),
                    "lowered edges from {s} differ from the logged graph's"
                );
            }
        }
    }
}

impl TaskSink for Replay<'_> {
    fn add_task(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.tasks);
        debug_assert!(
            id.index() < self.tg.len() && same_task(self.tg.task(id), &task),
            "lowered task {id} differs from the logged graph's"
        );
        self.tasks += 1;
        id
    }

    fn add_dep(&mut self, src: TaskId, dst: TaskId) {
        if cfg!(debug_assertions) {
            let logged = self.next.get_mut(src.index()).and_then(|n| {
                *n += 1;
                self.tg.succs(src).get(*n as usize - 1)
            });
            assert_eq!(
                logged,
                Some(&dst),
                "lowered edge {src} -> {dst} differs from the logged graph's"
            );
        }
        self.edges += 1;
    }
}

impl Numbered for Replay<'_> {
    fn tasks(&self) -> u32 {
        self.tasks
    }
}

/// The patch's sink for the segments a splice re-lowers: tasks go into
/// the patch as its own, and edges, which the splice writes as rows
/// once every segment is in, are kept apart as `[src, dst]`, with where
/// each segment's edges start in `segs`.
struct PatchSink<'t> {
    patch: &'t mut Patch,
    edges: &'t mut Vec<[u32; 2]>,
    segs: &'t mut Vec<[u32; 2]>,
}

impl PatchSink<'_> {
    /// Starts the edges of segment `seg`.
    fn start(&mut self, seg: usize) {
        self.segs.push([seg as u32, self.edges.len() as u32]);
    }
}

impl TaskSink for PatchSink<'_> {
    fn add_task(&mut self, task: Task) -> TaskId {
        self.patch.add_task(task)
    }

    fn add_dep(&mut self, src: TaskId, dst: TaskId) {
        assert!(src.index() < self.patch.len() && dst.index() < self.patch.len());
        assert_ne!(src, dst, "self-dependency on {src}");
        self.edges.push([src.0, dst.0]);
    }
}

/// Whether two tasks are equal, durations bit for bit.
fn same_task(a: &Task, b: &Task) -> bool {
    a.name == b.name
        && a.kind == b.kind
        && a.proc == b.proc
        && a.duration.to_bits() == b.duration.to_bits()
        && a.bytes == b.bytes
        && a.param_bytes == b.param_bytes
        && a.batch_share == b.batch_share
}

/// A sink that adds each task's duration to its processor's slot of
/// `loads` (GPUs first, as [`TaskGraph::proc_index`] orders them),
/// drops every edge, and hands out placeholder ids.
struct LoadSum<'l> {
    loads: &'l mut [f64],
    num_gpus: usize,
}

impl LoadSum<'_> {
    fn slot(&mut self, proc: Proc) -> &mut f64 {
        match proc {
            Proc::Gpu(i) => &mut self.loads[i as usize],
            Proc::Link(i) => &mut self.loads[self.num_gpus + i as usize],
        }
    }
}

impl TaskSink for LoadSum<'_> {
    fn add_task(&mut self, task: Task) -> TaskId {
        *self.slot(task.proc) += task.duration;
        TaskId(u32::MAX)
    }

    fn add_dep(&mut self, _: TaskId, _: TaskId) {}
}

/// One lowering segment (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seg {
    /// `R(op)`: the op's replica tasks.
    Replicas(OpId),
    /// `W(u)`: the wiring of `u`'s out-edges.
    Wiring(OpId),
    /// `A(grad)`: aggregation of `grad`'s gradient into `apply`.
    Aggregate { grad: OpId, apply: OpId },
}

/// Every segment of a lowering of `g`, in emission order.
fn segments(g: &Graph) -> impl Iterator<Item = Seg> + '_ {
    let aggregations = g
        .iter()
        .filter(|(_, n)| n.kind.produces_param_grad())
        .filter_map(move |(grad, _)| apply_of(g, grad).map(|apply| Seg::Aggregate { grad, apply }));
    g.op_ids()
        .map(Seg::Replicas)
        .chain(g.op_ids().map(Seg::Wiring))
        .chain(aggregations)
}

/// Compiles the single-GPU training graph into a distributed task graph
/// under the given Part-I strategy. See the crate docs for the lowering
/// rules.
pub fn compile<C: CostEstimator>(
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    strategy: &Strategy,
) -> TaskGraph {
    compile_priced(g, cluster, cost, strategy).0
}

/// [`compile`] returning the [`PriceBook`] alongside the task graph: the
/// non-derivable pricing decisions (PS choices, collectives) that
/// [`crate::price::reprice`] replays under perturbed clusters.
pub fn compile_priced<C: CostEstimator>(
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    strategy: &Strategy,
) -> (TaskGraph, PriceBook) {
    let _span = heterog_telemetry::span("compile");
    COMPILATIONS.inc();
    let placements = resolve_placements(g, cluster, strategy);
    let lowering = Lowering {
        g,
        cluster,
        cost,
        placements: &placements,
    };
    let (tg, book) = lowering.compile(None);
    (tg, book)
}

/// Where one segment of a logged lowering put its output: half-open
/// ranges of task ids and of the price book's PS rounds, whose choices
/// a splice replays.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SegRecord {
    seg: Seg,
    tasks: [u32; 2],
    ps_rounds: [u32; 2],
}

/// The segment log of one lowering ([`compile_logged`]): the placements
/// it lowered, where each segment's output starts and ends in the
/// lowered graph's tasks and PS rounds, the PS load tracker before each
/// aggregation segment, and each task's segment and each gradient's
/// aggregation segment, by which a splice tells which segment added an
/// edge. The lowered graph holds its edges as rows alone, which a splice
/// copies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentLog {
    placements: Vec<OpPlacement>,
    segs: Vec<SegRecord>,
    trackers: Vec<PsLoadTracker>,
    /// Per task, the index of the segment that emitted it.
    seg_of: Vec<u32>,
    /// Per op, the index of its `A(op)` segment, or `u32::MAX`.
    aggregation_of: Vec<u32>,
}

impl SegmentLog {
    /// The placements the logged lowering lowered.
    pub fn placements(&self) -> &[OpPlacement] {
        &self.placements
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// True when the log holds no segment.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Op `op`'s replica tasks: the range of its `R(op)` segment, which
    /// is the log's `op`-th.
    fn replicas(&self, op: OpId) -> [u32; 2] {
        let rec = &self.segs[op.index()];
        debug_assert_eq!(rec.seg, Seg::Replicas(op));
        rec.tasks
    }

    /// The segment that emitted base edge `src -> dst`, for a log of a
    /// lowering of `g`. An edge that ends at a task of a `W` or `A`
    /// segment is that segment's; one between two replica tasks, of ops
    /// `u` and `v`, is `A(u)`'s when `v` is the ApplyGradient `u`
    /// aggregates into, else `W(u)`'s.
    fn edge_seg(&self, g: &Graph, src: u32, dst: u32) -> usize {
        let n = g.len();
        let (s, d) = (self.seg_of[src as usize], self.seg_of[dst as usize]);
        if s as usize >= n {
            return s as usize;
        }
        if d as usize >= n {
            return d as usize;
        }
        let into = Seg::Aggregate {
            grad: OpId(s),
            apply: OpId(d),
        };
        match self.aggregation_of.get(s as usize) {
            Some(&k) if self.segs.get(k as usize).is_some_and(|r| r.seg == into) => k as usize,
            _ => n + s as usize,
        }
    }
}

/// [`compile_priced`] that also records the [`SegmentLog`] other
/// placements splice from ([`splice_into`]). Same graph and book.
pub fn compile_logged<C: CostEstimator>(
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    strategy: &Strategy,
) -> (TaskGraph, PriceBook, SegmentLog) {
    let _span = heterog_telemetry::span("compile");
    COMPILATIONS.inc();
    let placements = resolve_placements(g, cluster, strategy);
    let mut log = SegmentLog::default();
    let lowering = Lowering {
        g,
        cluster,
        cost,
        placements: &placements,
    };
    let (tg, book) = lowering.compile(Some(&mut log));
    log.placements = placements;
    (tg, book, log)
}

/// The price book and segment log [`compile_logged`] gives for
/// `strategy`, where `tg` is the graph [`compile`] lowers `strategy` to
/// (on the same graph, cluster and cost model): the lowering runs again
/// into a sink that stores no task or edge, so `tg` is the only copy of
/// the tasks and its log's ranges index `tg`. Panics unless the
/// lowering numbers exactly `tg`'s tasks and edges; in debug builds,
/// also unless it emits `tg` itself, task for task, and each edge as
/// the next one of its source's successor row, every row to its end.
/// Not counted as a compilation.
pub fn log_compiled<C: CostEstimator>(
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    strategy: &Strategy,
    tg: &TaskGraph,
) -> (PriceBook, SegmentLog) {
    let _span = heterog_telemetry::span("log_compiled");
    let placements = resolve_placements(g, cluster, strategy);
    let (mut book, mut log) = <(PriceBook, SegmentLog)>::default();
    let mut buffers = Buffers::default();
    let lowering = Lowering {
        g,
        cluster,
        cost,
        placements: &placements,
    };
    let mut replay = Replay::new(tg);
    lowering
        .lowerer(&mut replay, Some(&mut book), &mut buffers)
        .emit_logged(&mut log);
    assert_eq!(
        [replay.tasks, replay.edges],
        [tg.len() as u32, tg.num_edges() as u32],
        "the lowering's task and edge counts differ from the logged graph's"
    );
    replay.check_rows_consumed();
    log.placements = placements;
    (book, log)
}

/// A splice base: a graph [`compile_logged`] built (or [`compile`],
/// logged by [`log_compiled`]), with its book and segment log.
#[derive(Debug, Clone, Copy)]
pub struct SpliceBase<'b> {
    /// The base task graph.
    pub tg: &'b TaskGraph,
    /// Its price book.
    pub book: &'b PriceBook,
    /// Its segment log.
    pub log: &'b SegmentLog,
}

/// The buffers one lowering pass fills: per-op replica task ids, the PS
/// load tracker, and a gradient aggregation's per-device lists.
#[derive(Debug, Default)]
struct Buffers {
    op_tasks: Vec<Vec<TaskId>>,
    tracker: PsLoadTracker,
    lists: AggLists,
    /// A splice's grouping keys, one per new edge.
    keys: Vec<u32>,
}

/// What a gradient aggregation lowers from and to: its gradient's
/// devices, per device the replica gradients it holds, per device the
/// task that hands it the aggregated gradient, and the AllReduce's
/// buffers; and per consumer device, the task a broadcast feeds it
/// from. Kept between segments, so re-lowering one allocates no list.
#[derive(Debug, Default)]
struct AggLists {
    devices: Vec<DeviceId>,
    ready: Vec<Vec<TaskId>>,
    avail: Vec<TaskId>,
    collective: CollectiveScratch,
    feeders: Vec<(DeviceId, TaskId)>,
}

/// Buffers [`splice_into`] and [`splice_loads`] reuse from one call to
/// the next, and which tasks' successor rows the last [`splice_into`]
/// wrote afresh ([`SpliceScratch::rewritten`]).
#[derive(Debug, Default)]
pub struct SpliceScratch {
    buffers: Buffers,
    /// What the placements changed from the base's.
    moves: Moves,
    /// Per base segment, in log order: did the last splice re-lower it?
    /// False but for the segments in `emitted_segs`.
    dirty: Vec<bool>,
    /// The edges the re-lowered segments emitted, in emission order,
    /// as `[src, dst]`, and per re-lowered segment where its edges
    /// start, as `[segment, first edge]`.
    emitted: Vec<[u32; 2]>,
    emitted_segs: Vec<[u32; 2]>,
    /// `emitted` grouped by the own task at the end the rows being
    /// written are keyed by (the source, then the destination): each own
    /// task's new edges, in emission order.
    grouped: Grouped,
    /// Per base task, [`SUCCS_TOUCHED`] and [`PREDS_TOUCHED`]: a copied
    /// replica whose successor (predecessor) row a re-lowered segment
    /// adds edges to or drops edges from. Zero but for `touched_list`.
    touched: Vec<u8>,
    /// The base tasks `touched` flags, in flagging order, then sorted:
    /// the copied tasks the patch holds rows for.
    touched_list: Vec<u32>,
    rewritten: Vec<TaskId>,
}

impl SpliceScratch {
    /// The tasks of the last [`splice_into`]'s graph whose successor
    /// rows it did not read from the base, in id order: every task a
    /// re-lowered segment emitted, and every copied replica that such a
    /// segment gave a successor or took one from. A copied task outside
    /// this list and with none of them downstream has the base task's
    /// duration and, through its successors, the same longest path to a
    /// sink.
    pub fn rewritten(&self) -> &[TaskId] {
        &self.rewritten
    }
}

/// Lowers `placements` into the patch `out` over `base.tg` by splicing
/// from `base`: segments whose inputs equal the base's are copied, the
/// rest re-lowered on `cluster`, which must be the cluster the base was
/// compiled on. Read over `base.tg`
/// ([`heterog_sched::PatchView`]), the patch is the task graph
/// [`compile_priced`] gives for a strategy resolving to `placements`,
/// task for task and row for row, in the same ids. Returns the number
/// of base segments reused; 0 means every segment was re-lowered.
///
/// A copied task is read from the base in place, its rows through the
/// patch's id map, unless a re-lowered segment wires it: then the patch
/// holds the task and its rows, its base rows merged with the segment's
/// new edges. The re-lowered tasks and their rows are the patch's too.
/// Only the written rows are checked for a repeated edge; a base row is
/// checked when the base was built, and mapped one to one.
pub fn splice_into<C: CostEstimator>(
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    placements: &[OpPlacement],
    base: SpliceBase<'_>,
    out: &mut Patch,
    scratch: &mut SpliceScratch,
) -> usize {
    let _span = heterog_telemetry::span("splice");
    COMPILATIONS.inc();
    let lowering = Lowering {
        g,
        cluster,
        cost,
        placements,
    };
    lowering.splice(base, out, scratch)
}

/// The per-processor loads of the task graph [`splice_into`] would
/// build for `placements` from `base`, without building it. `loads`
/// holds the base graph's loads on entry, one slot per processor with
/// GPUs first (as [`heterog_sched::busiest_processor_load`] sums them),
/// and the candidate's on return. The segments are walked as a splice
/// walks them, PS rounds replayed alike; each dirty segment's base
/// tasks are taken out of the loads and the tasks it re-lowers to
/// added, and no task or edge is stored. The loads are summed in
/// another order than a sum over the spliced graph, so they may differ
/// from one in the last bits. Not counted as a compilation. Returns
/// the number of clean segments, as [`splice_into`] would reuse: when
/// it is every segment, that splice would copy the base graph whole.
pub fn splice_loads<C: CostEstimator>(
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    placements: &[OpPlacement],
    base: SpliceBase<'_>,
    loads: &mut [f64],
    scratch: &mut SpliceScratch,
) -> usize {
    let _span = heterog_telemetry::span("splice_loads");
    let lowering = Lowering {
        g,
        cluster,
        cost,
        placements,
    };
    let SpliceScratch { buffers, moves, .. } = scratch;
    moves.mark(g, base.log, placements);
    let mut sum = LoadSum {
        loads,
        num_gpus: base.tg.num_gpus as usize,
    };
    lowering.lowerer(&mut sum, None, buffers).price(base, moves)
}

/// A copied replica's successor row is merged, not copied.
const SUCCS_TOUCHED: u8 = 1;
/// A copied replica's predecessor row is merged, not copied.
const PREDS_TOUCHED: u8 = 2;

/// Edges grouped by one end, stably: `order[off[t]..off[t + 1]]` are
/// the indices of task `t`'s edges, in their original order.
#[derive(Debug, Default)]
struct Grouped {
    off: Vec<u32>,
    order: Vec<u32>,
}

impl Grouped {
    /// Groups `edges` into `n` groups by `key` of their end `end` (0 the
    /// source, 1 the destination) with a counting sort; `keys` holds
    /// each edge's key.
    fn fill(
        &mut self,
        n: usize,
        edges: &[[u32; 2]],
        end: usize,
        keys: &mut Vec<u32>,
        key: impl Fn(u32) -> u32,
    ) {
        let Grouped { off, order } = self;
        keys.clear();
        keys.extend(edges.iter().map(|e| key(e[end])));
        off.clear();
        off.resize(n + 1, 0);
        for &k in keys.iter() {
            off[k as usize + 1] += 1;
        }
        for t in 0..n {
            off[t + 1] += off[t];
        }
        order.clear();
        order.resize(edges.len(), 0);
        // Fill back to front from each group's end, which leaves every
        // group in order and its cursor at the group's start.
        for (i, &k) in keys.iter().enumerate().rev() {
            let at = &mut off[k as usize + 1];
            *at -= 1;
            order[*at as usize] = i as u32;
        }
        off.copy_within(1..n + 1, 0);
        off[n] = edges.len() as u32;
    }

    /// Task `t`'s edges' indices.
    fn of(&self, t: u32) -> &[u32] {
        &self.order[self.off[t as usize] as usize..self.off[t as usize + 1] as usize]
    }
}

/// What a candidate's placements change from the ones a [`SegmentLog`]
/// lowered, and so which of its segments can re-lower: a walk visits
/// those and skips the rest, which are clean.
#[derive(Debug, Default)]
struct Moves {
    /// Per op: did its replicas (or shard marker) move?
    moved: Vec<bool>,
    /// The moved ops, in op order: their `R` segments re-lower.
    ops: Vec<OpId>,
    /// The moved ops and their producers, in op order: the `W`
    /// segments that re-lower.
    wired: Vec<u32>,
    /// In log order, the `A` segments whose gradient's placement
    /// changed (devices or aggregation method) or whose ApplyGradient
    /// moved: those that re-lower while the PS tracker is the base's.
    aggs: Vec<u32>,
}

impl Moves {
    /// Compares `placements` with `log`'s, op by op.
    fn mark(&mut self, g: &Graph, log: &SegmentLog, placements: &[OpPlacement]) {
        let Moves {
            moved,
            ops,
            wired,
            aggs,
        } = self;
        moved.clear();
        ops.clear();
        wired.clear();
        aggs.clear();
        let aggregation = |op: OpId| log.aggregation_of.get(op.index()).copied();
        for (i, (a, b)) in log.placements.iter().zip(placements).enumerate() {
            let op = OpId(i as u32);
            let m = a.replicas != b.replicas || a.shard_dim != b.shard_dim;
            moved.push(m);
            if m {
                ops.push(op);
            }
            if m || a.comm != b.comm {
                aggs.extend(aggregation(op).filter(|&k| k != u32::MAX));
            }
        }
        for &m in ops.iter() {
            wired.push(m.0);
            for &p in g.preds(m) {
                wired.push(p.0);
                let into = Seg::Aggregate { grad: p, apply: m };
                aggs.extend(
                    aggregation(p)
                        .filter(|&k| log.segs.get(k as usize).is_some_and(|r| r.seg == into)),
                );
            }
        }
        wired.sort_unstable();
        wired.dedup();
        aggs.sort_unstable();
        aggs.dedup();
    }
}

/// Flags in `touched` the copied base replicas whose rows re-lowering
/// `seg` changes: a `W(u)` adds and drops edges from `u`'s replicas and
/// into its consumers', an `A(g)` from `g`'s and into its
/// ApplyGradient's. Replicas that moved are re-lowered, not copied, and
/// not flagged. Pushes each newly flagged task onto `list`.
fn touch(
    g: &Graph,
    log: &SegmentLog,
    moved: &[bool],
    seg: Seg,
    touched: &mut [u8],
    list: &mut Vec<u32>,
) {
    let mut flag = |op: OpId, bit: u8| {
        if !moved[op.index()] {
            let [t0, t1] = log.replicas(op);
            for t in t0..t1 {
                let f = &mut touched[t as usize];
                if *f == 0 {
                    list.push(t);
                }
                *f |= bit;
            }
        }
    };
    match seg {
        Seg::Replicas(_) => {}
        Seg::Wiring(u) => {
            flag(u, SUCCS_TOUCHED);
            for &v in g.succs(u) {
                flag(v, PREDS_TOUCHED);
            }
        }
        Seg::Aggregate { grad, apply } => {
            flag(grad, SUCCS_TOUCHED);
            flag(apply, PREDS_TOUCHED);
        }
    }
}

/// What a patch's own rows are written from: the base, its log, the
/// patch's id maps, which segments were re-lowered, and their new edges.
struct RowSource<'a> {
    g: &'a Graph,
    base: &'a TaskGraph,
    log: &'a SegmentLog,
    ids: PatchIds<'a>,
    dirty: &'a [bool],
    emitted: &'a [[u32; 2]],
    emitted_segs: &'a [[u32; 2]],
}

impl RowSource<'_> {
    /// Writes one direction's rows of the patch's own tasks, in own
    /// order: first the `fresh` re-lowered tasks' new edges, which `new`
    /// groups by own task; then, for each copied base task of `copied`,
    /// its base row merged with its new edges when `touched` has its
    /// `bit` set, else its base row.
    fn write(
        &self,
        w: &mut RowWriter<'_>,
        fresh: u32,
        copied: &[u32],
        new: &Grouped,
        touched: &[u8],
        bit: u8,
    ) {
        let mut written = 0;
        for k in 0..fresh {
            written += self.push_new(w, new.of(k), u32::MAX);
            w.end_row();
        }
        for (k, &b) in (fresh..).zip(copied) {
            if touched[b as usize] & bit != 0 {
                written += self.merge(w, new.of(k), b);
            } else {
                w.copy_rows(self.base, b..b + 1, self.ids.remap());
            }
        }
        assert_eq!(
            written,
            self.emitted.len(),
            "a re-lowered segment's edge names a copied task whose row was copied"
        );
    }

    /// Writes the row of the copied task whose base task is `b`: the
    /// base row's entries from clean segments, remapped, merged in
    /// segment order with the task's `new` edges. Returns how many new
    /// edges it wrote.
    fn merge(&self, w: &mut RowWriter<'_>, new: &[u32], b: u32) -> usize {
        let dir = w.dir();
        let row = match dir {
            Dir::Succs => self.base.succs(TaskId(b)),
            Dir::Preds => self.base.preds(TaskId(b)),
        };
        let remap = self.ids.remap();
        let mut k = 0;
        for &e in row {
            let seg = match dir {
                Dir::Succs => self.log.edge_seg(self.g, b, e.0),
                Dir::Preds => self.log.edge_seg(self.g, e.0, b),
            };
            if self.dirty[seg] {
                continue;
            }
            k += self.push_new(w, &new[k..], seg as u32);
            w.push(TaskId(remap[e.index()]));
        }
        k += self.push_new(w, &new[k..], u32::MAX);
        w.end_row();
        k
    }

    /// Pushes the new edges `new` (indices into `emitted`) while their
    /// segments come before `before`; returns how many it pushed.
    fn push_new(&self, w: &mut RowWriter<'_>, new: &[u32], before: u32) -> usize {
        let mut pushed = 0;
        for &i in new {
            if before != u32::MAX && self.seg_of_new(i) >= before {
                break;
            }
            let [src, dst] = self.emitted[i as usize];
            w.push(TaskId(if w.dir() == Dir::Succs { dst } else { src }));
            pushed += 1;
        }
        pushed
    }

    /// The segment that emitted new edge `i`.
    fn seg_of_new(&self, i: u32) -> u32 {
        let k = self.emitted_segs.partition_point(|&[_, first]| first <= i);
        self.emitted_segs[k - 1][0]
    }
}

/// The inputs of one plain (single-pass) lowering.
struct Lowering<'a, C: CostEstimator> {
    g: &'a Graph,
    cluster: &'a Cluster,
    cost: &'a C,
    placements: &'a [OpPlacement],
}

impl<C: CostEstimator> Lowering<'_, C> {
    /// A single-pass [`Lowerer`] emitting into `out`, recording into
    /// `book` when given, with `buffers` and a reset PS tracker.
    fn lowerer<'s, O: TaskSink>(
        &'s self,
        out: &'s mut O,
        book: Option<&'s mut PriceBook>,
        buffers: &'s mut Buffers,
    ) -> Lowerer<'s, C, O> {
        let Buffers {
            op_tasks,
            tracker,
            lists,
            ..
        } = buffers;
        op_tasks.resize_with(self.g.len(), Vec::new);
        tracker.reset(self.cluster.servers().len());
        Lowerer {
            g: self.g,
            cluster: self.cluster,
            cost: self.cost,
            placements: self.placements,
            tg: out,
            book,
            op_tasks,
            ps_loads: tracker,
            lists,
            pass: Pass::SINGLE,
            pin_params: true,
            emit_applies: true,
            share_override: None,
            gathered: None,
            scattered: None,
        }
    }

    /// Lowers every segment into a new graph and its price book,
    /// recording each segment into `log` when given.
    fn compile(&self, log: Option<&mut SegmentLog>) -> (TaskGraph, PriceBook) {
        let g = self.g;
        let mut tg = empty_graph(format!("{}@dist", g.name), g, self.cluster);
        let mut book = PriceBook::default();
        let mut buffers = Buffers::default();
        let mut lw = self.lowerer(&mut tg, Some(&mut book), &mut buffers);
        match log {
            Some(log) => lw.emit_logged(log),
            None => segments(g).for_each(|seg| lw.emit(seg)),
        }
        (tg.finish(), book)
    }

    /// Splices from `base` (see [`splice_into`]); returns the number of
    /// segments copied. Each run of consecutive clean segments is copied
    /// as one range of base tasks before the next dirty segment is
    /// emitted; the copied tasks a dirty segment wires become the
    /// patch's own, and the own rows are written once every task is in.
    fn splice(&self, base: SpliceBase<'_>, out: &mut Patch, scratch: &mut SpliceScratch) -> usize {
        let (g, log) = (self.g, base.log);
        out.start(base.tg);
        let SpliceScratch {
            buffers,
            moves,
            dirty,
            emitted,
            emitted_segs,
            grouped,
            touched,
            touched_list,
            rewritten,
        } = scratch;
        moves.mark(g, log, self.placements);
        // Unflag the last splice's tasks and segments, not the whole base.
        for &b in touched_list.iter() {
            touched[b as usize] = 0;
        }
        touched_list.clear();
        touched.resize(base.tg.len(), 0);
        for &[seg, _] in emitted_segs.iter() {
            dirty[seg as usize] = false;
        }
        dirty.resize(log.len(), false);
        emitted.clear();
        emitted_segs.clear();
        let mut sink = PatchSink {
            patch: out,
            edges: emitted,
            segs: emitted_segs,
        };
        let mut lw = self.lowerer(&mut sink, None, buffers);
        // The base tasks before `copied` are copied or dropped: the
        // clean segments between two dirty ones are one copied run.
        let mut copied = 0;
        let reused = lw.walk(base, moves, |lw, i, rec, clean| {
            if clean {
                return;
            }
            let [t0, t1] = rec.tasks;
            if copied < t0 {
                lw.tg.patch.copy(base.tg, copied..t0);
            }
            copied = t1;
            dirty[i] = true;
            touch(g, log, &moves.moved, rec.seg, touched, touched_list);
            lw.read_copies(log, &moves.moved, rec.seg, |sink, t| {
                sink.patch.copied_id(t)
            });
            lw.tg.start(i);
            lw.emit(rec.seg);
        });
        if copied < base.tg.len() as u32 {
            sink.patch.copy(base.tg, copied..base.tg.len() as u32);
        }

        // Own the touched copied tasks in id order (the copy keeps the
        // base's order), after the re-lowered ones.
        let fresh = out.own_len() as u32;
        touched_list.sort_unstable();
        for &b in touched_list.iter() {
            out.own(base.tg, b);
        }
        let mut keys = std::mem::take(&mut buffers.keys);
        out.write_rows(base.tg, |w, ids| {
            let (end, bit) = match w.dir() {
                Dir::Succs => (0, SUCCS_TOUCHED),
                Dir::Preds => (1, PREDS_TOUCHED),
            };
            let own = |t: u32| {
                ids.own_index(TaskId(t))
                    .expect("a re-lowered segment's edge names a copied task whose row was copied")
            };
            let rows = RowSource {
                g,
                base: base.tg,
                log,
                ids,
                dirty,
                emitted,
                emitted_segs,
            };
            let n = fresh as usize + touched_list.len();
            grouped.fill(n, emitted, end, &mut keys, own);
            rows.write(w, fresh, touched_list, grouped, touched, bit);
            if w.dir() == Dir::Succs {
                // The re-lowered tasks, and the copied ones whose
                // successor rows changed, merged in id order.
                rewritten.clear();
                let mut copied = touched_list
                    .iter()
                    .filter(|&&b| touched[b as usize] & SUCCS_TOUCHED != 0)
                    .map(|&b| TaskId(ids.remap()[b as usize]))
                    .peekable();
                for k in 0..fresh {
                    let t = ids.own_id(k);
                    while let Some(c) = copied.next_if(|&c| c < t) {
                        rewritten.push(c);
                    }
                    rewritten.push(t);
                }
                rewritten.extend(copied);
            }
        });
        buffers.keys = keys;
        reused
    }
}

/// Micro-batch pipelined compilation — the §7 extension ("we can further
/// split a mini-batch into micro-batches, carry out pipelined training
/// across operations deployed on different devices, and augment our
/// execution order scheduling algorithm to handle such micro-batches").
///
/// The mini-batch is split into `micros` micro-batches; forward and
/// backward tasks are emitted once per micro-batch (with proportionally
/// scaled replica shares), and the devices pipeline them naturally under
/// list scheduling. Unlike PipeDream-style asynchrony, **gradients from
/// all micro-batches are aggregated once and applied once per
/// iteration**, so synchronous-SGD semantics are fully preserved —
/// exactly the integration the paper sketches.
pub fn compile_pipelined<C: CostEstimator>(
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    strategy: &Strategy,
    micros: u32,
) -> TaskGraph {
    let micros = micros.max(1);
    if micros == 1 {
        return compile(g, cluster, cost, strategy);
    }
    let _span = heterog_telemetry::span("compile_pipelined");
    COMPILATIONS.inc();
    let placements = resolve_placements(g, cluster, strategy);
    let micro_batches = crate::placement::split_batch(g.batch_size, micros as u64);

    let mut tg = empty_graph(format!("{}@dist-pipe{micros}", g.name), g, cluster);
    // Collected per-op replica tasks across micro-batches, for the final
    // aggregation pass.
    let mut tasks_by_micro: Vec<Vec<Vec<TaskId>>> = Vec::new();
    let mut ps_loads = PsLoadTracker::new(cluster.servers().len());
    let mut final_apply_tasks: Vec<Vec<TaskId>> = vec![Vec::new(); g.len()];

    let active: Vec<(usize, u64)> = micro_batches
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, b)| b > 0)
        .collect();
    let last_mi = active.last().expect("at least one micro-batch").0;

    for &(mi, mb) in &active {
        // Per-replica shares of this micro-batch, aligned with the
        // full-batch placement's replica order (zero shares are kept so
        // structure stays aligned across micro-batches).
        let shares: Vec<Vec<u64>> = placements
            .iter()
            .map(|p| crate::placement::split_batch(mb, p.replicas.len() as u64))
            .collect();
        let mut op_tasks = vec![Vec::new(); g.len()];
        let mut unused_loads = PsLoadTracker::new(cluster.servers().len());
        let mut lw = Lowerer {
            g,
            cluster,
            cost,
            placements: &placements,
            tg: &mut tg,
            book: None,
            op_tasks: &mut op_tasks,
            ps_loads: &mut unused_loads,
            lists: &mut AggLists::default(),
            pass: Pass::micro(mi as u32),
            pin_params: mi == active[0].0,
            emit_applies: mi == last_mi,
            share_override: Some(&shares),
            gathered: None,
            scattered: None,
        };
        for seg in segments(g) {
            if !matches!(seg, Seg::Aggregate { .. }) {
                lw.emit(seg);
            }
        }
        if mi == last_mi {
            for (i, t) in op_tasks.iter().enumerate() {
                if g.node(OpId(i as u32)).kind == OpKind::ApplyGradient {
                    final_apply_tasks[i] = t.clone();
                }
            }
        }
        tasks_by_micro.push(op_tasks);
    }

    // One aggregation per parameter, consuming every micro-batch's
    // replica gradients (local accumulation is in place).
    emit_cross_micro_aggregation(
        &mut tg,
        g,
        cluster,
        cost,
        &placements,
        &tasks_by_micro,
        &final_apply_tasks,
        &mut ps_loads,
    );
    tg.finish()
}

/// Compiles `iterations` back-to-back training iterations into one task
/// graph, with the true cross-iteration dependency: iteration `i+1`'s
/// replicas of a parameterized op cannot start before iteration `i`'s
/// `ApplyGradient` for those parameters completes on the same device.
/// Everything else overlaps freely (input prefetch, early forward layers
/// running while the previous iteration's deep updates finish) — the
/// steady-state pipelining a real engine exhibits.
///
/// The steady-state per-iteration time is
/// `(makespan(k) - makespan(k0)) / (k - k0)` for two iteration counts;
/// `heterog-sim` exposes a helper for that.
pub fn compile_iterations<C: CostEstimator>(
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    strategy: &Strategy,
    iterations: u32,
) -> TaskGraph {
    let iterations = iterations.max(1);
    let placements = resolve_placements(g, cluster, strategy);
    let mut tg = empty_graph(format!("{}@dist-x{iterations}", g.name), g, cluster);

    // Map each parameterized forward op -> its ApplyGradient op.
    let mut apply_of_fwd: Vec<Option<OpId>> = vec![None; g.len()];
    for (gid, node) in g.iter() {
        if let Some(f) = node.grad_of {
            if let Some(a) = apply_of(g, gid) {
                apply_of_fwd[f.index()] = Some(a);
            }
        }
    }

    let mut prev_tasks: Option<Vec<Vec<TaskId>>> = None;
    for it in 0..iterations {
        let mut op_tasks = vec![Vec::new(); g.len()];
        let mut ps_loads = PsLoadTracker::new(cluster.servers().len());
        let mut lw = Lowerer {
            g,
            cluster,
            cost,
            placements: &placements,
            tg: &mut tg,
            book: None,
            op_tasks: &mut op_tasks,
            ps_loads: &mut ps_loads,
            lists: &mut AggLists::default(),
            pass: Pass::iteration(it),
            pin_params: it == 0,
            emit_applies: true,
            share_override: None,
            gathered: None,
            scattered: None,
        };
        segments(g).for_each(|seg| lw.emit(seg));

        // Cross-iteration: this iteration's parameter readers wait for
        // the previous iteration's updates of the same parameters.
        if let Some(prev) = &prev_tasks {
            for (fid, apply) in apply_of_fwd.iter().enumerate() {
                let Some(apply) = apply else { continue };
                for (&prev_apply, &cur_f) in prev[apply.index()].iter().zip(&op_tasks[fid]) {
                    tg.add_dep(prev_apply, cur_f);
                }
            }
        }
        prev_tasks = Some(op_tasks);
    }
    tg.finish()
}

/// Aggregates gradients accumulated across micro-batches and wires them
/// into the (single) ApplyGradient tasks.
#[allow(clippy::too_many_arguments)]
fn emit_cross_micro_aggregation<C: CostEstimator>(
    tg: &mut TaskGraphBuilder,
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    placements: &[OpPlacement],
    tasks_by_micro: &[Vec<Vec<TaskId>>],
    apply_tasks: &[Vec<TaskId>],
    ps_loads: &mut PsLoadTracker,
) {
    for (gid, node) in g.iter() {
        if !node.kind.produces_param_grad() {
            continue;
        }
        let Some(apply) = apply_of(g, gid) else {
            continue;
        };
        let gp = &placements[gid.index()];
        let bytes = node.output.bytes(0).max(node.output.bytes(1));
        let devices = gp.devices();

        let ready: Vec<Vec<TaskId>> = devices
            .iter()
            .map(|&d| {
                tasks_by_micro
                    .iter()
                    .flat_map(|per_op| {
                        gp.replicas
                            .iter()
                            .zip(&per_op[gid.index()])
                            .filter(move |((rd, _), _)| *rd == d)
                            .map(|(_, &t)| t)
                    })
                    .collect()
            })
            .collect();

        let applies = &apply_tasks[apply.index()];
        debug_assert_eq!(applies.len(), devices.len());

        // Sharded parameters: every device owns its slice's gradient —
        // apply locally, no cross-device aggregation (see
        // `Lowerer::aggregate`).
        if gp.shard_dim.is_some() {
            for (rs, &a) in ready.iter().zip(applies) {
                for &r in rs {
                    tg.add_dep(r, a);
                }
            }
            continue;
        }

        if devices.len() == 1 {
            for &r in &ready[0] {
                tg.add_dep(r, applies[0]);
            }
            continue;
        }
        let mut avail = Vec::new();
        match gp.comm {
            CommMethod::Ps => emit_ps(
                tg, cluster, cost, gid, &devices, &ready, bytes, ps_loads, None, &mut avail,
            ),
            CommMethod::AllReduce => emit_allreduce(
                tg,
                cluster,
                cost,
                gid,
                &devices,
                &ready,
                bytes,
                None,
                &mut CollectiveScratch::default(),
                &mut avail,
            ),
        }
        for (a, t) in avail.iter().zip(applies) {
            tg.add_dep(*a, *t);
        }
    }
}

/// True when lowering a gradient placed at `gp` runs a PS round: it is
/// neither sharded nor on one device, and aggregates by PS.
fn runs_ps_round(gp: &OpPlacement) -> bool {
    gp.shard_dim.is_none()
        && gp.replicas.iter().any(|r| r.0 != gp.replicas[0].0)
        && gp.comm == CommMethod::Ps
}

/// The state one lowering pass emits with. Every path — full compile,
/// logged compile, splice, the splice's load pass, pipelined and
/// multi-iteration compiles — emits segments through [`Lowerer::emit`].
struct Lowerer<'a, C: CostEstimator, O: TaskSink = TaskGraphBuilder> {
    g: &'a Graph,
    cluster: &'a Cluster,
    cost: &'a C,
    placements: &'a [OpPlacement],
    tg: &'a mut O,
    /// Records the pricing decisions, unless the pass discards them (a
    /// splice, its load pass, pipelined and multi-iteration compiles).
    book: Option<&'a mut PriceBook>,
    /// Per-op replica task ids emitted (or copied) by this pass.
    op_tasks: &'a mut [Vec<TaskId>],
    ps_loads: &'a mut PsLoadTracker,
    lists: &'a mut AggLists,
    /// Micro-batch pipelining support (the §7 extension): the replica
    /// names' pass, whether this pass pins parameters (only the first
    /// micro-batch does), whether ApplyGradient tasks are emitted (only
    /// the last micro-batch's pass does), and optional per-op per-replica
    /// share overrides replacing the placement's full-batch shares.
    pass: Pass,
    pin_params: bool,
    emit_applies: bool,
    share_override: Option<&'a [Vec<u64>]>,
    /// The current `W(u)`'s all-gather completion markers: every
    /// consumer of a sharded forward op shares one collective instead of
    /// re-gathering.
    gathered: Option<Vec<TaskId>>,
    /// The current `W(u)`'s reduce-scatter completion markers (sharded
    /// backward boundaries), shared across consumers likewise.
    scattered: Option<Vec<TaskId>>,
}

impl<C: CostEstimator> Lowerer<'_, C, LoadSum<'_>> {
    /// The splice's load pass (see [`splice_loads`]): walks `base`'s
    /// segments as [`Lowerer::splice`] does, and for each dirty one
    /// takes its base tasks' durations out of the loads and emits its
    /// re-lowered tasks into them, reading placeholder ids, one per base
    /// replica, for the copied ops it wires. Returns the number of clean
    /// segments.
    fn price(&mut self, base: SpliceBase<'_>, moves: &Moves) -> usize {
        self.walk(base, moves, |lw, _, rec, clean| {
            if !clean {
                let [t0, t1] = rec.tasks;
                for i in t0..t1 {
                    let t = base.tg.task(TaskId(i));
                    *lw.tg.slot(t.proc) -= t.duration;
                }
                lw.read_copies(base.log, &moves.moved, rec.seg, |_, _| TaskId(u32::MAX));
                lw.emit(rec.seg);
            }
        })
    }
}

impl<C: CostEstimator, O: Numbered> Lowerer<'_, C, O> {
    /// Emits every segment, recording each into `log`.
    fn emit_logged(&mut self, log: &mut SegmentLog) {
        for seg in segments(self.g) {
            if matches!(seg, Seg::Aggregate { .. }) {
                log.trackers.push(self.ps_loads.clone());
            }
            let start = self.marks();
            self.emit(seg);
            let end = self.marks();
            let i = log.segs.len() as u32;
            log.seg_of.resize(end[0] as usize, i);
            if let Seg::Aggregate { grad, .. } = seg {
                log.aggregation_of.resize(self.g.len(), u32::MAX);
                log.aggregation_of[grad.index()] = i;
            }
            log.segs.push(SegRecord {
                seg,
                tasks: [start[0], end[0]],
                ps_rounds: [start[1], end[1]],
            });
        }
    }

    /// Current task and recorded PS-round counts.
    fn marks(&self) -> [u32; 2] {
        let rounds = self.book.as_ref().map_or(0, |b| b.ps_rounds.len());
        [self.tg.tasks(), rounds as u32]
    }
}

impl<C: CostEstimator, O: TaskSink> Lowerer<'_, C, O> {
    /// Emits one segment.
    fn emit(&mut self, seg: Seg) {
        match seg {
            Seg::Replicas(op) => self.replica_tasks(op),
            Seg::Wiring(u) => self.wire_from(u),
            Seg::Aggregate { grad, apply } => self.aggregate(grad, apply),
        }
    }

    /// Walks `base`'s segments in order and hands to `visit` each one
    /// that `moves` can re-lower ([`Moves::mark`]), with its index and
    /// whether it is clean: its inputs equal the base's, so the base's
    /// output for it stands. Every segment it skips is clean and changes
    /// nothing, so a walk costs the moves, not the log. A dirty segment
    /// must be emitted by `visit`, after [`Lowerer::read_copies`]. The
    /// walk keeps the PS load tracker: a dirty aggregation starts from
    /// the base's snapshot when PS rounds are at stake, and once earlier
    /// rounds diverged every aggregation is visited, and a clean one
    /// replays its base round, turning dirty when the greedy chooser
    /// would now pick another server. Returns the number of clean
    /// segments.
    fn walk(
        &mut self,
        base: SpliceBase<'_>,
        moves: &Moves,
        mut visit: impl FnMut(&mut Self, usize, &SegRecord, bool),
    ) -> usize {
        let (log, n) = (base.log, self.g.len());
        let mut dirty = 0;
        // The moved ops' `R`, then the `W` of the moved ops and their
        // producers: log order, and every one of them dirty.
        let ops = moves.ops.iter().map(|op| op.index());
        for i in ops.chain(moves.wired.iter().map(|&u| n + u as usize)) {
            dirty += 1;
            visit(self, i, &log.segs[i], false);
        }
        // While true, every PS round so far chose and committed what the
        // base's did, so the tracker need not be maintained: the base's
        // snapshot before a segment is exact, and an aggregation whose
        // inputs are the base's is clean.
        let mut tracker_is_base = true;
        let mut aggs = moves.aggs.iter();
        let mut next = 2 * n;
        while next < log.len() {
            let i = if tracker_is_base {
                match aggs.next() {
                    Some(&k) => k as usize,
                    None => break,
                }
            } else {
                next
            };
            next = i + 1;
            let rec = &log.segs[i];
            let Seg::Aggregate { grad, apply } = rec.seg else {
                unreachable!("the log's aggregations follow its {n} R and {n} W segments")
            };
            let snapshot = &log.trackers[i - 2 * n];
            let gp = &self.placements[grad.index()];
            let base_round = (rec.ps_rounds[0] < rec.ps_rounds[1])
                .then(|| &base.book.ps_rounds[rec.ps_rounds[0] as usize]);
            let clean = if log.placements[grad.index()] != *gp || moves.moved[apply.index()] {
                if tracker_is_base && (base_round.is_some() || runs_ps_round(gp)) {
                    self.ps_loads.clone_from(snapshot);
                    tracker_is_base = false;
                }
                false
            } else {
                match base_round {
                    // Earlier rounds committed different loads: the
                    // base's choice stands only if the greedy chooser
                    // still makes it.
                    Some(r) if !tracker_is_base => {
                        let pick =
                            pick_ps(self.cluster, self.cost, &r.devices, r.bytes, self.ps_loads);
                        if pick == r.chosen {
                            self.ps_loads
                                .commit(self.cluster, &r.devices, pick, r.bytes);
                        }
                        pick == r.chosen
                    }
                    _ => true,
                }
            };
            dirty += usize::from(!clean);
            visit(self, i, rec, clean);
        }
        log.len() - dirty
    }

    /// Before dirty segment `seg` is emitted, sets the replica ids of
    /// the ops it reads whose replicas did not move (`W(u)`: `u` and its
    /// consumers; `A`: the gradient and its ApplyGradient) to their
    /// copies' ids, `id` of each base replica task; a moved op's were
    /// set when its `R` was emitted.
    fn read_copies(
        &mut self,
        log: &SegmentLog,
        moved: &[bool],
        seg: Seg,
        id: impl Fn(&O, u32) -> TaskId,
    ) {
        let read = |lw: &mut Self, op: OpId| {
            if !moved[op.index()] {
                let [t0, t1] = log.replicas(op);
                let ids = &mut lw.op_tasks[op.index()];
                ids.clear();
                ids.extend((t0..t1).map(|t| id(lw.tg, t)));
            }
        };
        match seg {
            Seg::Replicas(_) => {}
            Seg::Wiring(u) => {
                read(self, u);
                for &v in self.g.succs(u) {
                    read(self, v);
                }
            }
            Seg::Aggregate { grad, apply } => {
                read(self, grad);
                read(self, apply);
            }
        }
    }

    /// `R(id)`: the op's replica tasks.
    fn replica_tasks(&mut self, id: OpId) {
        self.op_tasks[id.index()].clear();
        let node = self.g.node(id);
        if node.kind == OpKind::ApplyGradient && !self.emit_applies {
            return; // pipelined: updates happen once, after the last micro-batch
        }
        let placement = &self.placements[id.index()];
        // SPMD-sharded ops partition their output and parameters
        // *exactly* (slices sum to the full tensor, largest-remainder
        // rounding), rather than pricing each replica independently.
        let shard_shares: Vec<u64> = placement.replicas.iter().map(|r| r.1).collect();
        let shard_total: u64 = shard_shares.iter().sum();
        let param_slices: Option<Vec<u64>> = placement
            .shard_dim
            .map(|_| heterog_graph::proportional_split(node.param_bytes, &shard_shares));
        let mut param_assigned: Vec<DeviceId> = Vec::new();
        for (ri, &(dev, full_share)) in placement.replicas.iter().enumerate() {
            let share = match self.share_override {
                Some(sh) => sh[id.index()][ri],
                None => full_share,
            };
            let device = self.cluster.device(dev);
            // A throttled device (speed_factor < 1) runs every op
            // proportionally slower than its model's nominal speed.
            let duration = self.cost.op_time(node, device.model, share) / device.speed_factor;
            let mut task = Task::new(
                TaskName::Replica {
                    op: id,
                    pass: self.pass,
                    replica: ri as u32,
                },
                node.kind,
                Proc::Gpu(dev.0),
                duration,
            )
            .with_batch_share(
                u32::try_from(share).expect("a batch share is at most the batch, far below 2^32"),
            )
            // ApplyGradient updates parameters in place; elementwise
            // ops are fused/in-place in real frameworks and add no
            // resident memory (their output sizes still price any
            // transfers, which read the node metadata directly).
            .with_bytes(
                if node.kind == OpKind::ApplyGradient || is_in_place(node.kind) {
                    0
                } else if placement.shard_dim.is_some() {
                    node.output.shard_bytes(shard_total, &shard_shares, ri)
                } else {
                    node.output.bytes(share)
                },
            );
            // Parameters are pinned once per distinct device, along
            // with the optimizer's per-parameter state (and only by
            // the first micro-batch's pass). A sharded op pins only
            // its slice of the parameters — the SPMD memory payoff.
            if self.pin_params && node.param_bytes > 0 && !param_assigned.contains(&dev) {
                let pinned = match &param_slices {
                    Some(slices) => slices[ri],
                    None => node.param_bytes,
                };
                task = task.with_param_bytes(pinned * OPTIMIZER_STATE_FACTOR);
                param_assigned.push(dev);
            }
            let tid = self.tg.add_task(task);
            self.op_tasks[id.index()].push(tid);
            REPLICA_TASKS.inc();
        }
    }

    /// `W(u)`: wires every out-edge of `u`.
    fn wire_from(&mut self, u: OpId) {
        self.gathered = None;
        self.scattered = None;
        let g = self.g;
        for &v in g.succs(u) {
            // Parameter-gradient -> ApplyGradient edges are realized
            // by the aggregation lowering instead.
            if g.node(u).kind.produces_param_grad() && g.node(v).kind == OpKind::ApplyGradient {
                continue;
            }
            self.wire(u, v);
        }
    }

    /// Connects all replicas of `u` to all replicas of `v`, inserting
    /// Transfer/Split/Concat tasks as the distributions require.
    fn wire(&mut self, u: OpId, v: OpId) {
        if self.op_tasks[u.index()].is_empty() || self.op_tasks[v.index()].is_empty() {
            return; // endpoint not emitted in this pass (pipelined applies)
        }
        debug_assert_ne!(u, v, "an op does not consume its own output");
        // Lent out for the wiring, which reads them while it emits.
        let tu = std::mem::take(&mut self.op_tasks[u.index()]);
        let tv = std::mem::take(&mut self.op_tasks[v.index()]);
        self.wire_tasks(u, v, &tu, &tv);
        self.op_tasks[u.index()] = tu;
        self.op_tasks[v.index()] = tv;
    }

    /// [`Lowerer::wire`] between `u`'s replica tasks `tu` and `v`'s `tv`.
    fn wire_tasks(&mut self, u: OpId, v: OpId, tu: &[TaskId], tv: &[TaskId]) {
        let (g, placements) = (self.g, self.placements);
        let pu = &placements[u.index()];
        let pv = &placements[v.index()];
        let node_u = g.node(u);
        let scattered;
        let mut tu = tu;

        // Identical distributions: replica-to-replica, no communication.
        // For *sharded* ops this only holds between an op and its own
        // backward twin (their slices cover the same parameter rows); two
        // distinct ops sharded identically still exchange full tensors.
        if pu.replicas == pv.replicas
            && pu.shard_dim == pv.shard_dim
            && (pu.shard_dim.is_none() || g.node(v).grad_of == Some(u))
        {
            for (a, b) in tu.iter().zip(tv) {
                self.tg.add_dep(*a, *b);
            }
            return;
        }

        // SPMD shard boundary, producer side. A sharded forward op holds
        // activation *slices*: consumers that are not identically sharded
        // need the full tensor, so the slices are all-gathered across the
        // shard group (once, cached — every consumer reuses it). A
        // sharded backward op holds *partial sums* of the input gradient:
        // those are reduce-scattered, after which each participant owns
        // its batch-share-sized slice of the summed tensor — exactly the
        // ordinary DP distribution the generic logic below reconciles.
        if pu.shard_dim.is_some() && !pu.single_instance() {
            if node_u.phase == Phase::Backward {
                scattered = self.reduce_scattered(u, node_u, tu);
                tu = &scattered;
                // Post-scatter the distribution may now match the
                // consumer exactly (e.g. a DP op with the same shares).
                if pu.replicas == pv.replicas && pv.shard_dim.is_none() {
                    for (a, b) in tu.iter().zip(tv) {
                        self.tg.add_dep(*a, *b);
                    }
                    return;
                }
            } else {
                let markers = self.gathered(u, node_u, tu);
                let total: u64 = pu.replicas.iter().map(|r| r.1).sum();
                for (i, &(d, share)) in pv.replicas.iter().enumerate() {
                    // A sharded (or batch-less) consumer reads the full
                    // gathered tensor; a batch-slicing consumer reads its
                    // slice.
                    let bytes = if pv.shard_dim.is_some() || !node_u.output.has_batch_dim() {
                        node_u.output.bytes(total)
                    } else {
                        node_u.output.bytes(share)
                    };
                    match pu.replicas.iter().position(|r| r.0 == d) {
                        Some(j) => self.tg.add_dep(markers[j], tv[i]),
                        None => self.connect(markers[0], tv[i], pu.replicas[0].0, d, bytes, u),
                    }
                }
                return;
            }
        }

        // SPMD shard boundary, consumer side: a sharded op splits its
        // *weights*, not its input — every shard replica reads the full
        // input tensor (gathered to a hub first if the producer is
        // distributed).
        if pv.shard_dim.is_some() && !pv.single_instance() {
            let total_u: u64 = pu.replicas.iter().map(|r| r.1).sum();
            let full = node_u.output.bytes(total_u);
            let (src_dev, src_task) = if pu.single_instance() {
                (pu.replicas[0].0, tu[0])
            } else {
                let hub = heaviest_device(pu);
                let concat = self.structural_task(OpKind::Concat, hub, full, u);
                for (i, &(d, share)) in pu.replicas.iter().enumerate() {
                    let bytes = node_u.output.bytes(share);
                    self.connect(tu[i], concat, d, hub, bytes, u);
                }
                (hub, concat)
            };
            for (i, &(d, _)) in pv.replicas.iter().enumerate() {
                if d == src_dev {
                    self.tg.add_dep(src_task, tv[i]);
                } else {
                    self.connect(src_task, tv[i], src_dev, d, full, u);
                }
            }
            return;
        }

        if pu.single_instance() {
            let (u_dev, u_share) = pu.replicas[0];
            if pv.single_instance() {
                let (v_dev, _) = pv.replicas[0];
                let bytes = node_u.output.bytes(u_share);
                self.connect(tu[0], tv[0], u_dev, v_dev, bytes, u);
            } else if node_u.output.has_batch_dim() {
                // Scatter: Split on u's device, shard transfers out.
                let total = node_u.output.bytes(u_share);
                let split = self.structural_task(OpKind::Split, u_dev, total, u);
                self.tg.add_dep(tu[0], split);
                for (i, &(d, share)) in pv.replicas.iter().enumerate() {
                    let bytes = node_u.output.bytes(share);
                    self.connect(split, tv[i], u_dev, d, bytes, u);
                }
            } else {
                // Broadcast a batch-less tensor to every consumer device.
                let bytes = node_u.output.bytes(u_share);
                let mut per_dev = std::mem::take(&mut self.lists.feeders);
                per_dev.clear();
                for (i, &(d, _)) in pv.replicas.iter().enumerate() {
                    let feeder = match per_dev.iter().find(|(pd, _)| *pd == d) {
                        Some(&(_, t)) => t,
                        None => {
                            let t = if d == u_dev {
                                tu[0]
                            } else {
                                // Arrival marker joining the path segments.
                                let segs = crate::xfer::emit_transfer(
                                    self.tg,
                                    self.cluster,
                                    self.cost,
                                    u,
                                    Tag::Xfer,
                                    u_dev,
                                    d,
                                    bytes,
                                );
                                let arrive = self.tg.add_task(Task::new(
                                    TaskName::Tagged {
                                        op: u,
                                        tag: Tag::BcastDone,
                                    },
                                    OpKind::NoOp,
                                    Proc::Gpu(d.0),
                                    0.0,
                                ));
                                for s in segs {
                                    self.tg.add_dep(tu[0], s);
                                    self.tg.add_dep(s, arrive);
                                }
                                arrive
                            };
                            per_dev.push((d, t));
                            t
                        }
                    };
                    self.tg.add_dep(feeder, tv[i]);
                }
                self.lists.feeders = per_dev;
            }
            return;
        }

        if pv.single_instance() {
            // Gather: transfers into a Concat on v's device.
            let (v_dev, _) = pv.replicas[0];
            let total = node_u.output.bytes(pu.replicas.iter().map(|r| r.1).sum());
            let concat = self.structural_task(OpKind::Concat, v_dev, total, u);
            for (i, &(d, share)) in pu.replicas.iter().enumerate() {
                let bytes = node_u.output.bytes(share);
                self.connect(tu[i], concat, d, v_dev, bytes, u);
            }
            self.tg.add_dep(concat, tv[0]);
            return;
        }

        // Both replicated with different distributions: gather to a hub,
        // re-split, scatter (Fig. 7's Concat + Split pair).
        let hub = pv
            .replicas
            .iter()
            .map(|&(d, s)| (d, s))
            .fold((pv.replicas[0].0, 0u64), |acc, (d, _s)| {
                let dev_total: u64 = pv.replicas.iter().filter(|r| r.0 == d).map(|r| r.1).sum();
                if dev_total > acc.1 {
                    (d, dev_total)
                } else {
                    acc
                }
            })
            .0;
        let total = node_u.output.bytes(pu.replicas.iter().map(|r| r.1).sum());
        let concat = self.structural_task(OpKind::Concat, hub, total, u);
        for (i, &(d, share)) in pu.replicas.iter().enumerate() {
            let bytes = node_u.output.bytes(share);
            self.connect(tu[i], concat, d, hub, bytes, u);
        }
        let split = self.structural_task(OpKind::Split, hub, total, u);
        self.tg.add_dep(concat, split);
        for (i, &(d, share)) in pv.replicas.iter().enumerate() {
            let bytes = node_u.output.bytes(share);
            self.connect(split, tv[i], hub, d, bytes, u);
        }
    }

    /// Dependency `a -> b`, via Transfer task(s) when the devices differ.
    fn connect(
        &mut self,
        a: TaskId,
        b: TaskId,
        from: DeviceId,
        to: DeviceId,
        bytes: u64,
        op: OpId,
    ) {
        crate::xfer::connect_via_transfer(
            self.tg,
            self.cluster,
            self.cost,
            op,
            Tag::Xfer,
            a,
            b,
            from,
            to,
            bytes,
        );
    }

    /// A Split/Concat task priced as a memory-bound op over `bytes`.
    fn structural_task(&mut self, kind: OpKind, dev: DeviceId, bytes: u64, op: OpId) -> TaskId {
        let elems = bytes / 4;
        // An unnamed node: pricing reads no name, and an empty one is not
        // allocated.
        let node = Node::new(String::new(), kind, Phase::Forward)
            .with_output(TensorMeta::fixed(elems))
            .with_flops(0.0, elems as f64);
        let device = self.cluster.device(dev);
        let duration = self.cost.op_time(&node, device.model, 0) / device.speed_factor;
        let tag = match kind {
            OpKind::Split => {
                SPLIT_TASKS.inc();
                Tag::Split
            }
            OpKind::Concat => {
                CONCAT_TASKS.inc();
                Tag::Concat
            }
            _ => unreachable!("structural tasks are Split or Concat"),
        };
        self.tg.add_task(
            Task::new(
                TaskName::Tagged { op, tag },
                kind,
                Proc::Gpu(dev.0),
                duration,
            )
            .with_bytes(bytes),
        )
    }

    /// All-gathers a sharded forward op's output slices into a full
    /// tensor on every participant (cached — consumers share one
    /// collective). Each participant's completion marker is charged the
    /// gathered *remainder* (the full tensor minus the slice it already
    /// owns), so peak memory reflects the materialized full activation.
    /// `replicas` are `u`'s replica tasks.
    fn gathered(&mut self, u: OpId, node: &Node, replicas: &[TaskId]) -> Vec<TaskId> {
        if let Some(m) = &self.gathered {
            return m.clone();
        }
        let p = &self.placements[u.index()];
        let devices: Vec<DeviceId> = p.replicas.iter().map(|r| r.0).collect();
        let shares: Vec<u64> = p.replicas.iter().map(|r| r.1).collect();
        let total: u64 = shares.iter().sum();
        let full = node.output.bytes(total);
        let ready: Vec<Vec<TaskId>> = replicas.iter().map(|&t| vec![t]).collect();
        let marker_bytes: Vec<u64> = (0..devices.len())
            .map(|i| full - node.output.shard_bytes(total, &shares, i))
            .collect();
        let m = emit_one_pass_collective(
            self.tg,
            self.cluster,
            self.cost,
            u,
            &devices,
            &ready,
            full,
            CollectiveKind::AllGather,
            &marker_bytes,
            self.book.as_deref_mut(),
        );
        self.gathered = Some(m.clone());
        m
    }

    /// Reduce-scatters a sharded backward op's partial input-gradient
    /// sums across its shard group (cached). Afterwards each participant
    /// owns its share-sized slice of the summed tensor in place, so the
    /// markers carry no extra bytes. `replicas` are `u`'s replica tasks.
    fn reduce_scattered(&mut self, u: OpId, node: &Node, replicas: &[TaskId]) -> Vec<TaskId> {
        if let Some(m) = &self.scattered {
            return m.clone();
        }
        let p = &self.placements[u.index()];
        let devices: Vec<DeviceId> = p.replicas.iter().map(|r| r.0).collect();
        let total: u64 = p.replicas.iter().map(|r| r.1).sum();
        let full = node.output.bytes(total);
        let ready: Vec<Vec<TaskId>> = replicas.iter().map(|&t| vec![t]).collect();
        let marker_bytes = vec![0u64; devices.len()];
        let m = emit_one_pass_collective(
            self.tg,
            self.cluster,
            self.cost,
            u,
            &devices,
            &ready,
            full,
            CollectiveKind::ReduceScatter,
            &marker_bytes,
            self.book.as_deref_mut(),
        );
        self.scattered = Some(m.clone());
        m
    }

    /// `A(gid)`: aggregates `gid`'s replica gradients into `apply`'s
    /// tasks. Reads the gradient's communication method and records its
    /// pricing decisions into the book. Its lists live in `lists`.
    fn aggregate(&mut self, gid: OpId, apply: OpId) {
        let node = self.g.node(gid);
        let gp = &self.placements[gid.index()];
        let bytes = node.output.bytes(0).max(node.output.bytes(1));
        let AggLists {
            devices,
            ready,
            avail,
            collective,
            ..
        } = &mut *self.lists;
        gp.devices_into(devices);

        // Per-device replica-gradient sets: the collective transport
        // consumes them directly (local pre-reduction happens inside
        // NCCL/the PS push path, so no separate GPU task competes
        // with backward compute for the device queue).
        if ready.len() < devices.len() {
            ready.resize_with(devices.len(), Vec::new);
        }
        let ready = &mut ready[..devices.len()];
        let g_tasks = &self.op_tasks[gid.index()];
        for (set, &d) in ready.iter_mut().zip(devices.iter()) {
            set.clear();
            let on_d = gp
                .replicas
                .iter()
                .zip(g_tasks)
                .filter(|((rd, _), _)| *rd == d);
            set.extend(on_d.map(|(_, &t)| t));
        }

        let apply_tasks = &self.op_tasks[apply.index()];
        debug_assert_eq!(
            apply_tasks.len(),
            devices.len(),
            "ApplyGradient placement must mirror the gradient's devices"
        );

        // SPMD-sharded parameters need no gradient aggregation at all:
        // each device computed exactly the gradient slice for the
        // parameter slice it owns, and applies it locally. This is the
        // sharding payoff — the per-iteration gradient collective
        // vanishes, traded for the (smaller) forward all-gather.
        if gp.shard_dim.is_some() {
            for (rs, &a) in ready.iter().zip(apply_tasks) {
                for &r in rs {
                    self.tg.add_dep(r, a);
                }
            }
            return;
        }

        if devices.len() == 1 {
            for &r in &ready[0] {
                self.tg.add_dep(r, apply_tasks[0]);
            }
            return;
        }

        let (tg, cluster, cost) = (&mut *self.tg, self.cluster, self.cost);
        let book = self.book.as_deref_mut();
        match gp.comm {
            CommMethod::Ps => emit_ps(
                tg,
                cluster,
                cost,
                gid,
                devices,
                ready,
                bytes,
                self.ps_loads,
                book,
                avail,
            ),
            CommMethod::AllReduce => emit_allreduce(
                tg, cluster, cost, gid, devices, ready, bytes, book, collective, avail,
            ),
        }
        for (a, t) in avail.iter().zip(apply_tasks) {
            tg.add_dep(*a, *t);
        }
    }
}

/// The device hosting the largest total share of a placement (ties go to
/// the earliest replica's device).
fn heaviest_device(p: &OpPlacement) -> DeviceId {
    let mut best = (p.replicas[0].0, 0u64);
    for &(d, _) in &p.replicas {
        let total: u64 = p.replicas.iter().filter(|r| r.0 == d).map(|r| r.1).sum();
        if total > best.1 {
            best = (d, total);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::{paper_testbed_12gpu, paper_testbed_8gpu};
    use heterog_graph::DType;
    use heterog_graph::{GraphBuilder, ModelSpec};
    use heterog_profile::GroundTruthCost;
    use heterog_sched::{list_schedule, GraphRead, OrderPolicy, PatchView};

    fn tiny(batch: u64) -> Graph {
        let mut b = GraphBuilder::new("tiny", batch);
        let x = b.input(1000);
        let l1 = b.param_layer("l1", OpKind::MatMul, x, 500, 500_000, 1e6);
        let l2 = b.param_layer("l2", OpKind::MatMul, l1, 100, 50_000, 2e5);
        b.finish(l2)
    }

    #[test]
    fn compile_even_ar_is_valid_dag() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        // Topo order panics on cycles; also must be executable.
        let sched = list_schedule(&tg, &OrderPolicy::RankBased);
        assert!(sched.makespan > 0.0);
        assert!(sched.finish.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn throttled_device_prices_its_tasks_slower() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let s = Strategy::uniform(g.len(), crate::OpStrategy::Mp(DeviceId(0)));
        let healthy = compile(&g, &c, &GroundTruthCost, &s);
        let slowed = compile(
            &g,
            &c.with_scaled_device(DeviceId(0), 0.5),
            &GroundTruthCost,
            &s,
        );
        assert_eq!(healthy.len(), slowed.len());
        for (id, t) in healthy.iter() {
            let t2 = slowed.task(id);
            // Everything lives on the throttled G0: exactly 2x slower.
            assert!(
                (t2.duration - 2.0 * t.duration).abs() <= 1e-12 * t.duration.max(1.0),
                "task {} expected 2x of {}, got {}",
                healthy.task_name(id),
                t.duration,
                t2.duration
            );
        }
    }

    #[test]
    fn mp_single_device_has_no_comm_tasks() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let s = Strategy::uniform(g.len(), crate::OpStrategy::Mp(DeviceId(0)));
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        let comm = tg.iter().filter(|(_, t)| t.proc.is_link()).count();
        assert_eq!(comm, 0, "single-device training must not communicate");
        // Same number of tasks as ops (no replicas, no structural ops).
        assert_eq!(tg.len(), g.len());
    }

    #[test]
    fn dp_replicates_splittable_ops() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        let (fid, _) = g.iter().find(|(_, n)| n.name == "l1/matmul").unwrap();
        let replicas = tg.iter().filter(|(_, t)| t.origin() == Some(fid)).count();
        assert_eq!(replicas, 8);
    }

    #[test]
    fn ps_and_ar_produce_different_graphs() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let cost = GroundTruthCost;
        let ps = compile(&g, &c, &cost, &Strategy::even(g.len(), &c, CommMethod::Ps));
        let ar = compile(
            &g,
            &c,
            &cost,
            &Strategy::even(g.len(), &c, CommMethod::AllReduce),
        );
        let ps_nccl = ps
            .iter()
            .filter(|(_, t)| t.kind == OpKind::NcclAllReduce)
            .count();
        let ar_nccl = ar
            .iter()
            .filter(|(_, t)| t.kind == OpKind::NcclAllReduce)
            .count();
        assert_eq!(ps_nccl, 0);
        assert!(ar_nccl > 0);
        let ps_push = ps
            .iter()
            .filter(|(_, t)| t.kind == OpKind::Transfer)
            .count();
        assert!(ps_push > 0);
    }

    #[test]
    fn params_pinned_once_per_device() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let s = Strategy::proportional(g.len(), &c, CommMethod::AllReduce);
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        // Under CP the V100s host 2 replicas of each op, but parameters
        // must be counted once per device: total pinned = params x
        // (#devices hosting replicas).
        let (fid, fnode) = g.iter().find(|(_, n)| n.name == "l1/matmul").unwrap();
        let pinned: u64 = tg
            .iter()
            .filter(|(_, t)| t.origin() == Some(fid))
            .map(|(_, t)| t.param_bytes)
            .sum();
        assert_eq!(pinned, fnode.param_bytes * OPTIMIZER_STATE_FACTOR * 8);
    }

    #[test]
    fn semantics_total_batch_preserved() {
        let g = tiny(192);
        let c = paper_testbed_8gpu();
        let s = Strategy::proportional(g.len(), &c, CommMethod::Ps);
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        let (fid, _) = g.iter().find(|(_, n)| n.name == "l1/matmul").unwrap();
        let total_share: u64 = tg
            .iter()
            .filter(|(_, t)| t.origin() == Some(fid))
            .map(|(_, t)| u64::from(t.batch_share))
            .sum();
        assert_eq!(total_share, 192);
    }

    #[test]
    fn mixed_mp_dp_inserts_split_concat() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let mut s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        // Pin l2's ops (forward only is enough to trigger reconciliation).
        let (l2, _) = g.iter().find(|(_, n)| n.name == "l2/matmul").unwrap();
        s.per_op[l2.index()] = crate::OpStrategy::Mp(DeviceId(1));
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        let concats = tg.iter().filter(|(_, t)| t.kind == OpKind::Concat).count();
        assert!(concats > 0, "gather into the MP op requires a Concat");
        // Graph still executes.
        let sched = list_schedule(&tg, &OrderPolicy::RankBased);
        assert!(sched.makespan.is_finite());
    }

    #[test]
    fn pipelined_preserves_batch_and_single_update() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let tg = compile_pipelined(&g, &c, &GroundTruthCost, &s, 4);
        // Every splittable op's replicas across all micro-batches process
        // the full global batch exactly once.
        for (id, node) in g.iter() {
            if !node.batch_splittable {
                continue;
            }
            let total: u64 = tg
                .iter()
                .filter(|(_, t)| t.origin() == Some(id))
                .map(|(_, t)| u64::from(t.batch_share))
                .sum();
            assert_eq!(total, 64, "{}", node.name);
        }
        // Exactly one set of ApplyGradient tasks (synchronous updates).
        for (id, node) in g.iter() {
            if node.kind == OpKind::ApplyGradient {
                let applies = tg.iter().filter(|(_, t)| t.origin() == Some(id)).count();
                assert_eq!(applies, 8, "{}: one apply per device copy", node.name);
            }
        }
        // Parameters pinned once, not once per micro-batch.
        let (fid, fnode) = g.iter().find(|(_, n)| n.name == "l1/matmul").unwrap();
        let pinned: u64 = tg
            .iter()
            .filter(|(_, t)| t.origin() == Some(fid))
            .map(|(_, t)| t.param_bytes)
            .sum();
        assert_eq!(pinned, fnode.param_bytes * OPTIMIZER_STATE_FACTOR * 8);
        // Valid, executable DAG.
        let sched = list_schedule(&tg, &OrderPolicy::RankBased);
        assert!(sched.makespan.is_finite());
    }

    #[test]
    fn pipelined_one_micro_equals_plain_compile() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::Ps);
        let plain = compile(&g, &c, &GroundTruthCost, &s);
        let pipe1 = compile_pipelined(&g, &c, &GroundTruthCost, &s, 1);
        assert_eq!(plain.len(), pipe1.len());
    }

    #[test]
    fn pipelining_helps_an_mp_chain() {
        // A compute-heavy model split across two devices (MP) serializes
        // without pipelining; micro-batches let the stages overlap. (The
        // layers must dwarf kernel-launch overhead for the effect to
        // show, as in any real pipeline.)
        let g = {
            let mut b = heterog_graph::GraphBuilder::new("heavy", 128);
            let x = b.input(4096);
            let l1 = b.param_layer("l1", OpKind::MatMul, x, 4096, 4096 * 4096, 1.0e9);
            let l2 = b.param_layer("l2", OpKind::MatMul, l1, 4096, 4096 * 4096, 1.0e9);
            b.finish(l2)
        };
        let c = paper_testbed_8gpu();
        let mut s = Strategy::uniform(g.len(), crate::OpStrategy::Mp(DeviceId(0)));
        // Second half of the chain on another device.
        let (l2, _) = g.iter().find(|(_, n)| n.name == "l2/matmul").unwrap();
        for id in g.op_ids() {
            if id.0 >= l2.0 {
                s.per_op[id.index()] = crate::OpStrategy::Mp(DeviceId(1));
            }
        }
        let t1 = list_schedule(
            &compile_pipelined(&g, &c, &GroundTruthCost, &s, 1),
            &OrderPolicy::RankBased,
        )
        .makespan;
        let t4 = list_schedule(
            &compile_pipelined(&g, &c, &GroundTruthCost, &s, 4),
            &OrderPolicy::RankBased,
        )
        .makespan;
        assert!(t4 < t1, "pipelining must overlap MP stages: {t4} vs {t1}");
    }

    #[test]
    fn iterations_chain_through_parameter_updates() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let one = compile_iterations(&g, &c, &GroundTruthCost, &s, 1);
        let three = compile_iterations(&g, &c, &GroundTruthCost, &s, 3);
        assert_eq!(three.len(), 3 * one.len());
        // Params pinned once, not per iteration.
        let (fid, fnode) = g.iter().find(|(_, n)| n.name == "l1/matmul").unwrap();
        let pinned: u64 = three
            .iter()
            .filter(|(_, t)| t.origin() == Some(fid))
            .map(|(_, t)| t.param_bytes)
            .sum();
        assert_eq!(pinned, fnode.param_bytes * OPTIMIZER_STATE_FACTOR * 8);
        // Later iterations genuinely wait on earlier updates: makespan of
        // 3 iterations > makespan of 1 (no infinite overlap) but < 3x
        // (some overlap allowed).
        let t1 = list_schedule(&one, &OrderPolicy::RankBased).makespan;
        let t3 = list_schedule(&three, &OrderPolicy::RankBased).makespan;
        assert!(t3 > 2.0 * t1 * 0.8, "t3 {t3} vs t1 {t1}");
        assert!(
            t3 <= 3.0 * t1 + 1e-9,
            "pipelining cannot slow things: {t3} vs {}",
            3.0 * t1
        );
    }

    fn shard_strategy(g: &Graph, c: &heterog_cluster::Cluster) -> Strategy {
        Strategy::uniform(g.len(), crate::OpStrategy::shard_proportional(c, 0))
    }

    #[test]
    fn shard_emits_one_pass_collectives_and_no_grad_allreduce() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let s = shard_strategy(&g, &c);
        let (tg, book) = compile_priced(&g, &c, &GroundTruthCost, &s);
        let ag = tg
            .iter()
            .filter(|(_, t)| t.kind == OpKind::AllGather)
            .count();
        let rs = tg
            .iter()
            .filter(|(_, t)| t.kind == OpKind::ReduceScatter)
            .count();
        let ar = tg
            .iter()
            .filter(|(_, t)| t.kind == OpKind::NcclAllReduce)
            .count();
        assert!(ag > 0, "forward shard boundaries must all-gather");
        assert!(rs > 0, "backward shard boundaries must reduce-scatter");
        assert_eq!(ar, 0, "sharded gradients need no allreduce");
        assert!(book
            .collectives
            .iter()
            .any(|c| c.kind == CollectiveKind::AllGather));
        assert!(book
            .collectives
            .iter()
            .any(|c| c.kind == CollectiveKind::ReduceScatter));
        let sched = list_schedule(&tg, &OrderPolicy::RankBased);
        assert!(sched.makespan.is_finite() && sched.makespan > 0.0);
    }

    #[test]
    fn shard_pins_param_slices_not_full_copies() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let s = shard_strategy(&g, &c);
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        let (fid, fnode) = g.iter().find(|(_, n)| n.name == "l1/matmul").unwrap();
        let pinned: u64 = tg
            .iter()
            .filter(|(_, t)| t.origin() == Some(fid))
            .map(|(_, t)| t.param_bytes)
            .sum();
        // Slices partition the parameters exactly once across the
        // cluster — not one full copy per device as DP replication pins.
        assert_eq!(pinned, fnode.param_bytes * OPTIMIZER_STATE_FACTOR);
        // Output slices partition the full activation exactly.
        let out: u64 = tg
            .iter()
            .filter(|(_, t)| t.origin() == Some(fid))
            .map(|(_, t)| t.bytes)
            .sum();
        assert_eq!(out, fnode.output.bytes(64));
    }

    #[test]
    fn shard_consumers_share_one_cached_allgather() {
        // Two consumers of the same sharded op must reuse one collective.
        let mut b = GraphBuilder::new("fan", 64);
        let x = b.input(1000);
        let l1 = b.param_layer("l1", OpKind::MatMul, x, 500, 500_000, 1e6);
        let a = b.param_layer("a", OpKind::MatMul, l1, 100, 50_000, 2e5);
        let bb = b.param_layer("b", OpKind::MatMul, l1, 100, 50_000, 2e5);
        let join = b.join("join", OpKind::Add, &[a, bb], 100);
        let g = b.finish(join);
        let c = paper_testbed_8gpu();
        let mut s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let (l1id, _) = g.iter().find(|(_, n)| n.name == "l1/matmul").unwrap();
        s.per_op[l1id.index()] = crate::OpStrategy::shard_proportional(&c, 0);
        let (_, book) = compile_priced(&g, &c, &GroundTruthCost, &s);
        let ags = book
            .collectives
            .iter()
            .filter(|c| c.kind == CollectiveKind::AllGather)
            .count();
        assert_eq!(ags, 1, "the forward all-gather must be cached");
    }

    /// Asserts `ta` equals `tb` task for task (rendered name, kind,
    /// processor, duration bits, byte counts, origin, batch share) and
    /// row for row: every task's successors and predecessors, each row
    /// in insertion order.
    fn assert_same_graph(ta: &TaskGraph, tb: &TaskGraph) {
        assert_eq!(ta.len(), tb.len());
        for id in ta.task_ids() {
            let (x, y) = (ta.task(id), tb.task(id));
            assert_eq!(ta.task_name(id).to_string(), tb.task_name(id).to_string());
            assert_eq!((x.kind, x.proc), (y.kind, y.proc));
            assert_eq!(x.duration.to_bits(), y.duration.to_bits());
            assert_eq!((x.bytes, x.param_bytes), (y.bytes, y.param_bytes));
            assert_eq!((x.origin(), x.batch_share), (y.origin(), y.batch_share));
            assert_eq!(ta.succs(id), tb.succs(id), "successors of {id}");
            assert_eq!(ta.preds(id), tb.preds(id), "predecessors of {id}");
        }
    }

    /// Splices `s` from a logged compile of `base` and asserts the patch,
    /// read over the base, equals a fresh compile of `s` task for task
    /// and row for row, each row in insertion order. Returns the number
    /// of segments reused.
    fn assert_splices_like_a_compile(
        g: &Graph,
        c: &Cluster,
        base: &Strategy,
        s: &Strategy,
    ) -> usize {
        let (btg, bbook, log) = compile_logged(g, c, &GroundTruthCost, base);
        let mut patch = Patch::default();
        let reused = splice_into(
            g,
            c,
            &GroundTruthCost,
            &resolve_placements(g, c, s),
            SpliceBase {
                tg: &btg,
                book: &bbook,
                log: &log,
            },
            &mut patch,
            &mut SpliceScratch::default(),
        );
        let (view, fresh) = (
            PatchView::new(&btg, &patch),
            compile(g, c, &GroundTruthCost, s),
        );
        assert_eq!(GraphRead::len(&view), fresh.len());
        assert_eq!(view.num_edges(), fresh.num_edges());
        for id in fresh.task_ids() {
            let (x, y) = (GraphRead::task(&view, id), fresh.task(id));
            assert_eq!(
                view.task_name(id).to_string(),
                fresh.task_name(id).to_string()
            );
            assert!(same_task(x, y), "task {id}");
            let succs: Vec<_> = GraphRead::succs(&view, id).collect();
            let preds: Vec<_> = GraphRead::preds(&view, id).collect();
            assert_eq!(succs, fresh.succs(id), "successors of {id}");
            assert_eq!(preds, fresh.preds(id), "predecessors of {id}");
        }
        reused
    }

    #[test]
    fn logged_compile_equals_plain_compile() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        for s in [
            shard_strategy(&g, &c),
            Strategy::proportional(g.len(), &c, CommMethod::Ps),
        ] {
            let (tg, book) = compile_priced(&g, &c, &GroundTruthCost, &s);
            let (ltg, lbook, log) = compile_logged(&g, &c, &GroundTruthCost, &s);
            assert_same_graph(&tg, &ltg);
            assert_eq!(book, lbook);
            assert!(!log.is_empty());
        }
    }

    /// The four uniform deployments of every zoo model on `cluster`:
    /// even AllReduce, proportional PS, proportional shard and MP on one
    /// device.
    fn uniform_deployments(g: &Graph, cluster: &Cluster) -> [(&'static str, Strategy); 4] {
        let n = g.len();
        [
            ("even-AR", Strategy::even(n, cluster, CommMethod::AllReduce)),
            (
                "proportional-PS",
                Strategy::proportional(n, cluster, CommMethod::Ps),
            ),
            (
                "shard",
                Strategy::uniform(n, crate::OpStrategy::shard_proportional(cluster, 0)),
            ),
            (
                "MP",
                Strategy::uniform(n, crate::OpStrategy::Mp(DeviceId(1))),
            ),
        ]
    }

    /// Logging a compiled graph gives the book and log a logged
    /// compile does, with no second graph: segments, PS rounds and
    /// trackers. Over every zoo model's uniform deployments on both
    /// testbeds.
    #[test]
    fn logging_a_compiled_graph_equals_a_logged_compile() {
        let cost = &GroundTruthCost;
        for c in [paper_testbed_8gpu(), paper_testbed_12gpu()] {
            let m = c.num_devices();
            for model in heterog_graph::BenchmarkModel::all() {
                let g = ModelSpec::new(model, model.default_batch_8gpu()).build();
                for (name, s) in uniform_deployments(&g, &c) {
                    let what = format!("{} on {m} GPUs, {name}", g.name);
                    let tg = compile(&g, &c, cost, &s);
                    let (book, log) = log_compiled(&g, &c, cost, &s, &tg);
                    let (_, lbook, llog) = compile_logged(&g, &c, cost, &s);
                    assert_eq!(book, lbook, "{what}: price books");
                    assert!(log == llog, "{what}: segment logs");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "from the logged graph's")]
    fn logging_another_strategys_graph_panics() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let ps = Strategy::proportional(g.len(), &c, CommMethod::Ps);
        let tg = compile(&g, &c, &GroundTruthCost, &shard_strategy(&g, &c));
        log_compiled(&g, &c, &GroundTruthCost, &ps, &tg);
    }

    #[test]
    fn splice_is_bit_identical_for_shard_plans() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let base = shard_strategy(&g, &c);
        let mut s = base.clone();
        let (l2, _) = g.iter().find(|(_, n)| n.name == "l2/matmul").unwrap();
        s.per_op[l2.index()] = crate::OpStrategy::Mp(DeviceId(3));
        let reused = assert_splices_like_a_compile(&g, &c, &base, &s);
        assert!(reused > 0, "unchanged segments must be copied");
    }

    #[test]
    fn shard_dim_flip_rewires_instead_of_copying() {
        // Same proportional shares, but Shard and Dp wire differently:
        // every segment of a flipped op must be re-lowered.
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let dp = Strategy::proportional(g.len(), &c, CommMethod::AllReduce);
        let reused = assert_splices_like_a_compile(&g, &c, &shard_strategy(&g, &c), &dp);
        assert!(reused < compile_logged(&g, &c, &GroundTruthCost, &dp).2.len());
    }

    #[test]
    fn comm_flip_relowers_only_aggregation_and_replays_ps_choices() {
        let g = ModelSpec::new(heterog_graph::BenchmarkModel::MobileNetV2, 32).build();
        let c = paper_testbed_8gpu();
        let base = Strategy::even(g.len(), &c, CommMethod::Ps);
        // Flip the first few gradients to AllReduce: later PS rounds see
        // different committed NIC loads and must replay their choice.
        let mut s = base.clone();
        for (id, _) in g.iter().filter(|(_, n)| n.has_params()).take(3) {
            s.per_op[id.index()] = crate::OpStrategy::even(&c, CommMethod::AllReduce);
        }
        let reused = assert_splices_like_a_compile(&g, &c, &base, &s);
        let log = compile_logged(&g, &c, &GroundTruthCost, &base).2;
        // Every R and W segment is copied; at least the three flipped A
        // segments are not.
        assert!(reused >= 2 * g.len() && reused + 3 <= log.len());
    }

    #[test]
    fn dtype_sizes_flow_through() {
        // Smoke: an I64 input doubles the transferred bytes vs I32.
        let meta32 = TensorMeta {
            elems_per_sample: 10,
            fixed_elems: 0,
            dtype: DType::I32,
        };
        let meta64 = meta32.with_dtype(DType::I64);
        assert_eq!(meta64.bytes(4), 2 * meta32.bytes(4));
    }
}
