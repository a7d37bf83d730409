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
//! order. Every edge is added once, by the segment that emits it.
//! [`compile_logged`] records where each segment's tasks, edges and PS
//! rounds start and end. [`splice_into`] builds another placement's
//! graph from that base: it copies every segment whose inputs are
//! unchanged, each run of consecutive such segments as one range of
//! tasks and one of the base's edges with task ids remapped, and
//! re-runs only the dirty ones through the same `Lowerer` code a full
//! compile runs. The result equals a fresh [`compile_priced`] graph
//! task for task and edge for edge. A spliced graph has no price book:
//! nothing re-prices it.
//!
//! [`splice_loads`] walks the same segments with the same clean/dirty
//! decisions but builds nothing: it takes the dirty segments' base
//! tasks out of the base's per-processor loads and re-lowers those
//! segments into a [`TaskSink`] that only adds up work per processor,
//! which prices a candidate's busiest processor before any splice.

use std::sync::Arc;

use heterog_cluster::{Cluster, DeviceId};
use heterog_graph::{Graph, Node, OpId, OpKind, Phase, TensorMeta};
use heterog_profile::CostEstimator;
use heterog_sched::{NameTable, Pass, Proc, Tag, Task, TaskGraph, TaskId, TaskName};

use crate::collective::{
    emit_allreduce, emit_one_pass_collective, emit_ps, pick_ps, PsLoadTracker,
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

/// An empty task graph labelled `label`, over `cluster`'s processors,
/// naming tasks from `g`.
fn empty_graph(label: String, g: &Graph, cluster: &Cluster) -> TaskGraph {
    let mut tg = TaskGraph::new(
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

/// Where a lowering puts the tasks and edges it emits: a [`TaskGraph`],
/// or, in [`splice_loads`], a sum that keeps only each processor's
/// work.
pub trait TaskSink {
    /// Adds a task; returns its id.
    fn add_task(&mut self, task: Task) -> TaskId;
    /// Adds a precedence edge `src -> dst`.
    fn add_dep(&mut self, src: TaskId, dst: TaskId);
}

impl TaskSink for TaskGraph {
    fn add_task(&mut self, task: Task) -> TaskId {
        TaskGraph::add_task(self, task)
    }

    fn add_dep(&mut self, src: TaskId, dst: TaskId) {
        TaskGraph::add_dep(self, src, dst)
    }
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
    let (mut tg, mut book) = Default::default();
    let lowering = Lowering {
        g,
        cluster,
        cost,
        placements: &placements,
    };
    lowering.run(
        None,
        None,
        &mut tg,
        &mut book,
        &mut SpliceScratch::default(),
    );
    (tg, book)
}

/// Where one segment of a logged lowering put its output: half-open
/// ranges of task ids, of the base graph's edge list, and of the price
/// book's PS rounds, whose choices a splice replays.
#[derive(Debug, Clone, Copy)]
struct SegRecord {
    seg: Seg,
    tasks: [u32; 2],
    edges: [u32; 2],
    ps_rounds: [u32; 2],
}

/// The segment log of one lowering ([`compile_logged`]): the placements
/// it lowered, where each segment's output starts and ends in the
/// lowered graph's tasks, edges and PS rounds, and the PS load tracker
/// before each aggregation segment. The lowering adds each edge once,
/// so a segment's edges are one range of the graph's own edge list; the
/// log keeps no copy of them.
#[derive(Debug, Clone, Default)]
pub struct SegmentLog {
    placements: Vec<OpPlacement>,
    segs: Vec<SegRecord>,
    trackers: Vec<PsLoadTracker>,
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
    let (mut tg, mut book, mut log) = Default::default();
    let lowering = Lowering {
        g,
        cluster,
        cost,
        placements: &placements,
    };
    lowering.run(
        None,
        Some(&mut log),
        &mut tg,
        &mut book,
        &mut SpliceScratch::default(),
    );
    log.placements = placements;
    (tg, book, log)
}

/// A splice base: a graph [`compile_logged`] built, with its book and
/// segment log.
#[derive(Debug, Clone, Copy)]
pub struct SpliceBase<'b> {
    /// The base task graph.
    pub tg: &'b TaskGraph,
    /// Its price book.
    pub book: &'b PriceBook,
    /// Its segment log.
    pub log: &'b SegmentLog,
}

/// Buffers [`splice_into`] and [`splice_loads`] reuse from one call to
/// the next.
#[derive(Debug, Default)]
pub struct SpliceScratch {
    /// Per-op replica task ids of the graph being built.
    op_tasks: Vec<Vec<TaskId>>,
    /// Base task id -> spliced task id, valid for copied segments.
    remap: Vec<u32>,
    /// Per-op: did the replicas (or shard marker) move from the base?
    moved: Vec<bool>,
    tracker: PsLoadTracker,
    /// Receives the dirty segments' price-book entries, which a splice
    /// and its load pass discard.
    book: PriceBook,
}

/// Lowers `placements` into `out` by splicing from `base`: segments
/// whose inputs equal the base's are copied with task ids remapped,
/// the rest re-lowered on `cluster`, which must be the cluster the base
/// was compiled on. The result equals the task graph [`compile_priced`]
/// gives for a strategy resolving to `placements`, bit for bit. Returns
/// the number of base segments reused; 0 means every segment was
/// re-lowered.
pub fn splice_into<C: CostEstimator>(
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    placements: &[OpPlacement],
    base: SpliceBase<'_>,
    out: &mut TaskGraph,
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
    let mut sink = std::mem::take(&mut scratch.book);
    sink.clear();
    let reused = lowering.run(Some(base), None, out, &mut sink, scratch);
    scratch.book = sink;
    reused
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
    let SpliceScratch {
        op_tasks,
        moved,
        tracker,
        book,
        ..
    } = scratch;
    book.clear();
    let mut sum = LoadSum {
        loads,
        num_gpus: base.tg.num_gpus as usize,
    };
    lowering
        .lowerer(&mut sum, book, op_tasks, tracker)
        .price(base, moved)
}

/// The inputs of one plain (single-pass) lowering.
struct Lowering<'a, C: CostEstimator> {
    g: &'a Graph,
    cluster: &'a Cluster,
    cost: &'a C,
    placements: &'a [OpPlacement],
}

impl<C: CostEstimator> Lowering<'_, C> {
    /// A single-pass [`Lowerer`] emitting into `out`, with `book`,
    /// per-op replica ids and a reset PS tracker.
    fn lowerer<'s, O: TaskSink>(
        &'s self,
        out: &'s mut O,
        book: &'s mut PriceBook,
        op_tasks: &'s mut Vec<Vec<TaskId>>,
        tracker: &'s mut PsLoadTracker,
    ) -> Lowerer<'s, C, O> {
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
            pass: Pass::SINGLE,
            pin_params: true,
            emit_applies: true,
            share_override: None,
            gathered: None,
            scattered: None,
        }
    }

    /// Lowers every segment into `out`: copied from `base` where clean,
    /// else emitted, with the emitted ones' price-book entries in `book`,
    /// recording each into `log` when given. Returns the number of
    /// segments copied.
    fn run(
        &self,
        base: Option<SpliceBase<'_>>,
        log: Option<&mut SegmentLog>,
        out: &mut TaskGraph,
        book: &mut PriceBook,
        scratch: &mut SpliceScratch,
    ) -> usize {
        let g = self.g;
        match base {
            Some(b) => out.reset_like(b.tg),
            None => *out = empty_graph(format!("{}@dist", g.name), g, self.cluster),
        }
        let SpliceScratch {
            op_tasks,
            remap,
            moved,
            tracker,
            ..
        } = scratch;
        let mut lw = self.lowerer(out, book, op_tasks, tracker);
        match (base, log) {
            (Some(base), _) => lw.splice(base, remap, moved),
            (None, Some(log)) => {
                lw.emit_logged(log);
                0
            }
            (None, None) => {
                segments(g).for_each(|seg| lw.emit(seg));
                0
            }
        }
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
        let mut book = PriceBook::default();
        let mut lw = Lowerer {
            g,
            cluster,
            cost,
            placements: &placements,
            tg: &mut tg,
            book: &mut book,
            op_tasks: &mut op_tasks,
            ps_loads: &mut unused_loads,
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
    tg
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
        let mut book = PriceBook::default();
        let mut lw = Lowerer {
            g,
            cluster,
            cost,
            placements: &placements,
            tg: &mut tg,
            book: &mut book,
            op_tasks: &mut op_tasks,
            ps_loads: &mut ps_loads,
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
    tg
}

/// Aggregates gradients accumulated across micro-batches and wires them
/// into the (single) ApplyGradient tasks.
#[allow(clippy::too_many_arguments)]
fn emit_cross_micro_aggregation<C: CostEstimator>(
    tg: &mut TaskGraph,
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
        let mut book = PriceBook::default();
        let avail = match gp.comm {
            CommMethod::Ps => emit_ps(
                tg, cluster, cost, gid, &devices, &ready, bytes, ps_loads, &mut book,
            ),
            CommMethod::AllReduce => {
                emit_allreduce(tg, cluster, cost, gid, &devices, &ready, bytes, &mut book)
            }
        };
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
struct Lowerer<'a, C: CostEstimator, O: TaskSink = TaskGraph> {
    g: &'a Graph,
    cluster: &'a Cluster,
    cost: &'a C,
    placements: &'a [OpPlacement],
    tg: &'a mut O,
    book: &'a mut PriceBook,
    /// Per-op replica task ids emitted (or copied) by this pass.
    op_tasks: &'a mut [Vec<TaskId>],
    ps_loads: &'a mut PsLoadTracker,
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
    /// re-lowered tasks into them. A clean `R(op)` leaves placeholder
    /// ids, one per base replica. Returns the number of clean segments.
    fn price(&mut self, base: SpliceBase<'_>, moved: &mut Vec<bool>) -> usize {
        self.walk(base, moved, |lw, rec, clean| {
            let [t0, t1] = rec.tasks;
            if !clean {
                for i in t0..t1 {
                    let t = base.tg.task(TaskId(i));
                    *lw.tg.slot(t.proc) -= t.duration;
                }
                lw.emit(rec.seg);
            } else if let Seg::Replicas(op) = rec.seg {
                let ids = &mut lw.op_tasks[op.index()];
                ids.clear();
                ids.resize((t1 - t0) as usize, TaskId(u32::MAX));
            }
        })
    }
}

impl<C: CostEstimator> Lowerer<'_, C> {
    /// Emits every segment, recording each into `log`.
    fn emit_logged(&mut self, log: &mut SegmentLog) {
        for seg in segments(self.g) {
            if matches!(seg, Seg::Aggregate { .. }) {
                log.trackers.push(self.ps_loads.clone());
            }
            let start = self.marks();
            self.emit(seg);
            let end = self.marks();
            log.segs.push(SegRecord {
                seg,
                tasks: [start[0], end[0]],
                edges: [start[1], end[1]],
                ps_rounds: [start[2], end[2]],
            });
        }
    }

    /// Current task, edge and PS-round counts.
    fn marks(&self) -> [u32; 3] {
        [
            self.tg.len() as u32,
            self.tg.num_edges() as u32,
            self.book.ps_rounds.len() as u32,
        ]
    }

    /// Splices from `base` (see [`splice_into`]); returns the number of
    /// segments copied. Each run of consecutive clean segments is copied
    /// as one range of tasks and one of edges, before the next dirty
    /// segment is emitted.
    fn splice(
        &mut self,
        base: SpliceBase<'_>,
        remap: &mut Vec<u32>,
        moved: &mut Vec<bool>,
    ) -> usize {
        // Entries of re-lowered segments keep stale values; copied
        // segments only reference copied segments' tasks.
        remap.resize(base.tg.len(), u32::MAX);
        // The pending run of clean segments: where its first task's copy
        // will land, and its base task and edge ranges so far.
        let mut run: Option<(u32, [u32; 2], [u32; 2])> = None;
        let reused = self.walk(base, moved, |lw, rec, clean| {
            if !clean {
                if let Some((_, tasks, edges)) = run.take() {
                    lw.copy_run(base, tasks, edges, remap);
                }
                lw.emit(rec.seg);
                return;
            }
            let (dst, tasks, edges) = run.get_or_insert((lw.tg.len() as u32, rec.tasks, rec.edges));
            (tasks[1], edges[1]) = (rec.tasks[1], rec.edges[1]);
            if let Seg::Replicas(op) = rec.seg {
                let first = *dst + (rec.tasks[0] - tasks[0]);
                let ids = &mut lw.op_tasks[op.index()];
                ids.clear();
                ids.extend((first..first + (rec.tasks[1] - rec.tasks[0])).map(TaskId));
            }
        });
        if let Some((_, tasks, edges)) = run {
            self.copy_run(base, tasks, edges, remap);
        }
        reused
    }

    /// Appends a copy of the base's tasks `tasks` and, remapped, its
    /// edges `edges`: one run of consecutive clean segments.
    fn copy_run(
        &mut self,
        base: SpliceBase<'_>,
        [t0, t1]: [u32; 2],
        [e0, e1]: [u32; 2],
        remap: &mut [u32],
    ) {
        let start = self.tg.copy_tasks(base.tg, t0 as usize..t1 as usize).0;
        for (i, r) in remap[t0 as usize..t1 as usize].iter_mut().enumerate() {
            *r = start + i as u32;
        }
        self.tg.copy_deps(base.tg, e0 as usize..e1 as usize, remap);
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

    /// Walks `base`'s segments in order and hands each to `visit` with
    /// whether it is clean: its inputs equal the base's, so the base's
    /// output for it stands. A dirty segment must be emitted by `visit`,
    /// and a clean `R(op)` must leave `op`'s replica ids in `op_tasks`.
    /// The walk keeps the PS load tracker: a dirty aggregation starts
    /// from the base's snapshot when PS rounds are at stake, and a clean
    /// one replays its base round once earlier rounds diverged, turning
    /// dirty when the greedy chooser would now pick another server.
    /// Returns the number of clean segments.
    fn walk(
        &mut self,
        base: SpliceBase<'_>,
        moved: &mut Vec<bool>,
        mut visit: impl FnMut(&mut Self, &SegRecord, bool),
    ) -> usize {
        let log = base.log;
        moved.clear();
        moved.extend(
            log.placements
                .iter()
                .zip(self.placements)
                .map(|(a, b)| a.replicas != b.replicas || a.shard_dim != b.shard_dim),
        );
        // While true, every PS round so far chose and committed what the
        // base's did, so the tracker need not be maintained: the base's
        // snapshot before a segment is exact.
        let mut tracker_is_base = true;
        let mut aggregations = 0;
        let mut reused = 0;
        for rec in &log.segs {
            let clean = match rec.seg {
                Seg::Replicas(op) => !moved[op.index()],
                Seg::Wiring(u) => {
                    !moved[u.index()] && self.g.succs(u).iter().all(|v| !moved[v.index()])
                }
                Seg::Aggregate { grad, apply } => {
                    let snapshot = &log.trackers[aggregations];
                    aggregations += 1;
                    let gp = &self.placements[grad.index()];
                    let base_round = (rec.ps_rounds[0] < rec.ps_rounds[1])
                        .then(|| &base.book.ps_rounds[rec.ps_rounds[0] as usize]);
                    if log.placements[grad.index()] != *gp || moved[apply.index()] {
                        if tracker_is_base && (base_round.is_some() || runs_ps_round(gp)) {
                            self.ps_loads.clone_from(snapshot);
                            tracker_is_base = false;
                        }
                        false
                    } else {
                        match base_round {
                            // Earlier rounds committed different loads:
                            // the base's choice stands only if the
                            // greedy chooser still makes it.
                            Some(r) if !tracker_is_base => {
                                let pick = pick_ps(
                                    self.cluster,
                                    self.cost,
                                    &r.devices,
                                    r.bytes,
                                    self.ps_loads,
                                );
                                if pick == r.chosen {
                                    self.ps_loads
                                        .commit(self.cluster, &r.devices, pick, r.bytes);
                                }
                                pick == r.chosen
                            }
                            _ => true,
                        }
                    }
                }
            };
            reused += usize::from(clean);
            visit(self, rec, clean);
        }
        reused
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
        let (g, placements) = (self.g, self.placements);
        let pu = &placements[u.index()];
        let pv = &placements[v.index()];
        let mut tu = self.op_tasks[u.index()].clone();
        let tv = self.op_tasks[v.index()].clone();
        let node_u = g.node(u);

        // Identical distributions: replica-to-replica, no communication.
        // For *sharded* ops this only holds between an op and its own
        // backward twin (their slices cover the same parameter rows); two
        // distinct ops sharded identically still exchange full tensors.
        if pu.replicas == pv.replicas
            && pu.shard_dim == pv.shard_dim
            && (pu.shard_dim.is_none() || g.node(v).grad_of == Some(u))
        {
            for (a, b) in tu.iter().zip(&tv) {
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
                tu = self.reduce_scattered(u, node_u);
                // Post-scatter the distribution may now match the
                // consumer exactly (e.g. a DP op with the same shares).
                if pu.replicas == pv.replicas && pv.shard_dim.is_none() {
                    for (a, b) in tu.iter().zip(&tv) {
                        self.tg.add_dep(*a, *b);
                    }
                    return;
                }
            } else {
                let markers = self.gathered(u, node_u);
                let participants: Vec<DeviceId> = pu.replicas.iter().map(|r| r.0).collect();
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
                    match participants.iter().position(|&p| p == d) {
                        Some(j) => self.tg.add_dep(markers[j], tv[i]),
                        None => self.connect(markers[0], tv[i], participants[0], d, bytes, u),
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
                let mut per_dev: Vec<(DeviceId, TaskId)> = Vec::new();
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
        let node = Node::new("struct", kind, Phase::Forward)
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
    fn gathered(&mut self, u: OpId, node: &Node) -> Vec<TaskId> {
        if let Some(m) = &self.gathered {
            return m.clone();
        }
        let p = &self.placements[u.index()];
        let devices: Vec<DeviceId> = p.replicas.iter().map(|r| r.0).collect();
        let shares: Vec<u64> = p.replicas.iter().map(|r| r.1).collect();
        let total: u64 = shares.iter().sum();
        let full = node.output.bytes(total);
        let ready: Vec<Vec<TaskId>> = self.op_tasks[u.index()].iter().map(|&t| vec![t]).collect();
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
            self.book,
        );
        self.gathered = Some(m.clone());
        m
    }

    /// Reduce-scatters a sharded backward op's partial input-gradient
    /// sums across its shard group (cached). Afterwards each participant
    /// owns its share-sized slice of the summed tensor in place, so the
    /// markers carry no extra bytes.
    fn reduce_scattered(&mut self, u: OpId, node: &Node) -> Vec<TaskId> {
        if let Some(m) = &self.scattered {
            return m.clone();
        }
        let p = &self.placements[u.index()];
        let devices: Vec<DeviceId> = p.replicas.iter().map(|r| r.0).collect();
        let total: u64 = p.replicas.iter().map(|r| r.1).sum();
        let full = node.output.bytes(total);
        let ready: Vec<Vec<TaskId>> = self.op_tasks[u.index()].iter().map(|&t| vec![t]).collect();
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
            self.book,
        );
        self.scattered = Some(m.clone());
        m
    }

    /// `A(gid)`: aggregates `gid`'s replica gradients into `apply`'s
    /// tasks. Reads the gradient's communication method (subject to the
    /// force-PS/AR overrides) and records its pricing decisions into the
    /// book.
    fn aggregate(&mut self, gid: OpId, apply: OpId) {
        let node = self.g.node(gid);
        let gp = &self.placements[gid.index()];
        let g_tasks = &self.op_tasks[gid.index()];
        let bytes = node.output.bytes(0).max(node.output.bytes(1));
        let devices = gp.devices();

        // Per-device replica-gradient sets: the collective transport
        // consumes them directly (local pre-reduction happens inside
        // NCCL/the PS push path, so no separate GPU task competes
        // with backward compute for the device queue).
        let ready: Vec<Vec<TaskId>> = devices
            .iter()
            .map(|&d| {
                gp.replicas
                    .iter()
                    .zip(g_tasks)
                    .filter(|((rd, _), _)| *rd == d)
                    .map(|(_, &t)| t)
                    .collect()
            })
            .collect();

        let apply_tasks = self.op_tasks[apply.index()].clone();
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
            for (rs, &a) in ready.iter().zip(&apply_tasks) {
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
        let avail = match gp.comm {
            CommMethod::Ps => emit_ps(
                tg,
                cluster,
                cost,
                gid,
                &devices,
                &ready,
                bytes,
                self.ps_loads,
                self.book,
            ),
            CommMethod::AllReduce => {
                emit_allreduce(tg, cluster, cost, gid, &devices, &ready, bytes, self.book)
            }
        };
        for (a, t) in avail.iter().zip(&apply_tasks) {
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
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_graph::DType;
    use heterog_graph::{GraphBuilder, ModelSpec};
    use heterog_profile::GroundTruthCost;
    use heterog_sched::{list_schedule, OrderPolicy};

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
    /// edge for edge in insertion order.
    fn assert_same_graph(ta: &TaskGraph, tb: &TaskGraph) {
        assert_eq!(ta.len(), tb.len());
        for id in ta.task_ids() {
            let (x, y) = (ta.task(id), tb.task(id));
            assert_eq!(ta.task_name(id).to_string(), tb.task_name(id).to_string());
            assert_eq!((x.kind, x.proc), (y.kind, y.proc));
            assert_eq!(x.duration.to_bits(), y.duration.to_bits());
            assert_eq!((x.bytes, x.param_bytes), (y.bytes, y.param_bytes));
            assert_eq!((x.origin(), x.batch_share), (y.origin(), y.batch_share));
        }
        assert!(ta.edges().eq(tb.edges()), "edge lists differ");
    }

    fn splice(g: &Graph, c: &Cluster, base: &Strategy, s: &Strategy) -> (TaskGraph, usize) {
        let (btg, bbook, log) = compile_logged(g, c, &GroundTruthCost, base);
        let mut tg = TaskGraph::default();
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
            &mut tg,
            &mut SpliceScratch::default(),
        );
        (tg, reused)
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

    #[test]
    fn splice_is_bit_identical_for_shard_plans() {
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let base = shard_strategy(&g, &c);
        let mut s = base.clone();
        let (l2, _) = g.iter().find(|(_, n)| n.name == "l2/matmul").unwrap();
        s.per_op[l2.index()] = crate::OpStrategy::Mp(DeviceId(3));
        let (tg, reused) = splice(&g, &c, &base, &s);
        assert!(reused > 0, "unchanged segments must be copied");
        assert_same_graph(&tg, &compile(&g, &c, &GroundTruthCost, &s));
    }

    #[test]
    fn shard_dim_flip_rewires_instead_of_copying() {
        // Same proportional shares, but Shard and Dp wire differently:
        // every segment of a flipped op must be re-lowered.
        let g = tiny(64);
        let c = paper_testbed_8gpu();
        let dp = Strategy::proportional(g.len(), &c, CommMethod::AllReduce);
        let (tg, reused) = splice(&g, &c, &shard_strategy(&g, &c), &dp);
        assert_same_graph(&tg, &compile(&g, &c, &GroundTruthCost, &dp));
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
        let (tg, reused) = splice(&g, &c, &base, &s);
        assert_same_graph(&tg, &compile(&g, &c, &GroundTruthCost, &s));
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
