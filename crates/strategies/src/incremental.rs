//! Incremental strategy evaluation: answer "what if the deployment
//! changed *slightly*?" without paying for a fresh compile + simulate.
//!
//! [`IncrementalEvaluator`] pins one *base* deployment (graph, cluster,
//! strategy, order policy), compiles it once with a
//! [`heterog_compile::PriceBook`] and simulates the result once, keeping
//! the task graph and its evaluation ([`IncrementalEvaluator::new`]).
//! A caller that already compiled and simulated the base anchors the
//! evaluator on its own graph and report instead
//! ([`IncrementalEvaluator::anchored`]), so the graph is held once.
//! Perturbed deployments are then evaluated by the cheapest sound path:
//!
//! | [`Perturbation`]        | fast path                                   |
//! |-------------------------|---------------------------------------------|
//! | `Policy`                | re-simulate the cached task graph (no compile) |
//! | `Cluster`               | [`reprice_into`], then the base evaluation with its OOM flags re-derived when no duration changed bitwise, else one simulation of the re-priced graph |
//! | `Strategy`              | [`splice_into`] (a [`Patch`] over the base: its clean lowering segments read in place, the dirty ones re-lowered) + simulate through a [`PatchView`] with the pre-pass derived from the base's ([`simulate_within`]) |
//! | `Group`                 | as `Strategy`, with only the moved group's placements resolved again ([`resolve_group_into`]) and no `Strategy` built |
//! | `Strategy` or `Group`, through [`IncrementalEvaluator::evaluate_bounded`] | as above, but a candidate that a lower bound on its iteration time puts above the limit is not simulated to the end: [`Bounded::Pruned`]. The busiest processor's load is priced before any splice, from the base's loads and the dirty segments alone ([`splice_loads`]); a candidate with no dirty segment is the base graph and gets the base evaluation; any other it leaves in is spliced and simulated by [`simulate_within`], which stops once its running bound exceeds the limit |
//!
//! What a candidate pays, pass by pass, before its simulation stops:
//!
//! | pass | cost |
//! |------|------|
//! | resolve | the moved group's ops, on a copy of the base's placements |
//! | load bound ([`splice_loads`]) | the placements compared op by op; a walk over the segments the move can make dirty (its moved ops' and their producers', and the aggregations they or a changed gradient touch), and the dirty segments' tasks |
//! | splice ([`splice_into`]) | the same comparison and walk; the patch's id maps (4 bytes per task each way); the dirty segments re-lowered, and the rows they write: their own tasks', and the merged rows of the copied tasks they wire. No clean task or row is copied |
//! | ranks | the base's, copied run by run; the rewritten tasks and their ancestors ranked afresh through the view ([`mark_ancestors`], [`rerank_marked_into`]); one sweep when those ancestors are at least four fifths of the tasks |
//! | memory pre-pass | per GPU, the base's parameter bytes and task counts less the dropped tasks' plus the re-lowered ones' (a sweep when the ranks are swept); each task's consumer count from its row length |
//! | simulation | the scheduler's per-task columns, read through the view (a copied run's from the base in place), then the events up to the stop |
//!
//! No pass copies a clean task or row, builds an index or sweeps every
//! task for ranks or parameter bytes, and no walk visits a segment the
//! move cannot make dirty. What still costs the whole graph is a few
//! words per task (the id maps, the copied ranks and the scheduler's
//! columns) and per op (the candidate's placements, copied and
//! compared with the base's).
//!
//! A strategy change resolves the candidate's placements once and
//! diffs them against the base's: an op's replica tasks, the wiring of
//! its out-edges and its gradient aggregation are re-lowered only when
//! a placement they read moved (see `heterog_compile::lower`). A group
//! move starts from a copy of the base's placements and resolves only
//! the group's ops, their gradient ops and the ApplyGradient ops those
//! feed.
//!
//! Every fast path is **bit-identical** to the full
//! [`evaluate_with_policy`] it replaces — the unit tests compare all
//! report fields by bit pattern. Whenever a precondition fails (cluster
//! structure changed, the greedy PS chooser would flip under a new
//! cluster), or a splice could reuse no segment, the evaluator falls
//! back to the full pipeline and reports [`EvalMode::Full`].
//!
//! Fast-path evaluations intentionally do **not** count toward
//! [`crate::EvalStats`]'s `evaluations`/`eval_seconds` (those meter
//! full compile+simulate runs, the base build included); they count as
//! `incremental_fast` / `incremental_full` so report footers can show
//! the hit rate. Pruned candidates count in neither, only in
//! `heterog_strategies_pruned_evals_total`. All are always-on counters
//! that a run reads in its own scope ([`crate::run_eval_stats`]).

use std::borrow::Cow;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use heterog_cluster::Cluster;
use heterog_compile::{
    compile_logged, log_compiled, reprice_into, resolve_group_into, resolve_placements,
    splice_into, splice_loads, structure_compatible, OpPlacement, OpStrategy, PriceBook,
    SegmentLog, SpliceBase, SpliceScratch, Strategy,
};
use heterog_graph::{Graph, OpId};
use heterog_profile::CostEstimator;
use heterog_sched::{
    busiest_processor_load, load_exceeds, mark_ancestors, rerank_marked_into, upward_ranks,
    upward_ranks_into, CopiedRun, GraphRead, OrderPolicy, Patch, PatchView, Proc, RankScratch,
    TaskGraph, TaskId,
};
use heterog_sim::{
    count_resim, simulate_into, simulate_uncounted, simulate_within, with_scratch, Prepass,
    SimReport,
};
use heterog_telemetry::{lock, Counter};

use crate::evaluate::{count_full_evaluation, evaluate_with_policy, Evaluation};

pub(crate) static FAST: Counter = Counter::always(
    "heterog_strategies_incremental_evals_total",
    "Perturbed evaluations served by an incremental fast path",
);
pub(crate) static FULL: Counter = Counter::always(
    "heterog_strategies_incremental_fallbacks_total",
    "Perturbed evaluations that fell back to a full compile + simulate",
);
static PRUNED: Counter = Counter::always(
    "heterog_strategies_pruned_evals_total",
    "Perturbed evaluations left unsimulated because a lower bound on their iteration time exceeded the limit",
);

/// A deployment change relative to an [`IncrementalEvaluator`]'s base.
///
/// The caller picks the variant that describes *what moved*; the
/// evaluator picks the cheapest sound evaluation path for it. Passing a
/// value identical to the base is allowed (and cheap).
#[derive(Debug, Clone, Copy)]
pub enum Perturbation<'p> {
    /// Same strategy and order policy on a changed cluster (device
    /// slowdown/upgrade, link bandwidth change, device removal).
    Cluster(&'p Cluster),
    /// Same cluster and order policy under a changed Part-I strategy
    /// (e.g. a PS <-> AllReduce communication flip).
    Strategy(&'p Strategy),
    /// The base strategy with every op in `ops` (sorted ascending, as
    /// `Grouping::members` are) re-decided as `to`: a search's one-group
    /// move, evaluated exactly as `Strategy` of the moved strategy would
    /// be, without building that strategy.
    Group {
        /// The moved ops.
        ops: &'p [OpId],
        /// Their new decision.
        to: &'p OpStrategy,
    },
    /// Same deployment under a different execution-order policy.
    Policy(&'p OrderPolicy),
}

/// Which path served an [`IncrementalEvaluator::evaluate_perturbed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// The perturbation equals the base deployment, or (bounded) lowers
    /// to the base's task graph; the cached base evaluation was
    /// returned.
    Base,
    /// Re-priced task graph, with no compile: the base evaluation with
    /// its OOM flags re-derived when no task duration changed, else one
    /// simulation of the re-priced graph.
    Repriced,
    /// Task graph spliced from the base's lowering ([`splice_into`]) +
    /// simulate.
    Spliced,
    /// Cached task graph re-simulated under a different order policy.
    Reordered,
    /// Full compile + simulate fallback.
    Full,
}

impl EvalMode {
    /// True for every path that avoided a full compile + simulate.
    pub fn is_fast(&self) -> bool {
        !matches!(self, EvalMode::Full)
    }
}

/// Outcome of [`IncrementalEvaluator::evaluate_bounded`].
#[derive(Debug, Clone)]
pub enum Bounded {
    /// Simulated, exactly as [`IncrementalEvaluator::evaluate_perturbed`]
    /// would have.
    Evaluated(Box<Evaluation>, EvalMode),
    /// Not simulated to the end: a lower bound on the candidate task
    /// graph's iteration time that [`load_exceeds`] the limit. It is the
    /// busiest processor's load as [`splice_loads`] prices it before any
    /// splice (summed in another order than over the graph, so it may
    /// differ from that sum in the last bits), or else the running bound
    /// at which [`simulate_within`] stopped the spliced graph's
    /// simulation, at most its iteration time but for rounding.
    Pruned(f64),
}

impl Bounded {
    fn evaluated(eval: Evaluation, mode: EvalMode) -> Bounded {
        Bounded::Evaluated(Box::new(eval), mode)
    }
}

/// Patch buffers: the candidate's placements, the re-priced task graph,
/// the spliced candidate's patch over the base, the splice scratch, and
/// the report each perturbed
/// evaluation writes into, plus the per-processor loads a bounded one
/// prices before splicing and the spliced graph's pre-pass derived from
/// the base's. An evaluator pools them, one per thread evaluating
/// through it at once, so a `Sync` evaluator serves pool workers
/// without sharing a buffer, the per-candidate path stops allocating
/// once they have grown, and their memory goes with the evaluator.
/// Simulations run on the thread's simulator scratch ([`with_scratch`]),
/// which outlives the evaluator.
#[derive(Debug, Default)]
struct PatchScratch {
    placements: Vec<OpPlacement>,
    tg: TaskGraph,
    patch: Patch,
    splice: SpliceScratch,
    report: SimReport,
    load: Vec<f64>,
    prepass: PrepassScratch,
}

/// A spliced graph's pre-pass ([`Prepass`]), derived from the base's:
/// its ranks, and per GPU its parameter bytes, task count and activity.
#[derive(Debug, Default)]
struct PrepassScratch {
    ranks: Vec<f64>,
    rank_scratch: RankScratch,
    gpus: GpuTotals,
    active: Vec<bool>,
}

/// Per GPU, the parameter bytes a graph's tasks pin and its number of
/// tasks: integer sums, so adding and removing tasks in any order gives
/// the sums over the graph exactly.
#[derive(Debug, Default)]
struct GpuTotals {
    param_bytes: Vec<u64>,
    tasks: Vec<u32>,
}

impl GpuTotals {
    /// `tg`'s totals.
    fn of(tg: &TaskGraph) -> Self {
        let mut out = GpuTotals::default();
        out.sweep(tg);
        out
    }

    /// Becomes `tg`'s totals, keeping the buffers.
    fn sweep(&mut self, tg: &impl GraphRead) {
        self.param_bytes.clear();
        self.param_bytes.resize(tg.num_gpus() as usize, 0);
        self.tasks.clear();
        self.tasks.resize(tg.num_gpus() as usize, 0);
        self.add(tg, 0..tg.len() as u32);
    }

    /// Adds `tg`'s tasks `range`.
    fn add(&mut self, tg: &impl GraphRead, range: std::ops::Range<u32>) {
        for t in range {
            let task = tg.task(TaskId(t));
            if let Proc::Gpu(g) = task.proc {
                self.param_bytes[g as usize] += task.param_bytes;
                self.tasks[g as usize] += 1;
            }
        }
    }

    /// Takes `tg`'s tasks `range` out.
    fn remove(&mut self, tg: &TaskGraph, range: std::ops::Range<u32>) {
        for t in range {
            let task = tg.task(TaskId(t));
            if let Proc::Gpu(g) = task.proc {
                self.param_bytes[g as usize] -= task.param_bytes;
                self.tasks[g as usize] -= 1;
            }
        }
    }
}

/// Calls `f` on each range of `0..len` that no run's `range` covers;
/// `runs` are in order and disjoint.
fn for_each_gap(
    runs: &[CopiedRun],
    len: u32,
    range: impl Fn(&CopiedRun) -> [u32; 2],
    mut f: impl FnMut(std::ops::Range<u32>),
) {
    let mut next = 0;
    for [start, end] in runs.iter().map(range).chain([[len, len]]) {
        if next < start {
            f(next..start);
        }
        next = end;
    }
}

/// The placements a strategy perturbation lowers: a whole strategy's,
/// or the base's with one group moved.
#[derive(Clone, Copy)]
enum Moved<'p> {
    Strategy(&'p Strategy),
    Group(&'p [OpId], &'p OpStrategy),
}

/// A base deployment lowered and simulated: its task graph, owned or
/// borrowed from the caller that compiled it, with the graph's price
/// book, segment log and evaluation.
struct Anchor<'a> {
    tg: Cow<'a, TaskGraph>,
    book: PriceBook,
    log: SegmentLog,
    base: Evaluation,
}

/// Cache of compiled artifacts for one base deployment, serving
/// perturbed evaluations without a fresh compile. `&self`
/// methods only — the evaluator is `Sync` (scratch is thread-local) so
/// planners can fan candidate evaluations across pool workers.
#[derive(Debug)]
pub struct IncrementalEvaluator<'a, C: CostEstimator> {
    g: &'a Graph,
    cost: &'a C,
    cluster: Cluster,
    strategy: Strategy,
    policy: OrderPolicy,
    capacities: Vec<u64>,
    book: PriceBook,
    /// The base lowering's segments, which strategy perturbations
    /// splice from.
    log: SegmentLog,
    /// The base task graph: re-priced by cluster perturbations,
    /// re-simulated by policy ones, spliced from by strategy ones. Owned
    /// when the evaluator compiled it, borrowed when anchored.
    tg: Cow<'a, TaskGraph>,
    /// The base task graph's per-processor loads, which a bounded
    /// strategy perturbation adjusts by its dirty segments.
    loads: Vec<f64>,
    /// The base task graph's upward ranks and per-GPU totals, from which
    /// a spliced graph's pre-pass is derived: swept on the first splice
    /// that derives one, so an evaluator that splices nothing holds
    /// none.
    base_prepass: OnceLock<(Vec<f64>, GpuTotals)>,
    /// The base evaluation, which carries no task times.
    base: Evaluation,
    /// Idle patch buffers (see [`PatchScratch`]).
    patches: Mutex<Vec<PatchScratch>>,
}

impl<'a, C: CostEstimator> IncrementalEvaluator<'a, C> {
    /// Compiles and simulates the base deployment (counted as one
    /// regular evaluation) and caches everything needed for cheap
    /// perturbed queries.
    pub fn new(
        g: &'a Graph,
        cost: &'a C,
        cluster: &Cluster,
        strategy: &Strategy,
        policy: &OrderPolicy,
    ) -> Self {
        Self::build(g, cost, cluster, strategy, policy, Vec::new())
    }

    /// An evaluator anchored on a base deployment its caller already
    /// compiled and simulated: `tg` is `compile(g, cluster, cost,
    /// strategy)` and `report` its simulation under `policy`. The
    /// evaluator borrows `tg`, compiles and simulates nothing and counts
    /// no evaluation; it lowers the base once more into a sink that
    /// stores nothing, for the price book and segment log
    /// ([`log_compiled`]). Panics unless that lowering numbers exactly
    /// `tg`'s tasks and edges, and in debug builds unless it emits `tg`
    /// itself, task for task and edge for edge.
    pub fn anchored(
        g: &'a Graph,
        cost: &'a C,
        cluster: &Cluster,
        strategy: &Strategy,
        policy: &OrderPolicy,
        tg: &'a TaskGraph,
        report: &SimReport,
    ) -> Self {
        let _span = heterog_telemetry::span("incremental_evaluator_anchored");
        let (book, log) = log_compiled(g, cluster, cost, strategy, tg);
        let anchor = Anchor {
            tg: Cow::Borrowed(tg),
            book,
            log,
            base: Evaluation::of(report),
        };
        Self::assemble(g, cost, cluster, strategy, policy, anchor, Vec::new())
    }

    /// [`IncrementalEvaluator::new`] reusing `patches`.
    fn build(
        g: &'a Graph,
        cost: &'a C,
        cluster: &Cluster,
        strategy: &Strategy,
        policy: &OrderPolicy,
        mut patches: Vec<PatchScratch>,
    ) -> Self {
        let _span = heterog_telemetry::span("incremental_evaluator_new");
        let started = std::time::Instant::now();
        let (tg, book, log) = compile_logged(g, cluster, cost, strategy);
        let mut ps = patches.pop().unwrap_or_default();
        let capacities = cluster.memory_capacities();
        let (report, inf) = (&mut ps.report, f64::INFINITY);
        with_scratch(|s| simulate_uncounted(&tg, None, &capacities, policy, inf, s, report));
        let base = Evaluation::of(report);
        patches.push(ps);
        count_full_evaluation(started, &base);
        let anchor = Anchor {
            tg: Cow::Owned(tg),
            book,
            log,
            base,
        };
        Self::assemble(g, cost, cluster, strategy, policy, anchor, patches)
    }

    /// The evaluator of a lowered and simulated base deployment: both
    /// constructors end here.
    fn assemble(
        g: &'a Graph,
        cost: &'a C,
        cluster: &Cluster,
        strategy: &Strategy,
        policy: &OrderPolicy,
        anchor: Anchor<'a>,
        patches: Vec<PatchScratch>,
    ) -> Self {
        let Anchor {
            tg,
            book,
            log,
            base,
        } = anchor;
        let mut loads = Vec::new();
        busiest_processor_load(&tg, &mut loads);
        IncrementalEvaluator {
            g,
            cost,
            cluster: cluster.clone(),
            strategy: strategy.clone(),
            policy: policy.clone(),
            capacities: cluster.memory_capacities(),
            book,
            log,
            tg,
            loads,
            base_prepass: OnceLock::new(),
            base,
            patches: Mutex::new(patches),
        }
    }

    /// The cached evaluation of the base deployment.
    pub fn base(&self) -> &Evaluation {
        &self.base
    }

    /// The base strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Re-anchors the evaluator on a new base deployment (full compile +
    /// simulate). The HeteroG search calls this when its incumbent
    /// moves; the elastic engine builds a new evaluator per fault
    /// instead.
    pub fn rebase(&mut self, cluster: &Cluster, strategy: &Strategy, policy: &OrderPolicy) {
        let patches = std::mem::take(&mut *lock(&self.patches));
        *self = Self::build(self.g, self.cost, cluster, strategy, policy, patches);
    }

    /// Runs `f` on an idle patch buffer (a new one when every buffer is
    /// in use), then returns the buffer to the pool.
    fn with_patch<R>(&self, f: impl FnOnce(&mut PatchScratch) -> R) -> R {
        let mut ps = lock(&self.patches).pop().unwrap_or_default();
        let out = f(&mut ps);
        lock(&self.patches).push(ps);
        out
    }

    /// Evaluates the perturbed deployment, bit-identical to
    /// [`evaluate_with_policy`] on the same inputs, and reports which
    /// path served it.
    pub fn evaluate_perturbed(&self, p: Perturbation<'_>) -> (Evaluation, EvalMode) {
        let _span = heterog_telemetry::span("evaluate_perturbed");
        match self.evaluate_within(p, f64::INFINITY) {
            Bounded::Evaluated(eval, mode) => (*eval, mode),
            Bounded::Pruned(load) => unreachable!("load {load} exceeds no infinite limit"),
        }
    }

    /// [`IncrementalEvaluator::evaluate_perturbed`], unless a lower
    /// bound on the candidate task graph's iteration time
    /// [`load_exceeds`] `limit`: then that bound is returned instead. The
    /// busiest processor's load, GPU or link, is tried first, priced from
    /// the base's loads and the dirty segments with no splice
    /// ([`splice_loads`]); a candidate it prunes pays a comparison of
    /// its placements, a walk over the segments they can make dirty and
    /// its dirty segments alone. Only when it does not prune is the
    /// graph spliced into a patch over the base, its ranks and memory
    /// pre-pass derived from the base's, and [`simulate_within`] run
    /// through the patch's view, which stops as soon as its running
    /// bound exceeds `limit`: such a candidate pays the splice (the id
    /// maps, the re-lowered tasks and the rows they write), the ranks of
    /// the re-lowered tasks' ancestors, the scheduler's per-task columns
    /// and the events up to the stop, but no copy of a clean task or
    /// row, no index build and no sweep of the whole graph for ranks or
    /// parameter bytes. A candidate whose
    /// every lowering segment is clean (the move changed only decisions
    /// the lowering ignores, such as PS vs AllReduce for ops without
    /// parameter gradients) lowers to the base graph: it returns the
    /// base evaluation as [`EvalMode::Base`], with no splice and no
    /// simulation, unless the base's own time exceeds `limit`. A pruned
    /// candidate counts in neither `incremental_fast` nor
    /// `incremental_full`, nor as a simulation, and emits no
    /// `StrategyEvaluated` event. Only spliced paths are bounded; every
    /// other path evaluates as `evaluate_perturbed` does.
    pub fn evaluate_bounded(&self, p: Perturbation<'_>, limit: f64) -> Bounded {
        let _span = heterog_telemetry::span("evaluate_bounded");
        self.evaluate_within(p, limit)
    }

    fn evaluate_within(&self, p: Perturbation<'_>, limit: f64) -> Bounded {
        let out = self.dispatch(p, limit);
        match &out {
            Bounded::Pruned(_) => PRUNED.inc(),
            Bounded::Evaluated(eval, mode) if mode.is_fast() => {
                FAST.inc();
                // `Full` already emitted inside `evaluate_with_policy`.
                heterog_events::emit_with(|| heterog_events::EventKind::StrategyEvaluated {
                    makespan: eval.iteration_time,
                    oom: eval.oom,
                });
            }
            Bounded::Evaluated(..) => FULL.inc(),
        }
        out
    }

    fn dispatch(&self, p: Perturbation<'_>, limit: f64) -> Bounded {
        match p {
            Perturbation::Policy(p2) => self.with_patch(|ps| {
                let report = &mut ps.report;
                with_scratch(|s| simulate_into(&self.tg, &self.capacities, p2, s, report));
                Bounded::evaluated(Evaluation::of(report), EvalMode::Reordered)
            }),
            Perturbation::Cluster(c2) => self.eval_cluster(c2),
            Perturbation::Strategy(s2) => {
                if *s2 == self.strategy {
                    return Bounded::evaluated(self.base.clone(), EvalMode::Base);
                }
                self.eval_spliced(Moved::Strategy(s2), limit)
            }
            Perturbation::Group { ops, to } => {
                if ops.iter().all(|op| self.strategy.per_op[op.index()] == *to) {
                    return Bounded::evaluated(self.base.clone(), EvalMode::Base);
                }
                self.eval_spliced(Moved::Group(ops, to), limit)
            }
        }
    }

    /// Re-prices the base task graph for `c2`. When no duration changed
    /// bitwise, the schedule and memory peaks are the base's and only
    /// the OOM flags depend on `c2`'s capacities; otherwise the
    /// re-priced graph is simulated once. Either way the result is
    /// bit-identical to a fresh simulation of the re-priced graph.
    fn eval_cluster(&self, c2: &Cluster) -> Bounded {
        if structure_compatible(&self.cluster, c2) {
            let capacities = c2.memory_capacities();
            let served = self.with_patch(|ps| {
                reprice_into(self.g, &self.tg, &self.book, c2, self.cost, &mut ps.tg).ok()?;
                count_resim();
                let unchanged = (self.tg.iter().zip(ps.tg.iter()))
                    .all(|((_, b), (_, p))| b.duration.to_bits() == p.duration.to_bits());
                let eval = if unchanged {
                    let mut eval = self.base.clone();
                    let memory = &mut eval.report.memory;
                    let per_gpu = memory.oom.iter_mut().zip(&memory.peak_bytes);
                    for ((oom, &peak), &capacity) in per_gpu.zip(&capacities) {
                        *oom = peak > capacity;
                    }
                    eval.oom = memory.any_oom();
                    eval
                } else {
                    let (tg, policy, report) = (&ps.tg, &self.policy, &mut ps.report);
                    with_scratch(|s| {
                        simulate_uncounted(tg, None, &capacities, policy, f64::INFINITY, s, report)
                    });
                    Evaluation::of(report)
                };
                Some(Bounded::evaluated(eval, EvalMode::Repriced))
            });
            if let Some(r) = served {
                return r;
            }
        }
        let eval = evaluate_with_policy(self.g, c2, self.cost, &self.strategy, &self.policy);
        Bounded::evaluated(eval, EvalMode::Full)
    }

    /// Splices the task graph of the `moved` placements from the base
    /// lowering and simulates it within `limit`. At a finite limit the
    /// busiest processor's load is priced before any splice
    /// ([`splice_loads`]), and only a candidate it leaves in is spliced;
    /// one whose segments are all clean is the base deployment's graph,
    /// answered with the base evaluation ([`EvalMode::Base`]). Every
    /// other candidate, at any limit, is spliced into a [`Patch`] and
    /// simulated through its [`PatchView`] over the base, with its
    /// ranks and memory pre-pass derived from the base's
    /// ([`IncrementalEvaluator::derive_prepass`]), so a candidate the
    /// simulation stops pays its patch, the re-lowered tasks' ancestors
    /// and its schedule's prefix, not a copy of the graph.
    /// A splice that reuses no segment was a full compile and, when
    /// simulated to the end, is counted as one.
    fn eval_spliced(&self, moved: Moved<'_>, limit: f64) -> Bounded {
        let started = Instant::now();
        let base = SpliceBase {
            tg: &self.tg,
            book: &self.book,
            log: &self.log,
        };
        self.with_patch(|ps| {
            let PatchScratch {
                placements,
                patch,
                splice,
                report,
                load,
                prepass,
                ..
            } = ps;
            self.resolve(moved, placements);
            if limit < f64::INFINITY {
                let _span = heterog_telemetry::span("bound");
                load.clone_from(&self.loads);
                let clean = splice_loads(
                    self.g,
                    &self.cluster,
                    self.cost,
                    placements,
                    base,
                    load,
                    splice,
                );
                let busiest = load.iter().copied().fold(0.0f64, f64::max);
                if load_exceeds(busiest, limit) {
                    return Bounded::Pruned(busiest);
                }
                // The move changed only what the lowering ignores: the
                // splice would copy the base graph whole, and simulating
                // it within a limit the base's time does not exceed would
                // give the base's evaluation.
                if clean == self.log.len() && !load_exceeds(self.base.iteration_time, limit) {
                    return Bounded::evaluated(self.base.clone(), EvalMode::Base);
                }
            }
            let reused = splice_into(
                self.g,
                &self.cluster,
                self.cost,
                placements,
                base,
                patch,
                splice,
            );
            let view = PatchView::new(&self.tg, patch);
            let prepass = self.derive_prepass(&view, splice, prepass);
            let (caps, policy) = (&self.capacities, &self.policy);
            if let Some(bound) = with_scratch(|s| {
                simulate_within(&view, Some(&prepass), caps, policy, limit, s, report)
            }) {
                return Bounded::Pruned(bound);
            }
            let eval = Evaluation::of(report);
            if reused == 0 {
                count_full_evaluation(started, &eval);
                return Bounded::evaluated(eval, EvalMode::Full);
            }
            Bounded::evaluated(eval, EvalMode::Spliced)
        })
    }

    /// The placements of `moved`, into `out`.
    fn resolve(&self, moved: Moved<'_>, out: &mut Vec<OpPlacement>) {
        let _span = heterog_telemetry::span("resolve");
        let (g, c) = (self.g, &self.cluster);
        match moved {
            Moved::Strategy(s2) => *out = resolve_placements(g, c, s2),
            Moved::Group(ops, to) => resolve_group_into(g, c, self.log.placements(), ops, to, out),
        }
    }

    /// The pre-pass of `tg`, the view of the patch the last splice in
    /// `splice` wrote,
    /// derived from the base's at the cost of what changed: the copied
    /// tasks keep their base ranks, and the tasks whose successor rows
    /// were rewritten and their ancestors are ranked afresh; each GPU's
    /// parameter bytes and task count are the base's less the dropped
    /// base tasks' plus the re-lowered ones'. When those ancestors are
    /// at least four fifths of the tasks, one sweep of `tg` costs less
    /// and gives the same values.
    fn derive_prepass<'p>(
        &self,
        tg: &PatchView<'_>,
        splice: &SpliceScratch,
        out: &'p mut PrepassScratch,
    ) -> Prepass<'p> {
        let _span = heterog_telemetry::span("prepass");
        let PrepassScratch {
            ranks,
            rank_scratch,
            gpus,
            active,
        } = out;
        // Re-ranking an ancestor costs about what the sweep costs per
        // task, and the first re-ranking also sweeps the base: when the
        // ancestors are four fifths of the graph or more (what-ifs and
        // repairs that re-lower much of it), one sweep costs less. The
        // rewritten tasks are ancestors, so that many skip the count.
        let rewritten = splice.rewritten();
        let most = |tasks: usize| 5 * tasks >= 4 * tg.len();
        if most(rewritten.len()) || most(mark_ancestors(tg, rewritten, rank_scratch)) {
            upward_ranks_into(tg, rank_scratch, ranks);
            gpus.sweep(tg);
        } else {
            let (base_ranks, base_gpus) = self
                .base_prepass
                .get_or_init(|| (upward_ranks(&self.tg), GpuTotals::of(&self.tg)));
            let runs = tg.copied();
            ranks.resize(tg.len(), 0.0);
            for run in runs {
                let [b0, b1] = run.base.map(|b| b as usize);
                let at = run.at as usize;
                ranks[at..at + (b1 - b0)].copy_from_slice(&base_ranks[b0..b1]);
            }
            rerank_marked_into(tg, rank_scratch, ranks);
            gpus.param_bytes.clone_from(&base_gpus.param_bytes);
            gpus.tasks.clone_from(&base_gpus.tasks);
            let base_len = self.tg.len() as u32;
            for_each_gap(
                runs,
                base_len,
                |r| r.base,
                |dropped| gpus.remove(&self.tg, dropped),
            );
            let spliced = |r: &CopiedRun| [r.at, r.at + (r.base[1] - r.base[0])];
            for_each_gap(runs, tg.len() as u32, spliced, |emitted| {
                gpus.add(tg, emitted)
            });
        }
        active.clear();
        active.extend(gpus.tasks.iter().map(|&n| n > 0));
        Prepass {
            ranks,
            param_bytes: &gpus.param_bytes,
            active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::switch_comm;
    use heterog_cluster::{paper_testbed_8gpu, Device, DeviceId, GpuModel, LinkKind};
    use heterog_compile::CommMethod;
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;

    fn setup() -> (Graph, Cluster, Strategy) {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        (g, c, s)
    }

    fn bitwise_eq(a: &SimReport, b: &SimReport) -> bool {
        a.iteration_time.to_bits() == b.iteration_time.to_bits()
            && a.computation_time.to_bits() == b.computation_time.to_bits()
            && a.communication_time.to_bits() == b.communication_time.to_bits()
            && a.gpu_busy.len() == b.gpu_busy.len()
            && a.gpu_busy
                .iter()
                .zip(&b.gpu_busy)
                .all(|(x, y)| x.to_bits() == y.to_bits())
            && a.link_busy
                .iter()
                .zip(&b.link_busy)
                .all(|(x, y)| x.to_bits() == y.to_bits())
            && a.memory.peak_bytes == b.memory.peak_bytes
            && a.memory.param_bytes == b.memory.param_bytes
            && a.memory.oom == b.memory.oom
    }

    fn assert_matches_full(
        ev: &IncrementalEvaluator<'_, GroundTruthCost>,
        g: &Graph,
        p: Perturbation<'_>,
        cluster: &Cluster,
        strategy: &Strategy,
        policy: &OrderPolicy,
    ) -> EvalMode {
        let (got, mode) = ev.evaluate_perturbed(p);
        let want = evaluate_with_policy(g, cluster, &GroundTruthCost, strategy, policy);
        assert_eq!(got.iteration_time.to_bits(), want.iteration_time.to_bits());
        assert_eq!(got.oom, want.oom);
        assert!(
            bitwise_eq(&got.report, &want.report),
            "report mismatch under {mode:?}"
        );
        mode
    }

    /// Asserts the pre-pass `ev` derives from its base's for `moved`
    /// equals a sweep of `fresh`, the graph `moved` compiles to: every
    /// upward rank bit for bit, and per GPU the parameter bytes and
    /// whether any task runs there.
    fn assert_derived_prepass(
        ev: &IncrementalEvaluator<'_, GroundTruthCost>,
        moved: Moved<'_>,
        fresh: &TaskGraph,
        what: &str,
    ) {
        let base = SpliceBase {
            tg: &ev.tg,
            book: &ev.book,
            log: &ev.log,
        };
        ev.with_patch(|ps| {
            ev.resolve(moved, &mut ps.placements);
            let (g, c, cost) = (ev.g, &ev.cluster, ev.cost);
            splice_into(
                g,
                c,
                cost,
                &ps.placements,
                base,
                &mut ps.patch,
                &mut ps.splice,
            );
            let view = PatchView::new(&ev.tg, &ps.patch);
            let prepass = ev.derive_prepass(&view, &ps.splice, &mut ps.prepass);
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(prepass.ranks) == bits(&upward_ranks(fresh)),
                "{what}: derived ranks differ from a sweep's"
            );
            let gpus = fresh.num_gpus as usize;
            let (mut params, mut active) = (vec![0u64; gpus], vec![false; gpus]);
            for (_, t) in fresh.iter() {
                if let Proc::Gpu(g) = t.proc {
                    params[g as usize] += t.param_bytes;
                    active[g as usize] = true;
                }
            }
            assert_eq!(
                prepass.param_bytes, params,
                "{what}: parameter bytes per GPU"
            );
            assert_eq!(prepass.active, active, "{what}: active GPUs");
        });
    }

    /// Seeded moves of a run of 1 to 8 ops to MP on any device, EV or CP
    /// with PS or AllReduce, or even or proportional sharding, as whole
    /// strategies and as group moves: each pre-pass derived from the
    /// even-AllReduce base's equals a sweep of the fresh compile, and
    /// some moves derive theirs rather than sweep.
    #[test]
    fn derived_prepass_equals_a_sweep_of_the_fresh_graph() {
        use heterog_telemetry::rng::SplitMix64;
        let c = paper_testbed_8gpu();
        let choices = [
            OpStrategy::even(&c, CommMethod::Ps),
            OpStrategy::even(&c, CommMethod::AllReduce),
            OpStrategy::proportional(&c, CommMethod::Ps),
            OpStrategy::proportional(&c, CommMethod::AllReduce),
            OpStrategy::shard_even(&c, 0),
            OpStrategy::shard_proportional(&c, 0),
            OpStrategy::Mp(DeviceId(3)),
            OpStrategy::Mp(DeviceId(6)),
        ];
        let policy = OrderPolicy::RankBased;
        for (model, seed) in [
            (BenchmarkModel::MobileNetV2, 2),
            (BenchmarkModel::Vgg19, 19),
        ] {
            let g = ModelSpec::new(model, 64).build();
            let base = Strategy::even(g.len(), &c, CommMethod::AllReduce);
            let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &base, &policy);
            let mut rng = SplitMix64::new(seed);
            for k in 0..24 {
                let len = 1 + rng.below(8) as usize;
                let first = rng.below((g.len() - len) as u64 + 1) as u32;
                let ops: Vec<OpId> = (first..first + len as u32).map(OpId).collect();
                let to = &choices[rng.below(choices.len() as u64) as usize];
                let mut moved = base.clone();
                for op in &ops {
                    moved.per_op[op.index()] = to.clone();
                }
                let fresh = heterog_compile::compile(&g, &c, &GroundTruthCost, &moved);
                let what = format!("{} move {k}: ops {ops:?} to {to:?}", g.name);
                let m = match k % 2 {
                    0 => Moved::Strategy(&moved),
                    _ => Moved::Group(&ops, to),
                };
                assert_derived_prepass(&ev, m, &fresh, &what);
            }
            assert!(
                ev.base_prepass.get().is_some(),
                "{}: every move swept its pre-pass",
                g.name
            );
        }
    }

    #[test]
    fn base_matches_full_evaluation() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let want = evaluate_with_policy(&g, &c, &GroundTruthCost, &s, &pol);
        assert_eq!(
            ev.base().iteration_time.to_bits(),
            want.iteration_time.to_bits()
        );
        assert!(bitwise_eq(&ev.base().report, &want.report));
    }

    #[test]
    fn cluster_perturbations_are_bit_identical() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        for c2 in [
            c.with_scaled_link(Some(LinkKind::Pcie), 0.5),
            c.with_scaled_link(None, 2.0),
            c.with_device_model(DeviceId(0), GpuModel::TeslaV100),
            c.with_device_model(DeviceId(3), GpuModel::TeslaK80),
        ] {
            let mode = assert_matches_full(&ev, &g, Perturbation::Cluster(&c2), &c2, &s, &pol);
            assert_eq!(mode, EvalMode::Repriced);
        }
    }

    /// Shrinking one device's memory below its peak changes no duration:
    /// the base evaluation answers it, with that device's OOM flag set,
    /// bit for bit as a full evaluation on the shrunk cluster. The base
    /// graph's schedule is the shrunk cluster's, task for task.
    #[test]
    fn unchanged_query_rederives_oom_for_new_capacities() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let peak = ev.base().report.memory.peak_bytes[2];
        assert!(!ev.base().oom);
        let devices = (c.devices().iter().enumerate())
            .map(|(i, d)| Device {
                memory_bytes: if i == 2 { peak - 1 } else { d.memory_bytes },
                ..*d
            })
            .collect();
        let tight = Cluster::new(c.servers().to_vec(), devices);
        // The equal-durations branch's condition holds.
        let mut repriced = TaskGraph::default();
        reprice_into(
            &g,
            &ev.tg,
            &ev.book,
            &tight,
            &GroundTruthCost,
            &mut repriced,
        )
        .unwrap();
        let durations =
            |tg: &TaskGraph| -> Vec<u64> { tg.iter().map(|(_, t)| t.duration.to_bits()).collect() };
        assert_eq!(durations(&repriced), durations(&ev.tg));

        let p = Perturbation::Cluster(&tight);
        let mode = assert_matches_full(&ev, &g, p, &tight, &s, &pol);
        assert_eq!(mode, EvalMode::Repriced);
        let (got, _) = ev.evaluate_perturbed(p);
        // Evaluations carry no task times: simulate both graphs here.
        let caps = tight.memory_capacities();
        let base_run = heterog_sim::simulate(&ev.tg, &caps, &pol);
        let full_tg = heterog_compile::compile(&g, &tight, &GroundTruthCost, &s);
        let want = heterog_sim::simulate(&full_tg, &caps, &pol);
        let times = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let (bs, ws) = (&base_run.schedule, &want.schedule);
        assert_eq!(
            got.report.schedule.makespan.to_bits(),
            ws.makespan.to_bits()
        );
        assert_eq!(times(&bs.start), times(&ws.start));
        assert_eq!(times(&bs.finish), times(&ws.finish));
        assert!(bitwise_eq(&got.report, &want));
        assert!(got.oom && got.report.memory.oom[2]);
        assert_eq!(got.report.memory.oom.iter().filter(|&&o| o).count(), 1);
    }

    /// An evaluator anchored on a compiled and simulated base answers
    /// every perturbation kind bit for bit as one that compiled the
    /// base itself, and counts no evaluation for the base.
    #[test]
    fn anchored_evaluator_matches_a_compiling_one() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let tg = heterog_compile::compile(&g, &c, &GroundTruthCost, &s);
        let report = heterog_sim::simulate(&tg, &c.memory_capacities(), &pol);
        let (anchored, stats) = crate::count_evaluations(|| {
            IncrementalEvaluator::anchored(&g, &GroundTruthCost, &c, &s, &pol, &tg, &report)
        });
        assert_eq!(stats.evaluations, 0);
        assert!(anchored.base().report.schedule.start.is_empty());
        let compiling = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        assert!(bitwise_eq(
            &anchored.base().report,
            &compiling.base().report
        ));
        let c2 = c.with_scaled_link(Some(LinkKind::Pcie), 0.5);
        let s2 = switch_comm(&s, CommMethod::Ps);
        let fifo = OrderPolicy::Fifo;
        for p in [
            Perturbation::Cluster(&c2),
            Perturbation::Strategy(&s2),
            Perturbation::Policy(&fifo),
            Perturbation::Strategy(&s),
        ] {
            let ((a, am), (b, bm)) = (
                anchored.evaluate_perturbed(p),
                compiling.evaluate_perturbed(p),
            );
            assert_eq!(am, bm);
            assert!(bitwise_eq(&a.report, &b.report), "{am:?}");
        }
    }

    #[test]
    fn strategy_flip_uses_staged_path() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let s2 = switch_comm(&s, CommMethod::Ps);
        let mode = assert_matches_full(&ev, &g, Perturbation::Strategy(&s2), &c, &s2, &pol);
        assert_eq!(mode, EvalMode::Spliced);
        // Same strategy again: served from the cached base.
        let (_, mode) = ev.evaluate_perturbed(Perturbation::Strategy(&s));
        assert_eq!(mode, EvalMode::Base);
    }

    #[test]
    fn bounded_evaluation_simulates_only_within_the_limit() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let s2 = switch_comm(&s, CommMethod::Ps);
        let (want, _) = ev.evaluate_perturbed(Perturbation::Strategy(&s2));
        let Bounded::Pruned(load) = ev.evaluate_bounded(Perturbation::Strategy(&s2), 0.0) else {
            panic!("a positive load exceeds a zero limit");
        };
        assert!(load > 0.0 && !load_exceeds(load, want.iteration_time));
        assert!(matches!(
            ev.evaluate_bounded(Perturbation::Strategy(&s2), load * 0.999),
            Bounded::Pruned(_)
        ));
        let Bounded::Evaluated(got, mode) =
            ev.evaluate_bounded(Perturbation::Strategy(&s2), want.iteration_time)
        else {
            panic!("a load within the candidate's own makespan is simulated");
        };
        assert_eq!(mode, EvalMode::Spliced);
        assert!(bitwise_eq(&got.report, &want.report));
        // The base itself is never bounded.
        assert!(matches!(
            ev.evaluate_bounded(Perturbation::Strategy(&s), 0.0),
            Bounded::Evaluated(_, EvalMode::Base)
        ));
    }

    #[test]
    fn bounded_simulation_prunes_within_the_busiest_load() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let s2 = switch_comm(&s, CommMethod::Ps);
        let p = Perturbation::Strategy(&s2);
        let Bounded::Pruned(load) = ev.evaluate_bounded(p, 0.0) else {
            panic!("a positive load exceeds a zero limit");
        };
        let it = ev.evaluate_perturbed(p).0.iteration_time;
        assert!(load_exceeds(it, load), "iteration time {it}, load {load}");
        // A limit the load stays within but the iteration time exceeds:
        // the simulation stops with a bound that exceeds the limit and is
        // at most the iteration time, and counts only as pruned.
        let (got, t) = heterog_telemetry::tally::tally(|| ev.evaluate_bounded(p, load));
        match got {
            Bounded::Pruned(b) => assert!(
                load_exceeds(b, load) && b <= it * (1.0 + 1e-12),
                "stopped at {b}, iteration time {it}, limit {load}"
            ),
            Bounded::Evaluated(..) => panic!("the iteration time {it} exceeds the limit {load}"),
        }
        assert_eq!((t.get(&PRUNED), t.get(&FAST), t.get(&FULL)), (1, 0, 0));
    }

    #[test]
    fn policy_perturbation_reorders_cached_graph() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let fifo = OrderPolicy::Fifo;
        let mode = assert_matches_full(&ev, &g, Perturbation::Policy(&fifo), &c, &s, &fifo);
        assert_eq!(mode, EvalMode::Reordered);
    }

    #[test]
    fn fast_paths_bypass_full_eval_accounting() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let c2 = c.with_scaled_link(Some(LinkKind::Pcie), 0.5);
        let ((_, mode), stats) =
            crate::count_evaluations(|| ev.evaluate_perturbed(Perturbation::Cluster(&c2)));
        assert!(mode.is_fast());
        assert_eq!(
            (
                stats.incremental_fast,
                stats.incremental_full,
                stats.evaluations
            ),
            (1, 0, 0),
            "a fast path counts once as fast and never as a full evaluation"
        );
    }

    #[test]
    fn perturbation_sequence_is_bit_identical() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let queries = [
            c.with_scaled_link(Some(LinkKind::Pcie), 0.8),
            c.with_device_model(DeviceId(1), GpuModel::TeslaV100),
            c.with_scaled_link(None, 1.5),
            c.with_device_model(DeviceId(6), GpuModel::TeslaK80),
            c.with_scaled_link(Some(LinkKind::NicIn), 0.3),
        ];
        for c2 in &queries {
            assert_matches_full(&ev, &g, Perturbation::Cluster(c2), c2, &s, &pol);
        }
        // Interleave a strategy flip and a policy flip; the cache must
        // stay coherent.
        let s2 = switch_comm(&s, CommMethod::Ps);
        assert_matches_full(&ev, &g, Perturbation::Strategy(&s2), &c, &s2, &pol);
        let fifo = OrderPolicy::Fifo;
        assert_matches_full(&ev, &g, Perturbation::Policy(&fifo), &c, &s, &fifo);
        for c2 in &queries {
            assert_matches_full(&ev, &g, Perturbation::Cluster(c2), c2, &s, &pol);
        }
    }

    #[test]
    fn shard_base_is_incremental_but_shard_dp_flip_is_not() {
        let (g, c, _) = setup();
        let s = Strategy::uniform(
            g.len(),
            heterog_compile::OpStrategy::shard_proportional(&c, 0),
        );
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let c2 = c.with_scaled_link(Some(LinkKind::Pcie), 0.5);
        let mode = assert_matches_full(&ev, &g, Perturbation::Cluster(&c2), &c2, &s, &pol);
        assert_eq!(
            mode,
            EvalMode::Repriced,
            "shard plans must reprice incrementally"
        );
        // A Shard->Dp flip changes the wiring (collectives appear and
        // vanish), not just aggregation: every op's segments are
        // re-lowered, which is a full compile — never a wrong answer.
        let dp = Strategy::proportional(g.len(), &c, CommMethod::AllReduce);
        let mode = assert_matches_full(&ev, &g, Perturbation::Strategy(&dp), &c, &dp, &pol);
        assert_eq!(mode, EvalMode::Full);
    }

    #[test]
    fn rebase_moves_the_anchor() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let mut ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let c2 = c.with_device_model(DeviceId(0), GpuModel::TeslaK80);
        ev.rebase(&c2, &s, &pol);
        let want = evaluate_with_policy(&g, &c2, &GroundTruthCost, &s, &pol);
        assert_eq!(
            ev.base().iteration_time.to_bits(),
            want.iteration_time.to_bits()
        );
        // Perturbing back to the original cluster from the new anchor.
        assert_matches_full(&ev, &g, Perturbation::Cluster(&c), &c, &s, &pol);
    }
}
