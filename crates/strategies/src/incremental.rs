//! Incremental strategy evaluation: answer "what if the deployment
//! changed *slightly*?" without paying for a fresh compile + simulate.
//!
//! [`IncrementalEvaluator`] pins one *base* deployment (graph, cluster,
//! strategy, order policy), compiles it once with a
//! [`heterog_compile::PriceBook`], and builds a
//! [`heterog_sim::IncrementalSim`] over the result. Perturbed
//! deployments are then evaluated by the cheapest sound path:
//!
//! | [`Perturbation`]        | fast path                                   |
//! |-------------------------|---------------------------------------------|
//! | `Policy`                | re-simulate the cached task graph (no compile) |
//! | `Cluster`               | [`reprice_into`] + [`IncrementalSim::resim`] (the base report when no duration changed, else one simulation) |
//! | `Strategy`              | [`splice_into`] (copy the base's clean lowering segments, re-lower the dirty ones) + simulate |
//! | `ClusterAndStrategy`    | splice on the base cluster, then re-price onto the new cluster |
//! | any, through [`IncrementalEvaluator::evaluate_bounded`] | as above, but a spliced graph whose busiest processor already carries more work than the limit is not simulated: [`Bounded::Pruned`] |
//!
//! A strategy change resolves the candidate's placements once and
//! diffs them against the base's: an op's replica tasks, the wiring of
//! its out-edges and its gradient aggregation are re-lowered only when
//! a placement they read moved (see `heterog_compile::lower`).
//!
//! Every fast path is **bit-identical** to the full
//! [`evaluate_with_policy`] it replaces — the unit tests compare all
//! report fields by bit pattern. Whenever a precondition fails (cluster
//! structure changed, the greedy PS chooser would flip under a new
//! cluster), or a splice could reuse no segment, the evaluator falls
//! back to the full pipeline and reports [`EvalMode::Full`].
//!
//! Fast-path evaluations intentionally do **not** count toward
//! [`crate::eval_stats`]'s `evaluations`/`eval_seconds` (those meter
//! full compile+simulate runs); they are tallied separately in
//! `incremental_fast` / `incremental_full` so report footers can show
//! the hit rate. Pruned candidates count in neither; they are tallied
//! by the gated `heterog_strategies_pruned_evals_total` counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use heterog_cluster::Cluster;
use heterog_compile::{
    compile_logged, reprice_into, resolve_placements, splice_into, structure_compatible, PriceBook,
    SegmentLog, SpliceBase, SpliceScratch, Strategy,
};
use heterog_graph::Graph;
use heterog_profile::CostEstimator;
use heterog_sched::{busiest_processor_load, OrderPolicy, TaskGraph};
use heterog_sim::{simulate_into, IncrementalSim, ResimOutcome, SimReport, SimScratch};
use heterog_telemetry::lock;

use crate::evaluate::{count_full_evaluation, evaluate_with_policy, record_evaluation, Evaluation};

static INCREMENTAL_EVALS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_strategies_incremental_evals_total",
    "Perturbed evaluations served by an incremental fast path",
);

static PRUNED_EVALS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_strategies_pruned_evals_total",
    "Perturbed evaluations left unsimulated because their busiest processor's load exceeded the limit",
);

static INCREMENTAL_FALLBACKS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_strategies_incremental_fallbacks_total",
    "Perturbed evaluations that fell back to a full compile + simulate",
);

// Always-on process totals (like EVAL_COUNT in `evaluate`): explain
// footers surface the incremental hit rate unconditionally.
static INC_FAST: AtomicU64 = AtomicU64::new(0);
static INC_FULL: AtomicU64 = AtomicU64::new(0);

/// (fast-path evals, full fallbacks) across the whole process.
pub(crate) fn incremental_totals() -> (u64, u64) {
    (
        INC_FAST.load(Ordering::Relaxed),
        INC_FULL.load(Ordering::Relaxed),
    )
}

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
    /// Same deployment under a different execution-order policy.
    Policy(&'p OrderPolicy),
    /// Cluster and strategy both changed — elastic repair candidates.
    ClusterAndStrategy(&'p Cluster, &'p Strategy),
}

/// Which path served an [`IncrementalEvaluator::evaluate_perturbed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// The perturbation equals the base deployment; the cached base
    /// evaluation was returned.
    Base,
    /// Re-priced task graph, answered by [`IncrementalSim::resim`]: the
    /// base report when no task duration changed
    /// ([`ResimOutcome::Unchanged`]), else one simulation of the
    /// re-priced graph ([`ResimOutcome::Replayed`]), with no compile.
    Incremental(ResimOutcome),
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
    /// Not simulated: the spliced task graph's busiest processor carries
    /// this much work, which [`load_exceeds`] the limit. The iteration
    /// time is at least this load.
    Pruned(f64),
}

impl Bounded {
    fn evaluated(eval: Evaluation, mode: EvalMode) -> Bounded {
        Bounded::Evaluated(Box::new(eval), mode)
    }
}

/// Relative slack on a busiest-processor load before it counts as
/// exceeding a limit. The load is summed in task order and the
/// simulator's makespan in schedule order; on the task graphs here the
/// two orders differ by ~1e-12 relative.
const LOAD_MARGIN: f64 = 1e-9;

/// True when a task graph whose busiest processor carries `load` has an
/// iteration time strictly above `limit`, float summation order
/// included.
pub fn load_exceeds(load: f64, limit: f64) -> bool {
    load * (1.0 - LOAD_MARGIN) > limit
}

/// Patch buffers: the spliced and re-priced task graphs, the spliced
/// graph's price book, the splice and simulator scratch, and the report
/// each perturbed evaluation writes into, plus the per-processor load a
/// bounded one sums. An evaluator pools them, one per thread evaluating
/// through it at once, so a `Sync` evaluator serves pool workers without
/// sharing a buffer, the per-candidate path stops allocating once they
/// have grown, and their memory goes with the evaluator.
#[derive(Debug, Default)]
struct PatchScratch {
    tg: TaskGraph,
    spliced: TaskGraph,
    book: PriceBook,
    splice: SpliceScratch,
    sim: SimScratch,
    report: SimReport,
    load: Vec<f64>,
}

fn eval_of(report: &SimReport) -> Evaluation {
    Evaluation {
        iteration_time: report.iteration_time,
        oom: report.memory.any_oom(),
        report: report.clone(),
    }
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
    sim: IncrementalSim,
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
        let capacities = cluster.memory_capacities();
        let mut ps = patches.pop().unwrap_or_default();
        let sim = IncrementalSim::new(tg, &capacities, policy.clone(), &mut ps.sim);
        patches.push(ps);
        let base = eval_of(sim.base_report());
        record_evaluation(started.elapsed().as_nanos() as u64);
        heterog_events::emit_with(|| heterog_events::EventKind::StrategyEvaluated {
            makespan: base.iteration_time,
            oom: base.oom,
        });
        IncrementalEvaluator {
            g,
            cost,
            cluster: cluster.clone(),
            strategy: strategy.clone(),
            policy: policy.clone(),
            capacities,
            book,
            log,
            sim,
            base,
            patches: Mutex::new(patches),
        }
    }

    /// The cached evaluation of the base deployment.
    pub fn base(&self) -> &Evaluation {
        &self.base
    }

    /// The base cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The base strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The base order policy.
    pub fn policy(&self) -> &OrderPolicy {
        &self.policy
    }

    /// Re-anchors the evaluator on a new base deployment (full compile +
    /// simulate). Elastic training calls this after committing a repair.
    pub fn rebase(&mut self, cluster: &Cluster, strategy: &Strategy, policy: &OrderPolicy) {
        let patches = std::mem::take(&mut *lock(&self.patches));
        *self = Self::build(self.g, self.cost, cluster, strategy, policy, patches);
    }

    /// Runs `f` on an idle patch buffer (a new one when every pooled
    /// buffer is in use), then returns the buffer to the pool.
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

    /// [`IncrementalEvaluator::evaluate_perturbed`], unless the spliced
    /// task graph's busiest processor, GPU or link, carries work that
    /// [`load_exceeds`] `limit`: then the graph is not simulated and the
    /// load is returned instead. A pruned candidate counts in neither
    /// `incremental_fast` nor `incremental_full` and emits no
    /// `StrategyEvaluated` event. Only spliced paths are bounded; every
    /// other path evaluates as `evaluate_perturbed` does.
    pub fn evaluate_bounded(&self, p: Perturbation<'_>, limit: f64) -> Bounded {
        let _span = heterog_telemetry::span("evaluate_bounded");
        self.evaluate_within(p, limit)
    }

    fn evaluate_within(&self, p: Perturbation<'_>, limit: f64) -> Bounded {
        let out = self.dispatch(p, limit);
        match &out {
            Bounded::Pruned(_) => PRUNED_EVALS.inc(),
            Bounded::Evaluated(eval, mode) if mode.is_fast() => {
                INC_FAST.fetch_add(1, Ordering::Relaxed);
                INCREMENTAL_EVALS.inc();
                // `Full` already emitted inside `evaluate_with_policy`.
                heterog_events::emit_with(|| heterog_events::EventKind::StrategyEvaluated {
                    makespan: eval.iteration_time,
                    oom: eval.oom,
                });
            }
            Bounded::Evaluated(..) => {
                INC_FULL.fetch_add(1, Ordering::Relaxed);
                INCREMENTAL_FALLBACKS.inc();
            }
        }
        out
    }

    fn dispatch(&self, p: Perturbation<'_>, limit: f64) -> Bounded {
        match p {
            Perturbation::Policy(p2) => self.with_patch(|ps| {
                simulate_into(
                    self.sim.base_graph(),
                    &self.capacities,
                    p2,
                    &mut ps.sim,
                    &mut ps.report,
                );
                Bounded::evaluated(eval_of(&ps.report), EvalMode::Reordered)
            }),
            Perturbation::Cluster(c2) => self.eval_cluster(c2),
            Perturbation::Strategy(s2) => {
                if *s2 == self.strategy {
                    return Bounded::evaluated(self.base.clone(), EvalMode::Base);
                }
                self.eval_spliced(&self.cluster, s2, false, limit)
                    .unwrap_or_else(|| self.full(&self.cluster, s2))
            }
            Perturbation::ClusterAndStrategy(c2, s2) => {
                if *s2 == self.strategy {
                    return self.eval_cluster(c2);
                }
                if structure_compatible(&self.cluster, c2) {
                    if let Some(r) = self.eval_spliced(c2, s2, true, limit) {
                        return r;
                    }
                }
                self.full(c2, s2)
            }
        }
    }

    fn eval_cluster(&self, c2: &Cluster) -> Bounded {
        if structure_compatible(&self.cluster, c2) {
            let served = self.with_patch(|ps| {
                match reprice_into(
                    self.g,
                    self.sim.base_graph(),
                    &self.book,
                    c2,
                    self.cost,
                    &mut ps.tg,
                ) {
                    Ok(()) => {
                        let caps = c2.memory_capacities();
                        let outcome = self.sim.resim(&ps.tg, &caps, &mut ps.sim, &mut ps.report);
                        Some(Bounded::evaluated(
                            eval_of(&ps.report),
                            EvalMode::Incremental(outcome),
                        ))
                    }
                    Err(_) => None,
                }
            });
            if let Some(r) = served {
                return r;
            }
        }
        self.full(c2, &self.strategy)
    }

    /// Splices `s2`'s task graph from the base lowering and simulates
    /// it, unless its busiest processor's load exceeds `limit`. With
    /// `reprice`, the splice runs on the base cluster and the result is
    /// re-priced onto `c2` (structure-compatible with it); `None` when
    /// the greedy PS chooser would pick differently on `c2`. A splice
    /// that reuses no segment was a full compile and, when simulated, is
    /// counted as one.
    fn eval_spliced(
        &self,
        c2: &Cluster,
        s2: &Strategy,
        reprice: bool,
        limit: f64,
    ) -> Option<Bounded> {
        let started = Instant::now();
        let placements = resolve_placements(self.g, c2, s2);
        let base = SpliceBase {
            tg: self.sim.base_graph(),
            book: &self.book,
            log: &self.log,
        };
        self.with_patch(|ps| {
            let PatchScratch {
                tg,
                spliced,
                book,
                splice,
                sim,
                report,
                load,
            } = ps;
            let c2_caps;
            let (reused, caps): (usize, &[u64]) = if reprice {
                let reused = splice_into(
                    self.g,
                    &self.cluster,
                    self.cost,
                    &placements,
                    base,
                    spliced,
                    Some(book),
                    splice,
                );
                reprice_into(self.g, spliced, book, c2, self.cost, tg).ok()?;
                c2_caps = c2.memory_capacities();
                (reused, &c2_caps)
            } else {
                let reused = splice_into(
                    self.g,
                    &self.cluster,
                    self.cost,
                    &placements,
                    base,
                    tg,
                    None,
                    splice,
                );
                (reused, &self.capacities)
            };
            if limit < f64::INFINITY {
                let busiest = busiest_processor_load(tg, load);
                if load_exceeds(busiest, limit) {
                    return Some(Bounded::Pruned(busiest));
                }
            }
            tg.build_index();
            simulate_into(tg, caps, &self.policy, sim, report);
            let eval = eval_of(report);
            if reused == 0 {
                count_full_evaluation(started, &eval);
                return Some(Bounded::evaluated(eval, EvalMode::Full));
            }
            Some(Bounded::evaluated(eval, EvalMode::Spliced))
        })
    }

    fn full(&self, cluster: &Cluster, strategy: &Strategy) -> Bounded {
        Bounded::evaluated(
            evaluate_with_policy(self.g, cluster, self.cost, strategy, &self.policy),
            EvalMode::Full,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{strategy_without_device, switch_comm};
    use heterog_cluster::{paper_testbed_8gpu, DeviceId, GpuModel, LinkKind};
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
            assert!(
                matches!(mode, EvalMode::Incremental(_)),
                "expected incremental, got {mode:?}"
            );
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
    fn policy_perturbation_reorders_cached_graph() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let fifo = OrderPolicy::Fifo;
        let mode = assert_matches_full(&ev, &g, Perturbation::Policy(&fifo), &c, &s, &fifo);
        assert_eq!(mode, EvalMode::Reordered);
    }

    #[test]
    fn combined_perturbation_chains_staged_and_reprice() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let c2 = c.with_scaled_link(Some(LinkKind::NicOut), 0.25);
        let s2 = switch_comm(&s, CommMethod::Ps);
        let mode = assert_matches_full(
            &ev,
            &g,
            Perturbation::ClusterAndStrategy(&c2, &s2),
            &c2,
            &s2,
            &pol,
        );
        assert!(
            matches!(mode, EvalMode::Spliced | EvalMode::Full),
            "got {mode:?}"
        );
    }

    #[test]
    fn structure_change_falls_back_to_full() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let c2 = c.without_device(DeviceId(7));
        let s2 = strategy_without_device(&s, 7);
        let mode = assert_matches_full(
            &ev,
            &g,
            Perturbation::ClusterAndStrategy(&c2, &s2),
            &c2,
            &s2,
            &pol,
        );
        assert_eq!(mode, EvalMode::Full);
    }

    #[test]
    fn fast_paths_bypass_full_eval_accounting() {
        let (g, c, s) = setup();
        let pol = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &pol);
        let c2 = c.with_scaled_link(Some(LinkKind::Pcie), 0.5);
        let before = crate::eval_stats();
        let (fast_before, _) = incremental_totals();
        let (_, mode) = ev.evaluate_perturbed(Perturbation::Cluster(&c2));
        assert!(mode.is_fast());
        let after = crate::eval_stats();
        let (fast_after, _) = incremental_totals();
        assert!(fast_after > fast_before);
        assert!(after.incremental_fast > before.incremental_fast);
        // Other tests run concurrently, so only check this thread did
        // not add a *full* evaluation through the fast path: the
        // incremental counter moved without a matching fallback.
        assert_eq!(
            after.incremental_full, before.incremental_full,
            "fast path must not fall back"
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
        assert!(
            matches!(mode, EvalMode::Incremental(_)),
            "shard plans must reprice incrementally, got {mode:?}"
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
