//! A task graph spliced from an incumbent's lowering equals a fresh
//! compile. The incumbents are the fast planner's on MobileNet-v2,
//! VGG-19 and Transformer-6L, plus uniform CP-PS and SH-CP deployments.
//! One-group moves of the planner's action space (all of them for one
//! model, a seeded sample of 100 for the others) are spliced with
//! `splice_into`, and the patch read over the incumbent's graph
//! (`PatchView`) is materialized and compared with `compile_logged` task
//! by task and row by row (every task's successors and predecessors,
//! each row in the order a compile adds its edges). The view itself
//! reads the materialized graph's tasks, rows and degrees, and
//! simulating it equals simulating the materialized graph bit for bit,
//! run to the end and stopped at the incumbent's makespan, stop bound
//! included. A subset also goes through
//! `IncrementalEvaluator::evaluate_perturbed`, whose report must equal
//! `evaluate_with_policy`'s bit for bit. For every move, the pre-pass
//! the evaluator derives from the incumbent's must equal the fresh
//! graph's: every task's upward rank bit for bit, and each GPU's
//! parameter bytes and activity. Every move's per-processor loads
//! priced with `splice_loads`, before any splice, must equal the fresh
//! compile's to within 1e-12 of its busiest load. A move whose segments
//! `splice_loads` finds all clean splices to the incumbent's own graph,
//! and a bounded evaluation answers it with the base evaluation.
//! Splices write rows rather than index an edge list, which checks only
//! the rows they write for a repeated edge; every lowering (plain,
//! pipelined and multi-iteration) adds each edge once, which indexing
//! checks.

use std::collections::HashSet;

use heterog_agent::{actions_to_strategy, ActionSpace, HeteroGPlanner};
use heterog_cluster::{paper_testbed_12gpu, paper_testbed_8gpu, Cluster, DeviceId};
use heterog_compile::{
    compile_iterations, compile_logged, compile_pipelined, compile_priced, resolve_placements,
    splice_into, splice_loads, CommMethod, OpStrategy, SpliceBase, SpliceScratch, Strategy,
};
use heterog_graph::{BenchmarkModel, Graph, ModelSpec};
use heterog_profile::GroundTruthCost;
use heterog_sched::{
    busiest_processor_load, upward_ranks, GraphRead, OrderPolicy, Patch, PatchView, Proc, TaskGraph,
};
use heterog_sim::{simulate_within, SimReport, SimScratch};
use heterog_strategies::{
    evaluate_with_policy, group_ops, grouping::avg_op_times, Bounded, EvalMode, Evaluation,
    Grouping, IncrementalEvaluator, Perturbation,
};
use heterog_telemetry::rng::SplitMix64;

/// Groups per model: few enough that a debug-profile planner run and
/// every move stay fast.
const GROUPS: usize = 8;

struct Case {
    g: Graph,
    cluster: Cluster,
    grouping: Grouping,
    actions: Vec<usize>,
}

impl Case {
    /// `spec` on the 8-GPU testbed with the planner's grouping; `actions`
    /// picks the incumbent's per-group actions (given the group count).
    fn new(spec: ModelSpec, actions: impl FnOnce(&Graph, &Cluster) -> Vec<usize>) -> Case {
        Case::grouped(spec, GROUPS, actions)
    }

    /// [`Case::new`] with `groups` groups.
    fn grouped(
        spec: ModelSpec,
        groups: usize,
        actions: impl FnOnce(&Graph, &Cluster) -> Vec<usize>,
    ) -> Case {
        let g = spec.build();
        let cluster = paper_testbed_8gpu();
        let grouping = group_ops(&g, &avg_op_times(&g, &cluster, &GroundTruthCost), groups);
        let actions = actions(&g, &cluster);
        assert_eq!(actions.len(), grouping.len());
        Case {
            g,
            cluster,
            grouping,
            actions,
        }
    }

    /// The fast planner's final incumbent on `spec`.
    fn planned(spec: ModelSpec) -> Case {
        Case::new(spec, |g, c| {
            let planner = HeteroGPlanner {
                groups: GROUPS,
                passes: 1,
                allow_mp: true,
            };
            planner.plan_detailed(g, c, &GroundTruthCost).2
        })
    }

    /// Every group on one action.
    fn uniform(spec: ModelSpec, action: usize) -> Case {
        Case::new(spec, |g, c| {
            let n = group_ops(g, &avg_op_times(g, c, &GroundTruthCost), GROUPS).len();
            vec![action; n]
        })
    }

    fn strategy(&self, actions: &[usize]) -> Strategy {
        actions_to_strategy(&self.g, &self.cluster, &self.grouping, actions)
    }

    /// Every one-group move `(group, action)` off the incumbent.
    fn moves(&self) -> Vec<(usize, usize)> {
        let space = ActionSpace::new(&self.cluster);
        (0..self.actions.len())
            .flat_map(|gi| (0..space.len()).map(move |a| (gi, a)))
            .filter(|&(gi, a)| self.actions[gi] != a)
            .collect()
    }

    /// A seeded sample of `n` distinct moves.
    fn sampled_moves(&self, n: usize, seed: u64) -> Vec<(usize, usize)> {
        let mut moves = self.moves();
        let mut rng = SplitMix64::new(seed);
        for i in (1..moves.len()).rev() {
            moves.swap(i, rng.below(i as u64 + 1) as usize);
        }
        moves.truncate(n);
        moves
    }

    fn moved(&self, (gi, a): (usize, usize)) -> Strategy {
        let mut trial = self.actions.clone();
        trial[gi] = a;
        self.strategy(&trial)
    }
}

fn assert_same_graph(spliced: &TaskGraph, fresh: &TaskGraph, what: &str) {
    assert_eq!(spliced.len(), fresh.len(), "{what}: task count");
    for id in fresh.task_ids() {
        let (a, b) = (spliced.task(id), fresh.task(id));
        let at = || format!("{what}: task {id} ({})", fresh.task_name(id));
        assert_eq!(
            spliced.task_name(id).to_string(),
            fresh.task_name(id).to_string(),
            "{}",
            at()
        );
        assert_eq!((a.kind, a.proc), (b.kind, b.proc), "{}", at());
        assert_eq!(a.duration.to_bits(), b.duration.to_bits(), "{}", at());
        assert_eq!(
            (a.bytes, a.param_bytes),
            (b.bytes, b.param_bytes),
            "{}",
            at()
        );
        assert_eq!(
            (a.origin(), a.batch_share),
            (b.origin(), b.batch_share),
            "{}",
            at()
        );
    }
    for id in fresh.task_ids() {
        assert_eq!(
            spliced.succs(id),
            fresh.succs(id),
            "{what}: successors of {id}"
        );
        assert_eq!(
            spliced.preds(id),
            fresh.preds(id),
            "{what}: predecessors of {id}"
        );
    }
}

/// Asserts `view` reads `tg`, the graph it materializes to: every task's
/// fields and rows, the degrees and the edge count; and that simulating
/// `view` equals simulating `tg` bit for bit, at an infinite limit and
/// at `limit`, where the same bound stops both or neither.
fn assert_view_reads_like(view: &PatchView<'_>, tg: &TaskGraph, limit: f64, what: &str) {
    assert_eq!(GraphRead::len(view), tg.len(), "{what}: task count");
    assert_eq!(view.num_edges(), tg.num_edges(), "{what}: edge count");
    let (mut in_degrees, mut out_degrees) = (tg.in_degrees(), tg.out_degrees());
    for id in tg.task_ids() {
        let (a, b) = (GraphRead::task(view, id), tg.task(id));
        assert_eq!(
            format!("{a:?} {}", view.task_name(id)),
            format!("{b:?} {}", tg.task_name(id)),
            "{what}: task {id}"
        );
        let succs: Vec<_> = GraphRead::succs(view, id).collect();
        let preds: Vec<_> = GraphRead::preds(view, id).collect();
        assert_eq!(succs, tg.succs(id), "{what}: successors of {id}");
        assert_eq!(preds, tg.preds(id), "{what}: predecessors of {id}");
        assert_eq!(
            [
                GraphRead::preds(view, id).len(),
                GraphRead::succs(view, id).len()
            ],
            [in_degrees.next(), out_degrees.next()].map(|d| d.unwrap() as usize),
            "{what}: degrees of {id}"
        );
    }
    let caps = vec![u64::MAX / 2; tg.num_gpus as usize];
    let policy = OrderPolicy::RankBased;
    let mut scratch = SimScratch::default();
    for limit in [f64::INFINITY, limit] {
        let (mut a, mut b) = (SimReport::default(), SimReport::default());
        let stop_a = simulate_within(view, None, &caps, &policy, limit, &mut scratch, &mut a);
        let stop_b = simulate_within(tg, None, &caps, &policy, limit, &mut scratch, &mut b);
        assert_eq!(
            stop_a.map(f64::to_bits),
            stop_b.map(f64::to_bits),
            "{what}: stop bound at limit {limit}"
        );
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{what}: simulation at limit {limit}"
        );
    }
}

/// Asserts the pre-pass `ev` derives for perturbation `p` equals a sweep
/// of `fresh`, the graph `p` compiles to: every upward rank bit for bit,
/// and per GPU the parameter bytes and whether any task runs there.
fn assert_derived_prepass(
    ev: &IncrementalEvaluator<'_, GroundTruthCost>,
    p: Perturbation<'_>,
    fresh: &TaskGraph,
    what: &str,
) {
    let spliced = ev.splice(p).expect("a strategy perturbation splices");
    assert_same_graph(&spliced.tg, fresh, what);
    let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(
        bits(&spliced.ranks) == bits(&upward_ranks(fresh)),
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
        spliced.param_bytes, params,
        "{what}: parameter bytes per GPU"
    );
    assert_eq!(spliced.active, active, "{what}: active GPUs");
}

fn assert_same_eval(got: &Evaluation, want: &Evaluation, what: &str) {
    assert_eq!(
        got.iteration_time.to_bits(),
        want.iteration_time.to_bits(),
        "{what}"
    );
    assert_eq!(got.oom, want.oom, "{what}");
    // `{:?}` prints each f64 in its shortest round-trip form: equal
    // strings mean equal bits.
    assert_eq!(
        format!("{:?}", got.report),
        format!("{:?}", want.report),
        "{what}"
    );
}

/// Splices every move in `moves` from `case`'s incumbent and compares
/// it with a fresh compile; every `eval_every`-th move is also
/// evaluated through the incremental evaluator. Returns the modes seen.
fn check(case: &Case, moves: &[(usize, usize)], eval_every: usize) -> Vec<EvalMode> {
    let (g, c, cost) = (&case.g, &case.cluster, &GroundTruthCost);
    let base_s = case.strategy(&case.actions);
    let (btg, bbook, log) = compile_logged(g, c, cost, &base_s);
    let base = SpliceBase {
        tg: &btg,
        book: &bbook,
        log: &log,
    };
    let policy = OrderPolicy::RankBased;
    let ev = IncrementalEvaluator::new(g, cost, c, &base_s, &policy);
    let makespan = ev.base().iteration_time;
    let (mut patch, mut tg, mut scratch) = <(Patch, TaskGraph, SpliceScratch)>::default();
    let mut base_loads = Vec::new();
    busiest_processor_load(&btg, &mut base_loads);
    let (mut loads, mut want_loads) = (Vec::new(), Vec::new());
    let mut modes = Vec::new();
    for (i, &mv) in moves.iter().enumerate() {
        let what = format!("{} move {mv:?}", g.name);
        let s2 = case.moved(mv);
        let placements = resolve_placements(g, c, &s2);
        loads.clone_from(&base_loads);
        splice_loads(g, c, cost, &placements, base, &mut loads, &mut scratch);
        splice_into(g, c, cost, &placements, base, &mut patch, &mut scratch);
        let view = PatchView::new(&btg, &patch);
        view.materialize(&mut tg);
        let (fresh, _, _) = compile_logged(g, c, cost, &s2);
        assert!(tg.is_sealed(), "{what}: a materialized patch is sealed");
        assert_same_graph(&tg, &fresh, &what);
        assert_view_reads_like(&view, &tg, makespan, &what);
        assert_derived_prepass(&ev, Perturbation::Strategy(&s2), &fresh, &what);
        let busiest = busiest_processor_load(&fresh, &mut want_loads);
        for (p, (got, want)) in loads.iter().zip(&want_loads).enumerate() {
            assert!(
                (got - want).abs() <= 1e-12 * busiest,
                "{what}: processor {p} load {got} priced before splicing, {want} compiled"
            );
        }
        if i % eval_every == 0 {
            let (got, mode) = ev.evaluate_perturbed(Perturbation::Strategy(&s2));
            assert_same_eval(&got, &evaluate_with_policy(g, c, cost, &s2, &policy), &what);
            modes.push(mode);
        }
    }
    modes
}

#[test]
fn every_move_of_the_mobilenet_incumbent_splices_exactly() {
    let case = Case::planned(ModelSpec::new(BenchmarkModel::MobileNetV2, 64));
    let moves = case.moves();
    assert!(moves.len() >= 100);
    let modes = check(&case, &moves, 4);
    assert!(modes.iter().all(|m| *m == EvalMode::Spliced), "{modes:?}");
}

#[test]
fn sampled_moves_of_the_vgg_incumbent_splice_exactly() {
    let case = Case::planned(ModelSpec::new(BenchmarkModel::Vgg19, 64));
    check(&case, &case.sampled_moves(100, 19), 4);
}

#[test]
fn sampled_moves_of_the_transformer_incumbent_splice_exactly() {
    let case = Case::planned(ModelSpec::with_layers(BenchmarkModel::Transformer, 96, 6));
    check(&case, &case.sampled_moves(100, 6), 4);
}

#[test]
fn sampled_moves_of_a_cp_ps_deployment_splice_exactly() {
    // Every aggregation is a PS round: moves that change an early
    // round's load make later clean rounds replay their choice.
    let m = paper_testbed_8gpu().num_devices();
    let case = Case::uniform(ModelSpec::new(BenchmarkModel::MobileNetV2, 64), m + 2);
    check(&case, &case.sampled_moves(100, 2), 4);
}

#[test]
fn sampled_moves_of_an_sh_cp_deployment_splice_exactly() {
    // Sharded ops wire through cached all-gathers and reduce-scatters.
    let m = paper_testbed_8gpu().num_devices();
    let case = Case::uniform(ModelSpec::new(BenchmarkModel::Vgg19, 64), m + 5);
    check(&case, &case.sampled_moves(100, 5), 4);
}

/// A seeded strategy of runs of ops (1 to 8 long) sharing one choice
/// among MP on any device, EV and CP with PS or AllReduce, and even or
/// proportional sharding.
fn mixed_strategy(num_ops: usize, cluster: &Cluster, rng: &mut SplitMix64) -> Strategy {
    let m = cluster.num_devices() as u64;
    let mut per_op = Vec::with_capacity(num_ops);
    while per_op.len() < num_ops {
        let s = match rng.below(m + 6) {
            0 => OpStrategy::even(cluster, CommMethod::Ps),
            1 => OpStrategy::even(cluster, CommMethod::AllReduce),
            2 => OpStrategy::proportional(cluster, CommMethod::Ps),
            3 => OpStrategy::proportional(cluster, CommMethod::AllReduce),
            4 => OpStrategy::shard_even(cluster, 0),
            5 => OpStrategy::shard_proportional(cluster, 0),
            d => OpStrategy::Mp(DeviceId((d - 6) as u32)),
        };
        let run = (1 + rng.below(8) as usize).min(num_ops - per_op.len());
        per_op.extend(std::iter::repeat_n(s, run));
    }
    Strategy::from_per_op(per_op)
}

/// `tg` indexes without a repeated edge, and its edge count is the
/// number of distinct pairs.
fn assert_each_edge_once(tg: &mut TaskGraph, what: &str) {
    tg.build_index();
    let distinct: HashSet<_> = tg
        .task_ids()
        .flat_map(|s| tg.succs(s).iter().map(move |&d| (s, d)))
        .collect();
    assert_eq!(tg.num_edges(), distinct.len(), "{what}: repeated edges");
}

#[test]
fn lowering_emits_each_edge_once() {
    let cost = &GroundTruthCost;
    let mut rng = SplitMix64::new(23);
    for cluster in [paper_testbed_8gpu(), paper_testbed_12gpu()] {
        let m = cluster.num_devices();
        for model in BenchmarkModel::all() {
            let g = ModelSpec::new(model, model.default_batch_8gpu()).build();
            for k in 0..2 {
                let s = mixed_strategy(g.len(), &cluster, &mut rng);
                let what = format!("{} on {m} GPUs, strategy {k}", g.name);
                assert_each_edge_once(&mut compile_priced(&g, &cluster, cost, &s).0, &what);
            }
            let s = mixed_strategy(g.len(), &cluster, &mut rng);
            for micros in [2, 4] {
                let what = format!("{} on {m} GPUs, {micros} micro-batches", g.name);
                let mut tg = compile_pipelined(&g, &cluster, cost, &s, micros);
                assert_each_edge_once(&mut tg, &what);
            }
            let what = format!("{} on {m} GPUs, 2 iterations", g.name);
            let mut tg = compile_iterations(&g, &cluster, cost, &s, 2);
            assert_each_edge_once(&mut tg, &what);
        }
    }
}

/// Checks every move in `moves` whose lowering segments `splice_loads`
/// finds all clean: the splice equals the incumbent's own graph task for
/// task and row for row, and a bounded
/// group move answers it with the base evaluation, bit for bit a full
/// evaluation of the moved strategy. Returns those moves.
fn check_all_clean(case: &Case, moves: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let (g, c, cost) = (&case.g, &case.cluster, &GroundTruthCost);
    let base_s = case.strategy(&case.actions);
    let (btg, bbook, log) = compile_logged(g, c, cost, &base_s);
    let base = SpliceBase {
        tg: &btg,
        book: &bbook,
        log: &log,
    };
    let policy = OrderPolicy::RankBased;
    let ev = IncrementalEvaluator::new(g, cost, c, &base_s, &policy);
    let space = ActionSpace::new(c);
    let (mut patch, mut tg, mut scratch) = <(Patch, TaskGraph, SpliceScratch)>::default();
    let (mut base_loads, mut loads) = (Vec::new(), Vec::new());
    busiest_processor_load(&btg, &mut base_loads);
    let mut clean_moves = Vec::new();
    for &(gi, a) in moves {
        let what = format!("{} move {:?}", g.name, (gi, a));
        let s2 = case.moved((gi, a));
        let placements = resolve_placements(g, c, &s2);
        loads.clone_from(&base_loads);
        if splice_loads(g, c, cost, &placements, base, &mut loads, &mut scratch) < log.len() {
            continue;
        }
        clean_moves.push((gi, a));
        splice_into(g, c, cost, &placements, base, &mut patch, &mut scratch);
        let view = PatchView::new(&btg, &patch);
        view.materialize(&mut tg);
        assert_same_graph(&tg, &btg, &what);
        assert_view_reads_like(&view, &tg, ev.base().iteration_time, &what);
        let to = space.decode(a, c);
        let ops = &case.grouping.members[gi];
        match ev.evaluate_bounded(Perturbation::Group { ops, to: &to }, f64::MAX) {
            Bounded::Evaluated(got, EvalMode::Base) => {
                assert_same_eval(&got, &evaluate_with_policy(g, c, cost, &s2, &policy), &what)
            }
            other => panic!("{what}: {other:?}"),
        }
    }
    clean_moves
}

#[test]
fn moves_the_lowering_ignores_answer_with_the_base_evaluation() {
    // VGG-19 on uniform CP-AR at the planner's default 48 groups, the
    // search's start: flipping a group without parameter gradients (the
    // first) to CP-PS changes no lowering segment.
    let m = paper_testbed_8gpu().num_devices();
    let (cp_ps, cp_ar) = (m + 2, m + 3);
    let spec = ModelSpec::new(BenchmarkModel::Vgg19, 64);
    let vgg = Case::grouped(spec, 48, |g, c| {
        vec![cp_ar; group_ops(g, &avg_op_times(g, c, &GroundTruthCost), 48).len()]
    });
    assert!(check_all_clean(&vgg, &vgg.moves()).contains(&(0, cp_ps)));
    for spec in [
        ModelSpec::new(BenchmarkModel::MobileNetV2, 64),
        ModelSpec::with_layers(BenchmarkModel::Transformer, 96, 6),
    ] {
        let case = Case::planned(spec);
        check_all_clean(&case, &case.moves());
    }
}
