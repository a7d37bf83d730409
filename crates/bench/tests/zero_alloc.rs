//! Asserts the schedule+simulate hot path, under every order policy,
//! the search's bounded simulation, stopped or run to the end, bounded
//! group moves the simulation stops, one re-lowering nothing and two
//! re-lowering gradient aggregations (into PS rounds and into
//! AllReduces), and the clone of a graph into a warm one that
//! re-pricing makes, are allocation-free after warm-up — the property
//! the evaluation engine's scratch reuse exists to provide — and that a
//! thread keeps one simulator scratch.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`. It counts each thread's allocations
//! apart, so tests running at once do not perturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use heterog_cluster::{paper_testbed_8gpu, LinkKind};
use heterog_compile::{compile, CommMethod, OpStrategy, Strategy};
use heterog_graph::{BenchmarkModel, ModelSpec, OpId};
use heterog_profile::GroundTruthCost;
use heterog_sched::{list_schedule_into, OrderPolicy, Schedule, ScheduleScratch, TaskGraph};
use heterog_sim::{simulate, simulate_into, simulate_within, SimReport, SimScratch};
use heterog_strategies::{Bounded, EvalMode, IncrementalEvaluator, Perturbation};

thread_local! {
    /// This thread's allocations so far. Const-initialized and without
    /// a destructor, so reading it allocates nothing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns it with the allocations it made on this thread.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// Every order policy by name, with `Priorities` drawn from a few values
/// so that ties occur, for a task graph of `n` tasks.
fn policies(n: usize) -> [(&'static str, OrderPolicy); 3] {
    let priorities = (0..n).map(|i| (i % 7) as f64).collect();
    [
        ("rank-based", OrderPolicy::RankBased),
        ("fifo", OrderPolicy::Fifo),
        ("priorities", OrderPolicy::Priorities(priorities)),
    ]
}

#[test]
fn schedule_and_simulate_are_allocation_free_after_warmup() {
    // Telemetry stays disabled (the default): the no-op recorder must
    // not allocate either, or planners would pay per-eval overhead.
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    let cluster = paper_testbed_8gpu();
    let s = Strategy::even(g.len(), &cluster, CommMethod::AllReduce);
    let tg = compile(&g, &cluster, &GroundTruthCost, &s);
    let caps = cluster.memory_capacities();

    // A second graph for the alternating check below.
    let g2 = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
    let s2 = Strategy::even(g2.len(), &cluster, CommMethod::Ps);
    let tg2 = compile(&g2, &cluster, &GroundTruthCost, &s2);

    for ((name, policy), (_, policy2)) in policies(tg.len()).iter().zip(&policies(tg2.len())) {
        let mut sched_scratch = ScheduleScratch::default();
        let mut sched_out = Schedule::default();
        let mut sim_scratch = SimScratch::default();
        let mut sim_out = SimReport::default();

        // Warm up: the first call on the largest graph sizes every buffer.
        list_schedule_into(&tg, policy, &mut sched_scratch, &mut sched_out);
        simulate_into(&tg, &caps, policy, &mut sim_scratch, &mut sim_out);

        let (sched_allocs, ()) =
            allocs_during(|| list_schedule_into(&tg, policy, &mut sched_scratch, &mut sched_out));
        assert_eq!(
            sched_allocs, 0,
            "list_schedule_into under {name} allocated {sched_allocs} times after warm-up"
        );

        let (sim_allocs, ()) =
            allocs_during(|| simulate_into(&tg, &caps, policy, &mut sim_scratch, &mut sim_out));
        assert_eq!(
            sim_allocs, 0,
            "simulate_into under {name} allocated {sim_allocs} times after warm-up"
        );

        // The search's bounded simulation, stopped below the makespan
        // and run to the end at it. A finite limit needs the rank sweep
        // that FIFO and explicit priorities skip, so one bounded call
        // warms its buffer first.
        let makespan = sim_out.iteration_time;
        for (limit, stops) in [(makespan * (1.0 - 2e-9), true), (makespan, false)] {
            simulate_within(
                &tg,
                None,
                &caps,
                policy,
                limit,
                &mut sim_scratch,
                &mut sim_out,
            );
            let (bounded_allocs, stopped) = allocs_during(|| {
                simulate_within(
                    &tg,
                    None,
                    &caps,
                    policy,
                    limit,
                    &mut sim_scratch,
                    &mut sim_out,
                )
            });
            assert_eq!(stopped.is_some(), stops, "{name} at limit {limit}");
            assert_eq!(
                bounded_allocs, 0,
                "simulate_within under {name} at limit {limit} allocated {bounded_allocs} times after warm-up"
            );
        }

        // Steady state across *different* task graphs (what a search's
        // miss path looks like): after one adapting pass over each graph
        // — ready heaps grow to the running-max depth, which is
        // data-dependent — alternating between them stays at zero.
        simulate_into(&tg2, &caps, policy2, &mut sim_scratch, &mut sim_out);
        let (alternating_allocs, ()) = allocs_during(|| {
            simulate_into(&tg, &caps, policy, &mut sim_scratch, &mut sim_out);
            simulate_into(&tg2, &caps, policy2, &mut sim_scratch, &mut sim_out);
            simulate_into(&tg, &caps, policy, &mut sim_scratch, &mut sim_out);
        });
        assert_eq!(
            alternating_allocs, 0,
            "alternating graphs under {name} allocated {alternating_allocs} times after warm-up"
        );

        assert!(sim_out.iteration_time > 0.0);
    }
}

/// `s` with every op in `ops` re-decided as `to`: the strategy a group
/// move evaluates.
fn moved(s: &Strategy, ops: &[OpId], to: &OpStrategy) -> Strategy {
    let mut out = s.clone();
    for op in ops {
        out.per_op[op.index()] = to.clone();
    }
    out
}

/// Re-pricing a cluster what-if clones the base graph into a warm
/// scratch graph: once its buffers have grown, the clone allocates
/// nothing.
#[test]
fn cloning_a_graph_into_a_warm_one_is_allocation_free() {
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    let cluster = paper_testbed_8gpu();
    let s = Strategy::even(g.len(), &cluster, CommMethod::AllReduce);
    let tg = compile(&g, &cluster, &GroundTruthCost, &s);
    let mut warm = TaskGraph::default();
    warm.clone_from(&tg);
    let (allocs, ()) = allocs_during(|| warm.clone_from(&tg));
    assert_eq!(
        allocs, 0,
        "cloning a compiled graph into a warm one allocated {allocs} times"
    );
    assert_eq!((warm.len(), warm.num_edges()), (tg.len(), tg.num_edges()));
}

/// A search's bounded group move whose spliced graph `simulate_within`
/// stops: after warm-up, resolving the moved placements, pricing the
/// busiest load, splicing and the stopped simulation reuse the
/// evaluator's per-candidate buffers and the thread's simulator scratch,
/// and allocate nothing. The move flips the communication method of
/// every op without parameters (their gradients, placed with them, are
/// no parameter gradients), which no lowering segment reads, so the
/// splice copies the base graph whole and re-lowers no segment:
/// re-lowering one allocates its own temporaries (a gradient
/// aggregation's per-device task lists, for one), which are not
/// per-candidate buffers.
#[test]
fn bounded_group_move_stopped_by_the_simulation_is_allocation_free() {
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    let cluster = paper_testbed_8gpu();
    let cost = &GroundTruthCost;
    let s = Strategy::even(g.len(), &cluster, CommMethod::AllReduce);
    let policy = OrderPolicy::RankBased;
    let ev = IncrementalEvaluator::new(&g, cost, &cluster, &s, &policy);
    let ops: Vec<OpId> = (g.iter())
        .filter(|(_, n)| !n.has_params())
        .map(|(id, _)| id)
        .collect();
    let to = OpStrategy::even(&cluster, CommMethod::Ps);
    let p = Perturbation::Group { ops: &ops, to: &to };
    // The busiest load, which the simulation then stops beyond: a
    // load prune returns the load itself, a stopped simulation a larger
    // bound.
    let Bounded::Pruned(load) = ev.evaluate_bounded(p, 0.0) else {
        panic!("a positive load exceeds a zero limit");
    };
    let stopped = |out: &Bounded| matches!(out, Bounded::Pruned(bound) if *bound > load);
    for _ in 0..2 {
        assert!(stopped(&ev.evaluate_bounded(p, load)));
    }
    let (allocs, out) = allocs_during(|| ev.evaluate_bounded(p, load));
    assert!(stopped(&out));
    assert_eq!(
        allocs, 0,
        "a stopped bounded group move allocated {allocs} times after warm-up"
    );
}

/// A bounded group move that re-lowers gradient aggregations and whose
/// spliced graph `simulate_within` stops: every MobileNet-v2 op with
/// parameters moves from even AllReduce to even PS. Their replicas stay
/// where they were, so the splice copies every replica and wiring
/// segment and re-lowers each moved gradient's aggregation as a PS
/// round. After warm-up, the load pass, the splice with its per-device
/// aggregation lists and written rows, the derived ranks and memory
/// pre-pass, and the stopped simulation allocate nothing.
#[test]
fn bounded_group_move_relowering_aggregations_is_allocation_free() {
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    let cluster = paper_testbed_8gpu();
    let cost = &GroundTruthCost;
    let s = Strategy::even(g.len(), &cluster, CommMethod::AllReduce);
    let policy = OrderPolicy::RankBased;
    let ev = IncrementalEvaluator::new(&g, cost, &cluster, &s, &policy);
    let ops: Vec<OpId> = (g.iter())
        .filter(|(_, n)| n.has_params())
        .map(|(id, _)| id)
        .collect();
    let to = OpStrategy::even(&cluster, CommMethod::Ps);
    let p = Perturbation::Group { ops: &ops, to: &to };
    // The move re-lowers aggregations into PS rounds.
    let tg = compile(&g, &cluster, cost, &moved(&s, &ops, &to));
    let rounds = (tg.task_ids())
        .filter(|&t| tg.task_name(t).to_string().contains("/ps_agg@"))
        .count();
    assert!(rounds > 0, "no aggregation became a PS round");
    let Bounded::Pruned(load) = ev.evaluate_bounded(p, 0.0) else {
        panic!("a positive load exceeds a zero limit");
    };
    let stopped = |out: &Bounded| matches!(out, Bounded::Pruned(bound) if *bound > load);
    for _ in 0..2 {
        assert!(stopped(&ev.evaluate_bounded(p, load)));
    }
    let (allocs, out) = allocs_during(|| ev.evaluate_bounded(p, load));
    assert!(stopped(&out));
    assert_eq!(
        allocs, 0,
        "a stopped group move re-lowering {rounds} aggregations allocated {allocs} times after warm-up"
    );
}

/// A bounded group move that re-lowers gradient aggregations into
/// AllReduces and whose spliced graph `simulate_within` stops: every
/// MobileNet-v2 op with parameters moves from even PS to even
/// AllReduce. After warm-up, pricing each AllReduce (its hierarchical
/// estimate's server leaders), emitting its link tasks, the splice's
/// written rows, the derived pre-pass and the stopped simulation
/// allocate nothing.
#[test]
fn bounded_group_move_relowering_allreduces_is_allocation_free() {
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    let cluster = paper_testbed_8gpu();
    let cost = &GroundTruthCost;
    let s = Strategy::even(g.len(), &cluster, CommMethod::Ps);
    let policy = OrderPolicy::RankBased;
    let ev = IncrementalEvaluator::new(&g, cost, &cluster, &s, &policy);
    let ops: Vec<OpId> = (g.iter())
        .filter(|(_, n)| n.has_params())
        .map(|(id, _)| id)
        .collect();
    let to = OpStrategy::even(&cluster, CommMethod::AllReduce);
    let p = Perturbation::Group { ops: &ops, to: &to };
    // The move re-lowers aggregations into AllReduces.
    let tg = compile(&g, &cluster, cost, &moved(&s, &ops, &to));
    let collectives = (tg.task_ids())
        .filter(|&t| tg.task(t).kind == heterog_graph::OpKind::NcclAllReduce)
        .count();
    assert!(collectives > 0, "no aggregation became an AllReduce");
    let Bounded::Pruned(load) = ev.evaluate_bounded(p, 0.0) else {
        panic!("a positive load exceeds a zero limit");
    };
    let stopped = |out: &Bounded| matches!(out, Bounded::Pruned(bound) if *bound > load);
    for _ in 0..2 {
        assert!(stopped(&ev.evaluate_bounded(p, load)));
    }
    let (allocs, out) = allocs_during(|| ev.evaluate_bounded(p, load));
    assert!(stopped(&out));
    assert_eq!(
        allocs, 0,
        "a stopped group move re-lowering AllReduces ({collectives} link tasks) allocated {allocs} times after warm-up"
    );
}

/// A thread's one simulator scratch: evaluations through an
/// `IncrementalEvaluator` warm the scratch `simulate` then uses, so a
/// `simulate` of a graph that size allocates only the report it
/// returns, as often as a second call and as a warm `simulate_into`
/// into a fresh report do.
#[test]
fn a_thread_keeps_one_simulator_scratch() {
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    let cluster = paper_testbed_8gpu();
    let cost = &GroundTruthCost;
    let s = Strategy::even(g.len(), &cluster, CommMethod::AllReduce);
    let policy = OrderPolicy::RankBased;
    // Built on another thread, whose scratch simulates the base, so
    // that this thread is warmed only by `evaluate_perturbed`.
    let ev = std::thread::scope(|scope| {
        scope
            .spawn(|| IncrementalEvaluator::new(&g, cost, &cluster, &s, &policy))
            .join()
            .unwrap()
    });
    let slower = cluster.with_scaled_link(Some(LinkKind::Pcie), 0.5);
    let (_, mode) = ev.evaluate_perturbed(Perturbation::Cluster(&slower));
    assert_eq!(mode, EvalMode::Repriced);

    // The re-priced graph the evaluation simulated, compiled afresh.
    let tg = compile(&g, &slower, cost, &s);
    let caps = slower.memory_capacities();
    let (first, _) = allocs_during(|| simulate(&tg, &caps, &policy));
    let (second, _) = allocs_during(|| simulate(&tg, &caps, &policy));
    let mut scratch = SimScratch::default();
    simulate_into(&tg, &caps, &policy, &mut scratch, &mut SimReport::default());
    let (report_only, _) = allocs_during(|| {
        let mut out = SimReport::default();
        simulate_into(&tg, &caps, &policy, &mut scratch, &mut out);
        out
    });
    assert_eq!(
        (first, second),
        (report_only, report_only),
        "simulate after a warm evaluation allocated {first} times, then {second}; its report alone takes {report_only}"
    );
}
