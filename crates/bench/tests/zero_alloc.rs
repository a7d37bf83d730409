//! Asserts the schedule+simulate hot path, under every order policy,
//! and the search's bounded simulation, stopped or run to the end, are
//! allocation-free after warm-up — the property the evaluation engine's
//! scratch reuse exists to provide.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`; a single `#[test]` keeps other
//! threads from perturbing the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use heterog_cluster::paper_testbed_8gpu;
use heterog_compile::{compile, CommMethod, Strategy};
use heterog_graph::{BenchmarkModel, ModelSpec};
use heterog_profile::GroundTruthCost;
use heterog_sched::{list_schedule_into, OrderPolicy, Schedule, ScheduleScratch};
use heterog_sim::{simulate_into, simulate_within, SimReport, SimScratch};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
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
            simulate_within(&tg, &caps, policy, limit, &mut sim_scratch, &mut sim_out);
            let (bounded_allocs, stopped) = allocs_during(|| {
                simulate_within(&tg, &caps, policy, limit, &mut sim_scratch, &mut sim_out)
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
