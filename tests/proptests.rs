//! Property-based tests on the core data structures and invariants:
//! scheduler correctness on random DAGs, batch splitting, memory
//! accounting, cost-model monotonicity and the Theorem-1 bound.
//!
//! Each property runs over seeds `0..n` and draws its inputs from the
//! seed's generator; a failure names its seed.

use heterog_graph::OpKind;
use heterog_profile::LinearFit;
use heterog_sched::{
    busiest_processor_load, critical_path, head_body_tail_bound_into, list_schedule,
    makespan_lower_bound, strict_schedule, upward_ranks, OrderPolicy, Proc, ScheduleScratch, Task,
    TaskGraph,
};
use heterog_sim::memory::RUNTIME_WORKSPACE_BYTES;
use heterog_sim::{memory_usage, simulate, simulate_within, SimReport, SimScratch};
use heterog_strategies::load_exceeds;
use heterog_telemetry::rng::{for_each_seed, ChaCha8Rng};

/// `len` draws from `0..below`, with `len` drawn from `lens`.
fn choices(rng: &mut ChaCha8Rng, lens: std::ops::Range<usize>, below: usize) -> Vec<usize> {
    let len = rng.gen_range(lens);
    (0..len).map(|_| rng.gen_range(0..below)).collect()
}

/// A random placed DAG: 2 to `max_tasks - 1` tasks over `gpus` GPUs and
/// `links` links, edges only from lower to higher index (guaranteed
/// acyclic), each present with probability 1/4.
fn task_graph(rng: &mut ChaCha8Rng, max_tasks: usize, gpus: u32, links: u32) -> TaskGraph {
    let n = rng.gen_range(2..max_tasks);
    let mut tg = TaskGraph::new("prop", gpus, links);
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let p = rng.gen_range(0..(gpus + links) as usize) as u32;
            let dur = rng.gen_range(0.0..2.0);
            let bytes = rng.gen_range(0..1000usize) as u64;
            let (proc, kind) = if p < gpus {
                (Proc::Gpu(p), OpKind::MatMul)
            } else {
                (Proc::Link(p - gpus), OpKind::Transfer)
            };
            tg.add_task(Task::new(format!("t{i}"), kind, proc, dur).with_bytes(bytes))
        })
        .collect();
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            if rng.gen_range(0.0..1.0) < 0.25 {
                tg.add_dep(ids[i], ids[j]);
            }
        }
    }
    tg
}

/// List scheduling respects all precedence constraints and processor
/// exclusivity, and its makespan is between the lower bound and the
/// Theorem-1 upper bound.
#[test]
fn list_schedule_is_valid_and_bounded() {
    for_each_seed(64, |rng| {
        let tg = task_graph(rng, 24, 3, 2);
        for policy in [OrderPolicy::RankBased, OrderPolicy::Fifo] {
            let s = list_schedule(&tg, &policy);
            // Precedence: every dep finishes before its successor starts.
            for t in tg.task_ids() {
                for &succ in tg.succs(t) {
                    assert!(s.finish[t.index()] <= s.start[succ.index()] + 1e-9);
                }
            }
            // Exclusivity: tasks on one processor never overlap.
            let mut by_proc: Vec<Vec<(f64, f64)>> = vec![Vec::new(); tg.num_procs()];
            for (id, task) in tg.iter() {
                by_proc[tg.proc_index(task.proc)].push((s.start[id.index()], s.finish[id.index()]));
            }
            for ivs in &mut by_proc {
                ivs.sort_by(|a, b| a.0.total_cmp(&b.0));
                for w in ivs.windows(2) {
                    assert!(w[0].1 <= w[1].0 + 1e-9, "overlap {:?}", w);
                }
            }
            // Bounds.
            let lb = makespan_lower_bound(&tg);
            assert!(s.makespan >= lb - 1e-9);
            assert!(s.makespan <= tg.total_work() + 1e-9);
            assert!(s.makespan <= tg.num_procs() as f64 * lb + 1e-9);
        }
    });
}

/// The busiest processor's summed work never exceeds the simulated
/// iteration time, under either order policy, but for rounding: the
/// load is summed in task order, the makespan in schedule order. The
/// search prunes candidates whose load [`load_exceeds`] the incumbent,
/// so that test must never hold against the candidate's own makespan.
#[test]
fn busiest_processor_load_bounds_iteration_time() {
    let mut per_proc = Vec::new();
    for_each_seed(64, |rng| {
        let tg = task_graph(rng, 64, 2, 1);
        let load = busiest_processor_load(&tg, &mut per_proc);
        for policy in [OrderPolicy::RankBased, OrderPolicy::Fifo] {
            let it = simulate(&tg, &[u64::MAX; 2], &policy).iteration_time;
            assert!(
                load <= it * (1.0 + 1e-12),
                "load {load} above iteration time {it}"
            );
            assert!(!load_exceeds(load, it));
        }
    });
}

/// The head–body–tail bound is at least the busiest processor's load
/// and the critical path, and at most the simulated iteration time
/// under either order policy but for rounding, so [`load_exceeds`]
/// never holds against the task graph's own makespan. One scratch
/// serves every draw, warm from graphs of other sizes.
#[test]
fn head_body_tail_bound_bounds_iteration_time() {
    let mut per_proc = Vec::new();
    let mut scratch = ScheduleScratch::default();
    for_each_seed(64, |rng| {
        for tg in [task_graph(rng, 64, 2, 1), task_graph(rng, 24, 3, 2)] {
            let bound = head_body_tail_bound_into(&tg, &mut scratch);
            let load = busiest_processor_load(&tg, &mut per_proc);
            assert!(bound >= load, "bound {bound} below busiest load {load}");
            let cp = critical_path(&tg);
            assert!(bound >= cp, "bound {bound} below critical path {cp}");
            for policy in [OrderPolicy::RankBased, OrderPolicy::Fifo] {
                let caps = vec![u64::MAX; tg.num_gpus as usize];
                let it = simulate(&tg, &caps, &policy).iteration_time;
                assert!(
                    bound <= it * (1.0 + 1e-12),
                    "bound {bound} above iteration time {it}"
                );
                assert!(!load_exceeds(bound, it));
            }
        }
    });
}

/// A simulation within a limit either runs to the end, equal to the
/// unbounded simulation in every `SimReport` field (schedule, memory
/// peaks and OOM flags included; the `Debug` forms print each float's
/// shortest round-trip digits, so equal forms are equal bits), or stops
/// with a bound that [`load_exceeds`] the limit and is at most the
/// makespan but for rounding. A run whose makespan exceeds the limit
/// always stops. The limits sit at 0, the busiest load, the makespan,
/// inside the margin on either side of it, beyond the margin below it
/// and at infinity, under both order policies; the capacities leave
/// some GPUs out of memory. One scratch serves every run, so a stopped
/// run must leave nothing behind that the next one reads.
#[test]
fn bounded_simulation_completes_bit_for_bit_or_stops_beyond_the_limit() {
    let mut per_proc = Vec::new();
    let (mut scratch, mut out) = (SimScratch::default(), SimReport::default());
    let (mut stopped, mut completed, mut oom) = (0, 0, 0);
    for_each_seed(64, |rng| {
        for tg in [task_graph(rng, 64, 2, 1), task_graph(rng, 24, 3, 2)] {
            let load = busiest_processor_load(&tg, &mut per_proc);
            let caps = vec![RUNTIME_WORKSPACE_BYTES + 4000; tg.num_gpus as usize];
            for policy in [OrderPolicy::RankBased, OrderPolicy::Fifo] {
                let want = simulate(&tg, &caps, &policy);
                let it = want.iteration_time;
                oom += usize::from(want.memory.any_oom());
                for limit in [
                    0.0,
                    load,
                    it,
                    it * (1.0 - 5e-10),
                    it * (1.0 + 5e-10),
                    it * (1.0 - 2e-9),
                    f64::INFINITY,
                ] {
                    match simulate_within(&tg, None, &caps, &policy, limit, &mut scratch, &mut out)
                    {
                        None => {
                            completed += 1;
                            assert!(!load_exceeds(it, limit), "makespan {it}, limit {limit}");
                            assert_eq!(format!("{out:?}"), format!("{want:?}"), "limit {limit}");
                        }
                        Some(bound) => {
                            stopped += 1;
                            assert!(
                                load_exceeds(bound, limit) && bound <= it * (1.0 + 1e-12),
                                "stopped at {bound}, limit {limit}, makespan {it}"
                            );
                        }
                    }
                }
            }
        }
    });
    assert!(stopped > 0 && completed > 0 && oom > 0);
}

/// Strict per-device order with rank priorities always completes and
/// never beats the lower bound.
#[test]
fn strict_schedule_valid_under_ranks() {
    for_each_seed(64, |rng| {
        let tg = task_graph(rng, 18, 3, 1);
        let ranks = upward_ranks(&tg);
        let s = strict_schedule(&tg, &ranks);
        assert!(s.makespan >= makespan_lower_bound(&tg) - 1e-9);
        assert!(s.makespan <= tg.total_work() + 1e-9);
        for t in tg.task_ids() {
            for &succ in tg.succs(t) {
                assert!(s.finish[t.index()] <= s.start[succ.index()] + 1e-9);
            }
        }
        // Work-conserving scheduling under the same priorities also
        // completes validly. (It is NOT universally faster than strict
        // order — Graham's scheduling anomalies — so only validity is
        // asserted here; the worst-case instance tests in heterog-sched
        // compare the two on the appendix's specific family.)
        let wc = list_schedule(&tg, &OrderPolicy::Priorities(ranks));
        assert!(wc.makespan >= makespan_lower_bound(&tg) - 1e-9);
        assert!(wc.makespan <= tg.total_work() + 1e-9);
    });
}

/// Upward ranks strictly decrease along every edge (by at least the
/// successor's duration).
#[test]
fn ranks_decrease_along_edges() {
    for_each_seed(64, |rng| {
        let tg = task_graph(rng, 20, 2, 1);
        let r = upward_ranks(&tg);
        for t in tg.task_ids() {
            for &succ in tg.succs(t) {
                assert!(r[t.index()] >= r[succ.index()] + tg.task(t).duration - 1e-12);
            }
        }
    });
}

/// Peak memory is monotone in capacity violations: params always
/// counted, peaks never below pinned params, OOM iff peak exceeds
/// capacity.
#[test]
fn memory_accounting_invariants() {
    for_each_seed(64, |rng| {
        let tg = task_graph(rng, 20, 2, 1);
        let cap = rng.gen_range(1..5000usize) as u64;
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let mem = memory_usage(&tg, &s, &[cap, cap]);
        for g in 0..2 {
            assert!(mem.peak_bytes[g] >= mem.param_bytes[g]);
            assert_eq!(mem.oom[g], mem.peak_bytes[g] > cap);
        }
        // Total activation accounting: peak cannot exceed the sum of all
        // GPU-task outputs plus params.
        let total_out: u64 = tg
            .iter()
            .filter(|(_, t)| !t.proc.is_link())
            .map(|(_, t)| t.bytes + t.param_bytes)
            .sum();
        assert!(mem.peak_bytes.iter().sum::<u64>() <= total_out);
    });
}

/// Batch splitting conserves samples and is near-even.
#[test]
fn split_batch_conserves() {
    for_each_seed(64, |rng| {
        let batch = rng.gen_range(0..10_000usize) as u64;
        let n = rng.gen_range(1..64usize) as u64;
        let shares = heterog_compile::placement::split_batch(batch, n);
        assert_eq!(shares.len(), n as usize);
        assert_eq!(shares.iter().sum::<u64>(), batch);
        let max = *shares.iter().max().unwrap();
        let min = *shares.iter().min().unwrap();
        assert!(max - min <= 1);
    });
}

/// `time_breakdown` is a partition of total work: every component is
/// non-negative, the four components sum to the per-processor busy
/// total, and that total never exceeds procs x makespan (each
/// processor is busy at most the whole iteration).
#[test]
fn time_breakdown_partitions_total_work() {
    for_each_seed(64, |rng| {
        let tg = task_graph(rng, 24, 3, 2);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let bd = heterog_sim::time_breakdown(&tg, &s);
        for (i, component) in bd.iter().enumerate() {
            assert!(*component >= 0.0, "component {i} negative: {component}");
        }
        let total: f64 = bd.iter().sum();
        let busy: f64 = s.proc_busy.iter().sum();
        assert!(
            (total - busy).abs() <= 1e-9 * busy.max(1.0),
            "breakdown {total} != busy {busy}"
        );
        assert!(total <= tg.num_procs() as f64 * s.makespan + 1e-9);
    });
}

/// Least-squares fits interpolate affine data exactly and never
/// predict negative times.
#[test]
fn linear_fit_recovers_affine() {
    for_each_seed(64, |rng| {
        let a = rng.gen_range(-5.0..5.0);
        let b = rng.gen_range(0.0..10.0);
        let len = rng.gen_range(2..20usize);
        let xs: Vec<f64> = (0..len).map(|_| rng.gen_range(0.0..100.0)).collect();
        let pts: Vec<(f64, f64)> = xs.iter().map(|&x| (x, a * x + b)).collect();
        let fit = LinearFit::fit(&pts);
        let distinct = xs.iter().any(|&x| (x - xs[0]).abs() > 1e-9);
        if distinct {
            for &x in &xs {
                let pred = fit.predict(x);
                let want = (a * x + b).max(0.0);
                assert!((pred - want).abs() < 1e-6 * (1.0 + want.abs()));
            }
        }
        assert!(fit.predict(1e6) >= 0.0);
    });
}

/// Sanity: the generator itself produces valid DAGs.
#[test]
fn generator_produces_acyclic_graphs() {
    for_each_seed(16, |rng| {
        let tg = task_graph(rng, 16, 2, 1);
        let order = tg.topo_order();
        assert_eq!(order.len(), tg.len());
    });
}

// ---------------------------------------------------------------------------
// Compiler properties: random training graphs under random strategies must
// compile to valid, semantics-preserving task graphs.
// ---------------------------------------------------------------------------

mod compile_props {
    use super::*;
    use heterog_cluster::{paper_testbed_4gpu, DeviceId};
    use heterog_compile::{compile, CommMethod, OpStrategy, Strategy as PlanStrategy};
    use heterog_graph::{Graph, GraphBuilder};
    use heterog_profile::GroundTruthCost;

    /// A random layered training graph: a chain of 2 to 7 parameterized
    /// and simple layers with occasional residual joins.
    pub(crate) fn training_graph(rng: &mut ChaCha8Rng) -> Graph {
        let batch = rng.gen_range(8..64usize) as u64;
        let kinds = super::choices(rng, 2..8, 3);
        let mut b = GraphBuilder::new("prop_model", batch);
        let x = b.input(256);
        let mut cur = x;
        let mut skip = x;
        for (i, k) in kinds.iter().enumerate() {
            cur = match k {
                0 => b.param_layer(
                    &format!("p{i}"),
                    heterog_graph::OpKind::MatMul,
                    cur,
                    256,
                    256 * 256,
                    1.0e6,
                ),
                1 => b.simple_layer(
                    &format!("s{i}"),
                    heterog_graph::OpKind::Activation,
                    cur,
                    256,
                    256.0,
                ),
                _ => {
                    let j = b.combine(&format!("j{i}"), heterog_graph::OpKind::Add, cur, skip, 256);
                    skip = j;
                    j
                }
            };
        }
        b.finish(cur)
    }

    /// A random per-op strategy over the 4-GPU testbed's action space.
    fn random_strategy(rng: &mut ChaCha8Rng, num_ops: usize) -> PlanStrategy {
        let cluster = paper_testbed_4gpu();
        let per_op = (0..num_ops)
            .map(|_| match rng.gen_range(0..8usize) {
                c @ 0..=3 => OpStrategy::Mp(DeviceId(c as u32)),
                4 => OpStrategy::even(&cluster, CommMethod::Ps),
                5 => OpStrategy::even(&cluster, CommMethod::AllReduce),
                6 => OpStrategy::proportional(&cluster, CommMethod::Ps),
                _ => OpStrategy::proportional(&cluster, CommMethod::AllReduce),
            })
            .collect();
        PlanStrategy { per_op }
    }

    /// Any strategy compiles to an acyclic, fully schedulable task
    /// graph that conserves the global batch.
    #[test]
    fn compile_preserves_batch_under_random_strategies() {
        for_each_seed(32, |rng| {
            let g = training_graph(rng);
            let s = random_strategy(rng, g.len());
            let cluster = paper_testbed_4gpu();
            let tg = compile(&g, &cluster, &GroundTruthCost, &s);
            // Acyclic + schedulable.
            let sched = list_schedule(&tg, &OrderPolicy::RankBased);
            assert!(sched.finish.iter().all(|f| f.is_finite()));
            // Batch conservation for every splittable op.
            for (id, node) in g.iter() {
                if !node.batch_splittable {
                    continue;
                }
                let total: u64 = tg
                    .iter()
                    .filter(|(_, t)| t.origin() == Some(id))
                    .map(|(_, t)| u64::from(t.batch_share))
                    .sum();
                assert_eq!(total, g.batch_size, "{}", node.name);
            }
            // Every original op materialized at least once.
            for id in g.op_ids() {
                assert!(
                    tg.iter().any(|(_, t)| t.origin() == Some(id)),
                    "op {id} lost in lowering"
                );
            }
        });
    }

    /// Rank priorities of the compiled graph strictly decrease along
    /// dependencies (the §4.2 invariant the order enforcement needs).
    #[test]
    fn compiled_graph_ranks_are_consistent() {
        for_each_seed(32, |rng| {
            let g = training_graph(rng);
            let cluster = paper_testbed_4gpu();
            let s = PlanStrategy::even(g.len(), &cluster, CommMethod::AllReduce);
            let tg = compile(&g, &cluster, &GroundTruthCost, &s);
            let r = upward_ranks(&tg);
            for t in tg.task_ids() {
                for &succ in tg.succs(t) {
                    assert!(r[t.index()] >= r[succ.index()] - 1e-12);
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Properties of sharded plans (the SPMD sharding actions of the widened
// strategy space): they must be shape- and memory-consistent — shard
// slices partition the full batch,
// activation and parameter tensors exactly; the per-device pinned-parameter
// accounting derived from the strategy's shard arithmetic alone matches
// `simulate`'s memory report; and `Strategy::validate` rejects shard vectors
// that still weight a removed device (the elastic repair invariant).
// ---------------------------------------------------------------------------

mod shard_props {
    use super::*;
    use heterog_cluster::{paper_testbed_4gpu, DeviceId};
    use heterog_compile::{
        compile, lower::OPTIMIZER_STATE_FACTOR, OpStrategy, Strategy as PlanStrategy, StrategyError,
    };
    use heterog_graph::{proportional_split, Graph};
    use heterog_profile::GroundTruthCost;
    use heterog_sim::memory_usage;

    /// A random shard-weight vector over the 4-GPU testbed; at least one
    /// device must own a slice (the all-zero vector is invalid by
    /// construction, tested separately below).
    fn random_shards(rng: &mut ChaCha8Rng) -> Vec<u32> {
        let mut w: Vec<u32> = (0..4).map(|_| rng.gen_range(0..4usize) as u32).collect();
        if w.iter().all(|&x| x == 0) {
            w[0] = 1;
        }
        w
    }

    /// Mirrors the placement/lowering shard arithmetic to predict, from
    /// the strategy alone, how many pinned parameter (+optimizer-state)
    /// bytes each device must report: splittable param ops with >=2
    /// nonzero-share participants pin `proportional_split` slices of the
    /// parameters; everything else collapses to one full pin on the
    /// heaviest-weighted device.
    fn expected_param_pins(g: &Graph, shards: &[u32], num_devices: usize) -> Vec<u64> {
        let mut out = vec![0u64; num_devices];
        let participants: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(i, _)| i)
            .collect();
        for (_, node) in g.iter() {
            if node.param_bytes == 0 {
                continue;
            }
            let full_pin = node.param_bytes * OPTIMIZER_STATE_FACTOR;
            if participants.is_empty() {
                out[0] += full_pin;
                continue;
            }
            if !node.batch_splittable || participants.len() == 1 {
                let best = shards
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &w)| (w, std::cmp::Reverse(i)))
                    .map(|(i, _)| i)
                    .unwrap();
                out[best] += full_pin;
                continue;
            }
            let active: Vec<u64> = participants.iter().map(|&i| shards[i] as u64).collect();
            let shares = proportional_split(g.batch_size, &active);
            let reps: Vec<(usize, u64)> = participants
                .iter()
                .copied()
                .zip(shares)
                .filter(|&(_, s)| s > 0)
                .collect();
            match reps.len() {
                0 => out[0] += full_pin,
                1 => out[reps[0].0] += full_pin,
                _ => {
                    let shard_shares: Vec<u64> = reps.iter().map(|r| r.1).collect();
                    let slices = proportional_split(node.param_bytes, &shard_shares);
                    for (&(d, _), slice) in reps.iter().zip(&slices) {
                        out[d] += slice * OPTIMIZER_STATE_FACTOR;
                    }
                }
            }
        }
        out
    }

    /// The single source of shard sizing: slices partition the total
    /// exactly, one slice per weight, and (given any positive weight)
    /// zero-weight entries own nothing.
    #[test]
    fn proportional_split_partitions_exactly() {
        for_each_seed(32, |rng| {
            let total = rng.gen_range(0..1_000_000usize) as u64;
            let weights: Vec<u64> = super::choices(rng, 1..12, 16)
                .into_iter()
                .map(|w| w as u64)
                .collect();
            let parts = proportional_split(total, &weights);
            assert_eq!(parts.len(), weights.len());
            assert_eq!(parts.iter().sum::<u64>(), total);
            if weights.iter().any(|&w| w > 0) {
                for (i, &w) in weights.iter().enumerate() {
                    if w == 0 {
                        assert_eq!(parts[i], 0, "zero weight {i} owns a slice");
                    }
                }
            }
        });
    }

    /// Sharded plans are shape-consistent after lowering: per op, the
    /// task batch shares sum to the global batch, the forward output
    /// slices sum to the full activation, and the pinned parameter
    /// slices partition the parameters (x optimizer state) exactly
    /// once — not once per device as DP replication would.
    #[test]
    fn shard_slices_partition_batch_outputs_and_params() {
        for_each_seed(32, |rng| {
            let g = super::compile_props::training_graph(rng);
            let shards = random_shards(rng);
            let cluster = paper_testbed_4gpu();
            let s = PlanStrategy::uniform(g.len(), OpStrategy::Shard { dim: 0, shards });
            assert!(s.validate(&cluster).is_ok());
            let tg = compile(&g, &cluster, &GroundTruthCost, &s);
            for (id, node) in g.iter() {
                let tasks: Vec<_> = tg.iter().filter(|(_, t)| t.origin() == Some(id)).collect();
                assert!(!tasks.is_empty(), "op {} lost in lowering", &node.name);
                if node.batch_splittable {
                    let total: u64 = tasks.iter().map(|(_, t)| u64::from(t.batch_share)).sum();
                    assert_eq!(total, g.batch_size, "batch not conserved at {}", &node.name);
                }
                if node.kind == OpKind::MatMul && node.phase == heterog_graph::Phase::Forward {
                    let out: u64 = tasks.iter().map(|(_, t)| t.bytes).sum();
                    assert_eq!(
                        out,
                        node.output.bytes(g.batch_size),
                        "output slices of {} do not partition the activation",
                        &node.name
                    );
                }
                if node.param_bytes > 0 {
                    let pinned: u64 = tasks.iter().map(|(_, t)| t.param_bytes).sum();
                    assert_eq!(
                        pinned,
                        node.param_bytes * OPTIMIZER_STATE_FACTOR,
                        "param slices of {} do not partition the parameters",
                        &node.name
                    );
                }
            }
        });
    }

    /// Per-device memory accounting: the pinned parameter bytes that
    /// `simulate`'s memory report attributes to each device equal the
    /// prediction computed from the strategy's shard arithmetic alone,
    /// and every device's peak covers its pins.
    #[test]
    fn shard_memory_accounting_matches_simulate() {
        for_each_seed(32, |rng| {
            let g = super::compile_props::training_graph(rng);
            let shards = random_shards(rng);
            let cluster = paper_testbed_4gpu();
            let s = PlanStrategy::uniform(
                g.len(),
                OpStrategy::Shard {
                    dim: 0,
                    shards: shards.clone(),
                },
            );
            let tg = compile(&g, &cluster, &GroundTruthCost, &s);
            let sched = list_schedule(&tg, &OrderPolicy::RankBased);
            let mem = memory_usage(&tg, &sched, &cluster.memory_capacities());
            let expected = expected_param_pins(&g, &shards, cluster.num_devices());
            assert_eq!(
                &mem.param_bytes, &expected,
                "per-device param accounting diverged from the strategy arithmetic"
            );
            for d in 0..cluster.num_devices() {
                assert!(mem.peak_bytes[d] >= mem.param_bytes[d]);
            }
        });
    }

    /// The elastic repair invariant: a shard vector that was valid on
    /// the full testbed must be rejected once a device it references
    /// is removed — naming the removed device when it still owns a
    /// slice, and the length mismatch otherwise. The all-zero vector
    /// is rejected outright.
    #[test]
    fn validate_rejects_shards_on_removed_devices() {
        for_each_seed(32, |rng| {
            let g = super::compile_props::training_graph(rng);
            let shards = random_shards(rng);
            let cluster = paper_testbed_4gpu();
            let s = PlanStrategy::uniform(
                g.len(),
                OpStrategy::Shard {
                    dim: 0,
                    shards: shards.clone(),
                },
            );
            assert!(s.validate(&cluster).is_ok());
            let shrunk = cluster.without_device(DeviceId(3));
            let err = s.validate(&shrunk);
            assert!(err.is_err(), "shard vector for 4 devices accepted on 3");
            match err.unwrap_err() {
                StrategyError::ShardDeviceMissing { device, .. } => {
                    assert!(shards[3] > 0, "named a device that owned no slice");
                    assert_eq!(device, DeviceId(3));
                }
                StrategyError::ShardLengthMismatch { len, devices, .. } => {
                    assert_eq!(shards[3], 0, "missing device not named");
                    assert_eq!(len, 4);
                    assert_eq!(devices, 3);
                }
                other => panic!("unexpected error {other:?}"),
            }
            let zeros = PlanStrategy::uniform(
                g.len(),
                OpStrategy::Shard {
                    dim: 0,
                    shards: vec![0; 4],
                },
            );
            if !g.is_empty() {
                assert_eq!(
                    zeros.validate(&cluster),
                    Err(StrategyError::NoShards { op: 0 })
                );
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Incremental evaluation properties: any sequence of perturbed queries
// against an `IncrementalEvaluator` must be bit-identical to a fresh full
// compile+schedule+simulate of the same deployment.
// ---------------------------------------------------------------------------

mod incremental_props {
    use super::*;
    use heterog_cluster::{paper_testbed_4gpu, Cluster, DeviceId, GpuModel, LinkKind};
    use heterog_compile::{compile, CommMethod, OpStrategy, Strategy as PlanStrategy};
    use heterog_profile::GroundTruthCost;
    use heterog_strategies::{
        evaluate_with_policy, Bounded, EvalMode, Evaluation, IncrementalEvaluator, Perturbation,
    };

    const KINDS: [LinkKind; 4] = [
        LinkKind::NvLink,
        LinkKind::Pcie,
        LinkKind::NicOut,
        LinkKind::NicIn,
    ];
    const MODELS: [GpuModel; 4] = [
        GpuModel::TeslaV100,
        GpuModel::TeslaP100,
        GpuModel::Gtx1080Ti,
        GpuModel::TeslaK80,
    ];

    /// One owned random perturbation; realized against a
    /// concrete graph/cluster inside the test.
    #[derive(Debug, Clone)]
    enum PertSpec {
        /// Scale one link class (or all links) by a factor.
        ScaleLink(Option<usize>, f64),
        /// Swap one device's GPU model.
        SwapModel(usize, usize),
        /// Replace the strategy (choices indexed modulo their length).
        Strategy(Vec<usize>),
        /// Flip the order policy (true = FIFO).
        Policy(bool),
    }

    /// One of the four perturbation kinds, each equally likely.
    fn random_pert(rng: &mut ChaCha8Rng) -> PertSpec {
        match rng.gen_range(0..4usize) {
            0 => {
                let kind = (rng.gen_range(0..2usize) == 1).then(|| rng.gen_range(0..4usize));
                PertSpec::ScaleLink(kind, rng.gen_range(0.25..2.0))
            }
            1 => PertSpec::SwapModel(rng.gen_range(0..4usize), rng.gen_range(0..4usize)),
            2 => PertSpec::Strategy(super::choices(rng, 1..24, 8)),
            _ => PertSpec::Policy(rng.gen_range(0..2usize) == 1),
        }
    }

    /// Realizes raw action choices as a per-op strategy over the 4-GPU
    /// testbed's 8-way action space.
    fn strategy_from(cluster: &Cluster, num_ops: usize, choices: &[usize]) -> PlanStrategy {
        let per_op = (0..num_ops)
            .map(|i| match choices[i % choices.len()] {
                c @ 0..=3 => OpStrategy::Mp(DeviceId(c as u32)),
                4 => OpStrategy::even(cluster, CommMethod::Ps),
                5 => OpStrategy::even(cluster, CommMethod::AllReduce),
                6 => OpStrategy::proportional(cluster, CommMethod::Ps),
                _ => OpStrategy::proportional(cluster, CommMethod::AllReduce),
            })
            .collect();
        PlanStrategy { per_op }
    }

    fn assert_bits_eq(got: &Evaluation, want: &Evaluation) {
        assert_eq!(got.iteration_time.to_bits(), want.iteration_time.to_bits());
        assert_eq!(got.oom, want.oom);
        assert_eq!(
            got.report.schedule.makespan.to_bits(),
            want.report.schedule.makespan.to_bits()
        );
        assert_eq!(
            &got.report.memory.peak_bytes,
            &want.report.memory.peak_bytes
        );
        for (a, b) in got.report.gpu_busy.iter().zip(&want.report.gpu_busy) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Random perturbation sequences served incrementally match the
    /// full pipeline bit for bit. Each case pays one full evaluation per
    /// perturbed query for the reference result, so the case count
    /// stays modest.
    #[test]
    fn perturbation_sequences_are_bit_identical() {
        for_each_seed(12, |rng| {
            let g = super::compile_props::training_graph(rng);
            let specs: Vec<PertSpec> = (0..rng.gen_range(1..5usize))
                .map(|_| random_pert(rng))
                .collect();
            let cluster = paper_testbed_4gpu();
            let cost = GroundTruthCost;
            let base_s = PlanStrategy::even(g.len(), &cluster, CommMethod::AllReduce);
            let policy = OrderPolicy::RankBased;
            let ev = IncrementalEvaluator::new(&g, &cost, &cluster, &base_s, &policy);
            assert_bits_eq(
                ev.base(),
                &evaluate_with_policy(&g, &cluster, &cost, &base_s, &policy),
            );
            for spec in &specs {
                match spec {
                    PertSpec::ScaleLink(kind, factor) => {
                        let c2 = cluster.with_scaled_link(kind.map(|k| KINDS[k]), *factor);
                        let (got, _) = ev.evaluate_perturbed(Perturbation::Cluster(&c2));
                        let want = evaluate_with_policy(&g, &c2, &cost, &base_s, &policy);
                        assert_bits_eq(&got, &want);
                    }
                    PertSpec::SwapModel(dev, model) => {
                        let c2 = cluster.with_device_model(DeviceId(*dev as u32), MODELS[*model]);
                        let (got, _) = ev.evaluate_perturbed(Perturbation::Cluster(&c2));
                        let want = evaluate_with_policy(&g, &c2, &cost, &base_s, &policy);
                        assert_bits_eq(&got, &want);
                    }
                    PertSpec::Strategy(choices) => {
                        let s2 = strategy_from(&cluster, g.len(), choices);
                        let (got, _) = ev.evaluate_perturbed(Perturbation::Strategy(&s2));
                        let want = evaluate_with_policy(&g, &cluster, &cost, &s2, &policy);
                        assert_bits_eq(&got, &want);
                    }
                    PertSpec::Policy(fifo) => {
                        let p2 = if *fifo {
                            OrderPolicy::Fifo
                        } else {
                            OrderPolicy::RankBased
                        };
                        let (got, _) = ev.evaluate_perturbed(Perturbation::Policy(&p2));
                        let want = evaluate_with_policy(&g, &cluster, &cost, &base_s, &p2);
                        assert_bits_eq(&got, &want);
                    }
                }
            }
        });
    }

    /// A random group move, bounded by a random limit, through the
    /// evaluator, which simulates a spliced candidate through a view of
    /// its base. Evaluated, it equals a full evaluation of the moved
    /// strategy bit for bit (a move that changes no decision is the
    /// base, evaluated at any limit). Stopped by the simulation, its
    /// bound is the one a bounded simulation of a fresh compile of that
    /// strategy stops at, bit for bit. Pruned before any splice, its
    /// bound is the busiest processor's load, and exceeds the limit.
    #[test]
    fn bounded_group_moves_match_fresh_compiles() {
        let (mut loads, mut scratch, mut out) =
            (Vec::new(), SimScratch::default(), SimReport::default());
        let (mut evaluated, mut stopped, mut load_pruned) = (0, 0, 0);
        for_each_seed(64, |rng| {
            let g = super::compile_props::training_graph(rng);
            let cluster = paper_testbed_4gpu();
            let cost = GroundTruthCost;
            let base_s = strategy_from(&cluster, g.len(), &super::choices(rng, 1..24, 8));
            let policy = OrderPolicy::RankBased;
            let ev = IncrementalEvaluator::new(&g, &cost, &cluster, &base_s, &policy);
            let caps = cluster.memory_capacities();
            for _ in 0..3 {
                let mut ops: Vec<heterog_graph::OpId> = (g.iter())
                    .map(|(id, _)| id)
                    .filter(|_| rng.gen_range(0..3usize) == 0)
                    .collect();
                ops.sort();
                let to = strategy_from(&cluster, 1, &[rng.gen_range(0..8usize)]).per_op[0].clone();
                let mut moved = base_s.clone();
                for op in &ops {
                    moved.per_op[op.index()] = to.clone();
                }
                let want = evaluate_with_policy(&g, &cluster, &cost, &moved, &policy);
                let fresh = compile(&g, &cluster, &cost, &moved);
                let load = busiest_processor_load(&fresh, &mut loads);
                let it = want.iteration_time;
                let limit = match rng.gen_range(0..5usize) {
                    0 => rng.gen_range(0.0..1.0) * load,
                    1 => load + rng.gen_range(0.0..1.0) * (it - load),
                    2 => it * (1.0 - 2e-9),
                    3 => it,
                    _ => f64::INFINITY,
                };
                let p = Perturbation::Group { ops: &ops, to: &to };
                match ev.evaluate_bounded(p, limit) {
                    Bounded::Evaluated(got, mode) => {
                        evaluated += 1;
                        // A move that changes no decision is the base,
                        // which is never bounded.
                        assert!(
                            mode == EvalMode::Base || !load_exceeds(it, limit),
                            "makespan {it}, limit {limit}"
                        );
                        assert_bits_eq(&got, &want);
                    }
                    Bounded::Pruned(bound) => {
                        let fresh_stop = simulate_within(
                            &fresh,
                            None,
                            &caps,
                            &policy,
                            limit,
                            &mut scratch,
                            &mut out,
                        );
                        if fresh_stop.map(f64::to_bits) == Some(bound.to_bits()) {
                            stopped += 1;
                        } else {
                            load_pruned += 1;
                            assert!(
                                load_exceeds(bound, limit) && (bound - load).abs() <= 1e-12 * load,
                                "pruned at {bound}, busiest load {load}, limit {limit}, fresh stop {fresh_stop:?}"
                            );
                        }
                    }
                }
            }
        });
        assert!(evaluated > 0 && stopped > 0 && load_pruned > 0);
    }

    /// The what-ifs `explain` ranks, through an evaluator anchored on
    /// the deployment's own compiled graph and report, equal a fresh
    /// compile+simulate of every default intervention, bit for bit, over
    /// zoo models (language models at two layers), random strategies and
    /// both order policies.
    #[test]
    fn anchored_explain_whatifs_match_fresh_evaluations() {
        use heterog_explain::{default_interventions, explain, run_whatif_with, ExplainOptions};
        use heterog_graph::{BenchmarkModel, ModelSpec};
        let models = BenchmarkModel::all();
        for_each_seed(16, |rng| {
            let model = models[rng.gen_range(0..models.len())];
            let batch = [16, 32, 64][rng.gen_range(0..3usize)];
            let g = ModelSpec::with_layers(model, batch, 2).build();
            let cluster = paper_testbed_4gpu();
            let s = strategy_from(&cluster, g.len(), &super::choices(rng, 1..24, 8));
            let policy = if rng.gen_range(0..2usize) == 1 {
                OrderPolicy::Fifo
            } else {
                OrderPolicy::RankBased
            };
            let tg = compile(&g, &cluster, &GroundTruthCost, &s);
            let report = simulate(&tg, &cluster.memory_capacities(), &policy);
            let opts = ExplainOptions {
                top_k: usize::MAX,
                run_whatif: true,
            };
            let got = explain(&g, &cluster, &s, &tg, &policy, &report, &opts).whatif;
            let ivs = default_interventions(&cluster, &s);
            let base = report.iteration_time;
            let want = run_whatif_with(&g, &cluster, &s, &policy, base, &ivs, usize::MAX, false);
            assert_eq!(got.len(), want.len(), "{model}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.label, b.label, "{model}");
                assert_eq!(
                    a.makespan.to_bits(),
                    b.makespan.to_bits(),
                    "{model} {}",
                    a.label
                );
                assert_eq!(a.delta.to_bits(), b.delta.to_bits(), "{model} {}", a.label);
                assert_eq!(a.oom, b.oom, "{model} {}", a.label);
            }
        });
    }

    /// Re-anchoring mid-sequence preserves bit-identity: rebase onto
    /// a perturbed strategy, then query around the new anchor.
    #[test]
    fn rebase_preserves_bit_identity() {
        for_each_seed(12, |rng| {
            let g = super::compile_props::training_graph(rng);
            let choices = super::choices(rng, 1..24, 8);
            let factor = rng.gen_range(0.25..2.0);
            let cluster = paper_testbed_4gpu();
            let cost = GroundTruthCost;
            let base_s = PlanStrategy::even(g.len(), &cluster, CommMethod::Ps);
            let policy = OrderPolicy::RankBased;
            let mut ev = IncrementalEvaluator::new(&g, &cost, &cluster, &base_s, &policy);
            let s2 = strategy_from(&cluster, g.len(), &choices);
            ev.rebase(&cluster, &s2, &policy);
            assert_bits_eq(
                ev.base(),
                &evaluate_with_policy(&g, &cluster, &cost, &s2, &policy),
            );
            let c2 = cluster.with_scaled_link(None, factor);
            let (got, _) = ev.evaluate_perturbed(Perturbation::Cluster(&c2));
            let want = evaluate_with_policy(&g, &c2, &cost, &s2, &policy);
            assert_bits_eq(&got, &want);
        });
    }
}
