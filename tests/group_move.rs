//! A one-group move described as `Perturbation::Group` ("the incumbent
//! with group `gi` re-decided as action `a`") equals the whole moved
//! strategy. For every group and every action off a seeded mixed
//! incumbent, on MobileNet-v2, VGG-19 and Transformer-6L on the 8-GPU
//! testbed and on a cluster where data parallelism overflows memory:
//!
//! * `resolve_group_into` from the incumbent's placements gives
//!   `resolve_placements(actions_to_strategy(..))` field for field;
//! * `evaluate_perturbed(Group { .. })` gives
//!   `evaluate_perturbed(Strategy(..))` bit for bit, `EvalMode`
//!   included;
//! * `evaluate_bounded` at a zero limit prunes both on the same bits,
//!   within 1e-12 relative of the busiest processor's load of a fresh
//!   compile of the moved strategy (the load is priced before any
//!   splice), and at the moved strategy's own iteration time prunes
//!   neither.

use heterog_agent::{actions_to_strategy, ActionSpace};
use heterog_cluster::{paper_testbed_8gpu, topology::Server, Cluster, Device, GpuModel};
use heterog_compile::{compile, resolve_group_into, resolve_placements, OpStrategy};
use heterog_graph::{BenchmarkModel, Graph, ModelSpec};
use heterog_profile::GroundTruthCost;
use heterog_sched::{busiest_processor_load, OrderPolicy};
use heterog_strategies::{
    group_ops, grouping::avg_op_times, Bounded, EvalMode, IncrementalEvaluator, Perturbation,
};
use heterog_telemetry::rng::SplitMix64;

/// Groups per model: few enough that every move stays fast in debug.
const GROUPS: usize = 8;

/// VGG-19 on four 3.4 GiB GPUs, where every uniform data-parallel
/// deployment overflows memory (`tests/pruned_search.rs`'s OOM-prone
/// case).
fn oom_prone_cluster() -> Cluster {
    let servers = vec![
        Server {
            name: "a".into(),
            nic_bps: 10e9,
            nvlink: true,
        },
        Server {
            name: "b".into(),
            nic_bps: 5e9,
            nvlink: false,
        },
    ];
    let mut devices = vec![
        Device::new(GpuModel::TeslaV100, 0),
        Device::new(GpuModel::TeslaV100, 0),
        Device::new(GpuModel::Gtx1080Ti, 1),
        Device::new(GpuModel::Gtx1080Ti, 1),
    ];
    for d in &mut devices {
        d.memory_bytes = 3481 << 20;
    }
    Cluster::new(servers, devices)
}

/// Checks every one-group move of `g` on `cluster` off an incumbent
/// whose per-group actions are drawn from `seed`.
fn check(g: &Graph, cluster: &Cluster, seed: u64) {
    let cost = &GroundTruthCost;
    let grouping = group_ops(g, &avg_op_times(g, cluster, cost), GROUPS);
    let space = ActionSpace::new(cluster);
    let mut rng = SplitMix64::new(seed);
    let actions: Vec<usize> = (0..grouping.len())
        .map(|_| rng.below(space.len() as u64) as usize)
        .collect();
    let base = actions_to_strategy(g, cluster, &grouping, &actions);
    let base_placements = resolve_placements(g, cluster, &base);
    let policy = OrderPolicy::RankBased;
    let ev = IncrementalEvaluator::new(g, cost, cluster, &base, &policy);
    let decoded: Vec<OpStrategy> = (0..space.len()).map(|a| space.decode(a, cluster)).collect();
    // One buffer for every move, so later moves overwrite earlier ones.
    let mut placements = Vec::new();
    for (gi, ops) in grouping.members.iter().enumerate() {
        for (a, to) in decoded.iter().enumerate() {
            let what = format!(
                "{} on {} GPUs, group {gi} -> {}",
                g.name,
                cluster.num_devices(),
                space.label(a)
            );
            let mut trial = actions.clone();
            trial[gi] = a;
            let moved = actions_to_strategy(g, cluster, &grouping, &trial);

            resolve_group_into(g, cluster, &base_placements, ops, to, &mut placements);
            let want = resolve_placements(g, cluster, &moved);
            assert_eq!(placements.len(), want.len(), "{what}");
            for (i, (got, want)) in placements.iter().zip(&want).enumerate() {
                assert_eq!(got, want, "{what}: op {i}");
            }

            let (got, got_mode) = ev.evaluate_perturbed(Perturbation::Group { ops, to });
            let (want, want_mode) = ev.evaluate_perturbed(Perturbation::Strategy(&moved));
            assert_eq!(got_mode, want_mode, "{what}");
            assert_eq!(
                got.iteration_time.to_bits(),
                want.iteration_time.to_bits(),
                "{what}"
            );
            assert_eq!(got.oom, want.oom, "{what}");
            // `{:?}` prints each f64 in its shortest round-trip form:
            // equal strings mean equal bits.
            assert_eq!(
                format!("{:?}", got.report),
                format!("{:?}", want.report),
                "{what}"
            );

            let group = Perturbation::Group { ops, to };
            let whole = Perturbation::Strategy(&moved);
            match (
                ev.evaluate_bounded(group, 0.0),
                ev.evaluate_bounded(whole, 0.0),
            ) {
                (Bounded::Pruned(a), Bounded::Pruned(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}");
                    let exact =
                        busiest_processor_load(&compile(g, cluster, cost, &moved), &mut Vec::new());
                    assert!(
                        (a - exact).abs() <= 1e-12 * exact,
                        "{what}: load {a} priced before splicing, {exact} after"
                    );
                }
                (Bounded::Evaluated(_, EvalMode::Base), Bounded::Evaluated(_, EvalMode::Base)) => {}
                (a, b) => panic!("{what}: group {a:?}, strategy {b:?}"),
            }
            for p in [group, whole] {
                assert!(
                    matches!(
                        ev.evaluate_bounded(p, want.iteration_time),
                        Bounded::Evaluated(..)
                    ),
                    "{what}: pruned at its own iteration time"
                );
            }
        }
    }
}

#[test]
fn mobilenet_group_moves_equal_strategy_moves() {
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    check(&g, &paper_testbed_8gpu(), 2);
}

#[test]
fn vgg_group_moves_equal_strategy_moves() {
    let g = ModelSpec::new(BenchmarkModel::Vgg19, 64).build();
    check(&g, &paper_testbed_8gpu(), 19);
}

#[test]
fn transformer_group_moves_equal_strategy_moves() {
    let g = ModelSpec::with_layers(BenchmarkModel::Transformer, 96, 6).build();
    check(&g, &paper_testbed_8gpu(), 6);
}

#[test]
fn oom_prone_group_moves_equal_strategy_moves() {
    let g = ModelSpec::new(BenchmarkModel::Vgg19, 16).build();
    check(&g, &oom_prone_cluster(), 4);
}
