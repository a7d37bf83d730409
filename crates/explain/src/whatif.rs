//! What-if sensitivity: re-simulate the same model under perturbed
//! hardware or strategy and rank interventions by predicted makespan
//! delta.
//!
//! Each intervention clones the cluster/strategy, applies one concrete
//! change ("NIC links at 2x bandwidth", "G3 upgraded to a V100", "PS ->
//! ring all-reduce"), recompiles against the analytic ground-truth cost
//! oracle and re-simulates. The loop shares one [`SimScratch`] across all
//! interventions, so after the first (largest) graph it stays on the
//! allocation-free hot path the planners use.

use heterog_cluster::{Cluster, DeviceId, GpuModel, LinkKind};
use heterog_compile::{compile, CommMethod, OpStrategy, Strategy};
use heterog_graph::Graph;
use heterog_profile::GroundTruthCost;
use heterog_sched::OrderPolicy;
use heterog_sim::{simulate_into, SimReport, SimScratch};
use heterog_strategies::{evaluate_with_policy, Evaluation, IncrementalEvaluator, Perturbation};

// The perturbation operators started here and moved to
// `heterog_strategies::repair` when the elastic runtime needed them for
// plan repair; re-exported so existing callers keep their paths.
pub use heterog_strategies::repair::{strategy_without_device, switch_comm};

/// One concrete perturbation of the deployment.
#[derive(Debug, Clone, PartialEq)]
pub enum Intervention {
    /// Multiply the bandwidth of every link of one kind.
    ScaleLinkClass {
        /// Which physical link class to scale.
        kind: LinkKind,
        /// Bandwidth multiplier (2.0 = twice as fast).
        factor: f64,
    },
    /// Swap one GPU for a different model.
    UpgradeDevice {
        /// Device to upgrade.
        device: u32,
        /// Replacement model.
        to: GpuModel,
    },
    /// Remove one GPU; its replicas fold onto the remaining devices.
    RemoveDevice {
        /// Device to remove.
        device: u32,
    },
    /// Switch every data-parallel op group's aggregation method.
    SwitchComm {
        /// New method for all DP groups.
        to: CommMethod,
    },
    /// Flip the execution-order policy (rank-based <-> FIFO).
    FlipOrder,
}

impl Intervention {
    /// Human-readable label for tables and JSON.
    pub fn label(&self, cluster: &Cluster) -> String {
        match self {
            Intervention::ScaleLinkClass { kind, factor } => {
                format!("{kind:?} links at {factor}x bandwidth")
            }
            Intervention::UpgradeDevice { device, to } => {
                let from = cluster.device(DeviceId(*device)).model.name();
                format!("G{device} upgraded {from} -> {}", to.name())
            }
            Intervention::RemoveDevice { device } => {
                let model = cluster.device(DeviceId(*device)).model.name();
                format!("G{device} ({model}) removed")
            }
            Intervention::SwitchComm { to } => match to {
                CommMethod::Ps => "all DP groups switched to parameter server".to_string(),
                CommMethod::AllReduce => "all DP groups switched to ring all-reduce".to_string(),
            },
            Intervention::FlipOrder => "execution order flipped (rank-based <-> FIFO)".to_string(),
        }
    }

    /// Why this intervention cannot change the deployment, or `None`
    /// when it genuinely applies. A strategy flip aimed at a variant no
    /// op currently uses (e.g. `SwitchComm` on an all-`Shard` plan)
    /// would re-simulate an identical deployment and rank a no-op
    /// candidate; [`run_whatif_with`] skips it and logs the reason
    /// instead.
    pub fn skip_reason(&self, cluster: &Cluster, strategy: &Strategy) -> Option<String> {
        match self {
            Intervention::SwitchComm { to } => {
                let flippable = strategy
                    .per_op
                    .iter()
                    .any(|op| matches!(op, OpStrategy::Dp { comm, .. } if comm != to));
                if flippable {
                    None
                } else {
                    let (_, dp) = strategy.histogram(cluster);
                    Some(format!(
                        "no data-parallel op group uses a different aggregation method \
                         ({} shard ops are not comm-flippable)",
                        dp[5]
                    ))
                }
            }
            Intervention::UpgradeDevice { device, to } => {
                if (*device as usize) >= cluster.num_devices() {
                    return Some(format!(
                        "G{device} is not in the cluster (devices are G0..G{})",
                        cluster.num_devices().saturating_sub(1)
                    ));
                }
                let d = cluster.device(DeviceId(*device));
                (d.model == *to).then(|| format!("G{device} already is a {}", to.name()))
            }
            Intervention::ScaleLinkClass { kind, .. } => {
                if cluster.links().iter().any(|l| l.kind == *kind) {
                    None
                } else {
                    Some(format!("cluster has no {kind:?} links"))
                }
            }
            Intervention::RemoveDevice { device } => {
                if (*device as usize) < cluster.num_devices() {
                    None
                } else {
                    Some(format!(
                        "G{device} is not in the cluster (devices are G0..G{})",
                        cluster.num_devices().saturating_sub(1)
                    ))
                }
            }
            Intervention::FlipOrder => None,
        }
    }

    /// Applies the perturbation, producing the cluster/strategy/policy to
    /// re-simulate.
    pub fn apply(
        &self,
        cluster: &Cluster,
        strategy: &Strategy,
        policy: &OrderPolicy,
    ) -> (Cluster, Strategy, OrderPolicy) {
        match self {
            Intervention::ScaleLinkClass { kind, factor } => (
                cluster.with_scaled_link(Some(*kind), *factor),
                strategy.clone(),
                policy.clone(),
            ),
            Intervention::UpgradeDevice { device, to } => (
                cluster.with_device_model(DeviceId(*device), *to),
                strategy.clone(),
                policy.clone(),
            ),
            Intervention::RemoveDevice { device } => (
                cluster.without_device(DeviceId(*device)),
                strategy_without_device(strategy, *device as usize),
                policy.clone(),
            ),
            Intervention::SwitchComm { to } => {
                (cluster.clone(), switch_comm(strategy, *to), policy.clone())
            }
            Intervention::FlipOrder => {
                let flipped = match policy {
                    OrderPolicy::Fifo => OrderPolicy::RankBased,
                    _ => OrderPolicy::Fifo,
                };
                (cluster.clone(), strategy.clone(), flipped)
            }
        }
    }
}

/// The outcome of re-simulating one intervention.
#[derive(Debug, Clone)]
pub struct WhatIfOutcome {
    /// What was changed.
    pub label: String,
    /// Predicted per-iteration time under the change, seconds.
    pub makespan: f64,
    /// `baseline - perturbed` makespan: positive = the change speeds the
    /// step up, negative = it slows it down.
    pub delta: f64,
    /// Whether the perturbed deployment overflows any device.
    pub oom: bool,
}

impl WhatIfOutcome {
    /// Relative improvement (`delta / baseline`), 0 for a zero baseline.
    pub fn delta_fraction(&self, baseline: f64) -> f64 {
        if baseline > 0.0 {
            self.delta / baseline
        } else {
            0.0
        }
    }
}

/// A sensible default intervention set derived from the deployment: 2x
/// bandwidth per link class present, upgrading each slower GPU class's
/// first device to the fastest model present, removing the slowest GPU,
/// flipping the aggregation method of all DP groups, and flipping the
/// execution-order policy.
pub fn default_interventions(cluster: &Cluster, strategy: &Strategy) -> Vec<Intervention> {
    let mut out = Vec::new();

    let mut kinds: Vec<LinkKind> = cluster.links().iter().map(|l| l.kind).collect();
    kinds.sort_by_key(|k| format!("{k:?}"));
    kinds.dedup();
    for kind in kinds {
        out.push(Intervention::ScaleLinkClass { kind, factor: 2.0 });
    }

    let best = cluster
        .devices()
        .iter()
        .map(|d| d.model)
        .max_by(|a, b| a.base_tflops().total_cmp(&b.base_tflops()));
    if let Some(best) = best {
        let mut seen: Vec<GpuModel> = Vec::new();
        for (i, d) in cluster.devices().iter().enumerate() {
            if d.model != best && !seen.contains(&d.model) {
                seen.push(d.model);
                out.push(Intervention::UpgradeDevice {
                    device: i as u32,
                    to: best,
                });
            }
        }
    }

    if cluster.num_devices() > 2 {
        let slowest = cluster
            .devices()
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.model.base_tflops().total_cmp(&b.model.base_tflops()))
            .map(|(i, _)| i as u32);
        if let Some(device) = slowest {
            out.push(Intervention::RemoveDevice { device });
        }
    }

    let has_ps = strategy.per_op.iter().any(|op| {
        matches!(
            op,
            OpStrategy::Dp {
                comm: CommMethod::Ps,
                ..
            }
        )
    });
    let has_ar = strategy.per_op.iter().any(|op| {
        matches!(
            op,
            OpStrategy::Dp {
                comm: CommMethod::AllReduce,
                ..
            }
        )
    });
    if has_ps {
        out.push(Intervention::SwitchComm {
            to: CommMethod::AllReduce,
        });
    }
    if has_ar {
        out.push(Intervention::SwitchComm { to: CommMethod::Ps });
    }

    out.push(Intervention::FlipOrder);
    out
}

/// Evaluates one intervention through the cheapest sound incremental
/// path: cluster-only interventions re-price the cached graph and
/// simulate it once, comm flips splice from the base lowering, and
/// order flips re-simulate the cached graph. Device removal changes the
/// cluster's structure, so it runs the full pipeline. Bit-identical to
/// a fresh compile + simulate in every case.
fn eval_intervention(
    ev: &IncrementalEvaluator<'_, GroundTruthCost>,
    g: &Graph,
    iv: &Intervention,
    cluster: &Cluster,
    strategy: &Strategy,
    policy: &OrderPolicy,
) -> Evaluation {
    match iv {
        Intervention::ScaleLinkClass { .. } | Intervention::UpgradeDevice { .. } => {
            let (c2, _, _) = iv.apply(cluster, strategy, policy);
            ev.evaluate_perturbed(Perturbation::Cluster(&c2)).0
        }
        Intervention::RemoveDevice { .. } => {
            let (c2, s2, _) = iv.apply(cluster, strategy, policy);
            evaluate_with_policy(g, &c2, &GroundTruthCost, &s2, policy)
        }
        Intervention::SwitchComm { .. } => {
            let (_, s2, _) = iv.apply(cluster, strategy, policy);
            ev.evaluate_perturbed(Perturbation::Strategy(&s2)).0
        }
        Intervention::FlipOrder => {
            let (_, _, p2) = iv.apply(cluster, strategy, policy);
            ev.evaluate_perturbed(Perturbation::Policy(&p2)).0
        }
    }
}

/// Re-simulates every intervention and returns the outcomes ranked by
/// predicted improvement (largest `delta` first), truncated to `top_k`.
/// Uses the incremental evaluator (one shared compile, no compile per
/// intervention).
pub fn run_whatif(
    g: &Graph,
    cluster: &Cluster,
    strategy: &Strategy,
    policy: &OrderPolicy,
    base_makespan: f64,
    interventions: &[Intervention],
    top_k: usize,
) -> Vec<WhatIfOutcome> {
    run_whatif_with(
        g,
        cluster,
        strategy,
        policy,
        base_makespan,
        interventions,
        top_k,
        true,
    )
}

/// [`run_whatif`] with an explicit incremental toggle. With
/// `incremental` off, every intervention pays a fresh compile+simulate.
/// That branch is a reference only: `explain` always passes `true`
/// through [`run_whatif`], the benchmark calls this with `true`, and
/// `incremental_and_full_whatif_are_bit_identical` checks the
/// evaluator's outcomes against the `false` branch bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn run_whatif_with(
    g: &Graph,
    cluster: &Cluster,
    strategy: &Strategy,
    policy: &OrderPolicy,
    base_makespan: f64,
    interventions: &[Intervention],
    top_k: usize,
    incremental: bool,
) -> Vec<WhatIfOutcome> {
    let _span = heterog_telemetry::span("explain.whatif");
    let evaluator = if incremental && !interventions.is_empty() {
        Some(IncrementalEvaluator::new(
            g,
            &GroundTruthCost,
            cluster,
            strategy,
            policy,
        ))
    } else {
        None
    };
    let mut scratch = SimScratch::default();
    let mut report = SimReport::default();
    let mut out = Vec::with_capacity(interventions.len());
    for iv in interventions {
        if let Some(reason) = iv.skip_reason(cluster, strategy) {
            // Logged, not ranked: a no-op candidate with delta 0 would
            // silently crowd real interventions out of the top-k table.
            // `label()` indexes cluster devices, so name out-of-range
            // device interventions without it.
            let label = match iv {
                Intervention::UpgradeDevice { device, .. }
                | Intervention::RemoveDevice { device }
                    if (*device as usize) >= cluster.num_devices() =>
                {
                    format!("G{device} (unknown device)")
                }
                _ => iv.label(cluster),
            };
            eprintln!("heterog-explain: skipping what-if '{label}': {reason}");
            continue;
        }
        let started = std::time::Instant::now();
        let (makespan, oom) = match &evaluator {
            Some(ev) => {
                let e = eval_intervention(ev, g, iv, cluster, strategy, policy);
                (e.iteration_time, e.oom)
            }
            None => {
                let (c2, s2, p2) = iv.apply(cluster, strategy, policy);
                let tg = compile(g, &c2, &GroundTruthCost, &s2);
                simulate_into(&tg, &c2.memory_capacities(), &p2, &mut scratch, &mut report);
                (report.iteration_time, report.memory.any_oom())
            }
        };
        crate::WHATIF_SIMULATIONS.inc();
        crate::WHATIF_SECONDS.observe(started.elapsed().as_secs_f64());
        out.push(WhatIfOutcome {
            label: iv.label(cluster),
            makespan,
            delta: base_makespan - makespan,
            oom,
        });
    }
    out.sort_by(|a, b| b.delta.total_cmp(&a.delta));
    out.truncate(top_k);
    if let Some(best) = out.first() {
        crate::BEST_WHATIF_DELTA.set(best.delta);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_strategies::evaluate;

    fn setup() -> (Graph, Cluster, Strategy) {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::Ps);
        (g, c, s)
    }

    #[test]
    fn default_set_covers_links_devices_and_comm() {
        let (_, c, s) = setup();
        let ivs = default_interventions(&c, &s);
        assert!(ivs
            .iter()
            .any(|i| matches!(i, Intervention::ScaleLinkClass { .. })));
        assert!(ivs
            .iter()
            .any(|i| matches!(i, Intervention::RemoveDevice { .. })));
        assert!(ivs.iter().any(|i| matches!(
            i,
            Intervention::SwitchComm {
                to: CommMethod::AllReduce
            }
        )));
        assert!(ivs.contains(&Intervention::FlipOrder));
    }

    #[test]
    fn nic_speedup_improves_ps_bound_plan() {
        let (g, c, s) = setup();
        let base = evaluate(&g, &c, &GroundTruthCost, &s).iteration_time;
        let ivs = [
            Intervention::ScaleLinkClass {
                kind: LinkKind::NicIn,
                factor: 2.0,
            },
            Intervention::ScaleLinkClass {
                kind: LinkKind::NicOut,
                factor: 2.0,
            },
        ];
        let out = run_whatif(&g, &c, &s, &OrderPolicy::RankBased, base, &ivs, 10);
        assert_eq!(out.len(), 2);
        // An even-PS plan on the paper testbed is NIC-bound: doubling NIC
        // bandwidth must strictly help.
        assert!(
            out[0].delta > 0.0,
            "expected a NIC speedup to help, got {:?}",
            out
        );
        for o in &out {
            assert!((o.delta - (base - o.makespan)).abs() < 1e-12);
        }
    }

    #[test]
    fn remove_device_keeps_strategy_consistent() {
        let (g, c, s) = setup();
        let iv = Intervention::RemoveDevice { device: 0 };
        let (c2, s2, p2) = iv.apply(&c, &s, &OrderPolicy::RankBased);
        assert_eq!(c2.num_devices(), c.num_devices() - 1);
        for op in &s2.per_op {
            if let OpStrategy::Dp { replicas, .. } = op {
                assert_eq!(replicas.len(), c2.num_devices());
                assert!(replicas.iter().sum::<u32>() > 0);
            }
        }
        // The perturbed deployment must compile and simulate cleanly.
        let tg = compile(&g, &c2, &GroundTruthCost, &s2);
        let r = heterog_sim::simulate(&tg, &c2.memory_capacities(), &p2);
        assert!(r.iteration_time > 0.0);
    }

    #[test]
    fn incremental_and_full_whatif_are_bit_identical() {
        let (g, c, s) = setup();
        let base = evaluate(&g, &c, &GroundTruthCost, &s).iteration_time;
        let ivs = default_interventions(&c, &s);
        let pol = OrderPolicy::RankBased;
        let fast = run_whatif_with(&g, &c, &s, &pol, base, &ivs, ivs.len(), true);
        let slow = run_whatif_with(&g, &c, &s, &pol, base, &ivs, ivs.len(), false);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{}", a.label);
            assert_eq!(a.delta.to_bits(), b.delta.to_bits());
            assert_eq!(a.oom, b.oom);
        }
    }

    #[test]
    fn inapplicable_strategy_flip_is_skipped_not_ranked_as_noop() {
        let (g, c, _) = setup();
        // All-shard plan: no DP group exists, so a comm flip cannot
        // change the deployment and must be skipped with a reason.
        let s = Strategy::uniform(g.len(), OpStrategy::shard_proportional(&c, 0));
        let iv = Intervention::SwitchComm {
            to: CommMethod::AllReduce,
        };
        let reason = iv.skip_reason(&c, &s).expect("flip must not apply");
        assert!(
            reason.contains("shard"),
            "reason names the variant: {reason}"
        );
        let base = evaluate(&g, &c, &GroundTruthCost, &s).iteration_time;
        let out = run_whatif(
            &g,
            &c,
            &s,
            &OrderPolicy::RankBased,
            base,
            std::slice::from_ref(&iv),
            10,
        );
        assert!(out.is_empty(), "skipped interventions produce no outcome");

        // The same flip on a DP plan applies as before.
        let (_, _, dp) = setup();
        assert_eq!(iv.skip_reason(&c, &dp), None);
    }

    #[test]
    fn out_of_range_device_interventions_are_skipped() {
        let (_, c, s) = setup();
        let gone = c.num_devices() as u32 + 3;
        assert!(Intervention::RemoveDevice { device: gone }
            .skip_reason(&c, &s)
            .is_some());
        let model = c.device(DeviceId(0)).model;
        assert!(Intervention::UpgradeDevice {
            device: 0,
            to: model
        }
        .skip_reason(&c, &s)
        .is_some_and(|r| r.contains("already")));
    }

    #[test]
    fn switch_comm_flips_every_dp_group() {
        let (_, _, s) = setup();
        let flipped = switch_comm(&s, CommMethod::AllReduce);
        for op in &flipped.per_op {
            if let OpStrategy::Dp { comm, .. } = op {
                assert_eq!(*comm, CommMethod::AllReduce);
            }
        }
    }
}
