//! The deterministic HeteroG planner: greedy + local search over the
//! paper's action space, scored by the simulator.
//!
//! This is the workhorse behind the table/figure benches: it explores the
//! same `N x (M+6)` decision space as the RL agent (§4.1.2, widened) —
//! per-group MP placement, even/proportional replication, PS/AllReduce,
//! even/proportional sharding — with the
//! simulator (§3.3) as its objective, including the OOM penalty that
//! steers large models toward the MP-heavy placements of Table 3.
//!
//! A group visit scores every one-group move of the incumbent. Each
//! candidate is described to the incremental evaluator as "the
//! incumbent with this group re-decided as this action"
//! ([`Perturbation::Group`]): only the group's placements are resolved
//! again, no `Strategy` is built, and the task graph is spliced from the
//! incumbent's lowering. A candidate whose busiest processor's load
//! already exceeds the incumbent's objective is not spliced; the others
//! are simulated with that objective as the limit, and a simulation
//! stops as soon as a running lower bound on its iteration time (paper
//! §4.2's upward rank, and each processor's unstarted work) exceeds it.
//! Both bounds are sound, so every move equals scoring every candidate
//! bit for bit (see [`best_candidate`]).

use heterog_cluster::Cluster;
use heterog_compile::{OpStrategy, Strategy};
use heterog_graph::Graph;
use heterog_profile::CostEstimator;
use heterog_sched::OrderPolicy;
use heterog_strategies::{
    evaluate, group_ops, grouping::avg_op_times, Bounded, Evaluation, IncrementalEvaluator,
    Perturbation, Planner,
};
use heterog_telemetry::par::par_map;

use crate::action::{actions_to_strategy, ActionSpace};

static CANDIDATE_EVALS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_agent_candidate_evals_total",
    "Candidate strategies evaluated by the fast planner",
);
static CANDIDATES_PER_SEC: heterog_telemetry::Gauge = heterog_telemetry::Gauge::new(
    "heterog_agent_candidates_per_sec",
    "Candidate evaluation throughput of the last plan_detailed call",
);

/// Greedy local-search planner configuration.
#[derive(Debug, Clone)]
pub struct HeteroGPlanner {
    /// Operation groups (the paper's N; smaller = faster planning).
    pub groups: usize,
    /// Greedy sweeps over all groups.
    pub passes: usize,
    /// Allow MP (single-device) actions. Disabling restricts the space
    /// to the four DP schemes — the MP ablation bench.
    pub allow_mp: bool,
}

impl Default for HeteroGPlanner {
    fn default() -> Self {
        HeteroGPlanner {
            groups: 48,
            passes: 2,
            allow_mp: true,
        }
    }
}

impl HeteroGPlanner {
    /// Plans and also returns the final evaluation and the per-group
    /// actions (used by the Table 2/3 histogram experiments).
    pub fn plan_detailed<C: CostEstimator>(
        &self,
        g: &Graph,
        cluster: &Cluster,
        cost: &C,
    ) -> (Strategy, Evaluation, Vec<usize>) {
        let _span = heterog_telemetry::span("fast_plan");
        let telemetry_on = heterog_telemetry::enabled();
        let wall_start = telemetry_on.then(std::time::Instant::now);
        let mut evals: u64 = 0;
        let space = ActionSpace::new(cluster);
        let times = avg_op_times(g, cluster, cost);
        let grouping = group_ops(g, &times, self.groups);
        let n = grouping.len();
        let m = cluster.num_devices();

        // Start from the best uniform DP baseline.
        let uniform_actions = [m, m + 1, m + 2, m + 3];
        let (mut actions, mut cur_obj) = par_map(&uniform_actions, |&a| {
            let acts = vec![a; n];
            let s = actions_to_strategy(g, cluster, &grouping, &acts);
            let e = evaluate(g, cluster, cost, &s);
            (acts, objective(&e, cluster))
        })
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("four baselines");
        evals += uniform_actions.len() as u64;
        heterog_events::emit_with(|| heterog_events::EventKind::RunStarted {
            phase: "plan-search".into(),
            total_units: (self.passes * n) as u64,
        });

        // Anchor an incremental evaluator on the incumbent: a single-group
        // neighborhood move re-lowers only the lowering segments whose
        // placements it changed and copies the rest of the incumbent's
        // task graph, bit-identically to a full compile+simulate.
        let rank_based = OrderPolicy::RankBased;
        let mut evaluator = IncrementalEvaluator::new(
            g,
            cost,
            cluster,
            &actions_to_strategy(g, cluster, &grouping, &actions),
            &rank_based,
        );

        // Every action's per-op decision, decoded once for all visits.
        let decoded: Vec<OpStrategy> = (0..space.len()).map(|a| space.decode(a, cluster)).collect();

        // Visit groups heaviest-first.
        let mut order: Vec<usize> = (0..n).collect();
        let group_cost: Vec<f64> = grouping
            .members
            .iter()
            .map(|ms| ms.iter().map(|op| times[op.index()]).sum())
            .collect();
        order.sort_by(|&a, &b| group_cost[b].total_cmp(&group_cost[a]));

        // Incumbent moves so far, and per group the move count at its last
        // visit with that visit's best candidate, kept only when it found
        // no improvement: revisiting such a group with no move since would
        // re-score the same candidates against the same incumbent, so the
        // visit is skipped and its remembered best re-emitted.
        let mut moves: u64 = 0;
        let mut settled: Vec<Option<(u64, (usize, f64))>> = vec![None; n];
        let mut visited: u64 = 0;
        for pass in 0..self.passes {
            let mut improved = false;
            for &gi in &order {
                let best = match settled[gi] {
                    Some((at, best)) if at == moves => best,
                    _ => {
                        let current_action = actions[gi];
                        let first = if self.allow_mp { 0 } else { m };
                        let candidates: Vec<usize> = (first..space.len())
                            .filter(|&a| a != current_action)
                            .collect();
                        // `evals` counts candidates considered, simulated
                        // or not.
                        evals += candidates.len() as u64;
                        // Simulate each candidate only while it can still
                        // beat the incumbent.
                        let ops = &grouping.members[gi];
                        best_candidate(&candidates, cur_obj, |a, limit| {
                            let to = &decoded[a];
                            match evaluator.evaluate_bounded(Perturbation::Group { ops, to }, limit)
                            {
                                Bounded::Evaluated(e, _) => Ok(objective(&e, cluster)),
                                Bounded::Pruned(bound) => Err(bound),
                            }
                        })
                    }
                };
                if best.1 + 1e-9 < cur_obj {
                    actions[gi] = best.0;
                    cur_obj = best.1;
                    improved = true;
                    moves += 1;
                    settled[gi] = None;
                    // The incumbent moved: re-anchor so later candidates
                    // splice from the new incumbent's lowering.
                    evaluator.rebase(
                        cluster,
                        &actions_to_strategy(g, cluster, &grouping, &actions),
                        &rank_based,
                    );
                } else {
                    settled[gi] = Some((moves, best));
                }
                visited += 1;
                heterog_events::emit_with(|| heterog_events::EventKind::SearchIteration {
                    pass: pass as u64,
                    visited,
                    evals,
                    best_makespan: cur_obj,
                    candidate_makespan: best.1,
                });
            }
            if !improved {
                break;
            }
        }

        let strategy = actions_to_strategy(g, cluster, &grouping, &actions);
        // The evaluator is re-anchored on every improvement, so its base
        // is the final strategy's evaluation already.
        let eval = if *evaluator.strategy() == strategy {
            evaluator.base().clone()
        } else {
            evaluate(g, cluster, cost, &strategy)
        };
        evals += 1;
        CANDIDATE_EVALS.add(evals);
        if let Some(t0) = wall_start {
            let secs = t0.elapsed().as_secs_f64();
            if secs > 0.0 {
                CANDIDATES_PER_SEC.set(evals as f64 / secs);
            }
        }
        (strategy, eval, actions)
    }
}

impl Planner for HeteroGPlanner {
    fn name(&self) -> &'static str {
        "HeteroG"
    }

    fn plan(&self, g: &Graph, cluster: &Cluster, cost: &dyn CostEstimator) -> Strategy {
        self.plan_detailed(g, cluster, &cost).0
    }
}

/// The visit's best `(action, value)` among `candidates`: the first
/// minimum, in candidate order, of each candidate's objective if it was
/// simulated to the end, else the bound that pruned it. `score(a,
/// limit)` returns the candidate's objective, or `Err(bound)` when a
/// lower `bound` on its iteration time exceeds `limit`; the objective is
/// at least the iteration time, which is at least that bound.
///
/// Every candidate is scored once, in parallel, against the incumbent's
/// objective `cur_obj`, known before the visit, so which candidates are
/// simulated depends on values only, never on thread timing. A
/// candidate that beats the incumbent has every bound at most its
/// objective, below `cur_obj`, so it was simulated; a pruned one's
/// bound and objective both exceed `cur_obj`. So whenever the value
/// returned beats `cur_obj`, it is the exact first minimum over every
/// candidate's objective. Otherwise it is a lower bound on every
/// candidate's objective.
fn best_candidate(
    candidates: &[usize],
    cur_obj: f64,
    score: impl Fn(usize, f64) -> Result<f64, f64> + Sync,
) -> (usize, f64) {
    candidates
        .iter()
        .zip(par_map(candidates, |&a| score(a, cur_obj)))
        .map(|(&a, r)| (a, r.unwrap_or_else(|bound| bound)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("candidates")
}

/// Search objective: iteration time, with infeasible (OOM) strategies
/// ranked by how badly they overflow so repair has a gradient to follow.
pub fn objective(e: &Evaluation, cluster: &Cluster) -> f64 {
    if !e.oom {
        return e.iteration_time;
    }
    let caps = cluster.memory_capacities();
    let overflow_gib: f64 = e
        .report
        .memory
        .peak_bytes
        .iter()
        .zip(&caps)
        .map(|(&p, &c)| p.saturating_sub(c) as f64 / (1u64 << 30) as f64)
        .sum();
    1.0e6 + overflow_gib * 1.0e3 + e.iteration_time
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_compile::{CommMethod, Strategy as S};
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;

    #[test]
    fn beats_every_dp_baseline_on_vgg() {
        let g = ModelSpec::new(BenchmarkModel::Vgg19, 96).build();
        let c = paper_testbed_8gpu();
        let planner = HeteroGPlanner {
            groups: 16,
            passes: 1,
            allow_mp: true,
        };
        let (_, eval, _) = planner.plan_detailed(&g, &c, &GroundTruthCost);
        for comm in [CommMethod::Ps, CommMethod::AllReduce] {
            for s in [
                S::even(g.len(), &c, comm),
                S::proportional(g.len(), &c, comm),
            ] {
                let b = evaluate(&g, &c, &GroundTruthCost, &s);
                assert!(
                    eval.iteration_time <= b.iteration_time + 1e-9,
                    "HeteroG {} vs baseline {}",
                    eval.iteration_time,
                    b.iteration_time
                );
            }
        }
        assert!(!eval.oom);
    }

    #[test]
    fn finds_feasible_plan_when_dp_ooms() {
        // Shrink GPU memory until pure DP overflows; the planner must
        // still return a feasible (MP-heavy) strategy.
        use heterog_cluster::{topology::Server, Cluster, Device, GpuModel};
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
            // 3.3 GiB: too small for whole-model replicas (575 MiB of
            // params x3 optimizer state + gradients + the 1.25 GiB
            // runtime workspace overflow it), but enough for a split
            // where one device hosts FC1's indivisible ~1.2 GiB of
            // params + optimizer state.
            d.memory_bytes = 3481 << 20;
        }
        let c = Cluster::new(servers, devices);
        let g = ModelSpec::new(BenchmarkModel::Vgg19, 16).build();
        let dp = S::even(g.len(), &c, CommMethod::AllReduce);
        assert!(
            evaluate(&g, &c, &GroundTruthCost, &dp).oom,
            "premise: DP must OOM"
        );
        let planner = HeteroGPlanner {
            groups: 12,
            passes: 2,
            allow_mp: true,
        };
        let (_, eval, actions) = planner.plan_detailed(&g, &c, &GroundTruthCost);
        assert!(!eval.oom, "planner must repair memory");
        // Repair implies memory-saving actions: MP placements (one full
        // copy instead of per-device replicas) or SPMD shard actions
        // (each device pins only its parameter slice).
        let m = c.num_devices();
        assert!(
            actions.iter().any(|&a| a < m || a >= m + 4),
            "expected MP or shard placements, got {actions:?}"
        );
    }

    #[test]
    fn detailed_actions_match_strategy_histogram() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let planner = HeteroGPlanner {
            groups: 8,
            passes: 1,
            allow_mp: true,
        };
        let (s, _, actions) = planner.plan_detailed(&g, &c, &GroundTruthCost);
        assert_eq!(actions.len(), 8);
        assert_eq!(s.per_op.len(), g.len());
    }
}
