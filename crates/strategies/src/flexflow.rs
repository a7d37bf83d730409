//! FlexFlow-like planner (§6.8).
//!
//! FlexFlow [Jia et al. '18] searches the SOAP space with an MCMC
//! (Metropolis-Hastings) sampler over per-operation parallelization
//! configurations, evaluated by a task-graph execution simulator. Our
//! re-implementation searches per-*group* configurations drawn from
//! {MP on device d, even DP, proportional DP} — FlexFlow does not choose
//! gradient-aggregation methods (AllReduce only) nor execution order, so
//! those dimensions stay fixed, exactly the limitation §6.8 credits for
//! HeteroG's advantage.

use heterog_telemetry::rng::ChaCha8Rng;

use heterog_cluster::{Cluster, DeviceId};
use heterog_compile::{CommMethod, OpStrategy, Strategy};
use heterog_graph::Graph;
use heterog_profile::CostEstimator;

use crate::evaluate::evaluate;
use crate::grouping::{avg_op_times, group_ops};
use crate::planner::Planner;

/// Metropolis temperature (in seconds of iteration time).
const TEMPERATURE: f64 = 0.05;

/// MCMC search configuration.
#[derive(Debug, Clone)]
pub struct FlexFlowPlanner {
    /// MCMC proposals to evaluate.
    pub iterations: usize,
    /// Operation groups searched over.
    pub groups: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlexFlowPlanner {
    fn default() -> Self {
        FlexFlowPlanner {
            iterations: 150,
            groups: 48,
            seed: 0xF1EF,
        }
    }
}

impl Planner for FlexFlowPlanner {
    fn name(&self) -> &'static str {
        "FlexFlow"
    }

    fn plan(&self, g: &Graph, cluster: &Cluster, cost: &dyn CostEstimator) -> Strategy {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let grouping = group_ops(g, &avg_op_times(g, cluster, &cost), self.groups);
        let m = cluster.num_devices();

        // Candidate configs per group.
        let ev = OpStrategy::even(cluster, CommMethod::AllReduce);
        let cp = OpStrategy::proportional(cluster, CommMethod::AllReduce);

        let mut current = Strategy::uniform(g.len(), ev.clone());
        let mut cur_eval = evaluate(g, cluster, &cost, &current);
        let mut best = current.clone();
        let mut best_cost = penalized(&cur_eval);

        let _span = heterog_telemetry::span("flexflow_mcmc");
        for _ in 0..self.iterations {
            crate::SEARCH_ITERATIONS.inc();
            // Propose: re-randomize one group's configuration.
            let gi = rng.gen_range(0..grouping.len());
            let choice = rng.gen_range(0..m + 2);
            let s = if choice < m {
                OpStrategy::Mp(DeviceId(choice as u32))
            } else if choice == m {
                ev.clone()
            } else {
                cp.clone()
            };
            let mut proposal = current.clone();
            for &op in &grouping.members[gi] {
                proposal.per_op[op.index()] = s.clone();
            }
            let eval = evaluate(g, cluster, &cost, &proposal);
            let (old, new) = (penalized(&cur_eval), penalized(&eval));
            let accept = new <= old || {
                let p = ((old - new) / TEMPERATURE).exp();
                rng.gen_range(0.0..1.0) < p
            };
            if accept {
                current = proposal;
                cur_eval = eval;
                if new < best_cost {
                    best_cost = new;
                    best = current.clone();
                }
            }
        }
        best
    }
}

/// Iteration time with OOM heavily penalized (MCMC must flee infeasible
/// states).
fn penalized(e: &crate::evaluate::Evaluation) -> f64 {
    if e.oom {
        e.iteration_time * 100.0
    } else {
        e.iteration_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;

    #[test]
    fn search_never_worse_than_start() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let p = FlexFlowPlanner {
            iterations: 15,
            groups: 12,
            ..Default::default()
        };
        let found = p.plan(&g, &c, &GroundTruthCost);
        let base = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let t_found = evaluate(&g, &c, &GroundTruthCost, &found).iteration_time;
        let t_base = evaluate(&g, &c, &GroundTruthCost, &base).iteration_time;
        assert!(t_found <= t_base + 1e-9, "{t_found} vs {t_base}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let c = paper_testbed_8gpu();
        let p = FlexFlowPlanner {
            iterations: 8,
            groups: 8,
            ..Default::default()
        };
        let a = p.plan(&g, &c, &GroundTruthCost);
        let b = p.plan(&g, &c, &GroundTruthCost);
        assert_eq!(a, b);
    }
}
