//! Post-like planner (§6.8).
//!
//! Post [Gao et al. '18] learns *operation-to-device placement* with
//! cross-entropy minimization combined with proximal policy optimization
//! — placement only, no replication and no aggregation-method choice
//! ("Post only considers operation-to-device placement but not
//! operation-level data parallelism", §6.8). We implement the
//! cross-entropy core: sample per-group device placements from a
//! categorical distribution, keep the elite fraction, move the
//! distribution toward it, and return the final argmax placement.

use heterog_telemetry::rng::ChaCha8Rng;

use heterog_cluster::{Cluster, DeviceId};
use heterog_compile::{OpStrategy, Strategy};
use heterog_graph::Graph;
use heterog_nn::{sample_categorical, Matrix};
use heterog_profile::CostEstimator;

use crate::evaluate::evaluate;
use crate::grouping::{avg_op_times, group_ops};
use crate::planner::Planner;

/// Elite fraction retained per CEM iteration.
const ELITE_FRAC: f64 = 0.25;
/// Distribution smoothing toward the elite frequencies.
const ALPHA: f64 = 0.7;

/// Cross-entropy search configuration.
#[derive(Debug, Clone)]
pub struct PostPlanner {
    /// CEM iterations.
    pub iterations: usize,
    /// Placements sampled per iteration.
    pub samples: usize,
    /// Operation groups.
    pub groups: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PostPlanner {
    fn default() -> Self {
        PostPlanner {
            iterations: 8,
            samples: 16,
            groups: 48,
            seed: 0x9057,
        }
    }
}

impl Planner for PostPlanner {
    fn name(&self) -> &'static str {
        "Post"
    }

    fn plan(&self, g: &Graph, cluster: &Cluster, cost: &dyn CostEstimator) -> Strategy {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let grouping = group_ops(g, &avg_op_times(g, cluster, &cost), self.groups);
        let m = cluster.num_devices();
        let n = grouping.len();

        // Categorical distribution per group over devices.
        let mut probs = Matrix::from_vec(n, m, vec![1.0 / m as f64; n * m]);
        let mut best: Option<(f64, Vec<usize>)> = None;

        let _span = heterog_telemetry::span("post_cem");
        for _ in 0..self.iterations {
            crate::SEARCH_ITERATIONS.inc();
            let mut scored: Vec<(f64, Vec<usize>)> = Vec::with_capacity(self.samples);
            for _ in 0..self.samples {
                let placement = sample_categorical(&probs, &mut rng);
                let t = self.eval_placement(g, cluster, cost, &grouping.group_of, &placement);
                scored.push((t, placement));
            }
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            let elite = ((self.samples as f64 * ELITE_FRAC).ceil() as usize).max(1);
            if best.as_ref().is_none_or(|(bt, _)| scored[0].0 < *bt) {
                best = Some(scored[0].clone());
            }
            // Update distribution toward elite frequencies.
            let mut freq = Matrix::zeros(n, m);
            for (_, placement) in &scored[..elite] {
                for (gi, &d) in placement.iter().enumerate() {
                    freq.add_at(gi, d, 1.0 / elite as f64);
                }
            }
            for i in 0..probs.data.len() {
                probs.data[i] = (1.0 - ALPHA) * probs.data[i] + ALPHA * freq.data[i];
            }
        }

        let placement = best.expect("at least one CEM iteration").1;
        placement_to_strategy(g, &grouping.group_of, &placement)
    }
}

impl PostPlanner {
    fn eval_placement(
        &self,
        g: &Graph,
        cluster: &Cluster,
        cost: &dyn CostEstimator,
        group_of: &[u32],
        placement: &[usize],
    ) -> f64 {
        let s = placement_to_strategy(g, group_of, placement);
        let e = evaluate(g, cluster, &cost, &s);
        if e.oom {
            e.iteration_time * 100.0
        } else {
            e.iteration_time
        }
    }
}

fn placement_to_strategy(g: &Graph, group_of: &[u32], placement: &[usize]) -> Strategy {
    let per_op = (0..g.len())
        .map(|i| OpStrategy::Mp(DeviceId(placement[group_of[i] as usize] as u32)))
        .collect();
    Strategy::from_per_op(per_op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;

    #[test]
    fn produces_pure_placement_strategy() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let c = paper_testbed_8gpu();
        let p = PostPlanner {
            iterations: 2,
            samples: 4,
            groups: 8,
            ..Default::default()
        };
        let s = p.plan(&g, &c, &GroundTruthCost);
        assert!(s.per_op.iter().all(|o| matches!(o, OpStrategy::Mp(_))));
    }

    #[test]
    fn cem_converges_to_best_device_with_one_group() {
        // With a single group the space is just "which device", which a
        // few CEM iterations must solve exactly.
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let p = PostPlanner {
            iterations: 4,
            samples: 16,
            groups: 1,
            ..Default::default()
        };
        let s = p.plan(&g, &c, &GroundTruthCost);
        let t = evaluate(&g, &c, &GroundTruthCost, &s).iteration_time;
        let best_single = (0..8)
            .map(|d| {
                let ms = Strategy::uniform(g.len(), OpStrategy::Mp(DeviceId(d)));
                evaluate(&g, &c, &GroundTruthCost, &ms).iteration_time
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            (t - best_single).abs() < 1e-9,
            "{t} vs best single {best_single}"
        );
    }
}
