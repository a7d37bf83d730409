//! The measurement + fitting pipeline.
//!
//! Mirrors §3.3's Profiler: "run the given DNN model on each device with
//! different representative batch sizes ... measure computation time of
//! each operation ... build a linear regression model", and "transfer
//! data with different sizes between each pair of devices, record the
//! transfer time and build a linear regression model for transfer time
//! prediction over each link".
//!
//! Measurements are drawn from [`GroundTruthCost`] with multiplicative
//! log-normal-ish noise (deterministic per seed), so fitted predictions
//! deviate from the truth by a few percent — planners therefore operate
//! on realistic, imperfect profiles.

use std::collections::HashMap;

use heterog_telemetry::hash::FastMap;
use heterog_telemetry::rng::ChaCha8Rng;

use heterog_cluster::Cluster;
use heterog_graph::Graph;

use crate::cost::{CostEstimator, CostModel, GroundTruthCost};
use crate::linreg::LinearFit;

/// Representative batch sizes to measure at, as fractions of the
/// graph's global batch (the paper profiles "different representative
/// batch sizes").
const BATCH_FRACTIONS: [f64; 4] = [0.125, 0.25, 0.5, 1.0];
/// Repeated measurements per point.
const REPEATS: usize = 3;
/// Relative measurement noise (std-dev of the multiplicative factor).
const NOISE: f64 = 0.03;

/// Profiler configuration.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// RNG seed for reproducible "measurements".
    pub seed: u64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig { seed: 0x4E57_0001 }
    }
}

/// Profiles models against the synthetic hardware and fits a [`CostModel`].
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    /// Configuration.
    pub config: ProfilerConfig,
}

impl Profiler {
    /// Profiler with the given config.
    pub fn new(config: ProfilerConfig) -> Self {
        Profiler { config }
    }

    /// Profiles one or more model graphs on `cluster` and fits the cost
    /// model. Multiple graphs pool their samples (the paper profiles all
    /// benchmark models once per environment).
    pub fn profile(&self, graphs: &[&Graph], cluster: &Cluster) -> CostModel {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut op_samples: HashMap<_, Vec<(f64, f64)>> = HashMap::new();

        // Deduplicate device hardware models: measurements depend only on
        // the GPU model, not the slot.
        let mut models: Vec<_> = cluster.devices().iter().map(|d| d.model).collect();
        models.sort_by_key(|m| m.name());
        models.dedup();

        for g in graphs {
            for (_, node) in g.iter() {
                for &model in &models {
                    for frac in BATCH_FRACTIONS {
                        let batch = ((g.batch_size as f64 * frac).round() as u64).max(1);
                        let truth = GroundTruthCost.op_time(node, model, batch);
                        for _ in 0..REPEATS {
                            let noisy = truth * noise_factor(&mut rng, NOISE);
                            op_samples
                                .entry((node.kind, model))
                                .or_default()
                                .push((node.flops(batch), noisy));
                        }
                    }
                }
            }
        }

        let op_fits = op_samples
            .into_iter()
            .map(|(k, pts)| (k, LinearFit::fit(&pts)))
            .collect();

        // Link profiling: transfer a sweep of sizes over each directed link.
        let sizes: [u64; 5] = [64 << 10, 1 << 20, 8 << 20, 64 << 20, 256 << 20];
        let mut link_fits = FastMap::default();
        for link in cluster.links() {
            let mut pts = Vec::with_capacity(sizes.len() * REPEATS);
            for &s in &sizes {
                let truth = link.transfer_time(s);
                for _ in 0..REPEATS {
                    pts.push((s as f64, truth * noise_factor(&mut rng, NOISE)));
                }
            }
            link_fits.insert(link.id, LinearFit::fit(&pts));
        }

        CostModel { op_fits, link_fits }
    }
}

/// Multiplicative noise factor centered at 1.0.
fn noise_factor(rng: &mut ChaCha8Rng, sigma: f64) -> f64 {
    // Sum of three uniforms approximates a Gaussian well enough here.
    let u: f64 = (0..3).map(|_| rng.gen_range(-1.0..1.0)).sum::<f64>() / 3.0;
    (1.0 + u * sigma * 1.7320508).max(0.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::{paper_testbed_8gpu, GpuModel};
    use heterog_graph::{BenchmarkModel, ModelSpec, OpKind};

    #[test]
    fn fitted_model_tracks_ground_truth_within_noise() {
        let g = ModelSpec::new(BenchmarkModel::Vgg19, 64).build();
        let cluster = paper_testbed_8gpu();
        let cm = Profiler::default().profile(&[&g], &cluster);

        let mut checked = 0;
        for (_, node) in g.iter() {
            if node.flops(64) < 1e6 {
                continue; // overhead-dominated tiny ops have loose fits
            }
            let truth = GroundTruthCost.op_time(node, GpuModel::TeslaV100, 64);
            let pred = cm.op_time(node, GpuModel::TeslaV100, 64);
            let rel = (pred - truth).abs() / truth;
            assert!(
                rel < 0.25,
                "{}: pred {pred:.3e} truth {truth:.3e}",
                node.name
            );
            checked += 1;
        }
        assert!(checked > 10);
    }

    #[test]
    fn link_fits_cover_every_link() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let cluster = paper_testbed_8gpu();
        let cm = Profiler::default().profile(&[&g], &cluster);
        assert_eq!(cm.link_fits.len(), cluster.num_links());
        for link in cluster.links() {
            let truth = link.transfer_time(32 << 20);
            let pred = cm.transfer_time(link, 32 << 20);
            let rel = (pred - truth).abs() / truth;
            assert!(rel < 0.15, "link {}", link.label);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let cluster = paper_testbed_8gpu();
        let a = Profiler::default().profile(&[&g], &cluster);
        let b = Profiler::default().profile(&[&g], &cluster);
        let k = (OpKind::Conv2D, GpuModel::TeslaV100);
        assert_eq!(a.op_fits.get(&k).unwrap(), b.op_fits.get(&k).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let cluster = paper_testbed_8gpu();
        let a = Profiler::default().profile(&[&g], &cluster);
        let b = Profiler::new(ProfilerConfig { seed: 7 }).profile(&[&g], &cluster);
        let k = (OpKind::Conv2D, GpuModel::TeslaV100);
        assert_ne!(a.op_fits.get(&k).unwrap(), b.op_fits.get(&k).unwrap());
    }
}
