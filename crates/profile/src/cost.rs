//! Cost estimation interfaces: the analytic ground-truth oracle and the
//! regression-fitted cost model.

use heterog_cluster::{Cluster, DeviceId, GpuModel, Link, LinkId};
use heterog_graph::{Node, OpKind};
use heterog_telemetry::hash::FastMap;

use crate::efficiency::{kind_utilization, launch_overhead_s};
use crate::linreg::LinearFit;

/// Anything that can price an operation on a device and a transfer on a
/// link. The simulator and all planners are generic over this, so the
/// same code runs against the "hardware" (ground truth) and against the
/// profiler's fitted model.
///
/// Estimators are pure functions of their inputs, shared by the pool
/// workers that evaluate search candidates in parallel: `Sync` is part
/// of the contract.
pub trait CostEstimator: Sync {
    /// Execution time (seconds) of `node` on a GPU of `model` when
    /// processing `batch` samples.
    fn op_time(&self, node: &Node, model: GpuModel, batch: u64) -> f64;

    /// Transfer time (seconds) for `bytes` over `link`.
    fn transfer_time(&self, link: &Link, bytes: u64) -> f64;
}

impl<T: CostEstimator + ?Sized> CostEstimator for &T {
    fn op_time(&self, node: &Node, model: GpuModel, batch: u64) -> f64 {
        (**self).op_time(node, model, batch)
    }

    fn transfer_time(&self, link: &Link, bytes: u64) -> f64 {
        (**self).transfer_time(link, bytes)
    }
}

/// The synthetic "hardware": analytic per-op costs built from the
/// efficiency tables, standing in for real kernel execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroundTruthCost;

impl GroundTruthCost {
    /// Raw time for `flops` of work of `kind` on `model`, plus launch
    /// overhead.
    pub fn time_for_flops(kind: OpKind, model: GpuModel, flops: f64) -> f64 {
        let util = kind_utilization(model, kind);
        let eff = model.base_tflops() * 1e12 * util;
        launch_overhead_s(model) + flops.max(0.0) / eff
    }
}

impl CostEstimator for GroundTruthCost {
    fn op_time(&self, node: &Node, model: GpuModel, batch: u64) -> f64 {
        Self::time_for_flops(node.kind, model, node.flops(batch))
    }

    fn transfer_time(&self, link: &Link, bytes: u64) -> f64 {
        link.transfer_time(bytes)
    }
}

/// The profiler's output: fitted linear models per (op kind, GPU model)
/// — `time = a * flops + b` — and per link processor —
/// `time = a * bytes + b` (§3.3: "build a linear regression model to
/// predict computation time ... and a linear regression model for
/// transfer time prediction over each link"). Every `op_time` and
/// `transfer_time` looks a fit up, so the maps use the workspace's
/// multiplicative hasher rather than SipHash.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// Fit per (kind, model): x = FLOPs, y = seconds.
    pub op_fits: FastMap<(OpKind, GpuModel), LinearFit>,
    /// Fit per link processor: x = bytes, y = seconds.
    pub link_fits: FastMap<LinkId, LinearFit>,
}

impl CostEstimator for CostModel {
    fn op_time(&self, node: &Node, model: GpuModel, batch: u64) -> f64 {
        match self.op_fits.get(&(node.kind, model)) {
            Some(fit) => fit.predict(node.flops(batch)),
            // Kind never profiled (possible for structural ops introduced
            // after profiling): fall back to the analytic oracle, as the
            // paper falls back to op-attribute-based prediction.
            None => GroundTruthCost.op_time(node, model, batch),
        }
    }

    fn transfer_time(&self, link: &Link, bytes: u64) -> f64 {
        match self.link_fits.get(&link.id) {
            Some(fit) => fit.predict(bytes as f64),
            None => link.transfer_time(bytes),
        }
    }
}

/// End-to-end `src -> dst` transfer time under `cost`: the path's
/// segments overlap (cut-through), so the slowest segment governs.
pub fn path_time<C: CostEstimator>(
    cost: &C,
    cluster: &Cluster,
    src: DeviceId,
    dst: DeviceId,
    bytes: u64,
) -> f64 {
    match cluster.path_between(src, dst) {
        Ok(p) => p
            .iter()
            .map(|&l| cost.transfer_time(cluster.link(l), bytes))
            .fold(0.0, f64::max),
        Err(_) => 0.0, // same device
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::LinkKind;
    use heterog_graph::{Phase, TensorMeta};

    fn conv_node() -> Node {
        Node::new("c", OpKind::Conv2D, Phase::Forward)
            .with_flops(1.0e9, 0.0)
            .with_output(TensorMeta::activation(1000))
    }

    #[test]
    fn ground_truth_monotone_in_batch() {
        let n = conv_node();
        let t1 = GroundTruthCost.op_time(&n, GpuModel::TeslaV100, 16);
        let t2 = GroundTruthCost.op_time(&n, GpuModel::TeslaV100, 32);
        assert!(t2 > t1);
    }

    #[test]
    fn ground_truth_v100_faster_than_1080ti() {
        let n = conv_node();
        let v = GroundTruthCost.op_time(&n, GpuModel::TeslaV100, 32);
        let g = GroundTruthCost.op_time(&n, GpuModel::Gtx1080Ti, 32);
        assert!(v < g);
        let ratio = g / v;
        assert!((1.6..=2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn tiny_ops_dominated_by_overhead() {
        let n = Node::new("r", OpKind::Reshape, Phase::Forward).with_flops(1.0, 0.0);
        let v = GroundTruthCost.op_time(&n, GpuModel::TeslaV100, 1);
        let g = GroundTruthCost.op_time(&n, GpuModel::Gtx1080Ti, 1);
        // ratio near 1: overhead-dominated, as Fig. 3(b)'s low-end spread.
        assert!(g / v < 1.45, "ratio {}", g / v);
    }

    #[test]
    fn cost_model_falls_back_to_oracle() {
        let cm = CostModel::default();
        let n = conv_node();
        let via_cm = cm.op_time(&n, GpuModel::TeslaP100, 8);
        let via_gt = GroundTruthCost.op_time(&n, GpuModel::TeslaP100, 8);
        assert_eq!(via_cm, via_gt);
    }

    #[test]
    fn cost_model_uses_fits_when_present() {
        let mut cm = CostModel::default();
        cm.op_fits.insert(
            (OpKind::Conv2D, GpuModel::TeslaV100),
            LinearFit {
                slope: 0.0,
                intercept: 0.123,
            },
        );
        let n = conv_node();
        assert_eq!(cm.op_time(&n, GpuModel::TeslaV100, 64), 0.123);
    }

    #[test]
    fn transfer_fallback_matches_link() {
        let link = Link {
            id: LinkId(0),
            kind: LinkKind::NicIn,
            bandwidth_bps: 1e9,
            latency_s: 1e-5,
            label: "test".into(),
        };
        let cm = CostModel::default();
        assert_eq!(cm.transfer_time(&link, 1000), link.transfer_time(1000));
    }

    #[test]
    fn path_time_takes_slowest_segment() {
        use heterog_cluster::paper_testbed_8gpu;
        let cluster = paper_testbed_8gpu();
        // Cross-server from the 100GbE box to a 50GbE box: the 50GbE
        // ingress NIC governs.
        let t = path_time(
            &GroundTruthCost,
            &cluster,
            DeviceId(0),
            DeviceId(2),
            53 << 20,
        );
        let expected = (53u64 << 20) as f64 / 5.3e9;
        assert!(
            (t - expected).abs() / expected < 0.05,
            "t={t} expected≈{expected}"
        );
    }
}
