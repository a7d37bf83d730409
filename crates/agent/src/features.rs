//! Model feature encoding (§4.1.1).
//!
//! "(1) a node feature matrix, where each row contains the operation's
//! attributes (e.g., execution time when running on different devices,
//! the input and output sizes, the average tensor transfer time between
//! each pair of devices); (2) an adjacency matrix describing data
//! dependencies."

use heterog_cluster::Cluster;
use heterog_graph::{Graph, Phase};
use heterog_nn::Matrix;
use heterog_profile::CostEstimator;

/// Scale for log-compressed byte counts.
const BYTE_LOG_SCALE: f64 = 1.0 / 30.0;

/// Encodes the node feature matrix. Feature layout per op:
///
/// 1. execution time on each distinct GPU model (normalized by the
///    graph's max op time);
/// 2. log-scaled output bytes and parameter bytes;
/// 3. average cross-device transfer time of the output tensor
///    (normalized like op times);
/// 4. batch-splittable flag, parameter-gradient flag;
/// 5. one-hot training phase (forward / backward / update).
pub fn encode_features<C: CostEstimator>(g: &Graph, cluster: &Cluster, cost: &C) -> Matrix {
    let mut models: Vec<_> = cluster.devices().iter().map(|d| d.model).collect();
    models.sort_by_key(|m| m.name());
    models.dedup();

    let batch = g.batch_size;
    // Per-op time per model.
    let times: Vec<Vec<f64>> = g
        .iter()
        .map(|(_, n)| models.iter().map(|&m| cost.op_time(n, m, batch)).collect())
        .collect();
    let tmax = times
        .iter()
        .flat_map(|r| r.iter().copied())
        .fold(0.0f64, f64::max)
        .max(1e-12);

    // Average transfer time of each op's output across all device pairs.
    let mean_bw: f64 = {
        let bws: Vec<f64> = cluster.links().iter().map(|l| l.bandwidth_bps).collect();
        bws.iter().sum::<f64>() / bws.len().max(1) as f64
    };

    let f = models.len() + 2 + 1 + 2 + 3;
    let mut x = Matrix::zeros(g.len(), f);
    for (i, (_, n)) in g.iter().enumerate() {
        let row = x.row_mut(i);
        for (j, t) in times[i].iter().enumerate() {
            row[j] = t / tmax;
        }
        let mut c = models.len();
        row[c] = (n.output_bytes(batch) as f64 + 1.0).ln() * BYTE_LOG_SCALE;
        row[c + 1] = (n.param_bytes as f64 + 1.0).ln() * BYTE_LOG_SCALE;
        c += 2;
        row[c] = (n.output_bytes(batch) as f64 / mean_bw) / tmax.max(1e-9);
        c += 1;
        row[c] = f64::from(n.batch_splittable);
        row[c + 1] = f64::from(n.kind.produces_param_grad());
        c += 2;
        let pi = match n.phase {
            Phase::Forward => 0,
            Phase::Backward => 1,
            Phase::Update => 2,
        };
        row[c + pi] = 1.0;
    }
    x
}

/// The graph's dataflow edges as `(src, dst)` pairs for GAT neighbor
/// construction.
pub fn graph_edges(g: &Graph) -> Vec<(u32, u32)> {
    g.edges().map(|e| (e.src.0, e.dst.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;

    #[test]
    fn feature_matrix_shape_and_ranges() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let c = paper_testbed_8gpu();
        let x = encode_features(&g, &c, &GroundTruthCost);
        assert_eq!(x.rows, g.len());
        // 3 distinct models + 2 + 1 + 2 + 3 = 11 features.
        assert_eq!(x.cols, 11);
        // Normalized times live in (0, 1].
        for i in 0..x.rows {
            for j in 0..3 {
                let v = x.get(i, j);
                assert!((0.0..=1.0 + 1e-9).contains(&v), "time feature {v}");
            }
        }
        assert!(x.data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn phase_onehot_is_exclusive() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let c = paper_testbed_8gpu();
        let x = encode_features(&g, &c, &GroundTruthCost);
        for i in 0..x.rows {
            let s: f64 = (8..11).map(|j| x.get(i, j)).sum();
            assert_eq!(s, 1.0);
        }
    }

    #[test]
    fn edges_match_graph() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let e = graph_edges(&g);
        assert_eq!(e.len(), g.edge_count());
    }
}
