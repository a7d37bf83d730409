//! Graph statistics, used for reporting and for the paper's Table 2/3
//! style strategy histograms.

use crate::graph::Graph;
use crate::node::Phase;
use crate::op::OpKind;

/// Aggregate statistics over a computation graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of operations.
    pub num_ops: usize,
    /// Number of dataflow edges.
    pub num_edges: usize,
    /// Total trainable parameter bytes.
    pub param_bytes: u64,
    /// Total FLOPs for one iteration at the graph's batch size.
    pub total_flops: f64,
    /// Operation count per phase `[forward, backward, update]`.
    pub phase_counts: [usize; 3],
    /// Number of ops holding parameters.
    pub param_ops: usize,
    /// Number of ops producing parameter gradients.
    pub grad_producers: usize,
    /// Largest single-op parameter size in bytes.
    pub max_param_bytes: u64,
}

impl GraphStats {
    /// Computes statistics for `g`.
    pub fn of(g: &Graph) -> Self {
        let mut phase_counts = [0usize; 3];
        let mut param_ops = 0;
        let mut grad_producers = 0;
        let mut max_param_bytes = 0;
        for (_, n) in g.iter() {
            let pi = match n.phase {
                Phase::Forward => 0,
                Phase::Backward => 1,
                Phase::Update => 2,
            };
            phase_counts[pi] += 1;
            if n.has_params() {
                param_ops += 1;
                max_param_bytes = max_param_bytes.max(n.param_bytes);
            }
            if n.kind.produces_param_grad() {
                grad_producers += 1;
            }
        }
        GraphStats {
            num_ops: g.len(),
            num_edges: g.edge_count(),
            param_bytes: g.total_param_bytes(),
            total_flops: g.total_flops(),
            phase_counts,
            param_ops,
            grad_producers,
            max_param_bytes,
        }
    }
}

/// Histogram of op kinds, for model-zoo sanity reporting.
pub fn kind_histogram(g: &Graph) -> Vec<(OpKind, usize)> {
    let mut map: std::collections::HashMap<OpKind, usize> = std::collections::HashMap::new();
    for (_, n) in g.iter() {
        *map.entry(n.kind).or_insert(0) += 1;
    }
    let mut v: Vec<_> = map.into_iter().collect();
    v.sort_by_key(|(k, _)| k.mnemonic());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::OpKind;

    #[test]
    fn stats_of_small_graph() {
        let mut b = GraphBuilder::new("s", 16);
        let x = b.input(100);
        let l = b.param_layer("l", OpKind::MatMul, x, 50, 5000, 1.0e4);
        let g = b.finish(l);
        let s = GraphStats::of(&g);
        assert_eq!(s.num_ops, g.len());
        assert_eq!(s.param_ops, 1);
        assert_eq!(s.grad_producers, 1);
        assert_eq!(s.param_bytes, 5000 * 4);
        assert!(s.total_flops > 0.0);
        assert!(s.phase_counts.iter().sum::<usize>() == s.num_ops);
    }

    #[test]
    fn histogram_counts_kinds() {
        let mut b = GraphBuilder::new("s", 16);
        let x = b.input(100);
        let l1 = b.param_layer("l1", OpKind::MatMul, x, 50, 5000, 1.0e4);
        let l2 = b.param_layer("l2", OpKind::MatMul, l1, 25, 1250, 1.0e4);
        let g = b.finish(l2);
        let h = kind_histogram(&g);
        let matmuls = h.iter().find(|(k, _)| *k == OpKind::MatMul).unwrap().1;
        assert_eq!(matmuls, 2);
    }
}
