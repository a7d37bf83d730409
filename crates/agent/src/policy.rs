//! The policy network: GAT encoder -> per-group pooling -> Transformer
//! strategy network -> `N x (M+6)` logits (§4.1.1–4.1.2, Fig. 6, with the
//! action space widened by two sharding actions).

use heterog_nn::dense::Activation;
use heterog_nn::gat::neighbor_lists;
use heterog_nn::{Adam, Dense, GatLayer, Matrix, TransformerBlock};
use heterog_strategies::Grouping;

/// Network architecture knobs. The paper uses 12 GAT layers with 8
/// heads and an 8-layer Transformer-XL; those sizes are reachable via
/// this config, while the default is compact enough for CPU training.
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    /// GAT layers.
    pub gat_layers: usize,
    /// Attention heads per GAT layer.
    pub gat_heads: usize,
    /// Per-head feature width (embedding dim = heads * head_dim).
    pub gat_head_dim: usize,
    /// Transformer blocks in the strategy network.
    pub tf_blocks: usize,
    /// Transformer heads.
    pub tf_heads: usize,
    /// Transformer feed-forward width.
    pub tf_ff: usize,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            gat_layers: 2,
            gat_heads: 4,
            gat_head_dim: 8,
            tf_blocks: 2,
            tf_heads: 4,
            tf_ff: 64,
            seed: 0x6A17,
        }
    }
}

/// The end-to-end policy network.
#[derive(Debug, Clone)]
pub struct PolicyNet {
    /// Input projection to the embedding width.
    pub embed: Dense,
    /// GAT stack.
    pub gats: Vec<GatLayer>,
    /// Per-group pooling projection (the paper's `g_n = σ(Σ W e_o)`).
    pub pool: Dense,
    /// Strategy-network blocks.
    pub blocks: Vec<TransformerBlock>,
    /// Logit head (`d -> M + 6`).
    pub head: Dense,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    nbrs: Vec<Vec<u32>>,
    pool_matrix: Matrix, // N x O mean-pool matrix
}

impl PolicyNet {
    /// Builds the network for `feature_dim` input features and
    /// `num_actions = M + 6` outputs.
    pub fn new(cfg: &PolicyConfig, feature_dim: usize, num_actions: usize) -> Self {
        let mut rng = heterog_nn::init::seeded_rng(cfg.seed);
        let d = cfg.gat_heads * cfg.gat_head_dim;
        let embed = Dense::new(feature_dim, d, Activation::Tanh, &mut rng);
        let gats = (0..cfg.gat_layers)
            .map(|_| GatLayer::new(d, cfg.gat_head_dim, cfg.gat_heads, &mut rng))
            .collect();
        let pool = Dense::new(d, d, Activation::Tanh, &mut rng);
        let blocks = (0..cfg.tf_blocks)
            .map(|_| TransformerBlock::new(d, cfg.tf_heads, cfg.tf_ff, &mut rng))
            .collect();
        let head = Dense::new(d, num_actions, Activation::None, &mut rng);
        PolicyNet {
            embed,
            gats,
            pool,
            blocks,
            head,
            cache: None,
        }
    }

    /// Forward pass: node features + edges + grouping -> per-group logits.
    pub fn forward(
        &mut self,
        features: &Matrix,
        edges: &[(u32, u32)],
        grouping: &Grouping,
    ) -> Matrix {
        let nbrs = neighbor_lists(features.rows, edges);
        let mut h = self.embed.forward(features);
        for gat in &mut self.gats {
            h = gat.forward(&h, &nbrs);
        }
        // Mean-pool nodes into groups.
        let n = grouping.len();
        let mut pool_matrix = Matrix::zeros(n, features.rows);
        for (gi, members) in grouping.members.iter().enumerate() {
            let w = 1.0 / members.len().max(1) as f64;
            for m in members {
                pool_matrix.set(gi, m.index(), w);
            }
        }
        let pooled = pool_matrix.matmul(&h);
        let mut z = self.pool.forward(&pooled);
        for b in &mut self.blocks {
            z = b.forward(&z);
        }
        let logits = self.head.forward(&z);
        self.cache = Some(Cache { nbrs, pool_matrix });
        logits
    }

    /// Backward pass from the logits gradient (accumulates all layer
    /// grads).
    pub fn backward(&mut self, dlogits: &Matrix) {
        let cache = self
            .cache
            .as_ref()
            .expect("forward before backward")
            .clone();
        let mut dz = self.head.backward(dlogits);
        for b in self.blocks.iter_mut().rev() {
            dz = b.backward(&dz);
        }
        let dpooled = self.pool.backward(&dz);
        let mut dh = cache.pool_matrix.t_matmul(&dpooled);
        for gat in self.gats.iter_mut().rev() {
            dh = gat.backward(&dh, &cache.nbrs);
        }
        let _ = self.embed.backward(&dh);
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.embed.zero_grad();
        for g in &mut self.gats {
            g.zero_grad();
        }
        self.pool.zero_grad();
        for b in &mut self.blocks {
            b.zero_grad();
        }
        self.head.zero_grad();
    }

    /// Every parameter slice with its gradient, in layer order.
    pub(crate) fn params_grads(&mut self) -> Vec<(&mut [f64], &[f64])> {
        let mut pg = self.embed.params_grads();
        for g in &mut self.gats {
            pg.extend(g.params_grads());
        }
        pg.extend(self.pool.params_grads());
        for b in &mut self.blocks {
            pg.extend(b.params_grads());
        }
        pg.extend(self.head.params_grads());
        pg
    }

    /// Runs one optimizer step over every parameter.
    pub fn step(&mut self, adam: &mut Adam) {
        adam.step(&mut self.params_grads());
    }

    /// Total parameter count (for reporting).
    pub fn num_params(&mut self) -> usize {
        self.params_grads().iter().map(|(p, _)| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;
    use heterog_strategies::{group_ops, grouping::avg_op_times};

    use crate::features::{encode_features, graph_edges};

    fn setup() -> (Matrix, Vec<(u32, u32)>, Grouping) {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let c = paper_testbed_8gpu();
        let x = encode_features(&g, &c, &GroundTruthCost);
        let e = graph_edges(&g);
        let grouping = group_ops(&g, &avg_op_times(&g, &c, &GroundTruthCost), 16);
        (x, e, grouping)
    }

    #[test]
    fn forward_emits_per_group_logits() {
        let (x, e, grouping) = setup();
        let mut net = PolicyNet::new(&PolicyConfig::default(), x.cols, 12);
        let logits = net.forward(&x, &e, &grouping);
        assert_eq!((logits.rows, logits.cols), (16, 12));
        assert!(logits.data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn backward_and_step_change_outputs() {
        let (x, e, grouping) = setup();
        let mut net = PolicyNet::new(&PolicyConfig::default(), x.cols, 12);
        let l0 = net.forward(&x, &e, &grouping);
        // Descend toward larger logit[0,0].
        let mut dl = Matrix::zeros(l0.rows, l0.cols);
        dl.set(0, 0, -1.0);
        net.zero_grad();
        net.backward(&dl);
        let mut adam = Adam::new(0.01);
        net.step(&mut adam);
        let l1 = net.forward(&x, &e, &grouping);
        assert!(
            l1.get(0, 0) > l0.get(0, 0),
            "{} vs {}",
            l1.get(0, 0),
            l0.get(0, 0)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, e, grouping) = setup();
        let mut a = PolicyNet::new(&PolicyConfig::default(), x.cols, 12);
        let mut b = PolicyNet::new(&PolicyConfig::default(), x.cols, 12);
        assert_eq!(a.forward(&x, &e, &grouping), b.forward(&x, &e, &grouping));
    }

    #[test]
    fn param_count_positive_and_stable() {
        let (x, ..) = setup();
        let mut net = PolicyNet::new(&PolicyConfig::default(), x.cols, 12);
        let n1 = net.num_params();
        assert!(n1 > 1000);
        assert_eq!(n1, net.num_params());
    }
}
