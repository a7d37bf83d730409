//! # heterog-agent
//!
//! HeteroG's Strategy Maker (§3.3, §4.1): the GNN-based Agent and the
//! simulator-guided planner.
//!
//! Two planners share the same `N x (M+6)` action space (MP on one of
//! `M` GPUs, {even, proportional} DP x {PS, AllReduce}, or even or
//! proportional sharding; see [`ActionSpace`]):
//!
//! * [`RlAgent`] — the paper's learned policy: a sparse multi-head GAT
//!   encodes per-node embeddings from profiled features, embeddings are
//!   pooled per operation group, a Transformer strategy network emits
//!   per-group action logits, and REINFORCE with reward `-sqrt(T)`
//!   (x10 on OOM), an entropy bonus and a moving-average baseline trains
//!   everything end-to-end against the simulator (§4.1.3). Supports
//!   pre-training on a set of graphs and fine-tuning on unseen ones
//!   (§6.5).
//! * [`HeteroGPlanner`] — a deterministic greedy + local-search planner
//!   over the identical action space, using the simulator as its
//!   objective. It reaches the same strategy structure the paper reports
//!   (Tables 2/3) in seconds instead of GPU-hours of policy training, so
//!   the table/figure benches use it for the "HeteroG" rows; the RL path
//!   is exercised by the Table 6 experiment and the `train_agent`
//!   example.

pub mod action;
pub mod fast;
pub mod features;
pub mod policy;
pub mod trainer;

pub use action::{actions_to_strategy, ActionSpace};
pub use fast::HeteroGPlanner;
pub use features::{encode_features, graph_edges};
pub use policy::{PolicyConfig, PolicyNet};
pub use trainer::{RlAgent, TrainRecord, TrainerConfig};
