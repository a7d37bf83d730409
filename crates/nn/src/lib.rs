//! # heterog-nn
//!
//! Minimal neural-network substrate for HeteroG's GNN policy (§4.1).
//!
//! The paper's Agent is a graph attention network (GAT, 12 multi-head
//! attention layers, 8 heads) feeding a Transformer strategy network
//! whose softmax output selects a parallelism/communication action per
//! operation group (`N x (M+4)` in the paper, `N x (M+6)` here with two
//! sharding actions), trained end-to-end with REINFORCE.
//! No mature deep-learning framework exists for this in Rust, so this
//! crate implements the needed pieces from scratch:
//!
//! * a dense row-major [`Matrix`] with the linear-algebra kernels the
//!   layers need;
//! * layers with **hand-derived backward passes** (no tape autograd —
//!   simpler, faster, and every gradient is verified against finite
//!   differences in the test suite): [`Dense`], sparse multi-head
//!   [`GatLayer`], dense multi-head [`SelfAttention`], [`LayerNorm`],
//!   and the residual [`TransformerBlock`];
//! * categorical-policy utilities (masked softmax, sampling, the
//!   analytic REINFORCE-with-entropy gradient at the logits);
//! * the [`Adam`] optimizer and seeded Xavier initialization.
//!
//! Design notes: everything is `f64` (gradient checks to 1e-6), no
//! unsafe, no SIMD tricks — the policy nets here are small (hidden dims
//! of tens, a few thousand graph nodes) and CPU-bound work is organized
//! for clarity per the project's coding guides.

pub mod adam;
pub mod attention;
pub mod dense;
pub mod gat;
pub mod gradcheck;
pub mod init;
pub mod layernorm;
pub mod matrix;
pub mod policy;
pub mod transformer;

pub use adam::Adam;
pub use attention::SelfAttention;
pub use dense::Dense;
pub use gat::GatLayer;
pub use init::xavier;
pub use layernorm::LayerNorm;
pub use matrix::Matrix;
pub use policy::{sample_categorical, softmax_rows, PolicyGradient};
pub use transformer::TransformerBlock;
