//! # heterog-graph
//!
//! Computation-graph substrate for the HeteroG reproduction.
//!
//! This crate provides the dataflow IR that every other crate consumes:
//! a directed acyclic graph of *operations* (nodes) connected by *tensors*
//! (edges), mirroring the role of TensorFlow's `graphdef` in the paper
//! (§2.1, §3.2). It also ships a **model zoo** ([`zoo`]) that synthesizes
//! the eight benchmark DNNs used throughout the paper's evaluation
//! (VGG-19, ResNet200, Inception-v3, MobileNet-v2, NasNet, Transformer,
//! BERT-large, XLNet-large) as training graphs — forward, backward and
//! parameter-update operations with realistic tensor shapes, parameter
//! sizes and FLOP counts.
//!
//! Design notes (following the repo's networking-guide idioms): graphs are
//! index-based arenas (`Vec<Node>` + adjacency lists), no reference-counted
//! pointer webs; all structures are plain data; no macros or type-level
//! tricks.

pub mod builder;
pub mod graph;
pub mod node;
pub mod op;
pub mod stats;
pub mod tensor;
pub mod topo;
pub mod zoo;

pub use builder::GraphBuilder;
pub use graph::{Edge, Graph, GraphError, OpId};
pub use node::{Node, Phase};
pub use op::OpKind;
pub use stats::GraphStats;
pub use tensor::{proportional_split, DType, TensorMeta};
pub use zoo::{BenchmarkModel, ModelSpec, MAX_BATCH, MAX_LAYERS};
