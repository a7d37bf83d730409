//! # heterog-compile
//!
//! The Graph Compiler (§3.4, §5): applies Part-I strategies — per-op
//! parallelism (DP replica counts per device, or MP single placement)
//! and gradient-aggregation method (PS or AllReduce) — to a single-GPU
//! training graph, producing the placed, priced, distributed task graph
//! that the Scheduler orders and the Simulator executes.
//!
//! The lowering follows the paper's construction (Fig. 7):
//!
//! * **Operation replication** — batch-splittable ops are copied once per
//!   replica, each processing an even share of the mini-batch; ops whose
//!   output has no batch dimension are never replicated.
//! * **Split/Concat insertion** — adjacent ops with different replica
//!   distributions are reconciled through Concat (gather) and Split
//!   (scatter) ops, with `Transfer` tasks on the connecting links.
//! * **Gradient aggregation** — parameter gradients from an op's replicas
//!   are combined per the chosen method: a PS device (chosen to minimize
//!   aggregation completion time) with push/pull transfers, or an
//!   AllReduce expanded as ring or hierarchical link occupancy
//!   (whichever is estimated faster, §3.4).
//! * **Semantics preservation** — gradient ops and ApplyGradient ops are
//!   forcibly colocated with the parameters they touch, so the compiled
//!   graph is mathematically equivalent to the single-GPU model
//!   (synchronous SGD; §6.4's argument).

pub mod collective;
pub mod lower;
pub mod placement;
pub mod price;
pub mod strategy;
pub mod xfer;

pub use lower::{
    compile, compile_iterations, compile_logged, compile_pipelined, compile_priced, log_compiled,
    splice_into, splice_loads, CopiedRun, SegmentLog, SpliceBase, SpliceScratch, TaskSink,
};
pub use placement::{resolve_group_into, resolve_placements, OpPlacement};
pub use price::{reprice, reprice_into, structure_compatible, PriceBook, RepriceError};
pub use strategy::{CommMethod, OpStrategy, PackedStrategy, Strategy, StrategyError};
