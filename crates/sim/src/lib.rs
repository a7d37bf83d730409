//! # heterog-sim
//!
//! The discrete-event training simulator (§3.3 "Simulator", §5).
//!
//! The paper's Simulator — itself written in Rust — estimates the
//! per-iteration time of a converted training DAG under given placement
//! and execution-order strategies, tracks memory allocation/release via
//! reference counting to flag OOM strategies, and records link
//! utilization. It serves two roles we reproduce faithfully:
//!
//! 1. **reward oracle** for GNN policy learning (fast, repeated
//!    evaluation of candidate strategies), and
//! 2. (in this reproduction) the **testbed substitute**: evaluation
//!    numbers in EXPERIMENTS.md come from simulating the compiled
//!    distributed DAG against the ground-truth cost oracle.
//!
//! Execution itself reuses `heterog-sched`'s event-driven executors
//! (work-conserving priority queues — the TensorFlow engine's behaviour);
//! this crate layers memory accounting, utilization and computation/
//! communication breakdown (Fig. 8) on top of the resulting schedule,
//! and exports Chrome-tracing timelines for inspection.

pub mod incremental;
pub mod memory;
pub mod report;
pub mod trace;

pub use incremental::{incremental_sim_stats, resimulate_into, IncrementalSimStats};
pub use memory::{memory_usage, MemoryReport};
pub use report::{
    makespan_bound_into, simulate, simulate_into, simulate_uncounted, time_breakdown, SimReport,
    SimScratch,
};
pub use trace::{chrome_trace_events, chrome_trace_json};
