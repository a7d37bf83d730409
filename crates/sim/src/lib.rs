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

pub mod memory;
pub mod report;
pub mod trace;

pub use memory::{memory_usage, MemoryReport};
pub use report::{
    simulate, simulate_into, simulate_uncounted, simulate_within, time_breakdown, with_scratch,
    Prepass, SimReport, SimScratch,
};
pub use trace::{chrome_trace_events, chrome_trace_json};

static RESIMS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_sim_incremental_resims_total",
    "Re-priced task graphs answered against a simulated base",
);

/// Counts one re-priced task graph answered against a simulated base
/// (`heterog_strategies::IncrementalEvaluator`'s cluster perturbations),
/// while telemetry is enabled.
pub fn count_resim() {
    RESIMS.inc();
}

/// The re-simulation counter as the benchmark reads it. ROADMAP item 6
/// removes this struct with the benchmark's next change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalSimStats {
    /// Re-priced task graphs answered against a simulated base.
    pub resims: u64,
    /// Always 0: nothing resumes a simulation part-way. ROADMAP item 6
    /// removes it.
    pub resumed: u64,
}

/// Reads the re-simulation counter. ROADMAP item 6 removes it.
pub fn incremental_sim_stats() -> IncrementalSimStats {
    IncrementalSimStats {
        resims: RESIMS.get(),
        resumed: 0,
    }
}
