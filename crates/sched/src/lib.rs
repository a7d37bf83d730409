//! # heterog-sched
//!
//! Execution-order scheduling (§4.2 and the Appendix).
//!
//! After HeteroG's Part-I decisions turn the single-GPU model into a
//! distributed task graph with fixed placements, multiple operations on
//! the same processor can be ready simultaneously; the execution order
//! then determines the iteration time. The paper treats **links as
//! devices** — every GPU runs at most one computation op at a time, and
//! every link carries at most one communication op at a time — and
//! schedules by *upward rank*:
//!
//! ```text
//! rank(o_i) = p_i + max_{o_j in succ(o_i)} rank(o_j)
//! ```
//!
//! with ties broken deterministically. Each processor always starts its
//! ready task of highest rank. The appendix proves the makespan is
//! within `M + M^2` of optimal and that the bound is tight; this crate
//! ships the worst-case instance generator used to verify both.

pub mod instance;
pub mod list;
pub mod rank;
pub mod strict;
pub mod task;
pub mod view;

pub use instance::{adversarial_priorities, worst_case_instance};
pub use list::{
    busiest_processor_load, head_body_tail_bound_into, list_schedule, list_schedule_into,
    list_schedule_observed, load_exceeds, makespan_lower_bound, NoHook, OrderPolicy, Schedule,
    ScheduleHook, ScheduleScratch,
};
pub use rank::{
    critical_path, critical_path_from, mark_ancestors, rerank_marked_into, upward_ranks,
    upward_ranks_into, RankScratch,
};
pub use strict::strict_schedule;
pub use task::{
    Dir, NameRef, NameTable, Pass, Proc, RowWriter, Tag, Task, TaskGraph, TaskGraphBuilder, TaskId,
    TaskName,
};
pub use view::{topo_order_into, CopiedRun, GraphRead, Patch, PatchIds, PatchRow, PatchView};
