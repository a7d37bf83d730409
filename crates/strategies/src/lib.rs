//! # heterog-strategies
//!
//! Deployment planners: the four DP baselines of §6.1 (EV/CP x PS/AR),
//! re-implementations of the comparison systems of §6.8 (Horovod,
//! FlexFlow, Post, HetPipe — each restricted to exactly the strategy
//! space its paper explores), the operation grouping of §4.1.1, and a
//! shared simulator-backed evaluator they all optimize against.

/// Search iterations across the stochastic baseline planners (FlexFlow
/// MCMC proposals + Post CEM rounds).
pub(crate) static SEARCH_ITERATIONS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_strategies_search_iterations_total",
    "Search iterations across baseline planners (FlexFlow MCMC, Post CEM)",
);

pub mod baselines;
pub mod evaluate;
pub mod flexflow;
pub mod grouping;
pub mod hetpipe;
pub mod incremental;
pub mod planner;
pub mod post;
pub mod repair;
pub mod seed;

pub use baselines::{CpArPlanner, CpPsPlanner, EvArPlanner, EvPsPlanner, HorovodPlanner};
pub use evaluate::{
    count_evaluations, eval_stats, evaluate, evaluate_compiled, evaluate_with_policy,
    run_eval_stats, steady_state_iteration_time, EvalStats, Evaluation,
};
pub use flexflow::FlexFlowPlanner;
pub use grouping::{group_ops, Grouping};
pub use heterog_sched::load_exceeds;
pub use hetpipe::HetPipePlanner;
pub use incremental::{Bounded, EvalMode, IncrementalEvaluator, Perturbation};
pub use planner::Planner;
pub use post::PostPlanner;
pub use repair::{
    migrate_replicas, rebalance_replicas, strategy_without_device, switch_comm, DeviceMap,
};
pub use seed::ShardCpPlanner;
