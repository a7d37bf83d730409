//! Simulator-backed strategy evaluation, shared by every search planner
//! and by the RL agent's reward (§3.3: the Simulator "estimates the
//! per-iteration training time ... and also tracks memory usage on each
//! device, to set bad rewards for strategies leading to memory
//! overflow").

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use heterog_cluster::Cluster;
use heterog_compile::{compile, Strategy};
use heterog_graph::Graph;
use heterog_profile::CostEstimator;
use heterog_sched::OrderPolicy;
use heterog_sim::{simulate_into, SimReport, SimScratch};

static EVALUATIONS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_strategies_evaluations_total",
    "Strategy evaluations (compile + simulate) performed",
);

// Process-global planner-loop counters. Unlike the telemetry statics
// above these are NOT gated on `HETEROG_TELEMETRY`: explain-report
// footers surface them unconditionally.
static EVAL_COUNT: AtomicU64 = AtomicU64::new(0);
static EVAL_NANOS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn record_evaluation(nanos: u64) {
    EVAL_COUNT.fetch_add(1, Ordering::Relaxed);
    EVAL_NANOS.fetch_add(nanos, Ordering::Relaxed);
}

/// Process-wide planner-loop statistics (always on, cheap relaxed
/// atomics): evaluation count and wall time across every planner and
/// thread, plus global [`crate::EvalCache`] hit/miss totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalStats {
    /// Strategy evaluations (compile + simulate) this process ran.
    pub evaluations: u64,
    /// Wall time spent inside evaluations, seconds.
    pub eval_seconds: f64,
    /// Evaluations served from any `EvalCache`.
    pub cache_hits: u64,
    /// Evaluations computed on cache miss.
    pub cache_misses: u64,
    /// Whole evaluation contexts evicted when a cache hit capacity.
    pub cache_evictions: u64,
    /// Perturbed evaluations served by an incremental fast path
    /// (a re-priced task graph, a task graph spliced from the base's
    /// lowering, or cached-graph reorder) instead of a full compile +
    /// simulate.
    pub incremental_fast: u64,
    /// Perturbed evaluations that fell back to the full pipeline.
    pub incremental_full: u64,
}

impl EvalStats {
    /// Fraction of perturbed evaluations served incrementally; 0 when
    /// none were attempted.
    pub fn incremental_hit_rate(&self) -> f64 {
        let total = self.incremental_fast + self.incremental_full;
        if total == 0 {
            0.0
        } else {
            self.incremental_fast as f64 / total as f64
        }
    }
}

/// Snapshots the process-global planner-loop statistics.
pub fn eval_stats() -> EvalStats {
    let (hits, misses, evictions) = crate::cache::global_cache_totals();
    let (incremental_fast, incremental_full) = crate::incremental::incremental_totals();
    EvalStats {
        evaluations: EVAL_COUNT.load(Ordering::Relaxed),
        eval_seconds: EVAL_NANOS.load(Ordering::Relaxed) as f64 * 1e-9,
        cache_hits: hits,
        cache_misses: misses,
        cache_evictions: evictions,
        incremental_fast,
        incremental_full,
    }
}

/// Outcome of evaluating one strategy.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Simulated per-iteration time, seconds.
    pub iteration_time: f64,
    /// Whether any device overflowed its memory.
    pub oom: bool,
    /// The full simulator report.
    pub report: SimReport,
}

impl Evaluation {
    /// The paper's RL reward: `-sqrt(T)`, multiplied by 10 on OOM
    /// (§4.1.3).
    pub fn reward(&self) -> f64 {
        let r = -self.iteration_time.max(0.0).sqrt();
        if self.oom {
            10.0 * r
        } else {
            r
        }
    }
}

/// Compiles and simulates `strategy` with HeteroG's rank-based order.
pub fn evaluate<C: CostEstimator>(
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    strategy: &Strategy,
) -> Evaluation {
    evaluate_with_policy(g, cluster, cost, strategy, &OrderPolicy::RankBased)
}

thread_local! {
    /// Per-thread simulator scratch: every evaluation on a thread reuses
    /// the same event/heap buffers, so the schedule+simulate stage of the
    /// hot path stops allocating after the first (largest) evaluation.
    static SIM_SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::default());
}

/// [`evaluate`] under an explicit execution-order policy.
pub fn evaluate_with_policy<C: CostEstimator>(
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    strategy: &Strategy,
    policy: &OrderPolicy,
) -> Evaluation {
    let _span = heterog_telemetry::span("evaluate");
    let started = Instant::now();
    let tg = compile(g, cluster, cost, strategy);
    let mut report = SimReport::default();
    SIM_SCRATCH.with(|s| {
        simulate_into(
            &tg,
            &cluster.memory_capacities(),
            policy,
            &mut s.borrow_mut(),
            &mut report,
        )
    });
    let eval = Evaluation {
        iteration_time: report.iteration_time,
        oom: report.memory.any_oom(),
        report,
    };
    count_full_evaluation(started, &eval);
    eval
}

/// Counts a full compile + simulate that started at `started` and
/// emits its `StrategyEvaluated` event.
pub(crate) fn count_full_evaluation(started: Instant, eval: &Evaluation) {
    EVALUATIONS.inc();
    record_evaluation(started.elapsed().as_nanos() as u64);
    heterog_events::emit_with(|| heterog_events::EventKind::StrategyEvaluated {
        makespan: eval.iteration_time,
        oom: eval.oom,
    });
}

/// Steady-state per-iteration time under cross-iteration pipelining:
/// compiles `k_hi` and `k_lo` back-to-back iterations (see
/// `heterog_compile::compile_iterations`) and differences the makespans,
/// which cancels warm-up effects. Always <= the single-iteration
/// makespan (later iterations overlap the tail of earlier ones).
pub fn steady_state_iteration_time<C: CostEstimator>(
    g: &Graph,
    cluster: &Cluster,
    cost: &C,
    strategy: &Strategy,
    policy: &OrderPolicy,
) -> f64 {
    use heterog_compile::{compile_iterations, CompileOptions};
    use heterog_sched::list_schedule;
    let (k_lo, k_hi) = (2u32, 4u32);
    let lo = list_schedule(
        &compile_iterations(g, cluster, cost, strategy, CompileOptions::default(), k_lo),
        policy,
    )
    .makespan;
    let hi = list_schedule(
        &compile_iterations(g, cluster, cost, strategy, CompileOptions::default(), k_hi),
        policy,
    )
    .makespan;
    (hi - lo) / (k_hi - k_lo) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_compile::CommMethod;
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;

    #[test]
    fn evaluation_reward_penalizes_oom() {
        let a = Evaluation {
            iteration_time: 4.0,
            oom: false,
            report: sim_stub(),
        };
        let b = Evaluation {
            iteration_time: 4.0,
            oom: true,
            ..a.clone()
        };
        assert_eq!(a.reward(), -2.0);
        assert_eq!(b.reward(), -20.0);
    }

    fn sim_stub() -> SimReport {
        let tg = heterog_sched::TaskGraph::new("x", 1, 0);
        heterog_sim::simulate(&tg, &[1], &OrderPolicy::RankBased)
    }

    #[test]
    fn evaluate_runs_end_to_end() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let e = evaluate(&g, &c, &GroundTruthCost, &s);
        assert!(e.iteration_time > 0.0 && e.iteration_time < 10.0);
        assert!(!e.oom);
    }

    #[test]
    fn steady_state_is_at_most_single_iteration() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let single = evaluate(&g, &c, &GroundTruthCost, &s).iteration_time;
        let steady =
            steady_state_iteration_time(&g, &c, &GroundTruthCost, &s, &OrderPolicy::RankBased);
        assert!(steady > 0.0);
        assert!(
            steady <= single * 1.001,
            "steady {steady} vs single {single}"
        );
    }
}
