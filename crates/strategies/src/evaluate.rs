//! Simulator-backed strategy evaluation, shared by every search planner
//! and by the RL agent's reward (§3.3: the Simulator "estimates the
//! per-iteration training time ... and also tracks memory usage on each
//! device, to set bad rewards for strategies leading to memory
//! overflow").

use std::cell::RefCell;
use std::time::Instant;

use heterog_cluster::Cluster;
use heterog_compile::{compile, Strategy};
use heterog_graph::Graph;
use heterog_profile::CostEstimator;
use heterog_sched::{OrderPolicy, TaskGraph};
use heterog_sim::{simulate_into, SimReport, SimScratch};
use heterog_telemetry::{tally, Counter};

// Each outcome is one always-on counter: it is the process-wide metric
// and also counts in every open `tally` scope, the run's own count.
static EVALUATIONS: Counter = Counter::always(
    "heterog_strategies_evaluations_total",
    "Strategy evaluations (compile + simulate) performed",
);
static EVAL_NANOS: Counter = Counter::always(
    "heterog_strategies_evaluation_nanoseconds_total",
    "Wall time spent inside strategy evaluations, nanoseconds",
);

/// Runs `f` and returns its result with the evaluation outcomes it
/// counted, on pool workers too, but not those of other threads.
pub fn count_evaluations<R>(f: impl FnOnce() -> R) -> (R, EvalStats) {
    let (r, t) = tally::tally(f);
    (r, EvalStats::read(|c| t.get(c)))
}

/// Planner-loop statistics (always on): evaluation count and wall time,
/// plus [`crate::IncrementalEvaluator`] outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalStats {
    /// Strategy evaluations (compile + simulate), an incremental
    /// evaluator's base builds included.
    pub evaluations: u64,
    /// Wall time spent inside evaluations, seconds.
    pub eval_seconds: f64,
    /// Always 0: nothing caches evaluations. Kept for the frozen
    /// benchmark; ROADMAP item 6 removes it.
    pub cache_hits: u64,
    /// Always 0. ROADMAP item 6 removes it.
    pub cache_misses: u64,
    /// Perturbed evaluations served by an incremental fast path
    /// (a re-priced task graph, a task graph spliced from the base's
    /// lowering, or cached-graph reorder) instead of a full compile +
    /// simulate.
    pub incremental_fast: u64,
    /// Perturbed evaluations that fell back to the full pipeline.
    pub incremental_full: u64,
}

impl EvalStats {
    /// The outcome counters, each read through `get`.
    fn read(get: impl Fn(&'static Counter) -> u64) -> EvalStats {
        use crate::incremental;
        EvalStats {
            evaluations: get(&EVALUATIONS),
            eval_seconds: get(&EVAL_NANOS) as f64 * 1e-9,
            cache_hits: 0,
            cache_misses: 0,
            incremental_fast: get(&incremental::FAST),
            incremental_full: get(&incremental::FULL),
        }
    }

    /// Evaluation throughput (0 when no time was recorded).
    pub fn evals_per_sec(&self) -> f64 {
        ratio(self.evaluations as f64, self.eval_seconds)
    }

    /// Fraction of perturbed evaluations served incrementally; 0 when
    /// none were attempted.
    pub fn incremental_hit_rate(&self) -> f64 {
        let total = self.incremental_fast + self.incremental_full;
        ratio(self.incremental_fast as f64, total as f64)
    }
}

/// `num / den`, or 0 when `den` is not positive.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process-wide planner-loop statistics, every thread and run.
pub fn eval_stats() -> EvalStats {
    EvalStats::read(|c| c.get())
}

/// The current run's planner-loop statistics: the innermost open
/// [`tally`] scope's, or the process's when none is open.
pub fn run_eval_stats() -> EvalStats {
    EvalStats::read(tally::read)
}

/// Outcome of evaluating one strategy.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Simulated per-iteration time, seconds.
    pub iteration_time: f64,
    /// Whether any device overflowed its memory.
    pub oom: bool,
    /// The simulator report. A fresh evaluation carries the whole
    /// schedule; a memoized one ([`Evaluation::without_task_times`])
    /// carries every field but the per-task times. A caller that needs
    /// task times simulates the task graph it compiled.
    pub report: SimReport,
}

impl Evaluation {
    /// This evaluation without its per-task times (`report.schedule`'s
    /// `start` and `finish`, 16 bytes per task), as the serve plan memo
    /// keeps it.
    pub fn without_task_times(mut self) -> Evaluation {
        self.report.schedule.start = Vec::new();
        self.report.schedule.finish = Vec::new();
        self
    }

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
    evaluate_compiled(&tg, cluster, policy, started)
}

/// Simulates the compiled task graph `tg` on `cluster` and counts one
/// full evaluation that started at `started` (pass the instant before
/// the compile, so the evaluation time covers it).
pub fn evaluate_compiled(
    tg: &TaskGraph,
    cluster: &Cluster,
    policy: &OrderPolicy,
    started: Instant,
) -> Evaluation {
    let mut report = SimReport::default();
    SIM_SCRATCH.with(|s| {
        simulate_into(
            tg,
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
    EVAL_NANOS.add(started.elapsed().as_nanos() as u64);
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
    use heterog_compile::compile_iterations;
    use heterog_sched::list_schedule;
    let (k_lo, k_hi) = (2u32, 4u32);
    let lo = list_schedule(
        &compile_iterations(g, cluster, cost, strategy, k_lo),
        policy,
    )
    .makespan;
    let hi = list_schedule(
        &compile_iterations(g, cluster, cost, strategy, k_hi),
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
