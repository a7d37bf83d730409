//! Simulator-backed strategy evaluation, shared by every search planner
//! and by the RL agent's reward (§3.3: the Simulator "estimates the
//! per-iteration training time ... and also tracks memory usage on each
//! device, to set bad rewards for strategies leading to memory
//! overflow").

use std::time::Instant;

use heterog_cluster::Cluster;
use heterog_compile::{compile, Strategy};
use heterog_graph::Graph;
use heterog_profile::CostEstimator;
use heterog_sched::{OrderPolicy, Schedule, TaskGraph};
use heterog_sim::{simulate_into, with_scratch, SimReport};
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
    /// The simulator report without its per-task times:
    /// `report.schedule`'s `start` and `finish` are empty. Only a
    /// simulation's own [`SimReport`] holds task times; a caller that
    /// needs them simulates the task graph it compiled into one (or
    /// passes one to [`evaluate_compiled`]).
    pub report: SimReport,
}

impl Evaluation {
    /// The evaluation of the simulation that wrote `report`: every field
    /// but the per-task times, which are not copied.
    pub fn of(report: &SimReport) -> Evaluation {
        let SimReport {
            iteration_time,
            memory,
            gpu_busy,
            link_busy,
            computation_time,
            communication_time,
            schedule,
        } = report;
        Evaluation {
            iteration_time: *iteration_time,
            oom: memory.any_oom(),
            report: SimReport {
                iteration_time: *iteration_time,
                memory: memory.clone(),
                gpu_busy: gpu_busy.clone(),
                link_busy: link_busy.clone(),
                computation_time: *computation_time,
                communication_time: *communication_time,
                schedule: Schedule {
                    makespan: schedule.makespan,
                    start: Vec::new(),
                    finish: Vec::new(),
                    proc_busy: schedule.proc_busy.clone(),
                },
            },
        }
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
    evaluate_compiled(&tg, cluster, policy, started, &mut SimReport::default())
}

/// Simulates the compiled task graph `tg` on `cluster` into `report`,
/// task times included, on the thread's simulator scratch
/// ([`with_scratch`]), and counts one full evaluation that started at
/// `started` (pass the instant before the compile, so the evaluation
/// time covers it). The returned evaluation carries no task times.
pub fn evaluate_compiled(
    tg: &TaskGraph,
    cluster: &Cluster,
    policy: &OrderPolicy,
    started: Instant,
    report: &mut SimReport,
) -> Evaluation {
    let capacities = cluster.memory_capacities();
    with_scratch(|s| simulate_into(tg, &capacities, policy, s, report));
    let eval = Evaluation::of(report);
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
        let tg = heterog_sched::TaskGraphBuilder::new("x", 1, 0).finish();
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

    /// An evaluation carries every report field but the per-task times,
    /// which stay in the report its simulation wrote.
    #[test]
    fn evaluations_carry_no_task_times() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let e = evaluate(&g, &c, &GroundTruthCost, &s);
        assert!(e.report.schedule.start.is_empty() && e.report.schedule.finish.is_empty());
        let tg = heterog_compile::compile(&g, &c, &GroundTruthCost, &s);
        let mut report = SimReport::default();
        let pol = OrderPolicy::RankBased;
        let e2 = evaluate_compiled(&tg, &c, &pol, Instant::now(), &mut report);
        assert_eq!(report.schedule.finish.len(), tg.len());
        assert!(e2.report.schedule.finish.is_empty());
        assert_eq!(e2.iteration_time.to_bits(), e.iteration_time.to_bits());
        assert_eq!(
            e2.report.schedule.makespan.to_bits(),
            report.schedule.makespan.to_bits()
        );
        assert_eq!(e2.report.schedule.proc_busy, report.schedule.proc_busy);
        assert_eq!(e2.report.memory.peak_bytes, report.memory.peak_bytes);
        assert_eq!(e2.report.gpu_busy, report.gpu_busy);
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
