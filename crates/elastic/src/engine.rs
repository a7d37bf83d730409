//! The elastic training runtime: executes a plan over many simulated
//! iterations against a fault timeline, detecting each fault's impact
//! through the iteration simulator and repairing the plan with the
//! configured [`RepairPolicy`].
//!
//! Recovery accounting is deterministic: repair effort is measured in
//! fresh strategy evaluations (`repair_evals`, counted over the repair
//! alone by `count_evaluations`), converted into stalled iterations by the
//! [`EVALS_PER_ITERATION`] control-plane throughput model. Wall-clock
//! repair latency goes to the recovery-seconds telemetry histogram
//! only — never into the report, so same-seed runs are byte-identical.

use heterog_cluster::Cluster;
use heterog_compile::{CommMethod, Strategy};
use heterog_graph::Graph;
use heterog_profile::CostEstimator;
use heterog_sched::OrderPolicy;
use heterog_strategies::{
    count_evaluations, evaluate_with_policy, migrate_replicas, rebalance_replicas, switch_comm,
    DeviceMap, Evaluation, IncrementalEvaluator, Perturbation, Planner,
};

use crate::fault::{FaultEvent, FaultScript};
use crate::policy::RepairPolicy;
use crate::report::{ElasticRunReport, FaultMarker, RepairDecision};
use crate::state::ClusterState;

static FAULTS_INJECTED: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_elastic_faults_injected_total",
    "Fault events applied to the cluster by elastic runs",
);
static FAULTS_SKIPPED: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_elastic_faults_skipped_total",
    "Fault events that could not be applied (stale device, last GPU, ...)",
);
static REPLANS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_elastic_replans_total",
    "Full planner re-runs triggered by faults",
);
static MIGRATIONS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_elastic_migrations_total",
    "Replica migrations/rebalances performed by plan repair",
);
static RECOVERY_SECONDS: heterog_telemetry::Histogram = heterog_telemetry::Histogram::new(
    "heterog_elastic_recovery_seconds",
    "Wall-clock time spent computing plan repairs",
);

/// Control-plane throughput model: fresh strategy evaluations the repair
/// machinery completes per training iteration while the run keeps
/// executing the degraded plan. Converts `repair_evals` into stalled
/// iterations.
pub const EVALS_PER_ITERATION: u64 = 25;

/// Tunables of an elastic run.
#[derive(Debug, Clone)]
pub struct ElasticOptions {
    /// Training iterations to simulate.
    pub iterations: u64,
    /// Repair policy applied at every fault.
    pub policy: RepairPolicy,
    /// Execution-order policy for every simulation.
    pub order: OrderPolicy,
}

impl Default for ElasticOptions {
    fn default() -> Self {
        ElasticOptions {
            iterations: 50,
            policy: RepairPolicy::FullReplan,
            order: OrderPolicy::RankBased,
        }
    }
}

/// An elastic run's result: the report plus the final deployment, so
/// callers (tests, the CLI) can inspect the surviving plan directly.
#[derive(Debug, Clone)]
pub struct ElasticOutcome {
    /// The full artifact.
    pub report: ElasticRunReport,
    /// The strategy in force at the end of the run.
    pub strategy: Strategy,
    /// The cluster as it stands at the end of the run.
    pub cluster: Cluster,
}

fn classify(events: &[&FaultEvent]) -> (bool, bool) {
    let shape = events.iter().any(|e| {
        matches!(
            e,
            FaultEvent::DeviceFailure { .. } | FaultEvent::DeviceJoin { .. }
        )
    });
    let speed = events.iter().any(|e| {
        matches!(
            e,
            FaultEvent::DeviceSlowdown { .. } | FaultEvent::DeviceJoin { .. }
        )
    });
    (shape, speed)
}

/// Executes `opts.iterations` simulated training iterations of
/// `planner`'s plan for `g` on `cluster`, applying `script`'s faults as
/// they come due and repairing the plan with `opts.policy`.
///
/// Invariant (asserted): after every repair the strategy passes
/// [`Strategy::validate`] on the mutated cluster — a repaired plan
/// never references a removed device.
pub fn elastic_run(
    g: &Graph,
    cluster: &Cluster,
    cost: &dyn CostEstimator,
    planner: &dyn Planner,
    script: &FaultScript,
    opts: &ElasticOptions,
) -> ElasticOutcome {
    let _span = heterog_telemetry::span("elastic.run");
    let mut state = ClusterState::new(cluster.clone());

    let mut strategy = planner.plan(g, state.cluster(), cost);
    strategy
        .validate(state.cluster())
        .expect("planner produced an undeployable strategy");
    let mut current = evaluate_with_policy(g, state.cluster(), &cost, &strategy, &opts.order);
    let baseline_makespan = current.iteration_time;

    heterog_events::emit_with(|| heterog_events::EventKind::RunStarted {
        phase: "elastic".into(),
        total_units: opts.iterations,
    });

    let mut makespans = Vec::with_capacity(opts.iterations as usize);
    let mut faults = Vec::new();
    let mut decisions = Vec::new();
    let mut recovery_cost_s = 0.0;
    // Iterations still owed at the degraded makespan after a repair.
    let mut degraded_left = 0u64;
    let mut degraded_makespan = 0.0;

    for i in 0..opts.iterations {
        let due = script.events_at(i);
        if !due.is_empty() {
            let pre_fault = current.iteration_time;
            let mut applied: Vec<&FaultEvent> = Vec::new();
            for (_, ev) in due {
                match state.apply(ev) {
                    Ok(map) => {
                        FAULTS_INJECTED.inc();
                        heterog_events::emit_with(|| heterog_events::EventKind::Fault {
                            iteration: i,
                            label: ev.label(),
                            applied: true,
                        });
                        faults.push(FaultMarker {
                            iteration: i,
                            label: ev.label(),
                            applied: true,
                        });
                        // Keep the carried plan deployable after every
                        // structural change (migration preserves the
                        // replica total; joins get an empty column).
                        if !map.is_identity() {
                            strategy = migrate_replicas(&strategy, &map, state.cluster());
                        }
                        applied.push(ev);
                    }
                    Err(skip) => {
                        FAULTS_SKIPPED.inc();
                        heterog_events::emit_with(|| heterog_events::EventKind::Fault {
                            iteration: i,
                            label: format!("{} (skipped: {skip})", ev.label()),
                            applied: false,
                        });
                        faults.push(FaultMarker {
                            iteration: i,
                            label: format!("{} (skipped: {skip})", ev.label()),
                            applied: false,
                        });
                    }
                }
            }
            if !applied.is_empty() {
                // Detection: simulate the carried plan on the mutated
                // cluster — this is the fault's measured impact. The same
                // evaluation anchors an [`IncrementalEvaluator`] that then
                // scores repair candidates without a compile each.
                let evaluator =
                    IncrementalEvaluator::new(g, &cost, state.cluster(), &strategy, &opts.order);
                degraded_makespan = evaluator.base().iteration_time;

                let started = std::time::Instant::now();
                let ((repaired_strategy, action, repaired), repair_stats) =
                    count_evaluations(|| {
                        let (repaired_strategy, action, scored) = repair(
                            g, &state, cost, planner, &evaluator, &strategy, &applied, opts,
                        );
                        repaired_strategy
                            .validate(state.cluster())
                            .expect("repair produced a strategy referencing missing devices");
                        let repaired = scored.unwrap_or_else(|| {
                            let p = Perturbation::Strategy(&repaired_strategy);
                            evaluator.evaluate_perturbed(p).0
                        });
                        (repaired_strategy, action, repaired)
                    });
                RECOVERY_SECONDS.observe(started.elapsed().as_secs_f64());
                let repair_evals = repair_stats.evaluations;
                let stall = repair_evals.div_ceil(EVALS_PER_ITERATION);
                let cost_s =
                    (1 + stall) as f64 * (degraded_makespan - repaired.iteration_time).max(0.0);
                recovery_cost_s += cost_s;
                heterog_events::emit_with(|| heterog_events::EventKind::Repair {
                    iteration: i,
                    action: action.to_string(),
                    degraded_makespan,
                    repaired_makespan: repaired.iteration_time,
                    repair_evals,
                    stall_iterations: stall,
                });
                decisions.push(RepairDecision {
                    iteration: i,
                    fault: applied
                        .iter()
                        .map(|e| e.label())
                        .collect::<Vec<_>>()
                        .join("; "),
                    action: action.to_string(),
                    pre_fault_makespan: pre_fault,
                    degraded_makespan,
                    repaired_makespan: repaired.iteration_time,
                    repair_evals,
                    stall_iterations: stall,
                    recovery_cost_s: cost_s,
                    devices_after: state.cluster().num_devices() as u32,
                    oom_after: repaired.oom,
                });

                degraded_left = stall;
                strategy = repaired_strategy;
                current = repaired;
                // The fault iteration itself runs degraded.
                makespans.push(degraded_makespan);
                heterog_events::emit_with(|| heterog_events::EventKind::ElasticIteration {
                    iteration: i,
                    makespan: degraded_makespan,
                });
                continue;
            }
        }
        if degraded_left > 0 {
            degraded_left -= 1;
            makespans.push(degraded_makespan);
        } else {
            makespans.push(current.iteration_time);
        }
        let charged = *makespans.last().expect("pushed above");
        heterog_events::emit_with(|| heterog_events::EventKind::ElasticIteration {
            iteration: i,
            makespan: charged,
        });
    }

    let total_time: f64 = makespans.iter().sum();
    let report = ElasticRunReport {
        model: g.name.clone(),
        batch_size: g.batch_size,
        policy: opts.policy.name().to_string(),
        planner: planner.name().to_string(),
        iterations: opts.iterations,
        faults_script: script.to_script(),
        baseline_makespan,
        final_makespan: current.iteration_time,
        makespans,
        faults,
        decisions,
        total_time,
        time_lost: total_time - opts.iterations as f64 * baseline_makespan,
        recovery_cost_s,
        final_devices: state.cluster().num_devices() as u32,
        final_oom: current.oom,
        digest: heterog_explain::quick_digest(&g.name, &current.report),
    };
    ElasticOutcome {
        report,
        strategy,
        cluster: state.cluster().clone(),
    }
}

/// Runs one repair according to the policy; `strategy` has already been
/// validity-migrated onto the mutated cluster, where `evaluator` is
/// anchored. Candidates are scored through its splice fast path, bit
/// for bit as a fresh compile and simulation would score them. Returns
/// the repaired strategy, the action taken and, when the policy scored
/// candidates, the chosen one's evaluation.
#[allow(clippy::too_many_arguments)]
fn repair(
    g: &Graph,
    state: &ClusterState,
    cost: &dyn CostEstimator,
    planner: &dyn Planner,
    evaluator: &IncrementalEvaluator<'_, &dyn CostEstimator>,
    strategy: &Strategy,
    applied: &[&FaultEvent],
    opts: &ElasticOptions,
) -> (Strategy, &'static str, Option<Evaluation>) {
    let cluster = state.cluster();
    let (shape_changed, speed_changed) = classify(applied);
    match opts.policy {
        RepairPolicy::FullReplan => {
            REPLANS.inc();
            (planner.plan(g, cluster, cost), "full-replan", None)
        }
        RepairPolicy::MigrateReplicas => {
            MIGRATIONS.inc();
            if speed_changed {
                // Power distribution moved: re-split every DP op's
                // replica total over current effective speeds.
                let map = DeviceMap::identity(cluster.num_devices());
                (
                    rebalance_replicas(strategy, &map, cluster),
                    "migrate-replicas(rebalance)",
                    None,
                )
            } else if shape_changed {
                // The carried strategy was already migrated per event.
                (strategy.clone(), "migrate-replicas", None)
            } else {
                // Link-only fault: nothing to move.
                (strategy.clone(), "migrate-replicas(no-op)", None)
            }
        }
        RepairPolicy::CollectiveFallback => {
            MIGRATIONS.inc();
            // Keep the (already migrated) placement; choose the
            // aggregation method that simulates fastest on the degraded
            // fabric. Candidate order makes ties deterministic.
            let candidates = [
                (strategy.clone(), "collective-fallback(keep)"),
                (
                    switch_comm(strategy, CommMethod::AllReduce),
                    "collective-fallback(all-reduce)",
                ),
                (
                    switch_comm(strategy, CommMethod::Ps),
                    "collective-fallback(ps)",
                ),
            ];
            let mut best: Option<(Strategy, &'static str, Evaluation)> = None;
            for (cand, label) in candidates {
                let (eval, _) = evaluator.evaluate_perturbed(Perturbation::Strategy(&cand));
                let better = match &best {
                    None => true,
                    Some((_, _, b)) => {
                        (b.oom && !eval.oom)
                            || (b.oom == eval.oom && eval.iteration_time < b.iteration_time)
                    }
                };
                if better {
                    best = Some((cand, label, eval));
                }
            }
            let (s, label, eval) = best.expect("non-empty candidate set");
            (s, label, Some(eval))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;
    use heterog_strategies::CpArPlanner;

    fn setup() -> (Graph, Cluster) {
        (
            ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build(),
            paper_testbed_8gpu(),
        )
    }

    #[test]
    fn fault_free_run_is_flat() {
        let (g, c) = setup();
        let out = elastic_run(
            &g,
            &c,
            &GroundTruthCost,
            &CpArPlanner,
            &FaultScript::default(),
            &ElasticOptions {
                iterations: 10,
                ..ElasticOptions::default()
            },
        );
        let r = &out.report;
        assert_eq!(r.makespans.len(), 10);
        assert!(r.decisions.is_empty());
        assert!(r.time_lost.abs() < 1e-9);
        assert!(r
            .makespans
            .iter()
            .all(|m| (m - r.baseline_makespan).abs() < 1e-12));
    }

    #[test]
    fn device_failure_is_detected_and_repaired() {
        let (g, c) = setup();
        for policy in RepairPolicy::ALL {
            let out = elastic_run(
                &g,
                &c,
                &GroundTruthCost,
                &CpArPlanner,
                &FaultScript::parse("5:fail:0").unwrap(),
                &ElasticOptions {
                    iterations: 12,
                    policy,
                    ..ElasticOptions::default()
                },
            );
            let r = &out.report;
            assert_eq!(r.decisions.len(), 1, "{policy}");
            let d = &r.decisions[0];
            assert_eq!(d.iteration, 5);
            assert_eq!(d.devices_after, 7);
            assert!(
                d.degraded_makespan >= r.baseline_makespan,
                "{policy}: losing the fastest GPU cannot speed the step up"
            );
            assert_eq!(out.cluster.num_devices(), 7);
            assert_eq!(out.strategy.validate(&out.cluster), Ok(()));
            // Note: time_lost can legitimately be negative under
            // full-replan — a 7-GPU replan can beat the 8-GPU CP-AR
            // baseline by cutting communication — so only the degraded
            // iteration is asserted against the baseline above.
            assert!(d.repaired_makespan > 0.0, "{policy}");
            assert!(!r.final_oom, "{policy}");
        }
    }

    #[test]
    fn slowdown_and_recovery_round_trip() {
        let (g, c) = setup();
        let out = elastic_run(
            &g,
            &c,
            &GroundTruthCost,
            &CpArPlanner,
            &FaultScript::parse("3:link:nicout:0.25,8:linkup:nicout").unwrap(),
            &ElasticOptions {
                iterations: 14,
                policy: RepairPolicy::CollectiveFallback,
                ..ElasticOptions::default()
            },
        );
        let r = &out.report;
        assert_eq!(r.decisions.len(), 2);
        // After recovery the fabric is nominal again, so the final
        // makespan should be near (not worse than 1% off) the baseline.
        assert!(
            r.final_makespan <= r.baseline_makespan * 1.01,
            "final {} vs baseline {}",
            r.final_makespan,
            r.baseline_makespan
        );
    }

    #[test]
    fn skipped_faults_do_not_mutate_the_run() {
        let (g, c) = setup();
        let out = elastic_run(
            &g,
            &c,
            &GroundTruthCost,
            &CpArPlanner,
            &FaultScript::parse("4:fail:55").unwrap(),
            &ElasticOptions {
                iterations: 8,
                ..ElasticOptions::default()
            },
        );
        let r = &out.report;
        assert!(r.decisions.is_empty());
        assert_eq!(r.faults.len(), 1);
        assert!(!r.faults[0].applied);
        assert!(r.faults[0].label.contains("skipped"));
        assert_eq!(out.cluster.num_devices(), 8);
    }

    #[test]
    fn join_grows_the_cluster_and_helps_or_holds() {
        let (g, c) = setup();
        let out = elastic_run(
            &g,
            &c,
            &GroundTruthCost,
            &CpArPlanner,
            &FaultScript::parse("4:join:0:v100").unwrap(),
            &ElasticOptions {
                iterations: 10,
                policy: RepairPolicy::MigrateReplicas,
                ..ElasticOptions::default()
            },
        );
        let r = &out.report;
        assert_eq!(out.cluster.num_devices(), 9);
        assert_eq!(r.final_devices, 9);
        assert_eq!(out.strategy.validate(&out.cluster), Ok(()));
        // The rebalance must actually use the joined device.
        let uses_new = out.strategy.per_op.iter().any(|op| match op {
            heterog_compile::OpStrategy::Dp { replicas, .. } => replicas[8] > 0,
            heterog_compile::OpStrategy::Mp(d) => d.index() == 8,
            heterog_compile::OpStrategy::Shard { shards, .. } => shards[8] > 0,
        });
        assert!(
            uses_new,
            "joined GPU left idle: {:?}",
            out.strategy.per_op[0]
        );
    }

    #[test]
    fn repaired_makespans_match_fresh_evaluation() {
        let (g, c) = setup();
        let script = FaultScript::parse("3:link:nicout:0.25,8:linkup:nicout").unwrap();
        let opts = ElasticOptions {
            iterations: 14,
            policy: RepairPolicy::CollectiveFallback,
            ..ElasticOptions::default()
        };
        let out = elastic_run(&g, &c, &GroundTruthCost, &CpArPlanner, &script, &opts);
        let r = &out.report;
        let fresh = |cluster: &Cluster, s: &Strategy| {
            evaluate_with_policy(&g, cluster, &GroundTruthCost, s, &opts.order).iteration_time
        };
        let planned = CpArPlanner.plan(&g, &c, &GroundTruthCost);
        assert_eq!(r.baseline_makespan.to_bits(), fresh(&c, &planned).to_bits());
        // Repairs are scored through the incremental evaluator; the plan
        // in force at the end must simulate to the same bits afresh.
        let last = r.decisions.last().expect("the script applies two faults");
        let final_fresh = fresh(&out.cluster, &out.strategy);
        assert_eq!(last.repaired_makespan.to_bits(), final_fresh.to_bits());
        assert_eq!(r.final_makespan.to_bits(), final_fresh.to_bits());
    }

    #[test]
    fn same_inputs_give_identical_reports() {
        let (g, c) = setup();
        let script = FaultScript::generate(7, 20, 3, &c);
        let run = || {
            elastic_run(
                &g,
                &c,
                &GroundTruthCost,
                &CpArPlanner,
                &script,
                &ElasticOptions {
                    iterations: 20,
                    policy: RepairPolicy::MigrateReplicas,
                    ..ElasticOptions::default()
                },
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.report.to_json(), b.report.to_json());
    }
}
