//! The fast planner bounds each candidate's iteration time from below
//! by its busiest processor's load, and simulates the others only as
//! long as they can still beat the incumbent. A
//! reference loop here scores every candidate through
//! `evaluate_perturbed` of the whole moved strategy, as the planner did
//! before the bounds and group moves, and moves on the exact best; on
//! MobileNet-v2, VGG-19, Transformer-6L and a cluster where data
//! parallelism overflows memory, `plan_detailed` must return the
//! reference's actions, strategy and evaluation bit for bit and emit
//! the same `SearchIteration` stream. A visit's `candidate_makespan` is
//! the lowest of the simulated candidates' objectives and the pruned
//! candidates' bounds, which the reference reads off
//! `evaluate_bounded` of the whole moved strategy.
//!
//! The reference also records each candidate's busiest-processor load,
//! which must be at most its simulated iteration time. The planner must
//! simulate to the end exactly the candidates whose load and iteration
//! time both stay within the incumbent: the same number at any thread
//! count, and on VGG-19 and Transformer-6L fewer than pruning on the
//! busiest load alone would.

use std::sync::Arc;

use heterog_agent::fast::objective;
use heterog_agent::{actions_to_strategy, ActionSpace, HeteroGPlanner};
use heterog_cluster::{paper_testbed_8gpu, topology::Server, Cluster, Device, GpuModel};
use heterog_compile::Strategy;
use heterog_events::EventKind;
use heterog_graph::{BenchmarkModel, Graph, ModelSpec};
use heterog_profile::GroundTruthCost;
use heterog_sched::OrderPolicy;
use heterog_strategies::{
    evaluate, group_ops, grouping::avg_op_times, load_exceeds, Bounded, Evaluation,
    IncrementalEvaluator, Perturbation,
};

struct Case {
    name: &'static str,
    g: Graph,
    cluster: Cluster,
    planner: HeteroGPlanner,
}

impl Case {
    fn testbed(name: &'static str, spec: ModelSpec, groups: usize) -> Case {
        Case {
            name,
            g: spec.build(),
            cluster: paper_testbed_8gpu(),
            planner: HeteroGPlanner {
                groups,
                passes: 2,
                allow_mp: true,
            },
        }
    }

    /// VGG-19 on four 3.4 GiB GPUs, where every uniform data-parallel
    /// start overflows memory (the setting of the planner's
    /// `finds_feasible_plan_when_dp_ooms`).
    fn oom_prone() -> Case {
        let servers = vec![
            Server {
                name: "a".into(),
                nic_bps: 10e9,
                nvlink: true,
            },
            Server {
                name: "b".into(),
                nic_bps: 5e9,
                nvlink: false,
            },
        ];
        let mut devices = vec![
            Device::new(GpuModel::TeslaV100, 0),
            Device::new(GpuModel::TeslaV100, 0),
            Device::new(GpuModel::Gtx1080Ti, 1),
            Device::new(GpuModel::Gtx1080Ti, 1),
        ];
        for d in &mut devices {
            d.memory_bytes = 3481 << 20;
        }
        Case {
            name: "vgg19-oom",
            g: ModelSpec::new(BenchmarkModel::Vgg19, 16).build(),
            cluster: Cluster::new(servers, devices),
            planner: HeteroGPlanner {
                groups: 12,
                passes: 2,
                allow_mp: true,
            },
        }
    }
}

fn cases() -> Vec<Case> {
    vec![
        Case::testbed(
            "mobilenet",
            ModelSpec::new(BenchmarkModel::MobileNetV2, 192),
            16,
        ),
        Case::testbed("vgg19", ModelSpec::new(BenchmarkModel::Vgg19, 192), 16),
        Case::testbed(
            "transformer",
            ModelSpec::with_layers(BenchmarkModel::Transformer, 720, 6),
            12,
        ),
        Case::oom_prone(),
    ]
}

/// The compared fields of one `SearchIteration` event; objectives as
/// bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Visit {
    pass: u64,
    visited: u64,
    evals: u64,
    best_makespan: u64,
    candidate_makespan: u64,
}

/// One scored candidate of a reference visit.
struct Scored {
    action: usize,
    objective: f64,
    /// What `evaluate_bounded` against the incumbent's objective
    /// returns: the objective when simulated, else the pruning bound.
    bounded: f64,
    /// The busiest-processor load and the simulated iteration time of
    /// the candidate's task graph, `None` when `evaluate_bounded`'s path
    /// is not bounded (the candidate equals the incumbent).
    bounds: Option<(f64, f64)>,
}

/// Which lower bounds a pruning scheme tries.
#[derive(Clone, Copy)]
enum Scheme {
    /// The busiest processor's load alone.
    Busiest,
    /// The planner's: the busiest load, and when it does not prune, the
    /// iteration time against the limit, which the bounded simulation
    /// stops on.
    Simulated,
}

struct Outcome {
    strategy: Strategy,
    eval: Evaluation,
    actions: Vec<usize>,
    visits: Vec<Visit>,
    /// `StrategyEvaluated` events of the plan: the pruned planner's as
    /// observed, or the reference's prediction of them.
    strategy_evaluated: u64,
    /// Candidates considered.
    considered: u64,
}

/// How many of a visit's candidates pruning with `scheme`'s bounds
/// simulates: those with no bound exceeding the incumbent's objective.
fn simulated_by_scheme(scored: &[Scored], cur_obj: f64, scheme: Scheme) -> u64 {
    let pruned = |s: &Scored| {
        let Some((load, iteration_time)) = s.bounds else {
            return false;
        };
        load_exceeds(load, cur_obj)
            || matches!(scheme, Scheme::Simulated) && load_exceeds(iteration_time, cur_obj)
    };
    scored.iter().filter(|s| !pruned(s)).count() as u64
}

/// What the reference's candidates tally.
struct Tally {
    /// Candidates the planner's scheme leaves unsimulated.
    unsimulated: u64,
    /// Candidates pruning on the busiest load alone would simulate.
    simulated_by_busiest: u64,
    /// Candidates the planner's scheme simulates.
    simulated: u64,
}

/// `plan_detailed`'s search with every candidate scored through
/// `evaluate_perturbed`, plus each candidate's busiest-processor load.
fn reference(case: &Case) -> (Outcome, Tally) {
    let (g, cluster, cost) = (&case.g, &case.cluster, &GroundTruthCost);
    let space = ActionSpace::new(cluster);
    let times = avg_op_times(g, cluster, cost);
    let grouping = group_ops(g, &times, case.planner.groups);
    let n = grouping.len();
    let m = cluster.num_devices();
    let to_strategy = |acts: &[usize]| actions_to_strategy(g, cluster, &grouping, acts);

    let uniform_actions = [m, m + 1, m + 2, m + 3];
    let (mut actions, mut cur_obj) = uniform_actions
        .iter()
        .map(|&a| {
            let acts = vec![a; n];
            let e = evaluate(g, cluster, cost, &to_strategy(&acts));
            (acts, objective(&e, cluster))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("four baselines");
    let mut evals = uniform_actions.len() as u64;
    // The baselines and the evaluator's anchor.
    let mut strategy_evaluated = evals + 1;
    let mut tally = Tally {
        unsimulated: 0,
        simulated_by_busiest: 0,
        simulated: 0,
    };

    let rank_based = OrderPolicy::RankBased;
    let mut evaluator =
        IncrementalEvaluator::new(g, cost, cluster, &to_strategy(&actions), &rank_based);
    let mut order: Vec<usize> = (0..n).collect();
    let group_cost: Vec<f64> = grouping
        .members
        .iter()
        .map(|ms| ms.iter().map(|op| times[op.index()]).sum())
        .collect();
    order.sort_by(|&a, &b| group_cost[b].total_cmp(&group_cost[a]));

    let mut moves: u64 = 0;
    // Per group: the move count at its last visit, with that visit's
    // exact and bounded best `(action, value)`.
    type Best = (usize, f64);
    let mut settled: Vec<Option<(u64, (Best, Best))>> = vec![None; n];
    let mut visited: u64 = 0;
    let mut visits = Vec::new();
    for pass in 0..case.planner.passes {
        let mut improved = false;
        for &gi in &order {
            let best = match settled[gi] {
                Some((at, best)) if at == moves => best,
                _ => {
                    let first = if case.planner.allow_mp { 0 } else { m };
                    let candidates: Vec<usize> =
                        (first..space.len()).filter(|&a| a != actions[gi]).collect();
                    evals += candidates.len() as u64;
                    let scored: Vec<Scored> = candidates
                        .iter()
                        .map(|&a| {
                            let mut trial = actions.clone();
                            trial[gi] = a;
                            let s = to_strategy(&trial);
                            let (e, _) = evaluator.evaluate_perturbed(Perturbation::Strategy(&s));
                            let it = e.iteration_time;
                            let bounds =
                                match evaluator.evaluate_bounded(Perturbation::Strategy(&s), 0.0) {
                                    Bounded::Pruned(load) => Some((load, it)),
                                    Bounded::Evaluated(..) => None,
                                };
                            if let Some((load, _)) = bounds {
                                assert!(
                                    load <= it * (1.0 + 1e-12) && !load_exceeds(load, it),
                                    "{}: busiest load {load} above iteration time {it}",
                                    case.name,
                                );
                            }
                            let objective = objective(&e, cluster);
                            let bounded = match evaluator
                                .evaluate_bounded(Perturbation::Strategy(&s), cur_obj)
                            {
                                Bounded::Evaluated(..) => objective,
                                Bounded::Pruned(bound) => bound,
                            };
                            Scored {
                                action: a,
                                objective,
                                bounded,
                                bounds,
                            }
                        })
                        .collect();
                    let simulated = simulated_by_scheme(&scored, cur_obj, Scheme::Simulated);
                    strategy_evaluated += simulated;
                    tally.simulated += simulated;
                    tally.unsimulated += scored.len() as u64 - simulated;
                    tally.simulated_by_busiest +=
                        simulated_by_scheme(&scored, cur_obj, Scheme::Busiest);
                    let first_min = |value: fn(&Scored) -> f64| {
                        scored
                            .iter()
                            .map(|s| (s.action, value(s)))
                            .min_by(|a, b| a.1.total_cmp(&b.1))
                            .expect("candidates")
                    };
                    (first_min(|s| s.objective), first_min(|s| s.bounded))
                }
            };
            // The exact best decides the move; the event carries the
            // bounded best, equal to it whenever the visit moves.
            let (exact, best) = best;
            if exact.1 + 1e-9 < cur_obj {
                assert_eq!(
                    (best.0, best.1.to_bits()),
                    (exact.0, exact.1.to_bits()),
                    "{}: a move's bounded best is the exact best",
                    case.name
                );
                actions[gi] = exact.0;
                cur_obj = exact.1;
                improved = true;
                moves += 1;
                settled[gi] = None;
                evaluator.rebase(cluster, &to_strategy(&actions), &rank_based);
                strategy_evaluated += 1;
            } else {
                settled[gi] = Some((moves, (exact, best)));
            }
            visited += 1;
            visits.push(Visit {
                pass: pass as u64,
                visited,
                evals,
                best_makespan: cur_obj.to_bits(),
                candidate_makespan: best.1.to_bits(),
            });
        }
        if !improved {
            break;
        }
    }

    let strategy = to_strategy(&actions);
    let eval = if *evaluator.strategy() == strategy {
        evaluator.base().clone()
    } else {
        strategy_evaluated += 1;
        evaluate(g, cluster, cost, &strategy)
    };
    let outcome = Outcome {
        strategy,
        eval,
        actions,
        visits,
        strategy_evaluated,
        considered: evals,
    };
    (outcome, tally)
}

/// `plan_detailed` on `case`, with its `SearchIteration` stream and
/// its count of `StrategyEvaluated` events, recorded in a run scope of
/// its own.
fn planned(case: &Case) -> Outcome {
    let log = Arc::new(heterog_events::RunLog::default());
    let (strategy, eval, actions) = heterog_events::record(&log, || {
        case.planner
            .plan_detailed(&case.g, &case.cluster, &GroundTruthCost)
    });
    let events = log.read(<[heterog_events::Event]>::to_vec);

    let mut visits = Vec::new();
    let mut strategy_evaluated = 0;
    for e in events {
        match e.kind {
            EventKind::SearchIteration {
                pass,
                visited,
                evals,
                best_makespan,
                candidate_makespan,
                ..
            } => visits.push(Visit {
                pass,
                visited,
                evals,
                best_makespan: best_makespan.to_bits(),
                candidate_makespan: candidate_makespan.to_bits(),
            }),
            EventKind::StrategyEvaluated { .. } => strategy_evaluated += 1,
            _ => {}
        }
    }
    let considered = visits.last().map_or(0, |v| v.evals);
    Outcome {
        strategy,
        eval,
        actions,
        visits,
        strategy_evaluated,
        considered,
    }
}

fn assert_same_evaluation(name: &str, a: &Evaluation, b: &Evaluation) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        a.iteration_time.to_bits(),
        b.iteration_time.to_bits(),
        "{name}"
    );
    assert_eq!(a.oom, b.oom, "{name}");
    let (ra, rb) = (&a.report, &b.report);
    assert_eq!(
        ra.computation_time.to_bits(),
        rb.computation_time.to_bits(),
        "{name}"
    );
    assert_eq!(
        ra.communication_time.to_bits(),
        rb.communication_time.to_bits(),
        "{name}"
    );
    assert_eq!(bits(&ra.gpu_busy), bits(&rb.gpu_busy), "{name}");
    assert_eq!(bits(&ra.link_busy), bits(&rb.link_busy), "{name}");
    assert_eq!(ra.memory.peak_bytes, rb.memory.peak_bytes, "{name}");
    assert_eq!(ra.memory.param_bytes, rb.memory.param_bytes, "{name}");
    assert_eq!(ra.memory.oom, rb.memory.oom, "{name}");
}

#[test]
fn pruned_search_matches_scoring_every_candidate() {
    let mut pruned_any = false;
    for case in cases() {
        let got = planned(&case);
        let (want, tally) = reference(&case);
        let name = case.name;
        assert_eq!(got.actions, want.actions, "{name}: actions");
        assert!(got.strategy == want.strategy, "{name}: strategy");
        assert_same_evaluation(name, &got.eval, &want.eval);
        assert_eq!(got.visits, want.visits, "{name}: SearchIteration stream");
        assert_eq!(
            got.strategy_evaluated, want.strategy_evaluated,
            "{name}: simulated candidates"
        );
        // Counted candidates stay the candidates considered.
        assert_eq!(got.considered, want.considered, "{name}: evals");
        pruned_any |= tally.unsimulated > 0;
        if matches!(name, "vgg19" | "transformer") {
            assert!(
                tally.simulated < tally.simulated_by_busiest,
                "{name}: the bounded simulation completes {} candidates, the busiest load alone {}",
                tally.simulated,
                tally.simulated_by_busiest,
            );
        }
    }
    assert!(pruned_any, "no case left a candidate unsimulated");
}

/// Prints the `StrategyEvaluated` count of each case's plan, for
/// [`simulated_candidates_do_not_depend_on_threads`] to run under
/// different pool sizes.
#[test]
#[ignore = "run by simulated_candidates_do_not_depend_on_threads"]
fn print_simulated_candidates() {
    for case in cases().into_iter().filter(|c| c.name != "vgg19") {
        println!(
            "simulated {} {}",
            case.name,
            planned(&case).strategy_evaluated
        );
    }
}

/// The pool size is fixed per process (`RAYON_NUM_THREADS`), so this
/// re-runs the test binary at one and at two threads.
#[test]
fn simulated_candidates_do_not_depend_on_threads() {
    let counts = |threads: &str| {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "print_simulated_candidates",
                "--exact",
                "--ignored",
                "--show-output",
                "--test-threads=1",
            ])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("re-run the test binary");
        assert!(out.status.success(), "{threads} threads: {out:?}");
        let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("simulated "))
            .map(str::to_owned)
            .collect();
        assert_eq!(lines.len(), 3, "{threads} threads: {lines:?}");
        lines
    };
    assert_eq!(counts("1"), counts("2"));
}
