//! Cross-crate integration tests: the full profile -> plan -> compile ->
//! schedule -> simulate pipeline on real models and clusters.

use heterog::{get_runner, HeterogConfig};
use heterog_agent::HeteroGPlanner;
use heterog_cluster::{paper_testbed_12gpu, paper_testbed_4gpu, paper_testbed_8gpu};
use heterog_compile::{compile, CommMethod, Strategy};
use heterog_graph::{BenchmarkModel, ModelSpec, OpKind};
use heterog_profile::{GroundTruthCost, Profiler};
use heterog_sched::{list_schedule, OrderPolicy};
use heterog_sim::{chrome_trace_events, simulate, time_breakdown};
use heterog_strategies::{evaluate, Planner};

#[test]
fn every_model_compiles_and_simulates_under_every_baseline() {
    let cluster = paper_testbed_8gpu();
    for m in BenchmarkModel::all() {
        let g = ModelSpec::new(m, 32).build();
        for comm in [CommMethod::Ps, CommMethod::AllReduce] {
            for s in [
                Strategy::even(g.len(), &cluster, comm),
                Strategy::proportional(g.len(), &cluster, comm),
            ] {
                let tg = compile(&g, &cluster, &GroundTruthCost, &s);
                let r = simulate(&tg, &cluster.memory_capacities(), &OrderPolicy::RankBased);
                assert!(
                    r.iteration_time.is_finite() && r.iteration_time > 0.0,
                    "{m} failed"
                );
                // Every task got scheduled.
                assert!(
                    r.schedule.finish.iter().all(|f| f.is_finite()),
                    "{m}: unscheduled tasks"
                );
            }
        }
    }
}

#[test]
fn rank_order_never_loses_to_fifo_across_models() {
    // The §6.6 claim, as a hard invariant over the zoo at small batch.
    let cluster = paper_testbed_8gpu();
    for m in BenchmarkModel::all() {
        let g = ModelSpec::new(m, 32).build();
        let s = Strategy::proportional(g.len(), &cluster, CommMethod::AllReduce);
        let tg = compile(&g, &cluster, &GroundTruthCost, &s);
        let ranked = list_schedule(&tg, &OrderPolicy::RankBased);
        let fifo = list_schedule(&tg, &OrderPolicy::Fifo);
        // Rank-based is a heuristic, not provably dominant per graph
        // (comm-bound models can prefer FIFO's eager gradient emission);
        // catch systematic regressions while allowing per-model variance.
        assert!(
            ranked.makespan <= fifo.makespan * 1.20 + 1e-9,
            "{m}: rank {} vs fifo {}",
            ranked.makespan,
            fifo.makespan
        );
    }
}

#[test]
fn planner_beats_baselines_on_three_testbeds() {
    let g = ModelSpec::new(BenchmarkModel::Vgg19, 96).build();
    let planner = HeteroGPlanner {
        groups: 12,
        passes: 1,
        allow_mp: true,
    };
    for cluster in [
        paper_testbed_4gpu(),
        paper_testbed_8gpu(),
        paper_testbed_12gpu(),
    ] {
        let (_, eval, _) = planner.plan_detailed(&g, &cluster, &GroundTruthCost);
        for comm in [CommMethod::Ps, CommMethod::AllReduce] {
            let base = evaluate(
                &g,
                &cluster,
                &GroundTruthCost,
                &Strategy::even(g.len(), &cluster, comm),
            );
            assert!(
                eval.iteration_time <= base.iteration_time + 1e-9,
                "{} GPUs: planner {} vs EV {}",
                cluster.num_devices(),
                eval.iteration_time,
                base.iteration_time
            );
        }
    }
}

#[test]
fn planning_on_fitted_costs_transfers_to_ground_truth() {
    // The profile -> plan -> deploy pipeline: a plan optimized against
    // the noisy fitted model must still beat the baselines when measured
    // on the ground truth.
    let cluster = paper_testbed_8gpu();
    let g = ModelSpec::new(BenchmarkModel::InceptionV3, 96).build();
    let fitted = Profiler::default().profile(&[&g], &cluster);
    let planner = HeteroGPlanner {
        groups: 12,
        passes: 1,
        allow_mp: true,
    };
    let strategy = planner.plan(&g, &cluster, &fitted);
    let ours = evaluate(&g, &cluster, &GroundTruthCost, &strategy);
    let base = evaluate(
        &g,
        &cluster,
        &GroundTruthCost,
        &Strategy::even(g.len(), &cluster, CommMethod::Ps),
    );
    assert!(ours.iteration_time <= base.iteration_time * 1.02);
}

#[test]
fn get_runner_with_all_baseline_names() {
    for name in ["EV-PS", "EV-AR", "CP-PS", "CP-AR", "Horovod", "HetPipe"] {
        let runner = get_runner(
            || ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build(),
            paper_testbed_4gpu(),
            HeterogConfig::baseline(name),
        );
        let stats = runner.run(2);
        assert!(stats.per_iteration_s > 0.0, "{name}");
    }
}

#[test]
fn breakdown_is_consistent_with_makespan() {
    let cluster = paper_testbed_8gpu();
    let g = ModelSpec::new(BenchmarkModel::Vgg19, 64).build();
    let s = Strategy::proportional(g.len(), &cluster, CommMethod::AllReduce);
    let tg = compile(&g, &cluster, &GroundTruthCost, &s);
    let r = simulate(&tg, &cluster.memory_capacities(), &OrderPolicy::RankBased);
    // Computation (bottleneck GPU) and communication (link union) each
    // fit inside the iteration; their sum exceeds it only through
    // overlap.
    assert!(r.computation_time <= r.iteration_time + 1e-9);
    assert!(r.communication_time <= r.iteration_time + 1e-9);
    assert!(r.overlap_ratio() >= 1.0 || r.communication_time == 0.0);
    let bd = time_breakdown(&tg, &r.schedule);
    assert!(bd.iter().all(|&x| x >= 0.0));
    assert!(
        bd[0] > 0.0 && bd[1] > 0.0,
        "forward and backward time must be non-zero"
    );
}

#[test]
fn twelve_gpu_cluster_scales_throughput_over_four() {
    // Weak scaling, as the paper scales batch with GPU count (Table 4):
    // more devices at proportional global batch => higher throughput.
    let g4 = get_runner(
        || ModelSpec::new(BenchmarkModel::ResNet200, 96).build(),
        paper_testbed_4gpu(),
        HeterogConfig::baseline("CP-AR"),
    );
    let g12 = get_runner(
        || ModelSpec::new(BenchmarkModel::ResNet200, 288).build(),
        paper_testbed_12gpu(),
        HeterogConfig::baseline("CP-AR"),
    );
    let t4 = g4.run(1).samples_per_second;
    let t12 = g12.run(1).samples_per_second;
    assert!(t12 > t4, "12 GPUs {t12} <= 4 GPUs {t4}");
}

#[test]
fn search_planners_run_on_fitted_costs() {
    let cluster = paper_testbed_4gpu();
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    let fitted = Profiler::default().profile(&[&g], &cluster);
    for planner in [
        Box::new(heterog_strategies::FlexFlowPlanner {
            iterations: 6,
            groups: 6,
            ..Default::default()
        }) as Box<dyn Planner>,
        Box::new(heterog_strategies::PostPlanner {
            iterations: 2,
            samples: 4,
            groups: 6,
            ..Default::default()
        }),
        Box::new(heterog_strategies::HetPipePlanner),
    ] {
        let s = planner.plan(&g, &cluster, &fitted);
        let e = evaluate(&g, &cluster, &GroundTruthCost, &s);
        assert!(e.iteration_time.is_finite(), "{}", planner.name());
    }
}

/// Two plans run on two threads at once each count, in their own
/// scope, exactly the evaluation outcomes they count when run alone:
/// neither sees the other's evaluations, also when their `par_map`
/// items run on shared pool workers.
#[test]
fn concurrent_plans_count_their_own_evaluations() {
    use heterog_strategies::{count_evaluations, EvalStats};
    use std::sync::Barrier;
    let cluster = paper_testbed_8gpu();
    let plans = [(BenchmarkModel::MobileNetV2, 6), (BenchmarkModel::Vgg19, 4)];
    let run = |(model, groups): (BenchmarkModel, usize), start: Option<&Barrier>| {
        let g = ModelSpec::new(model, 64).build();
        if let Some(start) = start {
            start.wait();
        }
        let planner = HeteroGPlanner {
            groups,
            passes: 1,
            allow_mp: true,
        };
        count_evaluations(|| planner.plan(&g, &cluster, &GroundTruthCost))
    };
    let counts = |s: EvalStats| (s.evaluations, s.incremental_fast, s.incremental_full);
    let alone: Vec<_> = plans.iter().map(|&p| run(p, None)).collect();
    let start = &Barrier::new(plans.len());
    let together: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|&p| s.spawn(move || run(p, Some(start))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ((model, _), (a, t)) in plans.iter().zip(alone.iter().zip(&together)) {
        assert_eq!(a.0, t.0, "{model}: the same plan");
        assert!(a.1.evaluations > 0, "{model}: the plan evaluated");
        assert_eq!(counts(a.1), counts(t.1), "{model}: alone vs concurrent");
    }
}

/// `DistRunner::explain` anchors its what-ifs on the runner's own
/// compiled graph and report: the base deployment counts no full
/// evaluation, and only device removal, which changes the cluster's
/// structure, compiles and counts one.
#[test]
fn explain_counts_one_full_evaluation_per_device_removal_and_none_for_the_base() {
    use heterog_explain::{default_interventions, Intervention};
    use heterog_strategies::count_evaluations;
    let g = || ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    let runner = get_runner(g, paper_testbed_8gpu(), HeterogConfig::baseline("CP-AR"));
    let (report, stats) = count_evaluations(|| runner.explain());
    let removals = default_interventions(&runner.cluster, &runner.strategy)
        .iter()
        .filter(|iv| matches!(iv, Intervention::RemoveDevice { .. }))
        .count() as u64;
    assert!(removals > 0);
    assert!(!report.whatif.is_empty());
    assert_eq!(stats.evaluations, removals);
    assert_eq!(report.eval_stats.evaluations, removals);
}

/// The trace's `transferred_bytes` counter sums the payloads of a
/// compiled plan's transfers: on CP-PS every gradient is pushed and
/// pulled over links, so its last value is the sum over Transfer tasks.
#[test]
fn trace_counter_sums_compiled_transfer_payloads() {
    let cluster = paper_testbed_8gpu();
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
    let s = Strategy::proportional(g.len(), &cluster, CommMethod::Ps);
    let tg = compile(&g, &cluster, &GroundTruthCost, &s);
    let r = simulate(&tg, &cluster.memory_capacities(), &OrderPolicy::RankBased);
    let payloads: u64 = tg
        .iter()
        .filter(|(_, t)| t.kind == OpKind::Transfer)
        .map(|(_, t)| t.bytes)
        .sum();
    let last = chrome_trace_events(&tg, &r.schedule)
        .iter()
        .rev()
        .find(|e| e["name"].as_str() == Some("transferred_bytes"))
        .and_then(|e| e["args"]["bytes"].as_u64())
        .expect("counter steps");
    assert!(payloads > 0);
    assert_eq!(last, payloads);
}
