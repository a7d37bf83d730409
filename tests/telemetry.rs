//! Cross-crate telemetry integration tests: the metrics recorded by the
//! pipeline must agree with the `SimReport` ground truth, and the CLI's
//! `--metrics-out` path must expose the full metric roster.
//!
//! Telemetry state is process-global, so every test that records takes
//! `TEST_LOCK` and starts from `reset()`.

use std::sync::Mutex;

use heterog::telemetry;
use heterog::telemetry::json;
use heterog::{get_runner, HeterogConfig};
use heterog_cluster::{paper_testbed_8gpu, LinkKind};
use heterog_compile::{CommMethod, Strategy};
use heterog_graph::{BenchmarkModel, ModelSpec, OpKind};
use heterog_profile::GroundTruthCost;
use heterog_sched::{OrderPolicy, Proc, Task, TaskGraph};
use heterog_sim::simulate;
use heterog_strategies::{EvalMode, IncrementalEvaluator, Perturbation};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Two GPUs + one link with some overlap, generous memory.
fn demo_graph() -> TaskGraph {
    let mut tg = TaskGraph::new("demo", 2, 1);
    let a = tg.add_task(Task::new("a", OpKind::Conv2D, Proc::Gpu(0), 1.0).with_bytes(64));
    let x = tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5));
    let b = tg.add_task(Task::new("b", OpKind::Conv2D, Proc::Gpu(1), 1.0));
    tg.add_task(Task::new("c", OpKind::Conv2D, Proc::Gpu(0), 2.0));
    tg.add_dep(a, x);
    tg.add_dep(x, b);
    tg
}

#[test]
fn per_gpu_duration_sums_match_gpu_busy() {
    let _g = locked();
    telemetry::reset();
    telemetry::enable();
    let tg = demo_graph();
    let r = simulate(&tg, &[8 << 30, 8 << 30], &OrderPolicy::RankBased);
    telemetry::disable();

    // Ground truth: the simulator's busy accounting equals the sum of
    // task durations placed on each GPU.
    let mut per_gpu = [0.0f64; 2];
    for (_, t) in tg.iter() {
        if let Proc::Gpu(g) = t.proc {
            per_gpu[g as usize] += t.duration;
        }
    }
    for (g, &sum) in per_gpu.iter().enumerate() {
        assert!(
            (sum - r.gpu_busy[g]).abs() < 1e-9,
            "GPU{g}: duration sum {sum} != gpu_busy {}",
            r.gpu_busy[g]
        );
    }

    // And the telemetry event counter saw exactly one completion per task.
    let snap = telemetry::snapshot();
    assert_eq!(
        snap.counter("heterog_sim_events_processed_total"),
        Some(tg.len() as u64)
    );
    assert_eq!(snap.counter("heterog_sim_simulations_total"), Some(1));
}

#[test]
fn incremental_resims_count_apart_from_plain_simulations() {
    let _g = locked();
    telemetry::reset();
    telemetry::enable();
    let counter = |name| telemetry::snapshot().counter(name).unwrap_or(0);
    let names = [
        "heterog_sim_incremental_resims_total",
        "heterog_sim_simulations_total",
    ];
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    let c = paper_testbed_8gpu();
    let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
    let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &OrderPolicy::RankBased);
    let before = names.map(counter);
    // The base cluster re-prices to the base's durations, which reuse
    // the base report; a slower PCIe changes them and simulates once.
    let (_, same) = ev.evaluate_perturbed(Perturbation::Cluster(&c));
    let mid = names.map(counter);
    let slow_pcie = c.with_scaled_link(Some(LinkKind::Pcie), 0.5);
    let (_, slower) = ev.evaluate_perturbed(Perturbation::Cluster(&slow_pcie));
    let after = names.map(counter);
    telemetry::disable();

    assert_eq!((same, slower), (EvalMode::Repriced, EvalMode::Repriced));
    assert_eq!(mid[0] - before[0], 1, "{}", names[0]);
    assert_eq!(after[0] - mid[0], 1, "{}", names[0]);
    assert_eq!(after[1], before[1], "{} must not move", names[1]);
}

#[test]
fn evaluator_cluster_perturbation_counts_one_resim_and_no_plain_simulation() {
    let _g = locked();
    telemetry::reset();
    telemetry::enable();
    let counter = |name| telemetry::snapshot().counter(name).unwrap_or(0);
    let names = [
        "heterog_sim_incremental_resims_total",
        "heterog_sim_simulations_total",
    ];
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    let c = paper_testbed_8gpu();
    let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
    let before = names.map(counter);
    // The base run and the re-priced query both stay out of the plain
    // simulation count.
    let ev = IncrementalEvaluator::new(&g, &GroundTruthCost, &c, &s, &OrderPolicy::RankBased);
    let slow_pcie = c.with_scaled_link(Some(LinkKind::Pcie), 0.5);
    let (_, mode) = ev.evaluate_perturbed(Perturbation::Cluster(&slow_pcie));
    let after = names.map(counter);
    telemetry::disable();

    assert_eq!(mode, EvalMode::Repriced);
    assert_eq!(after[0] - before[0], 1, "{}", names[0]);
    assert_eq!(after[1], before[1], "{} must not move", names[1]);
}

#[test]
fn oom_counter_matches_oom_flag_count() {
    let _g = locked();
    telemetry::reset();
    telemetry::enable();
    // 10-byte capacities: both active GPUs overflow.
    let tg = demo_graph();
    let r = simulate(&tg, &[10, 10], &OrderPolicy::RankBased);
    telemetry::disable();
    let flags = r.memory.oom.iter().filter(|&&o| o).count() as u64;
    assert!(flags > 0, "premise: tiny capacities must OOM");
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("heterog_sim_oom_devices_total"), Some(flags));
}

#[test]
fn empty_graph_report_has_no_division_by_zero() {
    let _g = locked();
    let tg = TaskGraph::new("empty", 1, 0);
    let r = simulate(&tg, &[1], &OrderPolicy::RankBased);
    assert_eq!(r.iteration_time, 0.0);
    // Zero makespan must not produce NaN/inf ratios.
    assert_eq!(r.overlap_ratio(), 0.0);
    assert_eq!(r.mean_gpu_utilization(), 0.0);
}

/// The `--metrics-out` acceptance criterion, exercised through the same
/// code path the CLI uses: a default (fast-planner) plan must register
/// at least 12 distinct metrics spanning the sim, compile, sched, and
/// agent namespaces, and export them in Prometheus text format.
#[test]
fn full_plan_registers_metrics_across_namespaces() {
    let _g = locked();
    telemetry::reset();
    telemetry::enable();
    let runner = get_runner(
        || ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build(),
        paper_testbed_8gpu(),
        HeterogConfig::quick(),
    );
    let snap = runner.telemetry_snapshot();
    telemetry::disable();

    assert!(
        snap.metric_count() >= 12,
        "expected >= 12 distinct metrics, got {}",
        snap.metric_count()
    );
    let text = telemetry::prometheus_text(&snap);
    for ns in ["_sim_", "_compile_", "_sched_", "_agent_"] {
        assert!(
            text.contains(&format!("heterog{ns}")),
            "metrics must span the {ns} namespace:\n{text}"
        );
    }
    // Spot-check Prometheus exposition structure.
    assert!(text.contains("# TYPE heterog_sim_simulations_total counter"));
    assert!(text.contains("# TYPE heterog_sim_memory_peak_bytes gauge"));
    assert!(text.contains("# TYPE heterog_sched_schedule_seconds histogram"));
    assert!(text.contains("heterog_sched_schedule_seconds_bucket{le=\"+Inf\"}"));
    // The planner really evaluated candidates.
    assert!(
        snap.counter("heterog_agent_candidate_evals_total")
            .unwrap_or(0)
            > 0
    );
    assert!(
        snap.counter("heterog_strategies_evaluations_total")
            .unwrap_or(0)
            > 0
    );
    // Spans captured the phase hierarchy.
    assert!(snap.spans.iter().any(|s| s.path == "get_runner"));
    assert!(snap.spans.iter().any(|s| s.path.ends_with("simulate")));
    assert!(!snap.top_spans(5).is_empty());
}

/// The merged trace (`--trace-out`) is one JSON array containing both
/// the simulator timeline (pid 0) and host spans (pid 1).
#[test]
fn merged_trace_contains_simulator_and_host_lanes() {
    let _g = locked();
    telemetry::reset();
    telemetry::enable();
    let runner = get_runner(
        || ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build(),
        paper_testbed_8gpu(),
        HeterogConfig::quick(),
    );
    let merged = runner.trace_json_with_spans();
    telemetry::disable();
    let v = json::parse(&merged).expect("merged trace parses");
    let arr = v.as_array().expect("trace is an event array");
    let sim_events = arr.iter().filter(|e| e["pid"].as_u64() == Some(0)).count();
    let host_events = arr.iter().filter(|e| e["pid"].as_u64() == Some(1)).count();
    assert!(sim_events > 0, "simulator lane missing");
    assert!(host_events > 0, "host span lane missing");
    // Host lane includes its process metadata and at least one span.
    assert!(arr.iter().any(|e| e["pid"].as_u64() == Some(1)
        && e["ph"].as_str() == Some("M")
        && e["name"].as_str() == Some("process_name")));
    assert!(arr
        .iter()
        .any(|e| e["pid"].as_u64() == Some(1) && e["ph"].as_str() == Some("X")));
}

/// Disabled telemetry must leave nothing behind — the no-op recorder is
/// what keeps `exp_table1` wall-clock unchanged by default.
#[test]
fn disabled_pipeline_records_nothing() {
    let _g = locked();
    telemetry::reset();
    telemetry::disable();
    let tg = demo_graph();
    let _ = simulate(&tg, &[8 << 30, 8 << 30], &OrderPolicy::RankBased);
    let snap = telemetry::snapshot();
    assert_eq!(
        snap.counter("heterog_sim_simulations_total").unwrap_or(0),
        0
    );
    assert!(snap.spans.is_empty());
}
