//! Elastic recovery bench: what does it cost to survive a GPU failure?
//!
//! For each model the bin plans on the paper's 8-GPU testbed, kills one
//! GPU, and measures the two repair paths head-to-head:
//!
//! * **full-replan** — re-run the whole search planner on the 7-GPU
//!   cluster (the quality ceiling, and the wall-clock worst case);
//! * **migrate-replicas** — redistribute the dead GPU's replicas over
//!   the survivors proportionally to compute power, then re-lower and
//!   re-schedule once (no search).
//!
//! It then replays the same fault through the full elastic runtime
//! (`elastic_run`, 50 iterations, fault at iteration 10) under all
//! three policies and records the deterministic recovery accounting
//! (`repair_evals`, `recovery_cost_s`, repaired makespan) next to the
//! wall-clock numbers. Migration must beat the full replan's wall time
//! on at least one model — the bin asserts it.
//!
//! Writes `BENCH_elastic_recovery.json` in the working directory.
//!
//! Run: `cargo run --release -p heterog-bench --bin exp_elastic_recovery`
//! (pass `--smoke` for a seconds-scale CI configuration).

use std::path::Path;
use std::time::Instant;

use heterog::elastic::{elastic_run, ElasticOptions, FaultScript, RepairPolicy};
use heterog_agent::HeteroGPlanner;
use heterog_bench::{round_to, write_json};
use heterog_cluster::{paper_testbed_8gpu, DeviceId};
use heterog_compile::compile;
use heterog_graph::{BenchmarkModel, ModelSpec};
use heterog_profile::GroundTruthCost;
use heterog_sched::OrderPolicy;
use heterog_sim::simulate;
use heterog_strategies::{migrate_replicas, DeviceMap, Planner};
use heterog_telemetry::json::{ToJson, Value};
use heterog_telemetry::json_object;

struct ModelRow {
    name: &'static str,
    replan_wall_s: f64,
    migrate_wall_s: f64,
    replan_makespan: f64,
    migrate_makespan: f64,
    // Per-policy (full-replan, migrate-replicas, collective-fallback):
    repair_evals: [u64; 3],
    recovery_cost_s: [f64; 3],
    time_lost_s: [f64; 3],
    final_makespan: [f64; 3],
}

fn main() {
    heterog_bench::bench_init();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let models: &[BenchmarkModel] = if smoke {
        &[BenchmarkModel::MobileNetV2]
    } else {
        &[
            BenchmarkModel::MobileNetV2,
            BenchmarkModel::Vgg19,
            BenchmarkModel::ResNet200,
        ]
    };
    let iters: u64 = if smoke { 20 } else { 50 };
    let planner = HeteroGPlanner {
        groups: 12,
        passes: 1,
        allow_mp: true,
    };
    let cost = GroundTruthCost;
    let failed = 3usize; // the GPU that dies

    println!("=== Elastic recovery: one GPU failure on the paper 8-GPU testbed ===");
    let mut rows = Vec::new();
    for &m in models {
        let g = ModelSpec::new(m, m.default_batch_8gpu()).build();
        let cluster = paper_testbed_8gpu();
        let healthy = planner.plan(&g, &cluster, &cost);
        let mutated = cluster.without_device(DeviceId(failed as u32));
        let caps = mutated.memory_capacities();

        // Repair path A: the planner's whole search, from scratch.
        let t0 = Instant::now();
        let replanned = planner.plan(&g, &mutated, &cost);
        let replan_wall_s = t0.elapsed().as_secs_f64();
        let replan_makespan = simulate(
            &compile(&g, &mutated, &cost, &replanned),
            &caps,
            &OrderPolicy::RankBased,
        )
        .iteration_time;

        // Repair path B: migrate + one re-lower + one re-schedule.
        let t1 = Instant::now();
        let map = DeviceMap::removal(cluster.num_devices(), failed);
        let migrated = migrate_replicas(&healthy, &map, &mutated);
        let migrate_makespan = simulate(
            &compile(&g, &mutated, &cost, &migrated),
            &caps,
            &OrderPolicy::RankBased,
        )
        .iteration_time;
        let migrate_wall_s = t1.elapsed().as_secs_f64();

        // Full runtime replay for the deterministic accounting.
        let script = FaultScript::parse(&format!("10:fail:{failed}")).unwrap();
        let mut repair_evals = [0u64; 3];
        let mut recovery_cost_s = [0f64; 3];
        let mut time_lost_s = [0f64; 3];
        let mut final_makespan = [0f64; 3];
        for (i, policy) in RepairPolicy::ALL.into_iter().enumerate() {
            let opts = ElasticOptions {
                iterations: iters,
                policy,
                ..ElasticOptions::default()
            };
            let out = elastic_run(&g, &cluster, &cost, &planner, &script, &opts);
            repair_evals[i] = out.report.decisions.iter().map(|d| d.repair_evals).sum();
            recovery_cost_s[i] = out.report.recovery_cost_s;
            time_lost_s[i] = out.report.time_lost;
            final_makespan[i] = out.report.final_makespan;
        }

        println!(
            "{:<14} replan {:8.3}s -> {:.4}s/iter   migrate {:8.3}s -> {:.4}s/iter   \
             evals {}/{}/{}",
            format!("{m:?}"),
            replan_wall_s,
            replan_makespan,
            migrate_wall_s,
            migrate_makespan,
            repair_evals[0],
            repair_evals[1],
            repair_evals[2],
        );
        rows.push(ModelRow {
            name: m.display_name(),
            replan_wall_s,
            migrate_wall_s,
            replan_makespan,
            migrate_makespan,
            repair_evals,
            recovery_cost_s,
            time_lost_s,
            final_makespan,
        });
    }

    let migrate_wins = rows
        .iter()
        .filter(|r| r.migrate_wall_s < r.replan_wall_s)
        .count();
    assert!(
        migrate_wins >= 1,
        "migrate-replicas must beat full-replan wall time on at least one model"
    );
    println!(
        "migrate-replicas repairs faster than full-replan on {migrate_wins}/{} models",
        rows.len()
    );

    let rounded = |xs: [f64; 3]| xs.map(|x| round_to(x, 6)).to_vec().to_value();
    let models: Vec<Value> = rows
        .iter()
        .map(|r| {
            json_object! {
                "model" => r.name,
                "full_replan_wall_s" => round_to(r.replan_wall_s, 6),
                "migrate_wall_s" => round_to(r.migrate_wall_s, 6),
                "migrate_below_replan" => r.migrate_wall_s < r.replan_wall_s,
                "replan_makespan_s" => round_to(r.replan_makespan, 6),
                "migrate_makespan_s" => round_to(r.migrate_makespan, 6),
                "repair_evals" => &r.repair_evals[..],
                "recovery_cost_s" => rounded(r.recovery_cost_s),
                "time_lost_s" => rounded(r.time_lost_s),
                "final_makespan_s" => rounded(r.final_makespan),
            }
        })
        .collect();
    let policies: Vec<&str> = RepairPolicy::ALL.iter().map(RepairPolicy::name).collect();
    let doc = json_object! {
        "smoke" => smoke,
        "iterations" => iters,
        "failed_device" => failed,
        "migrate_faster_models" => migrate_wins,
        "policies" => &policies,
        "models" => Value::Array(models),
    };
    write_json(Path::new("BENCH_elastic_recovery.json"), &doc);
}
