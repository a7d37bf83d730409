//! Extension ablation (§7): micro-batch pipelining on top of HeteroG's
//! plan. The paper sketches this integration ("split a mini-batch into
//! micro-batches, carry out pipelined training ... and augment our
//! execution order scheduling algorithm"); our `compile_pipelined`
//! implements it with synchronous semantics (one aggregation + update
//! per iteration).
//!
//! Run: `cargo run --release -p heterog-bench --bin exp_ablation_pipeline`

use std::collections::BTreeMap;

use heterog_bench::*;
use heterog_cluster::paper_testbed_8gpu;
use heterog_compile::compile_pipelined;
use heterog_graph::{BenchmarkModel, ModelSpec};
use heterog_profile::GroundTruthCost;
use heterog_sched::{list_schedule, OrderPolicy};

fn main() {
    bench_init();
    let cluster = paper_testbed_8gpu();
    let planner = heterog_planner();

    println!("=== Ablation: micro-batch pipelining over HeteroG's plan (8 GPUs) ===");
    println!(
        "{:<34}{:>10}{:>10}{:>10}{:>10}",
        "Model (batch size)", "1", "2", "4", "8"
    );
    let mut results: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for spec in [
        ModelSpec::new(BenchmarkModel::Vgg19, 192),
        ModelSpec::with_layers(BenchmarkModel::BertLarge, 48, 24),
        // The large-model regime is where MP placements dominate and
        // pipelining has stages to overlap.
        ModelSpec::with_layers(BenchmarkModel::BertLarge, 24, 48),
    ] {
        let g = spec.build();
        let fitted = fitted_costs(&g, &cluster);
        let (strategy, _, _) = planner.plan_detailed(&g, &cluster, &fitted);
        let mut row: BTreeMap<String, f64> = BTreeMap::new();
        print!("{:<34}", spec.label());
        for micros in [1u32, 2, 4, 8] {
            let tg = compile_pipelined(&g, &cluster, &GroundTruthCost, &strategy, micros);
            let t = list_schedule(&tg, &OrderPolicy::RankBased).makespan;
            print!("{t:>10.3}");
            row.insert(format!("micros_{micros}"), t);
        }
        println!();
        results.insert(spec.label(), row);
    }
    println!("\n(synchronous semantics preserved: one aggregation + update per iteration)");
    write_results("ablation_pipeline", &results);
}
