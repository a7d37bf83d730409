//! Table 6: GNN training cost — from scratch vs fine-tuning a policy
//! pre-trained on the *other* graphs (leave-one-out), per §6.5.
//!
//! The paper reports fine-tuning reaching the best strategy in 15-26% of
//! the from-scratch time. Wall-clock hours on 2x V100 are not
//! reproducible on this substrate, so we report the learning-speed ratio
//! in *episodes to reach the best strategy* (the quantity the wall-clock
//! measures), plus simulated minutes under the paper's ~4h/8-model
//! pre-training budget.
//!
//! Heavy experiment (~minutes). Scale with EXP_EPISODES / EXP_MODELS.
//!
//! Run: `cargo run --release -p heterog-bench --bin exp_table6`

use std::collections::BTreeMap;

use heterog_agent::{PolicyConfig, RlAgent, TrainerConfig};
use heterog_bench::write_results;
use heterog_cluster::paper_testbed_8gpu;
use heterog_graph::{BenchmarkModel, ModelSpec};
use heterog_profile::GroundTruthCost;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn cfg(episodes: usize, seed: u64) -> TrainerConfig {
    TrainerConfig {
        policy: PolicyConfig {
            gat_layers: 2,
            gat_heads: 4,
            gat_head_dim: 8,
            tf_blocks: 2,
            tf_heads: 4,
            tf_ff: 32,
            seed,
        },
        episodes,
        groups: 16,
        ..Default::default()
    }
}

fn main() {
    heterog_bench::bench_init();
    let cluster = paper_testbed_8gpu();
    let scratch_eps = env_usize("EXP_EPISODES", 60);
    let pretrain_eps = env_usize("EXP_PRETRAIN_EPISODES", 48);
    let finetune_eps = scratch_eps;
    let num_models = env_usize("EXP_MODELS", 4).min(8);

    // Smaller batches than the table experiments keep each simulator
    // call (one per episode) fast; relative learning speed is unchanged.
    let specs: Vec<ModelSpec> = BenchmarkModel::all()
        .into_iter()
        .take(num_models)
        .map(|m| match m.default_layers() {
            0 => ModelSpec::new(m, 64),
            l => ModelSpec::with_layers(m, 16, l.min(6)),
        })
        .collect();
    let graphs: Vec<_> = specs.iter().map(|s| s.build()).collect();

    println!("=== Table 6: episodes for the GNN to find its best strategy ===");
    println!(
        "{:<16}{:>14}{:>16}{:>9}   (paper: 15.3%-25.8%)",
        "Model", "From scratch", "On pre-trained", "Ratio"
    );
    let mut results: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for (i, spec) in specs.iter().enumerate() {
        // From scratch on the single target graph.
        let mut scratch = RlAgent::new(cfg(scratch_eps, 100 + i as u64));
        let rec_s = scratch.train(&[&graphs[i]], &cluster, &GroundTruthCost);
        let eps_scratch = rec_s[0].episodes_to_within(0.05);

        // Pre-train on the other graphs, then fine-tune on the target.
        let others: Vec<&_> = graphs
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, g)| g)
            .collect();
        let mut pre = RlAgent::new(cfg(pretrain_eps, 100 + i as u64));
        if !others.is_empty() {
            pre.train(&others, &cluster, &GroundTruthCost);
        }
        pre.cfg.episodes = finetune_eps;
        let rec_f = pre.train(&[&graphs[i]], &cluster, &GroundTruthCost);
        let eps_fine = rec_f[0].episodes_to_within(0.05);

        // A run that never sampled a feasible strategy never learned:
        // it prints `never` and records null.
        let ratio = match (eps_fine, eps_scratch) {
            (Some(f), Some(s)) => f as f64 / s.max(1) as f64,
            _ => f64::NAN,
        };
        let never = |eps: Option<usize>| eps.map_or("never".to_string(), |n| n.to_string());
        println!(
            "{:<16}{:>14}{:>16}{:>8.1}%",
            spec.model.display_name(),
            never(eps_scratch),
            never(eps_fine),
            100.0 * ratio
        );
        let episodes = |eps: Option<usize>| eps.map_or(f64::NAN, |n| n as f64);
        let mut m = BTreeMap::new();
        m.insert("from_scratch_episodes".into(), episodes(eps_scratch));
        m.insert("fine_tune_episodes".into(), episodes(eps_fine));
        m.insert("ratio".into(), ratio);
        m.insert("scratch_best_time_s".into(), rec_s[0].best_time);
        m.insert("fine_tune_best_time_s".into(), rec_f[0].best_time);
        results.insert(spec.model.display_name().to_string(), m);
    }
    write_results("table6_gnn_training", &results);
}
