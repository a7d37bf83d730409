//! The RL path (§4.1): train the GAT + Transformer policy with
//! REINFORCE against the simulator, then compare its strategy with the
//! baselines and the deterministic search planner.
//!
//! Run: `cargo run --release -p heterog --example train_agent`
//! (set EPISODES to train longer)

use heterog_agent::{HeteroGPlanner, PolicyConfig, RlAgent, TrainerConfig};
use heterog_cluster::paper_testbed_8gpu;
use heterog_graph::{BenchmarkModel, ModelSpec};
use heterog_profile::GroundTruthCost;
use heterog_strategies::{evaluate, Planner};

fn main() {
    let episodes: usize = std::env::var("EPISODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(80);
    let cluster = paper_testbed_8gpu();
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 192).build();

    let cfg = TrainerConfig {
        policy: PolicyConfig::default(),
        episodes,
        groups: 16,
        ..Default::default()
    };
    let mut agent = RlAgent::new(cfg);
    println!(
        "training the GNN policy for {episodes} episodes on {} ...",
        g.name
    );
    let recs = agent.train(&[&g], &cluster, &GroundTruthCost);
    let rec = &recs[0];
    println!(
        "reward: first 10 avg {:.3}, last 10 avg {:.3}",
        rec.rewards[..10.min(rec.rewards.len())].iter().sum::<f64>()
            / 10.0f64.min(rec.rewards.len() as f64),
        rec.rewards[rec.rewards.len().saturating_sub(10)..]
            .iter()
            .sum::<f64>()
            / 10.0f64.min(rec.rewards.len() as f64),
    );
    println!(
        "best sampled strategy: {:.3} s/iter (episode {})",
        rec.best_time,
        rec.best_episode + 1
    );

    let learned = agent.plan(&g, &cluster, &GroundTruthCost);
    let t_learned = evaluate(&g, &cluster, &GroundTruthCost, &learned).iteration_time;
    println!("learned plan:          {t_learned:.3} s/iter");

    // Reference points.
    let search = HeteroGPlanner {
        groups: 16,
        passes: 1,
        allow_mp: true,
    };
    let s = search.plan(&g, &cluster, &GroundTruthCost);
    let t_search = evaluate(&g, &cluster, &GroundTruthCost, &s).iteration_time;
    println!("search planner:         {t_search:.3} s/iter");
    for b in ["EV-AR", "CP-AR"] {
        let p = heterog::HeterogConfig::baseline(b).planner;
        let s = p.plan(&g, &cluster, &GroundTruthCost);
        let t = evaluate(&g, &cluster, &GroundTruthCost, &s).iteration_time;
        println!("{b:<22}: {t:.3} s/iter");
    }
}
