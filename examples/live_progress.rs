//! Watch a run live from the raw event stream: train the RL agent on a
//! background thread and render a progress bar from the events it emits
//! — the same bus `heterog-cli --progress` consumes, minus the CLI.
//!
//! Run: `cargo run --release -p heterog --example live_progress`

use heterog::agent::{RlAgent, TrainerConfig};
use heterog::events as ev;
use heterog::profile::GroundTruthCost;
use heterog_cluster::paper_testbed_8gpu;
use heterog_graph::{BenchmarkModel, ModelSpec};

fn main() {
    // 1. Turn the bus on (off by default, nearly free when off) and take
    //    a polling cursor over the ring, which every unscoped emitter
    //    (here, the trainer) feeds.
    ev::enable();
    let mut sub = ev::subscribe();

    // 2. The run under observation, on its own thread.
    let trainer = std::thread::spawn(|| {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let cluster = paper_testbed_8gpu();
        let cfg = TrainerConfig {
            episodes: 40,
            groups: 8,
            ..TrainerConfig::default()
        };
        RlAgent::new(cfg).train(&[&g], &cluster, &GroundTruthCost);
    });

    // 3. Poll the cursor and render. One final drain after the trainer
    //    exits catches everything emitted since the last poll.
    let (mut total, mut done, mut evals) = (0u64, 0u64, 0u64);
    let mut best = f64::INFINITY;
    loop {
        let finished = trainer.is_finished();
        let (events, missed) = sub.poll();
        for e in events {
            match e.kind {
                ev::EventKind::RunStarted { total_units, .. } => total = total_units,
                ev::EventKind::RlEpisode {
                    episode, best_time, ..
                } => {
                    done = episode + 1;
                    best = best.min(best_time);
                }
                ev::EventKind::StrategyEvaluated { .. } => evals += 1,
                _ => {}
            }
        }
        if missed > 0 {
            eprintln!("\n(consumer lagged: {missed} events dropped)");
        }
        let width = 30;
        if let Some(filled) = (done * width).checked_div(total) {
            let filled = filled as usize;
            eprint!(
                "\r[{}{}] episode {done}/{total}  best {best:.4} s/iter  {evals} evals",
                "#".repeat(filled),
                "-".repeat(width as usize - filled),
            );
        }
        if finished {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    eprintln!();
    trainer.join().expect("trainer thread");
    println!(
        "trained {done} episodes ({evals} strategy evaluations); best sampled {best:.4} s/iter"
    );
}
