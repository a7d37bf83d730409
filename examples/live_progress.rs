//! Watch a recorded run live: train the RL agent on a background thread
//! inside a run scope, and render a progress bar from the events its
//! run log holds — the events `heterog-cli --progress` renders, minus
//! the CLI.
//!
//! Run: `cargo run --release -p heterog --example live_progress`

use std::sync::Arc;

use heterog::agent::{RlAgent, TrainerConfig};
use heterog::events as ev;
use heterog::profile::GroundTruthCost;
use heterog_cluster::paper_testbed_8gpu;
use heterog_graph::{BenchmarkModel, ModelSpec};

fn main() {
    // 1. The run's log. Nothing records outside a run scope, so emitting
    //    is nearly free until one opens.
    let log = Arc::new(ev::RunLog::default());

    // 2. The run under observation, on its own thread, in a run scope
    //    over the log: every event the trainer emits, also from its
    //    pool workers, is appended to it, numbered from 0.
    let trainer = {
        let log = Arc::clone(&log);
        std::thread::spawn(move || {
            let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
            let cluster = paper_testbed_8gpu();
            let cfg = TrainerConfig {
                episodes: 40,
                groups: 8,
                ..TrainerConfig::default()
            };
            ev::record(&log, || {
                RlAgent::new(cfg).train(&[&g], &cluster, &GroundTruthCost)
            });
        })
    };

    // 3. Read the events past a cursor and render. One final read after
    //    the trainer exits catches everything appended since the last.
    let (mut total, mut done, mut evals) = (0u64, 0u64, 0u64);
    let mut best = f64::INFINITY;
    let mut cursor = 0;
    loop {
        let finished = trainer.is_finished();
        let events = log.read(|events| {
            let new = events[cursor..].to_vec();
            cursor = events.len();
            new
        });
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
