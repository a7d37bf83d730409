//! Browse past runs through the library API: archive three plans into a
//! local store, then query it — list the runs, sparkline one run's
//! search progress, and digest-diff the first against the last.
//!
//! This is the programmatic twin of:
//!
//! ```text
//! heterog-cli plan --model mobilenet --batch 32   # x3, varying batch
//! heterog-cli runs list
//! heterog-cli runs show <id>
//! heterog-cli runs diff <first> <last>
//! ```
//!
//! Run: `cargo run --release --example run_history`

use std::path::Path;
use std::sync::Arc;

use heterog::events as ev;
use heterog::runs::{search_progress, ArchiveHandle, RunStore, StoredEvaluation};
use heterog::{get_runner, HeterogConfig};
use heterog_cluster::paper_testbed_8gpu;
use heterog_graph::{BenchmarkModel, ModelSpec};

/// Plans mobilenet at `batch` in a run scope and archives its run log —
/// the same wiring `heterog-cli plan` uses — and returns the archived
/// run id.
fn archive_plan(root: &Path, batch: u64) -> String {
    let spec = ModelSpec::new(BenchmarkModel::MobileNetV2, batch);
    let cluster = paper_testbed_8gpu();
    let manifest = ev::RunManifest {
        command: "example".into(),
        model: spec.label(),
        batch_size: batch,
        cluster_fingerprint: cluster.fingerprint(),
        num_devices: cluster.num_devices() as u32,
        planner: "heterog".into(),
        started_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        events_capacity: ev::DEFAULT_CAPACITY,
        ..Default::default()
    };
    let mut handle = ArchiveHandle::new(root, manifest);
    // The run's log: every event the plan emits, numbered from 0. The
    // CLI adds its `--events-out` and `--progress` sinks here.
    let log = Arc::new(ev::RunLog::default());

    ev::record(&log, || {
        let runner = get_runner(|| spec.build(), cluster, HeterogConfig::quick());
        let stats = runner.run(1);
        let outcome = if stats.oom { "oom" } else { "ok" };
        handle.set_digest(&heterog::explain::quick_digest(
            &spec.label(),
            &runner.report,
        ));
        handle.set_evaluation(StoredEvaluation {
            outcome: outcome.into(),
            makespan: stats.per_iteration_s,
            oom: stats.oom,
            samples_per_second: stats.samples_per_second,
            wall_s: 0.0,
        });
        // Inside the scope, so its `run_finished` closes the log.
        handle.mark_finished(outcome, stats.per_iteration_s, stats.oom);
    });
    handle.archive(&log).expect("archive the run");
    handle.run_id().to_string()
}

fn main() {
    let root = std::env::temp_dir().join(format!("heterog-run-history-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    println!(
        "archiving three mobilenet plans into {} ...",
        root.display()
    );
    let ids: Vec<String> = [32u64, 64, 96]
        .iter()
        .map(|&b| archive_plan(&root, b))
        .collect();

    let store = RunStore::open(&root);
    println!("\nstored runs:");
    for r in store.list() {
        let makespan = r
            .evaluation
            .as_ref()
            .map(|e| format!("{:.4} s/iter", e.makespan))
            .unwrap_or_else(|| "-".into());
        println!(
            "  {}  {} batch {:>3}  {makespan}",
            r.id, r.manifest.model, r.manifest.batch_size
        );
    }

    let last = store.load(ids.last().unwrap()).expect("load last run");
    let progress = search_progress(&last.log);
    if !progress.is_empty() {
        println!(
            "\nsearch progress of {}: {} ({} samples)",
            last.id,
            ev::sparkline(&progress, 40),
            progress.len()
        );
    }

    // The batch-96 plan against the batch-32 one: a real regression the
    // digest diff must flag (bigger batch, longer iteration).
    let first = store.load(&ids[0]).expect("load first run");
    let before = first.digest.clone().expect("first digest");
    let after = last.digest.clone().expect("last digest");
    let d = heterog::explain::diff(&before, &after);
    println!("\ndigest diff {} -> {}:", first.id, last.id);
    print!("{}", heterog::explain::render_diff_text(&d));

    std::fs::remove_dir_all(&root).ok();
}
