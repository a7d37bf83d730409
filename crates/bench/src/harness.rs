//! Shared experiment plumbing: model rosters, planner rosters, result
//! tables and JSON export.

use std::collections::BTreeMap;
use std::path::Path;

use heterog::HeterogConfig;
use heterog_agent::HeteroGPlanner;
use heterog_cluster::Cluster;
use heterog_graph::{BenchmarkModel, Graph, ModelSpec};
use heterog_profile::{CostModel, GroundTruthCost, Profiler};
use heterog_sched::OrderPolicy;
use heterog_strategies::{evaluate_with_policy, Evaluation, Planner};
use heterog_telemetry::json::{ToJson, Value};

pub use heterog_strategies::evaluate;

/// Re-export for bins.
pub use heterog_compile::Strategy;

/// Experiment-entrypoint initialization: turns telemetry on when
/// `HETEROG_TELEMETRY` is set (so any `exp_*` bin can capture counters
/// without a code change) and leaves the zero-overhead no-op recorder in
/// place otherwise. Call first in every experiment `main`.
pub fn bench_init() {
    heterog_telemetry::enable_from_env();
}

/// The eight standard model configurations of Table 1 (8 GPUs).
pub fn table1_models_8gpu() -> Vec<ModelSpec> {
    vec![
        ModelSpec::new(BenchmarkModel::Vgg19, 192),
        ModelSpec::new(BenchmarkModel::ResNet200, 192),
        ModelSpec::new(BenchmarkModel::InceptionV3, 192),
        ModelSpec::new(BenchmarkModel::MobileNetV2, 192),
        ModelSpec::new(BenchmarkModel::NasNet, 192),
        ModelSpec::with_layers(BenchmarkModel::Transformer, 720, 6),
        ModelSpec::with_layers(BenchmarkModel::BertLarge, 48, 24),
        ModelSpec::with_layers(BenchmarkModel::XlnetLarge, 48, 24),
    ]
}

/// The six large-model configurations of Table 1's lower half / Table 3.
pub fn large_models_8gpu() -> Vec<ModelSpec> {
    vec![
        ModelSpec::new(BenchmarkModel::ResNet200, 384),
        ModelSpec::with_layers(BenchmarkModel::Transformer, 120, 24),
        ModelSpec::with_layers(BenchmarkModel::BertLarge, 96, 24),
        ModelSpec::with_layers(BenchmarkModel::XlnetLarge, 96, 24),
        ModelSpec::with_layers(BenchmarkModel::BertLarge, 24, 48),
        ModelSpec::with_layers(BenchmarkModel::XlnetLarge, 24, 48),
    ]
}

/// Table 4's 12-GPU configurations (global batch x1.5).
pub fn table4_models_12gpu() -> Vec<ModelSpec> {
    vec![
        ModelSpec::new(BenchmarkModel::Vgg19, 288),
        ModelSpec::new(BenchmarkModel::ResNet200, 288),
        ModelSpec::new(BenchmarkModel::InceptionV3, 288),
        ModelSpec::new(BenchmarkModel::MobileNetV2, 288),
        ModelSpec::new(BenchmarkModel::NasNet, 288),
        ModelSpec::with_layers(BenchmarkModel::Transformer, 1080, 6),
        ModelSpec::with_layers(BenchmarkModel::BertLarge, 72, 24),
        ModelSpec::with_layers(BenchmarkModel::XlnetLarge, 72, 24),
    ]
}

/// Table 4's large-model rows.
pub fn large_models_12gpu() -> Vec<ModelSpec> {
    vec![
        ModelSpec::new(BenchmarkModel::ResNet200, 576),
        ModelSpec::with_layers(BenchmarkModel::Transformer, 180, 24),
        ModelSpec::with_layers(BenchmarkModel::BertLarge, 144, 24),
        ModelSpec::with_layers(BenchmarkModel::XlnetLarge, 144, 24),
        ModelSpec::with_layers(BenchmarkModel::BertLarge, 36, 48),
        ModelSpec::with_layers(BenchmarkModel::XlnetLarge, 36, 48),
    ]
}

/// The default HeteroG planner used across the table experiments.
pub fn heterog_planner() -> HeteroGPlanner {
    HeteroGPlanner {
        groups: 48,
        passes: 2,
        allow_mp: true,
    }
}

/// Profiles `graph` on `cluster` and returns the fitted cost model the
/// planners consume (the evaluation always uses the ground truth).
pub fn fitted_costs(graph: &Graph, cluster: &Cluster) -> CostModel {
    Profiler::default().profile(&[graph], cluster)
}

/// Plans with `planner` on fitted costs, evaluates on ground truth.
pub fn plan_and_measure(
    planner: &dyn Planner,
    graph: &Graph,
    cluster: &Cluster,
    fitted: &CostModel,
    order: &OrderPolicy,
) -> Evaluation {
    let strategy = planner.plan(graph, cluster, fitted);
    evaluate_with_policy(graph, cluster, &GroundTruthCost, &strategy, order)
}

/// One row of a per-iteration-time table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Model label (paper style).
    pub model: String,
    /// Per-planner iteration time in seconds; `None` = OOM.
    pub times: BTreeMap<String, Option<f64>>,
}

impl ToJson for Row {
    fn to_value(&self) -> Value {
        Value::object([
            ("model", self.model.to_value()),
            ("times", self.times.to_value()),
        ])
    }
}

impl Row {
    /// Speed-up of `planner` relative to `reference` in the paper's
    /// convention: `(t_planner - t_ref) / t_ref * 100%` where `t_ref`
    /// is HeteroG's time (i.e. how much slower the baseline is).
    pub fn speedup_pct(&self, reference: &str, planner: &str) -> Option<f64> {
        let r = (*self.times.get(reference)?)?;
        let p = (*self.times.get(planner)?)?;
        Some((p - r) / r * 100.0)
    }
}

/// Formats rows as an aligned text table with per-baseline speed-ups
/// versus the `reference` column (the paper's Table 1/4 layout).
pub fn format_speedup_table(rows: &[Row], reference: &str, planners: &[&str]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<34}", "Model (batch size)"));
    out.push_str(&format!("{:>10}", reference));
    for p in planners {
        if *p != reference {
            out.push_str(&format!("{:>22}", format!("{p}/Speedup")));
        }
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<34}", row.model));
        match row.times.get(reference).copied().flatten() {
            Some(t) => out.push_str(&format!("{t:>10.3}")),
            None => out.push_str(&format!("{:>10}", "OOM")),
        }
        for p in planners {
            if *p == reference {
                continue;
            }
            match row.times.get(*p).copied().flatten() {
                Some(t) => {
                    let sp = row
                        .speedup_pct(reference, p)
                        .map(|s| format!("{t:.3} / {s:.1}%"))
                        .unwrap_or_else(|| format!("{t:.3} / -"));
                    out.push_str(&format!("{sp:>22}"));
                }
                None => out.push_str(&format!("{:>22}", "OOM / -")),
            }
        }
        out.push('\n');
    }
    out
}

/// Writes `value` as pretty JSON to `path`. A failed write exits the
/// process nonzero naming the path, so a gate reading the file never
/// sees a stale copy.
pub fn write_json(path: &Path, value: &Value) {
    if let Err(e) = std::fs::write(path, value.to_string_pretty()) {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("(results written to {})", path.display());
}

/// `x` rounded to `decimals` places, as `format!("{x:.decimals$}")`
/// prints it: artifact numbers keep their printed precision.
pub fn round_to(x: f64, decimals: usize) -> f64 {
    format!("{x:.decimals$}").parse().unwrap_or(x)
}

/// Writes a result as pretty JSON to `results/<name>.json` (relative to
/// the workspace root when run via `cargo run`).
pub fn write_results<T: ToJson + ?Sized>(name: &str, value: &T) {
    let dir = Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    write_json(&dir.join(format!("{name}.json")), &value.to_value());
    // When telemetry is recording, drop the counter/span snapshot next
    // to the result so BENCH_*.json entries carry counters, not just
    // times.
    if heterog_telemetry::enabled() {
        let snap = heterog_telemetry::snapshot();
        let tpath = dir.join(format!("{name}.telemetry.json"));
        if let Err(e) = std::fs::write(&tpath, snap.to_value().to_string_pretty()) {
            eprintln!("warning: could not write {}: {e}", tpath.display());
        } else {
            eprintln!("(telemetry snapshot written to {})", tpath.display());
        }
    }
}

/// Ground-truth evaluation of a fixed strategy (for baselines that don't
/// need a fitted model).
pub fn measure_strategy(
    graph: &Graph,
    cluster: &Cluster,
    strategy: &Strategy,
    order: &OrderPolicy,
) -> Evaluation {
    evaluate_with_policy(graph, cluster, &GroundTruthCost, strategy, order)
}

/// Convenience: evaluation of a named baseline under rank order.
pub fn measure_baseline(
    name: &'static str,
    graph: &Graph,
    cluster: &Cluster,
    fitted: &CostModel,
) -> Evaluation {
    plan_and_measure(
        HeterogConfig::baseline(name).planner.as_ref(),
        graph,
        cluster,
        fitted,
        &OrderPolicy::RankBased,
    )
}

/// `Some(time)` when feasible, `None` on OOM — table-cell convention.
pub fn cell(e: &Evaluation) -> Option<f64> {
    if e.oom {
        None
    } else {
        Some(e.iteration_time)
    }
}

/// Pretty seconds.
pub fn fmt_s(x: f64) -> String {
    format!("{x:.3}s")
}
