//! # heterog-explain
//!
//! Explainability layer: turns a simulated deployment (`TaskGraph` +
//! `Schedule` + `SimReport`) into an attributable, diffable artifact —
//! the [`ExplainReport`]:
//!
//! * **Simulated critical path** ([`path`]) — the chain of justifying
//!   events through actual start/finish times, with per-task slack;
//!   segment durations plus idle gaps tile `[0, makespan]` exactly.
//! * **Makespan attribution & stragglers** ([`attribution`]) —
//!   compute/collective/transfer/idle seconds per device and per link,
//!   plus which GPU model or link class gates the step and how well the
//!   strategy's replicas fit the hardware.
//! * **What-if sensitivity** ([`whatif`]) — re-simulation under
//!   perturbed clusters/strategies, ranked by predicted makespan delta.
//! * **Run-diff** ([`diff`](mod@diff)) — regression/improvement comparison of two
//!   reports, including ones reloaded from JSON artifacts.
//! * **Rendering** ([`render`]) — terminal table, JSON, and a
//!   self-contained HTML report embedding the Chrome-trace timeline.
//!
//! The entry point is [`explain`]; `heterog`'s `DistRunner::explain`
//! and `heterog-cli explain` wrap it.

use heterog_cluster::Cluster;
use heterog_compile::Strategy;
use heterog_graph::Graph;
use heterog_profile::GroundTruthCost;
use heterog_sched::{OrderPolicy, TaskGraph};
use heterog_sim::SimReport;
use heterog_strategies::{EvalStats, IncrementalEvaluator};
use heterog_telemetry::{Counter, Gauge, Histogram};

pub mod attribution;
pub mod diff;
pub mod path;
pub mod render;
pub mod whatif;

pub use attribution::{
    attribute, collective_breakdown, device_rows, stragglers, Attribution, CollectiveBreakdown,
    DeviceRow, LinkClassRow, ModelClassRow, StragglerReport, StrategyMix,
};
pub use diff::{
    diff, digest_from_json, quick_digest, render_diff_text, DiffEntry, ExplainDiff, ReportDigest,
};
pub use path::{critical_path, segment_kind, CriticalPath, PathEdge, PathSegment, SegmentKind};
pub use render::{html_esc, render_html, render_text, to_json};
pub use whatif::{
    default_interventions, run_whatif, run_whatif_with, strategy_without_device, switch_comm,
    Intervention, WhatIfOutcome,
};

static EXPLAIN_REPORTS: Counter =
    Counter::new("heterog_explain_reports_total", "Explain reports generated");
pub(crate) static WHATIF_SIMULATIONS: Counter = Counter::new(
    "heterog_explain_whatif_simulations_total",
    "What-if perturbation simulations run",
);
pub(crate) static WHATIF_SECONDS: Histogram = Histogram::new(
    "heterog_explain_whatif_seconds",
    "Wall time of one what-if compile+simulate",
);
static CRITICAL_PATH_TASKS: Gauge = Gauge::new(
    "heterog_explain_critical_path_tasks",
    "Segments on the most recent simulated critical path",
);
pub(crate) static BEST_WHATIF_DELTA: Gauge = Gauge::new(
    "heterog_explain_best_whatif_delta_seconds",
    "Predicted makespan improvement of the best-ranked intervention",
);

/// Knobs for [`explain`].
#[derive(Debug, Clone)]
pub struct ExplainOptions {
    /// How many ranked what-if interventions to keep.
    pub top_k: usize,
    /// Whether to run the what-if sensitivity loop, over the
    /// deployment's [`default_interventions`], at all.
    pub run_whatif: bool,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        ExplainOptions {
            top_k: 5,
            run_whatif: true,
        }
    }
}

/// The full explainability artifact for one simulated deployment.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Model (graph) name.
    pub model: String,
    /// Global mini-batch size.
    pub batch_size: u64,
    /// GPUs in the deployment.
    pub num_gpus: u32,
    /// Link processors in the deployment.
    pub num_links: u32,
    /// Per-iteration time, seconds.
    pub makespan: f64,
    /// (computation + communication) / makespan (§6.7).
    pub overlap_ratio: f64,
    /// Mean GPU utilization (0..1).
    pub mean_gpu_utilization: f64,
    /// Whether any device overflows its memory.
    pub oom: bool,
    /// The simulated critical path.
    pub critical_path: CriticalPath,
    /// Where the makespan goes.
    pub attribution: Attribution,
    /// Link seconds by collective flavour (whole graph, not just the
    /// critical path) — how much wire time the strategy's all-reduces,
    /// all-gathers, and reduce-scatters cost.
    pub collectives: CollectiveBreakdown,
    /// Per-device breakdown.
    pub devices: Vec<DeviceRow>,
    /// Straggler / imbalance analysis.
    pub stragglers: StragglerReport,
    /// Ranked what-if outcomes (empty when disabled).
    pub whatif: Vec<WhatIfOutcome>,
    /// Planner-loop health for the footer: the run's own counts
    /// ([`heterog_strategies::run_eval_stats`]), always on.
    pub eval_stats: EvalStats,
}

impl ExplainReport {
    /// The diffable scalar subset, for [`diff()`].
    pub fn digest(&self) -> ReportDigest {
        ReportDigest {
            model: self.model.clone(),
            makespan: self.makespan,
            compute: self.attribution.compute,
            collective: self.attribution.collective,
            transfer: self.attribution.transfer,
            idle: self.attribution.idle,
            mean_gpu_utilization: self.mean_gpu_utilization,
            device_utilization: self.devices.iter().map(|d| d.utilization).collect(),
            oom: self.oom,
        }
    }
}

/// Builds the [`ExplainReport`] for one simulated deployment.
///
/// `task_graph` must be `compile(graph, cluster, &GroundTruthCost,
/// strategy)` and `report` its simulation under `policy`, task times
/// included: the critical path walks them, and the what-if evaluator
/// anchors on both ([`IncrementalEvaluator::anchored`]), so no base
/// deployment is compiled or simulated again. `graph`/`strategy` let
/// what-if interventions re-lower under perturbed clusters and
/// strategies, and tie imbalance findings back to the strategy that
/// placed the work.
pub fn explain(
    graph: &Graph,
    cluster: &Cluster,
    strategy: &Strategy,
    task_graph: &TaskGraph,
    policy: &OrderPolicy,
    report: &SimReport,
    opts: &ExplainOptions,
) -> ExplainReport {
    let _span = heterog_telemetry::span("explain");
    let cp = critical_path(task_graph, &report.schedule);
    let attr = attribute(
        &cp,
        task_graph.num_gpus as usize,
        task_graph.num_links as usize,
    );
    let devices = device_rows(cluster, report, &attr);
    let stragglers = stragglers(cluster, strategy, report, &attr, &devices);
    let whatif = if opts.run_whatif {
        let _span = heterog_telemetry::span("explain.whatif");
        let cost = &GroundTruthCost;
        let evaluator = IncrementalEvaluator::anchored(
            graph, cost, cluster, strategy, policy, task_graph, report,
        );
        whatif::rank_interventions(
            graph,
            cluster,
            strategy,
            policy,
            report.iteration_time,
            &default_interventions(cluster, strategy),
            opts.top_k,
            Some(&evaluator),
        )
    } else {
        Vec::new()
    };

    EXPLAIN_REPORTS.inc();
    CRITICAL_PATH_TASKS.set(cp.len() as f64);

    ExplainReport {
        model: graph.name.clone(),
        batch_size: graph.batch_size,
        num_gpus: task_graph.num_gpus,
        num_links: task_graph.num_links,
        makespan: report.iteration_time,
        overlap_ratio: report.overlap_ratio(),
        mean_gpu_utilization: report.mean_gpu_utilization(),
        oom: report.memory.any_oom(),
        critical_path: cp,
        attribution: attr,
        collectives: collective_breakdown(task_graph),
        devices,
        stragglers,
        whatif,
        eval_stats: heterog_strategies::run_eval_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_compile::{compile, CommMethod};
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;
    use heterog_sim::simulate;

    fn small_deployment() -> ExplainReport {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::Ps);
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        let policy = OrderPolicy::RankBased;
        let r = simulate(&tg, &c.memory_capacities(), &policy);
        explain(&g, &c, &s, &tg, &policy, &r, &ExplainOptions::default())
    }

    #[test]
    fn report_is_internally_consistent() {
        let rep = small_deployment();
        assert!(rep.makespan > 0.0);
        // Critical path tiles the makespan; attribution re-buckets it.
        assert!((rep.critical_path.coverage() - rep.makespan).abs() < 1e-9 * rep.makespan.max(1.0));
        assert!((rep.attribution.total() - rep.makespan).abs() < 1e-9 * rep.makespan.max(1.0));
        assert_eq!(rep.devices.len(), 8);
        // Critical seconds on a device never exceed its busy time.
        for d in &rep.devices {
            assert!(d.critical_s <= d.busy + 1e-12);
        }
    }

    #[test]
    fn whatif_produces_ranked_nonzero_deltas() {
        let rep = small_deployment();
        assert!(!rep.whatif.is_empty());
        for w in rep.whatif.windows(2) {
            assert!(w[0].delta >= w[1].delta);
        }
        assert!(
            rep.whatif.iter().any(|w| w.delta.abs() > 0.0),
            "at least one intervention must move the makespan"
        );
    }

    #[test]
    fn shard_plan_report_attributes_gather_and_scatter_time() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let s = Strategy::uniform(
            g.len(),
            heterog_compile::OpStrategy::shard_proportional(&c, 0),
        );
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        let policy = OrderPolicy::RankBased;
        let r = simulate(&tg, &c.memory_capacities(), &policy);
        let opts = ExplainOptions {
            run_whatif: false,
            ..ExplainOptions::default()
        };
        let rep = explain(&g, &c, &s, &tg, &policy, &r, &opts);
        assert!(
            rep.collectives.all_gather_s > 0.0,
            "sharded forward boundaries must cost all-gather wire time"
        );
        assert!(
            rep.collectives.reduce_scatter_s > 0.0,
            "sharded backward boundaries must cost reduce-scatter wire time"
        );
        assert_eq!(rep.collectives.all_reduce_s, 0.0);
        assert_eq!(rep.stragglers.strategy_mix.shard, g.len());
        assert_eq!(rep.stragglers.strategy_mix.other_dp, 0);
    }

    #[test]
    fn self_digest_diff_is_clean() {
        let rep = small_deployment();
        let d = diff(&rep.digest(), &rep.digest());
        assert!(d.is_clean());
        assert!(d.improvements.is_empty());
    }

    #[test]
    fn whatif_can_be_disabled() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        let policy = OrderPolicy::RankBased;
        let r = simulate(&tg, &c.memory_capacities(), &policy);
        let opts = ExplainOptions {
            run_whatif: false,
            ..ExplainOptions::default()
        };
        let rep = explain(&g, &c, &s, &tg, &policy, &r, &opts);
        assert!(rep.whatif.is_empty());
    }
}
