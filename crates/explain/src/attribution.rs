//! Makespan attribution and heterogeneity-aware straggler detection.
//!
//! Attribution buckets the simulated critical path into
//! compute/collective/transfer/idle seconds — answering *what* the
//! iteration time is spent on — and splits the same seconds per device
//! and per link — answering *where*. Straggler detection then ties the
//! gating processor back to hardware classes (GPU model, link kind) and
//! to the strategy that placed work there, which is the paper's framing:
//! heterogeneity-oblivious plans stall on the slow GPU class or on a
//! parameter server's NIC (§2.3).

use std::collections::BTreeMap;

use heterog_cluster::{Cluster, DeviceId};
use heterog_compile::Strategy;
use heterog_graph::OpKind;
use heterog_sched::{Proc, TaskGraph};
use heterog_sim::SimReport;

use crate::path::{CriticalPath, SegmentKind};

/// Critical-path seconds bucketed by activity and by location.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// GPU math on the critical path, seconds.
    pub compute: f64,
    /// Gradient aggregation (all-reduce slots, PS-side aggregation) on
    /// the critical path, seconds.
    pub collective: f64,
    /// Point-to-point transfers on the critical path, seconds.
    pub transfer: f64,
    /// Idle gaps along the critical path, seconds.
    pub idle: f64,
    /// Critical-path seconds per GPU (index = device id).
    pub per_device: Vec<f64>,
    /// Critical-path seconds per link processor (index = link id).
    pub per_link: Vec<f64>,
}

impl Attribution {
    /// Buckets in display order with their labels.
    pub fn buckets(&self) -> [(&'static str, f64); 4] {
        [
            ("compute", self.compute),
            ("collective", self.collective),
            ("transfer", self.transfer),
            ("idle", self.idle),
        ]
    }

    /// Sum of the four buckets — equals the makespan by construction.
    pub fn total(&self) -> f64 {
        self.compute + self.collective + self.transfer + self.idle
    }
}

/// Busy link seconds split by collective flavour, summed over the whole
/// task graph (not just the critical path — a gather off the path still
/// costs link bandwidth and shows up in overlap).
#[derive(Debug, Clone, Default)]
pub struct CollectiveBreakdown {
    /// Ring/hierarchical all-reduce link seconds (DP gradient sync).
    pub all_reduce_s: f64,
    /// All-gather link seconds (sharded forward boundaries).
    pub all_gather_s: f64,
    /// Reduce-scatter link seconds (sharded backward boundaries).
    pub reduce_scatter_s: f64,
}

impl CollectiveBreakdown {
    /// Sum over all three flavours.
    pub fn total(&self) -> f64 {
        self.all_reduce_s + self.all_gather_s + self.reduce_scatter_s
    }
}

/// Sums scheduled link-task durations by collective kind. Zero across
/// the board for plans with no collectives (pure MP, PS-only DP).
pub fn collective_breakdown(tg: &TaskGraph) -> CollectiveBreakdown {
    let mut b = CollectiveBreakdown::default();
    for (_, t) in tg.iter() {
        match t.kind {
            OpKind::NcclAllReduce => b.all_reduce_s += t.duration,
            OpKind::AllGather => b.all_gather_s += t.duration,
            OpKind::ReduceScatter => b.reduce_scatter_s += t.duration,
            _ => {}
        }
    }
    b
}

/// Computes attribution from the critical path.
pub fn attribute(cp: &CriticalPath, num_gpus: usize, num_links: usize) -> Attribution {
    let mut a = Attribution {
        idle: cp.total_idle,
        per_device: vec![0.0; num_gpus],
        per_link: vec![0.0; num_links],
        ..Attribution::default()
    };
    for seg in &cp.segments {
        match seg.kind {
            SegmentKind::Compute => a.compute += seg.duration,
            SegmentKind::Collective => a.collective += seg.duration,
            SegmentKind::Transfer => a.transfer += seg.duration,
        }
        match seg.proc {
            Proc::Gpu(g) => a.per_device[g as usize] += seg.duration,
            Proc::Link(l) => a.per_link[l as usize] += seg.duration,
        }
    }
    a
}

/// One GPU's share of the iteration.
#[derive(Debug, Clone)]
pub struct DeviceRow {
    /// Device id.
    pub id: u32,
    /// Hardware model name.
    pub model: String,
    /// Hosting server index.
    pub server: u32,
    /// Busy seconds.
    pub busy: f64,
    /// Busy / makespan.
    pub utilization: f64,
    /// Critical-path seconds on this device.
    pub critical_s: f64,
    /// Peak memory, bytes.
    pub peak_mem_bytes: u64,
    /// Whether this device overflowed its memory.
    pub oom: bool,
}

/// Aggregate over all links of one physical kind.
#[derive(Debug, Clone)]
pub struct LinkClassRow {
    /// Link kind label (`NvLink`, `Pcie`, `NicOut`, `NicIn`).
    pub kind: String,
    /// Number of link processors of this kind.
    pub count: usize,
    /// Total busy seconds across the class.
    pub busy: f64,
    /// Critical-path seconds across the class.
    pub critical_s: f64,
}

/// Aggregate over all devices of one GPU model.
#[derive(Debug, Clone)]
pub struct ModelClassRow {
    /// GPU model name.
    pub model: String,
    /// Number of devices of this model.
    pub count: usize,
    /// Mean utilization across the class.
    pub mean_utilization: f64,
    /// Critical-path seconds across the class.
    pub critical_s: f64,
}

/// How the Part-I strategy distributed the graph (mirrors
/// `Strategy::histogram`).
#[derive(Debug, Clone, Default)]
pub struct StrategyMix {
    /// Model-parallel (single-placement) ops.
    pub mp: usize,
    /// Even-replica data parallelism with a parameter server.
    pub ev_ps: usize,
    /// Even-replica data parallelism with all-reduce.
    pub ev_ar: usize,
    /// Power-proportional data parallelism with a parameter server.
    pub cp_ps: usize,
    /// Power-proportional data parallelism with all-reduce.
    pub cp_ar: usize,
    /// Data-parallel ops with a custom replica vector.
    pub other_dp: usize,
    /// SPMD-sharded ops (`OpStrategy::Shard`).
    pub shard: usize,
}

/// Which hardware gates the step, and how balanced the plan is.
#[derive(Debug, Clone, Default)]
pub struct StragglerReport {
    /// Device carrying the most critical-path seconds.
    pub gating_device: Option<u32>,
    /// GPU model class carrying the most critical-path seconds.
    pub gating_model: Option<String>,
    /// Link class carrying the most critical-path seconds (None when no
    /// link appears on the critical path).
    pub gating_link_class: Option<String>,
    /// Per-model aggregates.
    pub model_classes: Vec<ModelClassRow>,
    /// Per-link-kind aggregates.
    pub link_classes: Vec<LinkClassRow>,
    /// Busy-time spread across active GPUs:
    /// `(max busy - min busy) / max busy`; 0 = perfectly balanced
    /// replicas, 1 = some active GPU idles the whole step away.
    pub replica_imbalance: f64,
    /// Human-readable reading of the imbalance.
    pub imbalance_note: String,
    /// What the strategy placed where.
    pub strategy_mix: StrategyMix,
}

/// Builds per-device rows from the simulation report and attribution.
pub fn device_rows(cluster: &Cluster, report: &SimReport, attr: &Attribution) -> Vec<DeviceRow> {
    let makespan = report.iteration_time;
    cluster
        .device_ids()
        .map(|id| {
            let d = cluster.device(id);
            let g = id.index();
            let busy = report.gpu_busy.get(g).copied().unwrap_or(0.0);
            DeviceRow {
                id: id.0,
                model: d.model.name().to_string(),
                server: d.server,
                busy,
                utilization: if makespan > 0.0 { busy / makespan } else { 0.0 },
                critical_s: attr.per_device.get(g).copied().unwrap_or(0.0),
                peak_mem_bytes: report.memory.peak_bytes.get(g).copied().unwrap_or(0),
                oom: report.memory.oom.get(g).copied().unwrap_or(false),
            }
        })
        .collect()
}

/// Detects stragglers and replica imbalance, tying them back to hardware
/// classes and the placing strategy.
pub fn stragglers(
    cluster: &Cluster,
    strategy: &Strategy,
    report: &SimReport,
    attr: &Attribution,
    devices: &[DeviceRow],
) -> StragglerReport {
    // Per-model aggregates.
    let mut by_model: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for row in devices {
        let e = by_model.entry(cluster.device(DeviceId(row.id)).model.name());
        let (count, util, crit) = e.or_insert((0, 0.0, 0.0));
        *count += 1;
        *util += row.utilization;
        *crit += row.critical_s;
    }
    let model_classes: Vec<ModelClassRow> = by_model
        .into_iter()
        .map(|(model, (count, util, crit))| ModelClassRow {
            model: model.to_string(),
            count,
            mean_utilization: util / count as f64,
            critical_s: crit,
        })
        .collect();

    // Per-link-kind aggregates.
    let mut by_kind: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for link in cluster.links() {
        let busy = report
            .link_busy
            .get(link.id.index())
            .copied()
            .unwrap_or(0.0);
        let crit = attr.per_link.get(link.id.index()).copied().unwrap_or(0.0);
        let e = by_kind.entry(format!("{:?}", link.kind));
        let (count, b, c) = e.or_insert((0, 0.0, 0.0));
        *count += 1;
        *b += busy;
        *c += crit;
    }
    let link_classes: Vec<LinkClassRow> = by_kind
        .into_iter()
        .map(|(kind, (count, busy, critical_s))| LinkClassRow {
            kind,
            count,
            busy,
            critical_s,
        })
        .collect();

    let gating_device = devices
        .iter()
        .filter(|r| r.critical_s > 0.0)
        .max_by(|a, b| a.critical_s.total_cmp(&b.critical_s))
        .map(|r| r.id);
    let gating_model = model_classes
        .iter()
        .filter(|m| m.critical_s > 0.0)
        .max_by(|a, b| a.critical_s.total_cmp(&b.critical_s))
        .map(|m| m.model.clone());
    let gating_link_class = link_classes
        .iter()
        .filter(|l| l.critical_s > 0.0)
        .max_by(|a, b| a.critical_s.total_cmp(&b.critical_s))
        .map(|l| l.kind.clone());

    // Replica balance: under a well-fitted heterogeneous plan every
    // *active* GPU is busy for about the same wall time (fast GPUs take
    // proportionally more samples). A large spread means replicas are
    // sized against the hardware — e.g. even replicas on a 2:1 cluster.
    let active: Vec<&DeviceRow> = devices.iter().filter(|r| r.busy > 0.0).collect();
    let max_busy = active.iter().map(|r| r.busy).fold(0.0, f64::max);
    let min_busy = active.iter().map(|r| r.busy).fold(f64::INFINITY, f64::min);
    let replica_imbalance = if active.is_empty() || max_busy <= 0.0 {
        0.0
    } else {
        (max_busy - min_busy) / max_busy
    };
    let imbalance_note = if active.is_empty() {
        "no active GPUs".to_string()
    } else if replica_imbalance < 0.1 {
        "replicas well matched to device speeds".to_string()
    } else {
        let slow = active
            .iter()
            .max_by(|a, b| a.busy.total_cmp(&b.busy))
            .expect("non-empty");
        format!(
            "G{} ({}) is busy {:.0}% longer than the least-loaded active GPU",
            slow.id,
            slow.model,
            100.0 * (max_busy - min_busy) / min_busy.max(f64::MIN_POSITIVE)
        )
    };

    let (mp, dp) = strategy.histogram(cluster);
    let strategy_mix = StrategyMix {
        mp: mp.iter().sum(),
        ev_ps: dp[0],
        ev_ar: dp[1],
        cp_ps: dp[2],
        cp_ar: dp[3],
        other_dp: dp[4],
        shard: dp[5],
    };

    StragglerReport {
        gating_device,
        gating_model,
        gating_link_class,
        model_classes,
        link_classes,
        replica_imbalance,
        imbalance_note,
        strategy_mix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::critical_path;
    use heterog_graph::OpKind;
    use heterog_sched::{list_schedule, OrderPolicy, Task, TaskGraph, TaskGraphBuilder};

    fn demo() -> (TaskGraph, heterog_sched::Schedule) {
        let mut tg = TaskGraphBuilder::new("demo", 2, 1);
        let a = tg.add_task(Task::new("a", OpKind::Conv2D, Proc::Gpu(0), 1.0));
        let x = tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5));
        let b = tg.add_task(Task::new("b", OpKind::Conv2D, Proc::Gpu(1), 1.0));
        tg.add_dep(a, x);
        tg.add_dep(x, b);
        let tg = tg.finish();
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        (tg, s)
    }

    #[test]
    fn buckets_sum_to_makespan() {
        let (tg, s) = demo();
        let cp = critical_path(&tg, &s);
        let a = attribute(&cp, 2, 1);
        assert!((a.total() - s.makespan).abs() < 1e-12);
        assert!((a.compute - 2.0).abs() < 1e-12);
        assert!((a.transfer - 0.5).abs() < 1e-12);
        assert_eq!(a.collective, 0.0);
    }

    #[test]
    fn collective_breakdown_splits_by_kind() {
        let mut tg = TaskGraphBuilder::new("coll", 2, 3);
        tg.add_task(Task::new("ar", OpKind::NcclAllReduce, Proc::Link(0), 0.25));
        tg.add_task(Task::new("ag", OpKind::AllGather, Proc::Link(1), 0.5));
        tg.add_task(Task::new("rs", OpKind::ReduceScatter, Proc::Link(2), 0.125));
        tg.add_task(Task::new("c", OpKind::Conv2D, Proc::Gpu(0), 9.0));
        let tg = tg.finish();
        let b = collective_breakdown(&tg);
        assert!((b.all_reduce_s - 0.25).abs() < 1e-12);
        assert!((b.all_gather_s - 0.5).abs() < 1e-12);
        assert!((b.reduce_scatter_s - 0.125).abs() < 1e-12);
        assert!((b.total() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn per_location_split_matches_buckets() {
        let (tg, s) = demo();
        let cp = critical_path(&tg, &s);
        let a = attribute(&cp, 2, 1);
        let located: f64 = a.per_device.iter().sum::<f64>() + a.per_link.iter().sum::<f64>();
        assert!((located + a.idle - s.makespan).abs() < 1e-12);
        assert!((a.per_device[0] - 1.0).abs() < 1e-12);
        assert!((a.per_device[1] - 1.0).abs() < 1e-12);
        assert!((a.per_link[0] - 0.5).abs() < 1e-12);
    }
}
