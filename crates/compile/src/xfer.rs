//! Transfer emission: one task per path segment, occupied concurrently
//! (cut-through through the switch — see `heterog-cluster`'s link model).

use heterog_cluster::{Cluster, DeviceId, LinkKind};
use heterog_graph::{OpId, OpKind};
use heterog_profile::CostEstimator;
use heterog_sched::{Proc, Tag, Task, TaskId, TaskName};

use crate::lower::TaskSink;

static TRANSFER_TASKS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_transfer_tasks_total",
    "Link-segment transfer tasks emitted",
);
static BYTES_NVLINK: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_bytes_nvlink_total",
    "Bytes routed over NVLink segments",
);
static BYTES_PCIE: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_bytes_pcie_total",
    "Bytes routed over PCIe segments",
);
static BYTES_NIC: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_bytes_nic_total",
    "Bytes routed over NIC (cross-server) segments",
);

fn record_link_bytes(kind: LinkKind, bytes: u64) {
    TRANSFER_TASKS.inc();
    match kind {
        LinkKind::NvLink => BYTES_NVLINK.add(bytes),
        LinkKind::Pcie => BYTES_PCIE.add(bytes),
        LinkKind::NicOut | LinkKind::NicIn => BYTES_NIC.add(bytes),
    }
}

/// Emits the link tasks for a `from -> to` transfer of `bytes`.
///
/// Returns the created tasks (empty when `from == to`). Each path
/// segment gets a task of the segment's own transfer duration; segments
/// are *not* chained — they overlap as a cut-through stream — so callers
/// must make the producer feed every returned task and the consumer wait
/// on every returned task.
///
/// Segment names render as `"{op}/{tag}@{label}"` but are stored as
/// indices ([`TaskName::OnLink`]): no `format!` and no refcount per
/// segment on the compile hot path.
#[allow(clippy::too_many_arguments)]
pub fn emit_transfer<C: CostEstimator>(
    tg: &mut impl TaskSink,
    cluster: &Cluster,
    cost: &C,
    op: OpId,
    tag: Tag,
    from: DeviceId,
    to: DeviceId,
    bytes: u64,
) -> Vec<TaskId> {
    if from == to {
        return Vec::new();
    }
    let path = cluster.path_between(from, to).expect("mesh path");
    path.iter()
        .map(|&lid| {
            let link = cluster.link(lid);
            record_link_bytes(link.kind, bytes);
            tg.add_task(
                Task::new(
                    TaskName::OnLink { op, tag },
                    OpKind::Transfer,
                    Proc::Link(lid.0),
                    cost.transfer_time(link, bytes),
                )
                .with_bytes(bytes),
            )
        })
        .collect()
}

/// Emits a transfer wired between a producer and a consumer task:
/// `producer -> [segments] -> consumer`, or a direct dependency when the
/// devices coincide.
#[allow(clippy::too_many_arguments)]
pub fn connect_via_transfer<C: CostEstimator>(
    tg: &mut impl TaskSink,
    cluster: &Cluster,
    cost: &C,
    op: OpId,
    tag: Tag,
    producer: TaskId,
    consumer: TaskId,
    from: DeviceId,
    to: DeviceId,
    bytes: u64,
) {
    let segs = emit_transfer(tg, cluster, cost, op, tag, from, to, bytes);
    if segs.is_empty() {
        tg.add_dep(producer, consumer);
        return;
    }
    for s in segs {
        tg.add_dep(producer, s);
        tg.add_dep(s, consumer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_profile::GroundTruthCost;
    use heterog_sched::{list_schedule, OrderPolicy, TaskGraph};

    const X: OpId = OpId(0);

    #[test]
    fn same_device_transfer_is_empty() {
        let c = paper_testbed_8gpu();
        let mut tg = TaskGraph::new("t", 8, c.num_links() as u32);
        let segs = emit_transfer(
            &mut tg,
            &c,
            &GroundTruthCost,
            X,
            Tag::Xfer,
            DeviceId(0),
            DeviceId(0),
            1 << 20,
        );
        assert!(segs.is_empty());
        assert_eq!(tg.len(), 0);
    }

    #[test]
    fn intra_server_transfer_is_one_segment() {
        let c = paper_testbed_8gpu();
        let mut tg = TaskGraph::new("t", 8, c.num_links() as u32);
        let segs = emit_transfer(
            &mut tg,
            &c,
            &GroundTruthCost,
            X,
            Tag::Xfer,
            DeviceId(0),
            DeviceId(1),
            1 << 20,
        );
        assert_eq!(segs.len(), 1);
        // The index name renders exactly like the old eager format.
        tg.set_names(std::sync::Arc::new(heterog_sched::NameTable::new(
            vec!["x".into()],
            c.links().iter().map(|l| l.label.clone()).collect(),
        )));
        assert_eq!(
            tg.task_name(segs[0]).to_string(),
            format!(
                "x/xfer@{}",
                c.link(c.path_between(DeviceId(0), DeviceId(1)).unwrap()[0])
                    .label
            )
        );
    }

    #[test]
    fn cross_server_transfer_occupies_two_nics_concurrently() {
        let c = paper_testbed_8gpu();
        let cost = GroundTruthCost;
        let mut tg = TaskGraph::new("t", 8, c.num_links() as u32);
        let src = tg.add_task(Task::new("p", OpKind::NoOp, Proc::Gpu(0), 0.0));
        let dst = tg.add_task(Task::new("c", OpKind::NoOp, Proc::Gpu(2), 0.0));
        connect_via_transfer(
            &mut tg,
            &c,
            &cost,
            X,
            Tag::Xfer,
            src,
            dst,
            DeviceId(0),
            DeviceId(2),
            53 << 20,
        );
        assert_eq!(tg.len(), 4);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        // End-to-end governed by the slower (50GbE) NIC, not the sum.
        let slow = (53u64 << 20) as f64 / 5.3e9;
        assert!(
            s.makespan < 1.3 * slow,
            "cut-through expected: {} vs {slow}",
            s.makespan
        );
        assert!(s.makespan > 0.9 * slow);
    }

    #[test]
    fn fan_in_to_one_server_serializes_on_its_ingress_nic() {
        // The PS bottleneck of §2.3: six cross-server senders into one
        // box take ~6x one transfer.
        let c = paper_testbed_8gpu();
        let cost = GroundTruthCost;
        let mut tg = TaskGraph::new("t", 8, c.num_links() as u32);
        let dst_dev = DeviceId(0);
        let sink = tg.add_task(Task::new("sink", OpKind::NoOp, Proc::Gpu(0), 0.0));

        for i in 2..8 {
            let p = tg.add_task(Task::new("src", OpKind::NoOp, Proc::Gpu(i), 0.0));
            connect_via_transfer(
                &mut tg,
                &c,
                &cost,
                X,
                Tag::Xfer,
                p,
                sink,
                DeviceId(i),
                dst_dev,
                105 << 20,
            );
        }
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let one = (105u64 << 20) as f64 / 10.5e9; // dst NIC is 100GbE
        assert!(
            s.makespan > 5.5 * one,
            "expected ingress serialization ~6x{one:.3}, got {}",
            s.makespan
        );
    }
}
