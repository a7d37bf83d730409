//! Gradient-aggregation lowering: PS push/pull and AllReduce (ring or
//! hierarchical) expansion into link-occupancy tasks.

use heterog_cluster::{Cluster, DeviceId};
use heterog_graph::{Node, OpId, OpKind, Phase, TensorMeta};
use heterog_profile::{path_time, CostEstimator};
use heterog_sched::{Proc, Tag, Task, TaskId, TaskName};

use crate::lower::TaskSink;
use crate::price::{CollectiveKind, CollectiveRec, PriceBook, PsRound};
use crate::xfer::emit_transfer;

static COLLECTIVES_PS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_collectives_ps_total",
    "Parameter-server aggregation rounds emitted",
);
static COLLECTIVES_RING: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_collectives_ring_total",
    "Ring AllReduce collectives emitted",
);
static COLLECTIVES_HIER: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_collectives_hier_total",
    "Hierarchical AllReduce collectives emitted",
);
static COLLECTIVES_AG: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_collectives_allgather_total",
    "All-gather collectives emitted (SPMD shard boundaries)",
);
static COLLECTIVES_RS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_compile_collectives_reducescatter_total",
    "Reduce-scatter collectives emitted (SPMD shard boundaries)",
);

/// Fraction of raw link bandwidth an NCCL collective sustains across a
/// heterogeneous PCIe/RDMA topology. 2019-era NCCL ring pipelines over
/// mixed NVLink/PCIe/RoCE realize roughly half the slowest hop's line
/// rate (bus utilization), which is precisely why the paper finds
/// AllReduce so costly on many-tensor NLP models (Table 1: BERT EV-AR
/// far slower than EV-PS) while point-to-point RDMA push/pull runs near
/// line rate.
pub const NCCL_BUS_EFFICIENCY: f64 = 0.5;

/// Fixed launch + synchronization overhead per NCCL collective. The
/// paper's §6.2 observation that "AllReduce for different operations
/// cannot be launched simultaneously" makes this per-tensor cost strictly
/// serial — the dominant penalty for models with hundreds of small
/// parameter tensors.
pub const NCCL_LAUNCH_OVERHEAD_S: f64 = 1.0e-3;

/// Estimated completion of a PS round with server `ps`: pushes from
/// every other device (serialized where they share NIC channels), a
/// local reduction, then pulls.
pub fn ps_estimate<C: CostEstimator>(
    cluster: &Cluster,
    cost: &C,
    devices: &[DeviceId],
    ps: DeviceId,
    bytes: u64,
) -> f64 {
    // Fan-in serializes on the PS server's ingress NIC: approximate the
    // push phase as the max single-path time plus the serialized ingress
    // occupancy of the remaining cross-server senders.
    let ps_server = cluster.device(ps).server;
    let mut max_path = 0.0f64;
    let mut ingress_total = 0.0f64;
    let mut egress_like = 0.0f64;
    for &d in devices {
        if d == ps {
            continue;
        }
        let t = path_time(cost, cluster, d, ps, bytes);
        max_path = max_path.max(t);
        if cluster.device(d).server != ps_server {
            ingress_total += t;
        } else {
            egress_like = egress_like.max(t);
        }
    }
    let push = ingress_total.max(max_path).max(egress_like);
    let pull = push; // pulls mirror pushes through the egress NIC
    let reduce = reduce_time(cost, cluster, ps, bytes, devices.len());
    push + reduce + pull
}

/// Tracks the NIC occupancy already committed to parameter-server roles,
/// so successive PS choices spread across servers (classic PS sharding:
/// each variable is served where its aggregation completes earliest
/// *given the traffic already assigned* — §3.4's "minimizes completion
/// time of gradient aggregation" applied greedily per tensor).
#[derive(Debug, Default, PartialEq)]
pub struct PsLoadTracker {
    /// Committed ingress seconds per server NIC.
    ingress: Vec<f64>,
    /// Committed egress seconds per server NIC.
    egress: Vec<f64>,
}

impl Clone for PsLoadTracker {
    fn clone(&self) -> Self {
        PsLoadTracker {
            ingress: self.ingress.clone(),
            egress: self.egress.clone(),
        }
    }

    /// Reuses `self`'s buffers: a splice restores the base's tracker
    /// into its own before a dirty aggregation.
    fn clone_from(&mut self, src: &Self) {
        self.ingress.clone_from(&src.ingress);
        self.egress.clone_from(&src.egress);
    }
}

impl PsLoadTracker {
    /// Tracker for a cluster with `num_servers` servers.
    pub fn new(num_servers: usize) -> Self {
        PsLoadTracker {
            ingress: vec![0.0; num_servers],
            egress: vec![0.0; num_servers],
        }
    }

    /// Empties the tracker for a cluster with `num_servers` servers,
    /// keeping its buffers.
    pub(crate) fn reset(&mut self, num_servers: usize) {
        for v in [&mut self.ingress, &mut self.egress] {
            v.clear();
            v.resize(num_servers, 0.0);
        }
    }

    fn load(&self, server: usize) -> f64 {
        self.ingress[server].max(self.egress[server])
    }

    /// Adds a round's cross-server traffic to its server's NIC.
    pub(crate) fn commit(
        &mut self,
        cluster: &Cluster,
        devices: &[DeviceId],
        ps: DeviceId,
        bytes: u64,
    ) {
        let srv = cluster.device(ps).server as usize;
        let nic = cluster.servers()[srv].nic_bps;
        let cross = devices
            .iter()
            .filter(|&&d| d != ps && cluster.device(d).server as usize != srv)
            .count() as f64;
        self.ingress[srv] += cross * bytes as f64 / nic;
        self.egress[srv] += cross * bytes as f64 / nic;
    }
}

/// The PS device minimizing the estimated aggregation completion
/// including the NIC traffic already committed to earlier tensors
/// (ties: the earliest device), without committing this tensor.
pub fn pick_ps<C: CostEstimator>(
    cluster: &Cluster,
    cost: &C,
    devices: &[DeviceId],
    bytes: u64,
    tracker: &PsLoadTracker,
) -> DeviceId {
    *devices
        .iter()
        .min_by(|&&a, &&b| {
            let ea = ps_estimate(cluster, cost, devices, a, bytes)
                + tracker.load(cluster.device(a).server as usize);
            let eb = ps_estimate(cluster, cost, devices, b, bytes)
                + tracker.load(cluster.device(b).server as usize);
            ea.total_cmp(&eb)
        })
        .expect("at least one device")
}

/// [`pick_ps`], then commits this tensor's traffic to the tracker.
pub fn choose_ps_balanced<C: CostEstimator>(
    cluster: &Cluster,
    cost: &C,
    devices: &[DeviceId],
    bytes: u64,
    tracker: &mut PsLoadTracker,
) -> DeviceId {
    let ps = pick_ps(cluster, cost, devices, bytes, tracker);
    tracker.commit(cluster, devices, ps, bytes);
    ps
}

/// Load-oblivious PS choice (single-tensor view).
pub fn choose_ps<C: CostEstimator>(
    cluster: &Cluster,
    cost: &C,
    devices: &[DeviceId],
    bytes: u64,
) -> DeviceId {
    let mut t = PsLoadTracker::new(cluster.servers().len());
    choose_ps_balanced(cluster, cost, devices, bytes, &mut t)
}

/// Per-chunk wire latency inside a pipelined NCCL ring (the collective
/// does NOT pay the training runtime's per-transfer dispatch cost on
/// every hop — chunks stream inside one kernel; only the per-collective
/// launch overhead applies).
const NCCL_HOP_LATENCY_S: f64 = 10.0e-6;

/// Bottleneck nominal bandwidth along the `a -> b` path.
fn path_bandwidth(cluster: &Cluster, a: DeviceId, b: DeviceId) -> f64 {
    cluster
        .path_between(a, b)
        .expect("mesh path")
        .iter()
        .map(|&l| cluster.link(l).bandwidth_bps)
        .fold(f64::INFINITY, f64::min)
}

/// Ring-AllReduce duration over `devices`: `2(n-1)` pipelined steps of
/// `bytes/n` on the slowest participating hop, at NCCL's sustained bus
/// efficiency, plus the per-collective launch overhead.
pub fn ring_estimate<C: CostEstimator>(
    cluster: &Cluster,
    _cost: &C,
    devices: &[DeviceId],
    bytes: u64,
) -> f64 {
    let n = devices.len();
    if n < 2 {
        return 0.0;
    }
    let chunk = bytes.div_ceil(n as u64) as f64;
    let bw = (0..n)
        .map(|i| path_bandwidth(cluster, devices[i], devices[(i + 1) % n]))
        .fold(f64::INFINITY, f64::min);
    let step = chunk / (bw * NCCL_BUS_EFFICIENCY) + NCCL_HOP_LATENCY_S;
    NCCL_LAUNCH_OVERHEAD_S + 2.0 * (n as f64 - 1.0) * step
}

/// One-pass ring collective duration (all-gather / reduce-scatter):
/// `(n-1)` pipelined steps of `bytes/n` on the slowest participating
/// hop, at NCCL's sustained bus efficiency, plus the launch overhead.
/// An all-gather and a reduce-scatter are duals — each moves every slice
/// past every device exactly once — so one estimate serves both, and a
/// ring AllReduce (= reduce-scatter + all-gather) costs exactly two of
/// these minus one launch.
pub fn one_pass_estimate(cluster: &Cluster, devices: &[DeviceId], bytes: u64) -> f64 {
    let n = devices.len();
    if n < 2 {
        return 0.0;
    }
    let chunk = bytes.div_ceil(n as u64) as f64;
    let bw = (0..n)
        .map(|i| path_bandwidth(cluster, devices[i], devices[(i + 1) % n]))
        .fold(f64::INFINITY, f64::min);
    let step = chunk / (bw * NCCL_BUS_EFFICIENCY) + NCCL_HOP_LATENCY_S;
    NCCL_LAUNCH_OVERHEAD_S + (n as f64 - 1.0) * step
}

/// Hierarchical AllReduce duration: intra-server reduce to a leader,
/// ring over leaders, intra-server broadcast (§3.4's second structure).
/// A server's leader is its first device in `devices`; the leaders are
/// written into `leaders`, in order, so that pricing one allocates
/// nothing once the buffer has grown.
pub fn hierarchical_estimate<C: CostEstimator>(
    cluster: &Cluster,
    cost: &C,
    devices: &[DeviceId],
    bytes: u64,
    leaders: &mut Vec<DeviceId>,
) -> f64 {
    server_leaders_into(cluster, devices, leaders);
    if leaders.len() < 2 {
        // Single server: plain ring is the hierarchy.
        return ring_estimate(cluster, cost, devices, bytes);
    }
    let server = |d: DeviceId| cluster.device(d).server;
    let intra = devices
        .iter()
        .filter_map(|&d| {
            let leader = *leaders.iter().find(|&&l| server(l) == server(d))?;
            (leader != d).then_some((d, leader))
        })
        .map(|(d, leader)| {
            bytes as f64 / (path_bandwidth(cluster, d, leader) * NCCL_BUS_EFFICIENCY)
                + NCCL_HOP_LATENCY_S
        })
        .fold(0.0f64, f64::max);
    let ring = ring_estimate(cluster, cost, leaders, bytes);
    // Broadcast mirrors the reduce; intra stages run inside NCCL too.
    2.0 * intra + ring
}

/// The AllReduce structure a collective over `devices` runs and its
/// duration: hierarchical when its estimate is strictly lower, else
/// ring. Lowering and re-pricing both decide through this; `leaders` is
/// [`hierarchical_estimate`]'s buffer.
pub fn allreduce_choice<C: CostEstimator>(
    cluster: &Cluster,
    cost: &C,
    devices: &[DeviceId],
    bytes: u64,
    leaders: &mut Vec<DeviceId>,
) -> (f64, Tag) {
    let ring_t = ring_estimate(cluster, cost, devices, bytes);
    let hier_t = hierarchical_estimate(cluster, cost, devices, bytes, leaders);
    if hier_t < ring_t {
        (hier_t, Tag::Hier)
    } else {
        (ring_t, Tag::Ring)
    }
}

/// The link processors a ring over `devices` occupies, each once, in
/// hop order, into `links`.
fn ring_links_into(cluster: &Cluster, devices: &[DeviceId], links: &mut Vec<u32>) {
    links.clear();
    let n = devices.len();
    for i in 0..n {
        let (a, b) = (devices[i], devices[(i + 1) % n]);
        for &lid in cluster.path_between(a, b).expect("mesh path") {
            if !links.contains(&lid.0) {
                links.push(lid.0);
            }
        }
    }
}

/// Buffers an AllReduce is priced and emitted with, kept from one
/// collective to the next, so that emitting one allocates nothing once
/// they have grown (a price book, when given, still copies its record).
#[derive(Debug, Default)]
pub struct CollectiveScratch {
    /// Each server's first device ([`hierarchical_estimate`]).
    leaders: Vec<DeviceId>,
    /// The link processors the ring's hops traverse.
    links: Vec<u32>,
    /// One link task per entry of `links`.
    link_tasks: Vec<TaskId>,
}

/// Emits PS aggregation into `tg`: pushes from each device's ready
/// gradient into a `GradAggregate` on the PS, then pulls back out.
/// `ready[d]` is the task holding device `d`'s locally-combined gradient.
/// Writes into `out` the per-device tasks whose completion means
/// "aggregated gradient available on this device" (same order as
/// `devices`). The round's non-derivable pricing decisions are recorded
/// into `book`, when given (see [`crate::price`]).
#[allow(clippy::too_many_arguments)]
pub fn emit_ps<C: CostEstimator>(
    tg: &mut impl TaskSink,
    cluster: &Cluster,
    cost: &C,
    op: OpId,
    devices: &[DeviceId],
    ready: &[Vec<TaskId>],
    bytes: u64,
    tracker: &mut PsLoadTracker,
    book: Option<&mut PriceBook>,
    out: &mut Vec<TaskId>,
) {
    assert_eq!(devices.len(), ready.len());
    COLLECTIVES_PS.inc();
    let ps = choose_ps_balanced(cluster, cost, devices, bytes, tracker);
    let ps_pos = devices
        .iter()
        .position(|&d| d == ps)
        .expect("ps in devices");

    // Reduction on the PS (local replica pre-reduction happens inside
    // the transport, as NCCL/TF do — collectives depend directly on the
    // replica gradients so no GPU-queue priority inversion occurs).
    let agg = tg.add_task(
        Task::new(
            TaskName::Tagged {
                op,
                tag: Tag::PsAgg,
            },
            OpKind::GradAggregate,
            Proc::Gpu(ps.0),
            reduce_time(cost, cluster, ps, bytes, devices.len()),
        )
        .with_bytes(bytes),
    );
    if let Some(book) = book {
        book.ps_rounds.push(PsRound {
            devices: devices.to_vec(),
            bytes,
            chosen: ps,
            agg,
        });
    }
    for &r in &ready[ps_pos] {
        tg.add_dep(r, agg);
    }

    // Pushes.
    for (i, &d) in devices.iter().enumerate() {
        if d == ps {
            continue;
        }
        let segs = emit_transfer(tg, cluster, cost, op, Tag::PushXfer, d, ps, bytes);
        for s in segs {
            for &r in &ready[i] {
                tg.add_dep(r, s);
            }
            tg.add_dep(s, agg);
        }
    }

    // Pulls.
    out.clear();
    out.resize(devices.len(), agg);
    for (i, &d) in devices.iter().enumerate() {
        if d == ps {
            continue;
        }
        let segs = emit_transfer(tg, cluster, cost, op, Tag::PullXfer, ps, d, bytes);
        // A zero-cost arrival marker on the destination joins the segments.
        let arrive = tg.add_task(Task::new(
            TaskName::Tagged {
                op,
                tag: Tag::PullDone,
            },
            OpKind::GradAggregate,
            Proc::Gpu(d.0),
            0.0,
        ));
        for s in segs {
            tg.add_dep(agg, s);
            tg.add_dep(s, arrive);
        }
        out[i] = arrive;
    }
}

/// Emits an AllReduce (ring or hierarchical, whichever estimates faster)
/// into `tg`. Link-occupancy model: every link processor a ring hop uses
/// is busy for the collective's full pipelined duration, which both
/// prices the collective and serializes overlapping collectives (NCCL
/// launches one collective at a time — §6.2's observed constraint;
/// collectives over the same devices share the same channels and thus
/// serialize naturally). Writes one completion task per device into
/// `out`, in `devices` order; records the collective into `book`, when
/// given. Its lists live in `scratch`.
#[allow(clippy::too_many_arguments)]
pub fn emit_allreduce<C: CostEstimator>(
    tg: &mut impl TaskSink,
    cluster: &Cluster,
    cost: &C,
    op: OpId,
    devices: &[DeviceId],
    ready: &[Vec<TaskId>],
    bytes: u64,
    book: Option<&mut PriceBook>,
    scratch: &mut CollectiveScratch,
    out: &mut Vec<TaskId>,
) {
    assert_eq!(devices.len(), ready.len());
    out.clear();
    let n = devices.len();
    if n == 1 {
        // Single device: the replica gradients reduce locally in place;
        // hand out a zero-cost join marker only if several replicas exist.
        if ready[0].len() == 1 {
            out.push(ready[0][0]);
            return;
        }
        let d = devices[0];
        let join = tg.add_task(Task::new(
            TaskName::Tagged {
                op,
                tag: Tag::LocalJoin,
            },
            OpKind::GradAggregate,
            Proc::Gpu(d.0),
            0.0,
        ));
        for &r in &ready[0] {
            tg.add_dep(r, join);
        }
        out.push(join);
        return;
    }

    let CollectiveScratch {
        leaders,
        links,
        link_tasks,
    } = scratch;
    let (dur, tag) = allreduce_choice(cluster, cost, devices, bytes, leaders);
    if tag == Tag::Hier {
        COLLECTIVES_HIER.inc();
    } else {
        COLLECTIVES_RING.inc();
    }

    // Occupy every channel the ring's hops traverse for the collective's
    // duration (deduplicated — cross-server hops from one box share NICs).
    ring_links_into(cluster, devices, links);
    link_tasks.clear();
    link_tasks.extend(links.iter().map(|&lid| {
        tg.add_task(Task::new(
            TaskName::OnLink { op, tag },
            OpKind::NcclAllReduce,
            Proc::Link(lid),
            dur,
        ))
    }));

    for rs in ready {
        for &r in rs {
            for &lt in link_tasks.iter() {
                tg.add_dep(r, lt);
            }
        }
    }

    // A zero-cost completion marker per device so consumers wait on the
    // whole collective.
    for &d in devices {
        // AllReduce updates the gradient buffer in place: the memory is
        // already accounted at the gradient producer.
        let done = tg.add_task(Task::new(
            TaskName::Tagged {
                op,
                tag: Tag::ArDone,
            },
            OpKind::GradAggregate,
            Proc::Gpu(d.0),
            0.0,
        ));
        for &lt in link_tasks.iter() {
            tg.add_dep(lt, done);
        }
        out.push(done);
    }
    if let Some(book) = book {
        book.collectives.push(CollectiveRec {
            kind: CollectiveKind::AllReduce,
            devices: devices.to_vec(),
            bytes,
            link_tasks: link_tasks.clone(),
        });
    }
}

/// Emits a one-pass ring collective (all-gather or reduce-scatter) over
/// the SPMD shard group into `tg`. `bytes` is the *full* (unsharded)
/// tensor size — the ring moves `bytes/n` chunks `n-1` steps, same as one
/// AllReduce pass. `ready[i]` holds device `i`'s local slice / partial
/// tensor; `marker_bytes[i]` is charged to device `i`'s completion marker
/// (the gathered remainder for an all-gather — the device already holds
/// its own slice — and 0 for an in-place reduce-scatter). Returns one
/// completion marker per device, in `devices` order. Recorded into `book`,
/// when given, with the collective's kind so re-pricing patches the
/// right formula.
#[allow(clippy::too_many_arguments)]
pub fn emit_one_pass_collective<C: CostEstimator>(
    tg: &mut impl TaskSink,
    cluster: &Cluster,
    _cost: &C,
    op: OpId,
    devices: &[DeviceId],
    ready: &[Vec<TaskId>],
    bytes: u64,
    kind: CollectiveKind,
    marker_bytes: &[u64],
    book: Option<&mut PriceBook>,
) -> Vec<TaskId> {
    assert_eq!(devices.len(), ready.len());
    assert_eq!(devices.len(), marker_bytes.len());
    let (op_kind, tag, done_tag) = match kind {
        CollectiveKind::AllGather => (OpKind::AllGather, Tag::AllGather, Tag::AgDone),
        CollectiveKind::ReduceScatter => (OpKind::ReduceScatter, Tag::ReduceScatter, Tag::RsDone),
        CollectiveKind::AllReduce => {
            unreachable!("AllReduce goes through emit_allreduce")
        }
    };
    let n = devices.len();
    if n == 1 {
        // A single slice is the whole tensor; nothing moves.
        if ready[0].len() == 1 {
            return vec![ready[0][0]];
        }
        let d = devices[0];
        let join = tg.add_task(Task::new(
            TaskName::Tagged {
                op,
                tag: Tag::LocalJoin,
            },
            OpKind::GradAggregate,
            Proc::Gpu(d.0),
            0.0,
        ));
        for &r in &ready[0] {
            tg.add_dep(r, join);
        }
        return vec![join];
    }
    match kind {
        CollectiveKind::AllGather => COLLECTIVES_AG.inc(),
        CollectiveKind::ReduceScatter => COLLECTIVES_RS.inc(),
        CollectiveKind::AllReduce => unreachable!(),
    }

    let dur = one_pass_estimate(cluster, devices, bytes);
    // Occupy every channel the ring's hops traverse (deduplicated), the
    // same link-occupancy model as `emit_allreduce`.
    let mut lids = Vec::new();
    ring_links_into(cluster, devices, &mut lids);
    let link_tasks: Vec<TaskId> = lids
        .into_iter()
        .map(|lid| {
            tg.add_task(Task::new(
                TaskName::OnLink { op, tag },
                op_kind,
                Proc::Link(lid),
                dur,
            ))
        })
        .collect();
    if let Some(book) = book {
        book.collectives.push(CollectiveRec {
            kind,
            devices: devices.to_vec(),
            bytes,
            link_tasks: link_tasks.clone(),
        });
    }

    for rs in ready {
        for &r in rs {
            for &lt in &link_tasks {
                tg.add_dep(r, lt);
            }
        }
    }

    let mut out = Vec::with_capacity(n);
    for (i, &d) in devices.iter().enumerate() {
        let done = tg.add_task(
            Task::new(
                TaskName::Tagged { op, tag: done_tag },
                OpKind::GradAggregate,
                Proc::Gpu(d.0),
                0.0,
            )
            .with_bytes(marker_bytes[i]),
        );
        for &lt in &link_tasks {
            tg.add_dep(lt, done);
        }
        out.push(done);
    }
    out
}

/// Local reduction cost: summing `n` gradients of `bytes` on `dev`.
pub fn reduce_time<C: CostEstimator>(
    cost: &C,
    cluster: &Cluster,
    dev: DeviceId,
    bytes: u64,
    n: usize,
) -> f64 {
    let elems = bytes / 4;
    // An unnamed node: pricing reads no name, and an empty one is not
    // allocated.
    let node = Node::new(String::new(), OpKind::GradAggregate, Phase::Update)
        .with_output(TensorMeta::fixed(elems))
        .with_flops(0.0, 2.0 * elems as f64 * n.saturating_sub(1) as f64);
    let device = cluster.device(dev);
    cost.op_time(&node, device.model, 0) / device.speed_factor
}

/// Each server's first device in `devices`, in order, into `leaders`.
pub fn server_leaders_into(cluster: &Cluster, devices: &[DeviceId], leaders: &mut Vec<DeviceId>) {
    leaders.clear();
    for &d in devices {
        let server = cluster.device(d).server;
        if !leaders.iter().any(|&l| cluster.device(l).server == server) {
            leaders.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_profile::GroundTruthCost;
    use heterog_sched::{list_schedule, OrderPolicy, TaskGraph};

    fn all8() -> Vec<DeviceId> {
        (0..8).map(DeviceId).collect()
    }

    #[test]
    fn ring_estimate_scales_with_bytes() {
        let c = paper_testbed_8gpu();
        let d = all8();
        let small = ring_estimate(&c, &GroundTruthCost, &d, 1 << 20);
        let large = ring_estimate(&c, &GroundTruthCost, &d, 64 << 20);
        assert!(large > 10.0 * small);
    }

    #[test]
    fn hierarchical_beats_flat_ring_when_intra_is_fast() {
        // Two NVLink-dense servers behind slow NICs: reducing within each
        // server first and ringing only the leaders must win.
        use heterog_cluster::topology::Server;
        use heterog_cluster::{Cluster, Device, GpuModel};
        let servers = vec![
            Server {
                name: "a".into(),
                nic_bps: 1.0e9,
                nvlink: true,
            },
            Server {
                name: "b".into(),
                nic_bps: 1.0e9,
                nvlink: true,
            },
        ];
        let devices: Vec<Device> = (0..8)
            .map(|i| Device::new(GpuModel::TeslaV100, (i / 4) as u32))
            .collect();
        let c = Cluster::new(servers, devices);
        let d: Vec<DeviceId> = (0..8).map(DeviceId).collect();
        let ring = ring_estimate(&c, &GroundTruthCost, &d, 128 << 20);
        let hier = hierarchical_estimate(&c, &GroundTruthCost, &d, 128 << 20, &mut Vec::new());
        assert!(hier < ring, "hier {hier} vs ring {ring}");
    }

    #[test]
    fn choose_ps_prefers_well_connected_device() {
        let c = paper_testbed_8gpu();
        let d = all8();
        let ps = choose_ps(&c, &GroundTruthCost, &d, 32 << 20);
        // The V100 box has the 100GbE NIC; PS should land there.
        assert!(ps.0 <= 1, "expected a V100, got {ps}");
    }

    #[test]
    fn emit_ps_wires_push_reduce_pull() {
        let c = paper_testbed_8gpu();
        let cost = GroundTruthCost;
        let mut tg = TaskGraph::new("t", 8, c.num_links() as u32);
        let devices = vec![DeviceId(0), DeviceId(2), DeviceId(6)];
        let ready: Vec<Vec<TaskId>> = devices
            .iter()
            .map(|d| {
                vec![tg.add_task(Task::new(
                    "g",
                    OpKind::Conv2DBackpropFilter,
                    Proc::Gpu(d.0),
                    0.01,
                ))]
            })
            .collect();
        let mut tr = PsLoadTracker::new(c.servers().len());
        let (mut book, mut out) = (PriceBook::default(), Vec::new());
        emit_ps(
            &mut tg,
            &c,
            &cost,
            OpId(0),
            &devices,
            &ready,
            4 << 20,
            &mut tr,
            Some(&mut book),
            &mut out,
        );
        assert_eq!(out.len(), 3);
        assert_eq!(book.ps_rounds.len(), 1);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        assert!(s.makespan > 0.01);
        // Completion reflects push + reduce + pull across the NICs.
        let est = ps_estimate(
            &c,
            &cost,
            &devices,
            choose_ps(&c, &cost, &devices, 4 << 20),
            4 << 20,
        );
        assert!(
            s.makespan <= 0.011 + 2.0 * est,
            "{} vs est {est}",
            s.makespan
        );
    }

    #[test]
    fn ps_pushes_serialize_on_ingress_nic() {
        let c = paper_testbed_8gpu();
        let cost = GroundTruthCost;
        let mut tg = TaskGraph::new("t", 8, c.num_links() as u32);
        let devices = all8();
        let ready: Vec<Vec<TaskId>> = devices
            .iter()
            .map(|d| {
                vec![tg.add_task(Task::new(
                    "g",
                    OpKind::Conv2DBackpropFilter,
                    Proc::Gpu(d.0),
                    0.0,
                ))]
            })
            .collect();
        let bytes: u64 = 105 << 20; // ~0.01s per 100GbE NIC pass
        let mut tr = PsLoadTracker::new(c.servers().len());
        emit_ps(
            &mut tg,
            &c,
            &cost,
            OpId(0),
            &devices,
            &ready,
            bytes,
            &mut tr,
            None,
            &mut Vec::new(),
        );
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        // 6 cross-server pushes serialize into the PS box, then 6 pulls
        // serialize out: >= 12 NIC passes of ~10ms each.
        let one = bytes as f64 / 10.5e9;
        assert!(s.makespan > 10.0 * one, "{} vs one pass {one}", s.makespan);
    }

    #[test]
    fn emit_allreduce_occupies_shared_channels() {
        let c = paper_testbed_8gpu();
        let cost = GroundTruthCost;
        let mut tg = TaskGraph::new("t", 8, c.num_links() as u32);
        let devices = all8();
        let ready: Vec<Vec<TaskId>> = devices
            .iter()
            .map(|d| {
                vec![tg.add_task(Task::new(
                    "g",
                    OpKind::Conv2DBackpropFilter,
                    Proc::Gpu(d.0),
                    0.01,
                ))]
            })
            .collect();
        let (mut book, mut out) = (PriceBook::default(), Vec::new());
        emit_allreduce(
            &mut tg,
            &c,
            &cost,
            OpId(0),
            &devices,
            &ready,
            4 << 20,
            Some(&mut book),
            &mut CollectiveScratch::default(),
            &mut out,
        );
        assert_eq!(out.len(), 8);
        assert_eq!(book.collectives.len(), 1);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let est = ring_estimate(&c, &cost, &devices, 4 << 20).min(hierarchical_estimate(
            &c,
            &cost,
            &devices,
            4 << 20,
            &mut Vec::new(),
        ));
        assert!(s.makespan >= 0.01 + est - 1e-9);
    }

    #[test]
    fn ar_cheaper_than_ps_for_large_tensors_many_devices() {
        // The classic result the paper leans on: bandwidth-optimal ring
        // AR beats PS fan-in for big gradients.
        let c = paper_testbed_8gpu();
        let cost = GroundTruthCost;
        let d = all8();
        let bytes: u64 = 256 << 20;
        let ps = ps_estimate(&c, &cost, &d, choose_ps(&c, &cost, &d, bytes), bytes);
        let hier = hierarchical_estimate(&c, &cost, &d, bytes, &mut Vec::new());
        let ar = ring_estimate(&c, &cost, &d, bytes).min(hier);
        assert!(ar < ps, "ar {ar} vs ps {ps}");
    }

    #[test]
    fn single_device_allreduce_is_noop() {
        let c = paper_testbed_8gpu();
        let mut tg = TaskGraph::new("t", 8, c.num_links() as u32);
        let ready = vec![vec![tg.add_task(Task::new(
            "g",
            OpKind::NoOp,
            Proc::Gpu(0),
            0.01,
        ))]];
        let mut out = Vec::new();
        emit_allreduce(
            &mut tg,
            &c,
            &GroundTruthCost,
            OpId(0),
            &[DeviceId(0)],
            &ready,
            1 << 20,
            None,
            &mut CollectiveScratch::default(),
            &mut out,
        );
        assert_eq!(out, ready[0]);
        assert_eq!(tg.len(), 1);
    }

    #[test]
    fn one_pass_is_roughly_half_an_allreduce() {
        // AG/RS move each chunk (n-1) hops; a ring AR moves it 2(n-1).
        // Modulo launch overhead, one pass costs about half the AR.
        let c = paper_testbed_8gpu();
        let d = all8();
        let bytes: u64 = 256 << 20;
        let one = one_pass_estimate(&c, &d, bytes);
        let ar = ring_estimate(&c, &GroundTruthCost, &d, bytes);
        assert!(one < ar, "one-pass {one} vs AR {ar}");
        assert!(
            (2.0 * (one - NCCL_LAUNCH_OVERHEAD_S) - (ar - NCCL_LAUNCH_OVERHEAD_S)).abs() < 0.1 * ar,
            "one-pass {one} should be ~half of AR {ar}"
        );
        assert_eq!(one_pass_estimate(&c, &d[..1], bytes), 0.0);
    }

    #[test]
    fn emit_one_pass_records_kind_and_charges_markers() {
        let c = paper_testbed_8gpu();
        let cost = GroundTruthCost;
        let mut tg = TaskGraph::new("t", 8, c.num_links() as u32);
        let devices = vec![DeviceId(0), DeviceId(1)];
        let ready: Vec<Vec<TaskId>> = devices
            .iter()
            .map(|d| vec![tg.add_task(Task::new("s", OpKind::MatMul, Proc::Gpu(d.0), 0.01))])
            .collect();
        let mut book = PriceBook::default();
        let out = emit_one_pass_collective(
            &mut tg,
            &c,
            &cost,
            OpId(0),
            &devices,
            &ready,
            8 << 20,
            CollectiveKind::AllGather,
            &[6 << 20, 2 << 20],
            Some(&mut book),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(book.collectives.len(), 1);
        assert_eq!(book.collectives[0].kind, CollectiveKind::AllGather);
        assert_eq!(tg.task(out[0]).bytes, 6 << 20);
        assert_eq!(tg.task(out[1]).bytes, 2 << 20);
        let link_dur = tg.task(book.collectives[0].link_tasks[0]).duration;
        assert!((link_dur - one_pass_estimate(&c, &devices, 8 << 20)).abs() < 1e-12);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        assert!(s.makespan >= 0.01 + link_dur - 1e-9);
    }

    #[test]
    fn group_by_server_partitions() {
        let c = paper_testbed_8gpu();
        let mut leaders = Vec::new();
        server_leaders_into(&c, &all8(), &mut leaders);
        assert_eq!(leaders, [0, 2, 4, 6].map(DeviceId));
        server_leaders_into(&c, &[DeviceId(3), DeviceId(1), DeviceId(2)], &mut leaders);
        assert_eq!(leaders, [DeviceId(3), DeviceId(1)]);
    }
}
