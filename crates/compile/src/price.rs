//! Re-pricing a compiled task graph under a perturbed cluster without
//! recompiling.
//!
//! Most of a compiled [`TaskGraph`] is *derivable*: replica tasks carry
//! their op (`Task::origin`) and `batch_share`, and structural
//! Split/Concat tasks and transfer tasks carry their `bytes` —
//! enough to recompute every duration from the cost model alone. The
//! only decisions that are not recoverable from task fields are the
//! gradient-aggregation ones: which device a PS round chose (a greedy,
//! load-tracked choice) and which devices/bytes an AllReduce collective
//! spans. [`PriceBook`] records exactly those, so [`reprice`] can clone
//! the base graph and patch every duration (and each AllReduce's
//! ring/hierarchical choice, which only names its link tasks) for a
//! *structurally identical* cluster (speed, bandwidth, or model changes
//! — not removals/joins) in one linear pass, bit-identical to a fresh
//! `compile` on the perturbed cluster.
//!
//! The PS choice itself may legitimately flip under a perturbation (a
//! slowed NIC can move the argmin). `reprice` replays the greedy chooser
//! and returns [`RepriceError::PsChoiceChanged`] when any round would
//! pick a different server — the caller falls back to a full compile,
//! preserving bit-identity by construction.

use heterog_cluster::{Cluster, DeviceId, LinkId};
use heterog_graph::{Graph, Node, OpKind, Phase, TensorMeta};
use heterog_profile::CostEstimator;
use heterog_sched::{Proc, TaskGraph, TaskId, TaskName};

use crate::collective::{
    allreduce_choice, choose_ps_balanced, one_pass_estimate, reduce_time, PsLoadTracker,
};

/// One recorded parameter-server aggregation round, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct PsRound {
    /// Participating devices (aggregation group), in placement order.
    pub devices: Vec<DeviceId>,
    /// Gradient tensor size.
    pub bytes: u64,
    /// The device the greedy chooser picked.
    pub chosen: DeviceId,
    /// The `ps_agg` reduction task whose duration depends on the PS
    /// device's speed.
    pub agg: TaskId,
}

/// Which collective a [`CollectiveRec`] prices. AllReduce serves DP
/// gradient aggregation; all-gather and reduce-scatter are the SPMD
/// sharding boundary collectives (forward reassembly / backward
/// partial-sum scatter) and use the one-pass ring estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Ring or hierarchical AllReduce (auto-selected by estimate).
    AllReduce,
    /// One-pass ring all-gather.
    AllGather,
    /// One-pass ring reduce-scatter.
    ReduceScatter,
}

/// One recorded collective (n >= 2 devices).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveRec {
    /// Which collective this is (selects the re-pricing formula).
    pub kind: CollectiveKind,
    /// Participating devices, in placement order.
    pub devices: Vec<DeviceId>,
    /// Gradient tensor size.
    pub bytes: u64,
    /// The link-occupancy tasks sharing the collective's duration.
    pub link_tasks: Vec<TaskId>,
}

/// The non-derivable pricing decisions of one compilation, recorded by
/// `compile_priced` and `compile_logged`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PriceBook {
    /// PS rounds in emission order (the greedy chooser is stateful, so
    /// order matters when replaying it).
    pub ps_rounds: Vec<PsRound>,
    /// AllReduce collectives, any order.
    pub collectives: Vec<CollectiveRec>,
}

impl PriceBook {
    /// Drops all recorded rounds (reuse across compilations).
    pub fn clear(&mut self) {
        self.ps_rounds.clear();
        self.collectives.clear();
    }
}

/// Why a cheap re-price was not possible; callers fall back to a full
/// compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepriceError {
    /// The greedy PS chooser would pick a different device under the
    /// perturbed cluster, changing graph structure (push/pull paths).
    PsChoiceChanged,
    /// A task could not be re-derived from its recorded fields.
    Underivable,
}

impl std::fmt::Display for RepriceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepriceError::PsChoiceChanged => write!(f, "PS choice changed under perturbation"),
            RepriceError::Underivable => write!(f, "task duration not derivable from task fields"),
        }
    }
}

/// True when `a` and `b` have identical topology *structure* — same
/// servers, same device->server assignment, same materialized links —
/// so every routing and placement decision made on `a` is valid on `b`
/// verbatim, and only prices (speeds, bandwidths, models) may differ.
pub fn structure_compatible(a: &Cluster, b: &Cluster) -> bool {
    a.num_devices() == b.num_devices()
        && a.servers().len() == b.servers().len()
        && a.num_links() == b.num_links()
        && a.devices()
            .iter()
            .zip(b.devices())
            .all(|(da, db)| da.server == db.server)
        && a.links()
            .iter()
            .zip(b.links())
            .all(|(la, lb)| la.kind == lb.kind)
}

/// Duration of a Split/Concat structural task — must match
/// `Lowerer::structural_task`'s pricing exactly.
pub(crate) fn structural_duration<C: CostEstimator>(
    cluster: &Cluster,
    cost: &C,
    dev: u32,
    kind: OpKind,
    bytes: u64,
) -> f64 {
    let elems = bytes / 4;
    let node = Node::new("struct", kind, Phase::Forward)
        .with_output(TensorMeta::fixed(elems))
        .with_flops(0.0, elems as f64);
    let device = cluster.device(DeviceId(dev));
    cost.op_time(&node, device.model, 0) / device.speed_factor
}

/// Re-prices `base` (compiled on a structurally identical cluster) under
/// `cluster`, writing the patched clone into `out`. Graph structure,
/// task ids, and edges are preserved; durations change, and so does an
/// AllReduce link task's `ring`/`hier` tag when the re-priced estimate
/// picks the other structure, so `out` equals a fresh compile. The caller
/// must have checked [`structure_compatible`] — routing is assumed
/// identical.
pub fn reprice_into<C: CostEstimator>(
    g: &Graph,
    base: &TaskGraph,
    book: &PriceBook,
    cluster: &Cluster,
    cost: &C,
    out: &mut TaskGraph,
) -> Result<(), RepriceError> {
    // Replay the greedy PS chooser first: if any round's argmin moves,
    // the push/pull wiring of a fresh compile would differ and no
    // duration patch can be bit-identical.
    let mut tracker = PsLoadTracker::new(cluster.servers().len());
    for round in &book.ps_rounds {
        let pick = choose_ps_balanced(cluster, cost, &round.devices, round.bytes, &mut tracker);
        if pick != round.chosen {
            return Err(RepriceError::PsChoiceChanged);
        }
    }

    out.clone_from(base);
    for id in base.task_ids() {
        let t = base.task(id);
        let new_duration = match t.proc {
            Proc::Gpu(_) => {
                if let Some(op) = t.origin() {
                    let dev = match t.proc {
                        Proc::Gpu(d) => cluster.device(DeviceId(d)),
                        Proc::Link(_) => unreachable!(),
                    };
                    cost.op_time(g.node(op), dev.model, u64::from(t.batch_share)) / dev.speed_factor
                } else {
                    match t.kind {
                        OpKind::Split | OpKind::Concat => {
                            let Proc::Gpu(d) = t.proc else { unreachable!() };
                            structural_duration(cluster, cost, d, t.kind, t.bytes)
                        }
                        // Zero-duration markers (pull_done / ar_done /
                        // local_join / bcast_done) and the ps_agg
                        // reductions (patched from the book below).
                        OpKind::GradAggregate | OpKind::NoOp => continue,
                        _ => return Err(RepriceError::Underivable),
                    }
                }
            }
            Proc::Link(l) => match t.kind {
                OpKind::Transfer => cost.transfer_time(cluster.link(LinkId(l)), t.bytes),
                // Collective link tasks are patched from the book below.
                OpKind::NcclAllReduce | OpKind::AllGather | OpKind::ReduceScatter => continue,
                _ => return Err(RepriceError::Underivable),
            },
        };
        out.task_mut(id).duration = new_duration;
    }

    for round in &book.ps_rounds {
        out.task_mut(round.agg).duration = reduce_time(
            cost,
            cluster,
            round.chosen,
            round.bytes,
            round.devices.len(),
        );
    }
    let mut leaders = Vec::new();
    for coll in &book.collectives {
        let (dur, new_tag) = match coll.kind {
            CollectiveKind::AllReduce => {
                let (dur, tag) =
                    allreduce_choice(cluster, cost, &coll.devices, coll.bytes, &mut leaders);
                (dur, Some(tag))
            }
            CollectiveKind::AllGather | CollectiveKind::ReduceScatter => {
                (one_pass_estimate(cluster, &coll.devices, coll.bytes), None)
            }
        };
        for &lt in &coll.link_tasks {
            let t = out.task_mut(lt);
            t.duration = dur;
            if let (Some(new_tag), TaskName::OnLink { tag, .. }) = (new_tag, &mut t.name) {
                *tag = new_tag;
            }
        }
    }
    Ok(())
}

/// Owned-result variant of [`reprice_into`].
pub fn reprice<C: CostEstimator>(
    g: &Graph,
    base: &TaskGraph,
    book: &PriceBook,
    cluster: &Cluster,
    cost: &C,
) -> Result<TaskGraph, RepriceError> {
    let mut out = TaskGraph::default();
    reprice_into(g, base, book, cluster, cost, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, compile_priced, CommMethod, Strategy};
    use heterog_cluster::{paper_testbed_8gpu, GpuModel, LinkKind};
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;

    fn assert_bit_identical(a: &TaskGraph, b: &TaskGraph) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.num_edges(), b.num_edges());
        for id in a.task_ids() {
            let (ta, tb) = (a.task(id), b.task(id));
            assert_eq!(
                ta.duration.to_bits(),
                tb.duration.to_bits(),
                "duration mismatch at {}: {} vs {}",
                a.task_name(id),
                ta.duration,
                tb.duration
            );
            assert_eq!(ta.proc, tb.proc);
            assert_eq!(ta.bytes, tb.bytes);
            assert_eq!(a.task_name(id).to_string(), b.task_name(id).to_string());
        }
    }

    #[test]
    fn compile_priced_matches_plain_compile() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let c = paper_testbed_8gpu();
        for comm in [CommMethod::Ps, CommMethod::AllReduce] {
            let s = Strategy::even(g.len(), &c, comm);
            let plain = compile(&g, &c, &GroundTruthCost, &s);
            let (priced, book) = compile_priced(&g, &c, &GroundTruthCost, &s);
            assert_bit_identical(&plain, &priced);
            match comm {
                CommMethod::Ps => assert!(!book.ps_rounds.is_empty()),
                CommMethod::AllReduce => assert!(!book.collectives.is_empty()),
            }
        }
    }

    #[test]
    fn reprice_matches_fresh_compile_on_scaled_cluster() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
        let c = paper_testbed_8gpu();
        for comm in [CommMethod::Ps, CommMethod::AllReduce] {
            let s = Strategy::even(g.len(), &c, comm);
            let (base, book) = compile_priced(&g, &c, &GroundTruthCost, &s);
            for perturbed in [
                c.with_scaled_device(DeviceId(3), 0.5),
                c.with_scaled_link(Some(LinkKind::Pcie), 0.5),
                c.with_device_model(DeviceId(7), GpuModel::TeslaV100),
                c.clone(), // no-op perturbation
            ] {
                assert!(structure_compatible(&c, &perturbed));
                match reprice(&g, &base, &book, &perturbed, &GroundTruthCost) {
                    Ok(patched) => {
                        let fresh = compile(&g, &perturbed, &GroundTruthCost, &s);
                        assert_bit_identical(&patched, &fresh);
                    }
                    Err(RepriceError::PsChoiceChanged) => {
                        // Legitimate fallback; nothing to check here.
                    }
                    Err(e) => panic!("unexpected reprice error: {e}"),
                }
            }
        }
    }

    #[test]
    fn removal_is_structurally_incompatible() {
        let c = paper_testbed_8gpu();
        assert!(!structure_compatible(&c, &c.without_device(DeviceId(0))));
        assert!(structure_compatible(
            &c,
            &c.with_scaled_device(DeviceId(0), 0.25)
        ));
        assert!(structure_compatible(&c, &c.with_scaled_link(None, 2.0)));
    }
}
