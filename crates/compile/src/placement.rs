//! Strategy -> placement resolution.
//!
//! Lowers the per-op [`Strategy`] into concrete replica
//! placements with batch shares, applying the paper's structural rules:
//!
//! * ops whose output lacks a batch dimension are never replicated
//!   (§5 "Operation replication");
//! * parameter-gradient ops are colocated with the forward op whose
//!   parameters they differentiate (the gradient must be computed where
//!   the activations and weights live);
//! * `ApplyGradient` ops get one instance per device holding a copy of
//!   the parameters (synchronous SGD updates every replica).

use heterog_cluster::{Cluster, DeviceId};
use heterog_graph::{proportional_split, Graph, Node, OpId, OpKind};

use crate::strategy::{CommMethod, OpStrategy, Strategy};

/// Where one original op's work happens.
#[derive(Debug, Clone, PartialEq)]
pub struct OpPlacement {
    /// `(device, batch_share)` per replica instance. Single-instance ops
    /// have one entry carrying the full batch. For SPMD-sharded ops the
    /// share is the proportional slice of the batch each shard owns.
    pub replicas: Vec<(DeviceId, u64)>,
    /// Aggregation method for this op's parameter gradients (meaningful
    /// on gradient-producing ops; carried everywhere for simplicity).
    pub comm: CommMethod,
    /// `Some(dim)` when the op is SPMD-sharded along `dim`: replicas are
    /// *slices* of one logical instance (parameters partitioned, no
    /// gradient aggregation, boundary all-gather/reduce-scatter) rather
    /// than independent data-parallel replicas.
    pub shard_dim: Option<u32>,
}

impl OpPlacement {
    /// Distinct devices hosting replicas, in first-appearance order.
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut seen = Vec::new();
        for &(d, _) in &self.replicas {
            if !seen.contains(&d) {
                seen.push(d);
            }
        }
        seen
    }

    /// True when there is exactly one replica.
    pub fn single_instance(&self) -> bool {
        self.replicas.len() == 1
    }
}

/// Splits `batch` into `n` near-even shares (larger shares first),
/// matching the even input division of §3.3 (i). Shares of zero are kept
/// (callers drop zero-share replicas).
pub fn split_batch(batch: u64, n: u64) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    let base = batch / n;
    let rem = batch % n;
    (0..n).map(|i| base + u64::from(i < rem)).collect()
}

/// Places one SPMD-sharded op across devices with weight-proportional
/// batch slices (largest-remainder exact split; zero-share devices
/// dropped). A single surviving slice is the whole tensor, so it carries
/// no shard marker.
fn resolve_shard(batch: u64, shards: &[u32], batch_splittable: bool, dim: u32) -> OpPlacement {
    // Sharded parameters are partitioned, never aggregated; the comm
    // field is irrelevant but AllReduce keeps the degenerate
    // single-slice fallback sane.
    let comm = CommMethod::AllReduce;
    let participants: Vec<DeviceId> = shards
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w > 0)
        .map(|(i, _)| DeviceId(i as u32))
        .collect();
    if participants.is_empty() {
        return OpPlacement {
            replicas: vec![(DeviceId(0), batch)],
            comm,
            shard_dim: None,
        };
    }
    if !batch_splittable || participants.len() == 1 {
        // Non-splittable (or single-participant) ops collapse to one full
        // instance on the heaviest-weighted device (ties: lowest id).
        let best = shards
            .iter()
            .enumerate()
            .max_by_key(|&(i, &w)| (w, std::cmp::Reverse(i)))
            .map(|(i, _)| DeviceId(i as u32))
            .unwrap_or(DeviceId(0));
        return OpPlacement {
            replicas: vec![(best, batch)],
            comm,
            shard_dim: None,
        };
    }
    let active: Vec<u64> = participants
        .iter()
        .map(|d| u64::from(shards[d.index()]))
        .collect();
    let shares = proportional_split(batch, &active);
    let reps: Vec<(DeviceId, u64)> = participants
        .into_iter()
        .zip(shares)
        .filter(|&(_, s)| s > 0)
        .collect();
    match reps.len() {
        0 => OpPlacement {
            replicas: vec![(DeviceId(0), batch)],
            comm,
            shard_dim: None,
        },
        1 => OpPlacement {
            replicas: reps,
            comm,
            shard_dim: None,
        },
        _ => OpPlacement {
            replicas: reps,
            comm,
            shard_dim: Some(dim),
        },
    }
}

/// Resolves every op's placement.
pub fn resolve_placements(g: &Graph, cluster: &Cluster, strategy: &Strategy) -> Vec<OpPlacement> {
    assert_eq!(
        strategy.per_op.len(),
        g.len(),
        "strategy must cover every op"
    );
    let (batch, m) = (g.batch_size, cluster.num_devices());

    // Pass 1: base placements from the strategy.
    let mut out: Vec<OpPlacement> = g
        .iter()
        .map(|(id, node)| {
            let mut p = OpPlacement {
                replicas: Vec::new(),
                comm: CommMethod::AllReduce,
                shard_dim: None,
            };
            place_op(node, batch, m, &strategy.per_op[id.index()], &mut p);
            p
        })
        .collect();

    // Pass 2: colocate parameter-gradient ops with their forward op.
    for (id, node) in g.iter() {
        if let Some(f) = node.grad_of {
            colocate_grad(&mut out, id, f);
        }
    }

    // Pass 3: ApplyGradient gets one instance per parameter-holding
    // device of its gradient producer.
    for (id, node) in g.iter() {
        if node.kind == OpKind::ApplyGradient {
            if let Some(p) = grad_producer_of_apply(g, id) {
                place_apply(&mut out, id, p, batch);
            }
        }
    }

    out
}

/// The placements of a group move, equal to [`resolve_placements`] of
/// the base strategy with every op in `ops` re-decided as `to`, given
/// `base`, that strategy's placements. `out` starts as a copy of `base`
/// made field by field into its own buffers, so a warm `out` does not
/// allocate; then only the placements the move can change are resolved
/// again, by the passes [`resolve_placements`] runs:
///
/// * pass 1 for the ops in `ops` whose placement is their own (not a
///   gradient op, nor an ApplyGradient with a gradient producer);
/// * pass 2 for the gradient ops of ops in `ops`;
/// * pass 3 for the ApplyGradient ops those fed.
///
/// `ops` must be sorted ascending, as `Grouping::members` are. Gradient
/// ops differentiate forward ops (`grad_of` never names a gradient op),
/// as every graph builder makes them.
pub fn resolve_group_into(
    g: &Graph,
    cluster: &Cluster,
    base: &[OpPlacement],
    ops: &[OpId],
    to: &OpStrategy,
    out: &mut Vec<OpPlacement>,
) {
    assert_eq!(base.len(), g.len(), "base placements must cover every op");
    debug_assert!(ops.windows(2).all(|w| w[0] < w[1]), "ops must be sorted");
    let (batch, m) = (g.batch_size, cluster.num_devices());
    out.truncate(base.len());
    let copied = out.len();
    for (o, b) in out.iter_mut().zip(base) {
        o.replicas.clone_from(&b.replicas);
        o.comm = b.comm;
        o.shard_dim = b.shard_dim;
    }
    out.extend_from_slice(&base[copied..]);
    for &i in ops {
        let node = g.node(i);
        let derived = node.grad_of.is_some()
            || (node.kind == OpKind::ApplyGradient && grad_producer_of_apply(g, i).is_some());
        if !derived {
            place_op(node, batch, m, to, &mut out[i.index()]);
            if node.kind.produces_param_grad() {
                place_applies_of(g, out, i, batch);
            }
        }
    }
    for (id, node) in g.iter() {
        if let Some(f) = node.grad_of {
            if ops.binary_search(&f).is_ok() {
                colocate_grad(out, id, f);
                place_applies_of(g, out, id, batch);
            }
        }
    }
}

/// Pass 1 for one op: the placement `s` alone gives `node`, written
/// over `out` (its replica buffer reused).
fn place_op(node: &Node, batch: u64, num_devices: usize, s: &OpStrategy, out: &mut OpPlacement) {
    let single = |out: &mut OpPlacement, d: DeviceId, comm: CommMethod| {
        out.replicas.clear();
        out.replicas.push((d, batch));
        out.comm = comm;
        out.shard_dim = None;
    };
    match s {
        OpStrategy::Mp(d) => single(out, *d, CommMethod::AllReduce),
        OpStrategy::Dp { replicas, comm } => {
            assert_eq!(replicas.len(), num_devices, "replica vector length");
            if node.batch_splittable {
                // Shares are dealt per logical replica as `split_batch`
                // deals them, then same-device replicas merge into one
                // physical replica with the combined share — running two
                // half-size replicas back-to-back on one GPU is
                // cost-equivalent to one double-share replica, minus
                // pointless per-op overhead (and it is what a real
                // deployment executes).
                let n: u64 = replicas.iter().map(|&c| u64::from(c)).sum();
                let reps = &mut out.replicas;
                reps.clear();
                if let (Some(share), Some(rem)) = (batch.checked_div(n), batch.checked_rem(n)) {
                    let mut k = 0;
                    for (d, &count) in replicas.iter().enumerate() {
                        let d = DeviceId(d as u32);
                        for _ in 0..count {
                            let s = share + u64::from(k < rem);
                            k += 1;
                            if s == 0 {
                                continue;
                            }
                            match reps.iter_mut().find(|(rd, _)| *rd == d) {
                                Some((_, rs)) => *rs += s,
                                None => reps.push((d, s)),
                            }
                        }
                    }
                }
                if reps.is_empty() {
                    // Degenerate zero-replica decision: fall back to MP
                    // on device 0.
                    single(out, DeviceId(0), *comm);
                } else {
                    out.comm = *comm;
                    out.shard_dim = None;
                }
            } else {
                // Not batch-splittable: single instance on the device
                // with the largest replica count (ties: lowest id).
                let best = replicas
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
                    .map(|(i, _)| DeviceId(i as u32))
                    .unwrap_or(DeviceId(0));
                single(out, best, *comm);
            }
        }
        OpStrategy::Shard { dim, shards } => {
            assert_eq!(shards.len(), num_devices, "shard vector length");
            *out = resolve_shard(batch, shards, node.batch_splittable, *dim);
        }
    }
}

/// Pass 2 for one gradient op: `grad` takes its forward op `fwd`'s
/// placement.
fn colocate_grad(out: &mut [OpPlacement], grad: OpId, fwd: OpId) {
    let mut replicas = std::mem::take(&mut out[grad.index()].replicas);
    let f = &out[fwd.index()];
    replicas.clone_from(&f.replicas);
    out[grad.index()] = OpPlacement {
        replicas,
        comm: f.comm,
        shard_dim: f.shard_dim,
    };
}

/// Pass 3 for one ApplyGradient op: one full-batch instance per
/// distinct device of its gradient producer.
fn place_apply(out: &mut [OpPlacement], apply: OpId, producer: OpId, batch: u64) {
    let mut replicas = std::mem::take(&mut out[apply.index()].replicas);
    replicas.clear();
    let p = &out[producer.index()];
    for &(d, _) in &p.replicas {
        if !replicas.iter().any(|&(rd, _)| rd == d) {
            replicas.push((d, batch));
        }
    }
    out[apply.index()] = OpPlacement {
        replicas,
        comm: p.comm,
        // Carried so lowering knows the update applies to an owned
        // parameter slice (no aggregation collective precedes it).
        shard_dim: p.shard_dim,
    };
}

/// Pass 3 for every ApplyGradient op `producer` feeds.
fn place_applies_of(g: &Graph, out: &mut [OpPlacement], producer: OpId, batch: u64) {
    for &a in g.succs(producer) {
        if g.node(a).kind == OpKind::ApplyGradient && grad_producer_of_apply(g, a) == Some(producer)
        {
            place_apply(out, a, producer, batch);
        }
    }
}

/// The gradient producer feeding an `ApplyGradient` op, if any.
pub fn grad_producer_of_apply(g: &Graph, apply: OpId) -> Option<OpId> {
    g.preds(apply)
        .iter()
        .copied()
        .find(|p| g.node(*p).kind.produces_param_grad())
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_graph::{GraphBuilder, OpKind};

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new("tiny", 64);
        let x = b.input(1000);
        let l = b.param_layer("l", OpKind::MatMul, x, 500, 5000, 1e6);
        b.finish(l)
    }

    #[test]
    fn split_batch_even_and_remainder() {
        assert_eq!(split_batch(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(split_batch(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_batch(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(split_batch(5, 1), vec![5]);
        assert!(split_batch(5, 0).is_empty());
    }

    #[test]
    fn even_dp_places_on_all_devices() {
        let g = tiny();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let p = resolve_placements(&g, &c, &s);
        let input = g.iter().find(|(_, n)| n.kind == OpKind::Input).unwrap().0;
        assert_eq!(p[input.index()].replicas.len(), 8);
        let shares: u64 = p[input.index()].replicas.iter().map(|r| r.1).sum();
        assert_eq!(shares, 64);
    }

    #[test]
    fn grad_ops_colocated_with_forward() {
        let g = tiny();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::Ps);
        let p = resolve_placements(&g, &c, &s);
        let (fid, _) = g.iter().find(|(_, n)| n.has_params()).unwrap();
        let (gid, _) = g
            .iter()
            .find(|(_, n)| n.kind.produces_param_grad())
            .unwrap();
        assert_eq!(p[fid.index()].replicas, p[gid.index()].replicas);
    }

    #[test]
    fn apply_gets_one_instance_per_param_device() {
        let g = tiny();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::Ps);
        let p = resolve_placements(&g, &c, &s);
        let (aid, _) = g
            .iter()
            .find(|(_, n)| n.kind == OpKind::ApplyGradient)
            .unwrap();
        assert_eq!(p[aid.index()].replicas.len(), 8);
        let devs = p[aid.index()].devices();
        assert_eq!(devs.len(), 8);
    }

    #[test]
    fn mp_strategy_pins_everything_to_one_device() {
        let g = tiny();
        let c = paper_testbed_8gpu();
        let s = Strategy::uniform(g.len(), OpStrategy::Mp(DeviceId(3)));
        let p = resolve_placements(&g, &c, &s);
        for pl in &p {
            assert_eq!(pl.devices(), vec![DeviceId(3)]);
        }
    }

    #[test]
    fn non_splittable_ops_not_replicated() {
        let g = tiny();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let p = resolve_placements(&g, &c, &s);
        for (id, n) in g.iter() {
            if !n.batch_splittable && n.grad_of.is_none() && n.kind != OpKind::ApplyGradient {
                assert!(
                    p[id.index()].single_instance(),
                    "{} must not be replicated",
                    n.name
                );
            }
        }
    }

    #[test]
    fn shard_places_proportional_slices() {
        let g = tiny();
        let c = paper_testbed_8gpu();
        let s = Strategy::uniform(g.len(), OpStrategy::shard_proportional(&c, 0));
        let p = resolve_placements(&g, &c, &s);
        let input = g.iter().find(|(_, n)| n.kind == OpKind::Input).unwrap().0;
        let pl = &p[input.index()];
        assert_eq!(pl.shard_dim, Some(0));
        let total: u64 = pl.replicas.iter().map(|r| r.1).sum();
        assert_eq!(total, 64, "slices must partition the batch exactly");
        // V100 (G0) slice strictly larger than 1080Ti (G2).
        let share = |d: u32| {
            pl.replicas
                .iter()
                .find(|(dev, _)| *dev == DeviceId(d))
                .map(|r| r.1)
                .unwrap_or(0)
        };
        assert!(share(0) > share(2));
        // Gradient ops inherit the shard placement (pass 2).
        let (gid, _) = g
            .iter()
            .find(|(_, n)| n.kind.produces_param_grad())
            .unwrap();
        assert_eq!(p[gid.index()].shard_dim, Some(0));
        // Non-splittable ops collapse to one unsharded instance.
        for (id, n) in g.iter() {
            if !n.batch_splittable && n.grad_of.is_none() && n.kind != OpKind::ApplyGradient {
                assert!(p[id.index()].single_instance());
                assert_eq!(p[id.index()].shard_dim, None);
            }
        }
    }

    #[test]
    fn group_move_equals_resolving_the_moved_strategy() {
        let g = tiny();
        let c = paper_testbed_8gpu();
        let base = Strategy::even(g.len(), &c, CommMethod::Ps);
        let base_placements = resolve_placements(&g, &c, &base);
        let fwd = g.iter().find(|(_, n)| n.has_params()).unwrap().0;
        let mut out = Vec::new();
        for to in [
            OpStrategy::Mp(DeviceId(3)),
            OpStrategy::proportional(&c, CommMethod::AllReduce),
            OpStrategy::shard_proportional(&c, 0),
        ] {
            let mut moved = base.clone();
            moved.per_op[fwd.index()] = to.clone();
            resolve_group_into(&g, &c, &base_placements, &[fwd], &to, &mut out);
            assert_eq!(out, resolve_placements(&g, &c, &moved), "{to:?}");
        }
        // Moving every op is resolving a uniform strategy.
        let all: Vec<OpId> = g.op_ids().collect();
        let to = OpStrategy::Mp(DeviceId(5));
        resolve_group_into(&g, &c, &base_placements, &all, &to, &mut out);
        let uniform = Strategy::uniform(g.len(), to);
        assert_eq!(out, resolve_placements(&g, &c, &uniform));
    }

    #[test]
    fn small_batch_drops_zero_share_replicas() {
        let mut b = GraphBuilder::new("small", 3); // batch 3 < 8 devices
        let x = b.input(10);
        let l = b.param_layer("l", OpKind::MatMul, x, 10, 100, 1e3);
        let g = b.finish(l);
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let p = resolve_placements(&g, &c, &s);
        let input = g.iter().find(|(_, n)| n.kind == OpKind::Input).unwrap().0;
        assert_eq!(p[input.index()].replicas.len(), 3);
        assert!(p[input.index()].replicas.iter().all(|r| r.1 == 1));
    }
}
