//! Part-I strategy representation.
//!
//! The paper's action space per operation group is `M + 4` choices
//! (§4.1.2): place on one of the `M` GPUs without replication (MP), or
//! one of four DP schemes — {even, proportional} replication x {PS,
//! AllReduce} aggregation. [`OpStrategy`] is the per-op decision after
//! group expansion; the generic `Dp` variant also admits arbitrary
//! replica vectors (used by the planner's local search).
//!
//! Beyond the paper, one widened variant (following HAP):
//! [`OpStrategy::Shard`] is SPMD tensor sharding. It runs one instance
//! per participating device, each owning a contiguous slice of the op's
//! tensors along `dim`, sized proportionally to the per-device `shards`
//! weights (HAP's computation-power-proportional sharding triples).
//! Sharded parameters need **no** gradient aggregation — each device
//! owns and updates its slice — at the price of boundary collectives:
//! an all-gather where a sharded output feeds a non-sharded consumer
//! and a reduce-scatter on the backward boundary.

use std::collections::HashMap;

use heterog_cluster::{Cluster, DeviceId};

/// Human-readable roster of a cluster's devices, e.g.
/// `"G0 (Tesla V100), G1 (GTX 1080Ti)"`. Embedded in validation errors so
/// the message names what *would* be valid, not just a count.
pub fn device_roster(cluster: &Cluster) -> String {
    let mut s = String::new();
    for (i, d) in cluster.devices().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("{} ({})", DeviceId(i as u32), d.model.name()));
    }
    s
}

/// Why a strategy cannot be deployed on a given cluster. Produced by
/// [`Strategy::validate`]; the elastic runtime's repair invariant is
/// that repaired strategies always pass. Every device-related variant
/// names the offending [`DeviceId`] and, where the device does not exist,
/// lists the valid roster (id + GPU model name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyError {
    /// An MP placement names a device the cluster does not have.
    MpOutOfRange {
        /// Offending op index.
        op: usize,
        /// The out-of-range placement.
        device: DeviceId,
        /// Devices actually present.
        devices: usize,
        /// Roster of valid devices (`G<i> (<model>)`).
        valid: String,
    },
    /// A DP replica vector's length disagrees with the device count.
    ReplicaLengthMismatch {
        /// Offending op index.
        op: usize,
        /// Replica-vector length.
        len: usize,
        /// Devices actually present.
        devices: usize,
    },
    /// A DP op has no replicas anywhere.
    NoReplicas {
        /// Offending op index.
        op: usize,
    },
    /// A shard-weight vector assigns work to a device the cluster does
    /// not have (the elastic invariant: shard vectors must not reference
    /// removed devices).
    ShardDeviceMissing {
        /// Offending op index.
        op: usize,
        /// The missing device the shard vector assigns weight to.
        device: DeviceId,
        /// Devices actually present.
        devices: usize,
        /// Roster of valid devices (`G<i> (<model>)`).
        valid: String,
    },
    /// A shard-weight vector's length disagrees with the device count
    /// (with no out-of-range weight actually set).
    ShardLengthMismatch {
        /// Offending op index.
        op: usize,
        /// Shard-vector length.
        len: usize,
        /// Devices actually present.
        devices: usize,
    },
    /// A shard-weight vector sums to zero (no device owns any slice).
    NoShards {
        /// Offending op index.
        op: usize,
    },
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyError::MpOutOfRange {
                op,
                device,
                devices,
                valid,
            } => write!(
                f,
                "op {op}: MP placement on {device} but the cluster has {devices} devices \
                 (valid: {valid})"
            ),
            StrategyError::ReplicaLengthMismatch { op, len, devices } => write!(
                f,
                "op {op}: replica vector has {len} entries but the cluster has {devices} devices"
            ),
            StrategyError::NoReplicas { op } => write!(f, "op {op}: replica vector sums to zero"),
            StrategyError::ShardDeviceMissing {
                op,
                device,
                devices,
                valid,
            } => write!(
                f,
                "op {op}: shard weight on {device} but the cluster has {devices} devices \
                 (valid: {valid})"
            ),
            StrategyError::ShardLengthMismatch { op, len, devices } => write!(
                f,
                "op {op}: shard vector has {len} entries but the cluster has {devices} devices"
            ),
            StrategyError::NoShards { op } => write!(f, "op {op}: shard vector sums to zero"),
        }
    }
}

impl std::error::Error for StrategyError {}

/// Gradient-aggregation method for a data-parallel op's parameter
/// gradients (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommMethod {
    /// Parameter-server push/pull through a chosen replica device.
    Ps,
    /// Collective AllReduce (ring or hierarchical, auto-selected).
    AllReduce,
}

/// Parallelism decision for one operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpStrategy {
    /// Model parallelism: a single un-replicated instance on one device.
    Mp(DeviceId),
    /// Data parallelism: `replicas[d]` replicas on device `d` (sum must
    /// be >= 1), aggregating parameter gradients with `comm`.
    Dp {
        /// Replica count per device (length = number of GPUs).
        replicas: Vec<u32>,
        /// Gradient-aggregation method.
        comm: CommMethod,
    },
    /// SPMD sharding: split the op's tensors along dimension `dim` with
    /// one slice per device of nonzero weight, slice sizes proportional
    /// to `shards[d]` (length = number of GPUs, sum >= 1). Parameters are
    /// partitioned — no gradient aggregation — and boundary
    /// all-gather/reduce-scatter collectives reassemble activations where
    /// a non-sharded consumer/producer meets the shard group.
    Shard {
        /// Tensor dimension the slices cut along (0 = batch dim; the
        /// cost model only depends on slice *sizes*, so `dim` is carried
        /// for explain/serialization fidelity).
        dim: u32,
        /// Proportional shard weight per device (length = number of
        /// GPUs; zero = the device owns no slice).
        shards: Vec<u32>,
    },
}

impl OpStrategy {
    /// The paper's EV scheme: one replica on every device.
    pub fn even(cluster: &Cluster, comm: CommMethod) -> Self {
        OpStrategy::Dp {
            replicas: vec![1; cluster.num_devices()],
            comm,
        }
    }

    /// The paper's CP scheme: replicas proportional to computation power
    /// (relative to the slowest device, rounded; min 1 per device).
    pub fn proportional(cluster: &Cluster, comm: CommMethod) -> Self {
        let replicas = cluster
            .relative_powers()
            .into_iter()
            .map(|p| (p.round() as u32).max(1))
            .collect();
        OpStrategy::Dp { replicas, comm }
    }

    /// Even SPMD sharding along `dim`: equal-weight slices on every
    /// device.
    pub fn shard_even(cluster: &Cluster, dim: u32) -> Self {
        OpStrategy::Shard {
            dim,
            shards: vec![1; cluster.num_devices()],
        }
    }

    /// Compute-power-proportional SPMD sharding along `dim` (HAP): slice
    /// weights scale with each device's effective TFLOPS, at 4x the CP
    /// resolution so a 1.5x-faster device gets a 3:2 (not 2:1) slice.
    pub fn shard_proportional(cluster: &Cluster, dim: u32) -> Self {
        let shards = cluster
            .relative_powers()
            .into_iter()
            .map(|p| ((p * 4.0).round() as u32).max(1))
            .collect();
        OpStrategy::Shard { dim, shards }
    }

    /// Total replica count (1 for MP; shards count participating
    /// instances — one per shard slice).
    pub fn total_replicas(&self) -> u32 {
        match self {
            OpStrategy::Mp(_) => 1,
            OpStrategy::Dp { replicas, .. } => replicas.iter().sum(),
            OpStrategy::Shard { shards, .. } => shards.iter().filter(|&&w| w > 0).count() as u32,
        }
    }
}

/// A complete Part-I strategy: one decision per op of the original graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Strategy {
    /// Indexed by `OpId`.
    pub per_op: Vec<OpStrategy>,
}

impl Strategy {
    /// A strategy from per-op decisions.
    pub fn from_per_op(per_op: Vec<OpStrategy>) -> Self {
        Strategy { per_op }
    }

    /// The same decision for every op (the four DP baselines and
    /// single-device MP all use this).
    pub fn uniform(num_ops: usize, s: OpStrategy) -> Self {
        Strategy::from_per_op(vec![s; num_ops])
    }

    /// EV-PS / EV-AR baseline strategy.
    pub fn even(num_ops: usize, cluster: &Cluster, comm: CommMethod) -> Self {
        Self::uniform(num_ops, OpStrategy::even(cluster, comm))
    }

    /// CP-PS / CP-AR baseline strategy.
    pub fn proportional(num_ops: usize, cluster: &Cluster, comm: CommMethod) -> Self {
        Self::uniform(num_ops, OpStrategy::proportional(cluster, comm))
    }

    /// Checks that every decision is deployable on `cluster`: MP
    /// placements name existing devices, DP replica vectors have one
    /// entry per device and at least one replica overall, and shard
    /// vectors never weight a removed device. This is the invariant
    /// fault repair must preserve — a repaired strategy may never
    /// reference a removed device.
    pub fn validate(&self, cluster: &Cluster) -> Result<(), StrategyError> {
        let m = cluster.num_devices();
        for (op, s) in self.per_op.iter().enumerate() {
            match s {
                OpStrategy::Mp(d) => {
                    if d.index() >= m {
                        return Err(StrategyError::MpOutOfRange {
                            op,
                            device: *d,
                            devices: m,
                            valid: device_roster(cluster),
                        });
                    }
                }
                OpStrategy::Dp { replicas, .. } => {
                    if replicas.len() != m {
                        return Err(StrategyError::ReplicaLengthMismatch {
                            op,
                            len: replicas.len(),
                            devices: m,
                        });
                    }
                    if replicas.iter().sum::<u32>() == 0 {
                        return Err(StrategyError::NoReplicas { op });
                    }
                }
                OpStrategy::Shard { shards, .. } => {
                    if shards.len() != m {
                        // A longer vector that still weights a trailing
                        // (removed) device is the elastic hazard; name
                        // that device rather than just the length.
                        if let Some((i, _)) =
                            shards.iter().enumerate().find(|&(i, &w)| i >= m && w > 0)
                        {
                            return Err(StrategyError::ShardDeviceMissing {
                                op,
                                device: DeviceId(i as u32),
                                devices: m,
                                valid: device_roster(cluster),
                            });
                        }
                        return Err(StrategyError::ShardLengthMismatch {
                            op,
                            len: shards.len(),
                            devices: m,
                        });
                    }
                    if shards.iter().sum::<u32>() == 0 {
                        return Err(StrategyError::NoShards { op });
                    }
                }
            }
        }
        Ok(())
    }

    /// Histogram over the paper's Table-2 buckets plus the widened
    /// variant: per-device MP counts (length M), then
    /// `[EV-PS, EV-AR, CP-PS, CP-AR, other-DP, Shard]`.
    pub fn histogram(&self, cluster: &Cluster) -> (Vec<usize>, [usize; 6]) {
        let m = cluster.num_devices();
        let even: Vec<u32> = vec![1; m];
        let prop: Vec<u32> = match OpStrategy::proportional(cluster, CommMethod::Ps) {
            OpStrategy::Dp { replicas, .. } => replicas,
            _ => unreachable!(),
        };
        let mut mp = vec![0usize; m];
        let mut dp = [0usize; 6];
        for s in &self.per_op {
            match s {
                OpStrategy::Mp(d) => mp[d.index()] += 1,
                OpStrategy::Dp { replicas, comm } => {
                    let idx = if *replicas == even {
                        match comm {
                            CommMethod::Ps => 0,
                            CommMethod::AllReduce => 1,
                        }
                    } else if *replicas == prop {
                        match comm {
                            CommMethod::Ps => 2,
                            CommMethod::AllReduce => 3,
                        }
                    } else {
                        4
                    };
                    dp[idx] += 1;
                }
                OpStrategy::Shard { .. } => dp[5] += 1,
            }
        }
        (mp, dp)
    }
}

/// A [`Strategy`] packed for storage: each distinct per-op decision
/// once, in first-use order, plus one `u32` index per op. A baseline
/// uses one decision and a HeteroG plan a few (it decides per op
/// group), so the packed form costs about 4 bytes per op instead of an
/// [`OpStrategy`] per op, each DP or Shard one with a heap vector of its
/// own. Packing is canonical: equal per-op decisions always give an
/// equal packed value, so the derived `Eq` is semantic equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedStrategy {
    /// Distinct decisions in the order ops first use them.
    decisions: Box<[OpStrategy]>,
    /// `decisions[index[op]]` is op `op`'s decision.
    index: Box<[u32]>,
}

impl PackedStrategy {
    /// Packs `strategy`, in time linear in its op count: an op whose
    /// decision equals its predecessor's reuses that index without a
    /// hash lookup.
    pub fn pack(strategy: &Strategy) -> Self {
        let mut decisions = Vec::new();
        let mut seen: HashMap<&OpStrategy, u32> = HashMap::new();
        let mut prev: Option<(&OpStrategy, u32)> = None;
        let index = strategy
            .per_op
            .iter()
            .map(|s| {
                let i = match prev {
                    Some((p, i)) if p == s => i,
                    _ => *seen.entry(s).or_insert_with(|| {
                        decisions.push(s.clone());
                        (decisions.len() - 1) as u32
                    }),
                };
                prev = Some((s, i));
                i
            })
            .collect();
        PackedStrategy {
            decisions: decisions.into_boxed_slice(),
            index,
        }
    }

    /// The strategy this was packed from.
    pub fn unpack(&self) -> Strategy {
        Strategy::from_per_op(
            self.index
                .iter()
                .map(|&i| self.decision(i).clone())
                .collect(),
        )
    }

    /// Whether `strategy` has exactly the packed per-op decisions,
    /// compared op by op without unpacking.
    pub fn matches(&self, strategy: &Strategy) -> bool {
        self.index.len() == strategy.per_op.len()
            && self
                .index
                .iter()
                .zip(&strategy.per_op)
                .all(|(&i, s)| self.decision(i) == s)
    }

    fn decision(&self, i: u32) -> &OpStrategy {
        &self.decisions[i as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;

    #[test]
    fn even_is_one_each() {
        let c = paper_testbed_8gpu();
        let s = OpStrategy::even(&c, CommMethod::AllReduce);
        assert_eq!(s.total_replicas(), 8);
    }

    #[test]
    fn proportional_gives_v100_twice_1080ti() {
        let c = paper_testbed_8gpu();
        match OpStrategy::proportional(&c, CommMethod::Ps) {
            OpStrategy::Dp { replicas, .. } => {
                assert_eq!(replicas[0], 2); // V100
                assert_eq!(replicas[2], 1); // 1080Ti
                assert!(replicas[6] >= 1); // P100
            }
            _ => panic!("expected DP"),
        }
    }

    #[test]
    fn shard_proportional_orders_by_power() {
        let c = paper_testbed_8gpu();
        match OpStrategy::shard_proportional(&c, 0) {
            OpStrategy::Shard { dim, shards } => {
                assert_eq!(dim, 0);
                assert_eq!(shards.len(), 8);
                // V100 slice strictly larger than 1080Ti slice.
                assert!(shards[0] > shards[2]);
                assert!(shards.iter().all(|&w| w >= 1));
            }
            _ => panic!("expected Shard"),
        }
    }

    #[test]
    fn validate_catches_every_invalid_shape() {
        let c = paper_testbed_8gpu();
        let ok = Strategy::even(3, &c, CommMethod::Ps);
        assert_eq!(ok.validate(&c), Ok(()));

        let mut mp_bad = ok.clone();
        mp_bad.per_op[1] = OpStrategy::Mp(DeviceId(8));
        assert!(matches!(
            mp_bad.validate(&c),
            Err(StrategyError::MpOutOfRange { op: 1, .. })
        ));

        let mut short = ok.clone();
        short.per_op[2] = OpStrategy::Dp {
            replicas: vec![1; 7],
            comm: CommMethod::Ps,
        };
        assert!(matches!(
            short.validate(&c),
            Err(StrategyError::ReplicaLengthMismatch { op: 2, len: 7, .. })
        ));

        let mut empty = ok;
        empty.per_op[0] = OpStrategy::Dp {
            replicas: vec![0; 8],
            comm: CommMethod::AllReduce,
        };
        assert!(matches!(
            empty.validate(&c),
            Err(StrategyError::NoReplicas { op: 0 })
        ));
    }

    #[test]
    fn validation_errors_name_devices_and_roster() {
        let c = paper_testbed_8gpu();
        let mut s = Strategy::even(2, &c, CommMethod::Ps);
        s.per_op[0] = OpStrategy::Mp(DeviceId(11));
        let err = s.validate(&c).unwrap_err();
        match &err {
            StrategyError::MpOutOfRange {
                op, device, valid, ..
            } => {
                assert_eq!(*op, 0);
                assert_eq!(*device, DeviceId(11));
                assert!(valid.contains("G0 (Tesla V100)"), "roster: {valid}");
                assert!(valid.contains("GTX 1080Ti"), "model names: {valid}");
            }
            other => panic!("expected MpOutOfRange, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("G11"), "missing offending id: {msg}");
        assert!(msg.contains("G0 (Tesla V100)"), "missing roster: {msg}");
    }

    #[test]
    fn validate_rejects_stale_shard_vectors() {
        let c = paper_testbed_8gpu();
        let mut s = Strategy::even(2, &c, CommMethod::Ps);
        // Shard vector from a 9-device cluster, weighting the removed G8.
        let mut shards = vec![1u32; 9];
        shards[8] = 3;
        s.per_op[1] = OpStrategy::Shard { dim: 0, shards };
        match s.validate(&c) {
            Err(StrategyError::ShardDeviceMissing { op: 1, device, .. }) => {
                assert_eq!(device, DeviceId(8));
            }
            other => panic!("expected ShardDeviceMissing, got {other:?}"),
        }

        // Same length but only zero weight past the end: a plain length
        // mismatch.
        let mut s2 = Strategy::even(1, &c, CommMethod::Ps);
        s2.per_op[0] = OpStrategy::Shard {
            dim: 0,
            shards: (0..9).map(|i| u32::from(i < 8)).collect(),
        };
        assert!(matches!(
            s2.validate(&c),
            Err(StrategyError::ShardLengthMismatch { op: 0, len: 9, .. })
        ));

        // All-zero shard vector.
        let mut s3 = Strategy::even(1, &c, CommMethod::Ps);
        s3.per_op[0] = OpStrategy::Shard {
            dim: 0,
            shards: vec![0; 8],
        };
        assert!(matches!(
            s3.validate(&c),
            Err(StrategyError::NoShards { op: 0 })
        ));
    }

    #[test]
    fn histogram_buckets() {
        let c = paper_testbed_8gpu();
        let mut s = Strategy::even(12, &c, CommMethod::AllReduce);
        s.per_op[0] = OpStrategy::Mp(DeviceId(0));
        s.per_op[1] = OpStrategy::proportional(&c, CommMethod::Ps);
        s.per_op[2] = OpStrategy::shard_proportional(&c, 0);
        let (mp, dp) = s.histogram(&c);
        assert_eq!(mp[0], 1);
        assert_eq!(dp[1], 9); // EV-AR
        assert_eq!(dp[2], 1); // CP-PS
        assert_eq!(dp[5], 1); // Shard
    }

    /// `pack` then `unpack` is the identity, and `matches` accepts the
    /// packed strategy itself.
    fn assert_round_trips(s: &Strategy) -> PackedStrategy {
        let p = PackedStrategy::pack(s);
        assert_eq!(p.index.len(), s.per_op.len());
        assert_eq!(&p.unpack(), s);
        assert!(p.matches(s));
        assert_eq!(PackedStrategy::pack(&p.unpack()), p, "packing is canonical");
        p
    }

    #[test]
    fn a_uniform_strategy_packs_to_one_decision() {
        let c = paper_testbed_8gpu();
        let s = Strategy::proportional(40, &c, CommMethod::AllReduce);
        let p = assert_round_trips(&s);
        assert_eq!(&p.decisions[..], &s.per_op[..1]);
    }

    #[test]
    fn a_mixed_strategy_packs_each_decision_once_in_first_use_order() {
        let c = paper_testbed_8gpu();
        let mut s = Strategy::even(12, &c, CommMethod::AllReduce);
        s.per_op[0] = OpStrategy::Mp(DeviceId(3));
        s.per_op[5] = OpStrategy::shard_proportional(&c, 0);
        s.per_op[6] = OpStrategy::Mp(DeviceId(3));
        s.per_op[9] = OpStrategy::proportional(&c, CommMethod::Ps);
        let p = assert_round_trips(&s);
        assert_eq!(
            &p.decisions[..],
            [
                OpStrategy::Mp(DeviceId(3)),
                OpStrategy::even(&c, CommMethod::AllReduce),
                OpStrategy::shard_proportional(&c, 0),
                OpStrategy::proportional(&c, CommMethod::Ps),
            ]
        );
    }

    #[test]
    fn a_strategy_whose_every_op_differs_packs_every_decision() {
        let per_op: Vec<OpStrategy> = (0..300u32)
            .map(|i| match i % 3 {
                0 => OpStrategy::Dp {
                    replicas: vec![i, 1, 2],
                    comm: CommMethod::Ps,
                },
                1 => OpStrategy::Shard {
                    dim: i,
                    shards: vec![1, 1, 1],
                },
                _ => OpStrategy::Mp(DeviceId(i)),
            })
            .collect();
        let s = Strategy::from_per_op(per_op);
        let p = assert_round_trips(&s);
        assert_eq!(&p.decisions[..], &s.per_op[..]);
    }

    #[test]
    fn matches_rejects_one_changed_op_and_a_different_op_count() {
        let c = paper_testbed_8gpu();
        let s = Strategy::even(10, &c, CommMethod::AllReduce);
        let p = PackedStrategy::pack(&s);
        let mut changed = s.clone();
        changed.per_op[7] = OpStrategy::even(&c, CommMethod::Ps);
        assert!(!p.matches(&changed));
        let mut replica = s.clone();
        if let OpStrategy::Dp { replicas, .. } = &mut replica.per_op[9] {
            replicas[4] = 2;
        }
        assert!(!p.matches(&replica));
        assert!(!p.matches(&Strategy::even(9, &c, CommMethod::AllReduce)));
        assert!(!p.matches(&Strategy::even(11, &c, CommMethod::AllReduce)));
        assert!(!PackedStrategy::pack(&Strategy::from_per_op(Vec::new())).matches(&s));
    }
}
