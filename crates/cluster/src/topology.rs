//! Cluster topology: servers, GPUs, link processors and transfer paths.

use crate::device::{Device, DeviceId, GpuModel};
use crate::link::{bandwidth, latency, Link, LinkId, LinkKind};

/// Errors from cluster construction/queries.
#[derive(Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// A device id was out of range.
    BadDevice(DeviceId, usize),
    /// No path exists between the pair (only src == dst).
    NoPath(DeviceId, DeviceId),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::BadDevice(id, n) => write!(f, "device {id} out of range ({n} devices)"),
            ClusterError::NoPath(a, b) => write!(f, "no path from {a} to {b} (same device)"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// One physical server.
#[derive(Debug, Clone)]
pub struct Server {
    /// Hostname-ish label.
    pub name: String,
    /// NIC bandwidth to the switch, bytes/s.
    pub nic_bps: f64,
    /// Whether same-server GPUs are NVLink-connected (V100 box) or PCIe.
    pub nvlink: bool,
}

/// A heterogeneous GPU cluster.
///
/// Link processors are materialized eagerly (see [`crate::link`] for the
/// model): a directed intra-server link per same-server GPU pair, plus an
/// egress and an ingress NIC channel per server. `path_between` returns
/// the 1 (intra) or 2 (cross-server, cut-through) link processors a
/// transfer occupies.
#[derive(Debug, Clone)]
pub struct Cluster {
    servers: Vec<Server>,
    devices: Vec<Device>,
    links: Vec<Link>,
    /// `paths[src][dst]` -> the link processors a transfer occupies.
    paths: Vec<Vec<Vec<LinkId>>>,
}

impl Cluster {
    /// Builds a cluster from servers and their GPUs.
    pub fn new(servers: Vec<Server>, devices: Vec<Device>) -> Self {
        let m = devices.len();
        let mut links: Vec<Link> = Vec::new();
        let mut add = |kind, bw, lat, label: String| {
            let id = LinkId(links.len() as u32);
            links.push(Link {
                id,
                kind,
                bandwidth_bps: bw,
                latency_s: lat,
                label: label.into(),
            });
            id
        };

        // Intra-server directed GPU-pair links.
        let mut intra = vec![vec![None; m]; m];
        for (i, a) in devices.iter().enumerate() {
            for (j, b) in devices.iter().enumerate() {
                if i == j || a.server != b.server {
                    continue;
                }
                let s = &servers[a.server as usize];
                let (kind, bw) = if s.nvlink {
                    (LinkKind::NvLink, bandwidth::NVLINK)
                } else {
                    (LinkKind::Pcie, bandwidth::PCIE)
                };
                intra[i][j] = Some(add(kind, bw, latency::INTRA, format!("G{i}->G{j}")));
            }
        }

        // Per-server NIC channels.
        let mut nic_out = Vec::with_capacity(servers.len());
        let mut nic_in = Vec::with_capacity(servers.len());
        for (si, s) in servers.iter().enumerate() {
            nic_out.push(add(
                LinkKind::NicOut,
                s.nic_bps,
                latency::INTER,
                format!("srv{si}.out"),
            ));
            nic_in.push(add(
                LinkKind::NicIn,
                s.nic_bps,
                latency::INTER,
                format!("srv{si}.in"),
            ));
        }

        // Transfer paths.
        let mut paths = vec![vec![Vec::new(); m]; m];
        for (i, a) in devices.iter().enumerate() {
            for (j, b) in devices.iter().enumerate() {
                if i == j {
                    continue;
                }
                paths[i][j] = if a.server == b.server {
                    vec![intra[i][j].expect("intra link exists")]
                } else {
                    vec![nic_out[a.server as usize], nic_in[b.server as usize]]
                };
            }
        }

        Cluster {
            servers,
            devices,
            links,
            paths,
        }
    }

    /// Number of GPUs (the paper's `M`).
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Number of link processors (bounded by `M^2`, the paper's loose
    /// maximum — intra pairs plus two NIC channels per server).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Device ids in order.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.devices.len() as u32).map(DeviceId)
    }

    /// Immutable device access.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// All devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// All servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// All link processors.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link processors a `src -> dst` transfer occupies (1 intra link,
    /// or egress + ingress NIC for cross-server). Errors on `src == dst`.
    pub fn path_between(&self, src: DeviceId, dst: DeviceId) -> Result<&[LinkId], ClusterError> {
        let m = self.devices.len();
        if src.index() >= m {
            return Err(ClusterError::BadDevice(src, m));
        }
        if dst.index() >= m {
            return Err(ClusterError::BadDevice(dst, m));
        }
        let p = &self.paths[src.index()][dst.index()];
        if p.is_empty() {
            return Err(ClusterError::NoPath(src, dst));
        }
        Ok(p)
    }

    /// End-to-end time for `bytes` from `src` to `dst` using the links'
    /// nominal parameters: cut-through, so the slowest path segment
    /// governs. (The profiler's fitted model refines this per link.)
    pub fn nominal_transfer_time(&self, src: DeviceId, dst: DeviceId, bytes: u64) -> f64 {
        match self.path_between(src, dst) {
            Ok(p) => p
                .iter()
                .map(|&l| self.link(l).transfer_time(bytes))
                .fold(0.0, f64::max),
            Err(_) => 0.0,
        }
    }

    /// Relative computation power per device, normalized so the minimum
    /// is 1.0 — drives proportional (CP-*) replica allocation. Runtime
    /// slowdowns ([`Device::speed_factor`]) count: a throttled V100 can
    /// rank below a healthy 1080 Ti.
    pub fn relative_powers(&self) -> Vec<f64> {
        let powers: Vec<f64> = self.devices.iter().map(|d| d.effective_tflops()).collect();
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        powers.into_iter().map(|p| p / min).collect()
    }

    /// Device ids grouped by hosting server.
    pub fn devices_by_server(&self) -> Vec<Vec<DeviceId>> {
        let mut by: Vec<Vec<DeviceId>> = vec![Vec::new(); self.servers.len()];
        for (i, d) in self.devices.iter().enumerate() {
            by[d.server as usize].push(DeviceId(i as u32));
        }
        by
    }

    /// Per-GPU memory capacities in device order (what the simulator's
    /// OOM check consumes).
    pub fn memory_capacities(&self) -> Vec<u64> {
        self.devices.iter().map(|d| d.memory_bytes).collect()
    }

    /// True when every GPU has the same hardware model.
    pub fn is_homogeneous(&self) -> bool {
        self.devices.windows(2).all(|w| w[0].model == w[1].model)
    }

    /// Scales the bandwidth of every link of `kind` (all links when
    /// `None`) by `factor`, in place. Used by what-if sensitivity
    /// analysis ("NIC at 2x bandwidth"); the servers' nominal `nic_bps`
    /// is left untouched — the link processors are what the compiler and
    /// simulator price transfers against, and [`Self::fingerprint`]
    /// hashes them, so caches keyed on the fingerprint stay correct.
    pub fn scale_link_bandwidth(&mut self, kind: Option<LinkKind>, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bandwidth factor must be positive, got {factor}"
        );
        for l in &mut self.links {
            if kind.is_none() || kind == Some(l.kind) {
                l.bandwidth_bps *= factor;
            }
        }
    }

    /// Replaces one device's GPU model in place; its memory capacity
    /// follows the new model. Used by what-if sensitivity analysis
    /// ("what if G3 were a V100").
    pub fn set_device_model(&mut self, id: DeviceId, model: GpuModel) {
        let d = &mut self.devices[id.index()];
        d.model = model;
        d.memory_bytes = model.memory_bytes();
    }

    /// Scales one device's runtime speed factor in place ("G3 is running
    /// at half speed"): `factor` multiplies the current
    /// [`Device::speed_factor`], so a 0.5 slowdown followed by a 2.0
    /// recovery restores nominal throughput. Compute durations on the
    /// device scale by the inverse; memory capacity is unchanged.
    pub fn scale_device_speed(&mut self, id: DeviceId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "speed factor must be positive, got {factor}"
        );
        self.devices[id.index()].speed_factor *= factor;
    }

    /// Builder-style [`Self::scale_link_bandwidth`]: a new cluster with
    /// every link of `kind` (all links when `None`) scaled by `factor`.
    pub fn with_scaled_link(&self, kind: Option<LinkKind>, factor: f64) -> Cluster {
        let mut c = self.clone();
        c.scale_link_bandwidth(kind, factor);
        c
    }

    /// Builder-style [`Self::scale_device_speed`]: a new cluster with one
    /// device's speed factor multiplied by `factor`.
    pub fn with_scaled_device(&self, id: DeviceId, factor: f64) -> Cluster {
        let mut c = self.clone();
        c.scale_device_speed(id, factor);
        c
    }

    /// Builder-style [`Self::set_device_model`]: a new cluster with one
    /// device swapped for a different GPU model.
    pub fn with_device_model(&self, id: DeviceId, model: GpuModel) -> Cluster {
        let mut c = self.clone();
        c.set_device_model(id, model);
        c
    }

    /// A new cluster with one device removed (remaining devices shift
    /// down to stay contiguous). Servers are kept even if they end up
    /// empty, so NIC channels for the other machines are unchanged.
    /// Surviving devices keep their runtime speed factors; link-class
    /// bandwidth scaling applied via [`Self::scale_link_bandwidth`] is
    /// reset to nominal by the rebuild (callers tracking degraded links
    /// re-apply it — see `heterog-elastic`'s cluster state).
    pub fn without_device(&self, id: DeviceId) -> Cluster {
        assert!(id.index() < self.devices.len(), "device {id} out of range");
        let devices: Vec<Device> = self
            .devices
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != id.index())
            .map(|(_, d)| *d)
            .collect();
        Cluster::new(self.servers.clone(), devices)
    }

    /// A new cluster with a healthy device of `model` added to an
    /// existing server ("a spare GPU joins"). The new device takes the
    /// highest id; existing ids are unchanged. As with
    /// [`Self::without_device`], the rebuild resets link-class bandwidth
    /// scaling to nominal.
    pub fn with_joined_device(&self, server: u32, model: GpuModel) -> Cluster {
        assert!(
            (server as usize) < self.servers.len(),
            "server {server} out of range ({} servers)",
            self.servers.len()
        );
        let mut devices = self.devices.clone();
        devices.push(Device::new(model, server));
        Cluster::new(self.servers.clone(), devices)
    }

    /// Structural fingerprint of the cluster: a stable 64-bit hash over
    /// servers (name, NIC bandwidth, NVLink flag), devices (model,
    /// server, memory) and link processors (kind, bandwidth, latency).
    ///
    /// Two clusters with the same fingerprint present the same hardware
    /// to the compiler and simulator, so a plan or evaluation kept for
    /// one is valid for the other. Floats hash by bit pattern.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.servers.len().hash(&mut h);
        for s in &self.servers {
            s.name.hash(&mut h);
            s.nic_bps.to_bits().hash(&mut h);
            s.nvlink.hash(&mut h);
        }
        self.devices.len().hash(&mut h);
        for d in &self.devices {
            d.model.hash(&mut h);
            d.server.hash(&mut h);
            d.memory_bytes.hash(&mut h);
            d.speed_factor.to_bits().hash(&mut h);
        }
        self.links.len().hash(&mut h);
        for l in &self.links {
            l.kind.hash(&mut h);
            l.bandwidth_bps.to_bits().hash(&mut h);
            l.latency_s.to_bits().hash(&mut h);
        }
        h.finish()
    }
}

/// Convenience builder for uniform test clusters: `n` GPUs of one model
/// spread over servers of `per_server` GPUs each, PCIe internally,
/// `nic_bps` NICs.
pub fn uniform_cluster(model: GpuModel, n: usize, per_server: usize, nic_bps: f64) -> Cluster {
    assert!(per_server > 0);
    let num_servers = n.div_ceil(per_server);
    let servers: Vec<Server> = (0..num_servers)
        .map(|i| Server {
            name: format!("srv{i}"),
            nic_bps,
            nvlink: false,
        })
        .collect();
    let devices: Vec<Device> = (0..n)
        .map(|i| Device::new(model, (i / per_server) as u32))
        .collect();
    Cluster::new(servers, devices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_server_cluster() -> Cluster {
        let servers = vec![
            Server {
                name: "a".into(),
                nic_bps: 10e9,
                nvlink: true,
            },
            Server {
                name: "b".into(),
                nic_bps: 5e9,
                nvlink: false,
            },
        ];
        let devices = vec![
            Device::new(GpuModel::TeslaV100, 0),
            Device::new(GpuModel::TeslaV100, 0),
            Device::new(GpuModel::Gtx1080Ti, 1),
            Device::new(GpuModel::Gtx1080Ti, 1),
        ];
        Cluster::new(servers, devices)
    }

    #[test]
    fn link_processor_inventory() {
        let c = two_server_cluster();
        // 2 intra pairs per server (directed) + 2 NIC channels per server.
        assert_eq!(c.num_links(), 2 + 2 + 4);
    }

    #[test]
    fn intra_path_is_single_local_link() {
        let c = two_server_cluster();
        let p = c.path_between(DeviceId(0), DeviceId(1)).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(c.link(p[0]).kind, LinkKind::NvLink);
        let p2 = c.path_between(DeviceId(2), DeviceId(3)).unwrap();
        assert_eq!(c.link(p2[0]).kind, LinkKind::Pcie);
    }

    #[test]
    fn cross_path_occupies_both_nics() {
        let c = two_server_cluster();
        let p = c.path_between(DeviceId(0), DeviceId(2)).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(c.link(p[0]).kind, LinkKind::NicOut);
        assert_eq!(c.link(p[1]).kind, LinkKind::NicIn);
        assert_eq!(c.link(p[0]).bandwidth_bps, 10e9);
        assert_eq!(c.link(p[1]).bandwidth_bps, 5e9);
    }

    #[test]
    fn cross_transfers_share_the_nic_channel() {
        let c = two_server_cluster();
        let a = c.path_between(DeviceId(0), DeviceId(2)).unwrap();
        let b = c.path_between(DeviceId(1), DeviceId(3)).unwrap();
        // Same source server: same egress NIC processor.
        assert_eq!(a[0], b[0]);
        // Same destination server: same ingress NIC processor.
        assert_eq!(a[1], b[1]);
    }

    #[test]
    fn nominal_time_governed_by_slower_nic() {
        let c = two_server_cluster();
        let t = c.nominal_transfer_time(DeviceId(0), DeviceId(2), 5_000_000_000);
        assert!(
            (t - 1.0).abs() < 0.01,
            "5GB over the 5GB/s NIC ≈ 1s, got {t}"
        );
    }

    #[test]
    fn no_self_path() {
        let c = two_server_cluster();
        assert_eq!(
            c.path_between(DeviceId(1), DeviceId(1)).unwrap_err(),
            ClusterError::NoPath(DeviceId(1), DeviceId(1))
        );
    }

    #[test]
    fn bad_device_rejected() {
        let c = two_server_cluster();
        assert!(matches!(
            c.path_between(DeviceId(9), DeviceId(0)),
            Err(ClusterError::BadDevice(..))
        ));
    }

    #[test]
    fn relative_powers_normalized_to_slowest() {
        let c = two_server_cluster();
        let p = c.relative_powers();
        assert_eq!(p[2], 1.0);
        assert!((p[0] - 2.0).abs() < 0.3);
    }

    #[test]
    fn devices_by_server_partitions_all() {
        let c = two_server_cluster();
        let by = c.devices_by_server();
        assert_eq!(by.len(), 2);
        assert_eq!(by[0].len(), 2);
        assert_eq!(by[1].len(), 2);
    }

    #[test]
    fn uniform_cluster_is_homogeneous() {
        let c = uniform_cluster(GpuModel::TeslaP100, 6, 2, 5e9);
        assert!(c.is_homogeneous());
        assert_eq!(c.num_devices(), 6);
        assert_eq!(c.servers().len(), 3);
    }

    #[test]
    fn heterogeneous_detection() {
        let c = two_server_cluster();
        assert!(!c.is_homogeneous());
    }

    #[test]
    fn fingerprint_is_stable_and_discriminates() {
        let a = two_server_cluster();
        let b = two_server_cluster();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A rebuilt-identical cluster matches; hardware changes don't.
        let u1 = uniform_cluster(GpuModel::TeslaV100, 8, 4, 10e9);
        let u2 = uniform_cluster(GpuModel::TeslaV100, 8, 4, 10e9);
        assert_eq!(u1.fingerprint(), u2.fingerprint());
        let slower_nic = uniform_cluster(GpuModel::TeslaV100, 8, 4, 5e9);
        let other_model = uniform_cluster(GpuModel::TeslaP100, 8, 4, 10e9);
        let fewer_gpus = uniform_cluster(GpuModel::TeslaV100, 4, 4, 10e9);
        assert_ne!(u1.fingerprint(), slower_nic.fingerprint());
        assert_ne!(u1.fingerprint(), other_model.fingerprint());
        assert_ne!(u1.fingerprint(), fewer_gpus.fingerprint());
        assert_ne!(a.fingerprint(), u1.fingerprint());
    }

    #[test]
    fn scale_link_bandwidth_targets_one_kind() {
        let mut c = two_server_cluster();
        let nic_before: Vec<f64> = c
            .links()
            .iter()
            .filter(|l| l.kind == LinkKind::NicIn)
            .map(|l| l.bandwidth_bps)
            .collect();
        let fp_before = c.fingerprint();
        c.scale_link_bandwidth(Some(LinkKind::NicIn), 2.0);
        let nic_after: Vec<f64> = c
            .links()
            .iter()
            .filter(|l| l.kind == LinkKind::NicIn)
            .map(|l| l.bandwidth_bps)
            .collect();
        for (b, a) in nic_before.iter().zip(&nic_after) {
            assert_eq!(*a, 2.0 * b);
        }
        // Other kinds untouched; fingerprint sees the change.
        assert!(c
            .links()
            .iter()
            .filter(|l| l.kind == LinkKind::NvLink)
            .all(|l| l.bandwidth_bps == bandwidth::NVLINK));
        assert_ne!(c.fingerprint(), fp_before);
    }

    #[test]
    fn set_device_model_updates_power_and_memory() {
        let mut c = two_server_cluster();
        c.set_device_model(DeviceId(2), GpuModel::TeslaV100);
        assert_eq!(c.device(DeviceId(2)).model, GpuModel::TeslaV100);
        assert_eq!(
            c.device(DeviceId(2)).memory_bytes,
            GpuModel::TeslaV100.memory_bytes()
        );
        let p = c.relative_powers();
        assert_eq!(p[2], p[0]);
    }

    #[test]
    fn without_device_shifts_and_keeps_paths_valid() {
        let c = two_server_cluster();
        let smaller = c.without_device(DeviceId(1));
        assert_eq!(smaller.num_devices(), 3);
        // Old G2/G3 (the 1080Ti server) are now G1/G2 and still reachable.
        assert_eq!(smaller.device(DeviceId(1)).model, GpuModel::Gtx1080Ti);
        for a in smaller.device_ids() {
            for b in smaller.device_ids() {
                if a != b {
                    assert!(smaller.path_between(a, b).is_ok());
                }
            }
        }
    }

    #[test]
    fn scale_device_speed_compounds_and_discriminates_fingerprint() {
        let mut c = two_server_cluster();
        let fp0 = c.fingerprint();
        c.scale_device_speed(DeviceId(0), 0.5);
        c.scale_device_speed(DeviceId(0), 0.5);
        assert_eq!(c.device(DeviceId(0)).speed_factor, 0.25);
        assert_ne!(c.fingerprint(), fp0, "slowdown must change the fingerprint");
        // Recovery restores nominal speed and the original fingerprint.
        c.scale_device_speed(DeviceId(0), 4.0);
        assert_eq!(c.device(DeviceId(0)).speed_factor, 1.0);
        assert_eq!(c.fingerprint(), fp0);
    }

    #[test]
    fn throttled_v100_ranks_below_healthy_1080ti() {
        let mut c = two_server_cluster();
        c.scale_device_speed(DeviceId(0), 0.25);
        let p = c.relative_powers();
        // V100 at quarter speed (3.5 TF) is now the slowest device.
        assert_eq!(p[0], 1.0);
        assert!(p[2] > 1.0);
    }

    #[test]
    fn builder_mutations_leave_original_untouched() {
        let c = two_server_cluster();
        let fp = c.fingerprint();
        let scaled = c.with_scaled_link(Some(LinkKind::NicOut), 0.5);
        let slowed = c.with_scaled_device(DeviceId(1), 0.5);
        let upgraded = c.with_device_model(DeviceId(2), GpuModel::TeslaV100);
        assert_eq!(c.fingerprint(), fp);
        for other in [&scaled, &slowed, &upgraded] {
            assert_ne!(other.fingerprint(), fp);
        }
        assert_eq!(
            scaled
                .links()
                .iter()
                .find(|l| l.kind == LinkKind::NicOut)
                .unwrap()
                .bandwidth_bps,
            0.5 * c
                .links()
                .iter()
                .find(|l| l.kind == LinkKind::NicOut)
                .unwrap()
                .bandwidth_bps
        );
    }

    #[test]
    fn joined_device_takes_highest_id_and_is_reachable() {
        let c = two_server_cluster();
        let bigger = c.with_joined_device(1, GpuModel::TeslaV100);
        assert_eq!(bigger.num_devices(), 5);
        let new_id = DeviceId(4);
        assert_eq!(bigger.device(new_id).model, GpuModel::TeslaV100);
        assert_eq!(bigger.device(new_id).server, 1);
        assert_eq!(bigger.device(new_id).speed_factor, 1.0);
        // Existing devices keep their ids and models.
        for i in 0..4u32 {
            assert_eq!(
                bigger.device(DeviceId(i)).model,
                c.device(DeviceId(i)).model
            );
        }
        for a in bigger.device_ids() {
            for b in bigger.device_ids() {
                if a != b {
                    assert!(bigger.path_between(a, b).is_ok());
                }
            }
        }
    }

    #[test]
    fn without_device_preserves_survivor_speed_factors() {
        let mut c = two_server_cluster();
        c.scale_device_speed(DeviceId(3), 0.5);
        let smaller = c.without_device(DeviceId(0));
        // Old G3 is now G2 and still throttled.
        assert_eq!(smaller.device(DeviceId(2)).speed_factor, 0.5);
    }

    #[test]
    fn link_count_within_paper_bound() {
        let c = uniform_cluster(GpuModel::TeslaV100, 12, 4, 10e9);
        let m = c.num_devices();
        assert!(c.num_links() <= m * m);
    }
}
