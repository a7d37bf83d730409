//! Communication links.
//!
//! HeteroG's order scheduler "further treat\[s\] a link between two GPUs as
//! a device" (§4.2): communication operations occupy links the same way
//! computation operations occupy GPUs. Modeling every GPU pair as an
//! independent full-bandwidth channel would hide the effect the paper's
//! motivation hinges on — "the links to parameter servers may become the
//! bottlenecks" (§2.3) — because in a real cluster all cross-server
//! traffic of one machine shares its NIC.
//!
//! The cluster therefore materializes two classes of link *processors*:
//!
//! * one directed link per same-server GPU pair (NVLink or PCIe), and
//! * one ingress + one egress NIC channel per server.
//!
//! A cross-server transfer occupies the source server's egress NIC and
//! the destination server's ingress NIC *concurrently* (cut-through
//! switching): its end-to-end time is governed by the slower NIC, while
//! both NICs are busy for the transfer's duration — so seven workers
//! pushing gradients to one parameter server serialize on that server's
//! ingress NIC, exactly the PS bottleneck of §2.3.

use std::sync::Arc;

/// Index of a link processor inside a [`crate::Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Arena index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Physical realization of a link processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Same-server GPU-to-GPU over NVLink (V100 machines).
    NvLink,
    /// Same-server GPU-to-GPU over the PCIe root complex.
    Pcie,
    /// A server's egress NIC channel (shared by all its outbound flows).
    NicOut,
    /// A server's ingress NIC channel (shared by all its inbound flows).
    NicIn,
}

/// A link processor: a communication channel tasks can occupy.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Stable index within the cluster.
    pub id: LinkId,
    /// Physical kind.
    pub kind: LinkKind,
    /// Sustained bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Per-transfer fixed latency in seconds (kernel launch, rendezvous,
    /// NIC doorbell...). Small but load-bearing for many-small-tensor
    /// models like ResNet/NasNet.
    pub latency_s: f64,
    /// Human-readable label, e.g. `"G0->G1"` or `"srv2.in"`. Shared
    /// (`Arc`) so lazily-named link tasks can hold it without copying.
    pub label: Arc<str>,
}

impl Link {
    /// Time to move `bytes` over this link, seconds.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// Nominal bandwidths (bytes/s). RDMA NICs sustain ~85% of line rate;
/// PCIe 3.0 x16 ~12 GB/s effective; NVLink (V100, 2 bricks) ~40 GB/s.
pub mod bandwidth {
    /// NVLink between V100s on the same server.
    pub const NVLINK: f64 = 40.0e9;
    /// PCIe 3.0 x16 effective.
    pub const PCIE: f64 = 12.0e9;
    /// 100GbE RDMA NIC effective (~85% of 12.5 GB/s line rate).
    pub const NIC_100GBE: f64 = 10.5e9;
    /// 50GbE RDMA NIC effective.
    pub const NIC_50GBE: f64 = 5.3e9;
}

/// Nominal latencies (seconds).
pub mod latency {
    /// Same-server copy setup.
    pub const INTRA: f64 = 8.0e-6;
    /// Cross-server per-transfer cost: RDMA rendezvous, switch hop and —
    /// dominating in practice — the training runtime's send/recv op
    /// dispatch around each tensor (the paper's profiler measures
    /// transfer time end-to-end through TensorFlow, which includes this).
    /// Charged per NIC segment; a cut-through transfer pays it roughly
    /// once since the segments overlap.
    pub const INTER: f64 = 0.5e-3;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(bw: f64, lat: f64) -> Link {
        Link {
            id: LinkId(0),
            kind: LinkKind::Pcie,
            bandwidth_bps: bw,
            latency_s: lat,
            label: "t".into(),
        }
    }

    #[test]
    fn transfer_time_includes_latency() {
        let l = link(1e9, 1e-5);
        let t = l.transfer_time(1_000_000);
        assert!((t - (1e-5 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let l = link(1e9, 2.5e-5);
        assert_eq!(l.transfer_time(0), 2.5e-5);
    }

    #[test]
    fn bandwidth_ordering_is_sane() {
        const { assert!(bandwidth::NVLINK > bandwidth::PCIE) };
        const { assert!(bandwidth::PCIE > bandwidth::NIC_100GBE) };
        const { assert!(bandwidth::NIC_100GBE > bandwidth::NIC_50GBE) };
    }
}
