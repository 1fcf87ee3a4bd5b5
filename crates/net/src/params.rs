//! Link capacities and latencies for the network models.

use hog_sim_core::units::gbit_per_s;
use hog_sim_core::SimDuration;

/// Per-node NIC transmit capacity (bytes/s): the 1 Gbps Ethernet of
/// Table III, on the grid and the dedicated cluster alike.
pub const NIC_UP: f64 = gbit_per_s(1.0);

/// Loopback rate for src == dst transfers (bytes/s); effectively local
/// disk-to-disk copy speed.
pub const LOOPBACK: f64 = gbit_per_s(8.0);

/// One-way latency between nodes of the same site.
pub const INTRA_SITE_LATENCY: SimDuration = SimDuration::from_millis(1);

/// Capacities (bytes/second) and latencies for the grid network.
/// Per-node transmit capacity ([`NIC_UP`]), loopback rate
/// ([`LOOPBACK`]) and same-site latency ([`INTRA_SITE_LATENCY`]) are the
/// same in every configuration.
///
/// The defaults mirror the paper's environment: worker nodes with 1 Gbps
/// NICs (Table III), sites whose internal bandwidth dwarfs their WAN
/// uplinks, and wide-area RTTs in the tens of milliseconds (§III-B.2 notes
/// the WAN's "high latency and long transmission time" for
/// JobTracker↔TaskTracker HTTP traffic).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetParams {
    /// Per-node NIC receive capacity (bytes/s).
    pub nic_down: f64,
    /// Per-site WAN egress capacity (bytes/s), shared by all nodes at the
    /// site for inter-site flows.
    pub site_up: f64,
    /// Per-site WAN ingress capacity (bytes/s).
    pub site_down: f64,
    /// One-way latency between nodes of different sites.
    pub inter_site_latency: SimDuration,
}

impl NetParams {
    /// Grid defaults: 1 Gbps NICs, 6 Gbps site uplinks, 50 ms WAN one-way
    /// latency, 1 ms LAN latency.
    pub fn grid_default() -> Self {
        NetParams {
            nic_down: gbit_per_s(1.0),
            site_up: gbit_per_s(6.0),
            site_down: gbit_per_s(6.0),
            inter_site_latency: SimDuration::from_millis(50),
        }
    }

    /// Dedicated-cluster defaults (Table III): everything is one site on a
    /// 1 Gbps LAN; "site" links are a non-blocking switch (set high enough
    /// to never bottleneck before the NICs).
    pub fn lan_default() -> Self {
        NetParams {
            nic_down: gbit_per_s(1.0),
            site_up: gbit_per_s(40.0),
            site_down: gbit_per_s(40.0),
            inter_site_latency: INTRA_SITE_LATENCY,
        }
    }
}

impl Default for NetParams {
    fn default() -> Self {
        Self::grid_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let g = NetParams::grid_default();
        assert!(g.site_up > NIC_UP, "site uplink should exceed one NIC");
        assert!(g.inter_site_latency > INTRA_SITE_LATENCY);
        let l = NetParams::lan_default();
        assert_eq!(l.inter_site_latency, INTRA_SITE_LATENCY);
    }
}
