//! Fixed-rate-per-class network model.
//!
//! Each flow gets a constant bandwidth decided only by its class (loopback /
//! intra-site / inter-site) with no sharing. Cheap and predictable — used by
//! substrate unit tests, and as a fidelity ablation against [`crate::FluidNet`]
//! (how much do the paper's results depend on congestion modelling?).

use crate::params::NetParams;
use crate::topology::{NodeId, SiteId};
use crate::{FlowEnd, FlowId, FlowOutcome, Network};
use hog_sim_core::units::transfer_secs;
use hog_sim_core::{SimDuration, SimTime};
use std::collections::HashMap;

/// Fraction of the site uplink a single inter-site flow receives. Models
/// steady-state WAN contention without tracking other flows; with the
/// default 5 Gbps uplink this yields 0.5 Gbps per WAN flow, half a NIC.
const WAN_FLOW_FRACTION: f64 = 0.1;

#[derive(Clone, Copy, Debug)]
struct Flow {
    tag: u64,
    src: NodeId,
    dst: NodeId,
    finish: SimTime,
}

/// The static network model. See the module docs.
pub struct StaticNet {
    params: NetParams,
    sites_of: HashMap<NodeId, SiteId>,
    flows: HashMap<FlowId, Flow>,
    next_flow_id: u64,
}

impl StaticNet {
    /// A static network with the given parameters.
    pub fn new(params: NetParams) -> Self {
        StaticNet {
            params,
            sites_of: HashMap::new(),
            flows: HashMap::new(),
            next_flow_id: 0,
        }
    }

    fn rate_for(&self, src: NodeId, dst: NodeId) -> f64 {
        if src == dst {
            return self.params.loopback;
        }
        match (self.sites_of.get(&src), self.sites_of.get(&dst)) {
            (Some(a), Some(b)) if a == b => self.params.nic_up.min(self.params.nic_down),
            _ => (self.params.site_up * WAN_FLOW_FRACTION)
                .min(self.params.nic_up)
                .min(self.params.nic_down),
        }
    }
}

impl Network for StaticNet {
    fn register_node(&mut self, node: NodeId, site: SiteId) {
        self.sites_of.insert(node, site);
    }

    fn remove_node(&mut self, _now: SimTime, node: NodeId) -> Vec<FlowEnd> {
        let mut killed = Vec::new();
        self.flows.retain(|&id, f| {
            if f.src == node || f.dst == node {
                killed.push(FlowEnd {
                    id,
                    tag: f.tag,
                    src: f.src,
                    dst: f.dst,
                    outcome: FlowOutcome::Killed,
                });
                false
            } else {
                true
            }
        });
        // Deterministic report order despite HashMap iteration.
        killed.sort_by_key(|e| e.id);
        self.sites_of.remove(&node);
        killed
    }

    fn latency(&self, src: NodeId, dst: NodeId) -> SimDuration {
        if src == dst {
            return SimDuration::ZERO;
        }
        match (self.sites_of.get(&src), self.sites_of.get(&dst)) {
            (Some(a), Some(b)) if a == b => self.params.intra_site_latency,
            _ => self.params.inter_site_latency,
        }
    }

    fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> FlowId {
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        let secs = transfer_secs(bytes, self.rate_for(src, dst));
        let finish = now + SimDuration::from_secs_f64(secs);
        self.flows.insert(
            id,
            Flow {
                tag,
                src,
                dst,
                finish,
            },
        );
        id
    }

    fn cancel_flow(&mut self, _now: SimTime, id: FlowId) {
        self.flows.remove(&id);
    }

    fn advance(&mut self, now: SimTime) -> Vec<FlowEnd> {
        let mut done: Vec<FlowEnd> = Vec::new();
        self.flows.retain(|&id, f| {
            if f.finish <= now {
                done.push(FlowEnd {
                    id,
                    tag: f.tag,
                    src: f.src,
                    dst: f.dst,
                    outcome: FlowOutcome::Completed,
                });
                false
            } else {
                true
            }
        });
        done.sort_by_key(|e| e.id);
        done
    }

    fn next_completion(&mut self) -> Option<SimTime> {
        self.flows.values().map(|f| f.finish).min()
    }

    fn active_flows(&self) -> usize {
        self.flows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hog_sim_core::units::MIB;

    fn net() -> StaticNet {
        let mut n = StaticNet::new(NetParams::grid_default());
        n.register_node(NodeId(0), SiteId(0));
        n.register_node(NodeId(1), SiteId(0));
        n.register_node(NodeId(2), SiteId(1));
        n
    }

    #[test]
    fn intra_site_uses_nic_rate() {
        let mut n = net();
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 125_000_000, 0);
        let t = n.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 0.01);
    }

    #[test]
    fn inter_site_is_slower_than_intra() {
        let mut n = net();
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 50 * MIB, 0);
        let intra = n.next_completion().unwrap();
        let mut n2 = net();
        n2.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), 50 * MIB, 0);
        let inter = n2.next_completion().unwrap();
        assert!(inter > intra, "WAN flow must be slower: {inter} vs {intra}");
    }

    #[test]
    fn flows_complete_independently() {
        let mut n = net();
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 10 * MIB, 1);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 20 * MIB, 2);
        let t1 = n.next_completion().unwrap();
        let ends = n.advance(t1);
        assert_eq!(ends.len(), 1);
        assert_eq!(ends[0].tag, 1);
        assert_eq!(n.active_flows(), 1);
    }

    #[test]
    fn remove_node_reports_killed_flows_sorted() {
        let mut n = net();
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), MIB, 1);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), MIB, 2);
        n.start_flow(SimTime::ZERO, NodeId(1), NodeId(2), MIB, 3);
        let killed = n.remove_node(SimTime::ZERO, NodeId(0));
        assert_eq!(killed.len(), 2);
        assert!(killed[0].id < killed[1].id);
        assert_eq!(n.active_flows(), 1);
    }

    #[test]
    fn latency_and_loopback() {
        let n = net();
        assert_eq!(n.latency(NodeId(0), NodeId(0)), SimDuration::ZERO);
        assert_eq!(
            n.latency(NodeId(0), NodeId(1)),
            NetParams::grid_default().intra_site_latency
        );
        assert_eq!(
            n.latency(NodeId(0), NodeId(2)),
            NetParams::grid_default().inter_site_latency
        );
    }
}
