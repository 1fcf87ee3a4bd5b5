//! Network and topology model for the HOG reproduction.
//!
//! The paper's performance story hinges on one asymmetry: *bandwidth inside
//! a site is much larger than bandwidth between sites* (HOG §III-B.1). This
//! crate provides:
//!
//! * [`topology`] — node/site identity, DNS-style hostnames and the
//!   `workername.site.edu → site.edu` grouping rule HOG's site-awareness
//!   script applies.
//! * [`params`] — link capacities and latencies ([`NetParams`]).
//! * [`fluid`] — an event-driven **max-min fair fluid-flow** network
//!   ([`FluidNet`]): every active transfer gets a rate from progressive
//!   filling over node NICs and site uplinks; rates are recomputed whenever
//!   the flow set changes.
//! * [`static_net`] — a cheap fixed-rate-per-class model ([`StaticNet`])
//!   used in unit tests and as a modelling-fidelity ablation.
//!
//! Both models implement the [`Network`] trait consumed by the HDFS and
//! MapReduce substrates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fluid;
pub mod params;
pub mod static_net;
pub mod topology;
pub mod wan;

pub use fluid::FluidNet;
pub use params::NetParams;
pub use wan::{WanDone, WanTier, WanTransferId};
pub use static_net::StaticNet;
pub use topology::{site_domain_of, NodeId, RackId, SiteId, Topology, RACK_SIZE};

use hog_sim_core::{SimDuration, SimTime};

/// Identifier of an in-flight transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// How a flow ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowOutcome {
    /// All bytes were delivered.
    Completed,
    /// An endpoint vanished (node preempted) or the flow was cancelled.
    Killed,
}

/// A finished transfer, as reported by [`Network::advance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowEnd {
    /// The flow that ended.
    pub id: FlowId,
    /// Caller-supplied correlation tag (opaque to the network).
    pub tag: u64,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Whether it completed or was killed.
    pub outcome: FlowOutcome,
}

/// A bulk-transfer network model.
///
/// Protocol expected by the simulation mediator:
/// 1. on a network tick, call [`Network::advance`] with the current time and
///    handle the returned [`FlowEnd`]s;
/// 2. start/cancel flows as needed;
/// 3. re-arm one tick at [`Network::next_completion`] (spurious ticks are
///    harmless — `advance` just returns nothing).
///
/// A model may defer the rate recompute a start triggers: [`FluidNet`]
/// queues same-instant starts and settles them all with one pass per
/// touched component. Every other call (and the clock moving on) flushes
/// that queue first, which is why [`Network::next_completion`] takes
/// `&mut self`; no `Network` caller can observe the deferral.
pub trait Network {
    /// Make `node` (living in `site`) usable as a flow endpoint.
    fn register_node(&mut self, node: NodeId, site: SiteId);

    /// Remove `node`; every flow touching it is killed and reported in the
    /// returned vector immediately (not via `advance`).
    fn remove_node(&mut self, now: SimTime, node: NodeId) -> Vec<FlowEnd>;

    /// One-way propagation latency between two (registered) nodes.
    fn latency(&self, src: NodeId, dst: NodeId) -> SimDuration;

    /// Begin transferring `bytes` from `src` to `dst`. `tag` is returned in
    /// the eventual [`FlowEnd`]. Zero-byte flows complete on the next
    /// `advance`.
    fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> FlowId;

    /// Like [`Network::start_flow`], but the source side is *diffuse*: the
    /// bytes really originate from many nodes of the source's site (e.g. a
    /// shuffle batch covering every map output at that site), so the
    /// single representative node's NIC must not be modelled as the
    /// bottleneck — only the site uplink and the receiver constrain the
    /// flow. The default implementation falls back to a normal flow.
    fn start_flow_diffuse(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> FlowId {
        self.start_flow(now, src, dst, bytes, tag)
    }

    /// Cancel an in-flight flow (no `FlowEnd` is emitted). Unknown ids are
    /// ignored (the flow may have completed in the same instant).
    fn cancel_flow(&mut self, now: SimTime, id: FlowId);

    /// Progress the model to `now`, returning every flow that finished at or
    /// before `now`.
    fn advance(&mut self, now: SimTime) -> Vec<FlowEnd>;

    /// Like [`Network::advance`], but appends the finished flows to a
    /// caller-owned buffer so hot loops can reuse its allocation. The
    /// default implementation delegates to `advance`.
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<FlowEnd>) {
        out.append(&mut self.advance(now));
    }

    /// The instant the earliest in-flight flow will finish, if any
    /// (settling any deferred recompute first).
    fn next_completion(&mut self) -> Option<SimTime>;

    /// Number of in-flight flows (diagnostics).
    fn active_flows(&self) -> usize;
}
