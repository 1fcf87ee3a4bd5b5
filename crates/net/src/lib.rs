//! Network and topology model for the HOG reproduction.
//!
//! The paper's performance story hinges on one asymmetry: *bandwidth inside
//! a site is much larger than bandwidth between sites* (HOG §III-B.1). This
//! crate provides:
//!
//! * [`topology`] — node/site/rack identity and the
//!   `workername.site.edu → site.edu` grouping rule HOG's site-awareness
//!   script applies.
//! * [`nodes`] — the node-indexed container [`NodeMap`] for per-node
//!   state probed on every heartbeat.
//! * [`params`] — link capacities and latencies ([`NetParams`]).
//! * [`fluid`] — an event-driven **max-min fair fluid-flow** network
//!   ([`FluidNet`]): every active transfer gets a rate from progressive
//!   filling over node NICs and site uplinks; rates are recomputed whenever
//!   the flow set changes.
//! * [`wan`] — the inter-pool backbone of a federation ([`WanTier`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fluid;
pub mod nodes;
pub mod params;
pub mod topology;
pub mod wan;

pub use fluid::FluidNet;
pub use nodes::NodeMap;
pub use params::NetParams;
pub use topology::{site_domain_of, NodeId, RackId, SiteId, Topology, RACK_SIZE};
pub use wan::{WanDone, WanTier, WanTransferId};

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

/// A finished transfer, as reported by [`FluidNet::advance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowEnd {
    /// The flow that ended.
    pub id: FlowId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Whether it completed or was killed.
    pub outcome: FlowOutcome,
}
