//! Datanode-side state as tracked by the namenode.
//!
//! The record holds only what the namenode can know from heartbeats and
//! block reports. A zombie's lost storage (§IV-D.1) is not here: the
//! namenode cannot see it, so the mediator in `hog-core` owns that fact.

use crate::types::BlockId;
use hog_net::SiteId;
use hog_sim_core::{Liveness, SimTime};
use std::collections::BTreeSet;

/// Per-datanode record.
#[derive(Clone, Debug)]
pub struct DatanodeInfo {
    /// Usable HDFS capacity in bytes.
    pub capacity: u64,
    /// The site the node registered from (its network location).
    pub site: SiteId,
    /// Bytes of block data currently stored.
    pub used: u64,
    /// Blocks hosted here.
    pub blocks: BTreeSet<BlockId>,
    /// Instant of the last heartbeat the namenode saw.
    pub last_heartbeat: SimTime,
    /// Liveness as the namenode sees it (changed only through the
    /// namenode's [`hog_sim_core::LivenessIndex`]).
    pub liveness: Liveness,
    /// In-flight replication transfers this node is sourcing or sinking.
    pub repl_streams: u8,
}

impl DatanodeInfo {
    /// A fresh, healthy datanode on `site`, registered at `now`.
    pub fn new(capacity: u64, site: SiteId, now: SimTime) -> Self {
        DatanodeInfo {
            capacity,
            site,
            used: 0,
            blocks: BTreeSet::new(),
            last_heartbeat: now,
            liveness: Liveness::Live,
            repl_streams: 0,
        }
    }

    /// Free capacity.
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }

    /// Whether this node can accept `bytes` more block data. A zombie
    /// claims it can (its heartbeats look healthy) — the namenode finds out
    /// when the write fails.
    pub fn can_accept(&self, bytes: u64) -> bool {
        self.liveness == Liveness::Live && self.free() >= bytes
    }

    /// Account a stored block.
    pub fn add_block(&mut self, block: BlockId, bytes: u64) {
        if self.blocks.insert(block) {
            self.used += bytes;
        }
    }

    /// Remove a block's accounting.
    pub fn remove_block(&mut self, block: BlockId, bytes: u64) {
        if self.blocks.remove(&block) {
            self.used = self.used.saturating_sub(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_accounting() {
        let mut dn = DatanodeInfo::new(100, SiteId(0), SimTime::ZERO);
        dn.add_block(BlockId(1), 40);
        dn.add_block(BlockId(2), 40);
        assert_eq!(dn.free(), 20);
        assert!(dn.can_accept(20));
        assert!(!dn.can_accept(21));
        dn.remove_block(BlockId(1), 40);
        assert_eq!(dn.free(), 60);
    }

    #[test]
    fn double_add_is_idempotent() {
        let mut dn = DatanodeInfo::new(100, SiteId(0), SimTime::ZERO);
        dn.add_block(BlockId(1), 40);
        dn.add_block(BlockId(1), 40);
        assert_eq!(dn.used, 40);
        dn.remove_block(BlockId(9), 40); // not present: no-op
        assert_eq!(dn.used, 40);
    }

    #[test]
    fn dead_nodes_accept_nothing() {
        let mut dn = DatanodeInfo::new(100, SiteId(0), SimTime::ZERO);
        dn.liveness = Liveness::Dead;
        assert!(!dn.can_accept(1));
    }
}
