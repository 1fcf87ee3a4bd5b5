//! TaskTracker state as held by the JobTracker.

use crate::job::TaskKind;
use crate::AttemptRef;
use hog_net::SiteId;
use hog_sim_core::{Liveness, SimTime};
use std::collections::BTreeSet;

/// Per-tracker record.
#[derive(Clone, Debug)]
pub struct TrackerState {
    /// The site the tracker's node lives in (read on every heartbeat by
    /// the policy's admission checks, and passed to its failure hooks).
    pub site: SiteId,
    /// Concurrent map tasks this node may run (1 on HOG glideins; per
    /// Table III, 4 or 2 on the dedicated cluster).
    pub map_slots: u8,
    /// Concurrent reduce tasks (1 everywhere in the paper).
    pub reduce_slots: u8,
    /// Attempts currently running here.
    pub running: BTreeSet<AttemptRef>,
    /// When the tracker registered, went silent or revived, like
    /// `DatanodeInfo::last_heartbeat` in hog-hdfs. Heartbeats of a
    /// `Live` tracker leave it alone: it is read only while the tracker
    /// is `Silent` (the death check times the silence from it) and by
    /// the ledger, so an idle heartbeat changes nothing.
    pub last_heartbeat: SimTime,
    /// Liveness as the JobTracker sees it (changed only through the
    /// JobTracker's [`hog_sim_core::LivenessIndex`]).
    pub liveness: Liveness,
    /// Scratch disk capacity for intermediate data.
    pub scratch_capacity: u64,
    /// Scratch bytes in use (map outputs of unfinished jobs).
    pub scratch_used: u64,
}

impl TrackerState {
    /// A fresh tracker in `site`.
    pub fn new(site: SiteId, map_slots: u8, reduce_slots: u8, scratch: u64, now: SimTime) -> Self {
        TrackerState {
            site,
            map_slots,
            reduce_slots,
            running: BTreeSet::new(),
            last_heartbeat: now,
            liveness: Liveness::Live,
            scratch_capacity: scratch,
            scratch_used: 0,
        }
    }

    /// Running attempts of a kind.
    pub fn running_of(&self, kind: TaskKind) -> usize {
        self.running.iter().filter(|a| a.task.kind == kind).count()
    }

    /// Free map slots.
    pub fn free_map_slots(&self) -> usize {
        (self.map_slots as usize).saturating_sub(self.running_of(TaskKind::Map))
    }

    /// Free reduce slots.
    pub fn free_reduce_slots(&self) -> usize {
        (self.reduce_slots as usize).saturating_sub(self.running_of(TaskKind::Reduce))
    }

    /// Reserve scratch space for intermediate data; `false` = disk full
    /// (the §IV-D.2 failure).
    pub fn try_reserve_scratch(&mut self, bytes: u64) -> bool {
        if self.scratch_used + bytes > self.scratch_capacity {
            return false;
        }
        self.scratch_used += bytes;
        true
    }

    /// Release scratch space (job retired or attempt discarded).
    pub fn release_scratch(&mut self, bytes: u64) {
        self.scratch_used = self.scratch_used.saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, TaskRef};

    fn att(kind: TaskKind, idx: u32) -> AttemptRef {
        AttemptRef {
            task: TaskRef {
                job: JobId(0),
                kind,
                index: idx,
            },
            attempt: 0,
        }
    }

    #[test]
    fn slot_accounting() {
        let mut t = TrackerState::new(SiteId(0), 4, 1, 1000, SimTime::ZERO);
        assert_eq!(t.free_map_slots(), 4);
        t.running.insert(att(TaskKind::Map, 0));
        t.running.insert(att(TaskKind::Map, 1));
        t.running.insert(att(TaskKind::Reduce, 0));
        assert_eq!(t.free_map_slots(), 2);
        assert_eq!(t.free_reduce_slots(), 0);
    }

    #[test]
    fn scratch_reservation() {
        let mut t = TrackerState::new(SiteId(0), 1, 1, 100, SimTime::ZERO);
        assert!(t.try_reserve_scratch(60));
        assert!(!t.try_reserve_scratch(41), "over capacity");
        assert!(t.try_reserve_scratch(40));
        t.release_scratch(60);
        assert_eq!(t.scratch_used, 40);
        t.release_scratch(1000); // saturates
        assert_eq!(t.scratch_used, 0);
    }
}
