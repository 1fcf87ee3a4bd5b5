//! Stock Hadoop FIFO: the policy the paper ran.

use crate::{JobSnapshot, Scheduler, SlotKind};

/// Strict submission-order scheduling with the three-level locality
/// ladder and no gating — a faithful port of the pre-trait JobTracker.
///
/// Every hook keeps its permissive default: jobs are offered slots oldest
/// first, any locality level is taken immediately, every node is
/// acceptable. The policy holds no state, so it is trivially
/// deterministic.
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoSched;

impl FifoSched {
    /// A FIFO policy.
    pub fn new() -> Self {
        FifoSched
    }
}

impl Scheduler for FifoSched {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn job_order(&self, jobs: &[JobSnapshot], _kind: SlotKind, out: &mut Vec<u32>) {
        out.extend(jobs.iter().map(|j| j.id));
    }

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hog_sim_core::SimTime;

    fn snap(id: u32, queue_pos: usize) -> JobSnapshot {
        JobSnapshot {
            id,
            queue_pos,
            pending: 1,
            running: 0,
        }
    }

    #[test]
    fn preserves_submission_order() {
        let f = FifoSched::new();
        let jobs = [snap(3, 0), snap(7, 1), snap(1, 2)];
        let mut out = Vec::new();
        f.job_order(&jobs, SlotKind::Map, &mut out);
        assert_eq!(out, vec![3, 7, 1]);
    }

    #[test]
    fn defaults_are_permissive() {
        use crate::{Gate, Locality};
        use hog_net::{NodeId, SiteId};
        let mut f = FifoSched::new();
        assert!(!f.rack_aware());
        assert_eq!(
            f.locality_gate(0, Locality::Remote, SimTime::ZERO),
            Gate::Accept
        );
        assert!(f.admit(NodeId(0), SiteId(0), SlotKind::Map, SimTime::ZERO));
        assert!(f.allow_speculation(NodeId(0), SiteId(0), SimTime::ZERO));
    }
}
