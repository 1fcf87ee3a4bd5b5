//! Slot-assignment policies for the HOG JobTracker.
//!
//! HOG inherits stock Hadoop's FIFO job queue, but the locality/fairness
//! dimension of its evaluation (the workload replays Zaharia's delay-
//! scheduling study) is policy-sensitive: on a churny multi-site pool the
//! scheduler decides how much map input crosses the WAN and which nodes
//! absorb retries. This crate holds those decisions in one [`Scheduler`]
//! value, which the JobTracker owns, so the MapReduce mechanics stay the
//! same under every policy.
//!
//! Three policies ship, one [`Scheduler`] variant each:
//!
//! * [`Scheduler::Fifo`] — stock Hadoop: strict submission order,
//!   three-level locality ladder (node → site → remote), no gating. It
//!   holds no state.
//! * [`Scheduler::Fair`] ([`FairSched`]) — fair sharing (fewest running
//!   tasks first) plus *delay scheduling*: a job briefly declines
//!   non-local slots, walking down a four-level ladder (node → rack →
//!   site → remote) as its wait grows.
//! * [`Scheduler::FailureAware`] ([`FailureAwareSched`]) — ATLAS-style
//!   reliability placement: attempt failures and tracker deaths accrue an
//!   exponentially-decaying penalty per node and per site; work (and
//!   especially speculative copies) is kept off nodes whose penalty
//!   exceeds per-kind thresholds.
//!
//! # Division of labour
//!
//! The JobTracker keeps all *mechanism*: task tables, the locality
//! ladder, slot accounting, speculation bookkeeping. The [`Scheduler`]
//! only makes *choices* —
//! [`Scheduler::job_order`] (which job gets the next slot),
//! [`Scheduler::locality_gate`] (take this locality level now, or wait),
//! [`Scheduler::admit`] / [`Scheduler::allow_speculation`] (is this node
//! acceptable at all) — and observes the world through `on_*` feedback
//! calls. Of the choices only `locality_gate` takes `&mut self`: the
//! others are pure, which lets the JobTracker skip `job_order`, `admit`
//! and `allow_speculation` on slots that could receive nothing.
//!
//! # Determinism rules
//!
//! Policies are deterministic functions of their call history: no
//! ambient randomness, no clocks other than the passed [`SimTime`], no
//! iteration over unordered containers when the order can influence a
//! decision. So two same-seed runs of any policy produce bit-identical
//! simulations (covered by the determinism suite in `hog-core`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod failure;
mod fair;

pub use failure::FailureAwareSched;
pub use fair::FairSched;

use hog_net::{NodeId, SiteId};
use hog_sim_core::SimTime;

/// Locality level of a map assignment, best to worst. FIFO uses the
/// paper's three-level ladder (never producing [`Locality::RackLocal`]);
/// rack-aware policies insert the synthesised rack tier between node and
/// site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Locality {
    /// Input block has a replica on the assigned node.
    NodeLocal,
    /// A replica lives in the same (synthesised) rack.
    RackLocal,
    /// A replica lives in the same site.
    SiteLocal,
    /// Input must cross the WAN.
    Remote,
}

/// Map or reduce side: of a task, and of the slot it runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// A map task (one input block).
    Map,
    /// A reduce task (one partition).
    Reduce,
}

impl TaskKind {
    /// `"map"` or `"reduce"` (trace fields).
    pub fn as_str(self) -> &'static str {
        match self {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        }
    }
}

/// Verdict of [`Scheduler::locality_gate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// Take the assignment at the offered locality level.
    Accept,
    /// Decline; leave the job's tasks pending and move to the next job
    /// (delay scheduling hopes a better-placed slot frees up soon).
    Defer,
}

/// The JobTracker's slot-assignment policy, with its state.
///
/// The JobTracker consults it on every heartbeat slot that could receive
/// work. `Clone` copies the state too, so a master checkpoint (a clone of
/// the JobTracker) carries the failure history across a failover.
#[derive(Clone, Debug)]
pub enum Scheduler {
    /// Stock Hadoop FIFO (the paper's configuration): submission order,
    /// any locality level taken at once, every node acceptable.
    Fifo,
    /// Fair sharing + delay scheduling.
    Fair(FairSched),
    /// ATLAS-style failure-aware placement on top of FIFO order.
    FailureAware(FailureAwareSched),
}

impl Scheduler {
    /// The live policy for a [`SchedPolicy`] selector, with its default
    /// tuning and no history.
    pub fn new(policy: SchedPolicy) -> Self {
        match policy {
            SchedPolicy::Fifo => Scheduler::Fifo,
            SchedPolicy::Fair => Scheduler::Fair(FairSched::default()),
            SchedPolicy::FailureAware => Scheduler::FailureAware(FailureAwareSched::default()),
        }
    }

    /// Whether the JobTracker offers the rack-local rung of the locality
    /// ladder. Only Fair does; FIFO keeps the paper's exact node → site →
    /// remote ladder.
    pub fn rack_aware(&self) -> bool {
        matches!(self, Scheduler::Fair(_))
    }

    /// Reorder the incomplete jobs' ids, given in submission order, into
    /// assignment order for one slot: highest priority first. `running`
    /// gives a job's running attempts of the slot's kind. Only Fair
    /// reorders: fewest running first, ties in submission order.
    ///
    /// The order is a *pure function* of the queue and the counts —
    /// `&self` and the absence of a clock enforce it. The JobTracker asks
    /// afresh each time it walks pending work or scans for stragglers,
    /// and it skips the call outright when the slot could receive nothing
    /// (nothing of that kind pending, and no speculation scan due): that
    /// is what keeps idle heartbeats O(1) instead of O(jobs) at 10k
    /// nodes.
    pub fn job_order(&self, queue: &mut [u32], running: impl Fn(u32) -> u32) {
        if let Scheduler::Fair(_) = self {
            queue.sort_by_key(|&job| running(job));
        }
    }

    /// The best locality level available to `job` on the heartbeating
    /// node is `level`: take it, or defer hoping for better placement?
    /// Never called with a strictly better level available.
    pub fn locality_gate(&mut self, job: u32, level: Locality, now: SimTime) -> Gate {
        match self {
            Scheduler::Fair(f) => f.locality_gate(job, level, now),
            _ => Gate::Accept,
        }
    }

    /// Whether `kind` work may be placed on `node`, which lives in
    /// `site`, at all (failure-aware quarantine). `false` leaves the
    /// node's slots idle this heartbeat.
    ///
    /// The answer is a *pure function* of the policy state and the
    /// arguments — `&self` enforces it. The JobTracker therefore skips
    /// the call for a slot that could receive nothing whatever it
    /// answers: nothing of `kind` pending, and speculation off or before
    /// its quiet instant.
    pub fn admit(&self, node: NodeId, site: SiteId, kind: TaskKind, now: SimTime) -> bool {
        match self {
            Scheduler::FailureAware(f) => f.admit(node, site, kind, now),
            _ => true,
        }
    }

    /// Whether a *speculative* copy may be placed on `node`: failure
    /// awareness holds speculation to a stricter standard than first
    /// attempts. Pure, like [`Scheduler::admit`]: the JobTracker asks
    /// only once the speculation quiet instant has passed.
    pub fn allow_speculation(&self, node: NodeId, site: SiteId, now: SimTime) -> bool {
        match self {
            Scheduler::FailureAware(f) => f.allow_speculation(node, site, now),
            _ => true,
        }
    }

    /// A job left the queue (completed or failed); drop its state.
    pub fn on_job_removed(&mut self, job: u32) {
        if let Scheduler::Fair(f) = self {
            f.on_job_removed(job);
        }
    }

    /// A map of `job` launched at `locality` (speculative copies run
    /// remote).
    pub fn on_map_launched(&mut self, job: u32, locality: Locality) {
        if let Scheduler::Fair(f) = self {
            f.on_map_launched(job, locality);
        }
    }

    /// An attempt failed on `node`, which lives in `site` (blamed
    /// failures only, not kill-by-sibling).
    pub fn on_attempt_failed(&mut self, node: NodeId, site: SiteId, now: SimTime) {
        if let Scheduler::FailureAware(f) = self {
            f.on_attempt_failed(node, site, now);
        }
    }

    /// The tasktracker on `node`, which lives in `site`, was declared
    /// dead.
    pub fn on_tracker_dead(&mut self, node: NodeId, site: SiteId, now: SimTime) {
        if let Scheduler::FailureAware(f) = self {
            f.on_tracker_dead(node, site, now);
        }
    }

    /// The current failure penalty of a whole site (0.0 for policies
    /// that keep no failure history). The elastic pool controller reads
    /// this to release workers at churn-prone sites first.
    pub fn site_penalty(&self, site: SiteId, now: SimTime) -> f64 {
        match self {
            Scheduler::FailureAware(f) => f.site_penalty(site, now),
            _ => 0.0,
        }
    }
}

/// Which policy a cluster runs. `Copy` so it can ride inside the plain-
/// old-data MapReduce parameter struct; construct the live policy with
/// [`Scheduler::new`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Stock Hadoop FIFO (the paper's configuration; the default).
    #[default]
    Fifo,
    /// Fair sharing + delay scheduling.
    Fair,
    /// ATLAS-style failure-aware placement on top of FIFO order.
    FailureAware,
}

impl SchedPolicy {
    /// Short name for CLI flags, reports and the JobTracker ledger.
    pub fn as_str(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Fair => "fair",
            SchedPolicy::FailureAware => "failure_aware",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ledger prints these names, so they are part of every master
    /// checkpoint's fingerprint.
    #[test]
    fn policy_names_round_trip() {
        for (p, name) in [
            (SchedPolicy::Fifo, "fifo"),
            (SchedPolicy::Fair, "fair"),
            (SchedPolicy::FailureAware, "failure_aware"),
        ] {
            assert_eq!(p.as_str(), name);
        }
        assert!(matches!(Scheduler::new(SchedPolicy::Fifo), Scheduler::Fifo));
        assert!(matches!(
            Scheduler::new(SchedPolicy::Fair),
            Scheduler::Fair(_)
        ));
        assert!(matches!(
            Scheduler::new(SchedPolicy::FailureAware),
            Scheduler::FailureAware(_)
        ));
        assert_eq!(SchedPolicy::default(), SchedPolicy::Fifo);
    }

    #[test]
    fn locality_orders_best_to_worst() {
        assert!(Locality::NodeLocal < Locality::RackLocal);
        assert!(Locality::RackLocal < Locality::SiteLocal);
        assert!(Locality::SiteLocal < Locality::Remote);
    }

    /// FIFO and FailureAware keep submission order; Fair puts the fewest
    /// running first and breaks ties by submission order.
    #[test]
    fn job_order_by_policy() {
        let running = |job: u32| [4, 1, 1, 0, 9, 0, 0, 2][job as usize];
        let order = |policy| {
            let mut queue = [3, 7, 1, 0, 2];
            Scheduler::new(policy).job_order(&mut queue, running);
            queue
        };
        assert_eq!(order(SchedPolicy::Fifo), [3, 7, 1, 0, 2]);
        assert_eq!(order(SchedPolicy::FailureAware), [3, 7, 1, 0, 2]);
        assert_eq!(order(SchedPolicy::Fair), [3, 1, 2, 7, 0]);
    }

    #[test]
    fn fifo_is_permissive() {
        let mut f = Scheduler::new(SchedPolicy::Fifo);
        let (node, site, t) = (NodeId(0), SiteId(0), SimTime::ZERO);
        assert!(!f.rack_aware());
        assert_eq!(f.locality_gate(0, Locality::Remote, t), Gate::Accept);
        assert!(f.admit(node, site, TaskKind::Map, t));
        assert!(f.admit(node, site, TaskKind::Reduce, t));
        assert!(f.allow_speculation(node, site, t));
        f.on_tracker_dead(node, site, t);
        assert_eq!(f.site_penalty(site, t), 0.0);
    }
}
