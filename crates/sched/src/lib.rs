//! Pluggable slot-assignment policies for the HOG JobTracker.
//!
//! HOG inherits stock Hadoop's FIFO job queue, but the locality/fairness
//! dimension of its evaluation (the workload replays Zaharia's delay-
//! scheduling study) is policy-sensitive: on a churny multi-site pool the
//! scheduler decides how much map input crosses the WAN and which nodes
//! absorb retries. This crate factors those decisions out of the
//! JobTracker behind the [`Scheduler`] trait so policies can be swapped
//! without touching the MapReduce mechanics.
//!
//! Three policies ship:
//!
//! * [`FifoSched`] — stock Hadoop: strict submission order, three-level
//!   locality ladder (node → site → remote), no gating. A byte-faithful
//!   port of the pre-trait JobTracker; the scale benchmark's outcome
//!   fingerprints prove it bit-identical.
//! * [`FairSched`] — fair sharing (fewest running tasks first) plus
//!   *delay scheduling*: a job briefly declines non-local slots, walking
//!   down a four-level ladder (node → rack → site → remote) as its wait
//!   grows.
//! * [`FailureAwareSched`] — ATLAS-style reliability placement: attempt
//!   failures and tracker deaths accrue an exponentially-decaying penalty
//!   per node and per site; work (and especially speculative copies) is
//!   kept off nodes whose penalty exceeds per-kind thresholds.
//!
//! # Division of labour
//!
//! The JobTracker keeps all *mechanism*: task tables, the locality
//! ladder, slot accounting, speculation bookkeeping. A [`Scheduler`]
//! only makes *choices*, through three query hooks —
//! [`Scheduler::job_order`] (which job gets the next slot),
//! [`Scheduler::locality_gate`] (take this locality level now, or wait),
//! [`Scheduler::admit`] / [`Scheduler::allow_speculation`] (is this node
//! acceptable at all) — and observes the world through `on_*` feedback
//! callbacks. Of the query hooks only `locality_gate` takes `&mut self`:
//! the others are pure, which lets the JobTracker skip `job_order`,
//! `admit` and `allow_speculation` on slots that could receive nothing.
//!
//! # Determinism rules
//!
//! Policies must be deterministic functions of their call history: no
//! ambient randomness, no clocks other than the passed [`SimTime`], no
//! iteration over unordered containers when the order can influence a
//! decision. Everything here upholds that, so two same-seed runs of any
//! policy produce bit-identical simulations (covered by the determinism
//! suite in `hog-core`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod failure;
mod fair;
mod fifo;

pub use failure::FailureAwareSched;
pub use fair::FairSched;
pub use fifo::FifoSched;

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

/// Which slot type an assignment decision concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// A map slot.
    Map,
    /// A reduce slot.
    Reduce,
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

/// What a policy sees of one job when ordering the queue: identity,
/// submission order, and its load for the slot kind being assigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobSnapshot {
    /// Job id (the JobTracker's dense `JobId.0`).
    pub id: u32,
    /// Position in the submission-order queue (0 = oldest incomplete).
    pub queue_pos: usize,
    /// Pending (unassigned) tasks of the queried slot kind.
    pub pending: u32,
    /// Currently running attempts of the queried slot kind.
    pub running: u32,
}

/// A slot-assignment policy.
///
/// The JobTracker consults the policy on every heartbeat slot that
/// could receive work; all methods must be deterministic (see the crate
/// docs). Every hook except
/// [`Scheduler::name`] and [`Scheduler::job_order`] has a permissive
/// default, so a minimal policy only decides job order.
pub trait Scheduler {
    /// Short policy name for reports and traces (e.g. `"fifo"`).
    fn name(&self) -> &'static str;

    /// Whether the JobTracker should offer the rack-local rung of the
    /// locality ladder to this policy. FIFO keeps the paper's exact
    /// node → site → remote ladder and returns `false`.
    fn rack_aware(&self) -> bool {
        false
    }

    /// Order the incomplete jobs for assignment of one `kind` slot: push
    /// job ids into `out`, highest priority first. Jobs arrive in
    /// submission order; a pure FIFO policy copies the ids through.
    ///
    /// The order must be a *pure function* of the snapshot slice and the
    /// slot kind — `&self` and the absence of a clock enforce it. The
    /// JobTracker asks afresh each time it walks pending work or scans
    /// for stragglers, and it skips the call outright when the slot
    /// could receive nothing (nothing of that kind pending, and no
    /// speculation scan due): that is what keeps idle heartbeats O(1)
    /// instead of O(jobs) at 10k nodes. Stateful choices belong in
    /// [`Scheduler::locality_gate`] and the `on_*` hooks, which still run
    /// on every attempt.
    fn job_order(&self, jobs: &[JobSnapshot], kind: SlotKind, out: &mut Vec<u32>);

    /// The best locality level available to `job` on the heartbeating
    /// node is `level`: take it, or defer hoping for better placement?
    /// Never called with a strictly better level available.
    fn locality_gate(&mut self, job: u32, level: Locality, now: SimTime) -> Gate {
        let _ = (job, level, now);
        Gate::Accept
    }

    /// Whether `kind` work may be placed on `node` at all (failure-aware
    /// quarantine). Returning `false` leaves the node's slots idle this
    /// heartbeat; the default accepts everything.
    ///
    /// The answer must be a *pure function* of the policy state and the
    /// arguments — `&self` enforces it. The JobTracker therefore skips
    /// the call for a slot that could receive nothing whatever it
    /// answers: nothing of `kind` pending, and speculation off or before
    /// its quiet instant.
    fn admit(&self, node: NodeId, site: SiteId, kind: SlotKind, now: SimTime) -> bool {
        let _ = (node, site, kind, now);
        true
    }

    /// Whether a *speculative* copy may be placed on `node`. Policies
    /// biasing away from churn-prone nodes typically hold speculation to
    /// a stricter standard than first attempts. Pure, like
    /// [`Scheduler::admit`]: the JobTracker asks only once the
    /// speculation quiet instant has passed.
    fn allow_speculation(&self, node: NodeId, site: SiteId, now: SimTime) -> bool {
        let _ = (node, site, now);
        true
    }

    /// A job left the queue (completed or failed); drop its state.
    fn on_job_removed(&mut self, job: u32, now: SimTime) {
        let _ = (job, now);
    }

    /// An assignment was made. `locality` is `Some` for maps (including
    /// speculative copies, which run remote) and `None` for reduces.
    fn on_assigned(
        &mut self,
        job: u32,
        kind: SlotKind,
        node: NodeId,
        locality: Option<Locality>,
        now: SimTime,
    ) {
        let _ = (job, kind, node, locality, now);
    }

    /// An attempt of `job` failed on `node`, which lives in `site`
    /// (blamed failures only, not kill-by-sibling).
    fn on_attempt_failed(&mut self, job: u32, node: NodeId, site: SiteId, now: SimTime) {
        let _ = (job, node, site, now);
    }

    /// The tasktracker on `node`, which lives in `site`, was declared
    /// dead.
    fn on_tracker_dead(&mut self, node: NodeId, site: SiteId, now: SimTime) {
        let _ = (node, site, now);
    }

    /// The policy's current failure penalty for a whole site (0.0 when
    /// the policy keeps no failure history). The elastic pool controller
    /// reads this to release workers at churn-prone sites first.
    fn site_penalty(&self, site: SiteId, now: SimTime) -> f64 {
        let _ = (site, now);
        0.0
    }

    /// Clone this policy, state included, into a fresh box. Master
    /// checkpointing snapshots the live policy through this hook so
    /// accumulated failure history survives a JobTracker failover.
    fn box_clone(&self) -> Box<dyn Scheduler>;
}

impl Clone for Box<dyn Scheduler> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Which policy a cluster runs. `Copy` so it can ride inside the plain-
/// old-data MapReduce parameter struct; construct the live policy with
/// [`build`].
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
    /// Short name matching [`Scheduler::name`] (CLI flags, reports).
    pub fn as_str(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Fair => "fair",
            SchedPolicy::FailureAware => "failure_aware",
        }
    }
}

/// Instantiate the live policy for a [`SchedPolicy`] selector, with each
/// policy's default tuning.
pub fn build(policy: SchedPolicy) -> Box<dyn Scheduler> {
    match policy {
        SchedPolicy::Fifo => Box::new(FifoSched::new()),
        SchedPolicy::Fair => Box::new(FairSched::new()),
        SchedPolicy::FailureAware => Box::new(FailureAwareSched::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in [
            SchedPolicy::Fifo,
            SchedPolicy::Fair,
            SchedPolicy::FailureAware,
        ] {
            assert_eq!(build(p).name(), p.as_str());
        }
        assert_eq!(SchedPolicy::default(), SchedPolicy::Fifo);
    }

    #[test]
    fn locality_orders_best_to_worst() {
        assert!(Locality::NodeLocal < Locality::RackLocal);
        assert!(Locality::RackLocal < Locality::SiteLocal);
        assert!(Locality::SiteLocal < Locality::Remote);
    }
}
