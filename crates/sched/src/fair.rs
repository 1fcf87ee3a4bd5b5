//! Fair sharing with delay scheduling (Zaharia et al., EuroSys 2010).

#[cfg(doc)]
use crate::Scheduler;
use crate::{Gate, Locality};
use hog_sim_core::{SimDuration, SimTime};
use std::collections::HashMap;

/// Fair sharing plus the D-wait locality heuristic.
///
/// **Fair sharing:** slots go to the job with the fewest running tasks of
/// the slot's kind (ties broken by submission order), instead of strict
/// FIFO. Small jobs stop queueing behind large ones.
///
/// **Delay scheduling:** when the best placement a heartbeat offers a job
/// is non-local, the job *declines* and keeps its tasks pending, betting
/// that a better-placed slot frees up within a few heartbeats. A per-job
/// wait clock starts at the first declined offer; as the wait grows the
/// job walks down the ladder — after `NODE_DELAY` (6 s) it accepts
/// rack-local, after `+ RACK_DELAY` (12 s) site-local, after
/// `+ SITE_DELAY` (24 s) anything. A node-local launch resets the clock
/// (locality is achievable again); non-local launches leave it running so
/// an unlucky job does not re-serve its full sentence per task.
///
/// This is the only shipped policy that uses the rack rung
/// ([`Scheduler::rack_aware`](crate::Scheduler::rack_aware) is `true`).
/// Its job order is in
/// [`Scheduler::job_order`](crate::Scheduler::job_order).
#[derive(Clone, Debug, Default)]
pub struct FairSched {
    /// Per-job wait-clock start (present = currently waiting).
    waiting_since: HashMap<u32, SimTime>,
}

/// Ladder waits, tuned for the 3-second HOG heartbeat: `NODE_DELAY`
/// before rack-local, `+ RACK_DELAY` before site-local, `+ SITE_DELAY`
/// before remote.
const NODE_DELAY: SimDuration = SimDuration::from_secs(6);
const RACK_DELAY: SimDuration = SimDuration::from_secs(6);
const SITE_DELAY: SimDuration = SimDuration::from_secs(12);

/// Total wait required before `level` becomes acceptable.
fn required_wait(level: Locality) -> SimDuration {
    match level {
        Locality::NodeLocal => SimDuration::ZERO,
        Locality::RackLocal => NODE_DELAY,
        Locality::SiteLocal => NODE_DELAY + RACK_DELAY,
        Locality::Remote => NODE_DELAY + RACK_DELAY + SITE_DELAY,
    }
}

impl FairSched {
    pub(crate) fn locality_gate(&mut self, job: u32, level: Locality, now: SimTime) -> Gate {
        if level == Locality::NodeLocal {
            return Gate::Accept;
        }
        let since = *self.waiting_since.entry(job).or_insert(now);
        if now.saturating_since(since) >= required_wait(level) {
            Gate::Accept
        } else {
            Gate::Defer
        }
    }

    /// A node-local map launch proves locality is achievable again:
    /// restart the job's sentence.
    pub(crate) fn on_map_launched(&mut self, job: u32, locality: Locality) {
        if locality == Locality::NodeLocal {
            self.waiting_since.remove(&job);
        }
    }

    pub(crate) fn on_job_removed(&mut self, job: u32) {
        self.waiting_since.remove(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_ladder_unlocks_with_wait() {
        let mut f = FairSched::default();
        let t = SimTime::from_secs;
        // Node-local is always acceptable and does not start the clock.
        assert_eq!(f.locality_gate(9, Locality::NodeLocal, t(0)), Gate::Accept);
        // First non-local offer starts the clock and defers.
        assert_eq!(f.locality_gate(9, Locality::RackLocal, t(0)), Gate::Defer);
        assert_eq!(f.locality_gate(9, Locality::RackLocal, t(5)), Gate::Defer);
        assert_eq!(f.locality_gate(9, Locality::RackLocal, t(6)), Gate::Accept);
        // Worse levels need longer waits.
        assert_eq!(f.locality_gate(9, Locality::SiteLocal, t(11)), Gate::Defer);
        assert_eq!(f.locality_gate(9, Locality::SiteLocal, t(12)), Gate::Accept);
        assert_eq!(f.locality_gate(9, Locality::Remote, t(23)), Gate::Defer);
        assert_eq!(f.locality_gate(9, Locality::Remote, t(24)), Gate::Accept);
    }

    #[test]
    fn node_local_launch_resets_the_clock() {
        let mut f = FairSched::default();
        let t = SimTime::from_secs;
        assert_eq!(f.locality_gate(1, Locality::Remote, t(0)), Gate::Defer);
        assert_eq!(f.locality_gate(1, Locality::Remote, t(24)), Gate::Accept);
        // Remote launch leaves the clock running...
        f.on_map_launched(1, Locality::Remote);
        assert_eq!(f.locality_gate(1, Locality::Remote, t(25)), Gate::Accept);
        // ...but a node-local launch resets it.
        f.on_map_launched(1, Locality::NodeLocal);
        assert_eq!(f.locality_gate(1, Locality::Remote, t(27)), Gate::Defer);
    }
}
