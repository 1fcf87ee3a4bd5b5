//! Elastic glidein pool controller.
//!
//! The paper sizes its pool by hand (`queue 1000`) and Figure 4 sweeps
//! static pool sizes; this module closes the loop the paper leaves open:
//! a deterministic feedback controller that runs on the master tick,
//! compares task backlog against committed supply (running workers plus
//! requests already in the glidein pipeline), and resizes the pool via
//! [`GridModel::submit_workers`] / [`GridModel::remove_workers_preferring`].
//!
//! Three mechanisms keep it from thrashing against the 30 s death
//! detector and the slow glidein pipeline:
//!
//! * **Spin-up cost model** — a new worker costs mean batch-queue wait +
//!   package download + configuration (from [`SiteConfig`] and the
//!   [`crate::config`] package constants). Growth therefore acts on the
//!   *full* deficit at once (a second request later would pay the whole
//!   pipeline again), and capacity is never released unless the surplus
//!   has outlived the cost of re-acquiring it.
//! * **Hysteresis band** — grow when supply drops below target, shrink
//!   only when supply exceeds target by a band ([`HYSTERESIS`]), so the
//!   controller holds still between the two edges.
//! * **Cooldown** — at most one resize per cooldown window
//!   ([`COOLDOWN`], 90 s, comfortably above the 30 s tracker/datanode
//!   death timeout), so a resize's consequences are observed before the
//!   next one.
//!
//! The controller is pure: it owns no RNG and touches nothing but its
//! own counters, so a controller that never fires leaves the simulation
//! bit-identical to a run without one, and two identical elastic runs
//! are fingerprint-identical.
//!
//! [`GridModel::submit_workers`]: crate::GridModel::submit_workers
//! [`GridModel::remove_workers_preferring`]: crate::GridModel::remove_workers_preferring

use crate::config::{
    SiteConfig, CONFIGURE_TIME, GLIDEIN_SLOTS, PACKAGE_BYTES, PACKAGE_DOWNLOAD_RATE,
};
use hog_sim_core::units::transfer_secs;
use hog_sim_core::{SimDuration, SimTime};

/// Target capacity as a multiple of raw task demand, so churn,
/// stragglers and the next arrival wave do not immediately starve the
/// pool.
pub const HEADROOM: f64 = 1.5;

/// Shrink only when supply exceeds target by this fraction; growth
/// triggers on any deficit.
pub const HYSTERESIS: f64 = 0.25;

/// Minimum time from any resize action to the next *shrink* (above the
/// 30 s death detector, so a shrink's tracker deaths are fully observed
/// before the next release). Deficit-driven grows are monotone and
/// bypass it.
pub const COOLDOWN: SimDuration = SimDuration::from_secs(90);

/// Minimum sustained surplus before a shrink (3 min — long enough to see
/// through inter-wave lulls in the arrival process). The effective
/// patience is the max of this and the spin-up estimate: capacity is
/// never released unless the surplus outlived the cost of re-acquiring
/// it.
pub const SHRINK_PATIENCE: SimDuration = SimDuration::from_secs(180);

/// Upper bound on workers released in one shrink (the mediator only
/// hands over *idle* workers, so large steps are throttled by what is
/// actually reclaimable).
pub const MAX_SHRINK_STEP: usize = 150;

/// Bounds of the elastic pool controller.
/// The tuning is fixed ([`HEADROOM`], [`HYSTERESIS`], [`COOLDOWN`],
/// [`SHRINK_PATIENCE`], [`MAX_SHRINK_STEP`]), and so are the slots per
/// worker ([`GLIDEIN_SLOTS`]).
#[derive(Clone, Debug)]
pub struct ElasticConfig {
    /// Pool floor: never shrink below this many workers.
    pub min_nodes: usize,
    /// Pool ceiling: never request more than this many workers.
    pub max_nodes: usize,
}

impl ElasticConfig {
    /// Controller bounds.
    pub fn new(min_nodes: usize, max_nodes: usize) -> Self {
        ElasticConfig {
            min_nodes,
            max_nodes: max_nodes.max(min_nodes),
        }
    }
}

/// What the controller sees on one master tick: JobTracker backlog plus
/// committed grid supply. Mirrors the hog-obs gauges of the same names.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolSnapshot {
    /// Trackers the JobTracker currently believes alive.
    pub reported_live: usize,
    /// Glidein requests in the pipeline (queued / batch-waiting /
    /// downloading / resubmitting) — committed but not yet running.
    pub outstanding: usize,
    /// Map tasks not yet scheduled, over all incomplete jobs.
    pub pending_maps: usize,
    /// Map tasks currently running.
    pub running_maps: usize,
    /// Reduce tasks not yet scheduled.
    pub pending_reduces: usize,
    /// Reduce tasks currently running.
    pub running_reduces: usize,
    /// Incomplete jobs.
    pub active_jobs: usize,
}

/// One controller decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElasticDecision {
    /// Inside the band (or cooling down): do nothing.
    Hold,
    /// Submit this many additional glidein requests.
    Grow(usize),
    /// Release this many workers.
    Shrink(usize),
}

/// The feedback controller. See the module docs for the control law.
#[derive(Clone, Debug)]
pub struct ElasticController {
    cfg: ElasticConfig,
    spinup: SimDuration,
    last_action: Option<SimTime>,
    surplus_since: Option<SimTime>,
    grows: u64,
    shrinks: u64,
}

fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b.max(1))
}

impl ElasticController {
    /// Build a controller for glidein workers ([`GLIDEIN_SLOTS`] slots
    /// each), deriving the spin-up estimate from the grid configuration:
    /// mean batch-queue acquisition over the usable sites, plus package
    /// download, plus the fixed configure time.
    pub fn new(cfg: ElasticConfig, sites: &[SiteConfig]) -> Self {
        let usable: Vec<&SiteConfig> = sites.iter().filter(|s| s.public_ip).collect();
        let mut total = 0.0;
        for s in &usable {
            total += s.acquisition_delay.mean().as_secs_f64()
                + transfer_secs(PACKAGE_BYTES, PACKAGE_DOWNLOAD_RATE)
                + CONFIGURE_TIME.as_secs_f64();
        }
        let spinup = if usable.is_empty() {
            CONFIGURE_TIME
        } else {
            SimDuration::from_secs_f64(total / usable.len() as f64)
        };
        ElasticController {
            cfg,
            spinup,
            last_action: None,
            surplus_since: None,
            grows: 0,
            shrinks: 0,
        }
    }

    /// Expected seconds from submitting a glidein request to a running
    /// worker (the price of shrinking too eagerly).
    pub fn spinup_estimate(&self) -> SimDuration {
        self.spinup
    }

    /// The demand-driven pool target for a snapshot: enough workers to
    /// run every pending+running task at once (per slot kind), times the
    /// headroom factor, clamped to the configured bounds. An idle pool
    /// targets the floor.
    pub fn target(&self, snap: &PoolSnapshot) -> usize {
        if snap.active_jobs == 0 {
            return self.cfg.min_nodes;
        }
        let (map_slots, reduce_slots) = GLIDEIN_SLOTS;
        let map_nodes = ceil_div(snap.pending_maps + snap.running_maps, map_slots as usize);
        let reduce_nodes = ceil_div(
            snap.pending_reduces + snap.running_reduces,
            reduce_slots as usize,
        );
        let demand = map_nodes.max(reduce_nodes);
        let padded = (demand as f64 * HEADROOM).ceil() as usize;
        padded.clamp(self.cfg.min_nodes, self.cfg.max_nodes)
    }

    /// Resizes performed so far, as (grows, shrinks).
    pub fn resize_counts(&self) -> (u64, u64) {
        (self.grows, self.shrinks)
    }

    /// The configured bounds and tuning.
    pub fn config(&self) -> &ElasticConfig {
        &self.cfg
    }

    /// One control step. `now` must be non-decreasing across calls.
    pub fn decide(&mut self, now: SimTime, snap: &PoolSnapshot) -> ElasticDecision {
        let target = self.target(snap);
        let supply = snap.reported_live + snap.outstanding;
        // Shrink edge: target plus the hysteresis band (≥ 2 absolute so
        // a one-worker ripple can never trigger anything).
        let band = ((target as f64 * HYSTERESIS).ceil() as usize).max(2);
        let hi = target + band;

        // Track how long the pool has been above the shrink edge even
        // while cooling down, so patience measures real surplus age.
        if supply > hi {
            if self.surplus_since.is_none() {
                self.surplus_since = Some(now);
            }
        } else {
            self.surplus_since = None;
        }

        if supply < target {
            // Grow the whole deficit at once, without waiting out the
            // cooldown: a deficit-driven grow is monotone (supply jumps
            // to target and stays there until demand moves), so it can
            // never oscillate, and throttling it just stretches the ramp
            // by a cooldown per request wave. The cooldown exists to
            // space *reversals*; growing still restarts it so a shrink
            // cannot fire on the heels of a grow.
            self.last_action = Some(now);
            self.grows += 1;
            return ElasticDecision::Grow(target - supply);
        }

        if let Some(last) = self.last_action {
            if now.saturating_since(last) < COOLDOWN {
                return ElasticDecision::Hold;
            }
        }

        if supply > hi {
            let patience = SHRINK_PATIENCE.max(self.spinup);
            let since = self.surplus_since.expect("tracked above");
            if now.saturating_since(since) >= patience {
                let step = (supply - target).min(MAX_SHRINK_STEP);
                // Never below the floor.
                let step = step.min(supply.saturating_sub(self.cfg.min_nodes));
                if step > 0 {
                    self.last_action = Some(now);
                    self.shrinks += 1;
                    return ElasticDecision::Shrink(step);
                }
            }
        }
        ElasticDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::paper_sites;

    fn controller(min: usize, max: usize) -> ElasticController {
        ElasticController::new(ElasticConfig::new(min, max), &paper_sites())
    }

    fn busy(pending: usize, live: usize, outstanding: usize) -> PoolSnapshot {
        PoolSnapshot {
            reported_live: live,
            outstanding,
            pending_maps: pending,
            active_jobs: 1,
            ..PoolSnapshot::default()
        }
    }

    #[test]
    fn spinup_model_reflects_site_costs() {
        let c = controller(10, 100);
        let s = c.spinup_estimate().as_secs_f64();
        // Paper sites: 20-120 s batch wait (mean 70), 75 MiB at 20 MiB/s
        // (3.75 s), 15 s configure -> ~88.75 s.
        assert!((80.0..100.0).contains(&s), "spin-up estimate {s}");
    }

    #[test]
    fn grows_full_deficit_when_backlogged() {
        let mut c = controller(10, 300);
        let d = c.decide(SimTime::from_secs(10), &busy(200, 40, 0));
        // target = ceil(200 * 1.5) = 300; deficit = 260.
        assert_eq!(d, ElasticDecision::Grow(260));
    }

    #[test]
    fn grows_track_rising_demand_without_cooldown() {
        let mut c = controller(10, 300);
        assert!(matches!(
            c.decide(SimTime::from_secs(10), &busy(100, 40, 0)),
            ElasticDecision::Grow(_)
        ));
        // More demand one tick later: the new deficit is granted
        // immediately — deficit grows are monotone, so no cooldown.
        // target = min(ceil(200 * 1.5), 300) = 300; supply = 150.
        assert_eq!(
            c.decide(SimTime::from_secs(13), &busy(200, 40, 110)),
            ElasticDecision::Grow(150)
        );
        // Supply matches target exactly: hold.
        let mut c = controller(10, 300);
        assert_eq!(
            c.decide(SimTime::from_secs(10), &busy(200, 300, 0)),
            ElasticDecision::Hold
        );
    }

    #[test]
    fn cooldown_spaces_consecutive_shrinks() {
        let mut c = controller(10, 300);
        let idle = |live: usize| PoolSnapshot {
            reported_live: live,
            active_jobs: 0,
            ..PoolSnapshot::default()
        };
        assert_eq!(c.decide(SimTime::ZERO, &idle(200)), ElasticDecision::Hold);
        assert_eq!(
            c.decide(SimTime::from_secs(200), &idle(200)),
            ElasticDecision::Shrink(150)
        );
        // Surplus persists while the kills land, but the next shrink
        // must wait out the cooldown from the previous action.
        assert_eq!(
            c.decide(SimTime::from_secs(230), &idle(50)),
            ElasticDecision::Hold
        );
        assert_eq!(
            c.decide(SimTime::from_secs(290), &idle(50)),
            ElasticDecision::Shrink(40)
        );
    }

    #[test]
    fn shrinks_only_after_sustained_surplus() {
        let mut c = controller(10, 300);
        let idle = PoolSnapshot {
            reported_live: 100,
            active_jobs: 0,
            ..PoolSnapshot::default()
        };
        // Surplus noticed at t=0; patience (max(180 s, spin-up)) not yet
        // served at t=60.
        assert_eq!(c.decide(SimTime::ZERO, &idle), ElasticDecision::Hold);
        assert_eq!(
            c.decide(SimTime::from_secs(60), &idle),
            ElasticDecision::Hold
        );
        // After patience: shrink toward the floor, bounded by the step.
        let d = c.decide(SimTime::from_secs(200), &idle);
        assert_eq!(d, ElasticDecision::Shrink(90));
    }

    #[test]
    fn surplus_age_resets_when_demand_returns() {
        let mut c = controller(10, 300);
        let idle = PoolSnapshot {
            reported_live: 100,
            active_jobs: 0,
            ..PoolSnapshot::default()
        };
        assert_eq!(c.decide(SimTime::ZERO, &idle), ElasticDecision::Hold);
        // Demand absorbs the surplus (supply inside the band); the
        // patience clock must restart.
        assert_eq!(
            c.decide(SimTime::from_secs(100), &busy(100, 160, 0)),
            ElasticDecision::Hold
        );
        assert_eq!(
            c.decide(SimTime::from_secs(200), &idle),
            ElasticDecision::Hold,
            "patience restarted at 200 s"
        );
    }

    #[test]
    fn never_shrinks_below_floor() {
        let mut c = controller(40, 300);
        let idle = PoolSnapshot {
            reported_live: 55,
            active_jobs: 0,
            ..PoolSnapshot::default()
        };
        assert_eq!(c.decide(SimTime::ZERO, &idle), ElasticDecision::Hold);
        // Idle target is the 40-node floor: shrink stops exactly there.
        let d = c.decide(SimTime::from_secs(500), &idle);
        assert_eq!(d, ElasticDecision::Shrink(15));
    }
}
