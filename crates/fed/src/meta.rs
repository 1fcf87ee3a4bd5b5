//! The federation meta-scheduler: pick a pool for each submitted job.
//!
//! Routing weighs three signals per pool, in the spirit of the related
//! work's placement scores (ATLAS-style failure history as a *pool
//! health* signal; see PAPERS.md):
//!
//! 1. **Data locality** — the fraction of the job's input blocks already
//!    resident in the pool. Under the federation's whole-dataset
//!    placement a dataset is either fully resident (home pool, or a peer
//!    that holds a shared copy) or absent, so this is 1.0 or 0.0; the
//!    scoring still works on fractions if partial placement ever lands.
//! 2. **Queue depth** — the pool's task backlog normalized by its live
//!    slot count, so a small busy pool and a large busy pool compare
//!    fairly.
//! 3. **Pool health** — an exponentially decayed score of recent task
//!    attempt failures, fed by the federation's periodic sampling; a pool
//!    burning attempts (churn storm, partition aftermath) is demoted
//!    without being blacklisted.
//!
//! **Spill-over**: when the best-scoring pool's backlog exceeds
//! [`SPILL_THRESHOLD`], the meta-scheduler re-scores with locality
//! discounted (a WAN staging round-trip beats queueing behind a deep
//! backlog, but a peer already holding a shared copy still beats an
//! empty one) and takes the best lightly-loaded pool instead.

use hog_sim_core::SimRng;

/// Backlog (tasks per live slot) above which the locality-aware router
/// considers the preferred pool saturated and spills the job elsewhere.
pub const SPILL_THRESHOLD: f64 = 4.0;

/// How the federation routes each fired job submission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RoutingPolicy {
    /// Score pools by locality − backlog − health penalty, spilling over
    /// to the least-loaded pool when the preferred backlog exceeds
    /// [`SPILL_THRESHOLD`] (the default).
    LocalityAware,
    /// Uniform-random pool choice (the baseline the bench beats).
    Random,
    /// Always the dataset's home pool (no load balancing at all).
    Home,
}

impl RoutingPolicy {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::LocalityAware => "locality",
            RoutingPolicy::Random => "random",
            RoutingPolicy::Home => "home",
        }
    }
}

/// Per-pool state the meta-scheduler scores against, snapshotted by the
/// federation at routing time.
#[derive(Clone, Copy, Debug)]
pub struct PoolSnapshot {
    /// Fraction of the job's input blocks resident in this pool.
    pub locality: f64,
    /// Pending + running tasks per live slot (0 when the pool is empty
    /// of work; saturates the spill threshold when deep).
    pub backlog_per_slot: f64,
    /// Decayed recent attempt-failure score (federation-maintained).
    pub health_penalty: f64,
}

/// Floor on the locality weight (backlog units): even a tiny dataset's
/// staging round-trip costs about as much as two queued tasks.
const LOCALITY_WEIGHT: f64 = 2.0;

/// Ceiling on the locality weight: beyond this a dataset is "immovable"
/// and extra bytes change nothing — keeps one monster job from pinning
/// the score scale.
const MAX_LOCALITY_WEIGHT: f64 = 32.0;

/// Locality discount on the spill-over path: a saturated pool's data no
/// longer justifies queueing at full weight, but a peer already holding
/// a shared copy still beats an empty peer by the staging cost.
const SPILL_DISCOUNT: f64 = 0.5;

/// The routing engine. Owns the RNG for `Random` so routing decisions
/// consume no other stream (determinism: enabling federation must not
/// perturb pool-internal randomness).
#[derive(Clone, Debug)]
pub struct MetaScheduler {
    policy: RoutingPolicy,
    rng: SimRng,
}

impl MetaScheduler {
    /// Build a meta-scheduler; `seed` feeds only the `Random` policy.
    pub fn new(policy: RoutingPolicy, seed: u64) -> Self {
        MetaScheduler {
            policy,
            // Decorrelated from the federation seed like the chaos stream.
            rng: SimRng::seed_from_u64(seed ^ 0x686f_675f_6665_6421), // b"hog_fed!"
        }
    }

    /// The active policy.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Pick the pool for a job. `home` is the dataset's home pool,
    /// `stage_units` the estimated cost of staging this job's dataset
    /// across the WAN expressed in backlog units (one unit ≈ one queued
    /// task per slot of delay), `snaps` one entry per pool.
    /// Deterministic: ties break on the lower pool index.
    pub fn route(&mut self, home: usize, stage_units: f64, snaps: &[PoolSnapshot]) -> usize {
        debug_assert!(!snaps.is_empty());
        match self.policy {
            RoutingPolicy::Home => home,
            RoutingPolicy::Random => self.rng.index(snaps.len()),
            RoutingPolicy::LocalityAware => {
                // Size-aware locality: moving a big dataset costs more,
                // so its resident pools are proportionally stickier.
                let w = stage_units.clamp(LOCALITY_WEIGHT, MAX_LOCALITY_WEIGHT);
                let preferred = Self::argmax(snaps, |s| {
                    w * s.locality - s.backlog_per_slot - s.health_penalty
                });
                if snaps[preferred].backlog_per_slot <= SPILL_THRESHOLD {
                    return preferred;
                }
                // Preferred pool saturated: locality no longer pays for
                // the queueing delay at full weight, but among comparably
                // loaded alternatives resident data still saves a whole
                // WAN staging — re-score with locality discounted rather
                // than dropped.
                Self::argmax(snaps, |s| {
                    SPILL_DISCOUNT * w * s.locality - s.backlog_per_slot - s.health_penalty
                })
            }
        }
    }

    fn argmax(snaps: &[PoolSnapshot], score: impl Fn(&PoolSnapshot) -> f64) -> usize {
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, s) in snaps.iter().enumerate() {
            let sc = score(s);
            if sc > best_score {
                best = i;
                best_score = sc;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(locality: f64, backlog: f64) -> PoolSnapshot {
        PoolSnapshot {
            locality,
            backlog_per_slot: backlog,
            health_penalty: 0.0,
        }
    }

    #[test]
    fn locality_prefers_resident_pool() {
        let mut m = MetaScheduler::new(RoutingPolicy::LocalityAware, 1);
        let pick = m.route(0, 2.0, &[snap(1.0, 1.0), snap(0.0, 0.0)]);
        assert_eq!(pick, 0, "resident pool wins a one-task backlog gap");
    }

    #[test]
    fn deep_backlog_spills_over() {
        let mut m = MetaScheduler::new(RoutingPolicy::LocalityAware, 1);
        let pick = m.route(0, 2.0, &[snap(1.0, 9.0), snap(0.0, 0.5)]);
        assert_eq!(pick, 1, "saturated resident pool spills to idle peer");
    }

    #[test]
    fn big_dataset_sticks_to_resident_pool() {
        let mut m = MetaScheduler::new(RoutingPolicy::LocalityAware, 1);
        // Same backlog gap as `deep_backlog_spills_over`, but the
        // dataset costs 20 backlog units to move: spilling to the empty
        // peer no longer pays, while a peer holding a shared copy does.
        let pick = m.route(0, 20.0, &[snap(1.0, 9.0), snap(0.0, 0.5)]);
        assert_eq!(pick, 0, "immovable dataset rides out the backlog");
        let pick = m.route(0, 20.0, &[snap(1.0, 9.0), snap(1.0, 0.5)]);
        assert_eq!(pick, 1, "a resident lightly-loaded peer still wins");
    }

    #[test]
    fn health_penalty_demotes_failing_pool() {
        let mut m = MetaScheduler::new(RoutingPolicy::LocalityAware, 1);
        let sick = PoolSnapshot {
            locality: 1.0,
            backlog_per_slot: 0.0,
            health_penalty: 5.0,
        };
        let pick = m.route(0, 2.0, &[sick, snap(1.0, 0.0)]);
        assert_eq!(pick, 1);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let picks = |seed| {
            let mut m = MetaScheduler::new(RoutingPolicy::Random, seed);
            (0..32)
                .map(|_| m.route(0, 2.0, &[snap(0.0, 0.0); 4]))
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8));
    }

    #[test]
    fn home_policy_ignores_load() {
        let mut m = MetaScheduler::new(RoutingPolicy::Home, 1);
        assert_eq!(m.route(2, 2.0, &[snap(0.0, 0.0); 4]), 2);
    }
}
