//! Heavy-tailed straggler mix.
//!
//! Real MapReduce clusters show a minority of tasks running far slower
//! than their peers — contended disks, background daemons, failing
//! hardware (the original MapReduce paper's motivation for backup
//! tasks). The synthetic workload's task times are otherwise uniform
//! per bin, which makes speculation look better than it is: every copy
//! of a task runs at the same speed, so the only stragglers are tasks
//! on preempted nodes. [`StragglerMix`] restores the heavy tail: a
//! seeded fraction of tasks is slowed by a log-normally distributed
//! multiplier, drawn from a dedicated RNG stream so enabling the mix
//! perturbs nothing else in the simulation.

use hog_sim_core::dist::standard_normal;
use hog_sim_core::SimRng;

/// Median slowdown multiplier of a straggler: typically 2× slow, as in
/// published straggler studies.
pub const SLOWDOWN_MEDIAN: f64 = 2.0;

/// Log-normal sigma of the slowdown multiplier: the tail reaches a few
/// tasks several× slow.
pub const SLOWDOWN_SIGMA: f64 = 0.5;

/// Parameters of the straggler slowdown mix. Applied multiplicatively
/// to task CPU durations by the cluster when configured
/// (`ClusterConfig::straggler` in `hog-core`). A straggler's slowdown
/// is log-normal around [`SLOWDOWN_MEDIAN`] with sigma
/// [`SLOWDOWN_SIGMA`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StragglerMix {
    /// Probability that a task attempt is a straggler (0..1).
    pub fraction: f64,
}

impl StragglerMix {
    /// Defaults matching published straggler studies: ~5 % of tasks
    /// straggle, typically 2× slow, log-normal tail reaching several×.
    pub fn osg_default() -> Self {
        StragglerMix { fraction: 0.05 }
    }

    /// CPU-time multiplier for one task attempt: 1.0 for the
    /// well-behaved majority, a heavy-tailed slowdown ≥ 1 for the
    /// straggler fraction. Consumes one RNG draw for the straggler
    /// coin plus two more (Box–Muller) only when it lands.
    pub fn factor(&self, rng: &mut SimRng) -> f64 {
        if self.fraction <= 0.0 || !rng.chance(self.fraction) {
            return 1.0;
        }
        let z = standard_normal(rng);
        (SLOWDOWN_MEDIAN * (SLOWDOWN_SIGMA * z).exp()).max(1.0)
    }
}

impl Default for StragglerMix {
    fn default() -> Self {
        Self::osg_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_runs_at_full_speed() {
        let mix = StragglerMix::osg_default();
        let mut rng = SimRng::seed_from_u64(42);
        let n = 20_000;
        let slowed = (0..n).filter(|_| mix.factor(&mut rng) > 1.0).count();
        let frac = slowed as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.01, "straggler fraction {frac}");
    }

    #[test]
    fn stragglers_have_a_heavy_tail() {
        let mix = StragglerMix::osg_default();
        let mut rng = SimRng::seed_from_u64(7);
        let factors: Vec<f64> = (0..50_000)
            .map(|_| mix.factor(&mut rng))
            .filter(|&f| f > 1.0)
            .collect();
        assert!(!factors.is_empty());
        assert!(factors.iter().all(|&f| f >= 1.0));
        // The log-normal tail should produce some ≥ 4× laggards but keep
        // the typical straggler near the 2× median.
        assert!(factors.iter().any(|&f| f > 4.0), "no deep stragglers");
        let mut sorted = factors.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!((median - 2.0).abs() < 0.2, "straggler median {median}");
    }

    #[test]
    fn zero_fraction_is_inert_and_drawless() {
        let mix = StragglerMix { fraction: 0.0 };
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(mix.factor(&mut a), 1.0);
        }
        // fraction == 0 short-circuits before the coin: streams stay
        // aligned with an untouched RNG.
        assert_eq!(a.unit(), b.unit());
    }

    #[test]
    fn deterministic_per_seed() {
        let mix = StragglerMix::osg_default();
        let mut a = SimRng::seed_from_u64(3);
        let mut b = SimRng::seed_from_u64(3);
        let fa: Vec<f64> = (0..1000).map(|_| mix.factor(&mut a)).collect();
        let fb: Vec<f64> = (0..1000).map(|_| mix.factor(&mut b)).collect();
        assert_eq!(fa, fb);
    }
}
