//! Property tests on the elastic pool controller: bounded resize rate
//! (no oscillation) and convergence to a steady pool under seeded churn.
//!
//! The controller is exercised against a miniature plant that mirrors
//! the grid's supply dynamics: grown workers sit in a spin-up pipeline
//! before going live, shrink releases pipeline capacity before live
//! capacity, and churn kills live workers at a seeded per-tick rate.

use hog_grid::config::paper_sites;
use hog_grid::controller::{COOLDOWN, HYSTERESIS, MAX_SHRINK_STEP};
use hog_grid::{ElasticConfig, ElasticController, ElasticDecision, PoolSnapshot};
use hog_sim_core::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

const TICK_SECS: u64 = 3;

struct Plant {
    live: usize,
    /// (goes-live-at, count) pipeline entries, in submission order.
    pipeline: Vec<(SimTime, usize)>,
}

impl Plant {
    fn outstanding(&self) -> usize {
        self.pipeline.iter().map(|&(_, n)| n).sum()
    }

    fn advance(&mut self, now: SimTime) {
        let mut arrived = 0;
        self.pipeline.retain(|&(at, n)| {
            if at <= now {
                arrived += n;
                false
            } else {
                true
            }
        });
        self.live += arrived;
    }

    fn apply(&mut self, now: SimTime, decision: ElasticDecision, spinup: SimDuration) {
        match decision {
            ElasticDecision::Hold => {}
            ElasticDecision::Grow(n) => self.pipeline.push((now + spinup, n)),
            ElasticDecision::Shrink(mut n) => {
                // Mirror GridModel: cancel pipeline capacity first
                // (newest first), then kill live workers.
                while n > 0 {
                    let Some(last) = self.pipeline.last_mut() else {
                        break;
                    };
                    let take = last.1.min(n);
                    last.1 -= take;
                    n -= take;
                    if last.1 == 0 {
                        self.pipeline.pop();
                    }
                }
                self.live = self.live.saturating_sub(n);
            }
        }
    }
}

/// Drive the controller for `ticks` ticks and return (actions taken,
/// final plant, controller).
fn run_plant(
    seed: u64,
    min: usize,
    max: usize,
    demand: usize,
    churn_permille: u32,
    ticks: u64,
) -> (Vec<(SimTime, ElasticDecision)>, Plant, ElasticController) {
    let mut c = ElasticController::new(ElasticConfig::new(min, max), &paper_sites());
    let spinup = c.spinup_estimate();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut plant = Plant {
        live: min,
        pipeline: Vec::new(),
    };
    let mut actions = Vec::new();
    for i in 0..ticks {
        let now = SimTime::from_secs(i * TICK_SECS);
        plant.advance(now);
        // Seeded churn: each tick, lose up to churn_permille/1000 of the
        // live pool (rounded down, at least the coin says).
        if churn_permille > 0 && plant.live > 0 {
            let losses = (plant.live * churn_permille as usize) / 1000;
            let jitter = rng.index(2); // deterministic wobble
            plant.live -= losses.saturating_sub(jitter).min(plant.live);
        }
        let snap = PoolSnapshot {
            reported_live: plant.live,
            outstanding: plant.outstanding(),
            pending_maps: demand.saturating_sub(plant.live.min(demand)),
            running_maps: plant.live.min(demand),
            active_jobs: usize::from(demand > 0),
            ..PoolSnapshot::default()
        };
        let d = c.decide(now, &snap);
        if d != ElasticDecision::Hold {
            actions.push((now, d));
        }
        plant.apply(now, d, spinup);
    }
    (actions, plant, c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No oscillation: every shrink is at least a cooldown after the
    /// previous action of either kind, so the controller can never
    /// alternate grow/shrink faster than the cooldown. (Deficit-driven
    /// grows are monotone — supply jumps to target and stays — so they
    /// are deliberately not rate-limited against each other.)
    #[test]
    fn prop_bounded_resize_rate(
        seed in 0u64..10_000,
        min in 5usize..40,
        extra in 10usize..300,
        demand in 0usize..400,
        churn in 0u32..80,
    ) {
        let max = min + extra;
        let (actions, _, _) = run_plant(seed, min, max, demand, churn, 1200);
        let cooldown = COOLDOWN.as_secs_f64();
        for w in actions.windows(2) {
            if !matches!(w[1].1, ElasticDecision::Shrink(_)) {
                continue;
            }
            let gap = w[1].0.saturating_since(w[0].0).as_secs_f64();
            prop_assert!(
                gap >= cooldown,
                "shrink at {:?} only {gap}s after action at {:?} (cooldown {cooldown}s)",
                w[1].0, w[0].0
            );
        }
    }

    /// Convergence: under constant demand and no churn the controller
    /// settles — no resizes in the final two-thirds of a one-hour run,
    /// and the pool ends inside [target, target + band].
    #[test]
    fn prop_converges_to_steady_pool(
        seed in 0u64..10_000,
        min in 5usize..40,
        extra in 10usize..300,
        demand in 0usize..400,
    ) {
        let max = min + extra;
        let ticks = 1200u64; // one hour of 3 s ticks
        let (actions, plant, mut c) = run_plant(seed, min, max, demand, 0, ticks);
        let settle = SimTime::from_secs(ticks * TICK_SECS / 3);
        prop_assert!(
            actions.iter().all(|&(t, _)| t < settle),
            "controller still resizing after {settle:?}: {actions:?}"
        );
        let snap = PoolSnapshot {
            reported_live: plant.live,
            outstanding: plant.outstanding(),
            pending_maps: demand.saturating_sub(plant.live.min(demand)),
            running_maps: plant.live.min(demand),
            active_jobs: usize::from(demand > 0),
            ..PoolSnapshot::default()
        };
        let target = c.target(&snap);
        let supply = plant.live + plant.outstanding();
        prop_assert!(
            supply >= target.min(max) || supply >= max,
            "steady pool {supply} below target {target}"
        );
        let band = ((target as f64 * HYSTERESIS).ceil() as usize).max(2);
        prop_assert!(
            supply <= target + band,
            "steady pool {supply} above band edge {}",
            target + band
        );
        prop_assert_eq!(c.decide(SimTime::from_secs(ticks * TICK_SECS + 600), &snap), ElasticDecision::Hold);
    }

    /// Under sustained seeded churn the pool still converges to the
    /// band: the controller keeps re-growing what churn takes away but
    /// never runs past max_nodes or below min_nodes.
    #[test]
    fn prop_steady_under_churn(
        seed in 0u64..10_000,
        demand in 50usize..300,
        churn in 1u32..40,
    ) {
        let (_, plant, c) = run_plant(seed, 10, 350, demand, churn, 2400);
        let supply = plant.live + plant.outstanding();
        prop_assert!(supply <= c.config().max_nodes + MAX_SHRINK_STEP);
        prop_assert!(plant.live <= 350 + 50, "pool overshot: {}", plant.live);
    }
}
