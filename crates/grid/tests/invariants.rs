//! Property tests on the grid model: slot accounting, pool-size bounds
//! and self-healing under arbitrary churn/outage interleavings.

use hog_grid::{GridEvent, GridModel, GridNote, SiteConfig};
use hog_net::{SiteId, Topology};
use hog_sim_core::dist::{Exponential, UniformDuration};
use hog_sim_core::{EventQueue, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

fn sites(n_sites: usize, slots: usize, lifetime_secs: u64, outages: bool) -> Vec<SiteConfig> {
    (0..n_sites)
        .map(|i| {
            let mut s = SiteConfig::stable(format!("S{i}").as_str(), &format!("s{i}.edu"), slots)
                .with_mean_lifetime(SimDuration::from_secs(lifetime_secs));
            s.acquisition_delay =
                UniformDuration::new(SimDuration::from_secs(1), SimDuration::from_secs(20));
            if outages {
                s.outage_mtbf = Some(Exponential::from_mean(SimDuration::from_secs(3600)));
                s.outage_duration =
                    UniformDuration::new(SimDuration::from_mins(2), SimDuration::from_mins(10));
            }
            s
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over an hour of arbitrary churn, the pool never exceeds the request
    /// count or total site capacity, per-site used slots stay within
    /// bounds, and node-started/lost events balance with the live count.
    #[test]
    fn prop_grid_accounting(
        seed in 0u64..5000,
        target in 5usize..60,
        lifetime in 120u64..7200,
        n_sites in 1usize..5,
        outages in proptest::bool::ANY,
    ) {
        let mut topo = Topology::new();
        let rng = SimRng::seed_from_u64(seed);
        let capacity_per_site = 20usize;
        let (mut model, init) = GridModel::new(
            sites(n_sites, capacity_per_site, lifetime, outages),
            &mut topo,
            rng,
        );
        let mut q: EventQueue<GridEvent> = EventQueue::new();
        for (d, e) in init {
            q.push(SimTime::ZERO + d, e);
        }
        let out = model.submit_workers(SimTime::ZERO, target);
        for (d, e) in out.defer {
            q.push(SimTime::ZERO + d, e);
        }
        let capacity = n_sites * capacity_per_site;
        let mut started = 0u64;
        let mut lost = 0u64;
        // Running nodes per site, counted from the notes.
        let mut running = vec![0usize; topo.sites().len()];
        let horizon = SimTime::from_secs(3600);
        while let Some((t, e)) = q.pop() {
            if t > horizon {
                break;
            }
            let out = model.handle(t, e, &mut topo);
            for n in &out.notes {
                match n {
                    GridNote::NodeStarted { node } => {
                        started += 1;
                        running[topo.site_of(*node).0 as usize] += 1;
                    }
                    GridNote::NodeLost { node, .. } => {
                        lost += 1;
                        running[topo.site_of(*node).0 as usize] -= 1;
                    }
                }
            }
            for (d, e) in out.defer {
                q.push(t + d, e);
            }
            // Invariants, checked after every event.
            prop_assert!(model.running_count() <= target.min(capacity));
            prop_assert_eq!(model.running_count() as u64, started - lost);
            for s in topo.sites() {
                let used = model.used_slots(SiteId(s.id.0));
                prop_assert!(used <= capacity_per_site, "site over-subscribed");
                // Running nodes at the site can never exceed used slots.
                prop_assert!(running[s.id.0 as usize] <= used);
            }
        }
        prop_assert_eq!(started, model.node_start_count());
    }
}
