//! Federation (hog-fed) end-to-end properties:
//!
//! 1. A **1-pool federation is the plain cluster**: the canonical outcome
//!    fingerprint (the same one gating the committed bench baselines) is
//!    bit-identical, because deferred routing replays the exact event
//!    sequence of a standalone run.
//! 2. Multi-pool runs complete, route every job, and actually move
//!    datasets across the WAN.
//! 3. Meta-scheduler routing is deterministic under a fixed seed.

use hog_bench::outcome_fingerprint;
use hog_fed::{assert_fed_finished, run_federation, FedConfig, RoutingPolicy};
use hog_repro::prelude::*;
use hog_workload::facebook::Bin;

fn tiny_schedule(jobs: u32, maps: u32, reduces: u32, seed: u64) -> SubmissionSchedule {
    let bin = Bin {
        number: 1,
        maps_at_facebook: (maps, maps),
        fraction_at_facebook: 1.0,
        maps,
        jobs_in_benchmark: jobs,
        reduces,
    };
    SubmissionSchedule::from_bins(&[bin], seed)
}

const HORIZON: SimDuration = SimDuration::from_secs(24 * 3600);

/// One pool, same config, same schedule: the federation must be a
/// transparent wrapper (fingerprint-identical to `run_workload`).
fn one_pool_identity(nodes: usize) {
    let schedule = tiny_schedule(5, 4, 1, 11);
    let cfg = ClusterConfig::hog(nodes, 5);
    let plain = hog_repro::core::driver::run_workload(cfg.clone(), &schedule, HORIZON);
    let fed = run_federation(FedConfig::new(vec![cfg], 5), &schedule, HORIZON);
    assert_fed_finished(&fed);
    assert_eq!(
        outcome_fingerprint(&plain),
        outcome_fingerprint(&fed.pools[0]),
        "1-pool federation diverged from the standalone cluster at {nodes} nodes"
    );
    assert_eq!(fed.jobs_succeeded(), plain.jobs_succeeded());
    assert_eq!(fed.wan_bytes, 0, "no WAN traffic with a single pool");
}

#[test]
fn one_pool_federation_is_fingerprint_identical_at_100_nodes() {
    one_pool_identity(100);
}

#[test]
fn one_pool_federation_is_fingerprint_identical_at_300_nodes() {
    one_pool_identity(300);
}

#[test]
fn two_pool_federation_completes_and_crosses_the_wan() {
    let schedule = tiny_schedule(6, 4, 1, 13);
    let pools = vec![ClusterConfig::hog(20, 3), ClusterConfig::hog(20, 4)];
    let fed = run_federation(
        FedConfig::new(pools, 9)
            .with_sharing(0.5, 2)
            .with_audit(true),
        &schedule,
        HORIZON,
    );
    assert_fed_finished(&fed);
    assert_eq!(fed.jobs_succeeded(), 6, "{:?}", fed.jobs);
    assert_eq!(
        fed.routed_counts.iter().sum::<u64>(),
        6,
        "every job routed exactly once"
    );
    assert!(
        fed.wan_bytes > 0,
        "shared datasets must cross the inter-pool WAN"
    );
    assert!(fed.initial_stagings > 0);
    // The per-pool gauges were published under the fed layer.
    assert!(fed.metrics.find("fed/pool0_backlog").is_some());
    assert!(fed.metrics.find("fed/pool1_routed").is_some());
}

#[test]
fn random_routing_stages_datasets_on_demand() {
    // No up-front sharing: any job randomly routed off its home pool
    // must trigger an on-demand WAN staging and still succeed.
    let schedule = tiny_schedule(8, 3, 1, 17);
    let pools = vec![ClusterConfig::hog(20, 3), ClusterConfig::hog(20, 4)];
    let fed = run_federation(
        FedConfig::new(pools, 21)
            .with_routing(RoutingPolicy::Random)
            .with_audit(true),
        &schedule,
        HORIZON,
    );
    assert_fed_finished(&fed);
    assert_eq!(fed.jobs_succeeded(), 8, "{:?}", fed.jobs);
    assert!(
        fed.route_stagings > 0,
        "with seed 21 some jobs must land off-home: {:?}",
        fed.routed_to
    );
    assert!(fed.wan_bytes > 0);
}

#[test]
fn meta_scheduler_routing_is_deterministic_under_fixed_seed() {
    let schedule = tiny_schedule(8, 3, 1, 19);
    let run = |policy, seed| {
        let pools = vec![ClusterConfig::hog(20, 3), ClusterConfig::hog(20, 4)];
        run_federation(
            FedConfig::new(pools, seed).with_routing(policy),
            &schedule,
            HORIZON,
        )
    };
    for policy in [RoutingPolicy::LocalityAware, RoutingPolicy::Random] {
        let a = run(policy, 33);
        let b = run(policy, 33);
        assert_eq!(a.routed_to, b.routed_to, "{policy:?} routing replayed");
        for (pa, pb) in a.pools.iter().zip(&b.pools) {
            assert_eq!(
                outcome_fingerprint(pa),
                outcome_fingerprint(pb),
                "{policy:?} pool outcomes replayed"
            );
        }
    }
    // Different federation seeds must steer Random elsewhere.
    let a = run(RoutingPolicy::Random, 33);
    let b = run(RoutingPolicy::Random, 34);
    assert_ne!(a.routed_to, b.routed_to, "Random ignores its seed");
}
