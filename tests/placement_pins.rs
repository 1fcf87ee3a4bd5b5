//! Outcome pins for the block placements that no study baseline and no
//! repository-benchmark workload reaches: stock rack-aware placement on
//! the dedicated cluster, the rack-oblivious ablation (X7) and MOON's
//! anchor-first placement on a real site. Each run writes, reads and
//! repairs blocks under its placement, so a change to target choice that
//! moves one replica shows up in the run's
//! `hog_bench::outcome_fingerprint`.

use hog_bench::outcome_fingerprint;
use hog_repro::prelude::*;
use hog_workload::facebook::Bin;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn schedule(jobs: u32, maps: u32, reduces: u32, seed: u64) -> SubmissionSchedule {
    let bin = Bin {
        number: 3,
        maps_at_facebook: (maps, maps),
        fraction_at_facebook: 1.0,
        maps,
        jobs_in_benchmark: jobs,
        reduces,
    };
    SubmissionSchedule::from_bins(&[bin], seed)
}

const HORIZON: SimDuration = SimDuration::from_secs(60 * 3600);

/// Rack-aware placement on the dedicated preset. Its disks never fail
/// by themselves, so a zombie outbreak (stock Hadoop has no disk
/// self-check) makes reads fail and the replication monitor repair
/// rack-aware.
#[test]
fn rack_aware_dedicated_run_keeps_its_fingerprint() {
    let cfg = ClusterConfig::dedicated(12)
        .with_fault_plan(FaultPlan::new().at(secs(200), Fault::ZombieOutbreak { count: 3 }));
    let r = run_workload(cfg, &schedule(10, 20, 4, 801), HORIZON);
    assert!(r.nn_counters.0 > 0, "the outbreak must cause repairs");
    assert_eq!(outcome_fingerprint(&r), "ef224d53dce15e8c");
}

/// Rack-oblivious placement on a churning 30-node pool: writes and
/// repairs draw their targets uniformly.
#[test]
fn rack_oblivious_run_keeps_its_fingerprint() {
    let cfg = ClusterConfig::hog(30, 13)
        .with_placement(PlacementKind::RackOblivious)
        .with_mean_lifetime(secs(40 * 60));
    let r = run_workload(cfg, &schedule(10, 20, 4, 802), HORIZON);
    assert!(r.nn_counters.0 > 0, "churn must cause repairs");
    assert_eq!(outcome_fingerprint(&r), "93fc9a88dcc63108");
}

/// Anchor-first placement with UCSDT2 as the anchor: a site the pool
/// really has, so writes and repairs pin one replica there while the
/// site has a node with room, and spread the rest site-aware.
#[test]
fn anchor_first_on_a_real_site_keeps_its_fingerprint() {
    let run = |placement: PlacementKind| {
        let cfg = ClusterConfig::hog(20, 14)
            .with_placement(placement)
            .with_mean_lifetime(secs(40 * 60));
        run_workload(cfg, &schedule(10, 20, 4, 803), HORIZON)
    };
    let anchored = run(PlacementKind::AnchorFirst {
        site_name: "UCSDT2".into(),
    });
    assert!(anchored.nn_counters.0 > 0, "churn must cause repairs");
    let fingerprint = outcome_fingerprint(&anchored);
    assert_ne!(
        fingerprint,
        outcome_fingerprint(&run(PlacementKind::SiteAware)),
        "the anchor must change where replicas go"
    );
    assert_eq!(fingerprint, "67c462320538a4f8");
}
