//! Cross-crate integration tests for the paper's qualitative claims,
//! scaled down to run quickly in debug builds. The full-scale quantitative
//! reproduction lives in the `hog-bench` binaries (`fig4`, `fig5`,
//! `ablations`); heavier versions of these checks are `#[ignore]`d and run
//! in release via `cargo test --release -- --ignored`.

use hog_repro::prelude::*;
use hog_workload::facebook::Bin;

/// A scaled-down Facebook-like mix: same shape, ~1/8 the work.
fn mini_facebook(seed: u64) -> SubmissionSchedule {
    let bins = [
        Bin {
            number: 1,
            maps_at_facebook: (1, 1),
            fraction_at_facebook: 0.4,
            maps: 1,
            jobs_in_benchmark: 5,
            reduces: 1,
        },
        Bin {
            number: 3,
            maps_at_facebook: (3, 20),
            fraction_at_facebook: 0.3,
            maps: 10,
            jobs_in_benchmark: 3,
            reduces: 5,
        },
        Bin {
            number: 4,
            maps_at_facebook: (21, 60),
            fraction_at_facebook: 0.2,
            maps: 30,
            jobs_in_benchmark: 2,
            reduces: 8,
        },
    ];
    SubmissionSchedule::from_bins(&bins, seed)
}

const HORIZON: SimDuration = SimDuration::from_secs(24 * 3600);

#[test]
fn more_hog_nodes_means_faster_workload() {
    let schedule = mini_facebook(3);
    let small = run_workload(ClusterConfig::hog(20, 1), &schedule, HORIZON);
    let large = run_workload(ClusterConfig::hog(80, 1), &schedule, HORIZON);
    let (s, l) = (
        small.response_time.unwrap().as_secs_f64(),
        large.response_time.unwrap().as_secs_f64(),
    );
    assert!(l < s, "80 nodes ({l}s) should beat 20 nodes ({s}s)");
    assert_eq!(small.jobs_succeeded(), schedule.len());
    assert_eq!(large.jobs_succeeded(), schedule.len());
}

#[test]
fn hog_survives_churn_that_kills_low_replication() {
    let schedule = mini_facebook(4);
    let churn = SimDuration::from_secs(20 * 60);
    // HOG settings (replication 10, 30 s detection).
    let hog = run_workload(
        ClusterConfig::hog(30, 2).with_mean_lifetime(churn),
        &schedule,
        HORIZON,
    );
    // Same churn with replication 1: data evaporates.
    let fragile = run_workload(
        ClusterConfig::hog(30, 2)
            .with_mean_lifetime(churn)
            .with_replication(1),
        &schedule,
        HORIZON,
    );
    assert_eq!(
        hog.jobs_succeeded(),
        schedule.len(),
        "replication 10 should carry the workload through churn"
    );
    assert!(
        fragile.nn_counters.2 > 0 || fragile.jobs_failed() > 0,
        "replication 1 under churn must lose blocks or jobs \
         (lost={}, failed={})",
        fragile.nn_counters.2,
        fragile.jobs_failed()
    );
}

#[test]
fn zombie_fix_restores_throughput() {
    let schedule = mini_facebook(5);
    let churn = SimDuration::from_secs(25 * 60);
    let no_fix = run_workload(
        ClusterConfig::hog(25, 3)
            .with_mean_lifetime(churn)
            .with_zombies(0.5, false),
        &schedule,
        HORIZON,
    );
    let with_fix = run_workload(
        ClusterConfig::hog(25, 3)
            .with_mean_lifetime(churn)
            .with_zombies(0.5, true),
        &schedule,
        HORIZON,
    );
    // Zombies poison task execution; the disk self-check evicts them.
    assert!(
        no_fix.cluster.zombie_task_failures > 0,
        "zombie mode must cause zombie task failures"
    );
    // At this small scale response times are churn-noisy (evicting a
    // zombie briefly shrinks the pool), so the robust claim is on
    // completed work, and that both runs terminate rather than hang.
    assert!(!with_fix.stopped_early && !no_fix.stopped_early);
    assert!(
        with_fix.jobs_succeeded() >= no_fix.jobs_succeeded(),
        "fix should not lose jobs: {} vs {}",
        with_fix.jobs_succeeded(),
        no_fix.jobs_succeeded()
    );
    // A zombie still has up to one disk-check interval (3 min) to poison
    // attempts before it self-terminates, so a handful of failures remain
    // possible at a 50% zombie rate; the bulk of the workload must pass.
    assert!(
        with_fix.jobs_succeeded() * 10 >= schedule.len() * 7,
        "with the fix, most of the workload completes: {}/{}",
        with_fix.jobs_succeeded(),
        schedule.len()
    );
}

#[test]
fn site_awareness_protects_against_site_outages() {
    use hog_core::config::ResourceConfig;
    use hog_sim_core::dist::{Exponential, UniformDuration};
    let schedule = mini_facebook(6);
    let mk = |placement: PlacementKind| {
        let mut cfg = ClusterConfig::hog(40, 4)
            .with_replication(2)
            .with_placement(placement);
        if let ResourceConfig::Grid { sites, .. } = &mut cfg.resource {
            for s in sites.iter_mut() {
                s.outage_mtbf = Some(Exponential::from_mean(SimDuration::from_secs(45 * 60)));
                s.outage_duration =
                    UniformDuration::new(SimDuration::from_mins(5), SimDuration::from_mins(10));
            }
        }
        cfg
    };
    let aware = run_workload(mk(PlacementKind::SiteAware), &schedule, HORIZON);
    let oblivious = run_workload(mk(PlacementKind::RackOblivious), &schedule, HORIZON);
    assert!(
        aware.missing_input_blocks <= oblivious.missing_input_blocks,
        "site-aware placement must not lose more inputs than oblivious \
         ({} vs {})",
        aware.missing_input_blocks,
        oblivious.missing_input_blocks
    );
    assert!(
        aware.jobs_succeeded() >= oblivious.jobs_succeeded(),
        "site awareness should preserve at least as many jobs"
    );
}

#[test]
fn dedicated_cluster_handles_the_mini_workload() {
    let schedule = mini_facebook(7);
    let r = run_workload(ClusterConfig::dedicated(1), &schedule, HORIZON);
    assert_eq!(r.jobs_succeeded(), schedule.len());
    // All maps on one site: locality should be total.
    assert_eq!(r.jt.remote, 0, "a one-site cluster has no remote maps");
}

/// Full-scale crossover check (the paper's headline claim). Heavy: run
/// with `cargo test --release -- --ignored`.
#[test]
#[ignore = "full-scale; minutes in release"]
fn fig4_crossover_near_100_nodes() {
    use hog_core::experiments::figure4;
    let fig = figure4(&[60, 99, 100, 132, 160], 2, 5);
    let crossover = fig
        .equivalence_at(0.05)
        .expect("some size must reach the baseline");
    assert!(
        (80..=140).contains(&crossover),
        "equivalent performance at {crossover} nodes; paper found [99,100]"
    );
    // Response must broadly decrease with pool size.
    let first = fig.hog.first().unwrap().mean();
    let last = fig.hog.last().unwrap().mean();
    assert!(first > last, "more nodes should be faster overall");
}

#[test]
fn high_replication_buys_data_locality() {
    // §IV-D: "The high replication factor for HOG allows for very good
    // data locality." With 10 replicas over ~25 nodes, nearly every map
    // should find its input on-node.
    let schedule = mini_facebook(8);
    let r = run_workload(
        ClusterConfig::hog(25, 9).with_mean_lifetime(SimDuration::from_secs(10_000_000)),
        &schedule,
        HORIZON,
    );
    let total = (r.jt.node_local + r.jt.site_local + r.jt.remote).max(1);
    let frac = r.jt.node_local as f64 / total as f64;
    assert!(
        frac > 0.6,
        "node-local fraction {frac:.2} too low ({}/{total})",
        r.jt.node_local
    );
    // And with replication 1 locality must drop measurably.
    let low = run_workload(
        ClusterConfig::hog(25, 9)
            .with_mean_lifetime(SimDuration::from_secs(10_000_000))
            .with_replication(1),
        &schedule,
        HORIZON,
    );
    let ltotal = (low.jt.node_local + low.jt.site_local + low.jt.remote).max(1);
    let lfrac = low.jt.node_local as f64 / ltotal as f64;
    assert!(
        lfrac < frac,
        "replication 1 should be less node-local: {lfrac:.2} vs {frac:.2}"
    );
}
