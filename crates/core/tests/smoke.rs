//! End-to-end smoke tests: small workloads through the full stack.

use hog_core::driver::{assert_finished, run_workload};
use hog_core::{ClusterConfig, PlacementKind};
use hog_sim_core::SimDuration;
use hog_workload::facebook::Bin;
use hog_workload::SubmissionSchedule;

/// A small synthetic workload: `jobs` jobs of `maps`×`reduces`.
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

#[test]
fn dedicated_cluster_runs_tiny_workload() {
    let schedule = tiny_schedule(4, 3, 1, 7);
    let r = run_workload(
        ClusterConfig::dedicated(1),
        &schedule,
        SimDuration::from_secs(4 * 3600),
    );
    assert_finished(&r);
    assert_eq!(r.jobs_succeeded(), 4, "{:?}", r.jobs);
    assert!(r.response_time.is_some());
    let resp = r.response_time.unwrap().as_secs_f64();
    assert!(resp > 0.0 && resp < 4.0 * 3600.0, "response {resp}");
    // Locality should be high on a loaded cluster with rack-aware
    // placement: every node holds many blocks.
    let c = r.jt;
    assert!(c.node_local + c.site_local + c.remote >= 12);
}

#[test]
fn hog_cluster_runs_tiny_workload() {
    let schedule = tiny_schedule(4, 3, 1, 8);
    let cfg = ClusterConfig::hog(12, 2)
        // effectively no churn for the smoke test
        .with_mean_lifetime(SimDuration::from_secs(10_000_000));
    let r = run_workload(cfg, &schedule, SimDuration::from_secs(8 * 3600));
    assert_finished(&r);
    assert_eq!(r.jobs_succeeded(), 4, "{:?}", r.jobs);
    assert!(r.grid.is_some());
}

#[test]
fn hog_with_churn_still_finishes() {
    let schedule = tiny_schedule(5, 4, 2, 9);
    let cfg = ClusterConfig::hog(15, 3).with_mean_lifetime(SimDuration::from_secs(1200));
    let r = run_workload(cfg, &schedule, SimDuration::from_secs(12 * 3600));
    assert_finished(&r);
    // Under churn, jobs should still overwhelmingly succeed thanks to
    // replication 10 + fast failure detection.
    assert!(
        r.jobs_succeeded() >= 4,
        "succeeded {}/5, counters {:?}",
        r.jobs_succeeded(),
        r.cluster
    );
    let (pre, _, _) = r.grid.unwrap();
    assert!(pre > 0, "churn expected");
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let schedule = tiny_schedule(3, 2, 1, 5);
        let cfg = ClusterConfig::hog(8, 11).with_mean_lifetime(SimDuration::from_secs(3600));
        let r = run_workload(cfg, &schedule, SimDuration::from_secs(8 * 3600));
        (
            r.response_time.map(|d| d.as_millis()),
            r.events,
            r.jobs_succeeded(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn placement_policies_all_work_end_to_end() {
    for (i, p) in [
        PlacementKind::SiteAware,
        PlacementKind::RackAware,
        PlacementKind::RackOblivious,
    ]
    .into_iter()
    .enumerate()
    {
        let schedule = tiny_schedule(2, 2, 1, 20 + i as u64);
        let cfg = ClusterConfig::hog(10, 30 + i as u64)
            .with_mean_lifetime(SimDuration::from_secs(10_000_000))
            .with_placement(p.clone());
        let r = run_workload(cfg, &schedule, SimDuration::from_secs(8 * 3600));
        assert_finished(&r);
        assert_eq!(r.jobs_succeeded(), 2, "policy {p:?}");
    }
}

#[test]
fn elastic_resize_and_balancer_mid_run() {
    use hog_core::driver::run_workload_with_events;
    use hog_core::event::Event;
    use hog_sim_core::SimTime;

    let schedule = tiny_schedule(6, 4, 2, 31);
    let cfg = ClusterConfig::hog(10, 41).with_mean_lifetime(SimDuration::from_secs(10_000_000));
    // Grow the pool by 15 nodes shortly after the workload starts, then
    // run the balancer to spread data onto the new nodes.
    // Early enough to land while the workload is still active.
    let extra = vec![
        (SimTime::from_secs(300), Event::ResizePool { delta: 15 }),
        (SimTime::from_secs(600), Event::BalancerTick),
        (SimTime::from_secs(800), Event::BalancerTick),
    ];
    let r = run_workload_with_events(cfg, &schedule, SimDuration::from_secs(12 * 3600), extra);
    assert_finished(&r);
    assert_eq!(r.jobs_succeeded(), 6, "{:?}", r.stuck_jobs);
    // The grid must have started more nodes than the original target.
    let (_, _, starts) = r.grid.unwrap();
    assert!(starts >= 25, "pool should have grown: {starts} starts");
}

#[test]
fn shrink_pool_mid_run_still_finishes() {
    use hog_core::driver::run_workload_with_events;
    use hog_core::event::Event;
    use hog_sim_core::SimTime;

    let schedule = tiny_schedule(4, 3, 1, 32);
    let cfg = ClusterConfig::hog(20, 42).with_mean_lifetime(SimDuration::from_secs(10_000_000));
    let extra = vec![(SimTime::from_secs(400), Event::ResizePool { delta: -8 })];
    let r = run_workload_with_events(cfg, &schedule, SimDuration::from_secs(12 * 3600), extra);
    assert_finished(&r);
    assert_eq!(r.jobs_succeeded(), 4, "{:?}", r.stuck_jobs);
}
