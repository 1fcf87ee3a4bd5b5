//! Cross-crate failure-path tests: the lessons of paper §IV-D (zombie
//! datanodes, disk overflow) and §III-B (fast failure detection) observed
//! through the full stack.

use hog_repro::prelude::*;
use hog_sim_core::units::GIB;
use hog_workload::facebook::Bin;

fn schedule(jobs: u32, maps: u32, reduces: u32, seed: u64) -> SubmissionSchedule {
    let bin = Bin {
        number: 4,
        maps_at_facebook: (maps, maps),
        fraction_at_facebook: 1.0,
        maps,
        jobs_in_benchmark: jobs,
        reduces,
    };
    SubmissionSchedule::from_bins(&[bin], seed)
}

const HORIZON: SimDuration = SimDuration::from_secs(24 * 3600);

#[test]
fn tiny_scratch_disks_cause_disk_full_failures() {
    // 20 maps × 32 MiB of intermediate output per node on a 64 MiB
    // scratch disk: only two map outputs fit until the job retires its
    // intermediate data.
    let mut cfg = ClusterConfig::hog(6, 11).with_mean_lifetime(SimDuration::from_secs(100_000_000));
    cfg.mr = cfg.mr.with_scratch(GIB / 16);
    let r = run_workload(cfg, &schedule(3, 20, 4, 12), HORIZON);
    assert!(
        r.jt.failures > 0,
        "scratch exhaustion must fail some attempts"
    );
    // Generous scratch: no failures on the same workload.
    let roomy = ClusterConfig::hog(6, 11).with_mean_lifetime(SimDuration::from_secs(100_000_000));
    let r2 = run_workload(roomy, &schedule(3, 20, 4, 12), HORIZON);
    assert_eq!(r2.jt.failures, 0);
    assert_eq!(r2.jobs_succeeded(), 3);
}

/// Every `(instant, node)` at which a trace records a death of `kind`:
/// the namenode's `dn_dead` or the JobTracker's `tracker_dead`.
fn deaths(r: &RunResult, kind: &str) -> Vec<(SimTime, String)> {
    let log = r.trace.as_ref().expect("run was traced");
    log.events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| {
            (
                e.time,
                e.field("node").expect("death names its node").to_string(),
            )
        })
        .collect()
}

#[test]
fn fast_detection_beats_stock_timeout_under_churn() {
    let churn = SimDuration::from_secs(20 * 60);
    let sched = schedule(4, 15, 4, 13);
    let fast = run_workload(
        ClusterConfig::hog(25, 14)
            .with_mean_lifetime(churn)
            .with_dead_timeout(SimDuration::from_secs(30))
            .with_tracing(TraceMode::Full),
        &sched,
        HORIZON,
    );
    let slow = run_workload(
        ClusterConfig::hog(25, 14)
            .with_mean_lifetime(churn)
            .with_dead_timeout(SimDuration::from_secs(630))
            .with_tracing(TraceMode::Full),
        &sched,
        HORIZON,
    );
    // One `with_dead_timeout` drives both masters: every worker that
    // goes silent dies to the namenode and the JobTracker at the same
    // instant, under either timeout.
    for (label, r) in [("30 s", &fast), ("630 s", &slow)] {
        let dn = deaths(r, "dn_dead");
        assert!(!dn.is_empty(), "{label}: churn must kill some workers");
        assert_eq!(
            dn,
            deaths(r, "tracker_dead"),
            "{label}: namenode and JobTracker disagree on deaths"
        );
    }
    let f = fast
        .response_time
        .map(|d| d.as_secs_f64())
        .unwrap_or(f64::INFINITY);
    let s = slow
        .response_time
        .map(|d| d.as_secs_f64())
        .unwrap_or(f64::INFINITY);
    assert!(
        f <= s,
        "30 s detection ({f}s) should not lose to 630 s detection ({s}s)"
    );
}

#[test]
fn zombies_without_fix_poison_task_execution() {
    let churn = SimDuration::from_secs(25 * 60);
    let sched = schedule(4, 10, 3, 15);
    let r = run_workload(
        ClusterConfig::hog(20, 16)
            .with_mean_lifetime(churn)
            .with_zombies(0.6, false),
        &sched,
        HORIZON,
    );
    assert!(
        r.cluster.zombie_task_failures > 0,
        "zombie trackers must accept-and-fail tasks"
    );
    // First-iteration HOG was genuinely broken at workload scale (the X3
    // ablation shows the collapse); at this mini scale the defence
    // layers — retry backoff, per-job blacklisting, excluded-nodes write
    // retries, fetch-failure map re-execution — may still save every job.
    // What must hold here is *termination* and that the poison was real.
    assert!(!r.stopped_early, "the run must terminate, not hang");
}

#[test]
fn disk_check_evicts_zombies_within_minutes() {
    let churn = SimDuration::from_secs(25 * 60);
    let sched = schedule(4, 10, 3, 15);
    let fixed = run_workload(
        ClusterConfig::hog(20, 16)
            .with_mean_lifetime(churn)
            .with_zombies(0.6, true),
        &sched,
        HORIZON,
    );
    let unfixed = run_workload(
        ClusterConfig::hog(20, 16)
            .with_mean_lifetime(churn)
            .with_zombies(0.6, false),
        &sched,
        HORIZON,
    );
    // Raw zombie-failure counts aren't monotone (evicting a zombie makes
    // the grid start a replacement, whose later preemption re-rolls the
    // zombie dice); what the fix buys is *job survival*.
    assert!(
        fixed.jobs_succeeded() >= unfixed.jobs_succeeded(),
        "the self-check should save jobs: fixed {}/{} vs unfixed {}/{}",
        fixed.jobs_succeeded(),
        fixed.jobs.len(),
        unfixed.jobs_succeeded(),
        unfixed.jobs.len()
    );
    assert!(
        fixed.jobs_succeeded() > 0,
        "with the fix, work must get through"
    );
}

#[test]
fn moon_baseline_runs_and_pins_anchor_replicas() {
    use hog_core::baselines::moon_config;
    let sched = schedule(3, 8, 2, 17);
    let cfg = moon_config(20, 4, 18);
    let r = run_workload(cfg, &sched, HORIZON);
    assert_eq!(
        r.jobs_succeeded(),
        3,
        "MOON config should run the workload: {:?}",
        r.stuck_jobs
    );
}

#[test]
fn anchor_site_missing_from_the_pool_places_site_aware() {
    // An anchor named after no site in the topology pins no replica, so
    // the run is the plain site-aware HOG run, replica for replica.
    let sched = schedule(3, 8, 2, 17);
    let plain = run_workload(ClusterConfig::hog(20, 1), &sched, HORIZON);
    let cfg = ClusterConfig::hog(20, 1).with_placement(PlacementKind::AnchorFirst {
        site_name: "NOWHERE".into(),
    });
    let r = run_workload(cfg, &sched, HORIZON);
    assert_eq!(r.jobs_succeeded(), 3, "{:?}", r.stuck_jobs);
    assert_eq!(
        hog_bench::outcome_fingerprint(&r),
        hog_bench::outcome_fingerprint(&plain)
    );
}

#[test]
fn hod_pays_reconstruction_overhead() {
    use hog_core::baselines::run_hod_workload;
    let sched = schedule(3, 8, 2, 19);
    let hod = run_hod_workload(&sched, 10, SimDuration::from_secs(100_000_000), 20, 3);
    assert_eq!(hod.jobs_succeeded, 3);
    assert!(
        hod.mean_overhead_secs > 60.0,
        "per-job cluster formation + staging must cost minutes, got {}",
        hod.mean_overhead_secs
    );
}
