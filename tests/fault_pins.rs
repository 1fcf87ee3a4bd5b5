//! Outcome pins for the fault paths that no study baseline and no
//! repository-benchmark workload reaches: zombie datanodes with and
//! without the disk self-check (X3's three arms), a site partition, a
//! zombie outbreak, chaos stragglers, a master crash while a site is cut
//! off, and HDFS balancer moves after the pool grows. Each pin is the
//! `hog_bench::outcome_fingerprint` of a small run, so a refactor of
//! those paths that moves any job completion, locality count or
//! replication counter fails here.

use hog_bench::outcome_fingerprint;
use hog_core::driver::run_workload_with_events;
use hog_core::event::Event;
use hog_repro::prelude::*;
use hog_sim_core::units::GIB;
use hog_sim_core::SimTime;
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

/// X3's three arms (no zombies, zombies without the fix, zombies with
/// the disk self-check) on a 20-node pool and a 20-job schedule.
#[test]
fn zombie_ablation_arms_keep_their_fingerprints() {
    let arm = |zombies: Option<bool>| {
        let mut cfg = ClusterConfig::hog(20, 603).with_mean_lifetime(secs(45 * 60));
        if let Some(disk_check) = zombies {
            cfg = cfg.with_zombies(0.3, disk_check);
        }
        run_workload(cfg, &schedule(20, 20, 4, 1602), HORIZON)
    };
    let no_fix = arm(Some(false));
    assert!(
        no_fix.cluster.zombie_task_failures > 0,
        "zombies must spawn"
    );
    let got = [arm(None), no_fix, arm(Some(true))].map(|r| outcome_fingerprint(&r));
    assert_eq!(
        got,
        ["fd805190a24f9d8f", "cf55a0103a80f445", "3d0a68d9a145e474"]
    );
}

/// The `chaos_drill` example's incident (a ten-minute UCSDT2 partition,
/// a WAN sag, a three-node zombie outbreak) plus four chaos stragglers,
/// on a smaller pool and schedule, with the auditor and watchdog armed.
#[test]
fn chaos_drill_with_stragglers_keeps_its_fingerprint() {
    let plan = FaultPlan::new()
        .at(
            secs(60),
            Fault::Straggler {
                count: 4,
                cpu_factor: 3.0,
                disk_factor: 2.0,
            },
        )
        .at(
            secs(120),
            Fault::SitePartition {
                site: "UCSDT2".into(),
                duration: secs(600),
            },
        )
        .at(
            secs(180),
            Fault::WanDegrade {
                factor: 0.33,
                duration: secs(480),
            },
        )
        .at(secs(300), Fault::ZombieOutbreak { count: 3 });
    let cfg = ClusterConfig::hog(20, 31)
        .with_fault_plan(plan)
        .with_audit(true)
        .with_watchdog(secs(3600));
    let r = run_workload(cfg, &schedule(12, 20, 4, 2026), HORIZON);
    assert!(r.chaos_failure.is_none(), "{:?}", r.chaos_failure);
    assert!(r.cluster.zombie_task_failures > 0, "the outbreak must bite");
    assert_eq!(outcome_fingerprint(&r), "35090caec0a506aa");
}

/// A master crash two seconds into a site partition, with checkpoints
/// every five minutes: promotion re-registers only the reachable
/// workers, and the cut-off ones rejoin when the partition heals.
#[test]
fn crash_during_a_partition_keeps_its_fingerprint() {
    let plan = FaultPlan::new()
        .at(
            secs(410),
            Fault::SitePartition {
                site: "FNAL_FERMIGRID".into(),
                duration: secs(35),
            },
        )
        .at(secs(412), Fault::MasterCrash);
    let cfg = ClusterConfig::hog(20, 6)
        .with_failover(secs(300))
        .with_fault_plan(plan);
    let r = run_workload(
        cfg,
        &SubmissionSchedule::facebook_truncated(106),
        secs(8000),
    );
    assert_eq!(r.failover.promotions, 1);
    assert_eq!(outcome_fingerprint(&r), "a2c56ad4c173d454");
}

/// The pool grows by 15 nodes at 300 s, and two balancer ticks at 420 s
/// and 480 s move blocks onto the new, empty datanodes while the jobs
/// still run. The 4 GiB disks make the ten original nodes (holding every
/// input block at replication 10) sit more than the balancer's 10-point
/// threshold above mean utilisation; at the default 120 GiB no node
/// would, and a tick would plan no move.
#[test]
fn balancer_moves_after_a_grow_keep_their_fingerprint() {
    let run = |ticks: &[u64]| {
        let mut cfg = ClusterConfig::hog(10, 41).with_mean_lifetime(secs(10_000_000));
        cfg.hdfs = cfg.hdfs.with_capacity(4 * GIB);
        let mut extra = vec![(SimTime::from_secs(300), Event::ResizePool { delta: 15 })];
        extra.extend(
            ticks
                .iter()
                .map(|&t| (SimTime::from_secs(t), Event::BalancerTick)),
        );
        run_workload_with_events(cfg, &schedule(6, 4, 2, 31), secs(12 * 3600), extra)
    };
    let balanced = run(&[420, 480]);
    assert_eq!(balanced.jobs_succeeded(), 6, "{:?}", balanced.stuck_jobs);
    let fingerprint = outcome_fingerprint(&balanced);
    assert_ne!(
        fingerprint,
        outcome_fingerprint(&run(&[])),
        "the balancer ticks must move blocks"
    );
    assert_eq!(fingerprint, "7404b02bbd0937d8");
}
