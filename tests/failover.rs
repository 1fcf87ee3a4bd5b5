//! Master-failover integration tests: checkpointed Namenode/JobTracker
//! recovery under chaos-injected master crashes.
//!
//! Covers the recovery protocol end-to-end (crash → detection →
//! promotion → re-registration → replay → completion), the interaction
//! of `MasterStall` with the checkpoint cadence, mirror-mode fingerprint
//! identity, and a property test that `restore(checkpoint(state))` is
//! bit-identical for randomized master states.

use hog_repro::core::{FailoverConfig, SingleMasterStack};
use hog_repro::hdfs::{HdfsConfig, Namenode};
use hog_repro::mapreduce::{JobSubmission, JobTracker, MrParams};
use hog_repro::net::Topology;
use hog_repro::prelude::*;
use hog_repro::sim::units::GIB;
use hog_repro::sim::{SimRng, HOG_DEAD_TIMEOUT};
use hog_workload::facebook::Bin;
use proptest::prelude::*;

fn schedule(seed: u64) -> SubmissionSchedule {
    let bin = Bin {
        number: 3,
        maps_at_facebook: (8, 8),
        fraction_at_facebook: 1.0,
        maps: 8,
        jobs_in_benchmark: 4,
        reduces: 2,
    };
    SubmissionSchedule::from_bins(&[bin], seed)
}

/// Job-outcome fingerprint. Deliberately excludes the raw event count:
/// configs under comparison here differ in *inert* events (the
/// `MasterCrash` chaos dispatch itself), which must not affect any
/// simulated outcome.
fn outcome(r: &RunResult) -> (Option<u64>, usize, u64, u64, String) {
    (
        r.response_time.map(|d| d.as_millis()),
        r.jobs_succeeded(),
        r.jt.node_local + r.jt.site_local + r.jt.remote,
        r.nn_counters.0,
        r.jobs
            .iter()
            .map(|j| format!("{:?}", j.finished.map(|t| t.as_millis())))
            .collect::<Vec<_>>()
            .join(","),
    )
}

/// Full fingerprint (event count included) for replay-identity checks.
fn fingerprint(r: &RunResult) -> (u64, (Option<u64>, usize, u64, u64, String)) {
    (r.events, outcome(r))
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

const HORIZON: SimDuration = SimDuration::from_secs(24 * 3600);

fn base_cfg(seed: u64) -> ClusterConfig {
    ClusterConfig::hog(20, seed).with_mean_lifetime(secs(1800))
}

fn crash_at(at: u64) -> FaultPlan {
    FaultPlan::new().at(secs(at), Fault::MasterCrash)
}

#[test]
fn crash_mid_run_recovers_and_completes_every_job() {
    let cfg = base_cfg(21)
        .with_failover(secs(120))
        .with_fault_plan(crash_at(300));
    let r = run_workload(cfg, &schedule(9), HORIZON);
    assert!(!r.stopped_early, "stuck jobs: {:?}", r.stuck_jobs);
    assert_eq!(
        r.jobs_succeeded(),
        r.jobs.len(),
        "every job must complete across the failover"
    );
    assert_eq!(r.failover.crashes, 1);
    assert_eq!(r.failover.promotions, 1);
    assert_eq!(
        r.failover.last_recovery,
        secs(30),
        "promotion fires exactly at the detection timeout"
    );
    // The edit window lost is bounded by the checkpoint interval plus
    // one master-tick of cadence quantization.
    assert!(
        r.failover.last_lost_window <= secs(120) + secs(60),
        "lost window {:?} exceeds interval + tick slack",
        r.failover.last_lost_window
    );
    assert!(
        r.failover.reregistrations > 0,
        "promotion must re-register the surviving workers"
    );
    assert!(
        !r.failover.checkpoints.is_empty(),
        "periodic checkpointing must have run"
    );

    // Headline bound: completion overhead versus the crash-free twin is
    // detection + lost edit window + replay of the killed in-flight
    // work. The bench sweeps this precisely; here we assert a generous
    // envelope to stay robust across schedules.
    let free = run_workload(base_cfg(21), &schedule(9), HORIZON);
    let (rt, ft) = (r.response_time.unwrap(), free.response_time.unwrap());
    let overhead = rt.as_secs_f64() - ft.as_secs_f64();
    assert!(
        overhead <= (30 + 120) as f64 + 2400.0,
        "recovery overhead {overhead:.0}s exceeds detection + edit window + replay envelope"
    );
}

#[test]
fn failover_runs_replay_bit_identically() {
    let run = || {
        let cfg = base_cfg(77)
            .with_failover(secs(120))
            .with_fault_plan(crash_at(400));
        run_workload(cfg, &schedule(11), HORIZON)
    };
    let a = run();
    let b = run();
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "crash + recovery must replay byte-identically"
    );
    assert_eq!(a.failover.checkpoints, b.failover.checkpoints);
}

#[test]
fn master_crash_without_failover_config_is_recorded_and_ignored() {
    // The paper's single-master deployment: nothing to promote, nothing
    // changes. The run with the fault is outcome-identical to the run
    // without it.
    let with_fault = run_workload(
        base_cfg(33).with_fault_plan(crash_at(300)),
        &schedule(13),
        HORIZON,
    );
    let without = run_workload(base_cfg(33), &schedule(13), HORIZON);
    assert_eq!(outcome(&with_fault), outcome(&without));
    assert_eq!(with_fault.failover.crashes, 0);
    assert_eq!(with_fault.failover.promotions, 0);
}

#[test]
fn mirror_failover_crash_is_outcome_identical_to_crash_free_run() {
    // Interval zero = synchronous standby: a crash loses nothing and
    // causes no downtime, so the run is fingerprint-identical to a
    // crash-free one (the acceptance identity for continuous
    // checkpointing).
    let crash_free = run_workload(base_cfg(44), &schedule(15), HORIZON);
    let mirrored = run_workload(
        base_cfg(44)
            .with_failover(SimDuration::ZERO)
            .with_fault_plan(crash_at(300)),
        &schedule(15),
        HORIZON,
    );
    assert_eq!(outcome(&crash_free), outcome(&mirrored));
    assert_eq!(mirrored.failover.crashes, 1);
    assert_eq!(mirrored.failover.promotions, 1);
    assert_eq!(mirrored.failover.last_recovery, SimDuration::ZERO);
    assert!(
        mirrored.failover.checkpoints.is_empty(),
        "mirror mode takes no periodic checkpoints"
    );
}

#[test]
fn master_stall_defers_checkpoints_outside_the_stall_window() {
    // Regression (stall × checkpoint lifecycle): a stalled master's
    // checkpoint thread is as suspended as the rest of it. No checkpoint
    // may be stamped inside the stall window — the cadence resumes after
    // the stall, without double-applying the missed snapshot.
    let stall_from = 120u64;
    let stall_secs = 240u64;
    let cfg = base_cfg(55)
        .with_failover(secs(60))
        .with_fault_plan(FaultPlan::new().at(
            secs(stall_from),
            Fault::MasterStall {
                duration: secs(stall_secs),
            },
        ));
    let r = run_workload(cfg, &schedule(17), HORIZON);
    assert!(!r.stopped_early, "stuck jobs: {:?}", r.stuck_jobs);
    let start = r.workload_start.expect("workload ran");
    let lo = start + secs(stall_from);
    let hi = start + secs(stall_from + stall_secs);
    let inside: Vec<_> = r
        .failover
        .checkpoints
        .iter()
        .filter(|&&t| t > lo && t < hi)
        .collect();
    assert!(
        inside.is_empty(),
        "checkpoints stamped inside the stall window: {inside:?}"
    );
    assert!(
        r.failover.checkpoints.iter().any(|&t| t <= lo),
        "a checkpoint must precede the stall"
    );
    assert!(
        r.failover.checkpoints.iter().any(|&t| t >= hi),
        "the cadence must resume after the stall"
    );
    // No double-apply: checkpoint stamps are strictly increasing.
    assert!(
        r.failover.checkpoints.windows(2).all(|w| w[0] < w[1]),
        "duplicate or reordered checkpoint stamps: {:?}",
        r.failover.checkpoints
    );
}

#[test]
fn stall_then_crash_still_recovers() {
    // A stall immediately before the crash must not corrupt the
    // checkpoint the standby later restores.
    let cfg = base_cfg(66).with_failover(secs(120)).with_fault_plan(
        FaultPlan::new()
            .at(secs(150), Fault::MasterStall { duration: secs(60) })
            .at(secs(300), Fault::MasterCrash),
    );
    let r = run_workload(cfg, &schedule(19), HORIZON);
    assert!(!r.stopped_early, "stuck jobs: {:?}", r.stuck_jobs);
    assert_eq!(r.jobs_succeeded(), r.jobs.len());
    assert_eq!(r.failover.crashes, 1);
    assert_eq!(r.failover.promotions, 1);
}

#[test]
fn no_repair_copy_is_sourced_from_a_zombie_across_a_failover() {
    // Regression: six workers turn zombie after the last checkpoint, a
    // site is cut off two seconds before the master crashes, and the
    // promoted master replays only the reachable workers. A cut-off
    // zombie rejoins when the partition heals, and its storage must
    // still count as gone: no repair copy may be read off it.
    let plan = FaultPlan::new()
        .at(secs(400), Fault::ZombieOutbreak { count: 6 })
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
        .with_fault_plan(plan)
        .with_tracing(TraceMode::Full);
    let r = run_workload(
        cfg,
        &SubmissionSchedule::facebook_truncated(106),
        secs(8000),
    );
    assert_eq!(r.failover.promotions, 1);
    let log = r.trace.as_ref().expect("tracing was enabled");
    let node = |e: &hog_repro::obs::TraceEvent, key: &str| match e.field(key) {
        Some(hog_repro::obs::FieldValue::U64(n)) => *n,
        other => panic!("{} without a numeric {key}: {other:?}", e.kind),
    };
    let mut zombies = std::collections::BTreeSet::new();
    let mut bad = Vec::new();
    for e in &log.events {
        match e.kind {
            "storage_failed" => {
                zombies.insert(node(e, "node"));
            }
            "zombie_detected" | "node_lost" => {
                zombies.remove(&node(e, "node"));
            }
            "repl_done"
                if e.field("ok") == Some(&hog_repro::obs::FieldValue::Bool(true))
                    && zombies.contains(&node(e, "src")) =>
            {
                bad.push((e.time, node(e, "block"), node(e, "src")));
            }
            _ => {}
        }
    }
    assert!(
        bad.is_empty(),
        "{} repair copies read off zombie storage, first {:?}",
        bad.len(),
        bad.first()
    );
}

/// Build a pseudo-random master pair (namespace + block map + datanode
/// table on the namenode; jobs, trackers and live attempts on the
/// jobtracker) from a seed, exercising the real mutation API.
fn random_masters(
    seed: u64,
    nodes: usize,
    files: usize,
    jobs: usize,
    beats: usize,
) -> (Topology, Namenode, JobTracker) {
    let mut topo = Topology::new();
    let site_a = topo.add_site("SITE_A", "a.example.org");
    let site_b = topo.add_site("SITE_B", "b.example.org");
    let node_ids: Vec<_> = (0..nodes)
        .map(|i| {
            let site = if i % 2 == 0 { site_a } else { site_b };
            topo.add_node(site)
        })
        .collect();
    let mut driver = SimRng::seed_from_u64(seed ^ 0x0fa1_10e4);
    let t0 = SimTime::ZERO + secs(10);

    let mut nn = Namenode::new(
        HdfsConfig::hog().with_capacity(4 * GIB),
        SimRng::seed_from_u64(seed),
    );
    for &n in &node_ids {
        nn.register_datanode(t0, n, topo.site_of(n));
    }
    let mut blocks = Vec::new();
    for f in 0..files {
        let fid = nn.create_file(format!("/in/f{f}"), 3);
        let n_blocks = 1 + driver.index(3);
        for _ in 0..n_blocks {
            let size = (8 + driver.index(64) as u64) * 1024 * 1024;
            if let Some((b, targets)) = nn.allocate_block(fid, size, None, &topo) {
                // Commit to a random prefix of the pipeline so some
                // blocks are healthy, some under-replicated.
                let keep = 1 + driver.index(targets.len());
                nn.commit_block(b, &targets[..keep]);
                blocks.push((b, size));
            }
        }
        if driver.chance(0.5) {
            nn.complete_file(fid);
        }
    }
    // A silent datanode for good measure.
    if nodes > 2 {
        nn.mark_silent(t0 + secs(5), node_ids[1]);
    }

    let mut jt = JobTracker::new(
        MrParams::hog(),
        HOG_DEAD_TIMEOUT,
        SimRng::seed_from_u64(seed ^ 1),
    );
    for (i, &n) in node_ids.iter().enumerate() {
        let site = if i % 2 == 0 { site_a } else { site_b };
        jt.register_tracker(t0, n, site, 1, 1);
    }
    for j in 0..jobs {
        let n_inputs = (1 + driver.index(blocks.len().max(1))).min(blocks.len());
        let input_blocks: Vec<_> = blocks[..n_inputs].to_vec();
        let split_locations = input_blocks
            .iter()
            .map(|&(b, _)| nn.block(b).replicas.iter().copied().collect())
            .collect();
        jt.submit_job(
            t0 + secs(j as u64),
            JobSubmission {
                input_blocks,
                split_locations,
                reduces: driver.index(3) as u32,
                map_cpu_secs: 30.0,
                map_output_bytes: 1 << 20,
                reduce_cpu_secs: 20.0,
                reduce_output_bytes: 1 << 20,
                output_replication: 2,
            },
        );
    }
    // Drive some heartbeats so attempts start and the scheduler/rng
    // state moves — the checkpoint must capture all of it.
    for k in 0..beats {
        let n = node_ids[k % node_ids.len()];
        let _ = jt.heartbeat(t0 + secs(20 + k as u64), n, &topo);
    }
    (topo, nn, jt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `restore(checkpoint(state))` is bit-identical for randomized
    /// namespace/job-ledger states: the deterministic fsimage and ledger
    /// exports of the restored masters match the originals exactly, and
    /// the checkpoint fingerprint survives a crash/promote cycle.
    #[test]
    fn prop_checkpoint_restore_roundtrip(
        seed in 0u64..100_000,
        nodes in 3usize..10,
        files in 1usize..5,
        jobs in 1usize..4,
        beats in 0usize..16,
    ) {
        let (_topo, nn, jt) = random_masters(seed, nodes, files, jobs, beats);
        let fsimage = nn.export_fsimage();
        let ledger = jt.export_ledger();
        let mut stack =
            SingleMasterStack::new(nn, jt, Some(FailoverConfig::every(secs(60))));
        let t = SimTime::ZERO + secs(100);
        stack.take_checkpoint(t);
        let cp = stack.checkpoint().expect("just taken");
        // checkpoint == live state, bit for bit.
        prop_assert_eq!(cp.nn.export_fsimage(), fsimage.clone());
        prop_assert_eq!(cp.jt.export_ledger(), ledger.clone());
        let fp = cp.fingerprint();
        // Crash and promote: the restored live masters equal the
        // checkpoint (and therefore the original state) exactly.
        prop_assert!(stack.crash(t + secs(10)));
        prop_assert!(stack.promote(t + secs(40)).is_some());
        prop_assert_eq!(stack.nn.export_fsimage(), fsimage);
        prop_assert_eq!(stack.jt.export_ledger(), ledger);
        stack.take_checkpoint(t + secs(50));
        prop_assert_eq!(stack.checkpoint().expect("retaken").fingerprint(), fp);
    }
}
