//! Chaos-layer integration tests: deterministic replay under a fault
//! plan, graceful degradation, and the two negative paths (the invariant
//! auditor catching corrupted accounting, the watchdog catching a run
//! that cannot make progress).

use hog_repro::prelude::*;
use hog_workload::facebook::Bin;

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

fn fingerprint(r: &RunResult) -> (Option<u64>, u64, usize, u64, u64, String) {
    (
        r.response_time.map(|d| d.as_millis()),
        r.events,
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

const SITES: [&str; 5] = [
    "FNAL_FERMIGRID",
    "USCMS-FNAL-WC1",
    "UCSDT2",
    "AGLT2",
    "MIT_CMS",
];

fn chaotic_cfg(seed: u64, intensity: u32) -> ClusterConfig {
    ClusterConfig::hog(20, seed)
        .with_mean_lifetime(SimDuration::from_secs(1800))
        .with_fault_plan(FaultPlan::escalating(seed, intensity, &SITES))
        .with_audit(true)
        .with_watchdog(SimDuration::from_secs(3600))
}

#[test]
fn chaotic_runs_replay_bit_identically() {
    let horizon = SimDuration::from_secs(24 * 3600);
    let run = || run_workload(chaotic_cfg(77, 2), &schedule(9), horizon);
    let a = run();
    let b = run();
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "same seed + same fault plan must replay byte-identically"
    );
    assert_eq!(a.chaos_failure, b.chaos_failure);
}

#[test]
fn chaos_seed_changes_the_run() {
    let horizon = SimDuration::from_secs(24 * 3600);
    let a = run_workload(chaotic_cfg(77, 2), &schedule(9), horizon);
    let b = run_workload(chaotic_cfg(78, 2), &schedule(9), horizon);
    assert_ne!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn audited_chaotic_run_survives_and_completes() {
    // Moderate chaos with the auditor on every master tick: the workload
    // must still finish, with zero invariant violations and no livelock.
    let horizon = SimDuration::from_secs(24 * 3600);
    let r = run_workload(chaotic_cfg(42, 2), &schedule(11), horizon);
    assert!(
        r.chaos_failure.is_none(),
        "no invariant may break under faults: {:?}",
        r.chaos_failure
    );
    assert!(!r.stopped_early, "stuck jobs: {:?}", r.stuck_jobs);
    assert!(
        r.jobs_succeeded() > 0,
        "chaos at intensity 2 should not kill every job"
    );
}

#[test]
fn corrupted_accounting_trips_the_auditor() {
    // CorruptAccounting skews one datanode's `used` bytes without
    // touching its block list — exactly the inconsistency the auditor
    // cross-checks. The run must abort with a structured dump naming the
    // hdfs layer, not plough on over corrupt books.
    let horizon = SimDuration::from_secs(24 * 3600);
    let cfg = ClusterConfig::hog(15, 5)
        .with_fault_plan(FaultPlan::new().at(
            SimDuration::from_secs(120),
            Fault::CorruptAccounting {
                delta_bytes: 1 << 20,
            },
        ))
        .with_audit(true);
    let r = run_workload(cfg, &schedule(7), horizon);
    match &r.chaos_failure {
        Some(ChaosFailure::InvariantViolation {
            at,
            violations,
            dump,
        }) => {
            assert!(*at >= SimTime::ZERO + SimDuration::from_secs(120));
            assert!(!violations.is_empty());
            assert!(
                violations.iter().any(|v| v.layer == "hdfs"),
                "the skewed books are an hdfs-layer violation: {violations:?}"
            );
            assert!(dump.contains("invariant audit failed"), "dump: {dump}");
        }
        other => panic!("expected an invariant violation, got {other:?}"),
    }
}

#[test]
fn auditor_dump_carries_the_flight_recorder_tail() {
    // Same trip-wire as above, but with the flight recorder armed: the
    // failure dump must carry the last trace events, and the tail must be
    // causally consistent — no recorded event may postdate the failure.
    let horizon = SimDuration::from_secs(24 * 3600);
    let cfg = ClusterConfig::hog(15, 5)
        .with_fault_plan(FaultPlan::new().at(
            SimDuration::from_secs(120),
            Fault::CorruptAccounting {
                delta_bytes: 1 << 20,
            },
        ))
        .with_audit(true)
        .with_flight_recorder(40);
    let r = run_workload(cfg, &schedule(7), horizon);
    let failure = r.chaos_failure.as_ref().expect("auditor must trip");
    let dump = failure.dump();
    assert!(
        dump.contains("flight recorder"),
        "dump must embed the recorder tail: {dump}"
    );
    assert!(
        dump.contains("chaos_inject"),
        "the injected fault itself is a trace event and belongs in the tail: {dump}"
    );
    let log = r.trace.as_ref().expect("ring tracing produces a log");
    assert!(!log.events.is_empty());
    let last = log.events.last().unwrap();
    assert!(
        last.time <= failure.at(),
        "last trace event ({:?}) postdates the failure ({:?})",
        last.time,
        failure.at()
    );
}

#[test]
fn wedged_cluster_trips_the_watchdog() {
    // A grid whose sites have zero slots can never form a pool: no
    // progress counter ever moves. The watchdog must abort the run after
    // its window instead of burning the full 24 h horizon.
    let horizon = SimDuration::from_secs(24 * 3600);
    let window = SimDuration::from_secs(1800);
    let mut cfg = ClusterConfig::hog(10, 3).with_watchdog(window);
    if let ResourceConfig::Grid { sites, .. } = &mut cfg.resource {
        for s in sites.iter_mut() {
            s.max_slots = 0;
        }
    }
    let r = run_workload(cfg, &schedule(5), horizon);
    match &r.chaos_failure {
        Some(ChaosFailure::Livelock {
            stalled_for, dump, ..
        }) => {
            assert!(*stalled_for >= window);
            assert!(dump.contains("frozen signature"), "dump: {dump}");
            assert!(dump.contains("phase=0"), "still Forming: {dump}");
        }
        other => panic!("expected a livelock report, got {other:?}"),
    }
    // The whole point: the run stops around the window, not the horizon.
    assert!(
        r.end_time < SimTime::ZERO + SimDuration::from_secs(3 * 3600),
        "watchdog should cut the run short, ended at {:?}",
        r.end_time
    );
}
