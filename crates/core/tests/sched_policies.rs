//! Scheduler-policy tests at the full-cluster level: every policy is
//! deterministic (same seed → bit-identical outcome), every policy
//! completes the workload, and the delay scheduler never does worse on
//! node-locality than FIFO (the strict locality *win* on the contended
//! Facebook workload is tracked by `hog-bench --bin sched`; see
//! EXPERIMENTS.md).

use hog_core::driver::{assert_finished, run_workload};
use hog_core::{ClusterConfig, SchedPolicy};
use hog_sim_core::SimDuration;
use hog_workload::facebook::Bin;
use hog_workload::SubmissionSchedule;

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

/// Everything outcome-defining a run produces, for bit-identity checks.
fn outcome(policy: SchedPolicy) -> (Option<u64>, u64, usize, [u64; 6]) {
    let schedule = tiny_schedule(4, 4, 1, 13);
    let cfg = ClusterConfig::hog(10, 17)
        .with_scheduler(policy)
        .with_mean_lifetime(SimDuration::from_secs(2400));
    let r = run_workload(cfg, &schedule, SimDuration::from_secs(12 * 3600));
    assert_finished(&r);
    (
        r.response_time.map(|d| d.as_millis()),
        r.events,
        r.jobs_succeeded(),
        [
            r.jt.node_local,
            r.jt.rack_local,
            r.jt.site_local,
            r.jt.remote,
            r.jt.speculative,
            r.jt.failures,
        ],
    )
}

#[test]
fn every_policy_is_deterministic() {
    for policy in [
        SchedPolicy::Fifo,
        SchedPolicy::Fair,
        SchedPolicy::FailureAware,
    ] {
        let a = outcome(policy);
        let b = outcome(policy);
        assert_eq!(a, b, "same-seed runs diverged under {policy:?}");
        assert_eq!(a.2, 4, "jobs lost under {policy:?}");
    }
}

#[test]
fn policies_are_actually_wired_through() {
    // FIFO and fair must take different decisions on a contended pool —
    // if the config knob were ignored, these would be identical runs.
    let fifo = outcome(SchedPolicy::Fifo);
    let fair = outcome(SchedPolicy::Fair);
    assert_ne!(
        fifo.3, fair.3,
        "fair scheduler produced FIFO's exact locality profile; knob ignored?"
    );
}

#[test]
fn delay_scheduling_does_not_lose_node_locality() {
    let fifo = outcome(SchedPolicy::Fifo);
    let fair = outcome(SchedPolicy::Fair);
    let share = |c: [u64; 6]| {
        let total: u64 = c[..4].iter().sum();
        (c[0] + c[1]) as f64 / total.max(1) as f64
    };
    assert!(
        share(fair.3) >= share(fifo.3),
        "delay scheduling lost locality: fair {:?} vs fifo {:?}",
        fair.3,
        fifo.3
    );
}
