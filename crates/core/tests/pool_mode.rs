//! Pool mode (hog-fed's view of a cluster): the federation drives each
//! pool through its own event queue and calls the pool-mode entry
//! points between dispatches.

use hog_core::config::PoolRole;
use hog_core::obs::TraceMode;
use hog_core::{Cluster, ClusterConfig};
use hog_sim_core::{EventQueue, Model, Scheduler, SimDuration, SimTime};
use hog_workload::facebook::Bin;
use hog_workload::SubmissionSchedule;

/// A traced pool of `hog(20, 5)` that homes `home_jobs` of `schedule`,
/// dispatched until it is ready for the workload. Returns the pool, its
/// queue and the instant of its last dispatch.
fn ready_pool(
    schedule: &SubmissionSchedule,
    home_jobs: Vec<usize>,
) -> (Cluster, EventQueue<hog_core::event::Event>, SimTime) {
    let mut cfg = ClusterConfig::hog(20, 5).with_tracing(TraceMode::Full);
    cfg.pool = Some(PoolRole {
        pool_id: 0,
        home_jobs,
    });
    let mut cluster = Cluster::new(cfg, schedule);
    let mut queue = EventQueue::new();
    cluster.bootstrap_sched(&mut Scheduler::over(SimTime::ZERO, &mut queue));
    let mut last = SimTime::ZERO;
    while !cluster.pool_ready() {
        let (t, ev) = queue.pop().expect("the pool forms and uploads");
        assert!(t < SimTime::from_secs(24 * 3600), "pool never got ready");
        last = t;
        cluster.handle(ev, &mut Scheduler::over(t, &mut queue));
    }
    (cluster, queue, last)
}

/// The `(time, kind)` of every trace event past the first `from`.
fn events_since(cluster: &mut Cluster, from: usize) -> Vec<(SimTime, &'static str)> {
    let log = cluster.take_trace().expect("tracing is on");
    log.events[from..]
        .iter()
        .map(|e| (e.time, e.kind))
        .collect()
}

/// `stage_dataset`, `begin_workload` and `external_submit` run between
/// dispatches, so each must stamp what it traces with the instant of its
/// own call, not with the pool's last dispatch.
#[test]
fn pool_entry_points_stamp_events_with_their_own_instant() {
    let bin = Bin {
        number: 1,
        maps_at_facebook: (4, 4),
        fraction_at_facebook: 1.0,
        maps: 4,
        jobs_in_benchmark: 2,
        reduces: 1,
    };
    let schedule = SubmissionSchedule::from_bins(&[bin], 11);
    let (mut pool, mut queue, last) = ready_pool(&schedule, vec![0]);
    let gap = SimDuration::from_secs(100);

    let seen = pool.take_trace().unwrap().events.len();
    let staged_at = last + gap;
    pool.stage_dataset(1, 2, &mut Scheduler::over(staged_at, &mut queue));
    let staged = events_since(&mut pool, seen);
    assert!(staged.iter().any(|&(_, k)| k == "flow_start"), "{staged:?}");
    assert!(staged.iter().all(|&(t, _)| t == staged_at), "{staged:?}");

    let seen = seen + staged.len();
    let base = staged_at + gap;
    pool.begin_workload(base, &mut Scheduler::over(base, &mut queue));
    pool.external_submit(0, &mut Scheduler::over(base, &mut queue));
    let submitted = events_since(&mut pool, seen);
    assert!(
        submitted.iter().any(|&(_, k)| k == "job_submit"),
        "{submitted:?}"
    );
    assert!(submitted.iter().all(|&(t, _)| t == base), "{submitted:?}");
}

/// A pool with no home job and an empty schedule closes its workload the
/// moment `begin_workload` starts it: the `phase` event carries `base`.
#[test]
fn an_empty_pool_traces_its_done_phase_at_the_workload_base() {
    let empty = SubmissionSchedule::from_jobs(Vec::new());
    let (mut pool, mut queue, last) = ready_pool(&empty, Vec::new());
    let seen = pool.take_trace().unwrap().events.len();
    let base = last + SimDuration::from_secs(100);
    pool.begin_workload(base, &mut Scheduler::over(base, &mut queue));
    let done = events_since(&mut pool, seen);
    assert!(done.iter().any(|&(_, k)| k == "phase"), "{done:?}");
    assert!(done.iter().all(|&(t, _)| t == base), "{done:?}");
}
