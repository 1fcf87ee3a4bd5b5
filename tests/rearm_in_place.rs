//! In-place timer re-arms are invisible end to end.
//!
//! The engine re-arms a heartbeat or disk-check firing in place, without
//! dispatching it, when `Cluster::rearm_only` says the dispatch would
//! only re-arm the timer. A pass-through model that keeps the trait's
//! default answer (`false`) dispatches every firing instead, as the
//! repository benchmark's traced wrapper does. Both must give the same
//! run: outcome fingerprint, event count, peak queue and the full trace,
//! byte for byte. The scenarios reach each reason a timer re-arms
//! (partitioned worker, stalled or crashed masters, an idle JobTracker,
//! a healthy disk check) and each way it stops re-arming (work to
//! assign, a suspect tracker, a zombie's disk check).

use hog_bench::outcome_fingerprint;
use hog_core::driver::collect_result;
use hog_core::event::Event;
use hog_core::{Cluster, SchedPolicy};
use hog_repro::obs::to_jsonl;
use hog_repro::prelude::*;
use hog_sim_core::engine::{Model, Scheduler};
use hog_sim_core::Simulation;
use hog_workload::facebook::Bin;
use hog_workload::StragglerMix;
use std::cell::Cell;
use std::collections::VecDeque;

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

const HORIZON: SimDuration = SimDuration::from_secs(24 * 3600);

/// Forwards everything but `rearm_only`: every timer firing is
/// dispatched.
struct DispatchAll(Cluster);

impl Model for DispatchAll {
    type Event = Event;

    fn handle(&mut self, event: Event, sched: &mut Scheduler<'_, Event>) {
        self.0.handle(event, sched);
    }

    fn finished(&self) -> bool {
        self.0.finished()
    }

    fn batchable(&self, event: &Event) -> bool {
        self.0.batchable(event)
    }

    fn handle_batch(&mut self, events: &mut VecDeque<Event>, sched: &mut Scheduler<'_, Event>) {
        self.0.handle_batch(events, sched);
    }
}

/// Forwards everything, `rearm_only` included, and counts the
/// heartbeats re-armed in place and the ones dispatched.
struct CountRearms {
    inner: Cluster,
    rearmed: Cell<u64>,
    dispatched: u64,
}

impl Model for CountRearms {
    type Event = Event;

    fn handle(&mut self, event: Event, sched: &mut Scheduler<'_, Event>) {
        self.dispatched += u64::from(matches!(event, Event::Heartbeat { .. }));
        self.inner.handle(event, sched);
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn batchable(&self, event: &Event) -> bool {
        self.inner.batchable(event)
    }

    fn handle_batch(&mut self, events: &mut VecDeque<Event>, sched: &mut Scheduler<'_, Event>) {
        // `Cluster::batchable` admits heartbeats only.
        let before = events.len();
        self.inner.handle_batch(events, sched);
        self.dispatched += (before - events.len()) as u64;
    }

    fn rearm_only(&self, event: &Event, now: SimTime) -> bool {
        let rearm = self.inner.rearm_only(event, now);
        if rearm && matches!(event, Event::Heartbeat { .. }) {
            self.rearmed.set(self.rearmed.get() + 1);
        }
        rearm
    }
}

/// `run_workload` over a wrapping model.
fn run_wrapped<M: Model<Event = Event>>(
    cfg: ClusterConfig,
    schedule: &SubmissionSchedule,
    wrap: impl FnOnce(Cluster) -> M,
    unwrap: impl FnOnce(M) -> Cluster,
) -> RunResult {
    let mut cluster = Cluster::new(cfg, schedule);
    let mut sim = Simulation::new()
        .with_horizon(SimTime::ZERO + HORIZON)
        .with_event_budget(2_000_000_000);
    cluster.bootstrap_sched(&mut sim.scheduler());
    let mut model = wrap(cluster);
    let stats = sim.run(&mut model);
    collect_result(unwrap(model), schedule, stats)
}

/// [`run_wrapped`] with [`CountRearms`]: the result, and the heartbeats
/// re-armed in place and dispatched.
fn count_rearms(cfg: ClusterConfig, schedule: &SubmissionSchedule) -> (RunResult, u64, u64) {
    let wrap = |inner| CountRearms {
        inner,
        rearmed: Cell::new(0),
        dispatched: 0,
    };
    let (mut rearmed, mut dispatched) = (0, 0);
    let r = run_wrapped(cfg, schedule, wrap, |m| {
        (rearmed, dispatched) = (m.rearmed.get(), m.dispatched);
        m.inner
    });
    (r, rearmed, dispatched)
}

/// Run `cfg` (fully traced) on the bare cluster and with every firing
/// dispatched, assert the two runs are the same and that heartbeats
/// were re-armed in place, and return the bare run's result and trace.
fn same_run(name: &str, cfg: ClusterConfig, schedule: &SubmissionSchedule) -> (RunResult, String) {
    let cfg = cfg.with_tracing(TraceMode::Full);
    let mut bare = run_workload(cfg.clone(), schedule, HORIZON);
    let mut all = run_wrapped(cfg.clone(), schedule, DispatchAll, |m| m.0);
    let (counted, rearmed, dispatched) = count_rearms(cfg, schedule);
    assert!(
        rearmed > 0,
        "{name}: none of {dispatched} heartbeats re-armed in place"
    );
    assert_eq!(
        counted.events, bare.events,
        "{name}: counting changed the run"
    );
    assert!(!bare.stopped_early, "{name}: the run did not finish");
    assert_eq!(
        outcome_fingerprint(&bare),
        outcome_fingerprint(&all),
        "{name}: outcome"
    );
    assert_eq!(bare.events, all.events, "{name}: events handled");
    assert_eq!(bare.peak_queue, all.peak_queue, "{name}: peak queue");
    let jsonl = to_jsonl(&bare.trace.take().expect("traced").events);
    let all_jsonl = to_jsonl(&all.trace.take().expect("traced").events);
    assert!(jsonl == all_jsonl, "{name}: the traces differ");
    (bare, jsonl)
}

/// Partitions healed before and after the 30 s dead timeout, a master
/// stall, and a zombie outbreak the disk check shuts down.
#[test]
fn faults_that_gate_timers_keep_the_run() {
    let plan = FaultPlan::new()
        .at(
            secs(200),
            Fault::SitePartition {
                site: "UCSDT2".into(),
                duration: secs(20),
            },
        )
        .at(
            secs(300),
            Fault::SitePartition {
                site: "FNAL_FERMIGRID".into(),
                duration: secs(120),
            },
        )
        .at(secs(500), Fault::MasterStall { duration: secs(40) })
        .at(secs(600), Fault::ZombieOutbreak { count: 3 });
    let cfg = ClusterConfig::hog(20, 31)
        .with_fault_plan(plan)
        .with_audit(true);
    let (r, trace) = same_run("faults", cfg, &schedule(10, 16, 3, 2026));
    assert!(r.chaos_failure.is_none(), "{:?}", r.chaos_failure);
    for kind in [
        "dn_revived",
        "tracker_dead",
        "master_stall",
        "zombie_detected",
    ] {
        assert!(trace.contains(kind), "no {kind} in the trace");
    }
}

/// A master crash with checkpoint failover: heartbeats re-arm while the
/// masters are down, and the promoted JobTracker answers after.
#[test]
fn master_failover_keeps_the_run() {
    let plan = FaultPlan::new().at(secs(400), Fault::MasterCrash);
    let cfg = ClusterConfig::hog(20, 6)
        .with_failover(secs(300))
        .with_fault_plan(plan);
    let (r, _) = same_run("failover", cfg, &schedule(10, 16, 3, 106));
    assert_eq!(r.failover.promotions, 1);
}

/// Failure-aware placement with stragglers under calibrated churn, and
/// an elastic pool.
#[test]
fn churn_and_elastic_pools_keep_the_run() {
    let cfg = ClusterConfig::hog(30, 8)
        .with_scheduler(SchedPolicy::FailureAware)
        .with_stragglers(StragglerMix::osg_default())
        .with_calibrated_churn_at(8.0);
    let (r, _) = same_run("churn", cfg, &schedule(8, 16, 3, 308));
    assert!(r.grid.is_some_and(|(preempted, _, _)| preempted > 0));
    let cfg = ClusterConfig::hog(10, 9).with_elastic(5, 30);
    let (r, _) = same_run("elastic", cfg, &schedule(12, 20, 3, 409));
    assert!(!r.elastic_actions.is_empty(), "the pool never resized");
}

/// On a 100-node pool most heartbeats can get nothing: at least 80 %
/// re-arm in place, and the run is the bare cluster's.
#[test]
fn most_heartbeats_at_100_nodes_rearm_in_place() {
    let sched = schedule(6, 16, 3, 107);
    let cfg = ClusterConfig::hog(100, 7);
    let bare = run_workload(cfg.clone(), &sched, HORIZON);
    let (counted, rearmed, dispatched) = count_rearms(cfg, &sched);
    assert_eq!(outcome_fingerprint(&counted), outcome_fingerprint(&bare));
    assert_eq!(counted.events, bare.events);
    let share = rearmed as f64 / (rearmed + dispatched) as f64;
    assert!(
        share >= 0.8,
        "{rearmed} of {} heartbeats re-armed in place",
        rearmed + dispatched
    );
}
