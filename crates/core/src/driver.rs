//! Experiment driver: run one workload on one cluster configuration and
//! collect the measurements the paper reports.

use crate::cluster::{Cluster, ClusterCounters, RunPhase};
use crate::config::ClusterConfig;
use hog_mapreduce::jobtracker::JtCounters;
use hog_sim_core::engine::StopReason;
use hog_sim_core::metrics::StepSeries;
use hog_sim_core::{SimDuration, SimTime, Simulation};
use hog_workload::SubmissionSchedule;

/// Outcome of one job of the workload.
#[derive(Clone, Copy, Debug)]
pub struct JobOutcome {
    /// Index in the submission schedule.
    pub index: usize,
    /// Table I bin.
    pub bin: u8,
    /// Map / reduce task counts.
    pub maps: u32,
    /// Reduce task count.
    pub reduces: u32,
    /// Submission instant (absolute).
    pub submitted: SimTime,
    /// Completion instant, if it finished.
    pub finished: Option<SimTime>,
    /// Whether it succeeded (false = failed or unfinished at horizon).
    pub succeeded: bool,
}

impl JobOutcome {
    /// Job response time (completion − submission).
    pub fn response(&self) -> Option<SimDuration> {
        self.finished.map(|f| f.saturating_since(self.submitted))
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Config label.
    pub name: String,
    /// Seed used.
    pub seed: u64,
    /// Workload response time: first submission → last job terminal.
    /// `None` when the horizon cut the run short.
    pub response_time: Option<SimDuration>,
    /// Instant of the first submission.
    pub workload_start: Option<SimTime>,
    /// Per-job outcomes.
    pub jobs: Vec<JobOutcome>,
    /// Master-view node availability over time (Figure 5).
    pub reported_series: StepSeries,
    /// Actually-usable daemons over time.
    pub actual_series: StepSeries,
    /// Area beneath the reported curve over the workload window
    /// (Table IV, node·seconds).
    pub area_reported: f64,
    /// JobTracker counters (locality, speculation, failures).
    pub jt: JtCounters,
    /// Namenode counters: (repl completed, repl failed, blocks lost,
    /// bad-replica reports).
    pub nn_counters: (u64, u64, u64, u64),
    /// Missing blocks at the end of the run.
    pub missing_blocks: usize,
    /// Missing *input* blocks at the end of the run.
    pub missing_input_blocks: usize,
    /// Mediator counters.
    pub cluster: ClusterCounters,
    /// Grid counters: (preemptions, outages, node starts).
    pub grid: Option<(u64, u64, u64)>,
    /// Elastic controller resize history: (time, signed node delta).
    /// Empty whenever the controller is off.
    pub elastic_actions: Vec<(SimTime, i64)>,
    /// Wall-clock of the simulation end.
    pub end_time: SimTime,
    /// Events processed.
    pub events: u64,
    /// High-water mark of the pending-event queue.
    pub peak_queue: usize,
    /// Fluid-net rate recomputations performed.
    pub net_recomputes: u64,
    /// Total flows examined across those recomputations (per-recompute
    /// work; see [`hog_net::FluidNet::recompute_work`]).
    pub net_recompute_work: u64,
    /// Why the run stopped.
    pub stopped_early: bool,
    /// Human-readable summaries of jobs that never reached a terminal
    /// state (only populated when the horizon cut the run short).
    pub stuck_jobs: Vec<String>,
    /// Why the chaos layer aborted the run, if it did (invariant
    /// violation or livelock). `None` on clean runs and whenever chaos
    /// supervision is off.
    pub chaos_failure: Option<hog_chaos::ChaosFailure>,
    /// The structured trace, when `cfg.obs.trace` was on (hog-obs).
    pub trace: Option<hog_obs::TraceLog>,
    /// The per-layer metrics registry, when `cfg.obs.metrics` was on.
    pub metrics: Option<hog_obs::MetricsRegistry>,
    /// Master-failover accounting (crashes, promotions, recovery and
    /// lost-edit-window durations, re-registration storms). All zeros
    /// unless `cfg.failover` was set and a `MasterCrash` fired.
    pub failover: crate::master::FailoverStats,
    /// Availability-policy activity (X17): `(targets raised, targets
    /// lowered, excess replicas trimmed)`. All zeros when the policy is
    /// off.
    pub availability: (u64, u64, u64),
    /// Total replica bytes materialised on datanodes (writes + repairs).
    pub replica_bytes: u64,
    /// Bytes re-replicated by the replication monitor (repair traffic
    /// subset of `replica_bytes`).
    pub repair_bytes: u64,
}

impl RunResult {
    /// Jobs that succeeded.
    pub fn jobs_succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.succeeded).count()
    }

    /// Jobs that failed or never finished.
    pub fn jobs_failed(&self) -> usize {
        self.jobs.len() - self.jobs_succeeded()
    }

    /// Mean job response time in seconds over finished jobs.
    pub fn mean_job_response_secs(&self) -> f64 {
        let times: Vec<f64> = self
            .jobs
            .iter()
            .filter_map(|j| j.response().map(|d| d.as_secs_f64()))
            .collect();
        if times.is_empty() {
            0.0
        } else {
            times.iter().sum::<f64>() / times.len() as f64
        }
    }
}

/// Run `schedule` on a cluster built from `cfg`. The horizon bounds the
/// *simulated* time (a safety net for pathological configurations — e.g.
/// first-iteration HOG with zombies and no fix).
pub fn run_workload(
    cfg: ClusterConfig,
    schedule: &SubmissionSchedule,
    horizon: SimDuration,
) -> RunResult {
    run_workload_with_events(cfg, schedule, horizon, Vec::new())
}

/// Like [`run_workload`], but with extra operator actions injected at
/// absolute instants — e.g. [`crate::event::Event::ResizePool`] to grow or
/// shrink the glidein pool mid-run (§IV-C) or
/// [`crate::event::Event::BalancerTick`] to rebalance HDFS afterwards.
pub fn run_workload_with_events(
    cfg: ClusterConfig,
    schedule: &SubmissionSchedule,
    horizon: SimDuration,
    extra: Vec<(SimTime, crate::event::Event)>,
) -> RunResult {
    let mut cluster = Cluster::new(cfg, schedule);
    let mut sim = Simulation::new()
        .with_horizon(SimTime::ZERO + horizon)
        .with_event_budget(2_000_000_000);
    cluster.bootstrap(&mut sim);
    for (at, ev) in extra {
        sim.schedule(at, ev);
    }
    let stats = sim.run(&mut cluster);
    collect_result(cluster, schedule, stats)
}

/// Turn a finished (or horizon-cut) cluster model into a [`RunResult`].
/// Shared by [`run_workload`] and the hog-fed federation executor, which
/// drives pool clusters itself and synthesizes per-pool
/// [`hog_sim_core::engine::RunStats`].
pub fn collect_result(
    mut cluster: Cluster,
    schedule: &SubmissionSchedule,
    stats: hog_sim_core::engine::RunStats,
) -> RunResult {
    let name = cluster.config().name.clone();
    let seed = cluster.config().seed;
    let workload_start = cluster.workload_start;
    let response_time = match (workload_start, cluster.workload_end) {
        (Some(s), Some(e)) => Some(e.saturating_since(s)),
        _ => None,
    };
    let jobs: Vec<JobOutcome> = schedule
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let submitted =
                workload_start.unwrap_or(SimTime::ZERO) + (spec.submit_at - SimTime::ZERO);
            let (finished, succeeded) = match cluster.job_results[i] {
                Some((t, ok)) => (Some(t), ok),
                None => (None, false),
            };
            JobOutcome {
                index: i,
                bin: spec.bin,
                maps: spec.maps,
                reduces: spec.reduces,
                submitted,
                finished,
                succeeded,
            }
        })
        .collect();
    let area = match (workload_start, cluster.workload_end) {
        (Some(s), Some(e)) => cluster.reported_series.area(s, e),
        _ => 0.0,
    };
    let grid = cluster
        .grid()
        .map(|g| (g.preemption_count(), g.outage_count(), g.node_start_count()));
    let mut stuck_jobs = Vec::new();
    for (i, r) in cluster.job_results.iter().enumerate() {
        if r.is_some() {
            continue;
        }
        if let Some(jid) = cluster.job_for_index(i) {
            let j = cluster.jobtracker().job(jid);
            let running_maps: usize = j.maps.iter().map(|t| t.running_attempts()).sum();
            let running_reds: usize = j.reduces.iter().map(|t| t.running_attempts()).sum();
            stuck_jobs.push(format!(
                "job {i} (bin {}): maps {}/{} (pending {}, running {}), reduces {}/{} (pending {}, running {}), plans {}",
                schedule.jobs()[i].bin,
                j.maps_done,
                j.spec.maps(),
                j.pending_maps.len(),
                running_maps,
                j.reduces_done,
                j.spec.reduces,
                j.pending_reduces.len(),
                running_reds,
                j.reduce_plans.len(),
            ));
        } else {
            stuck_jobs.push(format!("job {i}: never submitted"));
        }
    }
    RunResult {
        name,
        seed,
        response_time,
        workload_start,
        jobs,
        area_reported: area,
        jt: cluster.jobtracker().counters(),
        nn_counters: cluster.namenode().counters(),
        missing_blocks: cluster.namenode().missing_block_count(),
        missing_input_blocks: cluster.missing_input_blocks(),
        cluster: cluster.counters,
        grid,
        elastic_actions: cluster.elastic_actions.clone(),
        stuck_jobs,
        end_time: stats.end_time,
        events: stats.events_handled,
        peak_queue: stats.peak_queue,
        net_recomputes: cluster.network().recompute_count(),
        net_recompute_work: cluster.network().recompute_work(),
        stopped_early: stats.stop != hog_sim_core::engine::StopReason::ModelFinished
            && cluster.phase() != RunPhase::Done,
        chaos_failure: cluster.chaos_failure().cloned(),
        trace: cluster.take_trace(),
        metrics: cluster.take_metrics(),
        failover: cluster.failover_stats().clone(),
        availability: cluster.namenode().availability_counters(),
        replica_bytes: cluster.namenode().bytes_written(),
        repair_bytes: cluster.namenode().bytes_rereplicated(),
        reported_series: cluster.reported_series,
        actual_series: cluster.actual_series,
    }
}

/// Convenience: assert a run finished (used by tests).
pub fn assert_finished(r: &RunResult) {
    assert!(
        !r.stopped_early,
        "run {} did not finish: {} jobs incomplete",
        r.name,
        r.jobs.len() - r.jobs.iter().filter(|j| j.finished.is_some()).count()
    );
    let _ = StopReason::ModelFinished;
}
