//! HOD- and MOON-style comparators (§V related work, quantified).
//!
//! The paper argues against both systems qualitatively; these harnesses
//! make the comparison measurable on the same substrate (experiment X5).
//!
//! * **HOD** (Hadoop On Demand) builds a temporary Hadoop cluster per
//!   MapReduce request and tears it down afterwards: every job pays node
//!   acquisition, cluster construction and input staging on its critical
//!   path, and the cluster size is fixed per request. We model each job
//!   as its own pool-formation + upload + single-job run (concurrent
//!   across jobs, as HOD instances are independent), so a job's response
//!   time *includes* the reconstruction overhead HOG amortises away.
//! * **MOON** anchors HDFS durability on a small set of dedicated
//!   (never-preempted) nodes holding one replica of every block, letting
//!   the opportunistic replication factor stay low — at the cost of the
//!   anchor becoming a capacity/bandwidth bottleneck and scalability
//!   limit. We model the anchor as an extra non-preempting grid site plus
//!   [`PlacementKind::AnchorFirst`] placement.

use crate::config::{ClusterConfig, ResourceConfig};
use crate::driver::{run_workload, RunResult};
use crate::sweep::{run_sweep_schedules, SchedulePoint};
use hog_grid::SiteConfig;
use hog_hdfs::PlacementKind;
use hog_sim_core::{SimDuration, SimTime};
use hog_workload::facebook::Bin;
use hog_workload::SubmissionSchedule;

/// Outcome of a HOD workload replay.
#[derive(Clone, Debug)]
pub struct HodResult {
    /// Workload response: first submission → last completion, seconds.
    pub response_secs: f64,
    /// Mean per-job reconstruction overhead (formation + staging), secs.
    pub mean_overhead_secs: f64,
    /// Jobs that succeeded.
    pub jobs_succeeded: usize,
    /// Total jobs.
    pub jobs: usize,
    /// Per-job total times (overhead + execution), seconds.
    pub per_job_total: Vec<f64>,
}

/// Replay `schedule` HOD-style: each job gets a fresh `nodes_per_cluster`
/// glidein pool, waits out formation and input staging, runs alone, and
/// the pool is discarded. Jobs run concurrently (independent HOD
/// instances). `threads` parallelises the per-job simulations.
pub fn run_hod_workload(
    schedule: &SubmissionSchedule,
    nodes_per_cluster: usize,
    mean_lifetime: SimDuration,
    seed: u64,
    threads: usize,
) -> HodResult {
    // One single-job schedule per job of the workload.
    let points: Vec<SchedulePoint> = schedule
        .jobs()
        .iter()
        .map(|spec| {
            let bin = Bin {
                number: spec.bin,
                maps_at_facebook: (spec.maps, spec.maps),
                fraction_at_facebook: 0.0,
                maps: spec.maps,
                jobs_in_benchmark: 1,
                reduces: spec.reduces,
            };
            SchedulePoint {
                cfg: ClusterConfig::hog(nodes_per_cluster, seed + spec.id as u64)
                    .with_mean_lifetime(mean_lifetime)
                    .named(format!("hod-job-{}", spec.id)),
                schedule: SubmissionSchedule::from_bins(&[bin], seed + spec.id as u64),
            }
        })
        .collect();
    let horizon = SimDuration::from_secs(60 * 3600);
    let results = run_sweep_schedules(points, horizon, threads);

    let mut per_job_total = Vec::new();
    let mut overheads = Vec::new();
    let mut ok = 0usize;
    let mut last_finish = SimTime::ZERO;
    let first_submit = schedule
        .jobs()
        .first()
        .map_or(SimTime::ZERO, |j| j.submit_at);
    for (spec, r) in schedule.jobs().iter().zip(&results) {
        // HOD total = formation + upload (workload_start, since t=0) plus
        // the job's own execution.
        let overhead = r.workload_start.map_or(f64::NAN, |t| t.as_secs_f64());
        let exec = r.response_time.map(|d| d.as_secs_f64()).unwrap_or(f64::NAN);
        let total = overhead + exec;
        overheads.push(overhead);
        per_job_total.push(total);
        if r.jobs_succeeded() == r.jobs.len() {
            ok += 1;
            let finish = spec.submit_at + SimDuration::from_secs_f64(total);
            last_finish = last_finish.max(finish);
        }
    }
    let response = last_finish.saturating_since(first_submit).as_secs_f64();
    HodResult {
        response_secs: response,
        mean_overhead_secs: overheads
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .sum::<f64>()
            / overheads.len().max(1) as f64,
        jobs_succeeded: ok,
        jobs: schedule.len(),
        per_job_total,
    }
}

/// Build a MOON-style configuration: `anchors` dedicated nodes in an
/// `ANCHOR` site that never preempts, `target_nodes - anchors`
/// opportunistic glideins at the paper's sites, anchor-pinned placement,
/// opportunistic replication 3 (the anchor replica carries durability).
pub fn moon_config(target_nodes: usize, anchors: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::hog(target_nodes, seed)
        .with_replication(3)
        .with_placement(PlacementKind::AnchorFirst {
            site_name: "ANCHOR".to_string(),
        })
        .named(format!("moon-{target_nodes}-a{anchors}"));
    if let ResourceConfig::Grid { sites, .. } = &mut cfg.resource {
        // The anchor site: exactly `anchors` slots, effectively infinite
        // node lifetime, no outages.
        let anchor = SiteConfig::stable("ANCHOR", "anchor.unl.edu", anchors)
            .with_mean_lifetime(SimDuration::from_secs(1_000_000_000));
        sites.insert(0, anchor);
    }
    cfg
}

/// Run the three-way X5 comparison: HOG vs MOON vs HOD under churn.
/// Returns (hog, moon, hod).
pub fn compare_hog_moon_hod(
    nodes: usize,
    mean_lifetime: SimDuration,
    workload_seed: u64,
    threads: usize,
) -> (RunResult, RunResult, HodResult) {
    let schedule = SubmissionSchedule::facebook_truncated(workload_seed);
    let horizon = SimDuration::from_secs(60 * 3600);
    let hog = run_workload(
        ClusterConfig::hog(nodes, 701).with_mean_lifetime(mean_lifetime),
        &schedule,
        horizon,
    );
    let anchors = (nodes / 10).max(2);
    let mut moon_cfg = moon_config(nodes, anchors, 702);
    moon_cfg = moon_cfg.with_mean_lifetime(mean_lifetime);
    // with_mean_lifetime rewrote every site's lifetime including the
    // anchor's; restore the anchor's immortality.
    if let ResourceConfig::Grid { sites, .. } = &mut moon_cfg.resource {
        if let Some(anchor) = sites.iter_mut().find(|s| s.name == "ANCHOR") {
            *anchor = anchor
                .clone()
                .with_mean_lifetime(SimDuration::from_secs(1_000_000_000));
        }
    }
    let moon = run_workload(moon_cfg, &schedule, horizon);
    let hod = run_hod_workload(&schedule, nodes / 4, mean_lifetime, 703, threads);
    (hog, moon, hod)
}
