//! Master-failover study (X13): job-completion overhead of a
//! chaos-injected master crash versus the crash-free run, swept over
//! crash time × checkpoint interval × pool size.
//!
//! Each pool first runs crash-free (the failover machinery armed but no
//! fault — checkpointing draws no randomness and schedules no events, so
//! this is bit-identical to a plain run). Each crash cell then injects
//! `MasterCrash` at the given offset after workload start; the headline
//! number is `overhead_secs` (workload response minus the crash-free
//! twin's), which must stay within `bound_secs` = detection timeout +
//! lost edit window (≤ checkpoint interval) + a replay allowance for
//! re-running the killed in-flight tasks.
//!
//! `--smoke` runs only the 100-node pool and one crash cell; the bound is
//! enforced on every grid. `--check` gates wall-clock as well as
//! fingerprints. Flags, report layout and `--check`: see
//! `hog_bench::study`.

use hog_bench::{outcome_fingerprint, response_secs, timed, Group, Report, Row, Study};
use hog_chaos::{Fault, FaultPlan};
use hog_core::driver::run_workload;
use hog_core::sweep::run_ordered;
use hog_core::{ClusterConfig, DETECTION_TIMEOUT};
use hog_sim_core::SimDuration;
use hog_workload::SubmissionSchedule;

/// Pool sizes swept (both finish the truncated Facebook workload well
/// after the latest crash offset).
const POOLS: [usize; 2] = [100, 300];
/// Crash offsets after workload start, seconds.
const CRASH_TIMES: [u64; 2] = [600, 1200];
/// Checkpoint intervals swept, seconds.
const INTERVALS: [u64; 2] = [300, 120];
/// Failure-detection timeout before standby promotion, seconds.
const DETECTION_SECS: u64 = DETECTION_TIMEOUT.as_millis() / 1000;
/// Allowance for re-running the in-flight work the promotion killed.
/// Calibrated generously: the killed tasks re-run in parallel across the
/// surviving pool, overlapping work that was pending anyway.
const REPLAY_ALLOWANCE_SECS: f64 = 900.0;

/// One cell; a crash cell (`crash_at` set) is judged against the
/// crash-free response `free_response` of the same pool.
fn run_cell(
    nodes: usize,
    interval: u64,
    crash_at: Option<u64>,
    free_response: f64,
    seed: u64,
    schedule: &SubmissionSchedule,
) -> Row {
    let label = match crash_at {
        None => format!("p{nodes}-free"),
        Some(c) => format!("p{nodes}-c{c}-i{interval}"),
    };
    let mut cfg = ClusterConfig::hog(nodes, seed)
        .with_failover(SimDuration::from_secs(interval))
        .named(label.clone());
    if let Some(c) = crash_at {
        cfg =
            cfg.with_fault_plan(FaultPlan::new().at(SimDuration::from_secs(c), Fault::MasterCrash));
    }
    let (r, wall_ms) = timed(|| run_workload(cfg, schedule, SimDuration::from_secs(100 * 3600)));
    assert!(
        !r.stopped_early,
        "{label} did not finish: {:?}",
        r.stuck_jobs
    );
    let response = response_secs(&r);
    let all_jobs = r.jobs_succeeded() == r.jobs.len();
    let (overhead, bound, passed) = match crash_at {
        Some(_) => {
            let overhead = response - free_response;
            // Lost edit window is bounded by the checkpoint interval;
            // the measured value is tighter, but the *bound* quoted is
            // the configuration-level guarantee.
            let bound = DETECTION_SECS as f64 + interval as f64 + REPLAY_ALLOWANCE_SECS;
            (overhead, bound, overhead <= bound && all_jobs)
        }
        None => (0.0, 0.0, all_jobs),
    };
    Row::new()
        .with("label", label)
        .with("nodes", nodes)
        .with("crash_at", crash_at)
        .with("interval", interval)
        .with("wall_ms", wall_ms)
        .float("response_secs", response, 3)
        .float("overhead_secs", overhead, 3)
        .float("bound_secs", bound, 1)
        .with("passed", passed)
        .with("jobs_ok", r.jobs_succeeded())
        .with("jobs", r.jobs.len())
        .float("recovery_secs", r.failover.total_recovery.as_secs_f64(), 1)
        .float(
            "lost_window_secs",
            r.failover.total_lost_window.as_secs_f64(),
            1,
        )
        .with("reregistrations", r.failover.reregistrations)
        .with("checkpoints", r.failover.checkpoints.len())
        .with("fingerprint", outcome_fingerprint(&r))
}

/// Crash cells judge themselves against the crash-free response of the
/// same pool size, so the sweep runs in two waves: the per-pool
/// crash-free cells first, then every crash cell. The report lists each
/// pool's crash-free cell followed by its crash grid.
fn sweep(seed: u64, smoke: bool, threads: usize) -> Vec<Group> {
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    let pools = if smoke { &POOLS[..1] } else { &POOLS[..] };
    let crashes: Vec<(u64, u64)> = CRASH_TIMES
        .iter()
        .flat_map(|&c| INTERVALS.map(|i| (c, i)))
        .filter(|&ci| !smoke || ci == (CRASH_TIMES[0], INTERVALS[0]))
        .collect();
    let frees = run_ordered(pools.to_vec(), threads, |n| {
        run_cell(n, INTERVALS[0], None, 0.0, seed, &schedule)
    });
    let grid: Vec<_> = pools
        .iter()
        .zip(&frees)
        .flat_map(|(&n, free)| {
            crashes
                .iter()
                .map(move |&ci| (n, ci, free.num("response_secs")))
        })
        .collect();
    let mut crashed = run_ordered(grid, threads, |(n, (c, i), free)| {
        run_cell(n, i, Some(c), free, seed, &schedule)
    })
    .into_iter();
    let mut cells = Vec::new();
    for free in frees {
        cells.push(free);
        cells.extend(crashed.by_ref().take(crashes.len()));
    }
    vec![("cells", cells)]
}

/// Every cell completes all its jobs, and every crash cell's overhead
/// stays within its bound — on the smoke grid too.
fn verdict(report: &Report, _smoke: bool) -> bool {
    let cells = report.group("cells");
    let failed: Vec<&str> = cells
        .iter()
        .filter(|c| !c.flag("passed"))
        .map(|c| c.text("label"))
        .collect();
    println!(
        "  verdict: {}/{} cells recovered within their bound with every job done — {}",
        cells.len() - failed.len(),
        cells.len(),
        if failed.is_empty() {
            "PASS".to_string()
        } else {
            format!("FAIL ({})", failed.join(", "))
        }
    );
    failed.is_empty()
}

fn main() {
    hog_bench::run_study(&Study {
        name: "failover",
        header: &[("detection_secs", DETECTION_SECS)],
        keys: &["label"],
        wall_gated: true,
        sweep,
        verdict,
    });
}
