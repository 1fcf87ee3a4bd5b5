//! Churn-model study (X16): synthetic vs trace-calibrated preemption
//! under failure-aware scheduling.
//!
//! The grid crosses the churn generator — the legacy exponential
//! lifetime dialled to the paper's fluctuating-pool pressure vs the
//! OSG-calibrated heavy-tailed + diurnal model of DESIGN §16 — on the
//! failure-aware placement scheduler (DESIGN §11). The study question:
//! at the same total pressure, how much does the *shape* of realistic
//! churn cost in job response?
//!
//! The full sweep adds two cells:
//!
//! * a day-long SWIM-shaped diurnal trace (≈1000 jobs over 24 h,
//!   [`SubmissionSchedule::facebook_day`]) replayed under calibrated
//!   churn, where the preemption wave and the arrival wave overlap;
//! * the elastic pool controller under calibrated churn, the one run
//!   that combines the two.
//!
//! `--smoke` runs only the two-cell truncated-workload grid at the base
//! seed; the full sweep repeats the grid at [`GRID_SEEDS`] consecutive
//! seeds. Each grid seed `s` uses schedule seed 1000+s. Flags, report
//! layout and `--check`: see `hog_bench::study`.

use hog_bench::{outcome_fingerprint, timed, Group, Report, Row, Study};
use hog_core::driver::{run_workload, RunResult};
use hog_core::sweep::run_ordered;
use hog_core::{ClusterConfig, SchedPolicy};
use hog_grid::ElasticConfig;
use hog_sim_core::SimDuration;
use hog_workload::{StragglerMix, SubmissionSchedule};

/// Pool size of the truncated-workload grid.
const NODES: usize = 300;

/// Mean glidein lifetime for the *synthetic* churn cells: one eviction
/// every ~2 h per node, the paper's Figure-5 fluctuating-pool pressure
/// and roughly the calibrated mixture's own mean — so the two churn
/// columns differ in lifetime *shape*, not total pressure.
const EXP_LIFETIME_SECS: u64 = 2 * 3600;

/// Simulated hour of the campus day at which the truncated-workload
/// cells start. Starting at 8:00 the 88-job schedule submits through
/// the morning, and under calibrated churn its makespan stretches into
/// the 13:00–15:00 reclaim wave of the per-site profiles, so the jobs
/// at the back of the FIFO queue ride the wave — the regime the study
/// is about. (Starting *at* the peak collapses every run equally;
/// starting at midnight never meets the wave at all.) The day-long
/// trace keeps the midnight start and crosses the wave naturally.
const WAVE_START_HOUR: f64 = 8.0;

/// Seeds of the full sweep's grid: single-seed responses swing widely
/// under calibrated churn, so the report carries several draws.
const GRID_SEEDS: u64 = 3;

/// Bounds of the elastic cell's controller.
const ELASTIC_MIN: usize = 60;
const ELASTIC_MAX: usize = 300;

/// The failure-handling policy every cell runs.
const POLICY: SchedPolicy = SchedPolicy::FailureAware;

fn cell_row(churn: &str, workload: &str, seed: u64, wall_ms: u64, r: &RunResult) -> Row {
    Row::new()
        .with("policy", POLICY.as_str())
        .with("churn", churn)
        .with("workload", workload)
        .with("seed", seed)
        .with("wall_ms", wall_ms)
        .outcome(r)
        .with("speculative", r.jt.speculative)
        .with("failures", r.jt.failures)
        .with("fingerprint", outcome_fingerprint(r))
}

/// Base config for a cell: 300 nodes, stragglers on (the churn study
/// always runs the heavy-tailed slowdown mix — it is part of the
/// calibrated environment, and keeping it in every cell means the churn
/// columns differ only in the preemption process).
fn cell_cfg(churn: &str, start_hour: f64, seed: u64, label: String) -> ClusterConfig {
    let cfg = ClusterConfig::hog(NODES, seed)
        .with_scheduler(POLICY)
        .with_stragglers(StragglerMix::osg_default())
        .named(label);
    match churn {
        "exponential" => cfg.with_mean_lifetime(SimDuration::from_secs(EXP_LIFETIME_SECS)),
        "calibrated" => cfg.with_calibrated_churn_at(start_hour),
        other => panic!("unknown churn label {other}"),
    }
}

fn run_cell(churn: &'static str, seed: u64) -> Row {
    // Each seed gets its own arrival pattern too (schedule seed 1000+S,
    // the convention every bench bin shares).
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    let label = format!("churn-{}-{}", churn, POLICY.as_str());
    let cfg = cell_cfg(churn, WAVE_START_HOUR, seed, label);
    let (r, wall_ms) = timed(|| run_workload(cfg, &schedule, SimDuration::from_secs(100 * 3600)));
    cell_row(churn, "truncated", seed, wall_ms, &r)
}

/// Day-long diurnal trace under calibrated churn: the ≈1000-job SWIM
/// shape whose arrival peak overlaps the campuses' preemption waves.
fn run_day(seed: u64) -> Row {
    let schedule = SubmissionSchedule::facebook_day(1000 + seed);
    let label = format!("churn-day-{}", POLICY.as_str());
    let cfg = cell_cfg("calibrated", 0.0, seed, label);
    let (r, wall_ms) = timed(|| run_workload(cfg, &schedule, SimDuration::from_secs(60 * 3600)));
    cell_row("calibrated", "day", seed, wall_ms, &r)
}

/// The elastic controller under calibrated churn (truncated workload).
fn run_elastic(seed: u64) -> Row {
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    let cfg = cell_cfg("calibrated", WAVE_START_HOUR, seed, "churn-elastic".into())
        .with_elastic_config(ElasticConfig::new(ELASTIC_MIN, ELASTIC_MAX));
    let (r, wall_ms) = timed(|| run_workload(cfg, &schedule, SimDuration::from_secs(100 * 3600)));
    cell_row("calibrated", "elastic", seed, wall_ms, &r)
}

fn sweep(seed: u64, smoke: bool, threads: usize) -> Vec<Group> {
    let seeds = if smoke { 1 } else { GRID_SEEDS };
    let grid: Vec<_> = (seed..seed + seeds)
        .flat_map(|s| ["exponential", "calibrated"].map(|churn| (churn, s)))
        .collect();
    let cells = run_ordered(grid, threads, |(churn, s)| run_cell(churn, s));
    let extra: Vec<fn(u64) -> Row> = if smoke {
        vec![]
    } else {
        vec![run_day, run_elastic]
    };
    let extended = run_ordered(extra, threads, |run| run(seed));
    vec![("cells", cells), ("extended", extended)]
}

/// The study bar: every cell completes its whole workload.
fn verdict(report: &Report, _smoke: bool) -> bool {
    let mut ok = true;
    for c in report.rows() {
        if c.num("jobs_ok") != c.num("jobs") {
            ok = false;
            println!(
                "  verdict: {} {} s{} finished only {}/{} jobs — FAIL",
                c.text("churn"),
                c.text("workload"),
                c.int("seed"),
                c.int("jobs_ok"),
                c.int("jobs")
            );
        }
    }
    ok
}

fn main() {
    hog_bench::run_study(&Study {
        name: "churn",
        header: &[],
        keys: &["policy", "churn", "workload", "seed"],
        wall_gated: false,
        sweep,
        verdict,
    });
}
