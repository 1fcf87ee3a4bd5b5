//! Elastic-pool study (X12): the closed-loop glidein controller against
//! static pools on the truncated Facebook workload.
//!
//! Static tiers hold 40 / 100 / 300 glideins for the whole run (the
//! operator pre-provisions, as in the paper's §IV-A methodology); the
//! elastic run starts from the 40-node floor and lets the controller
//! resize between 40 and 300 from the observed task backlog. The study
//! question is Table-IV economics: how close does the controller get to
//! the best static pool's mean job response while consuming fewer
//! node·hours of grid allocation?
//!
//! The `ablation` group repeats the comparison under the X11 correlated
//! preemption-burst plan: the controller must re-grow through the same
//! churn the bursts inflict, and its failure-aware shrink should avoid
//! handing nodes back at the blasted sites.
//!
//! `--smoke` runs only the static-100 and elastic tiers, and only the full
//! sweep enforces the study bar. `--check` gates wall-clock as well as
//! fingerprints. Flags, report layout and `--check`: see
//! `hog_bench::study`.

use hog_bench::{outcome_fingerprint, timed, x11_burst_plan, Group, Report, Row, Study};
use hog_core::driver::run_workload;
use hog_core::sweep::run_ordered;
use hog_core::ClusterConfig;
use hog_sim_core::SimDuration;
use hog_workload::SubmissionSchedule;

/// Static pool sizes compared against the controller.
const STATIC_TIERS: [usize; 3] = [40, 100, 300];
/// Controller bounds for the elastic runs.
const ELASTIC_MIN: usize = 40;
const ELASTIC_MAX: usize = 300;

/// One tier: a static pool of `nodes`, or (`elastic`) the controller
/// starting from its floor; `burst` arms the X11 plan.
fn run_tier(
    nodes: usize,
    elastic: bool,
    burst: bool,
    seed: u64,
    schedule: &SubmissionSchedule,
) -> Row {
    let pool = if elastic {
        format!("elastic-{ELASTIC_MIN}-{ELASTIC_MAX}")
    } else {
        format!("static-{nodes}")
    };
    let label = if burst { format!("burst-{pool}") } else { pool };
    let mut cfg = ClusterConfig::hog(nodes, seed).named(label.clone());
    if elastic {
        cfg = cfg.with_elastic(ELASTIC_MIN, ELASTIC_MAX);
    }
    if burst {
        cfg = cfg.with_fault_plan(x11_burst_plan());
    }
    let (r, wall_ms) = timed(|| run_workload(cfg, schedule, SimDuration::from_secs(100 * 3600)));
    assert!(!r.stopped_early, "{label} did not finish");
    let grows = r.elastic_actions.iter().filter(|&&(_, d)| d > 0).count();
    // Walk the resize history to find the largest pool the controller
    // ever asked for (static runs: the fixed tier size).
    let mut target = nodes as i64;
    let mut peak = target;
    for &(_, d) in &r.elastic_actions {
        target += d;
        peak = peak.max(target);
    }
    Row::new()
        .with("label", label)
        .with("elastic", elastic)
        .with("wall_ms", wall_ms)
        .outcome(&r)
        .float("node_hours", r.area_reported / 3600.0, 1)
        .with("grows", grows)
        .with("shrinks", r.elastic_actions.len() - grows)
        .with("peak_target", peak.max(0) as usize)
        .with("fingerprint", outcome_fingerprint(&r))
}

fn sweep(seed: u64, smoke: bool, threads: usize) -> Vec<Group> {
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    let mut grid: Vec<(usize, bool)> = STATIC_TIERS
        .iter()
        .filter(|&&n| !smoke || n == 100)
        .map(|&n| (n, false))
        .collect();
    grid.push((ELASTIC_MIN, true));
    let tiers = run_ordered(grid, threads, |(n, elastic)| {
        run_tier(n, elastic, false, seed, &schedule)
    });
    let bursts = if smoke {
        vec![]
    } else {
        vec![(300, false), (ELASTIC_MIN, true)]
    };
    let ablation = run_ordered(bursts, threads, |(n, elastic)| {
        run_tier(n, elastic, true, seed, &schedule)
    });
    vec![("tiers", tiers), ("ablation", ablation)]
}

/// The study bar: the controller lands within 10% of the best static
/// pool's mean job response while spending fewer node·hours. The smoke
/// grid only compares against static-100, which elastic legitimately
/// beats on node-hours but not necessarily on response, so only the
/// full sweep enforces it.
fn verdict(report: &Report, smoke: bool) -> bool {
    let tiers = report.group("tiers");
    let Some(el) = tiers.iter().find(|t| t.flag("elastic")) else {
        return true;
    };
    let Some(best) = tiers
        .iter()
        .filter(|t| !t.flag("elastic"))
        .min_by(|a, b| a.num("mean_job_secs").total_cmp(&b.num("mean_job_secs")))
    else {
        return true;
    };
    let bar = best.num("mean_job_secs") * 1.10;
    let ok = el.num("mean_job_secs") <= bar && el.num("node_hours") < best.num("node_hours");
    println!(
        "  verdict: elastic mean_job={:.1}s vs best static ({}) {:.1}s (bar {bar:.1}s), node_hours {:.1} vs {:.1} — {}",
        el.num("mean_job_secs"),
        best.text("label"),
        best.num("mean_job_secs"),
        el.num("node_hours"),
        best.num("node_hours"),
        match (ok, smoke) {
            (true, _) => "PASS",
            (false, true) => "FAIL (not enforced on the smoke grid)",
            (false, false) => "FAIL",
        }
    );
    ok || smoke
}

fn main() {
    hog_bench::run_study(&Study {
        name: "elastic",
        header: &[],
        keys: &["label"],
        wall_gated: true,
        sweep,
        verdict,
    });
}
