//! Adaptive-replication study (X17): flat replication 10 vs Trua-style
//! per-block availability targets vs X6-style multi-copy task execution.
//!
//! The paper buys survival under OSG preemption with a blanket
//! replication factor of 10 — every block pays the worst-case premium
//! whether it sits on a stable Fermilab slot or a campus machine about
//! to be reclaimed. The availability policy (DESIGN §17) instead tracks
//! each block's target from the decayed failure score of the sites
//! holding it, the sites' churn profiles, and the block's read heat,
//! clamped to [4, 12] with hysteresis. The third column is the X6
//! alternative: keep flat-10 storage but run every task as 2 eager
//! copies. The study question: how much replica storage and repair
//! traffic does the adaptive policy save, and what does it cost in mean
//! job response?
//!
//! `--smoke` runs the 3-policy grid at the base seed only; the full sweep
//! repeats it at [`VERDICT_SEEDS`] consecutive seeds and holds the study
//! bar against the pooled result. Each grid seed `s` uses schedule seed
//! 1000+s. Flags, report layout and `--check`: see `hog_bench::study`.

use hog_bench::{outcome_fingerprint, timed, Group, Report, Row, Study};
use hog_core::driver::run_workload;
use hog_core::sweep::run_ordered;
use hog_core::ClusterConfig;
use hog_hdfs::AvailabilityPolicy;
use hog_sim_core::SimDuration;
use hog_workload::{StragglerMix, SubmissionSchedule};

/// Pool size of the grid (matches BENCH_churn).
const NODES: usize = 300;

/// Simulated hour of the campus day at which cells start; 8:00 puts the
/// workload's tail inside the 13:00–15:00 reclaim wave (see BENCH_churn).
const WAVE_START_HOUR: f64 = 8.0;

/// Seeds per policy in the full sweep; the study bar is held against the
/// response and storage pooled over this many seeds.
const VERDICT_SEEDS: u64 = 3;

/// The study bar, pooled over the verdict seeds: adaptive must keep mean
/// job response within this factor of flat-10…
const RESPONSE_SLACK: f64 = 1.05;

/// …while cutting total replica storage to at most this fraction of
/// flat-10's.
const STORAGE_BAR: f64 = 0.85;

/// Policies compared, in report order.
const POLICIES: [&str; 3] = ["flat10", "adaptive", "kcopies"];

const GIB: f64 = (1u64 << 30) as f64;

/// One grid cell: 300 nodes under the calibrated campus wave with the
/// straggler mix on (same environment as BENCH_churn's calibrated
/// column), differing only in the replication/durability policy.
fn run_cell(policy: &'static str, seed: u64) -> Row {
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    let cfg = ClusterConfig::hog(NODES, seed)
        .with_calibrated_churn_at(WAVE_START_HOUR)
        .with_stragglers(StragglerMix::osg_default())
        .named(format!("replication-{policy}"));
    let cfg = match policy {
        "flat10" => cfg,
        "adaptive" => cfg.with_availability_policy(AvailabilityPolicy::trua_default()),
        "kcopies" => cfg.with_task_copies(2, true),
        other => panic!("unknown policy label {other}"),
    };
    let (r, wall_ms) = timed(|| run_workload(cfg, &schedule, SimDuration::from_secs(100 * 3600)));
    // Usable node-hours integrated over the workload window.
    let node_hours = match (r.workload_start, r.response_time) {
        (Some(s), Some(d)) => r.actual_series.area(s, s + d) / 3600.0,
        _ => 0.0,
    };
    Row::new()
        .with("policy", policy)
        .with("seed", seed)
        .with("wall_ms", wall_ms)
        .outcome(&r)
        // Total replica bytes materialised (writes + repairs), then the
        // re-replication (repair) subset.
        .float("replica_gb", r.replica_bytes as f64 / GIB, 3)
        .float("repair_gb", r.repair_bytes as f64 / GIB, 3)
        .float("node_hours", node_hours, 1)
        .with("targets_raised", r.availability.0)
        .with("targets_lowered", r.availability.1)
        .with("replicas_trimmed", r.availability.2)
        .with("fingerprint", outcome_fingerprint(&r))
}

fn sweep(seed: u64, smoke: bool, threads: usize) -> Vec<Group> {
    let seeds = if smoke { 1 } else { VERDICT_SEEDS };
    let grid: Vec<_> = (seed..seed + seeds)
        .flat_map(|s| POLICIES.map(|p| (p, s)))
        .collect();
    vec![("cells", run_ordered(grid, threads, |(p, s)| run_cell(p, s)))]
}

/// The study bar: every cell completes its workload; pooled over the
/// verdict seeds, adaptive holds mean job response within
/// [`RESPONSE_SLACK`] of flat-10 while cutting replica storage to at
/// most [`STORAGE_BAR`] of flat-10's. One seed (the smoke grid) is too
/// noisy for the response half, so like BENCH_churn the bar is enforced
/// only at ≥ [`VERDICT_SEEDS`] seeds; smoke still enforces completion
/// and prints the observed deltas.
fn verdict(report: &Report, _smoke: bool) -> bool {
    let cells = report.group("cells");
    let mut ok = true;
    for c in cells {
        if c.num("jobs_ok") != c.num("jobs") {
            ok = false;
            println!(
                "  verdict: {} s{} finished only {}/{} jobs — FAIL",
                c.text("policy"),
                c.int("seed"),
                c.int("jobs_ok"),
                c.int("jobs")
            );
        }
    }
    let pooled = |policy: &str| -> (f64, f64, usize) {
        let rows: Vec<&Row> = cells
            .iter()
            .filter(|c| c.text("policy") == policy)
            .collect();
        (
            rows.iter().map(|c| c.num("mean_job_secs")).sum(),
            rows.iter().map(|c| c.num("replica_gb")).sum(),
            rows.len(),
        )
    };
    let (flat_resp, flat_gb, n_flat) = pooled("flat10");
    let (ad_resp, ad_gb, n_ad) = pooled("adaptive");
    if n_flat > 0 && n_flat == n_ad {
        let enforced = n_flat as u64 >= VERDICT_SEEDS;
        let resp_pass = ad_resp <= flat_resp * RESPONSE_SLACK;
        let gb_pass = ad_gb <= flat_gb * STORAGE_BAR;
        if enforced {
            ok &= resp_pass && gb_pass;
        }
        let judged = |pass: bool| match (enforced, pass) {
            (false, _) => "not enforced on the smoke grid",
            (true, true) => "PASS",
            (true, false) => "FAIL",
        };
        println!(
            "  verdict: adaptive vs flat10 over {} seed(s): mean_job {:.1}s -> {:.1}s ({:+.1}% vs +{:.0}% slack) — {}",
            n_flat,
            flat_resp / n_flat as f64,
            ad_resp / n_ad as f64,
            (ad_resp / flat_resp - 1.0) * 100.0,
            (RESPONSE_SLACK - 1.0) * 100.0,
            judged(resp_pass)
        );
        println!(
            "  verdict: replica storage {:.1}GiB -> {:.1}GiB ({:.1}% of flat vs the {:.0}% bar) — {}",
            flat_gb / n_flat as f64,
            ad_gb / n_ad as f64,
            ad_gb / flat_gb * 100.0,
            STORAGE_BAR * 100.0,
            judged(gb_pass)
        );
    }
    ok
}

fn main() {
    hog_bench::run_study(&Study {
        name: "replication",
        header: &[],
        keys: &["policy", "seed"],
        wall_gated: false,
        sweep,
        verdict,
    });
}
