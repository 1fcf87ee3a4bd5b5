//! Federation benchmark: the truncated Facebook workload replayed on a
//! fixed ~100-node budget split across 1 / 2 / 4 HOG pools, with the
//! meta-scheduler's locality-aware routing pitted against uniform-random
//! routing at two shared-dataset fractions.
//!
//! The headline claim (EXPERIMENTS.md X14): locality-aware routing beats
//! random routing on **mean job response** and on **cross-pool WAN
//! bytes** at 2 and 4 pools. The bench records that verdict per tier in
//! the report's `verdicts` group and exits non-zero when it fails, so CI
//! gates on it directly.
//!
//! `--smoke` runs only the 1-pool cell and the 2-pool pair at the low
//! sharing fraction; the verdict is enforced on every grid. Pool p's
//! cluster seed is S+p. Flags, report layout and `--check`: see
//! `hog_bench::study`.
//!
//! The 1-pool cell is the federation-overhead control: its pool
//! fingerprint must equal the plain 100-node `Cluster` fingerprint from
//! the scale bench (tests/federation.rs proves the identity; the shared
//! fingerprint makes it visible across baselines).

use hog_bench::{fnv1a_hex, outcome_fingerprint, timed, Group, Report, Row, Study};
use hog_core::sweep::run_ordered;
use hog_core::ClusterConfig;
use hog_fed::{assert_fed_finished, run_federation, FedConfig, FedResult, RoutingPolicy};
use hog_sim_core::SimDuration;
use hog_workload::SubmissionSchedule;
use std::fmt::Write as _;

/// Node budget split evenly across the pools of every cell.
const TOTAL_NODES: usize = 100;
/// Pool counts swept by the full benchmark.
const POOL_TIERS: [usize; 3] = [1, 2, 4];
/// Shared-dataset fractions (percent) swept at 2 and 4 pools.
const SHARED_PCTS: [u32; 2] = [25, 75];
/// Cross-pool replication factor for shared copies.
const R_REMOTE: u16 = 2;

/// Federation-level outcome fingerprint: FNV-1a over every pool's
/// canonical [`outcome_fingerprint`] plus the routing vector and WAN
/// byte total — any change in any pool's simulated outcome, in where a
/// job ran, or in cross-pool traffic moves it.
fn fed_fingerprint(r: &FedResult) -> String {
    let mut canon = String::new();
    for p in &r.pools {
        let _ = write!(canon, "{};", outcome_fingerprint(p));
    }
    let _ = write!(canon, "routed={:?};wan={}", r.routed_to, r.wan_bytes);
    fnv1a_hex(&canon)
}

fn run_cell(
    pools: usize,
    policy: RoutingPolicy,
    shared_pct: u32,
    seed: u64,
    schedule: &SubmissionSchedule,
) -> Row {
    let pool_cfgs: Vec<ClusterConfig> = (0..pools)
        .map(|p| ClusterConfig::hog(TOTAL_NODES / pools, seed + p as u64))
        .collect();
    let cfg = FedConfig::new(pool_cfgs, seed)
        .with_routing(policy)
        .with_sharing(shared_pct as f64 / 100.0, R_REMOTE)
        .with_audit(true)
        .named(format!("fed-{pools}p-{}-s{shared_pct}", policy.name()));
    let (r, wall_ms) = timed(|| run_federation(cfg, schedule, SimDuration::from_secs(100 * 3600)));
    assert_fed_finished(&r);
    Row::new()
        .with("pools", pools)
        .with("policy", r.policy)
        .with("shared_pct", shared_pct)
        .with("wall_ms", wall_ms)
        .float("mean_job_secs", r.mean_job_response_secs(), 3)
        .float(
            "response_secs",
            r.response_time.map(|d| d.as_secs_f64()).unwrap_or(0.0),
            3,
        )
        .with("jobs_ok", r.jobs_succeeded())
        .with("jobs", r.jobs.len())
        .with("wan_bytes", r.wan_bytes)
        .with("wan_transfers", r.wan_transfers)
        .with("route_stagings", r.route_stagings)
        .with("initial_stagings", r.initial_stagings)
        .float("fairness", r.pool_fairness(), 4)
        .with("routed", r.routed_counts.clone())
        .with("fingerprint", fed_fingerprint(&r))
}

/// The locality-vs-random verdicts, one per multi-pool tier present in
/// the sweep: locality must win (mean job response strictly lower, WAN
/// bytes no higher) aggregated across the shared fractions run.
fn verdict_rows(cells: &[Row]) -> Vec<Row> {
    let mut out = Vec::new();
    for &n in &POOL_TIERS[1..] {
        let agg = |policy: &str| -> Option<(f64, u64)> {
            let picked: Vec<&Row> = cells
                .iter()
                .filter(|c| c.int("pools") == n as u64 && c.text("policy") == policy)
                .collect();
            if picked.is_empty() {
                return None;
            }
            let mean =
                picked.iter().map(|c| c.num("mean_job_secs")).sum::<f64>() / picked.len() as f64;
            Some((mean, picked.iter().map(|c| c.int("wan_bytes")).sum()))
        };
        if let (Some((lm, lw)), Some((rm, rw))) = (agg("locality"), agg("random")) {
            out.push(
                Row::new()
                    .with("pools", n)
                    .with("locality_beats_random", lm < rm && lw <= rw)
                    .float("locality_mean_secs", lm, 3)
                    .float("random_mean_secs", rm, 3)
                    .with("locality_wan_bytes", lw)
                    .with("random_wan_bytes", rw),
            );
        }
    }
    out
}

fn sweep(seed: u64, smoke: bool, threads: usize) -> Vec<Group> {
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    // Cell grid: the 1-pool control plus (policy × shared fraction) at
    // each multi-pool tier. Smoke keeps the control and the 2-pool pair
    // at the low fraction so the verdict still gates per-PR CI.
    let mut grid: Vec<(usize, RoutingPolicy, u32)> = vec![(1, RoutingPolicy::Home, 0)];
    for &n in &POOL_TIERS[1..] {
        for &pct in &SHARED_PCTS {
            for policy in [RoutingPolicy::LocalityAware, RoutingPolicy::Random] {
                grid.push((n, policy, pct));
            }
        }
    }
    if smoke {
        grid.retain(|&(n, _, pct)| n == 1 || (n == 2 && pct == SHARED_PCTS[0]));
    }
    let cells = run_ordered(grid, threads, |(n, policy, pct)| {
        run_cell(n, policy, pct, seed, &schedule)
    });
    let verdicts = verdict_rows(&cells);
    vec![("cells", cells), ("verdicts", verdicts)]
}

/// Locality must beat random at every multi-pool tier run — on the smoke
/// grid too.
fn verdict(report: &Report, _smoke: bool) -> bool {
    let mut ok = true;
    for v in report.group("verdicts") {
        let wins = v.flag("locality_beats_random");
        println!(
            "  verdict {} pools: locality mean {:.1}s / {}B vs random {:.1}s / {}B — {}",
            v.int("pools"),
            v.num("locality_mean_secs"),
            v.int("locality_wan_bytes"),
            v.num("random_mean_secs"),
            v.int("random_wan_bytes"),
            if wins {
                "LOCALITY WINS"
            } else {
                "LOCALITY LOSES"
            }
        );
        ok &= wins;
    }
    ok
}

fn main() {
    hog_bench::run_study(&Study {
        name: "federation",
        header: &[("total_nodes", TOTAL_NODES as u64)],
        keys: &["pools", "policy", "shared_pct"],
        wall_gated: false,
        sweep,
        verdict,
    });
}
