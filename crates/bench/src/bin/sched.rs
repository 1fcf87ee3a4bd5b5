//! Scheduler policy sweep: replay the truncated Facebook workload under
//! each `hog-sched` policy (FIFO, fair + delay scheduling, failure-aware)
//! across pool sizes and preemption pressure, and record the locality
//! split (node/rack/site/remote), speculation, failures and workload
//! response time per cell — the data behind EXPERIMENTS.md's scheduler
//! study.
//!
//! The `ablation` group runs the preemption-burst ablation (X11): a
//! scripted chaos plan hammers two sites with correlated `PreemptBurst`s
//! while the invariant audit is armed, comparing FIFO's placement (which
//! keeps walking into the blast zone) against the failure-aware policy
//! (which learns the sites' reliability scores and routes work around
//! them).
//!
//! `--smoke` runs only the 100-node stable tier. Flags, report layout and
//! `--check`: see `hog_bench::study`.

use hog_bench::{outcome_fingerprint, timed, x11_burst_plan, Group, Row, Study};
use hog_core::driver::{run_workload, RunResult};
use hog_core::sweep::run_ordered;
use hog_core::{ClusterConfig, SchedPolicy};
use hog_sim_core::SimDuration;
use hog_workload::SubmissionSchedule;

/// Policies swept, in report order.
const POLICIES: [SchedPolicy; 3] = [
    SchedPolicy::Fifo,
    SchedPolicy::Fair,
    SchedPolicy::FailureAware,
];

/// `(pool size, churn label, mean lifetime override)` cells of the sweep.
/// `None` keeps the stable-site default (12 h mean glidein lifetime);
/// `Some` dials preemption pressure up to one eviction every ~2 h per
/// node, the paper's Figure-5 "fluctuating pool" regime.
const CELLS: [(usize, &str, Option<u64>); 3] = [
    (100, "stable", None),
    (300, "stable", None),
    (100, "churn", Some(2 * 3600)),
];

/// Time-weighted mean of the `mapreduce/fairness_jain` gauge over the
/// workload window (1.0 when metrics are off or nothing was recorded).
fn mean_fairness(r: &RunResult) -> f64 {
    let Some(reg) = &r.metrics else { return 1.0 };
    let Some(s) = reg.find("mapreduce/fairness_jain") else {
        return 1.0;
    };
    match (r.workload_start, r.response_time) {
        (Some(start), Some(resp)) if resp.as_millis() > 0 => s.mean_over(start, start + resp),
        _ => s.last_value(),
    }
}

/// Run one cell; the `bursts` churn label arms the X11 plan and the
/// invariant audit.
fn run_cell(
    policy: SchedPolicy,
    (nodes, churn, lifetime): (usize, &str, Option<u64>),
    seed: u64,
    schedule: &SubmissionSchedule,
) -> Row {
    let mut cfg = ClusterConfig::hog(nodes, seed)
        .with_scheduler(policy)
        .with_metrics();
    cfg = if churn == "bursts" {
        cfg.with_fault_plan(x11_burst_plan())
            .with_audit(true)
            .named(format!("sched-burst-{}", policy.as_str()))
    } else {
        cfg.named(format!("sched-{}-{nodes}-{churn}", policy.as_str()))
    };
    if let Some(secs) = lifetime {
        cfg = cfg.with_mean_lifetime(SimDuration::from_secs(secs));
    }
    let (r, wall_ms) = timed(|| run_workload(cfg, schedule, SimDuration::from_secs(100 * 3600)));
    let jt = &r.jt;
    let launches = jt.node_local + jt.rack_local + jt.site_local + jt.remote;
    let local_share = if launches == 0 {
        0.0
    } else {
        (jt.node_local + jt.rack_local) as f64 / launches as f64
    };
    Row::new()
        .with("policy", policy.as_str())
        .with("nodes", nodes)
        .with("churn", churn)
        .with("wall_ms", wall_ms)
        .outcome(&r)
        .with("node_local", jt.node_local)
        .with("rack_local", jt.rack_local)
        .with("site_local", jt.site_local)
        .with("remote", jt.remote)
        .float("local_share", local_share, 4)
        .with("speculative", jt.speculative)
        .with("failures", jt.failures)
        .float("fairness", mean_fairness(&r), 4)
        .with("fingerprint", outcome_fingerprint(&r))
}

fn sweep(seed: u64, smoke: bool, threads: usize) -> Vec<Group> {
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    let tiers = if smoke { &CELLS[..1] } else { &CELLS[..] };
    let grid: Vec<_> = tiers
        .iter()
        .flat_map(|&cell| POLICIES.map(|p| (p, cell)))
        .collect();
    let cells = run_ordered(grid, threads, |(p, cell)| {
        run_cell(p, cell, seed, &schedule)
    });
    let bursts = if smoke {
        vec![]
    } else {
        vec![SchedPolicy::Fifo, SchedPolicy::FailureAware]
    };
    let ablation = run_ordered(bursts, threads, |p| {
        run_cell(p, (300, "bursts", None), seed, &schedule)
    });
    vec![("cells", cells), ("ablation", ablation)]
}

fn main() {
    hog_bench::run_study(&Study {
        name: "sched",
        header: &[],
        keys: &["policy", "nodes", "churn"],
        wall_gated: false,
        sweep,
        verdict: |_, _| true,
    });
}
