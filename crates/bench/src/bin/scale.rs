//! Tracked scale benchmark: replay the truncated Facebook workload on HOG
//! pools of 100 / 300 / 1101 nodes (the paper's §V sweep) plus synthetic
//! 3000- and 10000-node extrapolation tiers, and record the *simulator's*
//! performance trajectory — wall-clock, events/sec, fluid-net recompute
//! count and work, and peak event-queue depth — plus a determinism
//! fingerprint of the simulated outcome so perf work can prove it changed
//! nothing observable.
//!
//! `--smoke` runs only the 100-node tier. `--check` gates wall-clock as
//! well as fingerprints. Flags, report layout and `--check`: see
//! `hog_bench::study`.

use hog_bench::{outcome_fingerprint, response_secs, timed, Group, Row, Study};
use hog_core::driver::run_workload;
use hog_core::sweep::run_ordered;
use hog_core::ClusterConfig;
use hog_sim_core::SimDuration;
use hog_workload::SubmissionSchedule;

/// Pool sizes replayed by the full benchmark. 100/300/1101 are the paper's
/// §V sweep (1101 its upper bound); 3000 and 10000 extrapolate past the
/// paper onto synthetic OSG sites (`scaled_sites`) to exercise the
/// batched master tick at scales the per-event dispatch could not reach.
const TIERS: [usize; 5] = [100, 300, 1101, 3000, 10000];

fn run_tier(nodes: usize, seed: u64, schedule: &SubmissionSchedule) -> Row {
    let cfg = ClusterConfig::hog(nodes, seed);
    let (r, wall_ms) = timed(|| run_workload(cfg, schedule, SimDuration::from_secs(100 * 3600)));
    assert!(
        !r.stopped_early,
        "scale tier {nodes} did not finish — the benchmark config is broken"
    );
    Row::new()
        .with("nodes", nodes)
        .with("wall_ms", wall_ms)
        .with("sim_events", r.events)
        .with(
            "events_per_sec",
            (r.events * 1000).checked_div(wall_ms).unwrap_or(0),
        )
        .with("recomputes", r.net_recomputes)
        .with("recompute_work", r.net_recompute_work)
        .with("peak_queue", r.peak_queue)
        .float("response_secs", response_secs(&r), 3)
        .with("jobs_ok", r.jobs_succeeded())
        .with("jobs", r.jobs.len())
        .with("fingerprint", outcome_fingerprint(&r))
}

fn sweep(seed: u64, smoke: bool, threads: usize) -> Vec<Group> {
    let tiers = if smoke { &TIERS[..1] } else { &TIERS[..] };
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    let rows = run_ordered(tiers.to_vec(), threads, |n| run_tier(n, seed, &schedule));
    vec![("tiers", rows)]
}

fn main() {
    hog_bench::run_study(&Study {
        name: "scale",
        header: &[],
        keys: &["nodes"],
        wall_gated: true,
        sweep,
        verdict: |_, _| true,
    });
}
