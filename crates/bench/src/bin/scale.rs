//! Tracked scale benchmark: replay the truncated Facebook workload on HOG
//! pools of 100 / 300 / 1101 nodes (the paper's §V sweep) plus synthetic
//! 3000- and 10000-node extrapolation tiers, and record
//! the *simulator's* performance trajectory — wall-clock, events/sec,
//! fluid-net recompute count and work, and peak event-queue depth — plus a
//! determinism fingerprint of the simulated outcome so perf work can prove
//! it changed nothing observable.
//!
//! Usage:
//!   scale [--smoke] [--seed S] [--out PATH] [--check BASELINE]
//!         [--threads N] [--verify-threads]
//!
//! * `--smoke`          run only the 100-node tier (CI per-PR gate)
//! * `--seed S`         cluster seed (default 7; schedule seed is 1000+S)
//! * `--out PATH`       where to write the JSON report (default
//!   BENCH_scale.json, or BENCH_scale.smoke.json with `--smoke`, so a
//!   smoke run never overwrites the committed five-tier report)
//! * `--check BASELINE` compare against a previously written report and
//!   exit non-zero if any shared tier's wall-clock regressed by more than
//!   25% (and by more than an absolute noise floor) **or** its outcome
//!   fingerprint changed (the simulation no longer produces bit-identical
//!   results)
//!
//! * `--threads N`      run sweep cells N-wide (default: available cores;
//!   every cell is an independent deterministic simulation, so the report
//!   is the same at any width — only wall clocks move)
//! * `--verify-threads` rerun the sweep at `--threads 1` and assert the
//!   two reports are byte-identical modulo wall-clock fields
//!
//! The JSON is hand-rolled (no serde in the workspace); keep the schema in
//! sync with `.github/workflows/ci.yml` and DESIGN.md §10.

use hog_core::driver::{run_workload, RunResult};
use hog_core::ClusterConfig;
use hog_sim_core::SimDuration;
use hog_workload::SubmissionSchedule;
use std::fmt::Write as _;
use std::time::Instant;

/// Pool sizes replayed by the full benchmark. 100/300/1101 are the paper's
/// §V sweep (1101 its upper bound); 3000 and 10000 extrapolate past the
/// paper onto synthetic OSG sites (`scaled_sites`) to exercise the
/// batched master tick at scales the per-event dispatch could not reach.
const TIERS: [usize; 5] = [100, 300, 1101, 3000, 10000];
/// Wall-clock regression gate for `--check` (fraction of baseline).
const REGRESSION_FRAC: f64 = 0.25;
/// Absolute slack below which a regression is considered timer noise.
const NOISE_FLOOR_MS: u64 = 250;

struct TierReport {
    nodes: usize,
    wall_ms: u64,
    sim_events: u64,
    events_per_sec: u64,
    recomputes: u64,
    recompute_work: u64,
    peak_queue: usize,
    response_secs: f64,
    jobs_ok: usize,
    jobs: usize,
    fingerprint: String,
}

/// Outcome fingerprint, shared with the sched and elastic benches (the
/// canonical format lives in `hog_bench` so every baseline stays
/// comparable).
fn fingerprint(r: &RunResult) -> String {
    hog_bench::outcome_fingerprint(r)
}

fn run_tier(nodes: usize, seed: u64, schedule: &SubmissionSchedule) -> TierReport {
    let cfg = ClusterConfig::hog(nodes, seed);
    let wall = Instant::now();
    let r = run_workload(cfg, schedule, SimDuration::from_secs(100 * 3600));
    let wall_ms = wall.elapsed().as_millis() as u64;
    assert!(
        !r.stopped_early,
        "scale tier {nodes} did not finish — the benchmark config is broken"
    );
    TierReport {
        nodes,
        wall_ms,
        sim_events: r.events,
        events_per_sec: (r.events * 1000).checked_div(wall_ms).unwrap_or(0),
        recomputes: r.net_recomputes,
        recompute_work: r.net_recompute_work,
        peak_queue: r.peak_queue,
        response_secs: r.response_time.map(|d| d.as_secs_f64()).unwrap_or(0.0),
        jobs_ok: r.jobs_succeeded(),
        jobs: r.jobs.len(),
        fingerprint: fingerprint(&r),
    }
}

fn to_json(seed: u64, tiers: &[TierReport]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"scale\",");
    let _ = writeln!(s, "  \"workload\": \"facebook_truncated\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    s.push_str("  \"tiers\": [\n");
    for (i, t) in tiers.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"nodes\": {}, \"wall_ms\": {}, \"sim_events\": {}, \"events_per_sec\": {}, \"recomputes\": {}, \"recompute_work\": {}, \"peak_queue\": {}, \"response_secs\": {:.3}, \"jobs_ok\": {}, \"jobs\": {}, \"fingerprint\": \"{}\"}}",
            t.nodes,
            t.wall_ms,
            t.sim_events,
            t.events_per_sec,
            t.recomputes,
            t.recompute_work,
            t.peak_queue,
            t.response_secs,
            t.jobs_ok,
            t.jobs,
            t.fingerprint
        );
        s.push_str(if i + 1 < tiers.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Minimal extraction of `"nodes": N ... "wall_ms": M ... "fingerprint"`
/// triples from a report written by [`to_json`] (schema-coupled on
/// purpose; no JSON dep). The fingerprint is `None` for baselines written
/// before it was recorded.
fn parse_baseline(text: &str) -> Vec<(usize, u64, Option<String>)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"nodes\":") {
            continue;
        }
        let field = |key: &str| -> Option<u64> {
            let pat = format!("\"{key}\": ");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        let fp = line.find("\"fingerprint\": \"").and_then(|i| {
            let rest = &line[i + "\"fingerprint\": \"".len()..];
            rest.find('"').map(|end| rest[..end].to_string())
        });
        if let (Some(n), Some(w)) = (field("nodes"), field("wall_ms")) {
            out.push((n as usize, w, fp));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = hog_bench::arg_usize(&args, "--seed", 7) as u64;
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if smoke {
                "BENCH_scale.smoke.json"
            } else {
                "BENCH_scale.json"
            }
            .to_string()
        });
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    println!(
        "scale: {} jobs / {} maps / {} reduces, seed {seed}",
        schedule.len(),
        schedule.total_maps(),
        schedule.total_reduces()
    );

    let threads = hog_bench::arg_threads(&args);
    let verify_threads = args.iter().any(|a| a == "--verify-threads");
    let sweep = |threads: usize| {
        let schedule = &schedule;
        let jobs: Vec<Box<dyn FnOnce() -> TierReport + Send>> = TIERS
            .iter()
            .filter(|&&n| !smoke || n == TIERS[0])
            .map(|&n| {
                Box::new(move || run_tier(n, seed, schedule))
                    as Box<dyn FnOnce() -> TierReport + Send>
            })
            .collect();
        hog_bench::run_cells(jobs, threads)
    };

    let tiers = sweep(threads);
    for t in &tiers {
        println!(
            "  {:>5} nodes: wall={:>6}ms events={:>9} ({:>8}/s) recomputes={:>7} work={:>11} peakq={:>6} fp={}",
            t.nodes,
            t.wall_ms,
            t.sim_events,
            t.events_per_sec,
            t.recomputes,
            t.recompute_work,
            t.peak_queue,
            t.fingerprint
        );
    }

    let json = to_json(seed, &tiers);
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if verify_threads {
        let t1 = sweep(1);
        hog_bench::assert_threads_identical("scale", &json, &to_json(seed, &t1));
    }

    if let Some(base) = check_path {
        let text = std::fs::read_to_string(&base)
            .unwrap_or_else(|e| panic!("cannot read baseline {base}: {e}"));
        let baseline = parse_baseline(&text);
        assert!(!baseline.is_empty(), "baseline {base} has no tiers");
        let mut failed = false;
        for t in &tiers {
            let Some((_, base_ms, base_fp)) = baseline.iter().find(|(n, _, _)| *n == t.nodes)
            else {
                continue;
            };
            let limit = base_ms + (*base_ms as f64 * REGRESSION_FRAC) as u64 + NOISE_FLOOR_MS;
            let verdict = if t.wall_ms > limit {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "  check {:>5} nodes: {}ms vs baseline {}ms (limit {}ms) — {}",
                t.nodes, t.wall_ms, base_ms, limit, verdict
            );
            if let Some(fp) = base_fp {
                if fp != &t.fingerprint {
                    failed = true;
                    println!(
                        "  check {:>5} nodes: fingerprint {} != baseline {} — OUTCOME CHANGED",
                        t.nodes, t.fingerprint, fp
                    );
                }
            }
        }
        if failed {
            eprintln!("scale: wall-clock regression beyond {REGRESSION_FRAC:.0}% + {NOISE_FLOOR_MS}ms noise floor");
            std::process::exit(1);
        }
    }
}
