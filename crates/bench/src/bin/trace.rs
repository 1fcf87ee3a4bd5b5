//! Trace tooling (hog-obs): run a workload with full tracing + metrics
//! and export the event stream, or diff two runs metric-by-metric.
//!
//! Usage:
//!
//! * `trace run [--nodes N] [--seed S] [--format jsonl|csv]` — run the
//!   Facebook workload with `TraceMode::Full` and the metrics registry
//!   on, export the trace to the results dir and print per-layer event
//!   counts plus a metrics summary.
//! * `trace diff [--nodes N] [--seed S] [--seed2 S2] [--top K]` — run
//!   the same workload twice under different seeds and print the top-K
//!   diverging metric series.

use hog_core::driver::{run_workload, RunResult};
use hog_core::ClusterConfig;
use hog_obs::{diff_registries, render_diff, to_csv, to_jsonl, Layer, TraceMode};
use hog_sim_core::SimDuration;
use hog_workload::SubmissionSchedule;
use std::collections::BTreeMap;

const HORIZON_SECS: u64 = 100 * 3600;

fn traced_run(nodes: usize, seed: u64) -> RunResult {
    let cfg = ClusterConfig::hog(nodes, seed)
        .with_tracing(TraceMode::Full)
        .with_metrics();
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    run_workload(cfg, &schedule, SimDuration::from_secs(HORIZON_SECS))
}

fn cmd_run(args: &[String]) {
    let nodes = hog_bench::arg_usize(args, "--nodes", 55);
    let seed = hog_bench::arg_usize(args, "--seed", 1) as u64;
    let csv = args.windows(2).any(|w| w[0] == "--format" && w[1] == "csv");
    let r = traced_run(nodes, seed);
    let log = r.trace.as_ref().expect("tracing was enabled");
    println!(
        "hog-{nodes} seed {seed}: {} events recorded ({} dropped), response={:?}s",
        log.recorded,
        log.dropped,
        r.response_time.map(|d| d.as_secs_f64())
    );

    // Per-layer / per-kind counts.
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    for ev in &log.events {
        *by_layer.entry(ev.layer.as_str()).or_insert(0) += 1;
        *by_kind
            .entry(format!("{}/{}", ev.layer, ev.kind))
            .or_insert(0) += 1;
    }
    for l in Layer::ALL {
        if let Some(n) = by_layer.get(l.as_str()) {
            println!("  [{:<9}] {n} events", l.as_str());
        }
    }
    let mut kinds: Vec<_> = by_kind.into_iter().collect();
    kinds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (k, n) in kinds.iter().take(12) {
        println!("    {k:<28} {n}");
    }

    let dir = hog_bench::results_dir();
    let (path, body) = if csv {
        (
            dir.join(format!("trace-{nodes}-{seed}.csv")),
            to_csv(&log.events),
        )
    } else {
        (
            dir.join(format!("trace-{nodes}-{seed}.jsonl")),
            to_jsonl(&log.events),
        )
    };
    std::fs::write(&path, body).expect("write trace export");
    println!("exported {} events to {}", log.events.len(), path.display());

    if let Some(m) = &r.metrics {
        println!("{}", m.render_summary());
    }
}

fn cmd_diff(args: &[String]) {
    let nodes = hog_bench::arg_usize(args, "--nodes", 55);
    let seed_a = hog_bench::arg_usize(args, "--seed", 1) as u64;
    let seed_b = hog_bench::arg_usize(args, "--seed2", 2) as u64;
    let top = hog_bench::arg_usize(args, "--top", 10);
    println!("diffing hog-{nodes}: seed {seed_a} vs seed {seed_b} ...");
    let ra = traced_run(nodes, seed_a);
    let rb = traced_run(nodes, seed_b);
    println!(
        "  seed {seed_a}: response={:?}s  seed {seed_b}: response={:?}s",
        ra.response_time.map(|d| d.as_secs_f64()),
        rb.response_time.map(|d| d.as_secs_f64())
    );
    let (ma, mb) = (
        ra.metrics.as_ref().expect("metrics on"),
        rb.metrics.as_ref().expect("metrics on"),
    );
    let diffs = diff_registries(ma, mb);
    print!("{}", render_diff(&diffs, top));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("run") => cmd_run(&args),
        Some("diff") => cmd_diff(&args),
        _ => {
            eprintln!("usage: trace run [--nodes N] [--seed S] [--format jsonl|csv]");
            eprintln!("       trace diff [--nodes N] [--seed S] [--seed2 S2] [--top K]");
            std::process::exit(2);
        }
    }
}
