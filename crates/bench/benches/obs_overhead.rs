//! Overhead of the hog-obs trace layer on an end-to-end run.
//!
//! Four variants of the same small HOG workload:
//!
//! * `off` — `TraceMode::Off` (the default): emit closures must never
//!   run, so this is the baseline;
//! * `ring` — a 256-event flight recorder;
//! * `full` — every event retained in memory;
//! * `full_export` — full retention plus a JSONL export of the log.
//!
//! The disabled path is the contract that matters: tracing compiled in
//! but switched off must be free (see `tests/observability.rs` for the
//! hard assertion that it does not change the event count).

use criterion::{criterion_group, criterion_main, Criterion};
use hog_core::driver::run_workload;
use hog_core::ClusterConfig;
use hog_obs::{to_jsonl, TraceMode};
use hog_sim_core::SimDuration;
use hog_workload::facebook::Bin;
use hog_workload::SubmissionSchedule;
use std::hint::black_box;

fn small_schedule() -> SubmissionSchedule {
    let bin = Bin {
        number: 3,
        maps_at_facebook: (10, 10),
        fraction_at_facebook: 1.0,
        maps: 10,
        jobs_in_benchmark: 4,
        reduces: 3,
    };
    SubmissionSchedule::from_bins(&[bin], 5)
}

fn run(mode: TraceMode, export: bool) -> u64 {
    let cfg = ClusterConfig::hog(30, 2).with_tracing(mode);
    let r = run_workload(cfg, &small_schedule(), SimDuration::from_secs(12 * 3600));
    if export {
        let log = r.trace.as_ref().expect("tracing on");
        black_box(to_jsonl(&log.events).len());
    }
    r.events
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.bench_function("off", |b| b.iter(|| black_box(run(TraceMode::Off, false))));
    group.bench_function("ring256", |b| {
        b.iter(|| black_box(run(TraceMode::Ring(256), false)))
    });
    group.bench_function("full", |b| {
        b.iter(|| black_box(run(TraceMode::Full, false)))
    });
    group.bench_function("full_export", |b| {
        b.iter(|| black_box(run(TraceMode::Full, true)))
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
