//! Observability-layer integration tests (hog-obs):
//!
//! * enabling tracing must not change the simulation — the RunResult is
//!   identical and the event count stays within the <1% overhead
//!   contract (it is exactly equal: tracing schedules nothing and
//!   consumes no randomness);
//! * traces are deterministic: same seed + config → byte-identical
//!   JSONL;
//! * the metrics registry samples every layer and two seeds diff
//!   without panicking.

use hog_repro::obs::{diff_registries, render_diff, to_jsonl, Layer};
use hog_repro::prelude::*;
use hog_workload::facebook::Bin;

fn schedule(seed: u64) -> SubmissionSchedule {
    let bin = Bin {
        number: 3,
        maps_at_facebook: (8, 8),
        fraction_at_facebook: 1.0,
        maps: 8,
        jobs_in_benchmark: 4,
        reduces: 2,
    };
    SubmissionSchedule::from_bins(&[bin], seed)
}

const HORIZON: SimDuration = SimDuration::from_secs(24 * 3600);

fn fingerprint(r: &RunResult) -> (Option<u64>, u64, usize, u64, u64, String) {
    (
        r.response_time.map(|d| d.as_millis()),
        r.events,
        r.jobs_succeeded(),
        r.jt.node_local + r.jt.site_local + r.jt.remote,
        r.nn_counters.0,
        r.jobs
            .iter()
            .map(|j| format!("{:?}", j.finished.map(|t| t.as_millis())))
            .collect::<Vec<_>>()
            .join(","),
    )
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let base = run_workload(ClusterConfig::hog(20, 11), &schedule(3), HORIZON);
    let traced = run_workload(
        ClusterConfig::hog(20, 11)
            .with_tracing(TraceMode::Full)
            .with_metrics(),
        &schedule(3),
        HORIZON,
    );
    assert!(base.trace.is_none(), "default config must trace nothing");
    assert!(base.metrics.is_none());
    assert_eq!(
        fingerprint(&base),
        fingerprint(&traced),
        "tracing altered the simulation"
    );
    // The <1% overhead contract, in events processed. Tracing schedules
    // no events of its own, so the counts are exactly equal.
    assert!(traced.events as f64 <= base.events as f64 * 1.01);
    let log = traced.trace.expect("full tracing keeps the log");
    assert!(log.recorded > 0, "a real run emits trace events");
    assert_eq!(log.dropped, 0, "full mode never evicts");
    assert_eq!(log.events.len() as u64, log.recorded);
}

#[test]
fn every_run_traces_each_phase_transition_once() {
    // No block fits on a datanode: every upload fails, so every job
    // fails at submission and the run ends from the submission path.
    let mut all_fail = ClusterConfig::dedicated(1);
    all_fail.hdfs.datanode_capacity = 1;
    let runs = [
        ("hog", ClusterConfig::hog(40, 11), 4),
        ("dedicated", ClusterConfig::dedicated(1), 4),
        ("all-fail", all_fail, 0),
    ];
    for (label, cfg, succeeded) in runs {
        let r = run_workload(cfg.with_tracing(TraceMode::Full), &schedule(3), HORIZON);
        assert_eq!(r.jobs_succeeded(), succeeded, "{label}");
        let phases: Vec<String> = r
            .trace
            .expect("full tracing keeps the log")
            .events
            .iter()
            .filter(|e| e.layer == Layer::Core && e.kind == "phase")
            .map(|e| {
                e.field("to")
                    .expect("phase events name their target")
                    .to_string()
            })
            .collect();
        assert_eq!(phases, ["uploading", "running", "done"], "{label}");
    }
}

#[test]
fn traces_are_deterministic_and_cover_every_layer() {
    let run = |_: ()| {
        run_workload(
            ClusterConfig::hog(20, 11).with_tracing(TraceMode::Full),
            &schedule(3),
            HORIZON,
        )
    };
    let a = run(());
    let b = run(());
    let ja = to_jsonl(&a.trace.as_ref().unwrap().events);
    let jb = to_jsonl(&b.trace.as_ref().unwrap().events);
    assert_eq!(ja, jb, "same seed + config must export byte-identical JSONL");

    let events = &a.trace.as_ref().unwrap().events;
    for layer in [Layer::Core, Layer::Grid, Layer::Hdfs, Layer::MapReduce, Layer::Net] {
        assert!(
            events.iter().any(|e| e.layer == layer),
            "no events from {layer}"
        );
    }
    // Causal order: time (then sequence) is monotone across the stream.
    for w in events.windows(2) {
        assert!(w[0].time <= w[1].time, "events out of order: {w:?}");
        assert!(w[0].seq < w[1].seq);
    }
}

#[test]
fn metrics_registry_samples_and_diffs() {
    let run = |seed: u64| {
        run_workload(
            ClusterConfig::hog(20, seed).with_metrics(),
            &schedule(3),
            HORIZON,
        )
    };
    let a = run(11);
    let b = run(12);
    let (ma, mb) = (a.metrics.unwrap(), b.metrics.unwrap());
    assert!(!ma.is_empty());
    assert!(
        ma.find("core/pool_usable").is_some_and(|s| !s.is_empty()),
        "pool gauge must have samples"
    );
    assert!(ma.find("mapreduce/maps_done").is_some());
    let diffs = diff_registries(&ma, &mb);
    assert_eq!(diffs.len(), ma.len(), "diff covers every registered series");
    let rendered = render_diff(&diffs, 10);
    assert!(rendered.contains('/'), "rendered diff names series: {rendered}");
    // Scores are sorted descending.
    for w in diffs.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
}
