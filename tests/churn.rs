//! Churn-model guarantees: the calibrated generator must never disturb
//! the legacy exponential path (BENCH_scale's fingerprints are history —
//! see EXPERIMENTS.md), and must itself replay bit-identically so the
//! BENCH_churn study is reproducible.

use hog_bench::outcome_fingerprint;
use hog_repro::grid::churn::ChurnModel;
use hog_repro::prelude::*;
use proptest::prelude::*;

fn truncated(seed: u64) -> SubmissionSchedule {
    SubmissionSchedule::facebook_truncated(seed)
}

fn scale_fingerprint(nodes: usize, seed: u64) -> String {
    // Exactly BENCH_scale's cell: `hog(nodes, seed)` with the truncated
    // Facebook grid under a 100 h horizon (crates/bench/src/bin/scale.rs).
    let r = run_workload(
        ClusterConfig::hog(nodes, seed),
        &truncated(1000 + seed),
        SimDuration::from_secs(100 * 3600),
    );
    assert!(!r.stopped_early);
    outcome_fingerprint(&r)
}

/// The anchors every churn-layer change must hold: byte-identical
/// outcomes for the default (exponential) configuration
/// at BENCH_scale's dev tiers. These constants are copied from
/// BENCH_scale.baseline.json — if this test fails, the churn layer leaked
/// into the legacy path.
#[test]
fn default_churn_keeps_scale_fingerprints() {
    assert_eq!(scale_fingerprint(100, 7), "cf17f90b65a09cc8");
    assert_eq!(scale_fingerprint(300, 7), "3eb6cca796295e8b");
}

/// The 1101-node anchor from the paper's largest run; minutes in a debug
/// test build, so it only runs when asked for by name.
#[test]
#[ignore = "full-scale anchor; run with --ignored (minutes in debug)"]
fn default_churn_keeps_paper_scale_fingerprint() {
    assert_eq!(scale_fingerprint(1101, 7), "d451d58425c46112");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `ChurnModel::Exponential` is not merely *similar* to the
    /// pre-churn-layer draw — it routes through the identical one-draw
    /// path, so spelling it explicitly must replay the default run
    /// bit-for-bit at any scale and seed.
    #[test]
    fn explicit_exponential_matches_default(
        nodes in 20usize..60,
        seed in 0u64..1000,
    ) {
        let horizon = SimDuration::from_secs(24 * 3600);
        let schedule = truncated(seed);
        let a = run_workload(ClusterConfig::hog(nodes, seed), &schedule, horizon);
        let b = run_workload(
            ClusterConfig::hog(nodes, seed).with_churn_model(ChurnModel::Exponential),
            &schedule,
            horizon,
        );
        prop_assert_eq!(outcome_fingerprint(&a), outcome_fingerprint(&b));
    }
}

/// Calibrated churn is seeded from the same per-node streams as the
/// exponential draw: the same seed must replay the identical preemption
/// schedule (and therefore the identical run), while a different cluster
/// seed must shift it.
#[test]
fn calibrated_churn_replays_deterministically() {
    let horizon = SimDuration::from_secs(24 * 3600);
    let schedule = truncated(77);
    let run = |seed| {
        run_workload(
            ClusterConfig::hog(60, seed).with_calibrated_churn(),
            &schedule,
            horizon,
        )
    };
    let a = outcome_fingerprint(&run(7));
    assert_eq!(a, outcome_fingerprint(&run(7)), "same seed must replay");
    assert_ne!(
        a,
        outcome_fingerprint(&run(8)),
        "different seeds must draw different preemption schedules"
    );
}

/// The calibrated generator actually changes the death process — if it
/// ever silently fell back to the exponential draw, BENCH_churn's
/// synthetic-vs-calibrated columns would compare a model to itself.
#[test]
fn calibrated_churn_diverges_from_exponential() {
    let horizon = SimDuration::from_secs(24 * 3600);
    let schedule = truncated(42);
    let exp = run_workload(ClusterConfig::hog(60, 7), &schedule, horizon);
    let cal = run_workload(
        ClusterConfig::hog(60, 7).with_calibrated_churn(),
        &schedule,
        horizon,
    );
    assert_ne!(outcome_fingerprint(&exp), outcome_fingerprint(&cal));
}
