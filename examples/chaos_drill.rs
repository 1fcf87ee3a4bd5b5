//! Chaos drill: run the paper workload while hog-chaos injects a scripted
//! incident — a whole site drops off the network five minutes into the
//! workload, a zombie outbreak hits at ten, and the WAN sags to a third
//! of its bandwidth in between — with the invariant auditor checking the
//! namenode/JobTracker/network books on every master tick and the
//! livelock watchdog armed. The pool heals, the workload completes, and
//! no invariant breaks.
//!
//! ```sh
//! cargo run --release --example chaos_drill
//! # with a full structured trace exported as JSONL:
//! HOG_TRACE_JSONL=drill.jsonl cargo run --release --example chaos_drill
//! ```

use hog_repro::obs::to_jsonl;
use hog_repro::prelude::*;

fn main() {
    let plan = FaultPlan::new()
        .at(
            SimDuration::from_mins(5),
            Fault::SitePartition {
                site: "UCSDT2".into(),
                duration: SimDuration::from_mins(10),
            },
        )
        .at(
            SimDuration::from_mins(7),
            Fault::WanDegrade {
                factor: 0.33,
                duration: SimDuration::from_mins(8),
            },
        )
        .at(
            SimDuration::from_mins(10),
            Fault::ZombieOutbreak { count: 3 },
        );
    println!("fault plan:");
    for tf in plan.faults() {
        println!("  T+{:>4}s  {:?}", tf.at.as_millis() / 1000, tf.fault);
    }

    let trace_out = std::env::var("HOG_TRACE_JSONL").ok();
    let mut cfg = ClusterConfig::hog(60, 31)
        .with_fault_plan(plan)
        .with_audit(true)
        .with_watchdog(SimDuration::from_secs(3600));
    if trace_out.is_some() {
        cfg = cfg.with_tracing(TraceMode::Full);
    }
    let schedule = SubmissionSchedule::facebook_truncated(2026);
    println!("\nrunning 60-node HOG through the incident (auditing every master tick)…");
    let r = run_workload(cfg, &schedule, SimDuration::from_secs(60 * 3600));

    if let (Some(path), Some(log)) = (&trace_out, &r.trace) {
        std::fs::write(path, to_jsonl(&log.events)).expect("write trace");
        println!(
            "trace: {} events ({} layers of the incident, causally ordered) -> {path}",
            log.recorded,
            log.events
                .iter()
                .map(|e| e.layer)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );
    }

    match &r.chaos_failure {
        None => println!("auditor: clean — every cross-layer invariant held"),
        Some(f) => {
            println!("CHAOS FAILURE:\n{}", f.dump());
            std::process::exit(1);
        }
    }
    println!(
        "workload: {}/{} jobs succeeded, response {:.0}s",
        r.jobs_succeeded(),
        r.jobs.len(),
        r.response_time.map(|d| d.as_secs_f64()).unwrap_or(f64::NAN)
    );
    println!(
        "grid: {} preemptions, {} node starts; hdfs: {} repl completed, {} blocks lost",
        r.grid.map_or(0, |g| g.0),
        r.grid.map_or(0, |g| g.2),
        r.nn_counters.0,
        r.nn_counters.2
    );
    assert!(r.chaos_failure.is_none());
    assert!(
        r.jobs_succeeded() > 0,
        "the drill must not kill the workload"
    );
    println!("\nThe site partition silences ~1/5 of the pool: the masters time the");
    println!("nodes out, re-replication refills block deficits from surviving sites,");
    println!("and when the partition heals the members re-register and rejoin. The");
    println!("paper's operational claim — graceful degradation on an unreliable");
    println!("grid — held under a scripted multi-fault incident.");
}
