//! Federation partition drill: two HOG pools share datasets over the
//! inter-pool WAN while hog-chaos severs that backbone for twenty
//! minutes mid-workload. In-flight cross-pool stagings must freeze (not
//! abort), jobs awaiting them must stay accounted for, and once the
//! partition heals every job must still complete — the federation-level
//! no-lost-jobs auditor checks the books on every tick.
//!
//! ```sh
//! cargo run --release --example federation_partition_drill
//! ```

use hog_repro::prelude::*;

fn main() {
    let plan = FaultPlan::new().at(
        SimDuration::from_mins(5),
        Fault::PoolPartition {
            duration: SimDuration::from_mins(20),
        },
    );
    println!("fault plan (pool 0):");
    for tf in plan.faults() {
        println!("  T+{:>4}s  {:?}", tf.at.as_millis() / 1000, tf.fault);
    }

    // The partition lives in pool 0's chaos plan but acts on the
    // federation's WAN tier; the pool itself treats it as a no-op.
    let pools = vec![
        ClusterConfig::hog(30, 41).with_fault_plan(plan),
        ClusterConfig::hog(30, 42),
    ];
    let cfg = FedConfig::new(pools, 41)
        .with_sharing(0.5, 2)
        .with_audit(true)
        .named("partition-drill");
    let schedule = SubmissionSchedule::facebook_truncated(2041);

    println!("\nrunning 2x30-node federation through the partition (auditing every tick)…");
    let r = run_federation(cfg, &schedule, SimDuration::from_secs(60 * 3600));

    println!(
        "partitions={}  jobs {}/{}  mean job response={:.0}s  wan={} B over {} transfers ({} on-demand stagings)",
        r.partitions,
        r.jobs_succeeded(),
        r.jobs.len(),
        r.mean_job_response_secs(),
        r.wan_bytes,
        r.wan_transfers,
        r.route_stagings,
    );

    if let Some(f) = &r.chaos_failure {
        println!("CHAOS FAILURE:\n{}", f.dump());
        std::process::exit(1);
    }
    assert_eq!(r.partitions, 1, "the scripted partition never fired");
    assert!(r.completed, "jobs lost across the partition");
    assert_eq!(r.jobs_succeeded(), r.jobs.len(), "a job failed");
    println!("auditor: clean — no job lost across the inter-pool partition");
}
