//! Scheduler showdown: the same 100-node pool and Facebook workload
//! under each slot-assignment policy (DESIGN.md §11). FIFO is the
//! paper's scheduler; Fair adds delay scheduling and wins on locality
//! and mean job response; FailureAware only differs once the pool
//! starts killing trackers (see the `ablation` group of
//! `hog-bench --bin sched`, the X11 preemption-burst cells, for that
//! story).
//!
//! ```sh
//! cargo run --release --example sched_showdown
//! ```

use hog_repro::prelude::*;

fn main() {
    let policies = [
        SchedPolicy::Fifo,
        SchedPolicy::Fair,
        SchedPolicy::FailureAware,
    ];
    let schedule = SubmissionSchedule::facebook_truncated(1007);
    let horizon = SimDuration::from_secs(60 * 3600);

    println!("policy          makespan  mean-job  node%  rack%  site%  remote%");
    for policy in policies {
        let cfg = ClusterConfig::hog(100, 7)
            .with_scheduler(policy)
            .named(format!("showdown-{policy:?}"));
        let r = run_workload(cfg, &schedule, horizon);

        let makespan = r.response_time.map(|d| d.as_secs_f64()).unwrap_or(f64::NAN);
        let (mut sum, mut n) = (0.0, 0u32);
        for j in &r.jobs {
            if let Some(d) = j.response() {
                sum += d.as_secs_f64();
                n += 1;
            }
        }
        let mean_job = if n > 0 { sum / n as f64 } else { f64::NAN };
        let total = (r.jt.node_local + r.jt.rack_local + r.jt.site_local + r.jt.remote).max(1);
        let pct = |c: u64| 100.0 * c as f64 / total as f64;
        println!(
            "{:<14}  {makespan:>7.0}s  {mean_job:>7.0}s  {:>4.1}  {:>5.1}  {:>5.1}  {:>6.1}",
            format!("{policy:?}"),
            pct(r.jt.node_local),
            pct(r.jt.rack_local),
            pct(r.jt.site_local),
            pct(r.jt.remote),
        );
    }
    println!(
        "\nDelay scheduling trades a little makespan for node-local maps and\n\
         much lower per-job response; FailureAware is inert on a healthy\n\
         pool by design — its win shows up under preemption bursts."
    );
}
