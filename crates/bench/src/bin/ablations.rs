//! Ablation experiments X1–X7 and the X10 chaos degradation curve (see
//! DESIGN.md §4).
//!
//! Usage: `ablations [heartbeat|replication|zombie|disk|baselines|multicopy|siteaware|chaos|all]
//!                   [--nodes N] [--threads N]`
//!
//! No subcommand means `all`; an unknown one exits 2. `--threads`
//! defaults to the available cores.

use hog_core::baselines::compare_hog_moon_hod;
use hog_core::experiments::{
    ablation_chaos, ablation_disk, ablation_heartbeat, ablation_multicopy, ablation_replication,
    ablation_siteaware, ablation_zombie, ComparisonArm,
};
use hog_core::report::TextTable;
use hog_sim_core::SimDuration;

fn arm_row(t: &mut TextTable, label: &str, arm: &ComparisonArm) {
    let r = &arm.result;
    t.row(&[
        label.to_string(),
        format!("{:.0}", arm.response()),
        format!("{}/{}", r.jobs_succeeded(), r.jobs.len()),
        r.jt.failures.to_string(),
        r.nn_counters.2.to_string(),
        r.missing_input_blocks.to_string(),
    ]);
}

fn header() -> TextTable {
    TextTable::new(&[
        "configuration",
        "response (s)",
        "jobs ok",
        "task failures",
        "blocks lost",
        "inputs missing",
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map_or("all", String::as_str);
    let nodes = hog_bench::arg_usize(&args, "--nodes", 60);
    let threads = hog_bench::arg_threads(&args);
    let mut out = String::new();

    let run_heartbeat = |out: &mut String| {
        eprintln!("X1 heartbeat ablation…");
        let cmp = ablation_heartbeat(nodes, threads);
        let mut t = header();
        for arm in &cmp.arms {
            arm_row(&mut t, &arm.label, arm);
        }
        out.push_str(&format!(
            "\nX1 — dead-node timeout (30 s HOG vs 630 s stock), {nodes} nodes under churn\n{}",
            t.render()
        ));
    };
    let run_replication = |out: &mut String| {
        eprintln!("X2 replication sweep…");
        let arms = ablation_replication(nodes, &[3, 5, 10, 12], threads);
        let mut t = header();
        for (f, arm) in &arms {
            arm_row(&mut t, &format!("replication={f}"), arm);
        }
        out.push_str(&format!(
            "\nX2 — replication factor under churn, {nodes} nodes\n{}",
            t.render()
        ));
    };
    let run_zombie = |out: &mut String| {
        eprintln!("X3 zombie ablation…");
        let cmp = ablation_zombie(nodes, threads);
        let mut t = header();
        for arm in &cmp.arms {
            arm_row(&mut t, &arm.label, arm);
        }
        let zombie_failures: Vec<u64> = cmp
            .arms
            .iter()
            .map(|a| a.result.cluster.zombie_task_failures)
            .collect();
        out.push_str(&format!(
            "\nX3 — abandoned (zombie) datanodes, {nodes} nodes (zombie task failures per arm: {zombie_failures:?})\n{}",
            t.render()
        ));
    };
    let run_disk = |out: &mut String| {
        eprintln!("X4 disk-overflow sweep…");
        let arms = ablation_disk(nodes, &[64, 160, 512, 20480], threads);
        let mut t = header();
        for (m, arm) in &arms {
            arm_row(&mut t, &format!("scratch={m}MiB"), arm);
        }
        out.push_str(&format!(
            "\nX4 — intermediate-data disk overflow, {nodes} nodes\n{}",
            t.render()
        ));
    };
    let run_baselines = |out: &mut String| {
        eprintln!("X5 HOG vs MOON vs HOD…");
        let (hog, moon, hod) =
            compare_hog_moon_hod(nodes, SimDuration::from_secs(45 * 60), 1700, threads);
        let mut t = header();
        arm_row(
            &mut t,
            "HOG",
            &ComparisonArm {
                label: "HOG".into(),
                result: hog,
            },
        );
        arm_row(
            &mut t,
            "MOON (anchored)",
            &ComparisonArm {
                label: "MOON".into(),
                result: moon,
            },
        );
        out.push_str(&format!(
            "\nX5 — HOG vs MOON vs HOD, {nodes} nodes under churn\n{}",
            t.render()
        ));
        out.push_str(&format!(
            "HOD ({} nodes per per-job cluster, instances NOT capped by shared grid capacity — \
             each job sees a private pool, so compare overhead, not makespan): \
             response {:.0}s, mean reconstruction overhead {:.0}s/job, jobs ok {}/{}\n",
            nodes / 4,
            hod.response_secs,
            hod.mean_overhead_secs,
            hod.jobs_succeeded,
            hod.jobs
        ));
    };
    let run_multicopy = |out: &mut String| {
        eprintln!("X6 multi-copy tasks…");
        let arms = ablation_multicopy(nodes, &[1, 2, 3], threads);
        let mut t = header();
        for (k, arm) in &arms {
            arm_row(&mut t, &format!("copies={k}"), arm);
        }
        out.push_str(&format!(
            "\nX6 — multi-copy task execution (paper §VI), {nodes} nodes under churn\n{}",
            t.render()
        ));
    };
    let run_siteaware = |out: &mut String| {
        eprintln!("X7 site-awareness ablation…");
        let cmp = ablation_siteaware(nodes, threads);
        let mut t = header();
        for arm in &cmp.arms {
            arm_row(&mut t, &arm.label, arm);
        }
        out.push_str(&format!(
            "\nX7 — site-aware vs rack-oblivious placement under site outages, {nodes} nodes\n{}",
            t.render()
        ));
    };

    let run_chaos = |out: &mut String| {
        eprintln!("X10 chaos degradation curve…");
        let arms = ablation_chaos(nodes, &[0, 1, 2, 3, 4], threads);
        let mut t = TextTable::new(&[
            "intensity",
            "response (s)",
            "jobs ok",
            "task failures",
            "blocks lost",
            "preemptions",
            "chaos verdict",
        ]);
        for (k, arm) in &arms {
            let r = &arm.result;
            let verdict = match &r.chaos_failure {
                None => "clean".to_string(),
                Some(f) => match f {
                    hog_core::chaos::ChaosFailure::InvariantViolation { violations, .. } => {
                        format!("INVARIANT ({} violations)", violations.len())
                    }
                    hog_core::chaos::ChaosFailure::Livelock { stalled_for, .. } => {
                        format!("LIVELOCK ({}s stall)", stalled_for.as_millis() / 1000)
                    }
                },
            };
            t.row(&[
                k.to_string(),
                format!("{:.0}", arm.response()),
                format!("{}/{}", r.jobs_succeeded(), r.jobs.len()),
                r.jt.failures.to_string(),
                r.nn_counters.2.to_string(),
                r.grid.map_or(0, |g| g.0).to_string(),
                verdict,
            ]);
        }
        out.push_str(&format!(
            "\nX10 — graceful degradation under escalating chaos (audited), {nodes} nodes\n{}",
            t.render()
        ));
    };

    match which {
        "heartbeat" => run_heartbeat(&mut out),
        "replication" => run_replication(&mut out),
        "zombie" => run_zombie(&mut out),
        "disk" => run_disk(&mut out),
        "baselines" => run_baselines(&mut out),
        "multicopy" => run_multicopy(&mut out),
        "siteaware" => run_siteaware(&mut out),
        "chaos" => run_chaos(&mut out),
        "all" => {
            run_heartbeat(&mut out);
            run_replication(&mut out);
            run_zombie(&mut out);
            run_disk(&mut out);
            run_baselines(&mut out);
            run_multicopy(&mut out);
            run_siteaware(&mut out);
            run_chaos(&mut out);
        }
        other => {
            eprintln!(
                "ablations: unknown subcommand `{other}`\nusage: ablations \
                 [heartbeat|replication|zombie|disk|baselines|multicopy|siteaware|chaos|all] \
                 [--nodes N] [--threads N]"
            );
            std::process::exit(2);
        }
    }

    println!("{out}");
    let dir = hog_bench::results_dir();
    let path = dir.join(format!("ablations_{which}.txt"));
    std::fs::write(&path, &out).expect("write ablations");
    eprintln!("(written to {})", path.display());
}
