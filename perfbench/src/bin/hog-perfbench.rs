//! The repository benchmark's command.
//!
//! Usage: `hog-perfbench --workload NAME [--seed N] [--workload-seed N]
//! [--seconds N] [--trace 0|1]`
//!
//! With `--trace 0` it runs the workload untraced as often as fits in
//! `--seconds` and reports the end-to-end metrics. With `--trace 1` it
//! alternates untraced runs with traced runs, each traced run in a fresh
//! `hog-perfbench-traced` process beside this binary, and reports the
//! per-layer metrics. Either way the last line of stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

use hog_perfbench::{
    end_to_end, layout_pad, median, median_rows, peak_rss_mb, repeat_within, result_json, verdict,
    Args, Runs, END_TO_END, PER_LAYER, SETUPS,
};
use std::process::{Command, Stdio};
use std::time::Duration;

const USAGE: &str = "usage: hog-perfbench --workload paper_100|scale_10k|churn_300 \
                     [--seed N] [--workload-seed N] [--seconds N] [--trace 0|1]";

/// What one traced child reported.
struct TracedReport {
    fingerprint: String,
    jobs: usize,
    failed_jobs: usize,
    /// Why its output check failed; empty when it passed.
    problem: String,
    /// Per-layer values, all but `trace.overhead_frac`.
    layer: Vec<f64>,
}

fn parse_traced(stdout: &str) -> Result<TracedReport, String> {
    let line = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .ok_or(format!("the traced run printed no {prefix}line"))
    };
    let mut f = line("outcome ")?.splitn(4, ' ');
    let mut field = || f.next().unwrap_or("").to_string();
    let (fingerprint, jobs, failed_jobs, problem) = (field(), field(), field(), field());
    let count = |s: &str| s.parse::<usize>().map_err(|_| format!("bad job count {s}"));
    let layer = line("layer ")?
        .split(' ')
        .map(str::parse::<f64>)
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| format!("bad layer value: {e}"))?;
    if layer.len() + 1 != PER_LAYER.len() {
        return Err(format!(
            "the traced run printed {} layer values",
            layer.len()
        ));
    }
    Ok(TracedReport {
        jobs: count(&jobs)?,
        failed_jobs: count(&failed_jobs)?,
        fingerprint,
        problem,
        layer,
    })
}

/// Run one traced run in a fresh `hog-perfbench-traced`, which takes the
/// same arguments.
fn run_traced_child(argv: &[String]) -> Result<TracedReport, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .with_file_name("hog-perfbench-traced");
    let out = Command::new(&exe)
        .args(argv)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", exe.display(), out.status));
    }
    parse_traced(&String::from_utf8_lossy(&out.stdout))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("hog-perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let budget = Duration::from_secs(args.seconds);
    let (w, seed) = (args.workload, args.workload_seed);
    let _pad = layout_pad(args.seed);
    let mut runs = Runs::default();
    let mut traced: Vec<Result<TracedReport, String>> = Vec::new();
    if args.trace {
        repeat_within(budget, || {
            let ok = runs.run(w, seed);
            traced.push(run_traced_child(&argv));
            ok && traced.last().is_some_and(Result::is_ok)
        });
    } else {
        runs.time_setups(w, seed, SETUPS);
        repeat_within(budget, || {
            let ok = runs.run(w, seed);
            runs.time_setups(w, seed, SETUPS);
            ok
        });
    }
    let walls: Vec<String> = runs.wall_s.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "{} workload seed {seed} seed {}: {} untraced run(s), {} traced, fingerprint {}, wall_s [{}]",
        w.name(),
        args.seed,
        runs.wall_s.len(),
        traced.len(),
        runs.outcomes.first().map_or("-", |o| o.fingerprint.as_str()),
        walls.join(", ")
    );

    let mut check = verdict(&runs.outcomes);
    let mut attempted: usize = runs.outcomes.iter().map(|o| o.jobs).sum();
    let mut failed: usize = runs.outcomes.iter().map(|o| o.failed_jobs).sum();
    let line = if args.trace {
        let untraced_fp = runs.outcomes.first().map(|o| o.fingerprint.as_str());
        let mut rows = Vec::new();
        for report in traced {
            let r = report.and_then(|r| {
                attempted += r.jobs;
                failed += r.failed_jobs;
                if !r.problem.is_empty() {
                    Err(format!("traced run: {}", r.problem))
                } else if Some(r.fingerprint.as_str()) != untraced_fp {
                    Err(format!("traced fingerprint {} differs", r.fingerprint))
                } else {
                    Ok(r.layer)
                }
            });
            match r {
                Ok(layer) => rows.push(layer),
                Err(e) => check = check.and(Err(e)),
            }
        }
        let mut values = median_rows(&rows);
        values.resize(PER_LAYER.len() - 1, 0.0);
        // trace.wall_s is the last value before trace.overhead_frac.
        let traced_wall = values[PER_LAYER.len() - 2];
        values.push(traced_wall / median(&runs.wall_s) - 1.0);
        result_json(check.is_ok(), attempted, failed, PER_LAYER, &values)
    } else {
        let values = end_to_end(&runs, peak_rss_mb());
        result_json(check.is_ok(), attempted, failed, END_TO_END, &values)
    };
    if let Err(e) = &check {
        println!("check failed: {e}");
    }
    println!("{line}");
}
