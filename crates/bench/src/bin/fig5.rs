//! Regenerate Figure 5 ("HOG Node Fluctuation") and Table IV ("Area
//! beneath curves").
//!
//! Three 55-node runs — 5a/5b on stable sites, 5c under heavy preemption
//! — each rendered as an ASCII availability trace, plus the response-time
//! / area table. The paper's observation to reproduce: more node
//! fluctuation (smaller area) ⇒ longer response time.
//!
//! Usage: `fig5 [--threads N]` (default: available cores)

use hog_core::experiments::{figure5, workload_window};
use hog_core::report::{ascii_series, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads = hog_bench::arg_threads(&args);
    eprintln!("fig5: three 55-node runs, {threads} threads");
    let runs = figure5(threads);

    let mut out = String::new();
    for r in &runs {
        let (from, to) = workload_window(&r.result);
        out.push_str(&format!(
            "\nFIGURE 5 ({}) — available nodes during the workload\n",
            r.label
        ));
        out.push_str(&ascii_series(&r.result.reported_series, from, to, 72, 12));
    }

    let mut t = TextTable::new(&["Figure No.", "Response Time (s)", "Area (node·s)"]);
    for r in &runs {
        t.row(&[
            r.label.clone(),
            format!("{:.0}", r.response),
            format!("{:.0}", r.area),
        ]);
    }
    out.push_str(&format!("\nTABLE IV — AREA BENEATH CURVES\n{}", t.render()));

    // The paper's relationship: the unstable run has the smallest area
    // and the longest response.
    let stable_best = runs
        .iter()
        .filter(|r| r.label.contains("stable") && !r.label.contains("unstable"))
        .map(|r| r.response)
        .fold(f64::INFINITY, f64::min);
    let unstable = runs
        .iter()
        .find(|r| r.label.contains("unstable"))
        .map(|r| r.response)
        .unwrap_or(f64::NAN);
    out.push_str(&format!(
        "\nNode fluctuation vs. response: best stable run {stable_best:.0}s, unstable run {unstable:.0}s ({:.2}x)\n",
        unstable / stable_best
    ));

    println!("{out}");
    let dir = hog_bench::results_dir();
    std::fs::write(dir.join("fig5_table4.txt"), &out).expect("write fig5_table4.txt");
    let mut csv = TextTable::new(&["run", "t_secs", "reported_nodes"]);
    for r in &runs {
        let (from, to) = workload_window(&r.result);
        for (t_i, v) in r.result.reported_series.resample(from, to, 200) {
            csv.row(&[
                r.label.clone(),
                format!("{:.1}", t_i.as_secs_f64()),
                format!("{v:.0}"),
            ]);
        }
    }
    std::fs::write(dir.join("fig5.csv"), csv.to_csv()).expect("write fig5.csv");
    eprintln!("(written to {}/fig5_table4.txt, fig5.csv)", dir.display());
}
