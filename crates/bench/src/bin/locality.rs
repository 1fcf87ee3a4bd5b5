//! Quantify §IV-D's locality claim: "The high replication factor for HOG
//! allows for very good data locality. With the data on the same node as
//! the map execution, reading in the data is very quick."
//!
//! Sweeps the replication factor on a fixed HOG pool and prints the map
//! locality mix achieved by the FIFO + locality scheduler.
//!
//! Usage: `locality [--nodes N] [--threads N]` (default: available cores)

use hog_core::experiments::locality_vs_replication;
use hog_core::report::TextTable;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes = hog_bench::arg_usize(&args, "--nodes", 100);
    let threads = hog_bench::arg_threads(&args);
    eprintln!("locality sweep at {nodes} nodes…");
    let rows = locality_vs_replication(nodes, &[1, 3, 5, 10], threads);

    let mut t = TextTable::new(&[
        "replication",
        "node-local",
        "site-local",
        "remote",
        "node-local %",
        "response (s)",
    ]);
    for (f, nl, sl, rm, resp) in &rows {
        let total = (nl + sl + rm).max(1);
        t.row(&[
            f.to_string(),
            nl.to_string(),
            sl.to_string(),
            rm.to_string(),
            format!("{:.1}%", 100.0 * *nl as f64 / total as f64),
            format!("{resp:.0}"),
        ]);
    }
    let out = format!(
        "LOCALITY vs REPLICATION — {nodes} HOG nodes (paper §IV-D)\n{}",
        t.render()
    );
    println!("{out}");
    let dir = hog_bench::results_dir();
    std::fs::write(dir.join("locality.txt"), &out).expect("write locality.txt");
    eprintln!("(written to {}/locality.txt)", dir.display());
}
