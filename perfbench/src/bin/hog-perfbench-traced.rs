//! The traced half of the benchmark: runs one workload once through the
//! [`Traced`](hog_perfbench::trace::Traced) wrapper with the counting
//! allocator installed. It prints the where-time-goes table to stderr and,
//! on stdout, an `outcome` line and a `layer` line of per-layer values.
//! `hog-perfbench --trace 1` spawns it and reads both.
//!
//! Usage: `hog-perfbench-traced --workload NAME [--seed N] [--workload-seed N]`

use hog_perfbench::trace::{run_traced, CountingAlloc};
use hog_perfbench::{layout_pad, Args};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("hog-perfbench-traced: {e}");
        std::process::exit(2);
    });
    let _pad = layout_pad(args.seed);
    let run = run_traced(args.workload, args.workload_seed);
    eprint!(
        "{} workload seed {}: {} events, where host time went:\n{}",
        args.workload.name(),
        args.workload_seed,
        run.stats.events_handled,
        run.time_table()
    );
    let o = &run.outcome;
    let problem = o.problem.as_deref().unwrap_or("");
    println!(
        "outcome {} {} {} {problem}",
        o.fingerprint, o.jobs, o.failed_jobs
    );
    let values: Vec<String> = run.per_layer().iter().map(f64::to_string).collect();
    println!("layer {}", values.join(" "));
}
