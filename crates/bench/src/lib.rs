//! Benchmark harness for the HOG reproduction.
//!
//! Binaries (see `src/bin/`):
//!
//! * `scale`, `sched`, `elastic`, `failover`, `federation`, `churn`,
//!   `replication` — the regression-gated studies. Each writes a
//!   `BENCH_<study>.json` report and shares one CLI, report writer,
//!   baseline `--check` and `main` ([`study`]); a bin holds only
//!   its grid, its cell runner and its verdict.
//! * `tables` — regenerate Tables I, II and III.
//! * `fig4` — the equivalent-performance sweep (Figure 4).
//! * `fig5` — node-fluctuation traces + Table IV areas.
//! * `locality` — map locality vs replication factor (§IV-D).
//! * `ablations` — experiments X1–X7 and X10 from DESIGN.md.
//! * `probe` — quick calibration probe (single runs).
//! * `trace` — traced runs and metric diffs (hog-obs).
//!
//! Criterion microbenches live in `benches/`.

#![warn(missing_docs)]

pub mod report;
pub mod study;

pub use report::{response_secs, Group, Report, Row};
pub use study::{run_study, Study};

use hog_chaos::{Fault, FaultPlan};
use hog_core::driver::RunResult;
use hog_sim_core::SimDuration;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Resolve the output directory for benchmark artifacts (CSV files),
/// creating it if needed. Defaults to `target/paper-results`, overridable
/// via `HOG_RESULTS_DIR`.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("HOG_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/paper-results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// 64-bit FNV-1a of `canon`, as 16 lowercase hex digits.
pub fn fnv1a_hex(canon: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canon.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// FNV-1a over the outcome-defining facts of a run: anything the
/// simulation *produces* (job completion instants, locality, replication
/// counters) but nothing about how the host computed it — deliberately
/// excluding the engine event count, which legitimately shrinks when the
/// mediator dedups redundant NetTick arms without changing any outcome.
///
/// Shared by every study and the repository benchmark; the canonical
/// string (and therefore every committed baseline fingerprint) must never
/// change.
pub fn outcome_fingerprint(r: &RunResult) -> String {
    let mut canon = String::new();
    let _ = write!(
        canon,
        "resp={:?};ok={};",
        r.response_time.map(|d| d.as_millis()),
        r.jobs_succeeded()
    );
    for j in &r.jobs {
        let _ = write!(
            canon,
            "j{}={:?}/{};",
            j.index,
            j.finished.map(|t| t.as_millis()),
            j.succeeded
        );
    }
    let _ = write!(
        canon,
        "jt={},{},{},{},{};nn={},{},{},{}",
        r.jt.node_local,
        r.jt.site_local,
        r.jt.remote,
        r.jt.speculative,
        r.jt.failures,
        r.nn_counters.0,
        r.nn_counters.1,
        r.nn_counters.2,
        r.nn_counters.3
    );
    fnv1a_hex(&canon)
}

/// X11: one 45-victim `PreemptBurst` every 5 minutes for the first ~90
/// minutes, alternating between the UCSDT2 and AGLT2 sites, so each site
/// is hit every 10 minutes — within a half-life (600 s) of the previous
/// hit, which is what lets the failure-aware policy's reliability score
/// stay above threshold between bursts. Concentrating every burst on the
/// same two sites is what gives a history-keeping scheduler something to
/// learn. Used by the sched and elastic studies.
pub fn x11_burst_plan() -> FaultPlan {
    const SITES: [&str; 2] = ["UCSDT2", "AGLT2"];
    (0..18u64).fold(FaultPlan::new(), |plan, k| {
        plan.at(
            SimDuration::from_secs(300 + k * 300),
            Fault::PreemptBurst {
                site: SITES[(k % 2) as usize].to_string(),
                count: 45,
            },
        )
    })
}

/// Run `f` and return its result with the host wall time in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let wall = Instant::now();
    let out = f();
    (out, wall.elapsed().as_millis() as u64)
}

/// Parse `--flag N` from `args` with a default when the flag is absent.
/// A missing or unparsable value exits 2 naming the flag.
pub fn arg_usize(args: &[String], flag: &str, default: usize) -> usize {
    match args.iter().position(|a| a == flag) {
        None => default,
        Some(i) => study::flag_number(flag, args.get(i + 1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        }),
    }
}

/// Default worker count for bench sweeps: the available cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The `--threads N` argument, defaulting to [`default_threads`].
pub fn arg_threads(args: &[String]) -> usize {
    arg_usize(args, "--threads", default_threads()).max(1)
}

/// Strip host-dependent measurements from a report: `"wall_ms": 123` →
/// `"wall_ms": 0` (likewise the derived `events_per_sec`). Everything
/// else in the bench JSON is simulation outcome, which is deterministic —
/// so two reports of the same sweep must be byte-identical after this,
/// whatever `--threads`.
pub fn zero_wall(json: &str) -> String {
    let mut out = json.to_string();
    for key in ["\"wall_ms\": ", "\"events_per_sec\": "] {
        let mut next = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(i) = rest.find(key) {
            let start = i + key.len();
            next.push_str(&rest[..start]);
            next.push('0');
            let tail = &rest[start..];
            let digits = tail
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(tail.len());
            rest = &tail[digits..];
        }
        next.push_str(rest);
        out = next;
    }
    out
}

/// `--verify-threads` support: assert the report produced at `--threads
/// N` is byte-identical (modulo wall clocks, via [`zero_wall`]) to the
/// 1-thread rerun's.
pub fn assert_threads_identical(bench: &str, parallel_json: &str, serial_json: &str) {
    assert!(
        zero_wall(parallel_json) == zero_wall(serial_json),
        "{bench}: parallel report differs from --threads 1 rerun"
    );
    println!("{bench}: --verify-threads ok (report identical to --threads 1)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["x", "--threads", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_usize(&args, "--threads", 3), 7);
        assert_eq!(arg_usize(&args, "--seeds", 3), 3);
    }

    #[test]
    fn flag_values_must_be_present_and_numeric() {
        let v = |s: &str| s.to_string();
        assert_eq!(study::flag_number::<usize>("--n", Some(&v("4"))), Ok(4));
        assert!(study::flag_number::<usize>("--n", None).is_err());
        assert!(study::flag_number::<usize>("--n", Some(&v("abc"))).is_err());
        assert!(study::flag_number::<usize>("--n", Some(&v("--threads"))).is_err());
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("a"), "af63dc4c8601ec8c");
    }
}
