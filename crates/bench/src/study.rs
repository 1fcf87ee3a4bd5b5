//! The shared harness behind the `BENCH_*` study bins (`scale`, `sched`,
//! `elastic`, `failover`, `federation`, `churn`, `replication`): one
//! CLI, one report writer, one `--check` against a committed baseline.
//!
//! Every study bin accepts exactly these flags:
//!
//! * `--smoke`          run the study's small CI grid; the report then
//!   defaults to `BENCH_<study>.smoke.json`, so a smoke run never
//!   overwrites the committed full report
//! * `--seed S`         cluster seed (default 7; schedule seed 1000+S)
//! * `--out PATH`       report path (default `BENCH_<study>.json`)
//! * `--check BASELINE` compare every row with the baseline row of the
//!   same key fields: the outcome fingerprints must be equal and, for
//!   wall-gated studies, wall time within 25 % + 250 ms. A row missing
//!   from the baseline fails.
//! * `--threads N`      run cells N-wide (default: available cores;
//!   every cell is an independent deterministic simulation, so only wall
//!   clocks move with N)
//! * `--verify-threads` rerun at `--threads 1` and assert the two reports
//!   are byte-identical modulo wall-clock fields
//!
//! A malformed command line exits 2 with the usage line; a failed check
//! or study verdict exits 1.

use crate::report::{parse_rows, Group, Report, Row, Value};
use std::str::FromStr;

/// `--check` wall gate: a row regresses when its wall time exceeds the
/// baseline's by more than this fraction…
const WALL_GATE_FRAC: f64 = 0.25;
/// …plus this absolute timer-noise floor.
const WALL_GATE_FLOOR_MS: u64 = 250;

/// A benchmark study: its grid, how its rows are keyed and its pass bar.
pub struct Study {
    /// The `bench` header, and the default report `BENCH_<name>.json`.
    pub name: &'static str,
    /// Header fields written after `seed`.
    pub header: &'static [(&'static str, u64)],
    /// Fields that identify a cell across reports; rows lacking any of
    /// them (e.g. federation's verdicts) are not cells.
    pub keys: &'static [&'static str],
    /// Whether `--check` also gates wall time.
    pub wall_gated: bool,
    /// Run the grid `threads`-wide (seed, smoke, threads) and return the
    /// report's groups in write order.
    pub sweep: fn(u64, bool, usize) -> Vec<Group>,
    /// Print the study's verdict on a finished report and return whether
    /// it passes (`smoke` says the grid was the smoke grid).
    pub verdict: fn(&Report, bool) -> bool,
}

/// The parsed study command line.
#[derive(Clone, Debug, PartialEq)]
struct Cli {
    /// `--smoke`: run the small CI grid.
    smoke: bool,
    /// `--seed S`.
    seed: u64,
    /// `--out PATH`, defaulted from the study name and `--smoke`.
    out: String,
    /// `--check BASELINE`.
    check: Option<String>,
    /// `--threads N` (≥ 1).
    threads: usize,
    /// `--verify-threads`.
    verify_threads: bool,
}

/// The study usage line.
fn usage(study: &str) -> String {
    format!(
        "usage: {study} [--smoke] [--seed S] [--out PATH] [--check BASELINE] [--threads N] [--verify-threads]"
    )
}

/// The value following `flag`, rejecting a missing one (end of the
/// arguments, or another flag in its place).
fn flag_text<'a>(flag: &str, value: Option<&'a String>) -> Result<&'a str, String> {
    match value {
        Some(v) if !v.starts_with("--") => Ok(v),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// The number following `flag`, rejecting a missing or unparsable one.
pub(crate) fn flag_number<T: FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let text = flag_text(flag, value)?;
    text.parse()
        .map_err(|_| format!("{flag} needs a non-negative integer, got `{text}`"))
}

/// Parse the study flags (`args` without the program name).
fn parse_cli(study: &str, args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        smoke: false,
        seed: 7,
        out: String::new(),
        check: None,
        threads: crate::default_threads(),
        verify_threads: false,
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--verify-threads" => cli.verify_threads = true,
            "--seed" => cli.seed = flag_number(arg, it.next())?,
            "--threads" => cli.threads = flag_number(arg, it.next())?,
            "--out" => out = Some(flag_text(arg, it.next())?.to_string()),
            "--check" => cli.check = Some(flag_text(arg, it.next())?.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    cli.out = out.unwrap_or_else(|| {
        let smoke = if cli.smoke { ".smoke" } else { "" };
        format!("BENCH_{study}{smoke}.json")
    });
    Ok(cli)
}

/// Whether `row` is a cell of a study keyed by `keys`.
fn is_cell(row: &Row, keys: &[&str]) -> bool {
    keys.iter().all(|k| row.get(k).is_some())
}

/// Compare every cell of `report` with the `baseline` cell of equal key
/// fields: `Ok(line)` when it passes, `Err(line)` when its fingerprint
/// changed, its wall time regressed (wall-gated studies only) or the
/// baseline has no such cell.
fn check_rows(
    report: &Report,
    baseline: &[Row],
    keys: &[&str],
    wall_gated: bool,
) -> Vec<Result<String, String>> {
    report
        .rows()
        .filter(|row| is_cell(row, keys))
        .map(|row| {
            let id = keys
                .iter()
                .map(|k| format!("{k}={}", row.field_text(k)))
                .collect::<Vec<_>>()
                .join(" ");
            let Some(base) = baseline
                .iter()
                .find(|b| keys.iter().all(|k| b.get(k) == row.get(k)))
            else {
                return Err(format!("  check {id}: not in the baseline — MISSING"));
            };
            if base.get("fingerprint") != row.get("fingerprint") {
                return Err(format!(
                    "  check {id}: fingerprint {} != baseline {} — OUTCOME CHANGED",
                    row.field_text("fingerprint"),
                    base.field_text("fingerprint")
                ));
            }
            if !wall_gated {
                return Ok(format!("  check {id}: fingerprint matches — ok"));
            }
            let wall = row.int("wall_ms");
            let Some(&Value::Int(base_ms)) = base.get("wall_ms") else {
                return Err(format!("  check {id}: baseline has no wall_ms — MISSING"));
            };
            let limit = base_ms + (base_ms as f64 * WALL_GATE_FRAC) as u64 + WALL_GATE_FLOOR_MS;
            let line = format!(
                "  check {id}: fingerprint matches, {wall}ms vs baseline {base_ms}ms (limit {limit}ms)"
            );
            if wall > limit {
                Err(format!("{line} — REGRESSED"))
            } else {
                Ok(format!("{line} — ok"))
            }
        })
        .collect()
}

impl Row {
    /// A field's written text, without the quotes of a string.
    fn field_text(&self, name: &str) -> String {
        match self.get(name) {
            Some(Value::Str(s)) => s.clone(),
            Some(v) => v.to_string(),
            None => "?".into(),
        }
    }
}

impl Study {
    /// Run the sweep `threads`-wide and assemble the report.
    fn report(&self, cli: &Cli, threads: usize) -> Report {
        let mut header = Row::new()
            .with("bench", self.name)
            .with("workload", "facebook_truncated")
            .with("seed", cli.seed);
        for &(name, value) in self.header {
            header = header.with(name, value);
        }
        let report = Report {
            header,
            groups: (self.sweep)(cli.seed, cli.smoke, threads),
        };
        for row in report.rows().filter(|row| is_cell(row, self.keys)) {
            assert!(
                row.get("wall_ms").is_some() && row.get("fingerprint").is_some(),
                "{}: every cell needs wall_ms and fingerprint: {row}",
                self.name
            );
        }
        report
    }
}

/// The `main` of a study bin: parse the CLI, sweep, print every row,
/// write the report, then run `--verify-threads`, `--check` and the
/// study verdict, exiting 1 if either of the last two fails.
pub fn run_study(study: &Study) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(study.name, &args).unwrap_or_else(|e| {
        eprintln!("{}: {e}\n{}", study.name, usage(study.name));
        std::process::exit(2)
    });
    // Read the baseline before sweeping, so a bad path fails at once.
    let baseline = cli.check.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("{}: cannot read baseline {path}: {e}", study.name);
            std::process::exit(2)
        });
        (path, parse_rows(&text))
    });
    println!(
        "{}: seed {}, {} thread(s){}",
        study.name,
        cli.seed,
        cli.threads,
        if cli.smoke { ", smoke grid" } else { "" }
    );
    let report = study.report(&cli, cli.threads);
    for (group, rows) in &report.groups {
        println!("  -- {group} --");
        for row in rows {
            println!("  {row}");
        }
    }
    let json = report.to_json();
    std::fs::write(&cli.out, &json).unwrap_or_else(|e| panic!("cannot write {}: {e}", cli.out));
    println!("wrote {}", cli.out);

    if cli.verify_threads {
        let serial = study.report(&cli, 1).to_json();
        crate::assert_threads_identical(study.name, &json, &serial);
    }

    let mut ok = true;
    if let Some((path, rows)) = &baseline {
        let results = check_rows(&report, rows, study.keys, study.wall_gated);
        for line in &results {
            match line {
                Ok(l) | Err(l) => println!("{l}"),
            }
        }
        let passed = results.iter().filter(|r| r.is_ok()).count();
        println!("checked {passed}/{} rows against {path}", results.len());
        ok &= !results.is_empty() && passed == results.len();
    }
    ok &= (study.verdict)(&report, cli.smoke);
    if !ok {
        eprintln!(
            "{}: --check or the study verdict failed (see above)",
            study.name
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_defaults_and_flags() {
        let cli = parse_cli("scale", &[]).unwrap();
        assert_eq!(
            (cli.smoke, cli.seed, cli.out.as_str()),
            (false, 7, "BENCH_scale.json")
        );
        assert!(cli.threads >= 1 && cli.check.is_none() && !cli.verify_threads);
        let cli = parse_cli(
            "churn",
            &args("--smoke --seed 10 --threads 3 --verify-threads --check base.json"),
        )
        .unwrap();
        assert_eq!(cli.out, "BENCH_churn.smoke.json");
        assert_eq!((cli.seed, cli.threads), (10, 3));
        assert_eq!(cli.check.as_deref(), Some("base.json"));
        assert!(cli.verify_threads);
        let cli = parse_cli("churn", &args("--smoke --out x.json")).unwrap();
        assert_eq!(cli.out, "x.json");
    }

    #[test]
    fn cli_rejects_malformed_input() {
        for bad in [
            "--smok --check BENCH_scale.baseline.json",
            "--threads abc",
            "--threads 0",
            "--threads",
            "--seed x",
            "--seed -1",
            "--out",
            "--check --smoke",
            "--wave 8",
            "--ablation",
            "extra",
        ] {
            assert!(parse_cli("scale", &args(bad)).is_err(), "accepted `{bad}`");
        }
    }

    fn cell(key: u64, wall: u64, fp: &str) -> Row {
        Row::new()
            .with("nodes", key)
            .with("wall_ms", wall)
            .with("fingerprint", fp)
    }

    fn report(rows: Vec<Row>) -> Report {
        Report {
            header: Row::new().with("bench", "t"),
            groups: vec![
                ("tiers", rows),
                ("verdicts", vec![Row::new().with("ok", true)]),
            ],
        }
    }

    fn passes(run: &[Row], base: &[Row], gated: bool) -> bool {
        let results = check_rows(&report(run.to_vec()), base, &["nodes"], gated);
        assert_eq!(
            results.len(),
            run.len(),
            "one line per cell, none for verdicts"
        );
        results.iter().all(|r| r.is_ok())
    }

    #[test]
    fn check_matrix() {
        let base = [
            cell(100, 1000, "aaaaaaaaaaaaaaaa"),
            cell(300, 2000, "bbbbbbbbbbbbbbbb"),
        ];
        // Identical rows pass, gated or not.
        assert!(passes(&base, &base, true));
        assert!(passes(&base[..1], &base, true));
        // A changed fingerprint fails.
        assert!(!passes(
            &[cell(100, 1000, "cccccccccccccccc")],
            &base,
            false
        ));
        // A row missing from the baseline fails.
        assert!(!passes(
            &[cell(1101, 1000, "aaaaaaaaaaaaaaaa")],
            &base,
            false
        ));
        // Wall time: the limit is 1000 + 250 + 250 = 1500 ms.
        assert!(passes(&[cell(100, 1500, "aaaaaaaaaaaaaaaa")], &base, true));
        assert!(!passes(&[cell(100, 1501, "aaaaaaaaaaaaaaaa")], &base, true));
        assert!(passes(&[cell(100, 1501, "aaaaaaaaaaaaaaaa")], &base, false));
        // Baseline rows parsed from text behave the same.
        let text = report(base.to_vec()).to_json();
        assert!(passes(&base, &parse_rows(&text), true));
    }
}
