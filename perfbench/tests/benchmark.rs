//! The benchmark's own tests: the traced wrapper changes nothing, the
//! trace accounts for every event and every host second, and the metric
//! catalogue, `BENCHMARK.json` and the command's output agree.

use hog_perfbench::trace::{run_traced, Kind, Layer};
use hog_perfbench::{Runs, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};
use std::process::Command;

#[test]
fn traced_run_is_transparent_and_accounts_for_every_event() {
    let w = Workload::Paper100;
    let mut untraced = Runs::default();
    assert!(untraced.run(w, DEFAULT_SEED));
    let traced = run_traced(w, DEFAULT_SEED);
    let pin = w.pin(DEFAULT_SEED).expect("seed 7 is pinned");
    assert_eq!(untraced.outcomes[0].problem, None);
    assert_eq!(untraced.outcomes[0].fingerprint, pin);
    assert_eq!(
        traced.outcome, untraced.outcomes[0],
        "the wrapper changed the outcome"
    );

    let dispatched: u64 = traced.kinds.iter().map(|k| k.events).sum();
    assert_eq!(dispatched, traced.stats.events_handled);
    let batched: u64 = traced.kinds.iter().map(|k| k.batches).sum();
    assert_eq!(batched, traced.kinds[Kind::Heartbeat as usize].batches);

    let self_s = traced.layer_s(Layer::SimCore);
    assert!(self_s > 0.0, "engine self time {self_s}");
    let total: f64 = Layer::ALL.iter().map(|&l| traced.layer_s(l)).sum();
    assert!(
        (total - traced.wall_s).abs() < 1e-9,
        "{total} vs {}",
        traced.wall_s
    );
}

#[test]
fn every_kind_maps_to_a_dispatch_layer() {
    for (i, k) in Kind::ALL.into_iter().enumerate() {
        assert_eq!(k as usize, i, "Kind::ALL is indexed by discriminant");
        assert_ne!(
            k.layer(),
            Layer::SimCore,
            "{k:?}: sim-core time is outside dispatches"
        );
    }
}

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_unique_and_well_formed() {
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "duplicate metric names");
    for (name, unit) in all {
        assert!(well_formed_name(name), "bad metric name {name}");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit} of {name}"
        );
    }
}

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`, in
/// order. The file keeps one metric object per line.
fn listed(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("unterminated list")];
    let field = |line: &str, key: &str| {
        let pat = format!("\"{key}\": \"");
        let from = line.find(&pat)? + pat.len();
        Some(line[from..from + line[from..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("read BENCHMARK.json")
}

fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
    catalogue
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let json = benchmark_json();
    assert_eq!(listed(&json, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), owned(PER_LAYER));
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\"", w.name())),
            "{w:?}"
        );
    }
}

#[test]
fn command_prints_every_listed_metric_with_its_unit() {
    let json = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_hog-perfbench"))
            .args([
                "--workload",
                "paper_100",
                "--seconds",
                "0",
                "--trace",
                trace,
            ])
            .output()
            .expect("run hog-perfbench");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true, "), "{last}");
        for (name, unit) in listed(&json, section) {
            let head = format!("\"{name}\": {{\"value\": ");
            let at = last.find(&head).unwrap_or_else(|| panic!("{name} missing")) + head.len();
            let rest = &last[at..];
            let (value, tail) = rest.split_once(',').expect("value then unit");
            assert!(value.parse::<f64>().is_ok(), "{name}: {value}");
            assert!(
                tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                "{name}"
            );
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_hog-perfbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("run hog-perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
