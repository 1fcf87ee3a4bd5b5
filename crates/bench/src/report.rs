//! The `BENCH_*.json` report format: rows of named values, written as
//! flat one-line JSON objects under a small header, and read back line
//! by line (no JSON dependency in the workspace).
//!
//! Layout, byte for byte (committed reports and [`crate::zero_wall`]
//! depend on it):
//!
//! ```text
//! {
//!   "bench": "scale",
//!   "workload": "facebook_truncated",
//!   "seed": 7,
//!   "tiers": [
//!     {"nodes": 100, "wall_ms": 952, ..., "fingerprint": "…"},
//!     {"nodes": 300, "wall_ms": 1179, ..., "fingerprint": "…"}
//!   ],
//!   "ablation": [
//!   ]
//! }
//! ```

use hog_core::driver::RunResult;
use std::fmt;

/// One field value of a report row.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An unsigned integer.
    Int(u64),
    /// A float written with a fixed number of decimals.
    Float(f64, usize),
    /// A string, written between quotes without escaping (labels only).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// JSON `null` (an absent optional integer).
    Null,
    /// A list of unsigned integers.
    List(Vec<u64>),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v, decimals) => write!(f, "{:.*}", *decimals, v),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => f.write_str("null"),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
        }
    }
}

impl Value {
    /// Parse the JSON text of one flat value, as [`Value`]'s `Display`
    /// writes it; `None` when it is not one.
    fn parse(text: &str) -> Option<Value> {
        Some(match text {
            "null" => Value::Null,
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ if text.starts_with('"') => {
                Value::Str(text.strip_prefix('"')?.strip_suffix('"')?.to_string())
            }
            _ if text.starts_with('[') => Value::List(
                text.strip_prefix('[')?
                    .strip_suffix(']')?
                    .split(',')
                    .filter(|v| !v.trim().is_empty())
                    .map(|v| v.trim().parse().ok())
                    .collect::<Option<_>>()?,
            ),
            _ => match text.parse() {
                Ok(v) => Value::Int(v),
                Err(_) => Value::Float(
                    text.parse().ok()?,
                    text.split_once('.').map_or(0, |(_, d)| d.len()),
                ),
            },
        })
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v.into())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Option<u64>> for Value {
    fn from(v: Option<u64>) -> Self {
        v.map_or(Value::Null, Value::Int)
    }
}

impl From<Vec<u64>> for Value {
    fn from(v: Vec<u64>) -> Self {
        Value::List(v)
    }
}

/// One report row: named values in write order. Study cells carry
/// `wall_ms` (host time, the only field allowed to differ between two
/// runs of the same cell) and a 16-hex `fingerprint` of the simulated
/// outcome.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row(Vec<(String, Value)>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// Append a field.
    pub fn with(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.0.push((name.to_string(), value.into()));
        self
    }

    /// Append a float written with `decimals` decimals.
    pub fn float(self, name: &str, value: f64, decimals: usize) -> Self {
        self.with(name, Value::Float(value, decimals))
    }

    /// Append the run-level outcome every single-cluster study reports:
    /// workload response (makespan), mean job response, and completed
    /// vs submitted jobs.
    pub fn outcome(self, r: &RunResult) -> Self {
        self.float("response_secs", response_secs(r), 3)
            .float("mean_job_secs", r.mean_job_response_secs(), 3)
            .with("jobs_ok", r.jobs_succeeded())
            .with("jobs", r.jobs.len())
    }

    /// The field named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn field(&self, name: &str) -> &Value {
        self.get(name)
            .unwrap_or_else(|| panic!("report row has no `{name}` field: {self}"))
    }

    /// A numeric field as `f64` (full precision, not the written
    /// decimals). Panics if the field is absent or not a number.
    pub fn num(&self, name: &str) -> f64 {
        match self.field(name) {
            Value::Int(v) => *v as f64,
            Value::Float(v, _) => *v,
            other => panic!("`{name}` is not a number: {other}"),
        }
    }

    /// An integer field. Panics if the field is absent or not an integer.
    pub fn int(&self, name: &str) -> u64 {
        match self.field(name) {
            Value::Int(v) => *v,
            other => panic!("`{name}` is not an integer: {other}"),
        }
    }

    /// A string field. Panics if the field is absent or not a string.
    pub fn text(&self, name: &str) -> &str {
        match self.field(name) {
            Value::Str(s) => s,
            other => panic!("`{name}` is not a string: {other}"),
        }
    }

    /// A boolean field. Panics if the field is absent or not a boolean.
    pub fn flag(&self, name: &str) -> bool {
        match self.field(name) {
            Value::Bool(b) => *b,
            other => panic!("`{name}` is not a boolean: {other}"),
        }
    }

    /// Parse one report line written by this row's `Display`; `None`
    /// for any line that is not a flat one-line object.
    fn parse(line: &str) -> Option<Row> {
        let body = line.strip_prefix('{')?.strip_suffix('}')?;
        let (mut quoted, mut depth, mut start) = (false, 0, 0);
        let mut fields = Vec::new();
        for (i, c) in body.char_indices() {
            match c {
                '"' => quoted = !quoted,
                '[' if !quoted => depth += 1,
                ']' if !quoted => depth -= 1,
                ',' if !quoted && depth == 0 => {
                    fields.push(&body[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        fields.push(&body[start..]);
        let mut row = Row::new();
        for field in fields {
            let (name, value) = field.trim().strip_prefix('"')?.split_once("\": ")?;
            row.0.push((name.to_string(), Value::parse(value.trim())?));
        }
        Some(row)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (name, value)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "\"{name}\": {value}")?;
        }
        f.write_str("}")
    }
}

/// Workload response (makespan) in seconds, 0 when it never finished.
pub fn response_secs(r: &RunResult) -> f64 {
    r.response_time.map(|d| d.as_secs_f64()).unwrap_or(0.0)
}

/// A named group of rows (`tiers`, `cells`, `ablation`, ...).
pub type Group = (&'static str, Vec<Row>);

/// A whole study report: header fields, then named groups of rows.
#[derive(Clone, Debug)]
pub struct Report {
    /// `bench`, `workload`, `seed` and any study-specific header fields.
    pub(crate) header: Row,
    /// The row groups, in write order.
    pub(crate) groups: Vec<Group>,
}

impl Report {
    /// The rows of group `name` (empty if there is no such group).
    pub fn group(&self, name: &str) -> &[Row] {
        self.groups
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[][..], |(_, rows)| rows.as_slice())
    }

    /// Every row of every group, in write order.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.groups.iter().flat_map(|(_, rows)| rows)
    }

    /// The report as the committed `BENCH_*.json` layout.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        for (name, value) in &self.header.0 {
            s.push_str(&format!("  \"{name}\": {value},\n"));
        }
        for (g, (name, rows)) in self.groups.iter().enumerate() {
            s.push_str(&format!("  \"{name}\": [\n"));
            for (i, row) in rows.iter().enumerate() {
                s.push_str(&format!("    {row}"));
                s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
            }
            s.push_str(if g + 1 < self.groups.len() {
                "  ],\n"
            } else {
                "  ]\n"
            });
        }
        s.push_str("}\n");
        s
    }
}

/// Every row of a report written by [`Report::to_json`], in file order
/// (header fields are not rows and are skipped).
pub(crate) fn parse_rows(text: &str) -> Vec<Row> {
    text.lines()
        .filter_map(|line| Row::parse(line.trim().trim_end_matches(',')))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let cell = |label: &str, wall: u64, crash: Option<u64>| {
            Row::new()
                .with("label", label)
                .with("crash_at", crash)
                .with("wall_ms", wall)
                .float("overhead_secs", -12.5, 3)
                .float("fairness", 0.5, 4)
                .with("passed", true)
                .with("routed", vec![60u64, 28])
                .with("fingerprint", "0123456789abcdef")
        };
        Report {
            header: Row::new()
                .with("bench", "demo")
                .with("workload", "facebook_truncated")
                .with("seed", 7u64),
            groups: vec![
                (
                    "cells",
                    vec![cell("a", 12, None), cell("b", 3400, Some(600))],
                ),
                ("ablation", vec![]),
            ],
        }
    }

    #[test]
    fn writer_keeps_the_committed_layout() {
        let json = sample().to_json();
        assert_eq!(
            json,
            "{\n  \"bench\": \"demo\",\n  \"workload\": \"facebook_truncated\",\n  \"seed\": 7,\n  \"cells\": [\n    \
             {\"label\": \"a\", \"crash_at\": null, \"wall_ms\": 12, \"overhead_secs\": -12.500, \"fairness\": 0.5000, \"passed\": true, \"routed\": [60, 28], \"fingerprint\": \"0123456789abcdef\"},\n    \
             {\"label\": \"b\", \"crash_at\": 600, \"wall_ms\": 3400, \"overhead_secs\": -12.500, \"fairness\": 0.5000, \"passed\": true, \"routed\": [60, 28], \"fingerprint\": \"0123456789abcdef\"}\n  \
             ],\n  \"ablation\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn parsing_what_the_writer_wrote_recovers_every_field() {
        let report = sample();
        let parsed = parse_rows(&report.to_json());
        assert_eq!(parsed.len(), 2);
        for (row, back) in report.rows().zip(&parsed) {
            assert_eq!(back.text("label"), row.text("label"));
            assert_eq!(back.int("wall_ms"), row.int("wall_ms"));
            assert_eq!(back.text("fingerprint"), row.text("fingerprint"));
            assert_eq!(back.get("crash_at"), row.get("crash_at"));
            assert_eq!(back.get("routed"), row.get("routed"));
            // Floats come back at their written precision, and re-write
            // to the same text.
            assert_eq!(back.to_string(), row.to_string());
        }
    }

    /// Every committed baseline, its key fields and its row count.
    const BASELINES: [(&str, &str, &[&str], usize); 7] = [
        (
            "scale",
            include_str!("../../../BENCH_scale.baseline.json"),
            &["nodes"],
            5,
        ),
        (
            "sched",
            include_str!("../../../BENCH_sched.baseline.json"),
            &["policy", "nodes", "churn"],
            11,
        ),
        (
            "elastic",
            include_str!("../../../BENCH_elastic.baseline.json"),
            &["label"],
            6,
        ),
        (
            "failover",
            include_str!("../../../BENCH_failover.baseline.json"),
            &["label"],
            10,
        ),
        (
            "federation",
            include_str!("../../../BENCH_federation.baseline.json"),
            &["pools", "policy", "shared_pct"],
            9,
        ),
        (
            "churn",
            include_str!("../../../BENCH_churn.baseline.json"),
            &["policy", "churn", "workload", "seed"],
            16,
        ),
        (
            "replication",
            include_str!("../../../BENCH_replication.baseline.json"),
            &["policy", "seed"],
            9,
        ),
    ];

    #[test]
    fn every_committed_baseline_parses_to_its_rows() {
        let mut total = 0;
        for (study, text, keys, expected) in BASELINES {
            let keyed: Vec<Row> = parse_rows(text)
                .into_iter()
                .filter(|r| keys.iter().all(|k| r.get(k).is_some()))
                .collect();
            assert_eq!(keyed.len(), expected, "{study}: keyed rows");
            for row in &keyed {
                let fp = row.text("fingerprint");
                assert!(
                    fp.len() == 16 && fp.bytes().all(|b| b.is_ascii_hexdigit()),
                    "{study}: bad fingerprint {fp}"
                );
                row.int("wall_ms");
                // Every committed line re-writes to itself.
                assert!(text.contains(&row.to_string()), "{study}: {row}");
            }
            total += keyed.len();
        }
        assert_eq!(total, 66);
    }
}
