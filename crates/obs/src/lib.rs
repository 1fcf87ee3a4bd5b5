//! Cross-layer observability for the HOG simulation.
//!
//! Three pieces, all deterministic and all off by default:
//!
//! * [`trace`] — structured [`TraceEvent`]s emitted by every layer through
//!   a shared [`Tracer`] handle, which records nothing
//!   ([`TraceMode::Off`]), the most recent events as a bounded
//!   flight recorder ([`TraceMode::Ring`]), or the full stream
//!   ([`TraceMode::Full`]).
//! * [`export`] — byte-deterministic JSONL/CSV exporters plus the
//!   flight-recorder tail rendering appended to chaos failure dumps.
//! * [`registry`] — a per-layer [`MetricsRegistry`] of named
//!   gauges/counters (snapshotted into `StepSeries` each master tick) and
//!   histograms, with [`diff_registries`] to rank the most divergent series
//!   between two runs.
//!
//! The overhead contract: tracing never consumes RNG state and never
//! schedules simulation events, so enabling it cannot change a
//! `RunResult`; with everything off, the per-emit cost is one branch and
//! the event-construction closure is never run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod registry;
pub mod trace;

pub use export::{render_tail, to_csv, to_jsonl};
pub use registry::{
    diff_registries, render_diff, HistogramId, MetricId, MetricsRegistry, SeriesDivergence,
};
pub use trace::{
    FieldValue, Layer, ObsOptions, TraceEvent, TraceLog, TraceMode, Tracer, DUMP_TAIL,
};
