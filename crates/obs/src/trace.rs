//! Structured trace events and the [`Tracer`] handle shared by every
//! layer of the simulation, recording into one in-memory recorder.
//!
//! The design constraint is determinism: emitting a trace event must never
//! consume RNG state, schedule a simulation event, or otherwise perturb the
//! run. A traced run and an untraced run of the same `(config, seed)` pair
//! produce bit-identical `RunResult`s. The second constraint is cost: with
//! tracing disabled (the default) [`Tracer::emit`] is a single `Option`
//! check and the event-construction closure is never invoked.

use hog_sim_core::SimTime;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Which subsystem emitted an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Cluster orchestration: master ticks, phase changes, pool resizes.
    Core,
    /// Grid substrate: glideins, preemption, site outages.
    Grid,
    /// HDFS: block placement, replication, datanode liveness.
    Hdfs,
    /// MapReduce: jobs, task attempts, speculation, shuffle.
    MapReduce,
    /// Fluid network: flow lifecycle and rate changes.
    Net,
    /// Fault injection and chaos supervision.
    Chaos,
    /// Federation: meta-scheduler routing, cross-pool staging, pool health.
    Fed,
}

impl Layer {
    /// All layers, in display order.
    pub const ALL: [Layer; 7] = [
        Layer::Core,
        Layer::Grid,
        Layer::Hdfs,
        Layer::MapReduce,
        Layer::Net,
        Layer::Chaos,
        Layer::Fed,
    ];

    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Grid => "grid",
            Layer::Hdfs => "hdfs",
            Layer::MapReduce => "mapreduce",
            Layer::Net => "net",
            Layer::Chaos => "chaos",
            Layer::Fed => "fed",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed field value attached to a [`TraceEvent`].
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (ids, counts, bytes).
    U64(u64),
    /// Signed integer (deltas).
    I64(i64),
    /// Floating point (rates, factors).
    F64(f64),
    /// Short free-form text (reasons, names).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured event in the cross-layer trace stream.
///
/// `time` and `seq` are stamped by the recorder at emit time: `time` from
/// the simulation clock the [`Tracer`] was last advanced to, `seq` as a
/// global monotone counter so events within one instant stay causally
/// ordered across layers.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub time: SimTime,
    /// Global emission sequence number (causal order within one instant).
    pub seq: u64,
    /// Emitting subsystem.
    pub layer: Layer,
    /// Event kind, e.g. `"node_start"` or `"repl_order"`.
    pub kind: &'static str,
    /// Key/value payload, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    /// New event of the given layer and kind. Time and sequence number are
    /// filled in by the recorder when the event is emitted.
    pub fn new(layer: Layer, kind: &'static str) -> Self {
        TraceEvent {
            time: SimTime::ZERO,
            seq: 0,
            layer,
            kind,
            fields: Vec::new(),
        }
    }

    /// Attach a field (builder-style).
    pub fn with(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={:>10.3}s seq={:<6} [{:<9}] {}",
            self.time.as_secs_f64(),
            self.seq,
            self.layer,
            self.kind
        )?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// What (if anything) a run records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// No recorder at all; `emit` is a single branch (the default).
    #[default]
    Off,
    /// Flight recorder: keep only the most recent `n` events.
    Ring(usize),
    /// Keep every event for export.
    Full,
}

/// The one recorder behind every enabled [`Tracer`]: events oldest
/// first, bounded to `cap` under [`TraceMode::Ring`] (the oldest is
/// evicted and counted in `dropped`), unbounded under [`TraceMode::Full`].
struct Recorder {
    now: SimTime,
    seq: u64,
    recorded: u64,
    events: VecDeque<TraceEvent>,
    cap: Option<usize>,
    dropped: u64,
}

/// Cheap, cloneable handle through which layers emit events. Clones share
/// one recorder; a disabled tracer (the default) carries no allocation and
/// never invokes the event-construction closure.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Tracer for the given mode (`Off` yields a disabled tracer). A
    /// ring's capacity is clamped to at least one event.
    pub fn new(mode: TraceMode) -> Self {
        let cap = match mode {
            TraceMode::Off => return Tracer::disabled(),
            TraceMode::Ring(cap) => Some(cap.max(1)),
            TraceMode::Full => None,
        };
        Tracer {
            inner: Some(Rc::new(RefCell::new(Recorder {
                now: SimTime::ZERO,
                seq: 0,
                recorded: 0,
                events: VecDeque::with_capacity(cap.unwrap_or(0)),
                cap,
                dropped: 0,
            }))),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Move the recorder clock forward. Called once per dispatched
    /// simulation event by the owning model; layer code never needs it.
    #[inline]
    pub fn advance(&self, now: SimTime) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().now = now;
        }
    }

    /// Emit an event. The closure is only invoked when tracing is enabled,
    /// so field formatting costs nothing on the disabled path.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        let Some(inner) = &self.inner else { return };
        let mut rec = inner.borrow_mut();
        let mut ev = make();
        ev.time = rec.now;
        ev.seq = rec.seq;
        rec.seq += 1;
        rec.recorded += 1;
        if rec.cap == Some(rec.events.len()) {
            rec.events.pop_front();
            rec.dropped += 1;
        }
        rec.events.push_back(ev);
    }

    /// The most recent `n` retained events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            let events = &i.borrow().events;
            let start = events.len().saturating_sub(n);
            events.range(start..).cloned().collect()
        })
    }

    /// Every retained event, oldest first.
    pub fn retained(&self) -> Vec<TraceEvent> {
        self.tail(usize::MAX)
    }

    /// Total events emitted (including any evicted from a ring).
    pub fn events_recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().recorded)
    }

    /// Events evicted by bounded retention.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().dropped)
    }

    /// Snapshot the recorder into a plain-data [`TraceLog`] (None when
    /// disabled). The log is `Send`, unlike the tracer itself.
    pub fn take_log(&self) -> Option<TraceLog> {
        self.inner.as_ref().map(|i| {
            let rec = i.borrow();
            TraceLog {
                events: rec.events.iter().cloned().collect(),
                recorded: rec.recorded,
                dropped: rec.dropped,
            }
        })
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("recorded", &self.events_recorded())
            .finish()
    }
}

/// Plain-data snapshot of a run's trace: the retained events plus totals.
/// This is what crosses thread boundaries in sweep results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceLog {
    /// Retained events, oldest first (the full stream under
    /// [`TraceMode::Full`], the tail under [`TraceMode::Ring`]).
    pub events: Vec<TraceEvent>,
    /// Total events emitted over the run.
    pub recorded: u64,
    /// Events evicted by bounded retention.
    pub dropped: u64,
}

/// How many flight-recorder events a chaos failure dump appends.
pub const DUMP_TAIL: usize = 30;

/// Observability knobs carried inside a cluster configuration. The default
/// records nothing and registers no metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsOptions {
    /// Trace recording mode.
    pub trace: TraceMode,
    /// Register and snapshot the per-layer metrics registry.
    pub metrics: bool,
}

impl ObsOptions {
    /// True when any recording is enabled.
    pub fn active(&self) -> bool {
        self.trace != TraceMode::Off || self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: &'static str) -> TraceEvent {
        TraceEvent::new(Layer::Hdfs, kind).with("block", 7u64)
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Tracer::disabled();
        let mut built = false;
        t.emit(|| {
            built = true;
            ev("x")
        });
        assert!(!built);
        assert!(!t.enabled());
        assert_eq!(t.events_recorded(), 0);
        assert!(t.take_log().is_none());
    }

    #[test]
    fn full_mode_stamps_time_and_seq() {
        let t = Tracer::new(TraceMode::Full);
        t.advance(SimTime::from_secs(5));
        t.emit(|| ev("a"));
        t.emit(|| ev("b"));
        t.advance(SimTime::from_secs(9));
        t.emit(|| ev("c"));
        let log = t.take_log().unwrap();
        assert_eq!(log.recorded, 3);
        assert_eq!(log.dropped, 0);
        let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(log.events[0].time, SimTime::from_secs(5));
        assert_eq!(log.events[2].time, SimTime::from_secs(9));
        assert_eq!(log.events[0].field("block"), Some(&FieldValue::U64(7)));
    }

    #[test]
    fn ring_mode_keeps_most_recent() {
        let t = Tracer::new(TraceMode::Ring(3));
        for _ in 0..10 {
            t.emit(|| ev("tick"));
        }
        let log = t.take_log().unwrap();
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.recorded, 10);
        assert_eq!(log.dropped, 7);
        let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn tail_returns_last_n_oldest_first() {
        let t = Tracer::new(TraceMode::Full);
        for _ in 0..5 {
            t.emit(|| ev("tick"));
        }
        let tail = t.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 3);
        assert_eq!(tail[1].seq, 4);
        assert_eq!(t.tail(100).len(), 5);
    }

    #[test]
    fn clones_share_one_recorder() {
        let t = Tracer::new(TraceMode::Full);
        let t2 = t.clone();
        t.emit(|| ev("a"));
        t2.emit(|| ev("b"));
        assert_eq!(t.events_recorded(), 2);
        assert_eq!(t.retained()[1].seq, 1);
    }

    #[test]
    fn obs_options_default_is_off() {
        let o = ObsOptions::default();
        assert!(!o.active());
        assert_eq!(o.trace, TraceMode::Off);
        assert!(!o.metrics);
    }

    #[test]
    fn event_display_is_readable() {
        let t = Tracer::new(TraceMode::Full);
        t.advance(SimTime::from_secs(305));
        t.emit(|| TraceEvent::new(Layer::Hdfs, "repl_order").with("block", 17u64));
        let s = t.retained()[0].to_string();
        assert!(s.contains("[hdfs"), "{s}");
        assert!(s.contains("repl_order block=17"), "{s}");
    }
}
