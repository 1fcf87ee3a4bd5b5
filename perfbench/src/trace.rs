//! The traced run: a [`Model`] wrapper over [`Cluster`] that times every
//! dispatch by [`Event`] variant, a counting allocator that attributes
//! allocations to the open dispatch, and the roll-up of both into the
//! per-layer metrics.
//!
//! Spans and samples stay in memory for the whole run and are summarised
//! once it ends.

use crate::{judge, nearest_rank, prepare, Outcome, Prepared, Workload};
use hog_core::driver::{collect_result, RunResult};
use hog_core::event::Event;
use hog_core::Cluster;
use hog_sim_core::engine::{Model, RunStats, Scheduler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// A workspace crate whose host time the trace attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The engine: queue push/pop and everything outside a dispatch.
    SimCore,
    /// The fluid network.
    Net,
    /// The JobTracker and its task state machines.
    MapReduce,
    /// The namenode and datanodes.
    Hdfs,
    /// The mediator's master work.
    Core,
    /// The glidein pool.
    Grid,
}

impl Layer {
    /// Every layer, in metric order.
    pub const ALL: [Layer; 6] = [
        Layer::SimCore,
        Layer::Net,
        Layer::MapReduce,
        Layer::Hdfs,
        Layer::Core,
        Layer::Grid,
    ];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SimCore => "sim-core",
            Layer::Net => "net",
            Layer::MapReduce => "mapreduce",
            Layer::Hdfs => "hdfs",
            Layer::Core => "core",
            Layer::Grid => "grid",
        }
    }
}

/// One dispatch kind per [`Event`] variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Grid,
    NetTick,
    MasterTick,
    Heartbeat,
    DiskCheck,
    MapInputReady,
    MapComputeDone,
    MapSpillDone,
    ReduceSortDone,
    FetchTimeout,
    AttemptDoomed,
    SubmitJob,
    PumpUpload,
    ResizePool,
    BalancerTick,
    Chaos,
    ChaosEnd,
    MasterPromote,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 18;

impl Kind {
    /// Every kind, indexed by `kind as usize`.
    pub const ALL: [Kind; KINDS] = [
        Kind::Grid,
        Kind::NetTick,
        Kind::MasterTick,
        Kind::Heartbeat,
        Kind::DiskCheck,
        Kind::MapInputReady,
        Kind::MapComputeDone,
        Kind::MapSpillDone,
        Kind::ReduceSortDone,
        Kind::FetchTimeout,
        Kind::AttemptDoomed,
        Kind::SubmitJob,
        Kind::PumpUpload,
        Kind::ResizePool,
        Kind::BalancerTick,
        Kind::Chaos,
        Kind::ChaosEnd,
        Kind::MasterPromote,
    ];

    /// The kind of `event`.
    pub fn of(event: &Event) -> Kind {
        match event {
            Event::Grid(_) => Kind::Grid,
            Event::NetTick => Kind::NetTick,
            Event::MasterTick => Kind::MasterTick,
            Event::Heartbeat { .. } => Kind::Heartbeat,
            Event::DiskCheck { .. } => Kind::DiskCheck,
            Event::MapInputReady { .. } => Kind::MapInputReady,
            Event::MapComputeDone { .. } => Kind::MapComputeDone,
            Event::MapSpillDone { .. } => Kind::MapSpillDone,
            Event::ReduceSortDone { .. } => Kind::ReduceSortDone,
            Event::FetchTimeout { .. } => Kind::FetchTimeout,
            Event::AttemptDoomed { .. } => Kind::AttemptDoomed,
            Event::SubmitJob { .. } => Kind::SubmitJob,
            Event::PumpUpload => Kind::PumpUpload,
            Event::ResizePool { .. } => Kind::ResizePool,
            Event::BalancerTick => Kind::BalancerTick,
            Event::Chaos { .. } => Kind::Chaos,
            Event::ChaosEnd { .. } => Kind::ChaosEnd,
            Event::MasterPromote => Kind::MasterPromote,
        }
    }

    /// The layer whose time a dispatch of this kind counts as.
    pub fn layer(self) -> Layer {
        match self {
            Kind::NetTick => Layer::Net,
            Kind::Heartbeat
            | Kind::MapInputReady
            | Kind::MapComputeDone
            | Kind::MapSpillDone
            | Kind::ReduceSortDone
            | Kind::FetchTimeout
            | Kind::AttemptDoomed
            | Kind::SubmitJob => Layer::MapReduce,
            Kind::PumpUpload | Kind::DiskCheck | Kind::BalancerTick => Layer::Hdfs,
            Kind::MasterTick | Kind::Chaos | Kind::ChaosEnd | Kind::MasterPromote => Layer::Core,
            Kind::Grid | Kind::ResizePool => Layer::Grid,
        }
    }

    /// Whether this kind is a task event (`MapInputReady` through
    /// `AttemptDoomed`).
    fn is_task_event(self) -> bool {
        matches!(
            self,
            Kind::MapInputReady
                | Kind::MapComputeDone
                | Kind::MapSpillDone
                | Kind::ReduceSortDone
                | Kind::FetchTimeout
                | Kind::AttemptDoomed
        )
    }
}

/// Allocation counts by slot: slot 0 is outside any dispatch, slot
/// `1 + kind` inside a dispatch of that kind.
static ALLOCS: [AtomicU64; KINDS + 1] = [const { AtomicU64::new(0) }; KINDS + 1];
/// The slot new allocations count into.
static SLOT: AtomicUsize = AtomicUsize::new(0);
/// Whether [`CountingAlloc`] counts at all.
static ARMED: AtomicBool = AtomicBool::new(false);

/// A global allocator over [`System`] that, while armed, counts every
/// allocation (`alloc`, `alloc_zeroed` and `realloc`) into the slot of the
/// open dispatch. Only the traced binary installs it. The counters publish
/// no other data and the run is single-threaded, so `Relaxed` suffices.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count() {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS[SLOT.load(Ordering::Relaxed)].fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`; the caller's guarantees pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Zero the allocation counters and start counting.
fn arm_allocs() {
    for c in &ALLOCS {
        c.store(0, Ordering::Relaxed);
    }
    SLOT.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Stop counting and return the counts by slot.
fn disarm_allocs() -> [u64; KINDS + 1] {
    ARMED.store(false, Ordering::Relaxed);
    std::array::from_fn(|i| ALLOCS[i].load(Ordering::Relaxed))
}

/// Accumulated spans of one dispatch kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindStats {
    /// `handle` / `handle_batch` calls.
    pub dispatches: u64,
    /// Of those, `handle_batch` calls.
    pub batches: u64,
    /// Events consumed.
    pub events: u64,
    /// Host nanoseconds inside the calls.
    pub nanos: u64,
    /// Allocations inside the calls (0 unless [`CountingAlloc`] is
    /// installed).
    pub allocs: u64,
}

/// The tracing wrapper: delegates every [`Model`] method to the wrapped
/// [`Cluster`] and records one span per `handle` / `handle_batch` call.
pub struct Traced {
    inner: Cluster,
    kinds: [KindStats; KINDS],
    /// Per-dispatch nanoseconds of `NetTick`, for its percentiles.
    net_tick_ns: Vec<u64>,
    /// Per-dispatch nanoseconds of `MasterTick`, for its percentiles.
    master_tick_ns: Vec<u64>,
}

impl Traced {
    /// Wrap `inner`.
    pub fn new(inner: Cluster) -> Self {
        Traced {
            inner,
            kinds: [KindStats::default(); KINDS],
            net_tick_ns: Vec::new(),
            master_tick_ns: Vec::new(),
        }
    }

    #[inline]
    fn close(&mut self, kind: Kind, start: Instant, events: u64, batch: bool) {
        let nanos = start.elapsed().as_nanos() as u64;
        SLOT.store(0, Ordering::Relaxed);
        let k = &mut self.kinds[kind as usize];
        k.dispatches += 1;
        k.batches += u64::from(batch);
        k.events += events;
        k.nanos += nanos;
        match kind {
            Kind::NetTick => self.net_tick_ns.push(nanos),
            Kind::MasterTick => self.master_tick_ns.push(nanos),
            _ => {}
        }
    }
}

#[inline]
fn open(kind: Kind) -> Instant {
    SLOT.store(1 + kind as usize, Ordering::Relaxed);
    Instant::now()
}

impl Model for Traced {
    type Event = Event;

    fn handle(&mut self, event: Event, sched: &mut Scheduler<'_, Event>) {
        let kind = Kind::of(&event);
        let start = open(kind);
        self.inner.handle(event, sched);
        self.close(kind, start, 1, false);
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn batchable(&self, event: &Event) -> bool {
        self.inner.batchable(event)
    }

    fn handle_batch(&mut self, events: &mut VecDeque<Event>, sched: &mut Scheduler<'_, Event>) {
        let kind = events.front().map_or(Kind::Heartbeat, Kind::of);
        let before = events.len();
        let start = open(kind);
        self.inner.handle_batch(events, sched);
        self.close(kind, start, (before - events.len()) as u64, true);
    }
}

/// Everything one traced run measured.
pub struct TracedRun {
    /// Host seconds in `Simulation::run`, tracing on.
    pub wall_s: f64,
    /// The engine's run statistics.
    pub stats: RunStats,
    /// Spans by kind, allocations attributed.
    pub kinds: [KindStats; KINDS],
    /// Allocations outside any dispatch.
    pub outside_allocs: u64,
    /// `NetTick` dispatch nanoseconds, sorted.
    pub net_tick_ns: Vec<u64>,
    /// `MasterTick` dispatch nanoseconds, sorted.
    pub master_tick_ns: Vec<u64>,
    /// The collected result.
    pub result: RunResult,
    /// The judged outcome.
    pub outcome: Outcome,
}

/// Set up and run `workload` once, traced.
pub fn run_traced(workload: Workload, seed: u64) -> TracedRun {
    let Prepared {
        schedule,
        cluster,
        mut sim,
    } = prepare::<Traced>(workload, seed);
    let mut traced = Traced::new(cluster);
    arm_allocs();
    let t = Instant::now();
    let stats = sim.run(&mut traced);
    let wall_s = t.elapsed().as_secs_f64();
    let allocs = disarm_allocs();
    let Traced {
        inner,
        mut kinds,
        mut net_tick_ns,
        mut master_tick_ns,
    } = traced;
    for (k, n) in kinds.iter_mut().zip(&allocs[1..]) {
        k.allocs = *n;
    }
    net_tick_ns.sort_unstable();
    master_tick_ns.sort_unstable();
    let result = collect_result(inner, &schedule, stats);
    let outcome = judge(workload, seed, &result);
    TracedRun {
        wall_s,
        stats,
        kinds,
        outside_allocs: allocs[0],
        net_tick_ns,
        master_tick_ns,
        result,
        outcome,
    }
}

impl TracedRun {
    /// Host seconds of all dispatches counted as `layer`.
    pub fn layer_s(&self, layer: Layer) -> f64 {
        if layer == Layer::SimCore {
            let spans: f64 = Layer::ALL[1..].iter().map(|&l| self.layer_s(l)).sum();
            return self.wall_s - spans;
        }
        self.sum(|k| k.layer() == layer, |s| s.nanos) as f64 / 1e9
    }

    /// Allocations counted as `layer`.
    pub fn layer_allocs(&self, layer: Layer) -> u64 {
        if layer == Layer::SimCore {
            return self.outside_allocs;
        }
        self.sum(|k| k.layer() == layer, |s| s.allocs)
    }

    fn sum(&self, pick: impl Fn(Kind) -> bool, field: impl Fn(&KindStats) -> u64) -> u64 {
        Kind::ALL
            .iter()
            .filter(|&&k| pick(k))
            .map(|&k| field(&self.kinds[k as usize]))
            .sum()
    }

    fn kind(&self, kind: Kind) -> &KindStats {
        &self.kinds[kind as usize]
    }

    /// The per-layer metric values in [`crate::PER_LAYER`] order, all but
    /// the last, `trace.overhead_frac`, which needs the untraced wall time.
    pub fn per_layer(&self) -> Vec<f64> {
        let r = &self.result;
        let events = self.stats.events_handled as f64;
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let s = |k: Kind| self.kind(k).nanos as f64 / 1e9;
        let us = |v: &[u64], p: f64| nearest_rank(v, p) as f64 / 1e3;
        let dispatches = self.sum(|_| true, |k| k.dispatches);
        let batches = self.sum(|_| true, |k| k.batches);
        // Every `handle` call consumes one event; the rest came in batches.
        let batched_events = self.stats.events_handled - (dispatches - batches);
        let all_allocs = self.outside_allocs + self.sum(|_| true, |k| k.allocs);
        let jt = &r.jt;
        let assigned = jt.node_local + jt.rack_local + jt.site_local + jt.remote;
        let (repl_done, repl_failed, blocks_lost, _) = r.nn_counters;
        let (preemptions, _, node_starts) = r.grid.unwrap_or_default();
        let self_s = self.layer_s(Layer::SimCore);
        let heartbeats = self.kind(Kind::Heartbeat).events;
        vec![
            events,
            dispatches as f64,
            per(batched_events as f64, batches as f64),
            self.stats.peak_queue as f64,
            self_s,
            per(self_s * 1e9, events),
            per(events, self.wall_s),
            per(all_allocs as f64, events),
            self.kind(Kind::NetTick).dispatches as f64,
            s(Kind::NetTick),
            us(&self.net_tick_ns, 0.50),
            us(&self.net_tick_ns, 0.99),
            r.net_recomputes as f64,
            r.net_recompute_work as f64,
            self.layer_allocs(Layer::Net) as f64,
            self.layer_s(Layer::MapReduce),
            heartbeats as f64,
            s(Kind::Heartbeat),
            per(s(Kind::Heartbeat) * 1e9, heartbeats as f64),
            self.sum(Kind::is_task_event, |k| k.events) as f64,
            self.sum(Kind::is_task_event, |k| k.nanos) as f64 / 1e9,
            s(Kind::SubmitJob),
            self.layer_allocs(Layer::MapReduce) as f64,
            per(jt.node_local as f64, assigned as f64),
            jt.speculative as f64,
            jt.failures as f64,
            self.layer_s(Layer::Hdfs),
            self.kind(Kind::PumpUpload).dispatches as f64,
            s(Kind::PumpUpload),
            self.layer_allocs(Layer::Hdfs) as f64,
            repl_done as f64,
            per(repl_failed as f64, (repl_done + repl_failed) as f64),
            blocks_lost as f64,
            r.missing_blocks as f64,
            r.repair_bytes as f64 / 1e9,
            self.layer_s(Layer::Core),
            self.kind(Kind::MasterTick).dispatches as f64,
            s(Kind::MasterTick),
            us(&self.master_tick_ns, 0.50),
            us(&self.master_tick_ns, 0.99),
            self.layer_allocs(Layer::Core) as f64,
            self.sum(|k| k.layer() == Layer::Grid, |k| k.events) as f64,
            self.layer_s(Layer::Grid),
            preemptions as f64,
            node_starts as f64,
            self.wall_s,
        ]
    }

    /// A human-readable table of where host time went, by layer and by
    /// dispatch kind.
    pub fn time_table(&self) -> String {
        let mut out = format!("traced wall {:.3} s\n", self.wall_s);
        let pct = |s: f64| 100.0 * s / self.wall_s;
        for layer in Layer::ALL {
            let s = self.layer_s(layer);
            out.push_str(&format!(
                "  {:<10} {:>8.3} s {:>5.1} %\n",
                layer.name(),
                s,
                pct(s)
            ));
        }
        let mut kinds: Vec<Kind> = Kind::ALL
            .into_iter()
            .filter(|&k| self.kind(k).dispatches > 0)
            .collect();
        kinds.sort_by_key(|&k| std::cmp::Reverse(self.kind(k).nanos));
        for k in kinds {
            let st = self.kind(k);
            let s = st.nanos as f64 / 1e9;
            out.push_str(&format!(
                "    {:<15} {:>9} dispatches {:>10} events {:>8.3} s {:>5.1} % {:>11} allocs\n",
                format!("{k:?}"),
                st.dispatches,
                st.events,
                s,
                pct(s),
                st.allocs
            ));
        }
        out
    }
}
