//! The simulation driver loop.
//!
//! A [`Model`] owns all mutable world state and handles one event at a
//! time. The [`Simulation`] wrapper owns the clock and the pending-event
//! set and repeatedly feeds the model the earliest event. Models schedule
//! follow-up events through the [`Scheduler`] handle they receive.
//!
//! The split keeps the kernel generic: each substrate crate defines its own
//! event enum for unit testing, and `hog-core` defines the unified event
//! enum used for full-stack runs.

use crate::queue::{EventQueue, Next};
use crate::time::{SimDuration, SimTime};

/// Handle through which a model schedules future events during a callback.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// Build a scheduler handle over `queue` with the clock at `now`.
    ///
    /// [`Simulation::run`] constructs these internally; this constructor
    /// exists for external executors (e.g. a federation co-simulating
    /// several models, each with its own queue, under one global clock)
    /// that need to hand a model the same handle the driver loop would.
    #[inline]
    pub fn over(now: SimTime, queue: &'a mut EventQueue<E>) -> Self {
        Scheduler { now, queue }
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire after `delay`.
    #[inline]
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Re-arm a fixed-period timer: schedule `event` after `period`, like
    /// [`Scheduler::after`], on the queue's lane for `period` (see
    /// [`EventQueue::push_periodic`]). The pop order is the one `after`
    /// gives; only the cost differs, so a timer every live node re-arms
    /// (heartbeats, disk checks) stays out of the heap.
    #[inline]
    pub fn every(&mut self, period: SimDuration, event: E) {
        self.queue.push_periodic(self.now + period, period, event);
    }

    /// Schedule `event` at the absolute instant `at`. Events scheduled in
    /// the past are clamped to fire "now" (still after the current event)
    /// rather than violating clock monotonicity.
    #[inline]
    pub fn at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.queue.push(at, event);
    }

    /// Schedule `event` to fire immediately after the current one.
    #[inline]
    pub fn now_event(&mut self, event: E) {
        self.queue.push(self.now, event);
    }
}

/// A simulation model: world state plus an event handler.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle a single event at its firing time, scheduling any follow-ups
    /// through `sched`.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);

    /// Return `true` to stop the run early (checked after every event).
    fn finished(&self) -> bool {
        false
    }

    /// Whether handling `event` at `now` would do nothing but re-arm it
    /// one period later, as [`Scheduler::every`] does. [`Simulation::run`]
    /// asks only about the timer firing it would dispatch next, when
    /// that firing sits on one of the queue's periodic lanes, and on
    /// `true` re-arms it in place without calling [`Model::handle`] (see
    /// [`EventQueue::pop_or_rearm`]). The firing still counts as handled,
    /// and every other event pops at the same `(time, sequence)`, so the
    /// run is the one per-event dispatch gives.
    ///
    /// The answer must be a pure function of the model state, and `true`
    /// only when the handler would change nothing (no state, no trace, no
    /// event other than the same timer re-armed on the same period). The
    /// default dispatches everything.
    fn rearm_only(&self, _event: &Self::Event, _now: SimTime) -> bool {
        false
    }

    /// Whether `event` may be folded into a batched dispatch with the
    /// events that immediately follow it at the *same* firing instant.
    ///
    /// When the popped event is batchable, [`Simulation::run`] keeps
    /// popping while the queue head shares the fire time and is itself
    /// batchable, then hands the whole run to [`Model::handle_batch`] in
    /// the exact order the events would have popped individually. Only
    /// *contiguous* events coalesce — a non-batchable event at the same
    /// instant ends the batch — so dispatch order is preserved verbatim
    /// and outcomes stay bit-identical to per-event dispatch. A model
    /// may override this for events whose per-dispatch overhead can be
    /// hoisted out of a same-instant run; the default dispatches every
    /// event alone.
    fn batchable(&self, _event: &Self::Event) -> bool {
        false
    }

    /// Handle a contiguous run of same-instant batchable events (see
    /// [`Model::batchable`]). `events` is in pop order; the default
    /// implementation dispatches them one by one through
    /// [`Model::handle`], so overriding `batchable` alone never changes
    /// behavior. Implementations pop from the front and must stop as soon
    /// as [`Model::finished`] turns true, leaving the rest in the deque —
    /// the driver loop counts only consumed events as handled and checks
    /// `finished` after the batch, exactly as the per-event loop would
    /// after the event that tripped it.
    fn handle_batch(
        &mut self,
        events: &mut std::collections::VecDeque<Self::Event>,
        sched: &mut Scheduler<'_, Self::Event>,
    ) {
        while !self.finished() {
            let Some(event) = events.pop_front() else {
                break;
            };
            self.handle(event, sched);
        }
    }
}

/// Outcome of a simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Clock value when the run stopped.
    pub end_time: SimTime,
    /// Number of events handled.
    pub events_handled: u64,
    /// High-water mark of the pending-event set (scale diagnostics).
    pub peak_queue: usize,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// Why a run terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained.
    QueueEmpty,
    /// The model reported completion via [`Model::finished`].
    ModelFinished,
    /// The configured horizon was reached.
    HorizonReached,
    /// The configured event budget was exhausted (runaway guard).
    EventBudgetExhausted,
}

/// The simulation executor: clock + event queue + driver loop.
pub struct Simulation<M: Model> {
    queue: EventQueue<M::Event>,
    now: SimTime,
    horizon: SimTime,
    event_budget: u64,
}

impl<M: Model> Default for Simulation<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Model> Simulation<M> {
    /// A simulation with no horizon and a practically unlimited event
    /// budget (2^63 events).
    pub fn new() -> Self {
        Simulation {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: SimTime::MAX,
            event_budget: u64::MAX / 2,
        }
    }

    /// Stop the run when the clock would pass `horizon` (the event at the
    /// horizon itself still executes).
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Cap the number of events handled; guards against non-terminating
    /// models in tests.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Current clock value.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Seed an initial event before the run starts.
    pub fn schedule(&mut self, at: SimTime, event: M::Event) {
        self.queue.push(at, event);
    }

    /// A scheduler handle over this simulation's queue at the current
    /// clock, for bootstrap code shared with externally-driven executors.
    pub fn scheduler(&mut self) -> Scheduler<'_, M::Event> {
        Scheduler::over(self.now, &mut self.queue)
    }

    /// Drive `model` until the queue drains, the model finishes, the
    /// horizon passes, or the event budget is exhausted.
    ///
    /// Events go through [`Model::handle`] one at a time, in
    /// `(time, sequence)` order. A lane timer firing the model answers
    /// [`Model::rearm_only`] for is re-armed in place instead of
    /// dispatched. Contiguous same-instant events the model marks
    /// [`Model::batchable`] are popped together and dispatched through
    /// [`Model::handle_batch`] in exact pop order. The engine asks
    /// `rearm_only` only about the event it would dispatch next, never
    /// about one it collects into a batch: an earlier event of the batch
    /// may give that one work.
    pub fn run(&mut self, model: &mut M) -> RunStats {
        let mut handled = 0u64;
        let mut batch: std::collections::VecDeque<M::Event> = std::collections::VecDeque::new();
        loop {
            if handled >= self.event_budget {
                return self.stats(handled, StopReason::EventBudgetExhausted);
            }
            let horizon = self.horizon;
            let next = self
                .queue
                .pop_or_rearm(|at, e| at <= horizon && model.rearm_only(e, at));
            match next {
                None => return self.stats(handled, StopReason::QueueEmpty),
                Some(Next::Rearmed(at)) => {
                    // Handled as its dispatch would have been: the clock
                    // moves, the firing counts, `finished` is asked after.
                    debug_assert!(at >= self.now, "event queue produced a past event");
                    self.now = at;
                    handled += 1;
                }
                Some(Next::Popped(at, event)) => {
                    debug_assert!(at >= self.now, "event queue produced a past event");
                    if at > self.horizon {
                        // Leave the event unexecuted; the clock parks at the
                        // horizon.
                        self.now = self.horizon;
                        return self.stats(handled, StopReason::HorizonReached);
                    }
                    self.now = at;
                    let head_batchable = |q: &EventQueue<M::Event>, m: &M| {
                        q.peek().is_some_and(|(t, e)| t == at && m.batchable(e))
                    };
                    if model.batchable(&event) && head_batchable(&self.queue, model) {
                        batch.clear();
                        batch.push_back(event);
                        while (handled + batch.len() as u64) < self.event_budget
                            && head_batchable(&self.queue, model)
                        {
                            batch.push_back(self.queue.pop().expect("peeked event vanished").1);
                        }
                        let popped = batch.len() as u64;
                        let mut sched = Scheduler {
                            now: self.now,
                            queue: &mut self.queue,
                        };
                        model.handle_batch(&mut batch, &mut sched);
                        handled += popped - batch.len() as u64;
                        batch.clear();
                    } else {
                        let mut sched = Scheduler {
                            now: self.now,
                            queue: &mut self.queue,
                        };
                        model.handle(event, &mut sched);
                        handled += 1;
                    }
                }
            }
            if model.finished() {
                return self.stats(handled, StopReason::ModelFinished);
            }
        }
    }

    /// The statistics of a run that stops now, for `stop`.
    fn stats(&self, events_handled: u64, stop: StopReason) -> RunStats {
        RunStats {
            end_time: self.now,
            events_handled,
            peak_queue: self.queue.peak_len(),
            stop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model: a counter that reschedules itself `n` times.
    struct Ticker {
        remaining: u32,
        fire_times: Vec<SimTime>,
    }

    enum TickEvent {
        Tick,
    }

    impl Model for Ticker {
        type Event = TickEvent;
        fn handle(&mut self, _ev: TickEvent, sched: &mut Scheduler<'_, TickEvent>) {
            self.fire_times.push(sched.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.after(SimDuration::from_secs(10), TickEvent::Tick);
            }
        }
        fn finished(&self) -> bool {
            false
        }
    }

    #[test]
    fn ticker_runs_to_completion() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, TickEvent::Tick);
        let mut m = Ticker {
            remaining: 3,
            fire_times: vec![],
        };
        let stats = sim.run(&mut m);
        assert_eq!(stats.stop, StopReason::QueueEmpty);
        assert_eq!(m.fire_times.len(), 4);
        assert_eq!(stats.end_time, SimTime::from_secs(30));
        assert_eq!(
            m.fire_times,
            vec![
                SimTime::ZERO,
                SimTime::from_secs(10),
                SimTime::from_secs(20),
                SimTime::from_secs(30)
            ]
        );
    }

    #[test]
    fn horizon_stops_run() {
        let mut sim = Simulation::new().with_horizon(SimTime::from_secs(15));
        sim.schedule(SimTime::ZERO, TickEvent::Tick);
        let mut m = Ticker {
            remaining: 100,
            fire_times: vec![],
        };
        let stats = sim.run(&mut m);
        assert_eq!(stats.stop, StopReason::HorizonReached);
        assert_eq!(m.fire_times.len(), 2); // t=0 and t=10
        assert_eq!(stats.end_time, SimTime::from_secs(15));
    }

    #[test]
    fn event_budget_guards_runaway() {
        struct Forever;
        impl Model for Forever {
            type Event = ();
            fn handle(&mut self, _: (), sched: &mut Scheduler<'_, ()>) {
                sched.now_event(());
            }
        }
        let mut sim = Simulation::new().with_event_budget(1000);
        sim.schedule(SimTime::ZERO, ());
        let stats = sim.run(&mut Forever);
        assert_eq!(stats.stop, StopReason::EventBudgetExhausted);
        assert_eq!(stats.events_handled, 1000);
    }

    #[test]
    fn model_finished_stops_immediately() {
        struct StopAfter(u32, u32);
        impl Model for StopAfter {
            type Event = ();
            fn handle(&mut self, _: (), sched: &mut Scheduler<'_, ()>) {
                self.0 += 1;
                sched.after(SimDuration::from_secs(1), ());
            }
            fn finished(&self) -> bool {
                self.0 >= self.1
            }
        }
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, ());
        let mut m = StopAfter(0, 5);
        let stats = sim.run(&mut m);
        assert_eq!(stats.stop, StopReason::ModelFinished);
        assert_eq!(m.0, 5);
    }

    /// Batched dispatch must observe the exact same (time, event) stream
    /// as per-event dispatch, batch only *contiguous* same-instant runs,
    /// and count handled events identically.
    #[test]
    fn batched_dispatch_matches_per_event() {
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        enum Ev {
            Beat(u32),
            Other(u32),
        }
        struct Beats {
            batching: bool,
            log: Vec<(SimTime, Ev)>,
            batch_sizes: Vec<usize>,
        }
        impl Model for Beats {
            type Event = Ev;
            fn handle(&mut self, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
                self.log.push((sched.now(), ev));
                // Beats re-arm once, landing on a shared later instant.
                if let Ev::Beat(n) = ev {
                    if n < 10 {
                        sched.after(SimDuration::from_secs(5), Ev::Beat(n + 10));
                    }
                }
            }
            fn batchable(&self, ev: &Ev) -> bool {
                self.batching && matches!(ev, Ev::Beat(_))
            }
            fn handle_batch(
                &mut self,
                events: &mut std::collections::VecDeque<Ev>,
                sched: &mut Scheduler<'_, Ev>,
            ) {
                self.batch_sizes.push(events.len());
                while let Some(ev) = events.pop_front() {
                    self.handle(ev, sched);
                }
            }
        }
        let drive = |batching: bool| {
            let mut sim = Simulation::new();
            let t = SimTime::from_secs(1);
            // Contiguous beats, a same-instant interloper, more beats.
            sim.schedule(t, Ev::Beat(0));
            sim.schedule(t, Ev::Beat(1));
            sim.schedule(t, Ev::Other(0));
            sim.schedule(t, Ev::Beat(2));
            sim.schedule(t, Ev::Beat(3));
            let mut m = Beats {
                batching,
                log: vec![],
                batch_sizes: vec![],
            };
            let stats = sim.run(&mut m);
            (m.log, m.batch_sizes, stats.events_handled)
        };
        let (plain_log, plain_batches, plain_handled) = drive(false);
        let (batch_log, batch_batches, batch_handled) = drive(true);
        assert!(plain_batches.is_empty());
        assert_eq!(plain_log, batch_log, "batching reordered dispatch");
        assert_eq!(plain_handled, batch_handled);
        // Beat(0),Beat(1) coalesce; Other(0) breaks the run; Beat(2),Beat(3)
        // coalesce; the four re-armed beats at t+5 coalesce into one batch.
        assert_eq!(batch_batches, vec![2, 2, 4]);
    }

    /// In-place re-arms are invisible. A model whose lane timers are idle
    /// on a known set of firings sees the same non-idle `(time, event)`
    /// dispatches with `rearm_only` answering and with it off, and both
    /// runs return equal [`RunStats`], whether they stop at the horizon,
    /// on the event budget or on `finished`. Timers are batchable, so
    /// re-arms also meet same-instant batches.
    #[test]
    fn rearm_in_place_matches_dispatch() {
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        enum Ev {
            Timer(u32),
            Once(u32),
        }
        const PERIODS: [u64; 2] = [3_000, 7_000];
        fn period(id: u32) -> SimDuration {
            SimDuration::from_millis(PERIODS[id as usize % 2])
        }
        /// Four firings in five do nothing but re-arm.
        fn idle(now: SimTime, id: u32) -> bool {
            !(now.as_millis() / 1_000 + id as u64).is_multiple_of(5)
        }
        struct Timers {
            hook: bool,
            log: Vec<(SimTime, Ev)>,
            idle_dispatches: u64,
            stop_after: usize,
        }
        impl Model for Timers {
            type Event = Ev;
            fn handle(&mut self, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
                let now = sched.now();
                match ev {
                    Ev::Timer(id) if idle(now, id) => self.idle_dispatches += 1,
                    Ev::Timer(id) => {
                        self.log.push((now, ev));
                        sched.after(SimDuration::from_millis(500 * id as u64), Ev::Once(id));
                    }
                    Ev::Once(_) => self.log.push((now, ev)),
                }
                if let Ev::Timer(id) = ev {
                    sched.every(period(id), ev);
                }
            }
            fn finished(&self) -> bool {
                self.log.len() >= self.stop_after
            }
            fn batchable(&self, ev: &Ev) -> bool {
                matches!(ev, Ev::Timer(_))
            }
            fn rearm_only(&self, ev: &Ev, now: SimTime) -> bool {
                self.hook && matches!(*ev, Ev::Timer(id) if idle(now, id))
            }
        }
        let drive = |hook: bool, horizon: u64, budget: u64, stop_after: usize| {
            let mut sim = Simulation::new()
                .with_horizon(SimTime::from_secs(horizon))
                .with_event_budget(budget);
            for id in 0..6 {
                // First firings sit in the heap; three pairs collide.
                sim.schedule(SimTime::from_secs(id as u64 % 3), Ev::Timer(id));
            }
            let mut m = Timers {
                hook,
                log: vec![],
                idle_dispatches: 0,
                stop_after,
            };
            let stats = sim.run(&mut m);
            (m.log, stats, m.idle_dispatches)
        };
        for (horizon, budget, stop_after, stop) in [
            (120, u64::MAX, usize::MAX, StopReason::HorizonReached),
            (10_000, 97, usize::MAX, StopReason::EventBudgetExhausted),
            (10_000, u64::MAX, 40, StopReason::ModelFinished),
        ] {
            let (log_off, stats_off, idle_off) = drive(false, horizon, budget, stop_after);
            let (log_on, stats_on, idle_on) = drive(true, horizon, budget, stop_after);
            assert_eq!(stats_off.stop, stop);
            assert_eq!(log_on, log_off, "re-arms changed the dispatches ({stop:?})");
            assert_eq!(stats_on, stats_off, "re-arms changed the run ({stop:?})");
            assert!(!log_off.is_empty());
            assert!(
                idle_on < idle_off,
                "nothing was re-armed in place ({stop:?}): {idle_on} vs {idle_off}"
            );
        }
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        struct PastScheduler {
            tried: bool,
            observed: Vec<SimTime>,
        }
        impl Model for PastScheduler {
            type Event = u8;
            fn handle(&mut self, ev: u8, sched: &mut Scheduler<'_, u8>) {
                self.observed.push(sched.now());
                if ev == 0 && !self.tried {
                    self.tried = true;
                    sched.at(SimTime::ZERO, 1); // "in the past" w.r.t. t=5
                }
            }
        }
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_secs(5), 0u8);
        let mut m = PastScheduler {
            tried: false,
            observed: vec![],
        };
        sim.run(&mut m);
        assert_eq!(
            m.observed,
            vec![SimTime::from_secs(5), SimTime::from_secs(5)]
        );
    }
}
