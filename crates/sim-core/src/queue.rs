//! Deterministic pending-event set.
//!
//! A binary min-heap keyed on `(time, sequence)`, plus one FIFO *lane* per
//! timer period. The monotonically increasing sequence number guarantees
//! that events scheduled for the same instant pop in the order they were
//! pushed, which makes whole-simulation replays bit-identical — a property
//! the reproduction tests rely on.
//!
//! A lane holds the firings of one fixed-period timer
//! ([`EventQueue::push_periodic`]): each entry is pushed at `now + period`
//! with a fresh sequence number, and neither `now` nor the sequence ever
//! goes back, so a lane is already sorted by `(time, sequence)`. Popping
//! the smallest of the heap head and the lane heads therefore yields
//! exactly the order one heap of every entry would, while tens of
//! thousands of per-node heartbeats cost an O(1) append and pop instead of
//! two heap sifts each. A lane head whose firing would only re-arm it can
//! be moved to the lane's tail in place ([`EventQueue::pop_or_rearm`]),
//! which leaves the queue exactly as that pop and re-arm would.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Internal heap entry. Ordered so that the *earliest* `(at, seq)` pair is
/// the heap maximum (we invert the comparison instead of wrapping in
/// `Reverse` to keep the hot comparison branch-light).
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: smaller (at, seq) compares Greater so it surfaces first.
        other.key().cmp(&self.key())
    }
}

/// The re-arms of one fixed-period timer, ascending by `(at, seq)`.
struct Lane<E> {
    period: SimDuration,
    fifo: VecDeque<Entry<E>>,
}

/// Where the earliest pending entry sits.
#[derive(Clone, Copy)]
enum Head {
    Heap,
    Lane(usize),
}

/// What [`EventQueue::pop_or_rearm`] did with the earliest entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Next<E> {
    /// The entry left the queue: its firing time and event.
    Popped(SimTime, E),
    /// The entry, a timer firing due at this instant, stayed queued one
    /// lane period later under a fresh sequence number.
    Rearmed(SimTime),
}

/// A deterministic future-event list.
///
/// ```
/// use hog_sim_core::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push_periodic(SimTime::from_secs(1), SimDuration::from_secs(1), "tick");
/// q.push(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "tick")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// One lane per period seen by [`EventQueue::push_periodic`] (a
    /// handful at most, so a linear lookup).
    lanes: Vec<Lane<E>>,
    /// Pending entries across the heap and every lane.
    len: usize,
    next_seq: u64,
    /// High-water mark of pending events (for instrumentation).
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with pre-reserved heap capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            lanes: Vec::new(),
            len: 0,
            next_seq: 0,
            peak_len: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        self.note_push();
    }

    /// Schedule the next firing of a timer that re-arms every `period`:
    /// `event` fires at `at` (normally `now + period`) and pops exactly
    /// where [`EventQueue::push`] would have put it. The entry joins the
    /// FIFO lane kept for `period`; an `at` earlier than the lane's tail
    /// (a clock that went back) goes to the heap instead, so the pop
    /// order never depends on the caller keeping the lane sorted.
    #[inline]
    pub fn push_periodic(&mut self, at: SimTime, period: SimDuration, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let lane = match self.lanes.iter().position(|l| l.period == period) {
            Some(i) => i,
            None => {
                self.lanes.push(Lane {
                    period,
                    fifo: VecDeque::new(),
                });
                self.lanes.len() - 1
            }
        };
        self.push_lane_entry(lane, Entry { at, seq, event });
    }

    /// Append `entry` to lane `i`, or put it in the heap when it falls
    /// behind the lane's tail, and count the push.
    #[inline]
    fn push_lane_entry(&mut self, i: usize, entry: Entry<E>) {
        let lane = &mut self.lanes[i];
        if lane.fifo.back().is_none_or(|b| b.at <= entry.at) {
            if lane.fifo.len() == lane.fifo.capacity() {
                // A lane holds about one entry per live node, and its ring
                // touches its whole capacity as it turns: grow by an
                // eighth, not twofold, so resident memory stays close to
                // what the same entries took in the heap.
                lane.fifo.reserve_exact(lane.fifo.len() / 8 + 16);
            }
            lane.fifo.push_back(entry);
        } else {
            self.heap.push(entry);
        }
        self.note_push();
    }

    #[inline]
    fn note_push(&mut self) {
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
    }

    /// The source holding the smallest `(at, seq)`, if any entry is
    /// pending.
    #[inline]
    fn head(&self) -> Option<Head> {
        let mut best = self.heap.peek().map(|e| (e.key(), Head::Heap));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(e) = lane.fifo.front() {
                if best.is_none_or(|(k, _)| e.key() < k) {
                    best = Some((e.key(), Head::Lane(i)));
                }
            }
        }
        best.map(|(_, h)| h)
    }

    #[inline]
    fn head_entry(&self) -> Option<&Entry<E>> {
        match self.head()? {
            Head::Heap => self.heap.peek(),
            Head::Lane(i) => self.lanes[i].fifo.front(),
        }
    }

    /// Remove and return the earliest event, together with its firing time.
    /// Ties in time pop in push order.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = match self.head()? {
            Head::Heap => self.heap.pop(),
            Head::Lane(i) => self.lanes[i].fifo.pop_front(),
        }?;
        self.len -= 1;
        Some((e.at, e.event))
    }

    /// [`EventQueue::pop`], unless the earliest entry is a lane entry (a
    /// timer firing pushed by [`EventQueue::push_periodic`]) for which
    /// `rearm(at, &event)` holds. That entry is re-armed in place
    /// instead: it moves to `at + period` of its lane under the next
    /// sequence number, exactly where a pop followed by
    /// `push_periodic(at + period, period, event)` would put it, with the
    /// same length and peak. One head lookup serves both outcomes, and
    /// `rearm` is asked only about lane heads: an entry in the heap
    /// always pops.
    #[inline]
    pub fn pop_or_rearm(&mut self, rearm: impl FnOnce(SimTime, &E) -> bool) -> Option<Next<E>> {
        let i = match self.head()? {
            Head::Heap => {
                let e = self.heap.pop()?;
                self.len -= 1;
                return Some(Next::Popped(e.at, e.event));
            }
            Head::Lane(i) => i,
        };
        let lane = &mut self.lanes[i];
        let mut e = lane.fifo.pop_front()?;
        self.len -= 1;
        if !rearm(e.at, &e.event) {
            return Some(Next::Popped(e.at, e.event));
        }
        let at = e.at;
        e.at = at + lane.period;
        e.seq = self.next_seq;
        self.next_seq += 1;
        self.push_lane_entry(i, e);
        Some(Next::Rearmed(at))
    }

    /// The firing time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head_entry().map(|e| e.at)
    }

    /// Borrow the earliest pending event without removing it. Lets the
    /// driver loop decide whether the head can join a same-instant batch
    /// (see `Model::batchable`) before committing to the pop.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.head_entry().map(|e| (e.at, &e.event))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of events that were ever pending at once.
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &s in &[5u64, 1, 4, 2, 3] {
            q.push(SimTime::from_secs(s), s);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fifo_on_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "c");
        q.push(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_secs(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.is_empty());
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 2);
        q.push(SimTime::ZERO, ());
        assert_eq!(q.peak_len(), 2);
    }

    #[test]
    fn periodic_lane_interleaves_with_the_heap() {
        let mut q = EventQueue::new();
        let p = SimDuration::from_secs(3);
        q.push_periodic(SimTime::from_secs(3), p, "beat-a");
        q.push(SimTime::from_secs(3), "one-shot");
        q.push_periodic(SimTime::from_secs(3), p, "beat-b");
        q.push(SimTime::from_secs(1), "early");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["early", "beat-a", "one-shot", "beat-b"]);
        // A re-arm behind the lane's tail still pops in time order.
        q.push_periodic(SimTime::from_secs(9), p, "late");
        q.push_periodic(SimTime::from_secs(5), p, "behind");
        assert_eq!(q.pop().unwrap().1, "behind");
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.peak_len(), 4);
    }

    /// One step of the lane-vs-heap comparison (see
    /// `prop_lanes_match_one_heap`).
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Push(u64),
        /// A timer re-arm at `now + period`, period picked by index.
        Every(usize),
        /// A lane push at an arbitrary offset (may fall behind the tail).
        Periodic(usize, u64),
        Pop,
        /// `pop_or_rearm` with a predicate answering this value.
        PopOrRearm(bool),
        Peek,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..5_000).prop_map(Op::Push),
            (0usize..3).prop_map(Op::Every),
            (0usize..3, 0u64..5_000).prop_map(|(i, a)| Op::Periodic(i, a)),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::PopOrRearm(true)),
            Just(Op::PopOrRearm(true)),
            Just(Op::PopOrRearm(false)),
            Just(Op::Peek),
        ]
    }

    /// The reference for `prop_lanes_match_one_heap`: one `BinaryHeap` of
    /// every entry, each tagged with the lane it joined (if any). Lane
    /// membership follows `push_periodic`'s rule, which needs only each
    /// lane's length and tail.
    #[derive(Default)]
    struct OneHeap {
        heap: BinaryHeap<std::cmp::Reverse<RefEntry>>,
        lane_len: [usize; 3],
        lane_tail: [SimTime; 3],
        seq: u64,
    }

    /// A reference heap entry: firing time, sequence number, event id and
    /// the lane it joined.
    type RefEntry = (SimTime, u64, u32, Option<usize>);

    impl OneHeap {
        fn push(&mut self, at: SimTime, id: u32, lane: Option<usize>) {
            self.heap.push(std::cmp::Reverse((at, self.seq, id, lane)));
            self.seq += 1;
        }

        fn push_periodic(&mut self, at: SimTime, i: usize, id: u32) {
            let lane = (self.lane_len[i] == 0 || self.lane_tail[i] <= at).then(|| {
                self.lane_len[i] += 1;
                self.lane_tail[i] = at;
                i
            });
            self.push(at, id, lane);
        }

        fn head(&self) -> Option<(SimTime, u32, Option<usize>)> {
            self.heap
                .peek()
                .map(|std::cmp::Reverse((at, _, id, lane))| (*at, *id, *lane))
        }

        fn pop(&mut self) -> Option<(SimTime, u32, Option<usize>)> {
            let std::cmp::Reverse((at, _, id, lane)) = self.heap.pop()?;
            if let Some(i) = lane {
                self.lane_len[i] -= 1;
            }
            Some((at, id, lane))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lanes are invisible: any interleaving of pushes, timer
        /// re-arms, pops, in-place re-arms and peeks pops the same
        /// `(time, event)` sequence, and reports the same length and
        /// peak, as one `BinaryHeap` holding every entry. The heap models an in-place
        /// re-arm as a pop plus a push at `at + period` under the next
        /// sequence number, and the predicate is asked exactly when the
        /// head is a lane entry.
        #[test]
        fn prop_lanes_match_one_heap(ops in proptest::collection::vec(op(), 1..400)) {
            const PERIODS: [u64; 3] = [3_000, 180_000, 7];
            let period = |i: usize| SimDuration::from_millis(PERIODS[i]);
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut model = OneHeap::default();
            let mut peak = 0usize;
            let mut now = SimTime::ZERO;
            for (id, op) in ops.into_iter().enumerate() {
                let id = id as u32;
                match op {
                    Op::Push(a) => {
                        let at = now + SimDuration::from_millis(a);
                        q.push(at, id);
                        model.push(at, id, None);
                    }
                    Op::Every(i) => {
                        q.push_periodic(now + period(i), period(i), id);
                        model.push_periodic(now + period(i), i, id);
                    }
                    Op::Periodic(i, a) => {
                        let at = now + SimDuration::from_millis(a);
                        q.push_periodic(at, period(i), id);
                        model.push_periodic(at, i, id);
                    }
                    Op::Pop => {
                        let want = model.pop().map(|(at, e, _)| (at, e));
                        prop_assert_eq!(q.pop(), want);
                        if let Some((at, _)) = want {
                            now = at;
                        }
                    }
                    Op::PopOrRearm(answer) => {
                        let head = model.head();
                        let mut asked = None;
                        let got = q.pop_or_rearm(|at, e| {
                            asked = Some((at, *e));
                            answer
                        });
                        let want_asked = head
                            .filter(|&(_, _, lane)| lane.is_some())
                            .map(|(at, e, _)| (at, e));
                        prop_assert_eq!(asked, want_asked);
                        let want = match model.pop() {
                            None => None,
                            Some((at, e, Some(i))) if answer => {
                                model.push_periodic(at + period(i), i, e);
                                Some(Next::Rearmed(at))
                            }
                            Some((at, e, _)) => Some(Next::Popped(at, e)),
                        };
                        prop_assert_eq!(&got, &want);
                        if let Some(Next::Popped(at, _) | Next::Rearmed(at)) = want {
                            now = at;
                        }
                    }
                    Op::Peek => {
                        let want = model.head().map(|(at, e, _)| (at, e));
                        prop_assert_eq!(q.peek().map(|(at, e)| (at, *e)), want);
                        prop_assert_eq!(q.peek_time(), want.map(|(at, _)| at));
                    }
                }
                peak = peak.max(model.heap.len());
                prop_assert_eq!(q.len(), model.heap.len());
                prop_assert_eq!(q.is_empty(), model.heap.is_empty());
                prop_assert_eq!(q.peak_len(), peak);
            }
            while let Some((at, e, _)) = model.pop() {
                prop_assert_eq!(q.pop(), Some((at, e)));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }

    proptest! {
        /// Popping must always yield a non-decreasing time sequence, and for
        /// equal times the original push index must be increasing.
        #[test]
        fn prop_pop_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_millis(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx);
                    }
                }
                last = Some((t, idx));
            }
        }
    }
}
