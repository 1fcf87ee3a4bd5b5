//! The failure detector both masters share. The paper (§III-B): "if the
//! worker nodes do not report every 30 seconds, then the node is marked
//! dead for both the namenode and jobtracker".
//!
//! Both masters read one timeout (`HdfsConfig::dead_node_timeout` in
//! hog-hdfs; the cluster hands the same value to the JobTracker), preset
//! to [`HOG_DEAD_TIMEOUT`] or [`STOCK_DEAD_TIMEOUT`]. Each master keeps a
//! [`Liveness`] field in its per-worker record and one [`LivenessIndex`]
//! beside the record map. Every change of a liveness field goes through
//! [`LivenessIndex::transition`], which keeps two summaries in step with
//! the records: the `Silent` suspects, so the per-tick death check
//! ([`LivenessIndex::overdue`]) walks suspects instead of every worker,
//! and the number of `Dead` records, so the live and reported counts are
//! O(1). The master's audit recounts both from the records
//! ([`LivenessIndex::audit`]).

use crate::audit::Violation;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// HOG's dead-node timeout (§III-B): a worker silent for 30 s is dead to
/// both the namenode and the JobTracker.
pub const HOG_DEAD_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Stock Hadoop 0.20's dead-node timeout, as on the dedicated cluster:
/// twice the 5-minute recheck interval plus ten 3 s heartbeats
/// (`2 × heartbeat.recheck.interval + 10 × heartbeat.interval`).
pub const STOCK_DEAD_TIMEOUT: SimDuration = SimDuration::from_secs(630);

/// A worker's liveness as one master sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Liveness {
    /// Heartbeating.
    Live,
    /// Stopped heartbeating, timeout pending: the window in which
    /// Figure 5's "reported nodes" momentarily exceeds the real pool.
    Silent,
    /// Declared dead.
    Dead,
}

/// The suspect set and dead count of one master's worker records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LivenessIndex<K> {
    /// Exactly the keys whose record is `Silent`, ascending like a full
    /// scan of an ordered record map.
    silent: BTreeSet<K>,
    /// Number of records that are `Dead`.
    dead: usize,
}

impl<K> Default for LivenessIndex<K> {
    fn default() -> Self {
        LivenessIndex {
            silent: BTreeSet::new(),
            dead: 0,
        }
    }
}

impl<K: Ord + Copy> LivenessIndex<K> {
    /// `key`'s record moved from `from` (`None`: it had no record) to
    /// `to`. Call it on every change of a record's liveness field,
    /// including a fresh registration that replaces an old record.
    /// Live→Live touches nothing, so a heartbeat pays no set lookup.
    pub fn transition(&mut self, key: K, from: Option<Liveness>, to: Liveness) {
        if from == Some(to) {
            return;
        }
        match from {
            Some(Liveness::Silent) => {
                self.silent.remove(&key);
            }
            Some(Liveness::Dead) => self.dead -= 1,
            Some(Liveness::Live) | None => {}
        }
        match to {
            Liveness::Silent => {
                self.silent.insert(key);
            }
            Liveness::Dead => self.dead += 1,
            Liveness::Live => {}
        }
    }

    /// The suspects whose last heartbeat (read through `last_heartbeat`)
    /// is at least `timeout` old at `now`, in ascending key order.
    pub fn overdue(
        &self,
        now: SimTime,
        timeout: SimDuration,
        last_heartbeat: impl Fn(K) -> Option<SimTime>,
    ) -> Vec<K> {
        self.silent
            .iter()
            .copied()
            .filter(|&k| last_heartbeat(k).is_some_and(|hb| now.saturating_since(hb) >= timeout))
            .collect()
    }

    /// Workers the master still believes alive (`Live` or `Silent`) out
    /// of `records`.
    pub fn reported_live(&self, records: usize) -> usize {
        records - self.dead
    }

    /// Number of `Silent` records: the suspects.
    pub fn suspect_count(&self) -> usize {
        self.silent.len()
    }

    /// Workers heartbeating right now out of `records`.
    pub fn live_count(&self, records: usize) -> usize {
        records - self.dead - self.silent.len()
    }

    /// Recount the suspect set and the dead count from `records` (every
    /// key with its liveness field) and report each one that drifted.
    /// `layer` attributes the violations; `what` names the worker kind.
    pub fn audit(
        &self,
        layer: &'static str,
        what: &str,
        records: impl Iterator<Item = (K, Liveness)>,
    ) -> Vec<Violation> {
        let mut silent = BTreeSet::new();
        let mut dead = 0;
        for (k, l) in records {
            match l {
                Liveness::Silent => {
                    silent.insert(k);
                }
                Liveness::Dead => dead += 1,
                Liveness::Live => {}
            }
        }
        let mut out = Vec::new();
        if silent != self.silent {
            out.push(Violation::new(
                layer,
                format!(
                    "silent-{what} set drifted: cached {}, recounted {}",
                    self.silent.len(),
                    silent.len()
                ),
            ));
        }
        if dead != self.dead {
            out.push(Violation::new(
                layer,
                format!(
                    "dead-{what} count drifted: cached {}, recounted {dead}",
                    self.dead
                ),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Worker records (liveness and last heartbeat) with their index.
    #[derive(Default)]
    struct Master {
        records: BTreeMap<u32, (Liveness, SimTime)>,
        index: LivenessIndex<u32>,
    }

    impl Master {
        fn register(&mut self, key: u32, now: SimTime) {
            let old = self.records.insert(key, (Liveness::Live, now));
            self.index
                .transition(key, old.map(|(l, _)| l), Liveness::Live);
        }

        fn set(&mut self, key: u32, to: Liveness, now: SimTime) {
            let rec = self.records.get_mut(&key).unwrap();
            self.index.transition(key, Some(rec.0), to);
            *rec = (to, now);
        }

        /// The audit is clean and the counts equal a recount.
        fn assert_consistent(&self) {
            let audit = self.index.audit("test", "worker", self.liveness());
            assert!(audit.is_empty(), "{audit:?}");
            let n = self.records.len();
            let count = |want| self.liveness().filter(|&(_, l)| l == want).count();
            assert_eq!(self.index.reported_live(n), n - count(Liveness::Dead));
            assert_eq!(self.index.live_count(n), count(Liveness::Live));
        }

        fn liveness(&self) -> impl Iterator<Item = (u32, Liveness)> + '_ {
            self.records.iter().map(|(&k, &(l, _))| (k, l))
        }
    }

    #[test]
    fn every_transition_keeps_the_index_equal_to_a_recount() {
        let t = SimTime::ZERO;
        let mut m = Master::default();
        m.register(1, t); // from absent
        m.assert_consistent();
        m.register(1, t); // from Live
        m.assert_consistent();
        m.set(1, Liveness::Silent, t); // Live → Silent
        m.assert_consistent();
        m.register(1, t); // from Silent
        m.assert_consistent();
        m.set(1, Liveness::Silent, t);
        m.set(1, Liveness::Live, t); // Silent → Live
        m.assert_consistent();
        m.set(1, Liveness::Dead, t); // Live → Dead
        m.assert_consistent();
        m.register(1, t); // from Dead
        m.assert_consistent();
        m.register(2, t);
        m.set(2, Liveness::Silent, t);
        m.set(2, Liveness::Dead, t); // Silent → Dead
        m.assert_consistent();
        m.set(2, Liveness::Dead, t); // Dead → Dead
        m.assert_consistent();
        assert_eq!((m.index.reported_live(2), m.index.live_count(2)), (1, 1));
    }

    #[test]
    fn live_to_live_touches_nothing() {
        let mut m = Master::default();
        for k in 0..4 {
            m.register(k, SimTime::ZERO);
        }
        m.set(1, Liveness::Silent, SimTime::ZERO);
        m.set(2, Liveness::Dead, SimTime::ZERO);
        let before = m.index.clone();
        m.set(0, Liveness::Live, SimTime::from_secs(3));
        m.register(3, SimTime::from_secs(3));
        assert_eq!(m.index, before);
    }

    #[test]
    fn overdue_returns_the_expired_suspects_in_ascending_order() {
        let timeout = SimDuration::from_secs(30);
        let mut m = Master::default();
        for k in 0..6 {
            m.register(k, SimTime::ZERO);
        }
        // Silenced out of key order; worker 2 dies, worker 5 stays live.
        m.set(4, Liveness::Silent, SimTime::from_secs(0));
        m.set(1, Liveness::Silent, SimTime::from_secs(10));
        m.set(3, Liveness::Silent, SimTime::from_secs(20));
        m.set(0, Liveness::Silent, SimTime::from_secs(5));
        m.set(2, Liveness::Dead, SimTime::from_secs(0));
        let hb = |k: u32| m.records.get(&k).map(|&(_, t)| t);
        let at = |s| m.index.overdue(SimTime::from_secs(s), timeout, hb);
        assert_eq!(at(29), Vec::<u32>::new());
        assert_eq!(at(35), vec![0, 4], "exactly at the timeout counts");
        assert_eq!(at(40), vec![0, 1, 4]);
        assert_eq!(at(50), vec![0, 1, 3, 4]);
        // Live and dead workers are never suspects, however old.
        assert_eq!(at(10_000), vec![0, 1, 3, 4]);
    }

    #[test]
    fn audit_flags_a_drifted_suspect_set_and_dead_count() {
        let mut m = Master::default();
        for k in 0..3 {
            m.register(k, SimTime::ZERO);
        }
        m.set(0, Liveness::Silent, SimTime::ZERO);
        m.set(1, Liveness::Dead, SimTime::ZERO);
        m.assert_consistent();
        // A record changed without going through the index.
        m.records.get_mut(&2).unwrap().0 = Liveness::Silent;
        let v = m.index.audit("hdfs", "datanode", m.liveness());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].layer, "hdfs");
        assert!(v[0]
            .detail
            .contains("silent-datanode set drifted: cached 1, recounted 2"));
        m.records.get_mut(&2).unwrap().0 = Liveness::Dead;
        let v = m.index.audit("mapreduce", "tracker", m.liveness());
        assert_eq!(v.len(), 1);
        assert!(v[0]
            .detail
            .contains("dead-tracker count drifted: cached 1, recounted 2"));
    }

    #[derive(Clone, Debug)]
    enum Op {
        Register(u32),
        Set(u32, Liveness),
    }

    fn op() -> impl Strategy<Value = Op> {
        let liveness = prop_oneof![
            Just(Liveness::Live),
            Just(Liveness::Silent),
            Just(Liveness::Dead)
        ];
        prop_oneof![
            (0u32..6).prop_map(Op::Register),
            (0u32..6, liveness).prop_map(|(k, l)| Op::Set(k, l)),
        ]
    }

    proptest! {
        #[test]
        fn prop_any_transition_sequence_stays_consistent(
            ops in proptest::collection::vec(op(), 1..60),
        ) {
            let mut m = Master::default();
            for op in ops {
                match op {
                    Op::Register(k) => m.register(k, SimTime::ZERO),
                    Op::Set(k, to) if m.records.contains_key(&k) => {
                        m.set(k, to, SimTime::ZERO)
                    }
                    Op::Set(..) => {}
                }
                m.assert_consistent();
            }
        }
    }
}
