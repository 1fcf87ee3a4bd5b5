//! The master stack: Namenode + JobTracker behind an explicit lifecycle.
//!
//! [`SingleMasterStack`] owns the two master state machines: one active
//! master, one cold standby restored from the latest checkpoint. The
//! mediator drives the live masters through its public `nn`/`jt` fields
//! and the *checkpoint / crash / promote* lifecycle through its methods.
//!
//! # Checkpointing
//!
//! With a [`FailoverConfig`] armed, the active master serializes its
//! whole state every `checkpoint_interval`: the namespace + block map
//! (fsimage, [`hog_hdfs::Namenode::export_fsimage`]) and the job/task
//! ledger ([`hog_mapreduce::JobTracker::export_ledger`]). In the
//! simulation the checkpoint is a deep clone of both state machines;
//! the deterministic export strings exist so tests can prove the clone
//! is bit-faithful ([`MasterCheckpoint::fingerprint`]). Mutations since
//! the last checkpoint form the *edit window* and are lost on a crash.
//!
//! An interval of zero is *mirror mode*: the standby applies every
//! mutation synchronously, so a crash loses nothing, causes no downtime,
//! and the run is fingerprint-identical to a crash-free one.
//!
//! # Crash and promotion
//!
//! A [`hog_chaos::Fault::MasterCrash`] kills the active master. The
//! stack goes [`MasterStatus::Down`]: heartbeats go unanswered, no
//! scheduling or death detection happens, client submissions buffer.
//! After [`crate::config::DETECTION_TIMEOUT`] the standby promotes: the checkpoint clones
//! are swapped in as the live masters and the *ghosts* (the crashed
//! masters' final state) are handed back to the mediator, which uses
//! them as ground truth for reconciliation — block-report replay,
//! tracker re-registration, and requeueing work the restored ledger
//! never heard about. The recovery protocol itself lives in
//! `cluster::Cluster::on_master_promote`; this module only manages the
//! lifecycle and the accounting.

use crate::config::FailoverConfig;
use hog_hdfs::Namenode;
use hog_mapreduce::JobTracker;
use hog_sim_core::{SimDuration, SimTime};

/// Lifecycle state of the master stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MasterStatus {
    /// The active master is serving.
    Active,
    /// The active master crashed at `since`; the standby has not
    /// promoted yet. Heartbeats are dropped, submissions buffer.
    Down {
        /// When the crash happened.
        since: SimTime,
    },
}

/// Failover accounting, threaded into [`crate::driver::RunResult`] and
/// the benchmark reports.
#[derive(Clone, Debug, Default)]
pub struct FailoverStats {
    /// `MasterCrash` faults that actually took the stack down.
    pub crashes: u64,
    /// Standby promotions completed.
    pub promotions: u64,
    /// Checkpoint timestamps, in order (empty in mirror mode).
    pub checkpoints: Vec<SimTime>,
    /// Crash → promotion gap of the most recent failover.
    pub last_recovery: SimDuration,
    /// Sum of all crash → promotion gaps.
    pub total_recovery: SimDuration,
    /// Edit window lost in the most recent failover (crash time minus
    /// last checkpoint time; zero in mirror mode).
    pub last_lost_window: SimDuration,
    /// Sum of all lost edit windows.
    pub total_lost_window: SimDuration,
    /// Trackers/datanodes re-registered during promotions (the
    /// re-registration storm size).
    pub reregistrations: u64,
    /// Jobs whose submission was lost with the crashed master and
    /// resubmitted by the client retry path.
    pub resubmissions: u64,
    /// Client submissions that arrived during downtime and were
    /// buffered with retry/backoff instead of failing.
    pub buffered_submissions: u64,
}

/// A point-in-time snapshot of both masters.
#[derive(Clone)]
pub struct MasterCheckpoint {
    /// When the checkpoint was taken.
    pub taken_at: SimTime,
    /// Deep copy of the namenode (namespace + block map + liveness).
    pub nn: Namenode,
    /// Deep copy of the jobtracker (job/task ledger + tracker table).
    pub jt: JobTracker,
}

impl MasterCheckpoint {
    /// FNV-1a over the deterministic fsimage + ledger exports. Two
    /// checkpoints with the same fingerprint hold identical namespaces,
    /// block maps and job/task ledgers. Neither export carries the
    /// scheduling policy's failure history, the namenode's soft state
    /// (availability snapshot, read counters, dispatch cursor) or the
    /// JobTracker's derived state (speculation quiet instants, memoized
    /// reduce readiness). Tests use this to prove
    /// `restore(checkpoint(s)) == s`.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for part in [self.nn.export_fsimage(), self.jt.export_ledger()] {
            for b in part.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }
}

/// What [`SingleMasterStack::promote`] hands back: the crashed masters'
/// final state ("ghosts"), used by the mediator as physical ground truth
/// during reconciliation, plus when the restored state was captured.
pub struct PromotedMasters {
    /// The crashed namenode's final state.
    pub ghost_nn: Namenode,
    /// The crashed jobtracker's final state.
    pub ghost_jt: JobTracker,
    /// When the checkpoint now serving as live state was taken.
    pub checkpoint_at: SimTime,
}

/// The Namenode + JobTracker stack: one active master, one standby
/// restored from the latest periodic checkpoint. See the module docs for
/// the protocol.
pub struct SingleMasterStack {
    /// The live namenode. Public: the mediator drives it directly on
    /// every event.
    pub nn: Namenode,
    /// The live jobtracker.
    pub jt: JobTracker,
    /// Failover accounting.
    pub stats: FailoverStats,
    cfg: Option<FailoverConfig>,
    status: MasterStatus,
    checkpoint: Option<MasterCheckpoint>,
}

impl SingleMasterStack {
    /// Wrap freshly-built masters. `cfg == None` reproduces the paper's
    /// single-master deployment bit-for-bit.
    pub fn new(nn: Namenode, jt: JobTracker, cfg: Option<FailoverConfig>) -> Self {
        SingleMasterStack {
            nn,
            jt,
            stats: FailoverStats::default(),
            cfg,
            status: MasterStatus::Active,
            checkpoint: None,
        }
    }

    /// The latest checkpoint, if one has been taken.
    pub fn checkpoint(&self) -> Option<&MasterCheckpoint> {
        self.checkpoint.as_ref()
    }

    /// The armed failover configuration, if any.
    pub fn failover(&self) -> Option<FailoverConfig> {
        self.cfg
    }

    /// Current lifecycle state.
    pub fn status(&self) -> MasterStatus {
        self.status
    }

    /// Whether the stack is down (crashed, awaiting promotion).
    pub fn is_down(&self) -> bool {
        matches!(self.status, MasterStatus::Down { .. })
    }

    /// Whether a periodic checkpoint is due at `now`.
    pub fn checkpoint_due(&self, now: SimTime) -> bool {
        let Some(cfg) = self.cfg else { return false };
        if cfg.is_mirror() || self.is_down() {
            return false;
        }
        match &self.checkpoint {
            None => true,
            Some(cp) => now.saturating_since(cp.taken_at) >= cfg.checkpoint_interval,
        }
    }

    /// Take a checkpoint at `now` (deep-clone both masters).
    pub fn take_checkpoint(&mut self, now: SimTime) {
        self.checkpoint = Some(MasterCheckpoint {
            taken_at: now,
            nn: self.nn.clone(),
            jt: self.jt.clone(),
        });
        self.stats.checkpoints.push(now);
    }

    /// The active master host dies. Returns `true` if the stack actually
    /// went down (a promotion must be scheduled); `false` if the fault
    /// was absorbed — no failover configured (recorded and ignored, the
    /// paper's single-master deployment), mirror mode (the synchronous
    /// standby takes over with zero downtime), or already down.
    pub fn crash(&mut self, now: SimTime) -> bool {
        let Some(cfg) = self.cfg else {
            // Single-master deployment: nothing to promote. The fault is
            // recorded by the mediator's trace; state is untouched (the
            // paper's real answer was "restart the master by hand").
            return false;
        };
        if self.is_down() {
            return false; // crash-while-down: absorbed by the first one
        }
        if cfg.is_mirror() {
            // The synchronous standby holds an identical copy and takes
            // over within the same heartbeat: zero loss, zero downtime.
            self.stats.crashes += 1;
            self.stats.promotions += 1;
            return false;
        }
        self.stats.crashes += 1;
        self.status = MasterStatus::Down { since: now };
        true
    }

    /// The standby's detection timeout fired: swap the checkpoint in as
    /// the live masters. Returns the crashed masters' final state for
    /// reconciliation, or `None` if the stack was not down (stale
    /// promotion event — ignore).
    pub fn promote(&mut self, now: SimTime) -> Option<PromotedMasters> {
        let MasterStatus::Down { since } = self.status else {
            return None;
        };
        // Without any checkpoint the standby restores empty masters; in
        // practice the mediator takes an initial checkpoint when the
        // workload starts, so this only covers a crash before then.
        let cp = match self.checkpoint.clone() {
            Some(cp) => cp,
            None => MasterCheckpoint {
                taken_at: since,
                nn: self.nn.clone(),
                jt: self.jt.clone(),
            },
        };
        let ghost_nn = std::mem::replace(&mut self.nn, cp.nn);
        let ghost_jt = std::mem::replace(&mut self.jt, cp.jt);
        self.status = MasterStatus::Active;
        self.stats.promotions += 1;
        let recovery = now.saturating_since(since);
        self.stats.last_recovery = recovery;
        self.stats.total_recovery += recovery;
        let lost = since.saturating_since(cp.taken_at);
        self.stats.last_lost_window = lost;
        self.stats.total_lost_window += lost;
        Some(PromotedMasters {
            ghost_nn,
            ghost_jt,
            checkpoint_at: cp.taken_at,
        })
    }

    /// Failover accounting so far.
    pub fn stats(&self) -> &FailoverStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hog_hdfs::HdfsConfig;
    use hog_mapreduce::MrParams;
    use hog_sim_core::{SimRng, HOG_DEAD_TIMEOUT};

    fn stack(cfg: Option<FailoverConfig>) -> SingleMasterStack {
        let nn = Namenode::new(HdfsConfig::hog(), SimRng::seed_from_u64(7));
        let jt = JobTracker::new(MrParams::hog(), HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(8));
        SingleMasterStack::new(nn, jt, cfg)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn no_config_absorbs_crashes() {
        let mut s = stack(None);
        assert!(!s.crash(t(10)));
        assert_eq!(s.status(), MasterStatus::Active);
        assert!(!s.checkpoint_due(t(100)));
        assert!(s.promote(t(40)).is_none());
        assert_eq!(s.stats().crashes, 0);
    }

    #[test]
    fn mirror_mode_has_zero_downtime() {
        let mut s = stack(Some(FailoverConfig::mirror()));
        assert!(!s.checkpoint_due(t(100)), "mirror mode never checkpoints");
        assert!(!s.crash(t(10)), "mirror crash causes no downtime");
        assert_eq!(s.status(), MasterStatus::Active);
        assert_eq!(s.stats().crashes, 1);
        assert_eq!(s.stats().promotions, 1);
        assert_eq!(s.stats().last_recovery, SimDuration::ZERO);
    }

    #[test]
    fn checkpoint_cadence() {
        let mut s = stack(Some(FailoverConfig::every(SimDuration::from_secs(300))));
        assert!(s.checkpoint_due(t(0)), "first checkpoint is due at once");
        s.take_checkpoint(t(0));
        assert!(!s.checkpoint_due(t(299)));
        assert!(s.checkpoint_due(t(300)));
        s.take_checkpoint(t(300));
        assert_eq!(s.stats().checkpoints, vec![t(0), t(300)]);
    }

    #[test]
    fn crash_then_promote_restores_checkpoint_and_accounts() {
        let mut s = stack(Some(FailoverConfig::every(SimDuration::from_secs(300))));
        s.take_checkpoint(t(100));
        let fp = s.checkpoint().unwrap().fingerprint();
        assert!(s.crash(t(250)));
        assert!(s.is_down());
        assert!(!s.crash(t(260)), "crash-while-down is absorbed");
        assert!(!s.checkpoint_due(t(500)), "no checkpoints while down");
        let promoted = s.promote(t(280)).expect("stack was down");
        assert_eq!(promoted.checkpoint_at, t(100));
        assert_eq!(s.status(), MasterStatus::Active);
        assert_eq!(s.stats().crashes, 1);
        assert_eq!(s.stats().promotions, 1);
        assert_eq!(s.stats().last_recovery, SimDuration::from_secs(30));
        assert_eq!(s.stats().last_lost_window, SimDuration::from_secs(150));
        // The restored live state is bit-identical to the checkpoint.
        let live = MasterCheckpoint {
            taken_at: t(100),
            nn: s.nn.clone(),
            jt: s.jt.clone(),
        };
        assert_eq!(live.fingerprint(), fp);
        assert!(s.promote(t(300)).is_none(), "stale promote is a no-op");
    }
}
