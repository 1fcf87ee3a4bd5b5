//! The JobTracker: slot assignment (policy-driven via [`hog_sched`]),
//! speculation, shuffle coordination, tracker liveness and failure
//! handling.
//!
//! All scheduling *mechanism* lives here — task tables, locality
//! indices, slot accounting, the speculation index. The *choices* (job
//! order, locality gating, node admission) are delegated to the
//! [`Scheduler`] policy selected by [`MrParams::sched`]; the default
//! [FIFO policy](hog_sched::FifoSched) reproduces stock Hadoop (and the
//! pre-trait JobTracker) bit-for-bit.

use crate::config::{MrParams, FETCH_FAIL_THRESHOLD, SHUFFLE_PARALLEL, SPECULATIVE_FACTOR};
use crate::job::{
    AttemptPhase, AttemptState, JobId, JobState, JobStatus, JobSubmission, TaskKind, TaskRef,
    TaskState,
};
use crate::shuffle::{FetchOrder, ReducePlan};
use crate::tracker::TrackerState;
use crate::AttemptRef;
use hog_hdfs::BlockId;
use hog_net::{NodeId, NodeMap, RackId, SiteId, Topology};
use hog_obs::{Layer, TraceEvent, Tracer};
use hog_sched::{Gate, JobSnapshot, Scheduler, SlotKind};
use hog_sim_core::{Liveness, LivenessIndex, SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

pub use hog_sched::Locality;

/// A task handed to a tasktracker on heartbeat.
#[derive(Clone, Debug, PartialEq)]
pub enum Assignment {
    /// Run a map task.
    Map {
        /// The attempt to execute.
        attempt: AttemptRef,
        /// Input block to read.
        block: BlockId,
        /// Input bytes.
        input_bytes: u64,
        /// CPU seconds of the map function.
        cpu_secs: f64,
        /// Intermediate bytes the map writes to local scratch.
        output_bytes: u64,
        /// Locality the scheduler achieved.
        locality: Locality,
    },
    /// Run a reduce task (shuffle begins via [`JobTracker::reduce_next`]).
    Reduce {
        /// The attempt to execute.
        attempt: AttemptRef,
    },
}

impl Assignment {
    /// The attempt this assignment starts.
    pub fn attempt(&self) -> AttemptRef {
        match self {
            Assignment::Map { attempt, .. } | Assignment::Reduce { attempt } => *attempt,
        }
    }
}

/// Notifications for the mediator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JtNote {
    /// Cancel this attempt's in-flight work (a sibling won, or its job
    /// died); its slot is already freed.
    KillAttempt {
        /// The attempt to kill.
        attempt: AttemptRef,
        /// Where it was running.
        node: NodeId,
    },
    /// A job finished successfully.
    JobCompleted {
        /// The job.
        job: JobId,
    },
    /// A job exhausted a task's attempts and was killed.
    JobFailed {
        /// The job.
        job: JobId,
    },
}

/// Why an attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailReason {
    /// The tracker died under it.
    NodeLost,
    /// Local scratch disk full (paper §IV-D.2).
    DiskFull,
    /// Input block unreadable (missing or all sources dead).
    LostBlock,
    /// The node is a zombie: accepted the task, failed instantly
    /// (§IV-D.1).
    ZombieNode,
    /// A shuffle fetch could not be completed.
    FetchFailed,
}

/// What a reduce attempt should do next.
#[derive(Clone, Debug, PartialEq)]
pub enum ReduceStep {
    /// Start these shuffle fetches (order id → fetch).
    Fetch(Vec<(u64, FetchOrder)>),
    /// Nothing to do yet; the JobTracker will wake the attempt when new
    /// map output lands.
    Wait,
    /// All partitions fetched: run merge-sort + reduce, then write output.
    StartSort {
        /// CPU seconds of merge + reduce.
        cpu_secs: f64,
        /// Final output bytes to write to HDFS.
        output_bytes: u64,
        /// Output replication factor.
        replication: u16,
    },
}

/// Output of [`JobTracker::map_done`].
#[derive(Clone, Debug, Default)]
pub struct MapDoneOutput {
    /// Kill/completion notifications.
    pub notes: Vec<JtNote>,
    /// Reduce attempts that may now have fetch work.
    pub wake_reduces: Vec<AttemptRef>,
}

/// Per-job locality index. The replica locations are fixed at submission
/// (as Hadoop caches them), but membership tracks only maps still
/// *pending*: every `pending_maps` transition updates the per-node/rack/
/// site sets, so the locality ladder walks exactly the assignable
/// candidates instead of filtering ever-longer lists of finished tasks.
/// `BTreeSet` iteration is ascending by map index — the same pick the old
/// static lists produced, since those were built in ascending map order.
/// The rack tier is consulted only by rack-aware policies
/// ([`Scheduler::rack_aware`]).
#[derive(Clone, Default)]
struct LocalityIndex {
    /// Per-map `(node, rack, site)` replica triples, fixed at submission
    /// so pending-set maintenance never needs the topology again.
    locs: Vec<Vec<(NodeId, RackId, SiteId)>>,
    /// Maps still pending with a replica on this node / rack / site.
    pend_node: HashMap<NodeId, BTreeSet<u32>>,
    pend_rack: HashMap<RackId, BTreeSet<u32>>,
    pend_site: HashMap<SiteId, BTreeSet<u32>>,
}

impl LocalityIndex {
    /// Map `m` became pending: add it to its replicas' candidate sets.
    fn insert_pending(&mut self, m: u32) {
        for &(n, r, s) in &self.locs[m as usize] {
            self.pend_node.entry(n).or_default().insert(m);
            self.pend_rack.entry(r).or_default().insert(m);
            self.pend_site.entry(s).or_default().insert(m);
        }
    }

    /// Map `m` left the pending set (assigned): drop it everywhere.
    fn remove_pending(&mut self, m: u32) {
        for &(n, r, s) in &self.locs[m as usize] {
            if let Some(set) = self.pend_node.get_mut(&n) {
                set.remove(&m);
            }
            if let Some(set) = self.pend_rack.get_mut(&r) {
                set.remove(&m);
            }
            if let Some(set) = self.pend_site.get_mut(&s) {
                set.remove(&m);
            }
        }
    }
}

/// Sunk work that makes a doomed attempt's rescue *urgent* — worth a
/// copy ahead of fresh pending work. Losing this much progress (plus the
/// 30 s detector and a from-scratch rerun) costs more than making one
/// pending task wait a heartbeat; below it, rescues only fill otherwise
/// idle slots.
const RESCUE_URGENT_SUNK: SimDuration = SimDuration::from_secs(60);

/// How long a job sits out of speculation scans after one found no
/// straggler: repeated idle heartbeats stay cheap.
const SPEC_SCAN_COOLDOWN: SimDuration = SimDuration::from_secs(5);

/// One slot kind's cached policy job order. Valid while `epoch` matches
/// the JobTracker's `sched_epoch` (0 never matches — a fresh cache is
/// always stale). The buffer is reused across rebuilds, so steady-state
/// heartbeats allocate nothing.
#[derive(Clone, Default)]
struct OrderCache {
    epoch: u64,
    buf: Vec<u32>,
}

/// Scheduling / failure counters for reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct JtCounters {
    /// Map assignments at each locality level.
    pub node_local: u64,
    /// Rack-local map assignments (always 0 under FIFO, whose ladder has
    /// no rack rung).
    pub rack_local: u64,
    /// Site-local map assignments.
    pub site_local: u64,
    /// Remote map assignments.
    pub remote: u64,
    /// Speculative attempts launched.
    pub speculative: u64,
    /// Rescue copies launched on predicted-failure signals
    /// ([`Scheduler::predicts_failure`]).
    pub rescue_copies: u64,
    /// Unplanned node deaths whose running tasks already had a live
    /// rescue copy elsewhere (the prediction paid off).
    pub rescue_hits: u64,
    /// Unplanned node deaths that caught a running task with no rescue
    /// copy in flight (the predictor was late or never fired).
    pub rescue_misses: u64,
    /// Attempt failures.
    pub failures: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Jobs failed.
    pub jobs_failed: u64,
}

/// Aggregate task backlog over incomplete jobs (one elastic-controller
/// input; also exported as hog-obs gauges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Backlog {
    /// Map tasks not yet (re)assigned.
    pub pending_maps: usize,
    /// Map attempts currently running.
    pub running_maps: usize,
    /// Reduce tasks not yet assigned.
    pub pending_reduces: usize,
    /// Reduce attempts currently running.
    pub running_reduces: usize,
    /// Jobs still running tasks.
    pub active_jobs: usize,
}

/// The MapReduce master. See the crate docs for the modelled behaviours.
///
/// `Clone` snapshots the JobTracker wholesale — job/task ledger, tracker
/// records, scheduling policy (failure history included) and rng. The
/// master-failover checkpoint in `hog-core` is exactly such a snapshot.
#[derive(Clone)]
pub struct JobTracker {
    cfg: MrParams,
    /// Silence after which a tracker is declared dead: the namenode's
    /// dead-node timeout, so both masters time a worker out together.
    dead_timeout: SimDuration,
    jobs: Vec<JobState>,
    locality: Vec<LocalityIndex>,
    /// Incomplete jobs in submission order (the queue policies reorder).
    fifo: Vec<JobId>,
    /// Tracker records by node id: an O(1) probe per heartbeat, and
    /// ascending iteration for the death check, the audit and the
    /// ledger.
    trackers: NodeMap<TrackerState>,
    /// The failure detector's suspect set and dead count over
    /// `trackers` (audited).
    live: LivenessIndex<NodeId>,
    /// Reduce attempts that returned `StartSort` already.
    sorting: HashSet<AttemptRef>,
    /// Attempts launched as predicted-failure rescues, kept to tell
    /// prediction hits from misses when the doomed node actually dies.
    rescue_attempts: HashSet<AttemptRef>,
    /// Negative cache for rescue scans, per slot kind × urgency tier:
    /// an unsuccessful scan at `t` suppresses rescans of that tier until
    /// the clock moves on, so heartbeats within one master tick pay for
    /// at most one walk each.
    rescue_last_scan: [[Option<SimTime>; 2]; 2],
    /// The slot-assignment policy (chosen by [`MrParams::sched`]).
    sched: Box<dyn Scheduler>,
    rng: SimRng,
    counters: JtCounters,
    tracer: Tracer,
    /// Monotonic epoch, bumped on every scheduling-relevant mutation
    /// (job submitted/retired, a task changed pending↔running). Guards
    /// the cached policy orders and, transitively, the pending locality
    /// index invariants (see DESIGN §15).
    sched_epoch: u64,
    /// Cached policy job orders (`[map, reduce]`), valid while their
    /// epoch matches `sched_epoch` ([`Scheduler::job_order`] is pure).
    order_cache: [OrderCache; 2],
    /// The speculation quiet instant per slot kind (`[map, reduce]`): no
    /// `Running` job can pass both the scan cooldown and the mean test
    /// before it, so an idle heartbeat earlier than it skips the scan.
    /// Recomputed after a scan that launched nothing; cleared (`None`,
    /// scan on the next heartbeat) when a task succeeds or a job is
    /// submitted. Derived state, audited against a recount and left out
    /// of the ledger.
    spec_quiet: [Option<SimTime>; 2],
    /// Reused snapshot scratch for [`Scheduler::job_order`] rebuilds.
    snap_buf: Vec<JobSnapshot>,
    /// Aggregate backlog over incomplete jobs, maintained incrementally
    /// at every pending/running transition so `backlog()` is O(1) per
    /// master tick (audited against a full recount).
    agg: Backlog,
}

impl TaskKind {
    fn as_str(self) -> &'static str {
        match self {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        }
    }

    /// The policy's slot kind for this task kind.
    fn slot(self) -> SlotKind {
        match self {
            TaskKind::Map => SlotKind::Map,
            TaskKind::Reduce => SlotKind::Reduce,
        }
    }
}

/// The copy budget rescue and speculation share: `t` is unfinished,
/// already running somewhere, below `max_copies` running attempts, and
/// not running on the heartbeating node (`on_node`).
fn may_copy(t: &TaskState, max_copies: usize, on_node: bool) -> bool {
    let running = t.running_attempts();
    !t.done && running >= 1 && running < max_copies && !on_node
}

/// The non-empty sets of a pending-locality map (removals leave empty
/// sets behind, which the audit must not count as drift).
fn nonempty<K: Copy + Eq + std::hash::Hash>(
    m: &HashMap<K, BTreeSet<u32>>,
) -> HashMap<K, BTreeSet<u32>> {
    m.iter()
        .filter(|(_, s)| !s.is_empty())
        .map(|(&k, s)| (k, s.clone()))
        .collect()
}

/// `items` in ascending order (deterministic ledger lines from hash
/// maps and sets).
fn sorted<T: Ord>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut v: Vec<T> = items.collect();
    v.sort();
    v
}

impl FailReason {
    fn as_str(self) -> &'static str {
        match self {
            FailReason::NodeLost => "node_lost",
            FailReason::DiskFull => "disk_full",
            FailReason::LostBlock => "lost_block",
            FailReason::ZombieNode => "zombie_node",
            FailReason::FetchFailed => "fetch_failed",
        }
    }
}

impl JobTracker {
    /// A JobTracker with the given parameters that declares a tracker
    /// dead after `dead_timeout` of silence; the slot-assignment policy
    /// comes from [`MrParams::sched`].
    pub fn new(cfg: MrParams, dead_timeout: SimDuration, rng: SimRng) -> Self {
        JobTracker {
            dead_timeout,
            jobs: Vec::new(),
            locality: Vec::new(),
            fifo: Vec::new(),
            trackers: NodeMap::new(),
            live: LivenessIndex::default(),
            sorting: HashSet::new(),
            rescue_attempts: HashSet::new(),
            rescue_last_scan: [[None; 2]; 2],
            sched: hog_sched::build(cfg.sched),
            cfg,
            rng,
            counters: JtCounters::default(),
            tracer: Tracer::disabled(),
            sched_epoch: 1,
            order_cache: [OrderCache::default(), OrderCache::default()],
            spec_quiet: [None; 2],
            snap_buf: Vec::new(),
            agg: Backlog::default(),
        }
    }

    /// Invalidate the cached job orders: something a policy snapshot
    /// reflects (queue membership, pending/running counts) changed.
    #[inline]
    fn bump_epoch(&mut self) {
        self.sched_epoch += 1;
    }

    // ------------------------------------------------------------------
    // Incremental index maintenance
    //
    // Every `pending_maps` / `pending_reduces` transition of an
    // incomplete job flows through these helpers so three structures stay
    // consistent transactionally: the per-job pending locality index, the
    // aggregate backlog counters and the scheduling epoch. Jobs already
    // terminal keep their raw sets (the ledger serializes them) but no
    // longer contribute to the indices, which only cover the fifo.
    // ------------------------------------------------------------------

    fn pending_map_insert(&mut self, jid: JobId, m: u32) {
        let job = &mut self.jobs[jid.0 as usize];
        if !job.pending_maps.insert(m) {
            return;
        }
        if job.status == JobStatus::Running {
            self.locality[jid.0 as usize].insert_pending(m);
            self.agg.pending_maps += 1;
            self.sched_epoch += 1;
        }
    }

    fn pending_map_remove(&mut self, jid: JobId, m: u32) {
        let job = &mut self.jobs[jid.0 as usize];
        if !job.pending_maps.remove(&m) {
            return;
        }
        if job.status == JobStatus::Running {
            self.locality[jid.0 as usize].remove_pending(m);
            self.agg.pending_maps -= 1;
            self.sched_epoch += 1;
        }
    }

    fn pending_reduce_insert(&mut self, jid: JobId, r: u32) {
        let job = &mut self.jobs[jid.0 as usize];
        if job.pending_reduces.insert(r) && job.status == JobStatus::Running {
            self.agg.pending_reduces += 1;
            self.sched_epoch += 1;
        }
    }

    fn pending_reduce_remove(&mut self, jid: JobId, r: u32) {
        let job = &mut self.jobs[jid.0 as usize];
        if job.pending_reduces.remove(&r) && job.status == JobStatus::Running {
            self.agg.pending_reduces -= 1;
            self.sched_epoch += 1;
        }
    }

    /// A `kind` attempt started or stopped: adjust the aggregate running
    /// counters and invalidate the cached orders.
    fn note_running_delta(&mut self, kind: TaskKind, delta: isize) {
        let slot = match kind {
            TaskKind::Map => &mut self.agg.running_maps,
            TaskKind::Reduce => &mut self.agg.running_reduces,
        };
        *slot = slot.checked_add_signed(delta).expect("running underflow");
        self.sched_epoch += 1;
    }

    /// Attach the shared trace handle (disabled by default).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The active configuration.
    pub fn config(&self) -> &MrParams {
        &self.cfg
    }

    /// Scheduling counters.
    pub fn counters(&self) -> JtCounters {
        self.counters
    }

    /// Name of the active slot-assignment policy.
    pub fn scheduler_name(&self) -> &'static str {
        self.sched.name()
    }

    /// Incomplete jobs in submission order (the raw queue the policy
    /// reorders; exposed for tests and oracles).
    pub fn job_queue(&self) -> &[JobId] {
        &self.fifo
    }

    // ------------------------------------------------------------------
    // Tracker liveness
    // ------------------------------------------------------------------

    /// A tasktracker started on `node` (living in `site`).
    pub fn register_tracker(
        &mut self,
        now: SimTime,
        node: NodeId,
        site: SiteId,
        map_slots: u8,
        reduce_slots: u8,
    ) {
        let old = self.trackers.insert(
            node,
            TrackerState::new(
                site,
                map_slots,
                reduce_slots,
                self.cfg.scratch_capacity,
                now,
            ),
        );
        self.live
            .transition(node, old.map(|t| t.liveness), Liveness::Live);
        self.sched.on_tracker_registered(node, site, now);
    }

    /// The tracker stopped heartbeating (worker preempted cleanly).
    pub fn tracker_silent(&mut self, now: SimTime, node: NodeId) {
        if let Some(t) = self.trackers.get_mut(node) {
            if t.liveness == Liveness::Live {
                self.live
                    .transition(node, Some(t.liveness), Liveness::Silent);
                t.liveness = Liveness::Silent;
                t.last_heartbeat = now;
            }
        }
    }

    /// Whether the JobTracker currently believes the tracker usable.
    pub fn tracker_live(&self, node: NodeId) -> bool {
        self.trackers
            .get(node)
            .is_some_and(|t| t.liveness == Liveness::Live)
    }

    /// Whether a tracker currently hosts running attempts *or* map
    /// outputs some unfinished reduce may still fetch. The elastic
    /// shrink avoids reclaiming either: killing a running attempt
    /// reschedules it, and killing still-needed map outputs forces the
    /// maps to re-run — both turn a voluntary shrink into rescheduling
    /// churn. Scratch stops pinning the tracker once every reduce of
    /// every job holding output here is past its shuffle (scheduled and
    /// fetches complete): from then on the outputs are dead weight, and
    /// a later re-attempt would recover through the ordinary
    /// fetch-failure → map-re-run path, exactly as after any death.
    pub fn tracker_busy(&self, node: NodeId) -> bool {
        let Some(t) = self.trackers.get(node) else {
            return false;
        };
        if !t.running.is_empty() {
            return true;
        }
        if t.scratch_used == 0 {
            return false;
        }
        self.jobs.iter().any(|job| {
            !job.all_done()
                && job.scratch_by_node.get(&node).copied().unwrap_or(0) > 0
                && (!job.pending_reduces.is_empty()
                    || job.reduce_plans.values().any(|p| !p.complete()))
        })
    }

    /// Trackers the JobTracker believes alive (Fig. 5 master view). O(1).
    pub fn reported_live(&self) -> usize {
        self.live.reported_live(self.trackers.len())
    }

    /// Aggregate task backlog over incomplete jobs — the demand half of
    /// the elastic controller's pool snapshot. O(1): the counters are
    /// maintained incrementally at every pending/running transition (and
    /// audited against a full recount in debug builds).
    pub fn backlog(&self) -> Backlog {
        self.agg
    }

    /// Recount the backlog from the job table (the audit oracle for the
    /// incremental counters `backlog` returns).
    fn recount_backlog(&self) -> Backlog {
        let mut b = Backlog::default();
        for &jid in &self.fifo {
            let job = &self.jobs[jid.0 as usize];
            if job.status != JobStatus::Running {
                continue;
            }
            b.active_jobs += 1;
            b.pending_maps += job.pending_maps.len();
            b.pending_reduces += job.pending_reduces.len();
            b.running_maps += job.running_maps as usize;
            b.running_reduces += job.running_reduces as usize;
        }
        b
    }

    /// Running slot count per incomplete job, in submission order (the
    /// per-job slot-share series hog-obs samples each master tick).
    pub fn job_shares(&self) -> impl Iterator<Item = (JobId, u32)> + '_ {
        self.fifo.iter().map(|&jid| {
            let job = &self.jobs[jid.0 as usize];
            (jid, job.running_maps + job.running_reduces)
        })
    }

    /// Jain's fairness index `J = (Σx)² / (n·Σx²)` over the running
    /// slot counts of jobs that currently want capacity (some task
    /// pending or running). 1.0 means perfectly even shares; 1/n means
    /// one job holds everything. Degenerate cases (≤ 1 contender, or
    /// nobody holds a slot yet) report 1.0.
    pub fn jain_fairness(&self) -> f64 {
        let mut n = 0usize;
        let mut sum = 0.0f64;
        let mut sumsq = 0.0f64;
        for &jid in &self.fifo {
            let job = &self.jobs[jid.0 as usize];
            if job.status != JobStatus::Running {
                continue;
            }
            let demand = job.pending_maps.len()
                + job.pending_reduces.len()
                + (job.running_maps + job.running_reduces) as usize;
            if demand == 0 {
                continue;
            }
            let share = (job.running_maps + job.running_reduces) as f64;
            n += 1;
            sum += share;
            sumsq += share * share;
        }
        if n <= 1 || sumsq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (n as f64 * sumsq)
    }

    /// The active policy's failure penalty for a site (0.0 for policies
    /// without failure history). Read by the elastic controller to pick
    /// shrink victims at churn-prone sites first.
    pub fn site_penalty(&self, site: SiteId, now: SimTime) -> f64 {
        self.sched.site_penalty(site, now)
    }

    /// Declare overdue silent trackers dead: reschedule their running
    /// attempts and re-run completed maps whose outputs died with them.
    pub fn check_dead(&mut self, now: SimTime) -> (Vec<NodeId>, Vec<JtNote>) {
        let overdue = self.live.overdue(now, self.dead_timeout, |n| {
            self.trackers.get(n).map(|t| t.last_heartbeat)
        });
        let mut notes = Vec::new();
        for &node in &overdue {
            notes.extend(self.tracker_gone(now, node, false));
        }
        (overdue, notes)
    }

    /// Gracefully retire a tracker the elastic controller is releasing.
    /// Unlike a crash this is voluntary, so it neither feeds the
    /// scheduler's failure history (a planned release is not a site
    /// fault) nor proactively re-runs completed maps for jobs whose
    /// reduces are all past their shuffle — for those the outputs are
    /// dead weight, and any later reduce re-attempt recovers through
    /// the ordinary fetch-failure path.
    pub fn decommission_tracker(&mut self, now: SimTime, node: NodeId) -> Vec<JtNote> {
        self.tracker_gone(now, node, true)
    }

    fn tracker_gone(&mut self, now: SimTime, node: NodeId, planned: bool) -> Vec<JtNote> {
        let mut notes = Vec::new();
        // One scoped borrow pulls everything the rest of the path needs,
        // so the `on_tracker_dead` policy hook below can do whatever it
        // likes to tracker state without an unwrap turning a missing
        // entry into a panic.
        let running = {
            let Some(t) = self.trackers.get_mut(node) else {
                return notes; // unknown tracker: nothing to declare
            };
            self.live.transition(node, Some(t.liveness), Liveness::Dead);
            t.liveness = Liveness::Dead;
            let running: Vec<AttemptRef> = std::mem::take(&mut t.running).into_iter().collect();
            t.scratch_used = 0;
            running
        };
        if !planned {
            self.sched.on_tracker_dead(node, now);
            // Score the predictor against reality: each attempt this
            // crash caught either had a rescue copy in flight (hit) or
            // did not (miss).
            if self.sched.prediction_enabled() {
                for &att in &running {
                    match self.rescue_outcome(att) {
                        Some(true) => self.counters.rescue_hits += 1,
                        Some(false) => self.counters.rescue_misses += 1,
                        None => {}
                    }
                }
            }
        }
        self.tracer.emit(|| {
            let kind = if planned {
                "tracker_decommissioned"
            } else {
                "tracker_dead"
            };
            TraceEvent::new(Layer::MapReduce, kind)
                .with("node", node.0)
                .with("aborted_attempts", running.len())
        });
        // Requeue running attempts (killed, not failed: no blame).
        for att in running {
            notes.extend(self.abort_attempt(now, att, false));
        }
        // Re-run completed maps whose intermediate output is gone, for
        // jobs that still need their shuffle data.
        for jid in self.fifo.clone() {
            let job = &mut self.jobs[jid.0 as usize];
            if job.status != JobStatus::Running {
                continue;
            }
            job.scratch_by_node.remove(&node);
            // Nothing needs old map output once every reduce has finished.
            if job.all_done() || job.reduces_done == job.spec.reduces {
                continue;
            }
            // A planned release only hands over trackers whose outputs no
            // unfinished reduce can still fetch (every reduce scheduled
            // and past its shuffle); verify rather than assume, so a
            // schedule change between victim selection and the kill still
            // re-runs what is genuinely needed.
            if planned
                && job.pending_reduces.is_empty()
                && job.reduce_plans.values().all(|p| p.complete())
            {
                continue;
            }
            let lost: Vec<u32> = (0..job.spec.maps())
                .filter(|&m| {
                    let t = &job.maps[m as usize];
                    t.done && t.completed_on == Some(node)
                })
                .collect();
            self.maps_lost(jid, &lost);
        }
        notes
    }

    /// Completed maps whose output is gone run again: each is undone,
    /// every running reduce's shuffle plan forgets it, and it requeues.
    /// Fetch-failure strikes are left alone.
    fn maps_lost(&mut self, jid: JobId, lost: &[u32]) {
        let job = &mut self.jobs[jid.0 as usize];
        for &m in lost {
            let task = &mut job.maps[m as usize];
            task.done = false;
            task.completed_on = None;
            job.maps_done -= 1;
            for plan in job.reduce_plans.values_mut() {
                plan.map_lost(m);
            }
        }
        for &m in lost {
            self.pending_map_insert(jid, m);
        }
    }

    // ------------------------------------------------------------------
    // Job lifecycle
    // ------------------------------------------------------------------

    /// Submit a job; split locality hints come from the submission.
    pub fn submit_job(&mut self, now: SimTime, spec: JobSubmission, topo: &Topology) -> JobId {
        let id = JobId(self.jobs.len() as u32);
        let maps = spec.maps();
        let reduces = spec.reduces as usize;
        let mut idx = LocalityIndex {
            locs: Vec::with_capacity(spec.split_locations.len()),
            ..LocalityIndex::default()
        };
        for locs in &spec.split_locations {
            idx.locs.push(
                locs.iter()
                    .map(|&n| (n, topo.rack_of(n), topo.site_of(n)))
                    .collect(),
            );
        }
        // Every map starts pending.
        for m in 0..maps {
            idx.insert_pending(m);
        }
        self.locality.push(idx);
        self.jobs.push(JobState::new(spec, now));
        self.fifo.push(id);
        self.agg.active_jobs += 1;
        self.agg.pending_maps += maps as usize;
        self.agg.pending_reduces += reduces;
        self.bump_epoch();
        self.spec_quiet = [None; 2];
        self.sched.on_job_arrived(id.0, now);
        self.tracer.emit(|| {
            let spec = &self.jobs[id.0 as usize].spec;
            TraceEvent::new(Layer::MapReduce, "job_submit")
                .with("job", id.0)
                .with("maps", spec.maps())
                .with("reduces", spec.reduces as u64)
        });
        id
    }

    /// Job state (read-only, for reports and the mediator).
    pub fn job(&self, id: JobId) -> &JobState {
        &self.jobs[id.0 as usize]
    }

    /// Number of jobs submitted so far.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Jobs not yet finished.
    pub fn incomplete_jobs(&self) -> usize {
        self.fifo.len()
    }

    /// Response time of a finished job.
    pub fn response_time(&self, id: JobId) -> Option<SimDuration> {
        let j = self.job(id);
        j.finished.map(|f| f.saturating_since(j.submitted))
    }

    // ------------------------------------------------------------------
    // Scheduling (heartbeat-driven)
    // ------------------------------------------------------------------

    /// A tasktracker heartbeat: record liveness and hand out work for its
    /// free slots (FIFO across jobs; node-local → site-local → remote for
    /// maps; slowstart-gated reduces; speculation as a fallback).
    pub fn heartbeat(&mut self, now: SimTime, node: NodeId, topo: &Topology) -> Vec<Assignment> {
        let mut out = Vec::new();
        self.heartbeat_into(now, node, topo, &mut out);
        out
    }

    /// [`JobTracker::heartbeat`] with a caller-owned assignment buffer
    /// (cleared first): the allocation-free path the batched master tick
    /// drives for every node in a coalesced heartbeat run.
    pub fn heartbeat_into(
        &mut self,
        now: SimTime,
        node: NodeId,
        topo: &Topology,
        out: &mut Vec<Assignment>,
    ) {
        out.clear();
        // One tracker lookup serves the whole heartbeat: every successful
        // assignment starts exactly one attempt of its kind on this node,
        // so the free counts can be tracked locally instead of recounting
        // the running set per slot.
        let (site, free) = {
            let Some(t) = self.trackers.get_mut(node) else {
                return;
            };
            if t.liveness == Liveness::Dead {
                return;
            }
            t.last_heartbeat = now;
            // A partition healed before the timeout: off the suspect list.
            self.live.transition(node, Some(t.liveness), Liveness::Live);
            t.liveness = Liveness::Live;
            (
                t.site,
                [
                    (TaskKind::Map, t.free_map_slots()),
                    (TaskKind::Reduce, t.free_reduce_slots()),
                ],
            )
        };
        for (kind, free) in free {
            for _ in 0..free {
                match self.assign(now, node, site, kind, topo) {
                    Some(a) => out.push(a),
                    None => break,
                }
            }
        }
    }

    fn start_attempt(&mut self, now: SimTime, task: TaskRef, node: NodeId) -> AttemptRef {
        let job = &mut self.jobs[task.job.0 as usize];
        let ts = job.task_mut(task);
        let attempt = ts.attempts.len() as u8;
        ts.attempts.push(AttemptState {
            node,
            started: now,
            phase: AttemptPhase::Running,
        });
        job.note_attempt_started(task.kind, task.index, attempt, now);
        let att = AttemptRef { task, attempt };
        self.note_running_delta(task.kind, 1);
        self.trackers
            .get_mut(node)
            .expect("attempts start on registered trackers")
            .running
            .insert(att);
        self.tracer.emit(|| {
            TraceEvent::new(Layer::MapReduce, "attempt_start")
                .with("job", task.job.0)
                .with("kind", task.kind.as_str())
                .with("task", task.index)
                .with("attempt", attempt as u64)
                .with("node", node.0)
        });
        att
    }

    /// The policy's assignment order for one `kind` slot, served from the
    /// epoch-guarded cache while nothing scheduling-relevant changed since
    /// the last rebuild ([`Scheduler::job_order`] is pure, so a cached
    /// order is the one a fresh call would return).
    /// The cache is *taken out* (so the caller can iterate it while
    /// mutating `self`) and must be handed back via [`JobTracker::put_order`];
    /// a rebuild reuses both the snapshot scratch and the order buffer, so
    /// the steady state allocates nothing.
    fn take_order(&mut self, kind: SlotKind) -> OrderCache {
        let slot = kind as usize;
        let mut cache = std::mem::take(&mut self.order_cache[slot]);
        if cache.epoch != self.sched_epoch {
            self.snap_buf.clear();
            for (queue_pos, &jid) in self.fifo.iter().enumerate() {
                let job = &self.jobs[jid.0 as usize];
                let (pending, running) = match kind {
                    SlotKind::Map => (job.pending_maps.len() as u32, job.running_maps),
                    SlotKind::Reduce => (job.pending_reduces.len() as u32, job.running_reduces),
                };
                self.snap_buf.push(JobSnapshot {
                    id: jid.0,
                    queue_pos,
                    pending,
                    running,
                });
            }
            cache.buf.clear();
            self.sched.job_order(&self.snap_buf, kind, &mut cache.buf);
            cache.epoch = self.sched_epoch;
        }
        cache
    }

    /// Return an order taken with [`JobTracker::take_order`]. If the epoch
    /// moved while the caller held it (an assignment happened), the stored
    /// epoch no longer matches and the next take rebuilds.
    fn put_order(&mut self, kind: SlotKind, cache: OrderCache) {
        self.order_cache[kind as usize] = cache;
    }

    /// Fill one free `kind` slot on `node` (in `site`): an urgent rescue
    /// (maps only), else pending work in policy order, else a rescue copy
    /// off a predicted-doomed node, else a speculative copy of a
    /// straggler.
    fn assign(
        &mut self,
        now: SimTime,
        node: NodeId,
        site: SiteId,
        kind: TaskKind,
        topo: &Topology,
    ) -> Option<Assignment> {
        let pending = match kind {
            TaskKind::Map => self.agg.pending_maps,
            TaskKind::Reduce => self.agg.pending_reduces,
        };
        // A slot that can receive nothing — nothing of this kind pending,
        // no rescue pass, and no speculation scan due — gets nothing
        // whatever `admit` answers. `admit` and `allow_speculation` are
        // pure (`&self`), so not asking them is exact.
        if pending == 0 && !self.sched.prediction_enabled() && self.speculation_idle(now, kind) {
            return None;
        }
        if !self.sched.admit(node, site, kind.slot(), now) {
            return None;
        }
        // Urgent rescues outrank fresh maps: an attempt with substantial
        // sunk work on a doomed node loses all of it when the node dies,
        // while a pending task merely waits one more heartbeat. Without
        // this tier a backlogged preemption wave — when every heartbeat
        // finds pending work — starves the rescue path exactly when it
        // matters most. Reduces get no urgent tier: a reduce copy
        // re-fetches its whole shuffle over the same (often cross-site)
        // links the original is using, so buying one at the cost of a
        // fresh assignment doubles the most expensive traffic in the
        // system — a measured net loss in BENCH_churn. On an otherwise
        // idle slot the copy only costs the duplicate fetch, which the
        // relative placement bar and the site-median gate keep rare
        // enough to pay.
        if kind == TaskKind::Map && self.sched.prediction_enabled() {
            if let Some(a) = self.rescue(now, node, kind, topo, RESCUE_URGENT_SUNK) {
                return Some(a);
            }
        }
        // With nothing of this kind pending in any job, the walk below
        // cannot pick anything, so it never reaches `locality_gate` or
        // `launch`; skipping it (and the pure order it walks) is exact.
        if pending > 0 {
            let order = self.take_order(kind.slot());
            let picked = match kind {
                TaskKind::Map => self.try_assign_map(now, node, site, topo, &order.buf),
                TaskKind::Reduce => self.try_assign_reduce(now, node, topo, &order.buf),
            };
            self.put_order(kind.slot(), order);
            if picked.is_some() {
                return picked;
            }
        }
        // Nothing pending anywhere: rescue tasks off predicted-doomed
        // nodes first (more urgent than stragglers), then speculate.
        if self.sched.prediction_enabled() {
            if let Some(a) = self.rescue(now, node, kind, topo, SimDuration::ZERO) {
                return Some(a);
            }
        }
        self.speculate(now, node, site, kind, topo)
    }

    fn try_assign_map(
        &mut self,
        now: SimTime,
        node: NodeId,
        site: SiteId,
        topo: &Topology,
        order: &[u32],
    ) -> Option<Assignment> {
        let rack = topo.rack_of(node);
        let rack_aware = self.sched.rack_aware();
        for &jid in order {
            let jid = JobId(jid);
            let job = &self.jobs[jid.0 as usize];
            if job.status != JobStatus::Running
                || job.blacklisted(node, self.cfg.blacklist_threshold)
            {
                continue;
            }
            if job.pending_maps.is_empty() {
                continue;
            }
            // The index sets hold only pending maps, so membership is
            // free; with no backoffs recorded every candidate is
            // eligible without a per-task lookup.
            let no_backoff = job.retry_after.is_empty();
            let ok = |m: &&u32| no_backoff || job.retry_eligible(TaskKind::Map, **m, now);
            // Walk the locality ladder: node → (rack) → site → remote.
            // The rack rung only exists for rack-aware policies; FIFO
            // keeps the paper's exact three-level ladder.
            let idx = &self.locality[jid.0 as usize];
            let mut pick: Option<(u32, Locality)> = None;
            if let Some(cands) = idx.pend_node.get(&node) {
                if let Some(&m) = cands.iter().find(ok) {
                    pick = Some((m, Locality::NodeLocal));
                }
            }
            if pick.is_none() && rack_aware {
                if let Some(cands) = idx.pend_rack.get(&rack) {
                    if let Some(&m) = cands.iter().find(ok) {
                        pick = Some((m, Locality::RackLocal));
                    }
                }
            }
            if pick.is_none() {
                if let Some(cands) = idx.pend_site.get(&site) {
                    if let Some(&m) = cands.iter().find(ok) {
                        pick = Some((m, Locality::SiteLocal));
                    }
                }
            }
            // Remote (lowest eligible pending index).
            if pick.is_none() {
                pick = job
                    .pending_maps
                    .iter()
                    .find(ok)
                    .map(|&m| (m, Locality::Remote));
            }
            let Some((m, locality)) = pick else {
                continue; // everything pending is cooling down
            };
            // Delay scheduling: the policy may decline the best level on
            // offer, leaving the job's tasks pending in the hope that a
            // better-placed slot heartbeats soon.
            if self.sched.locality_gate(jid.0, locality, now) == Gate::Defer {
                continue;
            }
            self.pending_map_remove(jid, m);
            let task = TaskRef {
                job: jid,
                kind: TaskKind::Map,
                index: m,
            };
            return Some(self.launch(now, task, node, locality, topo));
        }
        None
    }

    fn try_assign_reduce(
        &mut self,
        now: SimTime,
        node: NodeId,
        topo: &Topology,
        order: &[u32],
    ) -> Option<Assignment> {
        for &jid in order {
            let jid = JobId(jid);
            let job = &self.jobs[jid.0 as usize];
            if job.status != JobStatus::Running
                || job.blacklisted(node, self.cfg.blacklist_threshold)
                || !job.slowstart_reached(self.cfg.reduce_slowstart)
                || job.pending_reduces.is_empty()
            {
                continue;
            }
            let no_backoff = job.retry_after.is_empty();
            let Some(&r) = job
                .pending_reduces
                .iter()
                .find(|r| no_backoff || job.retry_eligible(TaskKind::Reduce, **r, now))
            else {
                continue; // all pending reduces cooling down
            };
            self.pending_reduce_remove(jid, r);
            let task = TaskRef {
                job: jid,
                kind: TaskKind::Reduce,
                index: r,
            };
            return Some(self.launch(now, task, node, Locality::Remote, topo));
        }
        None
    }

    /// Start `task` on `node` and build its assignment: a map counts the
    /// `locality` it achieved and reads its input block from the spec; a
    /// reduce gets its shuffle plan (and ignores `locality`). Then the
    /// policy hears of the assignment. Every assignment path — pending
    /// work, rescue and speculation — launches through here.
    fn launch(
        &mut self,
        now: SimTime,
        task: TaskRef,
        node: NodeId,
        locality: Locality,
        topo: &Topology,
    ) -> Assignment {
        let attempt = self.start_attempt(now, task, node);
        let job = task.job.0;
        if task.kind == TaskKind::Reduce {
            self.init_reduce_plan(attempt, topo);
            self.sched
                .on_assigned(job, SlotKind::Reduce, node, None, now);
            return Assignment::Reduce { attempt };
        }
        match locality {
            Locality::NodeLocal => self.counters.node_local += 1,
            Locality::RackLocal => self.counters.rack_local += 1,
            Locality::SiteLocal => self.counters.site_local += 1,
            Locality::Remote => self.counters.remote += 1,
        }
        self.sched
            .on_assigned(job, SlotKind::Map, node, Some(locality), now);
        let spec = &self.jobs[job as usize].spec;
        let (block, input_bytes) = spec.input_blocks[task.index as usize];
        Assignment::Map {
            attempt,
            block,
            input_bytes,
            cpu_secs: spec.map_cpu_secs,
            output_bytes: spec.map_output_bytes,
            locality,
        }
    }

    /// Populate a fresh reduce attempt's shuffle plan with every map
    /// output already completed. Maps whose output sits on a tracker the
    /// JobTracker already knows is dead (e.g. decommissioned by the
    /// elastic controller after its reduces finished shuffling, then
    /// needed again by this re-attempt) are requeued immediately instead
    /// of being handed out as doomed fetch sources — burning a
    /// fetch-failure strike cycle per map just to rediscover a death the
    /// master already observed would stretch recovery by hours.
    fn init_reduce_plan(&mut self, att: AttemptRef, topo: &Topology) {
        let jid = att.task.job;
        let part = self.partition_bytes(jid);
        let mut plan = ReducePlan::new(self.jobs[jid.0 as usize].spec.maps());
        let mut lost: Vec<u32> = Vec::new();
        for (m, t) in self.jobs[jid.0 as usize].maps.iter().enumerate() {
            let Some(n) = t.completed_on.filter(|_| t.done) else {
                continue;
            };
            if self
                .trackers
                .get(n)
                .is_some_and(|t| t.liveness == Liveness::Dead)
            {
                lost.push(m as u32);
            } else {
                plan.map_available(m as u32, n, topo.site_of(n), part);
            }
        }
        self.maps_lost(jid, &lost);
        self.jobs[jid.0 as usize].reduce_plans.insert(att, plan);
    }

    /// Bytes of one map's partition destined for one reduce.
    fn partition_bytes(&self, job: JobId) -> u64 {
        let spec = &self.jobs[job.0 as usize].spec;
        spec.map_output_bytes / spec.reduces.max(1) as u64
    }

    /// One rescue copy of a `kind` task currently running on a node the
    /// policy predicts will die ([`Scheduler::predicts_failure`]),
    /// launched *before* the 30 s liveness detector can fire. Rescues
    /// share speculation's ≤ 2 copy budget, so a rescued task is never
    /// rescued twice; placement is judged per doomed candidate by
    /// [`Scheduler::allow_rescue`], a bar *relative* to the node being
    /// rescued from so the pass keeps working when a preemption wave
    /// taints the whole pool.
    fn rescue(
        &mut self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
        topo: &Topology,
        min_sunk: SimDuration,
    ) -> Option<Assignment> {
        let slot_kind = kind.slot();
        // Negative cache: a fruitless scan suppresses rescans of this
        // urgency tier until the clock moves (coalesced heartbeats share
        // one instant). The tiers cache separately — a fruitless urgent
        // scan says nothing about the wider any-sunk scan.
        let tier = usize::from(min_sunk > SimDuration::ZERO);
        if self.rescue_last_scan[slot_kind as usize][tier]
            .is_some_and(|t| now.saturating_since(t) == SimDuration::ZERO)
        {
            return None;
        }
        let order = self.take_order(slot_kind);
        let picked = self.try_rescue(now, node, kind, topo, &order.buf, min_sunk);
        self.put_order(slot_kind, order);
        if picked.is_none() {
            self.rescue_last_scan[slot_kind as usize][tier] = Some(now);
        }
        picked
    }

    fn try_rescue(
        &mut self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
        topo: &Topology,
        order: &[u32],
        min_sunk: SimDuration,
    ) -> Option<Assignment> {
        for &jid in order {
            let jid = JobId(jid);
            let job = &self.jobs[jid.0 as usize];
            if job.status != JobStatus::Running
                || job.blacklisted(node, self.cfg.blacklist_threshold)
            {
                continue;
            }
            let max_copies = self.cfg.max_task_copies as usize;
            let tasks = match kind {
                TaskKind::Map => &job.maps,
                TaskKind::Reduce => &job.reduces,
            };
            // Walk the whole running index: unlike speculation there is
            // no age cutoff (doom is a property of the node, not the
            // attempt), so the negative cache above does the cost control.
            // `min_sunk` filters the urgent tier to attempts whose sunk
            // work is actually worth outranking fresh assignments for.
            // Candidates are taken in task-index order (BTreeMap), not
            // sunk-work order: the oldest running attempts are mostly
            // stragglers, whose slowness is task-intrinsic — a copy of
            // one is just as slow, so chasing sunk work buys the most
            // expensive duplicates with the least residual exposure.
            let mut doomed: BTreeMap<u32, NodeId> = BTreeMap::new();
            let mut on_node: HashSet<u32> = HashSet::new();
            for &(start, k, index, attempt) in &job.running_by_start {
                if k != kind {
                    continue;
                }
                let a = &tasks[index as usize].attempts[attempt as usize];
                debug_assert_eq!(a.phase, AttemptPhase::Running);
                if a.node == node {
                    on_node.insert(index);
                } else if now.saturating_since(start) >= min_sunk
                    && self.sched.marks_doomed(a.node, topo.site_of(a.node), now)
                {
                    doomed.insert(index, a.node);
                }
            }
            let site = topo.site_of(node);
            let candidate = doomed.iter().find(|&(&index, &dn)| {
                may_copy(&tasks[index as usize], max_copies, on_node.contains(&index))
                    && self
                        .sched
                        .allow_rescue(node, site, dn, topo.site_of(dn), now)
            });
            let Some((&index, _)) = candidate else {
                continue;
            };
            self.counters.rescue_copies += 1;
            self.tracer.emit(|| {
                TraceEvent::new(Layer::MapReduce, "rescue")
                    .with("job", jid.0)
                    .with("kind", kind.as_str())
                    .with("task", index)
                    .with("node", node.0)
            });
            // A rescue map reads the same fixed replica set as the
            // doomed original, so it gets whatever locality the rescuing
            // node actually has — unlike speculation, which models
            // Hadoop's blind remote re-execution.
            let locality = match kind {
                TaskKind::Map => {
                    let replicas = &self.locality[jid.0 as usize].locs[index as usize];
                    if replicas.iter().any(|&(n, _, _)| n == node) {
                        Locality::NodeLocal
                    } else if self.sched.rack_aware()
                        && replicas.iter().any(|&(_, r, _)| r == topo.rack_of(node))
                    {
                        Locality::RackLocal
                    } else if replicas.iter().any(|&(_, _, s)| s == site) {
                        Locality::SiteLocal
                    } else {
                        Locality::Remote
                    }
                }
                TaskKind::Reduce => Locality::Remote,
            };
            let task = TaskRef {
                job: jid,
                kind,
                index,
            };
            let assignment = self.launch(now, task, node, locality, topo);
            self.rescue_attempts.insert(assignment.attempt());
            return Some(assignment);
        }
        None
    }

    /// Prediction outcome for an attempt lost to an unplanned death:
    /// `Some(true)` when a rescue sibling is already running (or even
    /// finished) elsewhere, `Some(false)` when the predictor left it
    /// uncovered, `None` when the lost attempt is itself a rescue copy
    /// (the rescue was mis-placed; neither hit nor miss).
    fn rescue_outcome(&self, att: AttemptRef) -> Option<bool> {
        if self.rescue_attempts.contains(&att) {
            return None;
        }
        let ts = self.jobs[att.task.job.0 as usize].task(att.task);
        let hit = ts.attempts.iter().enumerate().any(|(i, a)| {
            i as u8 != att.attempt
                && matches!(a.phase, AttemptPhase::Running | AttemptPhase::Succeeded)
                && self.rescue_attempts.contains(&AttemptRef {
                    task: att.task,
                    attempt: i as u8,
                })
        });
        Some(hit)
    }

    /// One speculative attempt for a straggling `kind` task, if any
    /// qualifies (paper: task 1/3 slower than average; ≤ 2 copies).
    ///
    /// Candidates are found through the job's [`JobState::running_by_start`]
    /// index — the oldest-first walk stops at the first attempt too young
    /// to be a straggler, the same bucketed-queue trick the Namenode uses
    /// for its under-replication scan, so the cost is O(running stragglers)
    /// rather than O(tasks) per idle heartbeat.
    ///
    /// Before the kind's speculation quiet instant no job can pass the
    /// scan cooldown and the mean test, so the scan would neither launch
    /// nor stamp anything: it is skipped, before the pure
    /// `allow_speculation` is asked. Eager-copy mode has no cooldown and
    /// always scans.
    fn speculate(
        &mut self,
        now: SimTime,
        node: NodeId,
        site: SiteId,
        kind: TaskKind,
        topo: &Topology,
    ) -> Option<Assignment> {
        if self.speculation_idle(now, kind) || !self.sched.allow_speculation(node, site, now) {
            return None;
        }
        let order = self.take_order(kind.slot());
        let picked = self.try_speculate(now, node, kind, topo, &order.buf);
        self.put_order(kind.slot(), order);
        if picked.is_none() && !self.cfg.eager_copies {
            self.spec_quiet[kind.slot() as usize] = Some(self.spec_quiet_instant(kind));
        }
        picked
    }

    /// Whether a `kind` speculation scan at `now` would find nothing to
    /// do: speculation is off, or (outside eager-copy mode) `now` is
    /// before the cached quiet instant.
    fn speculation_idle(&self, now: SimTime, kind: TaskKind) -> bool {
        !self.cfg.speculative_enabled
            || (!self.cfg.eager_copies
                && self.spec_quiet[kind.slot() as usize].is_some_and(|quiet| now < quiet))
    }

    /// The earliest instant a `Running` job could pass both the scan
    /// cooldown and the mean test of a `kind` speculation scan
    /// ([`SimTime::MAX`] when no job has a mean yet). Blacklisted jobs
    /// count too, which only makes the instant earlier.
    fn spec_quiet_instant(&self, kind: TaskKind) -> SimTime {
        let min_completed = self.cfg.speculative_min_completed;
        self.fifo
            .iter()
            .map(|&jid| &self.jobs[jid.0 as usize])
            .filter(|job| {
                job.status == JobStatus::Running
                    && match kind {
                        TaskKind::Map => job.mean_map_secs(min_completed).is_some(),
                        TaskKind::Reduce => job.mean_reduce_secs(min_completed).is_some(),
                    }
            })
            .map(|job| job.spec_last_scan + SPEC_SCAN_COOLDOWN)
            .min()
            .unwrap_or(SimTime::MAX)
    }

    fn try_speculate(
        &mut self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
        topo: &Topology,
        order: &[u32],
    ) -> Option<Assignment> {
        for &jid in order {
            let jid = JobId(jid);
            let job = &self.jobs[jid.0 as usize];
            if job.status != JobStatus::Running
                || job.blacklisted(node, self.cfg.blacklist_threshold)
            {
                continue;
            }
            if !self.cfg.eager_copies
                && now.saturating_since(job.spec_last_scan) < SPEC_SCAN_COOLDOWN
            {
                continue;
            }
            // Eager mode (multi-copy, §VI) skips the straggler threshold;
            // stock speculation requires a mean over completed tasks.
            let threshold = if self.cfg.eager_copies {
                0.0
            } else {
                let mean = match kind {
                    TaskKind::Map => job.mean_map_secs(self.cfg.speculative_min_completed),
                    TaskKind::Reduce => job.mean_reduce_secs(self.cfg.speculative_min_completed),
                };
                let Some(mean) = mean else { continue };
                mean * SPECULATIVE_FACTOR
            };
            let max_copies = self.cfg.max_task_copies as usize;
            let tasks = match kind {
                TaskKind::Map => &job.maps,
                TaskKind::Reduce => &job.reduces,
            };
            // Walk running attempts oldest-first. An attempt qualifies its
            // task when it is older than the straggler threshold and not on
            // the heartbeating node; a task is a candidate when *all* its
            // running attempts qualify. Attempts younger than the threshold
            // are never reached (the walk breaks), so their tasks fall
            // short of the all-running-attempts-old bar exactly as in the
            // pre-index linear scan.
            let mut old_ok: BTreeMap<u32, usize> = BTreeMap::new();
            let mut on_node: HashSet<u32> = HashSet::new();
            for &(started, k, index, attempt) in &job.running_by_start {
                let young = !self.cfg.eager_copies
                    && now.saturating_since(started).as_secs_f64() <= threshold;
                if young {
                    break; // later entries started even more recently
                }
                if k != kind {
                    continue;
                }
                let a = &tasks[index as usize].attempts[attempt as usize];
                debug_assert_eq!(a.phase, AttemptPhase::Running);
                if a.node == node {
                    on_node.insert(index);
                } else {
                    *old_ok.entry(index).or_insert(0) += 1;
                }
            }
            let candidate = old_ok.iter().find(|&(&index, &qualifying)| {
                let t = &tasks[index as usize];
                may_copy(t, max_copies, on_node.contains(&index))
                    && qualifying == t.running_attempts()
            });
            let Some((&index, _)) = candidate else {
                self.jobs[jid.0 as usize].spec_last_scan = now;
                continue;
            };
            self.counters.speculative += 1;
            self.tracer.emit(|| {
                TraceEvent::new(Layer::MapReduce, "speculate")
                    .with("job", jid.0)
                    .with("kind", kind.as_str())
                    .with("task", index)
                    .with("node", node.0)
            });
            let task = TaskRef {
                job: jid,
                kind,
                index,
            };
            // A speculative map is always a remote read: its draw
            // pattern is fingerprint-critical (DESIGN §16.2).
            return Some(self.launch(now, task, node, Locality::Remote, topo));
        }
        None
    }

    // ------------------------------------------------------------------
    // Attempt completion / failure
    // ------------------------------------------------------------------

    /// Is the attempt still running (guards stale mediator events)?
    pub fn attempt_active(&self, att: AttemptRef) -> bool {
        let job = &self.jobs[att.task.job.0 as usize];
        if job.status != JobStatus::Running {
            return false;
        }
        job.task(att.task)
            .attempts
            .get(att.attempt as usize)
            .is_some_and(|a| a.phase == AttemptPhase::Running)
    }

    /// Reserve scratch space on `node` for `att`'s map output; `false`
    /// means the disk is full and the attempt must fail.
    pub fn reserve_map_scratch(&mut self, att: AttemptRef, node: NodeId) -> bool {
        let bytes = self.jobs[att.task.job.0 as usize].spec.map_output_bytes;
        let Some(t) = self.trackers.get_mut(node) else {
            return false;
        };
        if !t.try_reserve_scratch(bytes) {
            return false;
        }
        *self.jobs[att.task.job.0 as usize]
            .scratch_by_node
            .entry(node)
            .or_insert(0) += bytes;
        true
    }

    /// A map attempt finished its spill: the task is complete.
    pub fn map_done(&mut self, now: SimTime, att: AttemptRef, topo: &Topology) -> MapDoneOutput {
        let mut out = MapDoneOutput::default();
        if !self.attempt_active(att) {
            return out;
        }
        let jid = att.task.job;
        let (node, notes) = self.task_succeeded(now, att);
        out.notes = notes;
        // Announce the new output to running reduce attempts.
        let site = topo.site_of(node);
        let part = self.partition_bytes(jid);
        for (ratt, plan) in self.jobs[jid.0 as usize].reduce_plans.iter_mut() {
            plan.map_available(att.task.index, node, site, part);
            out.wake_reduces.push(*ratt);
        }
        out.wake_reduces.sort();
        // The last map closes a map-only job; a re-executed map can also
        // be the last piece of an otherwise-finished job (every reduce
        // already completed before the original output was lost).
        out.notes.extend(self.maybe_complete_job(now, jid));
        out
    }

    /// The reduce attempt wrote its output to HDFS: the task is complete.
    pub fn reduce_done(&mut self, now: SimTime, att: AttemptRef) -> Vec<JtNote> {
        if !self.attempt_active(att) {
            return Vec::new();
        }
        let (_, mut notes) = self.task_succeeded(now, att);
        notes.extend(self.maybe_complete_job(now, att.task.job));
        notes
    }

    /// The winning attempt `att` finished: its task is done. Records the
    /// duration for speculation, traces `task_done` and kills the
    /// siblings. Returns where it ran and the kill notes.
    fn task_succeeded(&mut self, now: SimTime, att: AttemptRef) -> (NodeId, Vec<JtNote>) {
        let (node, started) = self.stop_attempt(att, AttemptPhase::Succeeded);
        let dur = now.saturating_since(started).as_secs_f64();
        let job = &mut self.jobs[att.task.job.0 as usize];
        let ts = job.task_mut(att.task);
        ts.done = true;
        ts.completed_on = Some(node);
        let (done, stats) = match att.task.kind {
            TaskKind::Map => (&mut job.maps_done, &mut job.map_duration_stats),
            TaskKind::Reduce => (&mut job.reduces_done, &mut job.reduce_duration_stats),
        };
        *done += 1;
        stats.0 += dur;
        stats.1 += 1;
        // A new duration may give a job its first mean: scan again.
        self.spec_quiet = [None; 2];
        self.tracer.emit(|| {
            TraceEvent::new(Layer::MapReduce, "task_done")
                .with("job", att.task.job.0)
                .with("kind", att.task.kind.as_str())
                .with("task", att.task.index)
                .with("attempt", att.attempt as u64)
                .with("node", node.0)
                .with("secs", dur)
        });
        (node, self.kill_siblings(att))
    }

    /// Take a running attempt out of `Running` into `phase`: it leaves
    /// the running index and counts, its tracker slot, and any shuffle
    /// or sort state. Success, sibling kills and aborts all stop
    /// attempts here. Returns where it ran and when it started.
    fn stop_attempt(&mut self, att: AttemptRef, phase: AttemptPhase) -> (NodeId, SimTime) {
        let job = &mut self.jobs[att.task.job.0 as usize];
        let a = &mut job.task_mut(att.task).attempts[att.attempt as usize];
        a.phase = phase;
        let (node, started) = (a.node, a.started);
        job.note_attempt_stopped(att.task.kind, att.task.index, att.attempt, started);
        job.reduce_plans.remove(&att);
        self.note_running_delta(att.task.kind, -1);
        if let Some(t) = self.trackers.get_mut(node) {
            t.running.remove(&att);
        }
        self.sorting.remove(&att);
        (node, started)
    }

    /// Close the job if every task is done (a map-only job once its last
    /// map is). Idempotent.
    fn maybe_complete_job(&mut self, now: SimTime, jid: JobId) -> Vec<JtNote> {
        let job = &self.jobs[jid.0 as usize];
        if job.status != JobStatus::Running || !job.all_done() {
            return Vec::new();
        }
        self.close_job(now, jid, Some(now), "job_done");
        vec![JtNote::JobCompleted { job: jid }]
    }

    /// Close a job: a finish instant means success, none failure. Sets
    /// the status, counts it, traces `kind` and retires the job.
    fn close_job(
        &mut self,
        now: SimTime,
        jid: JobId,
        finished: Option<SimTime>,
        kind: &'static str,
    ) {
        let ok = finished.is_some();
        let job = &mut self.jobs[jid.0 as usize];
        job.status = if ok {
            JobStatus::Succeeded
        } else {
            JobStatus::Failed
        };
        job.finished = finished;
        if ok {
            self.counters.jobs_completed += 1;
        } else {
            self.counters.jobs_failed += 1;
        }
        self.tracer.emit(|| {
            TraceEvent::new(Layer::MapReduce, kind)
                .with("job", jid.0)
                .with("ok", ok)
        });
        self.retire_job(now, jid);
    }

    /// Kill the other running attempts of `att`'s task.
    fn kill_siblings(&mut self, att: AttemptRef) -> Vec<JtNote> {
        let siblings: Vec<AttemptRef> = self.jobs[att.task.job.0 as usize]
            .task(att.task)
            .attempts
            .iter()
            .enumerate()
            .filter(|&(i, a)| i as u8 != att.attempt && a.phase == AttemptPhase::Running)
            .map(|(i, _)| AttemptRef {
                task: att.task,
                attempt: i as u8,
            })
            .collect();
        siblings
            .into_iter()
            .map(|attempt| {
                let (node, _) = self.stop_attempt(attempt, AttemptPhase::Killed);
                JtNote::KillAttempt { attempt, node }
            })
            .collect()
    }

    /// An attempt failed. Counts toward the task's failure budget and the
    /// per-job tracker blacklist; requeues the task unless a sibling still
    /// runs; fails the job at `max_attempts`.
    pub fn attempt_failed(
        &mut self,
        now: SimTime,
        att: AttemptRef,
        reason: FailReason,
    ) -> Vec<JtNote> {
        if !self.attempt_active(att) {
            return Vec::new();
        }
        self.counters.failures += 1;
        let node =
            self.jobs[att.task.job.0 as usize].task(att.task).attempts[att.attempt as usize].node;
        {
            let job = &mut self.jobs[att.task.job.0 as usize];
            *job.tracker_failures.entry(node).or_insert(0) += 1;
        }
        self.sched.on_attempt_failed(att.task.job.0, node, now);
        self.tracer.emit(|| {
            TraceEvent::new(Layer::MapReduce, "attempt_fail")
                .with("job", att.task.job.0)
                .with("kind", att.task.kind.as_str())
                .with("task", att.task.index)
                .with("attempt", att.attempt as u64)
                .with("node", node.0)
                .with("reason", reason.as_str())
        });
        self.abort_attempt(now, att, true)
    }

    /// Common path for failure (`blame = true`) and node-death requeue
    /// (`blame = false`): stop the attempt; a blamed one charges the
    /// task's failure budget (failing the job at `max_attempts`) and
    /// backs off its retry. The task requeues unless a sibling still
    /// runs.
    fn abort_attempt(&mut self, now: SimTime, att: AttemptRef, blame: bool) -> Vec<JtNote> {
        if !self.attempt_active(att) {
            return Vec::new();
        }
        let phase = if blame {
            AttemptPhase::Failed
        } else {
            AttemptPhase::Killed
        };
        self.stop_attempt(att, phase);
        let jid = att.task.job;
        let job = &mut self.jobs[jid.0 as usize];
        let ts = job.task_mut(att.task);
        if blame {
            ts.failures += 1;
            if ts.failures >= self.cfg.max_attempts {
                return self.fail_job(now, jid);
            }
        }
        if ts.running_attempts() > 0 || ts.done {
            return Vec::new();
        }
        if blame {
            // Retry backoff: don't immediately hand the task back out.
            job.retry_after.insert(
                (att.task.kind, att.task.index),
                now + self.cfg.retry_backoff,
            );
        }
        match att.task.kind {
            TaskKind::Map => self.pending_map_insert(jid, att.task.index),
            TaskKind::Reduce => self.pending_reduce_insert(jid, att.task.index),
        }
        Vec::new()
    }

    /// A task exhausted its attempts: kill the job's running attempts
    /// and close it as failed.
    fn fail_job(&mut self, now: SimTime, jid: JobId) -> Vec<JtNote> {
        let mut notes: Vec<JtNote> = self
            .kill_all(jid)
            .into_iter()
            .map(|(attempt, node)| JtNote::KillAttempt { attempt, node })
            .collect();
        self.close_job(now, jid, None, "job_done");
        notes.push(JtNote::JobFailed { job: jid });
        notes
    }

    /// Kill every running attempt of `jid` wholesale, without blame: the
    /// running index, counts and shuffle plans empty, and each attempt
    /// leaves its tracker slot and the sort set. Returns the killed
    /// attempts in task order, with the nodes they ran on.
    fn kill_all(&mut self, jid: JobId) -> Vec<(AttemptRef, NodeId)> {
        let job = &mut self.jobs[jid.0 as usize];
        let mut killed = Vec::new();
        for (kind, tasks) in [
            (TaskKind::Map, &mut job.maps),
            (TaskKind::Reduce, &mut job.reduces),
        ] {
            for (index, ts) in tasks.iter_mut().enumerate() {
                for (attempt, a) in ts.attempts.iter_mut().enumerate() {
                    if a.phase == AttemptPhase::Running {
                        a.phase = AttemptPhase::Killed;
                        let task = TaskRef {
                            job: jid,
                            kind,
                            index: index as u32,
                        };
                        let attempt = attempt as u8;
                        killed.push((AttemptRef { task, attempt }, a.node));
                    }
                }
            }
        }
        job.reduce_plans.clear();
        job.running_by_start.clear();
        self.agg.running_maps -= std::mem::take(&mut job.running_maps) as usize;
        self.agg.running_reduces -= std::mem::take(&mut job.running_reduces) as usize;
        self.bump_epoch();
        for &(att, node) in &killed {
            if let Some(t) = self.trackers.get_mut(node) {
                t.running.remove(&att);
            }
            self.sorting.remove(&att);
        }
        killed
    }

    /// Free the job's scratch space everywhere, drop it from the queue
    /// and tell the policy.
    fn retire_job(&mut self, now: SimTime, jid: JobId) {
        let scratch = std::mem::take(&mut self.jobs[jid.0 as usize].scratch_by_node);
        for (node, bytes) in scratch {
            if let Some(t) = self.trackers.get_mut(node) {
                t.release_scratch(bytes);
            }
        }
        let was_queued = self.fifo.contains(&jid);
        self.fifo.retain(|&j| j != jid);
        if !self.rescue_attempts.is_empty() {
            self.rescue_attempts.retain(|a| a.task.job != jid);
        }
        if was_queued {
            // Whatever the job still contributed to the aggregate backlog
            // (failed jobs retire with tasks still pending) leaves with it.
            let (pm, pr, rm, rr) = {
                let job = &self.jobs[jid.0 as usize];
                (
                    job.pending_maps.len(),
                    job.pending_reduces.len(),
                    job.running_maps as usize,
                    job.running_reduces as usize,
                )
            };
            self.agg.active_jobs -= 1;
            self.agg.pending_maps -= pm;
            self.agg.pending_reduces -= pr;
            self.agg.running_maps -= rm;
            self.agg.running_reduces -= rr;
            let idx = &mut self.locality[jid.0 as usize];
            idx.pend_node.clear();
            idx.pend_rack.clear();
            idx.pend_site.clear();
            self.bump_epoch();
        }
        self.sched.on_job_removed(jid.0, now);
    }

    // ------------------------------------------------------------------
    // Reduce-side protocol
    // ------------------------------------------------------------------

    /// What should this reduce attempt do now? Called after assignment,
    /// after each fetch completes/fails, and when woken by new map output.
    pub fn reduce_next(&mut self, att: AttemptRef) -> ReduceStep {
        if !self.attempt_active(att) || self.sorting.contains(&att) {
            return ReduceStep::Wait;
        }
        let parallel = SHUFFLE_PARALLEL;
        let jid = att.task.job;
        let job = &mut self.jobs[jid.0 as usize];
        let all_maps_done = job.all_maps_done();
        let Some(plan) = job.reduce_plans.get_mut(&att) else {
            return ReduceStep::Wait;
        };
        let orders = plan.next_orders(parallel);
        if !orders.is_empty() {
            return ReduceStep::Fetch(orders);
        }
        if plan.complete() && all_maps_done {
            self.sorting.insert(att);
            let spec = &self.jobs[jid.0 as usize].spec;
            return ReduceStep::StartSort {
                cpu_secs: spec.reduce_cpu_secs,
                output_bytes: spec.reduce_output_bytes,
                replication: spec.output_replication,
            };
        }
        ReduceStep::Wait
    }

    /// A shuffle fetch finished.
    pub fn fetch_done(&mut self, att: AttemptRef, order: u64) {
        if let Some(plan) = self.jobs[att.task.job.0 as usize]
            .reduce_plans
            .get_mut(&att)
        {
            plan.fetch_done(order);
            self.tracer.emit(|| {
                TraceEvent::new(Layer::MapReduce, "fetch_done")
                    .with("job", att.task.job.0)
                    .with("task", att.task.index)
                    .with("attempt", att.attempt as u64)
                    .with("order", order)
            });
        }
    }

    /// A shuffle fetch failed (source died or its data is gone). The
    /// affected maps become sourceless; each accrues a fetch-failure
    /// strike, and past [`FETCH_FAIL_THRESHOLD`] the map's output is
    /// declared lost and the map re-executed ("too many fetch failures" —
    /// this is what eventually evicts zombie-hosted outputs). Maps whose
    /// outputs still exist on live trackers are re-announced.
    pub fn fetch_failed(&mut self, att: AttemptRef, order: u64, topo: &Topology) {
        let jid = att.task.job;
        let part = self.partition_bytes(jid);
        let threshold = FETCH_FAIL_THRESHOLD;
        let job = &mut self.jobs[jid.0 as usize];
        // Snapshot surviving outputs before borrowing the plan mutably.
        let sources: Vec<(u32, NodeId)> = job
            .maps
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.completed_on.filter(|_| t.done).map(|n| (i as u32, n)))
            .collect();
        let failed_maps = match job.reduce_plans.get_mut(&att) {
            Some(plan) => plan.fetch_failed(order),
            None => Vec::new(),
        };
        // Strike the failed maps; re-execute those past the threshold.
        let mut reexecute: Vec<u32> = Vec::new();
        for &m in &failed_maps {
            let strikes = job.map_fetch_failures.entry(m).or_insert(0);
            *strikes += 1;
            if *strikes >= threshold && job.maps[m as usize].done {
                reexecute.push(m);
            }
        }
        // Re-executed maps start over with a clean strike count.
        for m in &reexecute {
            job.map_fetch_failures.remove(m);
        }
        self.maps_lost(jid, &reexecute);
        self.tracer.emit(|| {
            TraceEvent::new(Layer::MapReduce, "fetch_fail")
                .with("job", jid.0)
                .with("task", att.task.index)
                .with("attempt", att.attempt as u64)
                .with("order", order)
                .with("struck_maps", failed_maps.len())
                .with("reexecuted", reexecute.len())
        });
        // Re-announce maps whose outputs still exist (and were not just
        // declared lost).
        let trackers = &self.trackers;
        if let Some(plan) = self.jobs[jid.0 as usize].reduce_plans.get_mut(&att) {
            for (m, n) in sources {
                let alive = trackers
                    .get(n)
                    .is_some_and(|t| t.liveness == Liveness::Live);
                if alive && !reexecute.contains(&m) {
                    plan.map_available(m, n, topo.site_of(n), part);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Master failover & recovery
    // ------------------------------------------------------------------

    /// Wholesale kill of every running attempt after a checkpoint
    /// restore (Hadoop-0.20 JobTracker-restart semantics): a freshly
    /// promoted master cannot trust any in-flight attempt it inherited
    /// from the image — the workers re-register with empty slates — so
    /// running attempts die without blame and their undone tasks requeue
    /// for immediate reassignment. Shuffle plans are dropped too; a
    /// reduce re-attempt rebuilds its plan through the ordinary
    /// `init_reduce_plan` path, which also requeues completed maps whose
    /// output hosts meanwhile died. Returns the attempt count killed.
    pub fn recover_kill_all(&mut self) -> usize {
        let mut killed = 0usize;
        for jid in self.fifo.clone() {
            if self.jobs[jid.0 as usize].status != JobStatus::Running {
                continue;
            }
            let mut requeue: Vec<TaskRef> =
                self.kill_all(jid).iter().map(|(a, _)| a.task).collect();
            killed += requeue.len();
            // A task's killed attempts sit together: one entry per task.
            requeue.dedup();
            let job = &mut self.jobs[jid.0 as usize];
            requeue.retain(|&t| !job.task(t).done);
            // Retry bookkeeping died with the old master: the new one
            // hands everything back out as soon as slots heartbeat.
            job.retry_after.clear();
            for t in requeue {
                match t.kind {
                    TaskKind::Map => self.pending_map_insert(jid, t.index),
                    TaskKind::Reduce => self.pending_reduce_insert(jid, t.index),
                }
            }
        }
        self.sorting.clear();
        for t in self.trackers.values_mut() {
            t.running.clear();
        }
        self.tracer.emit(|| {
            TraceEvent::new(Layer::MapReduce, "recover_kill_all").with("attempts", killed)
        });
        killed
    }

    /// Align the restored image with the crashed master's final ("ghost")
    /// state so queued simulation events cannot alias fresh work:
    ///
    /// * every task's attempt list is padded with `Killed` placeholder
    ///   attempts up to the ghost's per-task attempt count, so attempt
    ///   ordinals handed out after promotion have never been used before
    ///   (stale in-flight events for pre-crash attempts then land on
    ///   non-`Running` ordinals and are dropped);
    /// * the job table is padded to the ghost's length with terminal
    ///   *tombstone* jobs, so job ids minted during the lost edit window
    ///   stay out-of-queue placeholders and resubmitted jobs get fresh
    ///   ids beyond anything stale events can reference.
    pub fn recover_align_with_ghost(&mut self, ghost: &JobTracker, now: SimTime) {
        fn pad(ts: &mut crate::job::TaskState, ghost_ts: &crate::job::TaskState, now: SimTime) {
            while ts.attempts.len() < ghost_ts.attempts.len() {
                let g = &ghost_ts.attempts[ts.attempts.len()];
                ts.attempts.push(AttemptState {
                    node: g.node,
                    started: now,
                    phase: AttemptPhase::Killed,
                });
            }
        }
        let shared = self.jobs.len().min(ghost.jobs.len());
        for j in 0..shared {
            let gj = &ghost.jobs[j];
            let job = &mut self.jobs[j];
            for (ts, gts) in job.maps.iter_mut().zip(gj.maps.iter()) {
                pad(ts, gts, now);
            }
            for (ts, gts) in job.reduces.iter_mut().zip(gj.reduces.iter()) {
                pad(ts, gts, now);
            }
        }
        while self.jobs.len() < ghost.jobs.len() {
            let spec = JobSubmission {
                input_blocks: Vec::new(),
                split_locations: Vec::new(),
                reduces: 0,
                map_cpu_secs: 0.0,
                map_output_bytes: 0,
                reduce_cpu_secs: 0.0,
                reduce_output_bytes: 0,
                output_replication: 1,
            };
            let mut tomb = JobState::new(spec, now);
            tomb.status = JobStatus::Failed;
            self.jobs.push(tomb);
            self.locality.push(LocalityIndex::default());
        }
    }

    /// Force a job terminal after a failover: the client already saw it
    /// finish (the old master reported before crashing), so the new
    /// master must not run it again even though the restored image still
    /// has it `Running`. Counters and queue membership update exactly as
    /// if the job finished normally.
    pub fn recover_force_terminal(
        &mut self,
        now: SimTime,
        jid: JobId,
        finished: SimTime,
        ok: bool,
    ) {
        if self.jobs[jid.0 as usize].status == JobStatus::Running {
            self.close_job(now, jid, ok.then_some(finished), "recover_force_terminal");
        }
    }

    /// Recompute per-tracker scratch accounting from the surviving jobs'
    /// ledgers after re-registration wiped every tracker record clean.
    /// Scratch charged to trackers the restored master no longer knows
    /// (or knows dead) is dropped from the job ledgers too — the space
    /// died with the node.
    pub fn recover_rebuild_scratch(&mut self) {
        for t in self.trackers.values_mut() {
            t.scratch_used = 0;
        }
        let fifo = self.fifo.clone();
        for &jid in &fifo {
            let trackers = &self.trackers;
            let job = &mut self.jobs[jid.0 as usize];
            job.scratch_by_node.retain(|&n, _| {
                trackers
                    .get(n)
                    .is_some_and(|t| t.liveness != Liveness::Dead)
            });
        }
        let mut usage: Vec<(NodeId, u64)> = Vec::new();
        for &jid in &fifo {
            for (&n, &b) in &self.jobs[jid.0 as usize].scratch_by_node {
                usage.push((n, b));
            }
        }
        for (n, b) in usage {
            if let Some(t) = self.trackers.get_mut(n) {
                t.scratch_used += b;
            }
        }
    }

    /// Deterministic serialization of the job/task ledger (the checkpoint
    /// counterpart of the namenode's fsimage): jobs in id order with
    /// full task/attempt detail and every per-job field a scheduling
    /// decision reads (blacklist counts, fetch strikes, the speculation
    /// scan stamp, duration sums), tracker records, queue, rescue
    /// attempts and counters. Equal logical state produces byte-identical
    /// output. The scheduling policy's own state (its failure history)
    /// is not part of the ledger, and neither is derived state a recount
    /// reproduces: the cached job orders and the speculation quiet
    /// instants.
    pub fn export_ledger(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "ledger v1 jobs={} trackers={} policy={}",
            self.jobs.len(),
            self.trackers.len(),
            self.sched.name()
        );
        for (j, job) in self.jobs.iter().enumerate() {
            let _ = writeln!(
                s,
                "job {j} status={:?} submitted={:?} finished={:?} maps_done={} reduces_done={} \
                 running={}/{} pending_maps={:?} pending_reduces={:?}",
                job.status,
                job.submitted,
                job.finished,
                job.maps_done,
                job.reduces_done,
                job.running_maps,
                job.running_reduces,
                job.pending_maps,
                job.pending_reduces
            );
            for (label, tasks) in [("map", &job.maps), ("reduce", &job.reduces)] {
                for (i, ts) in tasks.iter().enumerate() {
                    let attempts: Vec<String> = ts
                        .attempts
                        .iter()
                        .map(|a| format!("{}@{:?}:{:?}", a.node.0, a.started, a.phase))
                        .collect();
                    let _ = writeln!(
                        s,
                        "  {label} {i} done={} on={:?} failures={} attempts={attempts:?}",
                        ts.done,
                        ts.completed_on.map(|n| n.0),
                        ts.failures
                    );
                }
            }
            let plans = sorted(job.reduce_plans.iter().map(|(&a, p)| (a, p.complete())));
            let scratch = sorted(job.scratch_by_node.iter().map(|(n, &b)| (n.0, b)));
            let retry = sorted(job.retry_after.iter().map(|(&k, &t)| (k, t)));
            let _ = writeln!(
                s,
                "  plans={plans:?} scratch={scratch:?} retry={retry:?} rbs={:?}",
                job.running_by_start
            );
            // Everything else the scheduling decisions read: blacklist
            // counts, fetch strikes, the speculation scan stamp and the
            // duration sums behind the straggler threshold.
            let _ = writeln!(
                s,
                "  blacklist={:?} strikes={:?} spec_scan={:?} durations={:?}/{:?}",
                sorted(job.tracker_failures.iter().map(|(n, &c)| (n.0, c))),
                sorted(job.map_fetch_failures.iter().map(|(&m, &c)| (m, c))),
                job.spec_last_scan,
                job.map_duration_stats,
                job.reduce_duration_stats
            );
        }
        for (n, t) in self.trackers.iter() {
            let _ = writeln!(
                s,
                "tracker {} slots={}/{} live={:?} hb={:?} scratch={}/{} running={:?}",
                n.0,
                t.map_slots,
                t.reduce_slots,
                t.liveness,
                t.last_heartbeat,
                t.scratch_used,
                t.scratch_capacity,
                t.running
            );
        }
        let _ = writeln!(s, "fifo={:?}", self.fifo);
        let _ = writeln!(s, "sorting={:?}", sorted(self.sorting.iter()));
        let _ = writeln!(s, "rescue={:?}", sorted(self.rescue_attempts.iter()));
        let _ = writeln!(s, "counters={:?}", self.counters);
        s
    }

    /// Scratch usage of a tracker (disk-overflow reporting).
    pub fn tracker_scratch(&self, node: NodeId) -> Option<(u64, u64)> {
        self.trackers
            .get(node)
            .map(|t| (t.scratch_used, t.scratch_capacity))
    }

    /// Immutable tracker view (tests).
    pub fn tracker(&self, node: NodeId) -> Option<&TrackerState> {
        self.trackers.get(node)
    }

    /// Deterministic RNG access for mediator-level tie-breaks that should
    /// share the JobTracker's stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

impl hog_sim_core::Auditable for JobTracker {
    /// Cross-check tracker occupancy against the job table: slot and
    /// scratch usage must respect capacity, dead trackers must hold no
    /// attempts, and every attempt a tracker claims to run must exist in
    /// its job's state as `Running` on exactly that node.
    fn audit(&self) -> Vec<hog_sim_core::Violation> {
        use hog_sim_core::Violation;
        let mut out = Vec::new();
        for (n, t) in self.trackers.iter() {
            let maps = t.running_of(TaskKind::Map);
            let reduces = t.running_of(TaskKind::Reduce);
            if maps > t.map_slots as usize {
                out.push(Violation::new(
                    "mapreduce",
                    format!(
                        "tracker {} runs {maps} maps on {} map slots",
                        n.0, t.map_slots
                    ),
                ));
            }
            if reduces > t.reduce_slots as usize {
                out.push(Violation::new(
                    "mapreduce",
                    format!(
                        "tracker {} runs {reduces} reduces on {} reduce slots",
                        n.0, t.reduce_slots
                    ),
                ));
            }
            if t.scratch_used > t.scratch_capacity {
                out.push(Violation::new(
                    "mapreduce",
                    format!(
                        "tracker {} scratch overcommitted: {}/{} bytes",
                        n.0, t.scratch_used, t.scratch_capacity
                    ),
                ));
            }
            if t.liveness == Liveness::Dead && !t.running.is_empty() {
                out.push(Violation::new(
                    "mapreduce",
                    format!(
                        "dead tracker {} still holds {} running attempt(s)",
                        n.0,
                        t.running.len()
                    ),
                ));
            }
        }
        // The per-job running-attempt index must mirror the task tables:
        // every indexed entry is a live Running attempt, and the per-kind
        // counts match a full recount.
        for (&jid, job) in self
            .fifo
            .iter()
            .map(|jid| (jid, &self.jobs[jid.0 as usize]))
        {
            let mut maps = 0u32;
            let mut reduces = 0u32;
            for &(started, kind, index, attempt) in &job.running_by_start {
                let tasks = match kind {
                    TaskKind::Map => &job.maps,
                    TaskKind::Reduce => &job.reduces,
                };
                match tasks
                    .get(index as usize)
                    .and_then(|t| t.attempts.get(attempt as usize))
                {
                    Some(a) if a.phase == AttemptPhase::Running && a.started == started => {
                        match kind {
                            TaskKind::Map => maps += 1,
                            TaskKind::Reduce => reduces += 1,
                        }
                    }
                    _ => out.push(Violation::new(
                        "mapreduce",
                        format!(
                            "job {} running index holds stale {} task {index} attempt {attempt}",
                            jid.0,
                            kind.as_str()
                        ),
                    )),
                }
            }
            let actual_maps: u32 = job.maps.iter().map(|t| t.running_attempts() as u32).sum();
            let actual_reduces: u32 = job
                .reduces
                .iter()
                .map(|t| t.running_attempts() as u32)
                .sum();
            if (maps, reduces) != (actual_maps, actual_reduces)
                || (job.running_maps, job.running_reduces) != (actual_maps, actual_reduces)
            {
                out.push(Violation::new(
                    "mapreduce",
                    format!(
                        "job {} running index out of sync: indexed {maps}m/{reduces}r, counted {}m/{}r, tables {actual_maps}m/{actual_reduces}r",
                        jid.0, job.running_maps, job.running_reduces
                    ),
                ));
            }
        }
        // The failure detector's summaries must mirror the records.
        let liveness = self.trackers.iter().map(|(n, t)| (n, t.liveness));
        out.extend(self.live.audit("mapreduce", "tracker", liveness));
        // A cached speculation quiet instant may lag the true one (scan
        // stamps only push it later) but never lead it: a later cached
        // value would skip a scan that could launch or stamp.
        if !self.cfg.eager_copies {
            for kind in [TaskKind::Map, TaskKind::Reduce] {
                let cached = self.spec_quiet[kind.slot() as usize];
                let recount = self.spec_quiet_instant(kind);
                if cached.is_some_and(|c| c > recount) {
                    out.push(Violation::new(
                        "mapreduce",
                        format!(
                            "{} speculation quiet instant {cached:?} is later than the recount {recount:?}",
                            kind.as_str()
                        ),
                    ));
                }
            }
        }
        // The O(1) aggregate backlog must equal a full recount.
        let recount = self.recount_backlog();
        if recount != self.agg {
            out.push(Violation::new(
                "mapreduce",
                format!(
                    "aggregate backlog drifted: cached {:?}, recounted {recount:?}",
                    self.agg
                ),
            ));
        }
        // Each queued job's pending-locality index must match a rebuild
        // from its pending set: same members per node/rack/site, nothing
        // stale left behind.
        for &jid in &self.fifo {
            let job = &self.jobs[jid.0 as usize];
            if job.status != JobStatus::Running {
                continue;
            }
            let idx = &self.locality[jid.0 as usize];
            let mut node: HashMap<NodeId, BTreeSet<u32>> = HashMap::new();
            let mut rack: HashMap<RackId, BTreeSet<u32>> = HashMap::new();
            let mut site: HashMap<SiteId, BTreeSet<u32>> = HashMap::new();
            for &m in &job.pending_maps {
                for &(n, r, s) in &idx.locs[m as usize] {
                    node.entry(n).or_default().insert(m);
                    rack.entry(r).or_default().insert(m);
                    site.entry(s).or_default().insert(m);
                }
            }
            let stale = nonempty(&idx.pend_node) != node
                || nonempty(&idx.pend_rack) != rack
                || nonempty(&idx.pend_site) != site;
            if stale {
                out.push(Violation::new(
                    "mapreduce",
                    format!(
                        "job {} pending-locality index out of sync with pending_maps",
                        jid.0
                    ),
                ));
            }
        }
        for (n, t) in self.trackers.iter() {
            for &att in &t.running {
                if !self.attempt_active(att) {
                    out.push(Violation::new(
                        "mapreduce",
                        format!("tracker {} holds inactive attempt {att:?}", n.0),
                    ));
                    continue;
                }
                let rec = &self.jobs[att.task.job.0 as usize].task(att.task).attempts
                    [att.attempt as usize];
                if rec.node != n {
                    out.push(Violation::new(
                        "mapreduce",
                        format!(
                            "attempt {att:?} recorded on node {} but held by tracker {}",
                            rec.node.0, n.0
                        ),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hog_sim_core::HOG_DEAD_TIMEOUT;

    /// A JobTracker on a two-node pool with one job (2 maps, 1 reduce)
    /// submitted, and one of its nodes.
    fn one_job() -> (JobTracker, NodeId) {
        let mut topo = Topology::new();
        let site = topo.add_site("S0".to_string(), "s0.edu".to_string());
        let nodes: Vec<NodeId> = (0..2).map(|_| topo.add_node(site)).collect();
        let mut jt = JobTracker::new(MrParams::hog(), HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(1));
        for &n in &nodes {
            jt.register_tracker(SimTime::ZERO, n, site, 1, 1);
        }
        let spec = JobSubmission {
            input_blocks: vec![(BlockId(0), 64), (BlockId(1), 64)],
            split_locations: vec![vec![nodes[0]], vec![nodes[1]]],
            reduces: 1,
            map_cpu_secs: 1.0,
            map_output_bytes: 100,
            reduce_cpu_secs: 1.0,
            reduce_output_bytes: 10,
            output_replication: 1,
        };
        jt.submit_job(SimTime::ZERO, spec, &topo);
        (jt, nodes[0])
    }

    /// A job's first completed task gives it a mean, so the very next
    /// idle heartbeat scans it for stragglers: the cached speculation
    /// quiet instant (no job had a mean until then) must not hold the
    /// scan back. The audit checks the cache against a recount.
    #[test]
    fn first_completion_is_scanned_by_the_next_heartbeat() {
        use hog_sim_core::Auditable;
        let mut topo = Topology::new();
        let site = topo.add_site("S0".to_string(), "s0.edu".to_string());
        let nodes: Vec<NodeId> = (0..3).map(|_| topo.add_node(site)).collect();
        let mut cfg = MrParams::hog();
        cfg.speculative_min_completed = 1;
        let mut jt = JobTracker::new(cfg, HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(1));
        for &n in &nodes {
            jt.register_tracker(SimTime::ZERO, n, site, 1, 1);
        }
        let spec = JobSubmission {
            input_blocks: vec![(BlockId(0), 64), (BlockId(1), 64)],
            split_locations: vec![vec![nodes[0]], vec![nodes[1]]],
            reduces: 1,
            map_cpu_secs: 1.0,
            map_output_bytes: 100,
            reduce_cpu_secs: 1.0,
            reduce_output_bytes: 10,
            output_replication: 1,
        };
        let job = jt.submit_job(SimTime::ZERO, spec, &topo);
        let t = SimTime::from_secs;
        let first = jt.heartbeat(t(0), nodes[0], &topo);
        let second = jt.heartbeat(t(0), nodes[1], &topo);
        assert!(matches!(first[0], Assignment::Map { .. }));
        assert!(matches!(second[0], Assignment::Map { .. }));
        // Nothing pending and no mean yet: the idle tracker scans nothing.
        jt.heartbeat(t(1), nodes[2], &topo);
        assert_eq!(jt.job(job).spec_last_scan, SimTime::ZERO);
        jt.map_done(t(10), first[0].attempt(), &topo);
        jt.heartbeat(t(11), nodes[2], &topo);
        assert_eq!(jt.job(job).spec_last_scan, t(11), "scanned at once");
        assert!(jt.audit().is_empty(), "{:?}", jt.audit());
        // A cached instant later than the recount is a violation.
        jt.spec_quiet = [Some(SimTime::MAX); 2];
        let audit = jt.audit();
        assert_eq!(audit.len(), 1, "{audit:?}");
        assert!(audit[0]
            .to_string()
            .contains("map speculation quiet instant"));
    }

    /// The idle early-out in `assign` skips `admit` only for slots that
    /// could receive nothing anyway, so it cannot let work past a
    /// failure-aware quarantine: with nothing pending and speculation
    /// quiet both nodes get nothing, and once a map is pending the
    /// healthy node gets it while the quarantined one — whose split it
    /// is — still does not.
    #[test]
    fn idle_early_out_keeps_the_quarantine() {
        let mut topo = Topology::new();
        let calm = topo.add_site("S0".to_string(), "s0.edu".to_string());
        let hot = topo.add_site("S1".to_string(), "s1.edu".to_string());
        let (worker, healthy, quarantined) =
            (topo.add_node(calm), topo.add_node(calm), topo.add_node(hot));
        let mut cfg = MrParams::hog();
        cfg.sched = hog_sched::SchedPolicy::FailureAware;
        let mut jt = JobTracker::new(cfg, HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(1));
        for n in [worker, healthy, quarantined] {
            jt.register_tracker(SimTime::ZERO, n, topo.site_of(n), 1, 1);
        }
        let t = SimTime::from_secs;
        for _ in 0..5 {
            jt.sched.on_attempt_failed(0, quarantined, t(1));
        }
        assert!(!jt.sched.admit(quarantined, hot, SlotKind::Map, t(2)));
        assert!(jt.sched.admit(healthy, calm, SlotKind::Map, t(2)));
        let one_map = |on: NodeId| JobSubmission {
            input_blocks: vec![(BlockId(0), 64)],
            split_locations: vec![vec![on]],
            reduces: 0,
            map_cpu_secs: 1.0,
            map_output_bytes: 100,
            reduce_cpu_secs: 1.0,
            reduce_output_bytes: 10,
            output_replication: 1,
        };
        jt.submit_job(t(2), one_map(worker), &topo);
        assert_eq!(jt.heartbeat(t(2), worker, &topo).len(), 1);
        // Nothing pending. The first idle heartbeat scans for stragglers,
        // finds no job with a mean and leaves speculation quiet.
        assert_eq!(jt.backlog().pending_maps, 0);
        assert!(jt.heartbeat(t(3), healthy, &topo).is_empty());
        assert!(jt.speculation_idle(t(3), TaskKind::Map));
        assert!(jt.heartbeat(t(3), quarantined, &topo).is_empty());
        assert!(jt.heartbeat(t(3), healthy, &topo).is_empty());
        // A pending map, node-local to the quarantined node only.
        jt.submit_job(t(4), one_map(quarantined), &topo);
        assert!(jt.heartbeat(t(4), quarantined, &topo).is_empty());
        let got = jt.heartbeat(t(4), healthy, &topo);
        assert!(matches!(got[..], [Assignment::Map { .. }]), "{got:?}");
        assert!(jt.heartbeat(t(5), quarantined, &topo).is_empty());
    }

    #[test]
    fn ledger_carries_the_state_scheduling_reads() {
        let (base, node) = one_job();
        let ledger = base.export_ledger();
        let differs = |edit: &dyn Fn(&mut JobTracker)| {
            let mut jt = base.clone();
            edit(&mut jt);
            jt.export_ledger() != ledger
        };
        assert!(
            differs(&|jt| {
                jt.jobs[0].tracker_failures.insert(node, 1);
            }),
            "one blacklist count"
        );
        assert!(
            differs(&|jt| {
                jt.jobs[0].map_fetch_failures.insert(0, 1);
            }),
            "one fetch strike"
        );
        assert!(
            differs(&|jt| jt.jobs[0].spec_last_scan = SimTime::from_secs(5)),
            "the speculation scan stamp"
        );
        assert!(
            differs(&|jt| jt.jobs[0].map_duration_stats = (3.0, 1)),
            "the map duration sums"
        );
        assert!(
            differs(&|jt| jt.jobs[0].reduce_duration_stats = (3.0, 1)),
            "the reduce duration sums"
        );
        let task = TaskRef {
            job: JobId(0),
            kind: TaskKind::Map,
            index: 0,
        };
        assert!(
            differs(&|jt| {
                jt.rescue_attempts.insert(AttemptRef { task, attempt: 0 });
            }),
            "the rescue attempts"
        );
    }
}
