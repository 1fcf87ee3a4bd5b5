//! The JobTracker: slot assignment (policy-driven via [`hog_sched`]),
//! speculation, shuffle coordination, tracker liveness and failure
//! handling.
//!
//! All scheduling *mechanism* lives here — task tables, the locality
//! ladder, slot accounting, the straggler scan. The *choices* (job
//! order, locality gating, node admission) are delegated to the
//! [`Scheduler`] selected by [`MrParams::sched`]; the default
//! [`Scheduler::Fifo`] reproduces stock Hadoop bit-for-bit.

use crate::config::{MrParams, FETCH_FAIL_THRESHOLD, SHUFFLE_PARALLEL, SPECULATIVE_FACTOR};
use crate::job::{
    AttemptPhase, AttemptState, JobId, JobState, JobStatus, JobSubmission, TaskKind, TaskRef,
};
use crate::shuffle::{FetchOrder, ReducePlan};
use crate::tracker::TrackerState;
use crate::AttemptRef;
use hog_net::{NodeId, NodeMap, SiteId, Topology};
use hog_obs::{Layer, TraceEvent, Tracer};
use hog_sched::{Gate, Scheduler};
use hog_sim_core::{Liveness, LivenessIndex, SimDuration, SimRng, SimTime};
use std::cell::Cell;

pub use hog_sched::Locality;

/// A task handed to a tasktracker on heartbeat.
#[derive(Clone, Debug, PartialEq)]
pub enum Assignment {
    /// Run a map task. Its input block, CPU time and output size are
    /// in the job's [`JobSubmission`], read through [`JobTracker::job`].
    Map {
        /// The attempt to execute.
        attempt: AttemptRef,
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
    /// The CPU time, output size and output replication are in the job's
    /// [`JobSubmission`].
    StartSort,
}

/// Output of [`JobTracker::map_done`].
#[derive(Clone, Debug, Default)]
pub struct MapDoneOutput {
    /// Kill/completion notifications.
    pub notes: Vec<JtNote>,
    /// Reduce attempts that may now have fetch work.
    pub wake_reduces: Vec<AttemptRef>,
}

/// How long a job sits out of speculation scans after one found no
/// straggler: repeated idle heartbeats stay cheap.
const SPEC_SCAN_COOLDOWN: SimDuration = SimDuration::from_secs(5);

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
    /// Attempt failures.
    pub failures: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Jobs failed.
    pub jobs_failed: u64,
}

/// Task backlog summed over the `Running` queued jobs: one input of the
/// elastic controller, hog-fed's router and sampler. Counted from the
/// job table on each [`JobTracker::backlog`] call.
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
    /// Incomplete jobs in submission order (the queue policies reorder).
    fifo: Vec<JobId>,
    /// Tracker records by node id: an O(1) probe per heartbeat, and
    /// ascending iteration for the death check, the audit and the
    /// ledger.
    trackers: NodeMap<TrackerState>,
    /// The failure detector's suspect set and dead count over
    /// `trackers` (audited).
    live: LivenessIndex<NodeId>,
    /// The slot-assignment policy (chosen by [`MrParams::sched`]).
    sched: Scheduler,
    /// Nothing draws from this stream. It stays until the next
    /// deliberate re-baseline, which drops it together with the
    /// mediator's `rng.fork(3)` that creates it (the fork advances the
    /// parent stream, so removing it alone would move fingerprints).
    #[allow(dead_code)]
    rng: SimRng,
    counters: JtCounters,
    tracer: Tracer,
    /// Monotonic epoch, bumped on every scheduling-relevant mutation
    /// (job submitted/retired, a task changed pending↔running). Guards
    /// the memoized reduce readiness.
    sched_epoch: u64,
    /// The speculation quiet instant per slot kind (`[map, reduce]`): no
    /// `Running` job can pass both the scan cooldown and the mean test
    /// before it, so an idle heartbeat earlier than it skips the scan.
    /// Recomputed after a scan that launched nothing; cleared (`None`,
    /// scan on the next heartbeat) when a task succeeds or a job is
    /// submitted. Derived state, audited against a recount and left out
    /// of the ledger.
    spec_quiet: [Option<SimTime>; 2],
    /// Whether some `Running` job has a pending reduce and has reached
    /// slowstart, memoized for the `sched_epoch` it was computed at (0
    /// never matches). Every input bumps the epoch: the pending sets,
    /// `maps_done` (through the stop of the winning attempt when a map
    /// succeeds, and `pending_insert` when one is lost) and queue
    /// membership. Derived state, audited against a recount and left out
    /// of the ledger.
    reduce_ready: Cell<(u64, bool)>,
    /// Pending task count per slot kind (`[map, reduce]`) over the
    /// `Running` queued jobs: the per-heartbeat paths (`heartbeat_idle`,
    /// `assign`) read it instead of walking the queue. Kept at every
    /// pending-set transition and queue change; audited against a
    /// recount and left out of the ledger.
    pending: [usize; 2],
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
            fifo: Vec::new(),
            trackers: NodeMap::new(),
            live: LivenessIndex::default(),
            sched: Scheduler::new(cfg.sched),
            cfg,
            rng,
            counters: JtCounters::default(),
            tracer: Tracer::disabled(),
            sched_epoch: 1,
            spec_quiet: [None; 2],
            reduce_ready: Cell::new((0, false)),
            pending: [0; 2],
        }
    }

    /// Invalidate the memoized reduce readiness: queue membership, a
    /// pending set or a running attempt changed.
    #[inline]
    fn bump_epoch(&mut self) {
        self.sched_epoch += 1;
    }

    // ------------------------------------------------------------------
    // Pending-set maintenance
    //
    // Every `pending_maps` / `pending_reduces` transition of an
    // incomplete job flows through these helpers so the pending counts
    // and the scheduling epoch stay consistent with the sets. Jobs
    // already terminal keep their raw sets (the ledger serializes them)
    // but no longer contribute to the counts, which only cover the fifo.
    // ------------------------------------------------------------------

    fn pending_insert(&mut self, jid: JobId, kind: TaskKind, index: u32) {
        let job = &mut self.jobs[jid.0 as usize];
        if job.pending_mut(kind).insert(index) && job.status == JobStatus::Running {
            self.pending[kind as usize] += 1;
            self.bump_epoch();
        }
    }

    fn pending_remove(&mut self, jid: JobId, kind: TaskKind, index: u32) {
        let job = &mut self.jobs[jid.0 as usize];
        if job.pending_mut(kind).remove(&index) && job.status == JobStatus::Running {
            self.pending[kind as usize] -= 1;
            self.bump_epoch();
        }
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

    /// Task backlog over the `Running` queued jobs — the demand half of
    /// the elastic controller's pool snapshot, counted from the job
    /// table: one pass over the queue per call (a master tick, a
    /// federation route or sample).
    pub fn backlog(&self) -> Backlog {
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
        let (site, running) = {
            let Some(t) = self.trackers.get_mut(node) else {
                return notes; // unknown tracker: nothing to declare
            };
            self.live.transition(node, Some(t.liveness), Liveness::Dead);
            t.liveness = Liveness::Dead;
            let running: Vec<AttemptRef> = std::mem::take(&mut t.running).into_iter().collect();
            t.scratch_used = 0;
            (t.site, running)
        };
        if !planned {
            self.sched.on_tracker_dead(node, site, now);
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
            self.pending_insert(jid, TaskKind::Map, m);
        }
    }

    // ------------------------------------------------------------------
    // Job lifecycle
    // ------------------------------------------------------------------

    /// Submit a job; split locality hints come from the submission.
    pub fn submit_job(&mut self, now: SimTime, spec: JobSubmission) -> JobId {
        let id = JobId(self.jobs.len() as u32);
        let maps = spec.maps();
        let reduces = spec.reduces as usize;
        self.jobs.push(JobState::new(spec, now));
        self.fifo.push(id);
        self.pending[TaskKind::Map as usize] += maps as usize;
        self.pending[TaskKind::Reduce as usize] += reduces;
        self.bump_epoch();
        self.spec_quiet = [None; 2];
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
    /// free slots (jobs in policy order; node → (rack) → site → remote
    /// for maps; slowstart-gated reduces; speculation as a fallback). A
    /// heartbeat whose free slots could receive nothing (nothing of
    /// their kind pending, no speculation scan due) allocates nothing.
    pub fn heartbeat(&mut self, now: SimTime, node: NodeId, topo: &Topology) -> Vec<Assignment> {
        let mut out = Vec::new();
        // One tracker lookup serves the whole heartbeat: every successful
        // assignment starts exactly one attempt of its kind on this node,
        // so the free counts can be tracked locally instead of recounting
        // the running set per slot.
        let (site, free) = {
            let Some(t) = self.trackers.get_mut(node) else {
                return out;
            };
            match t.liveness {
                Liveness::Dead => return out,
                Liveness::Live => {}
                Liveness::Silent => {
                    // A partition healed before the timeout: off the
                    // suspect list.
                    self.live
                        .transition(node, Some(Liveness::Silent), Liveness::Live);
                    t.liveness = Liveness::Live;
                    t.last_heartbeat = now;
                }
            }
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
        out
    }

    /// Whether a heartbeat from `node` at `now` would change nothing and
    /// assign nothing: [`JobTracker::heartbeat`] would return no
    /// assignment and leave every field the ledger, the audit and later
    /// decisions read as it is. Pure and exact, so a caller may skip
    /// such a heartbeat.
    ///
    /// * No tracker record, or a `Dead` one: the heartbeat is ignored.
    /// * `Silent`: the heartbeat revives the tracker, so it is never idle.
    /// * `Live`: idle when every slot kind with a free slot has nothing
    ///   assignable and no speculation scan due. A map is assignable when
    ///   any map is pending; a reduce only when some `Running` job has a
    ///   pending reduce and has reached slowstart.
    ///
    /// The common case answers from JobTracker-wide state alone, in
    /// O(1): nothing assignable of either kind, both speculation kinds
    /// idle and no `Silent` tracker. Only when that fails is the
    /// tracker record read.
    pub fn heartbeat_idle(&self, now: SimTime, node: NodeId) -> bool {
        let map_idle =
            self.pending[TaskKind::Map as usize] == 0 && self.speculation_idle(now, TaskKind::Map);
        let reduce_idle = self.speculation_idle(now, TaskKind::Reduce) && !self.reduce_assignable();
        if map_idle && reduce_idle && self.live.suspect_count() == 0 {
            return true;
        }
        let Some(t) = self.trackers.get(node) else {
            return true;
        };
        match t.liveness {
            Liveness::Dead => true,
            Liveness::Silent => false,
            Liveness::Live => {
                (map_idle || t.free_map_slots() == 0) && (reduce_idle || t.free_reduce_slots() == 0)
            }
        }
    }

    /// Whether a free reduce slot could be given pending work: some
    /// `Running` job has a pending reduce and has reached slowstart.
    /// Memoized per `sched_epoch`.
    fn reduce_assignable(&self) -> bool {
        if self.pending[TaskKind::Reduce as usize] == 0 {
            return false;
        }
        let (epoch, ready) = self.reduce_ready.get();
        if epoch == self.sched_epoch {
            return ready;
        }
        let ready = self.recount_reduce_ready();
        self.reduce_ready.set((self.sched_epoch, ready));
        ready
    }

    /// [`JobTracker::reduce_assignable`]'s answer from the job table.
    fn recount_reduce_ready(&self) -> bool {
        self.fifo.iter().any(|&jid| {
            let job = &self.jobs[jid.0 as usize];
            job.status == JobStatus::Running
                && !job.pending_reduces.is_empty()
                && job.slowstart_reached(self.cfg.reduce_slowstart)
        })
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
        *job.running_mut(task.kind) += 1;
        let att = AttemptRef { task, attempt };
        self.bump_epoch();
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

    /// The policy's assignment order for one `kind` slot: the queue's
    /// job ids, reordered by the policy.
    fn job_order(&self, kind: TaskKind) -> Vec<u32> {
        let mut order: Vec<u32> = self.fifo.iter().map(|jid| jid.0).collect();
        self.sched
            .job_order(&mut order, |job| self.jobs[job as usize].running_of(kind));
        order
    }

    /// Fill one free `kind` slot on `node` (in `site`): pending work in
    /// policy order, else a speculative copy of a straggler.
    fn assign(
        &mut self,
        now: SimTime,
        node: NodeId,
        site: SiteId,
        kind: TaskKind,
        topo: &Topology,
    ) -> Option<Assignment> {
        let pending = self.pending[kind as usize];
        // A slot that can receive nothing — nothing of this kind pending
        // and no speculation scan due — gets nothing whatever `admit`
        // answers. `admit` and `allow_speculation` are pure (`&self`), so
        // not asking them is exact.
        if pending == 0 && self.speculation_idle(now, kind) {
            return None;
        }
        if !self.sched.admit(node, site, kind, now) {
            return None;
        }
        // With nothing of this kind pending in any job, the walk below
        // cannot pick anything, so it never reaches `locality_gate` or
        // `launch`; skipping it (and the pure order it walks) is exact.
        if pending > 0 {
            let order = self.job_order(kind);
            let picked = match kind {
                TaskKind::Map => self.try_assign_map(now, node, site, topo, &order),
                TaskKind::Reduce => self.try_assign_reduce(now, node, topo, &order),
            };
            if picked.is_some() {
                return picked;
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
            // Walk the locality ladder: node → (rack) → site → remote.
            // A map's level is the best rung any of its split hints
            // (fixed at submission) reaches; the pick is the lowest
            // eligible pending map on the best level any reaches. The
            // rack rung only exists for rack-aware policies; FIFO keeps
            // the paper's exact three-level ladder. With no backoffs
            // recorded every pending map is eligible without a per-task
            // lookup.
            let no_backoff = job.retry_after.is_empty();
            let level = |m: u32| {
                job.spec.split_locations[m as usize]
                    .iter()
                    .map(|&n| {
                        if n == node {
                            Locality::NodeLocal
                        } else if rack_aware && topo.rack_of(n) == rack {
                            Locality::RackLocal
                        } else if topo.site_of(n) == site {
                            Locality::SiteLocal
                        } else {
                            Locality::Remote
                        }
                    })
                    .min()
                    .unwrap_or(Locality::Remote)
            };
            let mut pick: Option<(u32, Locality)> = None;
            for &m in &job.pending_maps {
                if !no_backoff && !job.retry_eligible(TaskKind::Map, m, now) {
                    continue;
                }
                let l = level(m);
                if pick.is_none_or(|(_, best)| l < best) {
                    pick = Some((m, l));
                    if l == Locality::NodeLocal {
                        break;
                    }
                }
            }
            let Some((m, locality)) = pick else {
                continue; // nothing pending, or all of it cooling down
            };
            // Delay scheduling: the policy may decline the best level on
            // offer, leaving the job's tasks pending in the hope that a
            // better-placed slot heartbeats soon.
            if self.sched.locality_gate(jid.0, locality, now) == Gate::Defer {
                continue;
            }
            self.pending_remove(jid, TaskKind::Map, m);
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
            self.pending_remove(jid, TaskKind::Reduce, r);
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
    /// reduce gets its shuffle plan (and ignores `locality`). The policy
    /// hears of a map launch. Both assignment paths — pending work and
    /// speculation — launch through here.
    fn launch(
        &mut self,
        now: SimTime,
        task: TaskRef,
        node: NodeId,
        locality: Locality,
        topo: &Topology,
    ) -> Assignment {
        let attempt = self.start_attempt(now, task, node);
        if task.kind == TaskKind::Reduce {
            self.init_reduce_plan(attempt, topo);
            return Assignment::Reduce { attempt };
        }
        match locality {
            Locality::NodeLocal => self.counters.node_local += 1,
            Locality::RackLocal => self.counters.rack_local += 1,
            Locality::SiteLocal => self.counters.site_local += 1,
            Locality::Remote => self.counters.remote += 1,
        }
        self.sched.on_map_launched(task.job.0, locality);
        Assignment::Map { attempt, locality }
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

    /// One speculative attempt for a straggling `kind` task, if any
    /// qualifies (paper: task 1/3 slower than average; ≤ 2 copies).
    ///
    /// Each job past the scan cooldown and the mean test has its `kind`
    /// task table scanned in index order (DESIGN §11): few scans get
    /// that far, so the scan needs no index of its own.
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
        let order = self.job_order(kind);
        let picked = self.try_speculate(now, node, kind, topo, &order);
        if picked.is_none() && !self.cfg.eager_copies {
            self.spec_quiet[kind as usize] = Some(self.spec_quiet_instant(kind));
        }
        picked
    }

    /// Whether a `kind` speculation scan at `now` would find nothing to
    /// do: speculation is off, or (outside eager-copy mode) `now` is
    /// before the cached quiet instant.
    fn speculation_idle(&self, now: SimTime, kind: TaskKind) -> bool {
        !self.cfg.speculative_enabled
            || (!self.cfg.eager_copies
                && self.spec_quiet[kind as usize].is_some_and(|quiet| now < quiet))
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
                None
            } else {
                let mean = match kind {
                    TaskKind::Map => job.mean_map_secs(self.cfg.speculative_min_completed),
                    TaskKind::Reduce => job.mean_reduce_secs(self.cfg.speculative_min_completed),
                };
                let Some(mean) = mean else { continue };
                Some(mean * SPECULATIVE_FACTOR)
            };
            let max_copies = self.cfg.max_task_copies as usize;
            let tasks = match kind {
                TaskKind::Map => &job.maps,
                TaskKind::Reduce => &job.reduces,
            };
            // The lowest-indexed unfinished task with at least one and
            // fewer than `max_copies` running attempts, every one of them
            // on another node and older than the threshold.
            let straggles = |a: &AttemptState| {
                a.node != node
                    && threshold.is_none_or(|t| now.saturating_since(a.started).as_secs_f64() > t)
            };
            let candidate = tasks.iter().position(|t| {
                let running = t.running_attempts();
                !t.done
                    && running > 0
                    && running < max_copies
                    && t.attempts
                        .iter()
                        .filter(|a| a.phase == AttemptPhase::Running)
                        .all(straggles)
            });
            let Some(index) = candidate else {
                self.jobs[jid.0 as usize].spec_last_scan = now;
                continue;
            };
            let index = index as u32;
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
            // A speculative map is always a remote read, Hadoop's blind
            // re-execution: its draw pattern is fingerprint-critical.
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
    /// the running count, its tracker slot, and its shuffle plan (with
    /// the sort flag). Success, sibling kills and aborts all stop
    /// attempts here. Returns where it ran and when it started.
    fn stop_attempt(&mut self, att: AttemptRef, phase: AttemptPhase) -> (NodeId, SimTime) {
        let job = &mut self.jobs[att.task.job.0 as usize];
        let a = &mut job.task_mut(att.task).attempts[att.attempt as usize];
        a.phase = phase;
        let (node, started) = (a.node, a.started);
        *job.running_mut(att.task.kind) -= 1;
        job.reduce_plans.remove(&att);
        self.bump_epoch();
        if let Some(t) = self.trackers.get_mut(node) {
            t.running.remove(&att);
        }
        (node, started)
    }

    /// Close the job if every task is done (a map-only job once its last
    /// map is). Idempotent.
    fn maybe_complete_job(&mut self, now: SimTime, jid: JobId) -> Vec<JtNote> {
        let job = &self.jobs[jid.0 as usize];
        if job.status != JobStatus::Running || !job.all_done() {
            return Vec::new();
        }
        self.close_job(jid, Some(now), "job_done");
        vec![JtNote::JobCompleted { job: jid }]
    }

    /// Close a job: a finish instant means success, none failure. Sets
    /// the status, counts it, traces `kind` and retires the job.
    fn close_job(&mut self, jid: JobId, finished: Option<SimTime>, kind: &'static str) {
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
        self.retire_job(jid);
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
        let site = self
            .trackers
            .get(node)
            .expect("attempts start on registered trackers")
            .site;
        self.sched.on_attempt_failed(node, site, now);
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
                return self.fail_job(jid);
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
        self.pending_insert(jid, att.task.kind, att.task.index);
        Vec::new()
    }

    /// A task exhausted its attempts: kill the job's running attempts
    /// and close it as failed.
    fn fail_job(&mut self, jid: JobId) -> Vec<JtNote> {
        let mut notes: Vec<JtNote> = self
            .kill_all(jid)
            .into_iter()
            .map(|(attempt, node)| JtNote::KillAttempt { attempt, node })
            .collect();
        self.close_job(jid, None, "job_done");
        notes.push(JtNote::JobFailed { job: jid });
        notes
    }

    /// Kill every running attempt of `jid` wholesale, without blame: the
    /// running counts and shuffle plans empty, and each attempt leaves
    /// its tracker slot. Returns the killed attempts in task order, with
    /// the nodes they ran on.
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
        job.running_maps = 0;
        job.running_reduces = 0;
        self.bump_epoch();
        for &(att, node) in &killed {
            if let Some(t) = self.trackers.get_mut(node) {
                t.running.remove(&att);
            }
        }
        killed
    }

    /// Free the job's scratch space everywhere, drop it from the queue
    /// and tell the policy.
    fn retire_job(&mut self, jid: JobId) {
        let scratch = std::mem::take(&mut self.jobs[jid.0 as usize].scratch_by_node);
        for (node, bytes) in scratch {
            if let Some(t) = self.trackers.get_mut(node) {
                t.release_scratch(bytes);
            }
        }
        let was_queued = self.fifo.contains(&jid);
        self.fifo.retain(|&j| j != jid);
        if was_queued {
            // Whatever the job still had pending (failed jobs retire with
            // tasks still pending) leaves the counts with it.
            let job = &self.jobs[jid.0 as usize];
            self.pending[TaskKind::Map as usize] -= job.pending_maps.len();
            self.pending[TaskKind::Reduce as usize] -= job.pending_reduces.len();
            self.bump_epoch();
        }
        self.sched.on_job_removed(jid.0);
    }

    // ------------------------------------------------------------------
    // Reduce-side protocol
    // ------------------------------------------------------------------

    /// What should this reduce attempt do now? Called after assignment,
    /// after each fetch completes/fails, and when woken by new map output.
    pub fn reduce_next(&mut self, att: AttemptRef) -> ReduceStep {
        if !self.attempt_active(att) {
            return ReduceStep::Wait;
        }
        let parallel = SHUFFLE_PARALLEL;
        let jid = att.task.job;
        let job = &mut self.jobs[jid.0 as usize];
        let all_maps_done = job.all_maps_done();
        let Some(plan) = job.reduce_plans.get_mut(&att).filter(|p| !p.sorting) else {
            return ReduceStep::Wait;
        };
        let orders = plan.next_orders(parallel);
        if !orders.is_empty() {
            return ReduceStep::Fetch(orders);
        }
        if plan.complete() && all_maps_done {
            plan.sorting = true;
            return ReduceStep::StartSort;
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
                self.pending_insert(jid, t.kind, t.index);
            }
        }
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
        }
    }

    /// Force a job terminal after a failover: the client already saw it
    /// finish (the old master reported before crashing), so the new
    /// master must not run it again even though the restored image still
    /// has it `Running`. Counters and queue membership update exactly as
    /// if the job finished normally.
    pub fn recover_force_terminal(&mut self, jid: JobId, finished: SimTime, ok: bool) {
        if self.jobs[jid.0 as usize].status == JobStatus::Running {
            self.close_job(jid, ok.then_some(finished), "recover_force_terminal");
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
    /// scan stamp, duration sums), tracker records, queue and counters.
    /// Equal logical state produces byte-identical output. The
    /// scheduling policy's own state (its failure history) is not part
    /// of the ledger, and neither is derived state a recount reproduces:
    /// the speculation quiet instants and the memoized reduce readiness.
    pub fn export_ledger(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "ledger v1 jobs={} trackers={} policy={}",
            self.jobs.len(),
            self.trackers.len(),
            self.cfg.sched.as_str()
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
            let plans = sorted(
                job.reduce_plans
                    .iter()
                    .map(|(&a, p)| (a, p.complete(), p.sorting)),
            );
            let scratch = sorted(job.scratch_by_node.iter().map(|(n, &b)| (n.0, b)));
            let retry = sorted(job.retry_after.iter().map(|(&k, &t)| (k, t)));
            let _ = writeln!(s, "  plans={plans:?} scratch={scratch:?} retry={retry:?}");
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
        // The per-job running counts must equal a recount of the task
        // tables.
        for (&jid, job) in self
            .fifo
            .iter()
            .map(|jid| (jid, &self.jobs[jid.0 as usize]))
        {
            let recount = |tasks: &[crate::job::TaskState]| -> u32 {
                tasks.iter().map(|t| t.running_attempts() as u32).sum()
            };
            let (maps, reduces) = (recount(&job.maps), recount(&job.reduces));
            if (job.running_maps, job.running_reduces) != (maps, reduces) {
                out.push(Violation::new(
                    "mapreduce",
                    format!(
                        "job {} running counts drifted: counted {}m/{}r, tables {maps}m/{reduces}r",
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
                let cached = self.spec_quiet[kind as usize];
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
        // A memoized reduce readiness for the current epoch must equal a
        // recount (an older epoch's is never read).
        let (epoch, ready) = self.reduce_ready.get();
        if epoch == self.sched_epoch && ready != self.recount_reduce_ready() {
            out.push(Violation::new(
                "mapreduce",
                format!("reduce readiness {ready} memoized at epoch {epoch} drifted"),
            ));
        }
        // The pending counts must equal a recount of the queue.
        let b = self.backlog();
        let recount = [b.pending_maps, b.pending_reduces];
        if recount != self.pending {
            out.push(Violation::new(
                "mapreduce",
                format!(
                    "pending counts drifted: kept {:?}, recounted {recount:?}",
                    self.pending
                ),
            ));
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
    use hog_hdfs::BlockId;
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
        jt.submit_job(SimTime::ZERO, spec);
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
        let job = jt.submit_job(SimTime::ZERO, spec);
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
            jt.sched.on_attempt_failed(quarantined, hot, t(1));
        }
        assert!(!jt.sched.admit(quarantined, hot, TaskKind::Map, t(2)));
        assert!(jt.sched.admit(healthy, calm, TaskKind::Map, t(2)));
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
        jt.submit_job(t(2), one_map(worker));
        assert_eq!(jt.heartbeat(t(2), worker, &topo).len(), 1);
        // Nothing pending. The first idle heartbeat scans for stragglers,
        // finds no job with a mean and leaves speculation quiet.
        assert_eq!(jt.backlog().pending_maps, 0);
        assert!(jt.heartbeat(t(3), healthy, &topo).is_empty());
        assert!(jt.speculation_idle(t(3), TaskKind::Map));
        assert!(jt.heartbeat(t(3), quarantined, &topo).is_empty());
        assert!(jt.heartbeat(t(3), healthy, &topo).is_empty());
        // A pending map, node-local to the quarantined node only.
        jt.submit_job(t(4), one_map(quarantined));
        assert!(jt.heartbeat(t(4), quarantined, &topo).is_empty());
        let got = jt.heartbeat(t(4), healthy, &topo);
        assert!(matches!(got[..], [Assignment::Map { .. }]), "{got:?}");
        assert!(jt.heartbeat(t(5), quarantined, &topo).is_empty());
    }

    /// `heartbeat_idle` answers each tracker state, and gates reduces on
    /// slowstart: a tracker whose free slots can get nothing is idle, and
    /// its heartbeat then assigns nothing and leaves the ledger as it is.
    /// The audit checks the memoized reduce readiness against a recount.
    #[test]
    fn heartbeat_idle_follows_liveness_and_slowstart() {
        use hog_sim_core::Auditable;
        let mut topo = Topology::new();
        let site = topo.add_site("S0".to_string(), "s0.edu".to_string());
        let n: Vec<NodeId> = (0..3).map(|_| topo.add_node(site)).collect();
        let cfg = MrParams::hog().with_speculation(false);
        let mut jt = JobTracker::new(cfg, HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(1));
        for &node in &n {
            jt.register_tracker(SimTime::ZERO, node, site, 1, 1);
        }
        let spec = JobSubmission {
            input_blocks: vec![(BlockId(0), 64), (BlockId(1), 64)],
            split_locations: vec![vec![n[0]], vec![n[1]]],
            reduces: 1,
            map_cpu_secs: 1.0,
            map_output_bytes: 100,
            reduce_cpu_secs: 1.0,
            reduce_output_bytes: 10,
            output_replication: 1,
        };
        jt.submit_job(SimTime::ZERO, spec);
        let t = SimTime::from_secs;
        assert!(jt.heartbeat_idle(t(1), topo.add_node(site)), "no record");
        assert!(!jt.heartbeat_idle(t(1), n[0]), "maps pending");
        let maps: Vec<Assignment> = [n[0], n[1]]
            .iter()
            .flat_map(|&node| jt.heartbeat(t(1), node, &topo))
            .collect();
        assert_eq!(maps.len(), 2);
        // No map pending, and the reduce waits for slowstart: a full map
        // slot and a free reduce slot get nothing, and neither does an
        // empty tracker.
        assert!(jt.heartbeat_idle(t(2), n[0]));
        assert!(jt.heartbeat_idle(t(2), n[2]));
        let ledger = jt.export_ledger();
        assert!(jt.heartbeat(t(2), n[2], &topo).is_empty());
        assert_eq!(
            jt.export_ledger(),
            ledger,
            "an idle heartbeat changed the ledger"
        );
        // A suspect fails the JobTracker-wide answer; the tracker record
        // decides.
        jt.tracker_silent(t(3), n[2]);
        assert!(!jt.heartbeat_idle(t(4), n[2]), "a heartbeat revives it");
        assert!(jt.heartbeat_idle(t(4), n[0]));
        jt.check_dead(t(40));
        assert!(jt.heartbeat_idle(t(41), n[2]), "dead trackers are ignored");
        // The first map completion passes slowstart: the reduce is
        // assignable, and goes to the first free reduce slot.
        jt.map_done(t(42), maps[0].attempt(), &topo);
        assert!(jt.audit().is_empty(), "{:?}", jt.audit());
        assert!(!jt.heartbeat_idle(t(43), n[1]));
        let got = jt.heartbeat(t(43), n[1], &topo);
        assert!(matches!(got[..], [Assignment::Reduce { .. }]), "{got:?}");
        assert!(jt.heartbeat_idle(t(44), n[0]));
        assert!(jt.audit().is_empty(), "{:?}", jt.audit());
        // A memo that disagrees with the recount is a violation.
        jt.reduce_ready.set((jt.sched_epoch, true));
        let audit = jt.audit();
        assert_eq!(audit.len(), 1, "{audit:?}");
        assert!(audit[0].to_string().contains("reduce readiness"));
    }

    /// The locality ladder over one job's split hints, seen from the
    /// heartbeating node: from the lowest map index up, a remote-only
    /// map, a site-local map, a rack-local map, a node-local map in
    /// retry backoff and an eligible node-local map. Both policies take
    /// the eligible node-local map first. With no node-local map left,
    /// FIFO skips the rack rung and takes the site-local map, while Fair
    /// defers until its node delay has run out and then takes the
    /// rack-local map.
    #[test]
    fn the_locality_ladder_takes_the_lowest_map_on_the_best_rung() {
        use hog_sched::SchedPolicy;
        use Locality::{NodeLocal, RackLocal, SiteLocal};
        let mut topo = Topology::new();
        let near = topo.add_site("S0", "s0.edu");
        let far = topo.add_site("S1", "s1.edu");
        // A rack is 16 consecutive nodes of one site.
        let s0: Vec<NodeId> = (0..17).map(|_| topo.add_node(near)).collect();
        let (node, rack_mate, site_mate) = (s0[0], s0[1], s0[16]);
        let remote = topo.add_node(far);
        assert_eq!(topo.rack_of(node), topo.rack_of(rack_mate));
        assert_ne!(topo.rack_of(node), topo.rack_of(site_mate));
        let t = SimTime::from_secs;
        let ladder = |policy| {
            let cfg = MrParams::hog()
                .with_speculation(false)
                .with_scheduler(policy);
            let mut jt = JobTracker::new(cfg, HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(1));
            jt.register_tracker(SimTime::ZERO, node, near, 2, 1);
            let hints = [remote, site_mate, rack_mate, node, node];
            jt.submit_job(
                SimTime::ZERO,
                JobSubmission {
                    input_blocks: (0..5).map(|b| (BlockId(b), 64)).collect(),
                    split_locations: hints.iter().map(|&n| vec![n]).collect(),
                    reduces: 0,
                    map_cpu_secs: 1.0,
                    map_output_bytes: 100,
                    reduce_cpu_secs: 1.0,
                    reduce_output_bytes: 10,
                    output_replication: 1,
                },
            );
            // Map 3 failed an attempt and is still backing off.
            jt.jobs[0].retry_after.insert((TaskKind::Map, 3), t(100));
            jt
        };
        let picks = |got: Vec<Assignment>| -> Vec<(u32, Locality)> {
            got.iter()
                .map(|a| match a {
                    Assignment::Map { attempt, locality } => (attempt.task.index, *locality),
                    Assignment::Reduce { .. } => panic!("a map-only job"),
                })
                .collect()
        };
        let mut fifo = ladder(SchedPolicy::Fifo);
        let got = picks(fifo.heartbeat(t(1), node, &topo));
        assert_eq!(got, [(4, NodeLocal), (1, SiteLocal)]);
        let mut fair = ladder(SchedPolicy::Fair);
        assert_eq!(picks(fair.heartbeat(t(1), node, &topo)), [(4, NodeLocal)]);
        assert!(fair.heartbeat(t(6), node, &topo).is_empty(), "waits 6 s");
        assert_eq!(picks(fair.heartbeat(t(7), node, &topo)), [(2, RackLocal)]);
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
    }
}
