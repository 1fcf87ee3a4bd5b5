//! Job, task and attempt state.

use crate::shuffle::ReducePlan;
use crate::AttemptRef;
use hog_hdfs::BlockId;
use hog_net::NodeId;
use hog_sim_core::SimTime;
use std::collections::{BTreeSet, HashMap};

pub use hog_sched::TaskKind;

/// A MapReduce job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u32);

/// A task within a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskRef {
    /// Owning job.
    pub job: JobId,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Index within its kind (map 0..M, reduce 0..R).
    pub index: u32,
}

/// Everything the JobTracker needs to run a job, computed by the driver
/// from the workload's loadgen parameters.
#[derive(Clone, Debug)]
pub struct JobSubmission {
    /// Input block per map task, with its byte size (block `i` feeds map
    /// `i`). HDFS replica locations at submit time provide the static
    /// split locality hints, exactly like Hadoop's `InputSplit`s.
    pub input_blocks: Vec<(BlockId, u64)>,
    /// Static locality hints: nodes believed to hold each input block at
    /// submission (parallel to `input_blocks`).
    pub split_locations: Vec<Vec<NodeId>>,
    /// Number of reduce tasks.
    pub reduces: u32,
    /// CPU seconds per map task.
    pub map_cpu_secs: f64,
    /// Intermediate bytes produced by each map task.
    pub map_output_bytes: u64,
    /// CPU seconds per reduce task (merge + reduce function).
    pub reduce_cpu_secs: f64,
    /// Final output bytes written by each reduce task.
    pub reduce_output_bytes: u64,
    /// Replication factor for the job's output files.
    pub output_replication: u16,
}

impl JobSubmission {
    /// Number of map tasks.
    pub fn maps(&self) -> u32 {
        self.input_blocks.len() as u32
    }
}

/// Lifecycle of one task attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptPhase {
    /// Assigned, executing (map: read+compute+spill; reduce: shuffle etc.).
    Running,
    /// Finished successfully.
    Succeeded,
    /// Failed (node death, disk full, zombie node, lost block).
    Failed,
    /// Killed because a sibling attempt won.
    Killed,
}

/// One running/finished attempt.
#[derive(Clone, Debug)]
pub struct AttemptState {
    /// Where it runs.
    pub node: NodeId,
    /// When it was assigned.
    pub started: SimTime,
    /// Current phase.
    pub phase: AttemptPhase,
}

/// State of one task across its attempts.
#[derive(Clone, Debug, Default)]
pub struct TaskState {
    /// All attempts, indexed by attempt ordinal.
    pub attempts: Vec<AttemptState>,
    /// Completed?
    pub done: bool,
    /// For a completed map: where the winning attempt ran (shuffle source)
    /// and when it finished.
    pub completed_on: Option<NodeId>,
    /// Total failed attempts (drives job failure at `max_attempts`).
    pub failures: u8,
}

impl TaskState {
    /// Number of attempts currently running.
    pub fn running_attempts(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| a.phase == AttemptPhase::Running)
            .count()
    }
}

/// Job execution status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Some tasks still pending/running.
    Running,
    /// All reduces (or all maps for map-only jobs) succeeded.
    Succeeded,
    /// A task exhausted its attempts.
    Failed,
}

/// Full state of one job inside the JobTracker.
#[derive(Clone)]
pub struct JobState {
    /// The submission that created it.
    pub spec: JobSubmission,
    /// Submission instant (response-time accounting).
    pub submitted: SimTime,
    /// Completion instant, when finished.
    pub finished: Option<SimTime>,
    /// Map task states.
    pub maps: Vec<TaskState>,
    /// Reduce task states.
    pub reduces: Vec<TaskState>,
    /// Shuffle bookkeeping per reduce attempt: an entry exists exactly
    /// while its attempt runs (made at launch, dropped when the attempt
    /// stops or the job's attempts are killed wholesale).
    pub reduce_plans: HashMap<AttemptRef, ReducePlan>,
    /// Pending map indices not yet (re)assigned. Ascending, so the
    /// JobTracker's one pass over them for the best locality rung picks
    /// the lowest map index on that rung.
    pub pending_maps: BTreeSet<u32>,
    /// Pending reduce indices.
    pub pending_reduces: BTreeSet<u32>,
    /// Completed map count (fast slowstart checks).
    pub maps_done: u32,
    /// Completed reduce count.
    pub reduces_done: u32,
    /// Status.
    pub status: JobStatus,
    /// Per-tracker failure counts for this job (blacklisting).
    pub tracker_failures: HashMap<NodeId, u8>,
    /// Shuffle-fetch failures per completed map ("too many fetch failures"
    /// re-executes the map).
    pub map_fetch_failures: HashMap<u32, u8>,
    /// Last unsuccessful speculation scan (rate-limits the scan so idle
    /// heartbeats stay cheap at 1000+ nodes).
    pub spec_last_scan: SimTime,
    /// Running map attempts: the task tables' `Running` attempts,
    /// counted so the fair scheduler's job order reads them on every
    /// pick without a scan (audited against a recount).
    pub running_maps: u32,
    /// Running reduce attempts, kept the same way.
    pub running_reduces: u32,
    /// Earliest instant a failed task may be retried (retry backoff),
    /// keyed by (kind, index).
    pub retry_after: HashMap<(TaskKind, u32), SimTime>,
    /// Intermediate bytes this job holds on each node's scratch disk.
    pub scratch_by_node: HashMap<NodeId, u64>,
    /// Mean duration accounting for speculation: total seconds and count
    /// of completed maps.
    pub map_duration_stats: (f64, u32),
    /// Same for reduces.
    pub reduce_duration_stats: (f64, u32),
}

impl JobState {
    /// Fresh state from a submission.
    pub fn new(spec: JobSubmission, now: SimTime) -> Self {
        let m = spec.maps() as usize;
        let r = spec.reduces as usize;
        JobState {
            submitted: now,
            finished: None,
            maps: (0..m).map(|_| TaskState::default()).collect(),
            reduces: (0..r).map(|_| TaskState::default()).collect(),
            reduce_plans: HashMap::new(),
            pending_maps: (0..m as u32).collect::<BTreeSet<_>>(),
            pending_reduces: (0..r as u32).collect::<BTreeSet<_>>(),
            maps_done: 0,
            reduces_done: 0,
            status: JobStatus::Running,
            tracker_failures: HashMap::new(),
            map_fetch_failures: HashMap::new(),
            spec_last_scan: SimTime::ZERO,
            running_maps: 0,
            running_reduces: 0,
            retry_after: HashMap::new(),
            scratch_by_node: HashMap::new(),
            map_duration_stats: (0.0, 0),
            reduce_duration_stats: (0.0, 0),
            spec,
        }
    }

    /// Whether enough maps completed for reduces to start.
    pub fn slowstart_reached(&self, slowstart: f64) -> bool {
        if self.spec.maps() == 0 {
            return true;
        }
        self.maps_done as f64 >= slowstart * self.spec.maps() as f64
    }

    /// Whether every map has completed.
    pub fn all_maps_done(&self) -> bool {
        self.maps_done == self.spec.maps()
    }

    /// Whether the whole job is finished successfully.
    pub fn all_done(&self) -> bool {
        self.all_maps_done() && self.reduces_done == self.spec.reduces
    }

    /// The task state for a reference (panics on job mismatch upstream).
    pub fn task(&self, t: TaskRef) -> &TaskState {
        match t.kind {
            TaskKind::Map => &self.maps[t.index as usize],
            TaskKind::Reduce => &self.reduces[t.index as usize],
        }
    }

    /// Mutable task state.
    pub fn task_mut(&mut self, t: TaskRef) -> &mut TaskState {
        match t.kind {
            TaskKind::Map => &mut self.maps[t.index as usize],
            TaskKind::Reduce => &mut self.reduces[t.index as usize],
        }
    }

    /// Currently running attempts of one kind (kept incrementally; feeds
    /// the fair scheduler's load view).
    pub fn running_of(&self, kind: TaskKind) -> u32 {
        match kind {
            TaskKind::Map => self.running_maps,
            TaskKind::Reduce => self.running_reduces,
        }
    }

    /// The running-attempt count of one kind, to adjust as an attempt
    /// enters or leaves `Running`.
    pub(crate) fn running_mut(&mut self, kind: TaskKind) -> &mut u32 {
        match kind {
            TaskKind::Map => &mut self.running_maps,
            TaskKind::Reduce => &mut self.running_reduces,
        }
    }

    /// The pending indices of one kind.
    pub(crate) fn pending_mut(&mut self, kind: TaskKind) -> &mut BTreeSet<u32> {
        match kind {
            TaskKind::Map => &mut self.pending_maps,
            TaskKind::Reduce => &mut self.pending_reduces,
        }
    }

    /// Is the tracker blacklisted for this job?
    pub fn blacklisted(&self, node: NodeId, threshold: u8) -> bool {
        self.tracker_failures
            .get(&node)
            .is_some_and(|&f| f >= threshold)
    }

    /// Whether a pending task is past its retry backoff.
    pub fn retry_eligible(&self, kind: TaskKind, index: u32, now: SimTime) -> bool {
        self.retry_after
            .get(&(kind, index))
            .is_none_or(|&t| t <= now)
    }

    /// Mean completed map duration in seconds (None below `min` samples).
    pub fn mean_map_secs(&self, min: u32) -> Option<f64> {
        let (sum, n) = self.map_duration_stats;
        (n >= min && n > 0).then(|| sum / n as f64)
    }

    /// Mean completed reduce duration in seconds.
    pub fn mean_reduce_secs(&self, min: u32) -> Option<f64> {
        let (sum, n) = self.reduce_duration_stats;
        (n >= min && n > 0).then(|| sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(maps: usize, reduces: u32) -> JobSubmission {
        JobSubmission {
            input_blocks: (0..maps).map(|i| (BlockId(i as u64), 64)).collect(),
            split_locations: vec![vec![]; maps],
            reduces,
            map_cpu_secs: 10.0,
            map_output_bytes: 32,
            reduce_cpu_secs: 5.0,
            reduce_output_bytes: 16,
            output_replication: 3,
        }
    }

    #[test]
    fn fresh_job_state() {
        let j = JobState::new(spec(10, 4), SimTime::from_secs(5));
        assert_eq!(j.pending_maps.len(), 10);
        assert_eq!(j.pending_reduces.len(), 4);
        assert_eq!(j.status, JobStatus::Running);
        assert!(!j.all_maps_done());
        assert!(!j.all_done());
    }

    #[test]
    fn slowstart_threshold() {
        let mut j = JobState::new(spec(100, 4), SimTime::ZERO);
        assert!(!j.slowstart_reached(0.05));
        j.maps_done = 5;
        assert!(j.slowstart_reached(0.05));
        // Map-only degenerate case.
        let j0 = JobState::new(spec(0, 0), SimTime::ZERO);
        assert!(j0.slowstart_reached(0.05));
    }

    #[test]
    fn duration_stats() {
        let mut j = JobState::new(spec(10, 2), SimTime::ZERO);
        assert_eq!(j.mean_map_secs(1), None);
        j.map_duration_stats = (30.0, 3);
        assert_eq!(j.mean_map_secs(3), Some(10.0));
        assert_eq!(j.mean_map_secs(4), None);
    }

    #[test]
    fn blacklisting() {
        let mut j = JobState::new(spec(1, 0), SimTime::ZERO);
        assert!(!j.blacklisted(NodeId(1), 3));
        j.tracker_failures.insert(NodeId(1), 3);
        assert!(j.blacklisted(NodeId(1), 3));
        assert!(!j.blacklisted(NodeId(1), 4));
    }
}
