//! MapReduce runtime parameters.

use hog_sched::SchedPolicy;
use hog_sim_core::units::{mib_per_s, GIB};
use hog_sim_core::SimDuration;

/// TaskTracker heartbeat period (assignment latency granularity).
pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(3);

/// Speculation trigger: attempt elapsed > factor × mean completed task
/// duration (paper: "1/3 slower than average" → 1.33).
pub const SPECULATIVE_FACTOR: f64 = 1.33;

/// Concurrent shuffle fetch flows per reduce attempt
/// (`mapred.reduce.parallel.copies`, batched by source site here).
pub const SHUFFLE_PARALLEL: usize = 2;

/// Failed shuffle fetches of one completed map before the JobTracker
/// declares its output lost and re-executes the map ("too many fetch
/// failures" in Hadoop 0.20).
pub const FETCH_FAIL_THRESHOLD: u8 = 3;

/// Sequential read rate of the worker-local disk (map input when the
/// block is node-local, reduce merge passes).
pub const DISK_READ_RATE: f64 = mib_per_s(90.0);

/// Sequential write rate of the worker-local disk (map spill).
pub const DISK_WRITE_RATE: f64 = mib_per_s(70.0);

/// Tunables of the MapReduce model. The dead-tracker timeout is not
/// here: the JobTracker shares the namenode's
/// (`HdfsConfig::dead_node_timeout`), passed to [`crate::JobTracker::new`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MrParams {
    /// Fraction of a job's maps that must finish before its reduces are
    /// scheduled (`mapred.reduce.slowstart.completed.maps`).
    pub reduce_slowstart: f64,
    /// Whether speculative execution is enabled at all.
    pub speculative_enabled: bool,
    /// Minimum completed tasks of a kind before speculation may trigger.
    pub speculative_min_completed: u32,
    /// Max execution attempts per task before the job is failed
    /// (`mapred.map.max.attempts`).
    pub max_attempts: u8,
    /// Cooldown before a failed task may be reassigned. Spreads retries
    /// out so a transient bad node (e.g. a zombie that the disk self-check
    /// will evict within 3 minutes) cannot burn a task's whole attempt
    /// budget in seconds.
    pub retry_backoff: SimDuration,
    /// Failed attempts of one job on one tracker before that tracker is
    /// blacklisted for the job.
    pub blacklist_threshold: u8,
    /// Maximum concurrent execution copies of one task. Hadoop 0.20 (and
    /// the paper's HOG) cap this at 2 — original + one speculative copy.
    /// The paper's future work proposes making it configurable; values
    /// above 2 are exercised by the multi-copy experiment (X6).
    pub max_task_copies: u8,
    /// Launch extra copies eagerly (no straggler threshold) whenever slots
    /// are idle, up to `max_task_copies` — the paper's §VI proposal of
    /// running every task redundantly and taking the fastest.
    pub eager_copies: bool,
    /// Local scratch disk available for intermediate data per worker.
    pub scratch_capacity: u64,
    /// Slot-assignment policy (stock Hadoop FIFO by default; see
    /// `hog-sched` for the fair and failure-aware alternatives).
    pub sched: SchedPolicy,
}

impl MrParams {
    /// HOG settings: stock Hadoop 0.20 defaults (HOG's fast failure
    /// detection is the shared dead-node timeout).
    pub fn hog() -> Self {
        MrParams {
            reduce_slowstart: 0.05,
            speculative_enabled: true,
            speculative_min_completed: 3,
            max_attempts: 4,
            retry_backoff: SimDuration::from_secs(60),
            blacklist_threshold: 3,
            max_task_copies: 2,
            eager_copies: false,
            scratch_capacity: 20 * GIB,
            sched: SchedPolicy::Fifo,
        }
    }

    /// Stock settings for the dedicated cluster (ample scratch disk).
    pub fn stock() -> Self {
        MrParams {
            scratch_capacity: 200 * GIB,
            ..Self::hog()
        }
    }

    /// Builder: scratch capacity (disk-overflow experiment X4).
    pub fn with_scratch(mut self, bytes: u64) -> Self {
        self.scratch_capacity = bytes;
        self
    }

    /// Builder: toggle speculation.
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculative_enabled = on;
        self
    }

    /// Builder: slot-assignment policy.
    pub fn with_scheduler(mut self, policy: SchedPolicy) -> Self {
        self.sched = policy;
        self
    }

    /// Builder: multi-copy task execution (paper §VI future work). `k = 1`
    /// disables extra copies; `k = 2` is stock speculation; `k > 2` with
    /// `eager` runs every task k-way redundantly, taking the fastest.
    pub fn with_task_copies(mut self, k: u8, eager: bool) -> Self {
        self.max_task_copies = k.max(1);
        self.eager_copies = eager;
        self.speculative_enabled = k > 1;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let hog = MrParams::hog();
        assert!(hog.speculative_enabled);
        assert_eq!(hog.max_attempts, 4);
        let stock = MrParams::stock();
        assert!(stock.scratch_capacity > hog.scratch_capacity);
    }

    #[test]
    fn builders() {
        let p = MrParams::hog().with_scratch(123).with_speculation(false);
        assert_eq!(p.scratch_capacity, 123);
        assert!(!p.speculative_enabled);
    }
}
