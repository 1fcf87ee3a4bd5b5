//! Hadoop MapReduce 1.0 model.
//!
//! The computation half of the Hadoop cluster: a central **JobTracker**
//! and one **TaskTracker** per worker node, communicating by heartbeat.
//! What is modelled (because the paper's results depend on it):
//!
//! * **Policy-driven scheduling with locality levels** — on a tasktracker
//!   heartbeat the JobTracker hands out map tasks preferring *node-local*
//!   input, then *site-local* (HOG's site awareness applied to
//!   scheduling), then remote (§III-B.2). Job order, locality gating and
//!   node admission are delegated to the [`hog_sched::Scheduler`] the
//!   JobTracker owns, selected by [`MrParams::sched`]; the default FIFO
//!   policy reproduces stock Hadoop exactly.
//! * **Speculative execution** — a task running ≥ 1/3 slower than the
//!   job's average gets a second attempt; at most two copies ever run
//!   (paper §IV-B; making this configurable for K > 2 is the paper's
//!   future work, implemented by [`MrParams::with_task_copies`] and
//!   measured by hog-core's `experiments::ablation_multicopy`).
//! * **Shuffle** — each reduce fetches every map's partition; fetches are
//!   batched by source site and moved over the network model, which is
//!   where HOG's WAN penalty bites (§IV-D.2).
//! * **Intermediate-data disk accounting** — map output stays on the
//!   worker's scratch disk until the whole job finishes; workers run out
//!   of disk under reduce backlog, failing tasks (the §IV-D.2 disk
//!   overflow lesson).
//! * **Failure handling** — tasktracker death (30 s timeout, detected by
//!   the failure detector the namenode also uses,
//!   [`hog_sim_core::LivenessIndex`]) reschedules running attempts *and
//!   re-runs completed maps whose outputs died with the node*; per-job
//!   tasktracker blacklisting after repeated failures; jobs fail after
//!   `max_attempts` per task.
//!
//! As with `hog-hdfs`, everything here is a synchronous state machine; the
//! mediator in `hog-core` owns time and bytes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod job;
pub mod jobtracker;
pub mod shuffle;
pub mod tracker;

pub use config::MrParams;
pub use hog_sched::SchedPolicy;
pub use job::{JobId, JobSubmission, TaskKind, TaskRef};
pub use jobtracker::{Assignment, Backlog, JobTracker, JtNote, ReduceStep};
pub use shuffle::FetchOrder;

/// One execution attempt of a task. `attempt` counts from 0; speculative
/// copies reuse the same task with a higher attempt number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttemptRef {
    /// The task being attempted.
    pub task: TaskRef,
    /// Attempt ordinal.
    pub attempt: u8,
}
