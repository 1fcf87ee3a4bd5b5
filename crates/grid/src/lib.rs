//! Open Science Grid substrate model.
//!
//! HOG acquires Hadoop worker nodes by submitting Condor glidein jobs
//! (`queue 1000`) that GlideinWMS matches to OSG sites. This crate models
//! that resource layer:
//!
//! * [`config`] — per-site configuration ([`SiteConfig`]): slot capacity,
//!   batch-queue acquisition delays, preemption (node-lifetime)
//!   distribution, optional whole-site outage process, public-IP flag (the
//!   paper restricts execution to five sites with publicly reachable
//!   worker nodes; NATed sites are unusable because Hadoop peers must talk
//!   directly).
//! * [`model`] — the [`GridModel`] state machine: requests queue → get
//!   matched to a site → wait out the batch queue → download the 75 MB
//!   Hadoop worker package → configure (late binding) → run → get
//!   preempted. Preempted glidein jobs requeue automatically
//!   (`OnExitRemove = FALSE` in the paper's submit file), which is what
//!   makes the pool self-healing.
//! * [`churn`] — the preemption generators behind [`ChurnModel`]: the
//!   legacy exponential default (bit-identical to pre-churn builds) and
//!   the OSG-calibrated heavy-tailed diurnal model.
//! * [`controller`] — the deterministic [`ElasticController`] feedback
//!   loop that resizes the glidein pool from backlog/supply snapshots.
//!
//! The model is event-driven but free of global state: the mediator
//! (in `hog-core`) feeds it [`GridEvent`]s and forwards the returned
//! [`GridNote`]s to HDFS and MapReduce (e.g. a preemption kills that node's
//! datanode and tasktracker).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod config;
pub mod controller;
pub mod model;

pub use churn::{CalibratedChurn, ChurnModel};
pub use config::SiteConfig;
pub use controller::{ElasticConfig, ElasticController, ElasticDecision, PoolSnapshot};
pub use model::{GridModel, GridOutput, LossReason};

use hog_net::NodeId;
use hog_net::SiteId;
use hog_sim_core::SimDuration;

/// Identifier of a glidein request (one queued Condor job).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Grid-internal event alphabet. The mediator wraps these in its unified
/// event enum and feeds them back to [`GridModel::handle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridEvent {
    /// The site's batch scheduler granted the request a slot.
    Provisioned {
        /// Which request got the slot.
        request: RequestId,
    },
    /// The worker package finished downloading and unpacking; daemons can
    /// start.
    DownloadDone {
        /// Which request the download belongs to.
        request: RequestId,
    },
    /// The site preempts this worker (job over time, owner reclaims, …).
    Preempt {
        /// The preempted worker node.
        node: NodeId,
    },
    /// A whole-site failure begins (core network/power event).
    SiteOutage {
        /// The failing site.
        site: SiteId,
    },
    /// The site comes back and accepts glideins again.
    SiteRecover {
        /// The recovering site.
        site: SiteId,
    },
    /// A previously preempted Condor job re-enters the negotiation cycle.
    Resubmit {
        /// The requeued request.
        request: RequestId,
    },
}

/// What the grid wants the mediator to know.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridNote {
    /// A worker finished starting up: its datanode/tasktracker are now
    /// running and will begin heartbeating.
    NodeStarted {
        /// The new worker.
        node: NodeId,
    },
    /// A running worker was lost.
    NodeLost {
        /// The dead worker.
        node: NodeId,
        /// Why it died.
        reason: LossReason,
    },
}

/// A `(delay, event)` pair the mediator must schedule.
pub type Deferred = (SimDuration, GridEvent);
