//! The unified event alphabet of a full-cluster simulation.

use hog_grid::GridEvent;
use hog_mapreduce::AttemptRef;
use hog_net::NodeId;

/// Everything that can happen in a cluster run. The mediator
/// ([`crate::cluster::Cluster`]) dispatches these to the substrate state
/// machines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A grid-layer event (provisioning, preemption, outages, …).
    Grid(GridEvent),
    /// Advance the network model; deliver finished flows.
    NetTick,
    /// Periodic master work: namenode tick (death detection +
    /// replication monitor), jobtracker death check, series sampling.
    MasterTick,
    /// A tasktracker heartbeat (scheduling opportunity).
    Heartbeat {
        /// The heartbeating worker.
        node: NodeId,
    },
    /// The worker's periodic working-directory self-check (zombie fix).
    DiskCheck {
        /// The checking worker.
        node: NodeId,
    },
    /// A map attempt finished reading its input.
    MapInputReady {
        /// The attempt.
        attempt: AttemptRef,
    },
    /// A map attempt finished its map function.
    MapComputeDone {
        /// The attempt.
        attempt: AttemptRef,
    },
    /// A map attempt finished spilling its output to local disk.
    MapSpillDone {
        /// The attempt.
        attempt: AttemptRef,
    },
    /// A reduce attempt finished merge-sort + reduce compute.
    ReduceSortDone {
        /// The attempt.
        attempt: AttemptRef,
    },
    /// A shuffle fetch aimed at an unusable source timed out.
    FetchTimeout {
        /// The fetching reduce attempt.
        attempt: AttemptRef,
        /// The failed order id.
        order: u64,
    },
    /// An attempt is doomed (zombie node, missing block); report the
    /// failure after its short futile lifetime.
    AttemptDoomed {
        /// The attempt.
        attempt: AttemptRef,
        /// Encoded reason (see `cluster::DoomReason`).
        reason: DoomReason,
    },
    /// Submit workload job `index` (relative to the workload start).
    SubmitJob {
        /// Index into the submission schedule.
        index: usize,
    },
    /// Stage more input blocks, up to eight in flight at once.
    PumpUpload,
    /// Elastically resize the glidein pool (paper §IV-C): positive delta
    /// submits more Condor jobs, negative removes workers.
    ResizePool {
        /// Signed change in target pool size.
        delta: i64,
    },
    /// Run one HDFS balancer iteration (paper: "They can use the HDFS
    /// balancer to balance the data distribution").
    BalancerTick,
    /// Inject fault `index` of the configured
    /// [`FaultPlan`](hog_chaos::FaultPlan) (hog-chaos).
    Chaos {
        /// Index into the fault plan.
        index: u32,
    },
    /// End the windowed fault `index` of the configured fault plan
    /// (heal a partition, restore WAN bandwidth, …).
    ChaosEnd {
        /// Index into the fault plan.
        index: u32,
    },
    /// The standby's detection timeout fired after a `MasterCrash`:
    /// promote the checkpoint-restored Namenode+JobTracker stack and run
    /// the recovery protocol (re-registration, block-report replay, task
    /// reconciliation).
    MasterPromote,
}

/// Why an attempt was doomed at start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DoomReason {
    /// Assigned to a zombie node (working directory gone).
    Zombie,
    /// Input block had no readable replica.
    LostBlock,
}
