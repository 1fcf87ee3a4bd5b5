//! The cluster mediator: owns simulated time and wires grid, HDFS,
//! MapReduce and the network together.
//!
//! A run goes through four phases, mirroring the paper's §IV-A
//! methodology:
//!
//! 1. **Forming** — glidein requests are submitted and the run waits
//!    until the pool reaches the configured size ("we first configure a
//!    given number of nodes that HOG will achieve and wait until HOG
//!    reaches this number");
//! 2. **Uploading** — every job's input file is staged into HDFS
//!    (pipeline writes from the central server; not counted in the
//!    workload response time);
//! 3. **Running** — the submission schedule replays; response time is
//!    measured from the first submission to the last job's completion;
//! 4. **Done**.

use crate::config::{
    ClusterConfig, ResourceConfig, DEDICATED_DOMAIN, DEDICATED_NODES, DEDICATED_SITE,
    DETECTION_TIMEOUT,
};
use crate::event::{DoomReason, Event};
use crate::master::SingleMasterStack;
use hog_chaos::{Auditor, ChaosFailure, Fault, ProgressSig, Watchdog};
use hog_grid::config::GLIDEIN_SLOTS;
use hog_grid::{
    ElasticController, ElasticDecision, GridModel, GridNote, GridOutput, LossReason, PoolSnapshot,
};
use hog_hdfs::availability::RETARGET_INTERVAL;
use hog_hdfs::{
    AvailabilitySnapshot, BlockId, FileId, Namenode, ReplOrder, SiteRisk,
    REPLICATION_MONITOR_INTERVAL,
};
use hog_mapreduce::config::{DISK_READ_RATE, DISK_WRITE_RATE, HEARTBEAT_INTERVAL};
use hog_mapreduce::jobtracker::FailReason;
use hog_mapreduce::{
    Assignment, AttemptRef, JobId, JobSubmission, JobTracker, JtNote, ReduceStep, TaskKind,
};
use hog_net::{FlowEnd, FlowId, FlowOutcome, FluidNet, NodeId, NodeMap, Topology};
use hog_obs::{
    render_tail, HistogramId, Layer, MetricId, MetricsRegistry, TraceEvent, TraceLog, Tracer,
    DUMP_TAIL,
};
use hog_sim_core::engine::{Model, Scheduler};
use hog_sim_core::metrics::StepSeries;
use hog_sim_core::units::{transfer_secs, BLOCK_SIZE};
use hog_sim_core::{Liveness, SimDuration, SimRng, SimTime, Violation};
use hog_workload::{jobmodel, JobSpec, SubmissionSchedule};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Input blocks staged concurrently during upload.
const UPLOAD_PARALLEL: usize = 8;

/// Delay between a task failing on a zombie node and the failure report
/// reaching the JobTracker (models the doomed attempt's brief lifetime).
const ZOMBIE_FAIL_DELAY: SimDuration = SimDuration::from_secs(2);

/// Retry backoff for shuffle fetches aimed at unusable sources.
const FETCH_RETRY_DELAY: SimDuration = SimDuration::from_secs(15);

/// What an in-flight network transfer means.
#[derive(Clone, Debug)]
enum FlowCtx {
    /// A map reading its remote input block.
    MapInput { attempt: AttemptRef },
    /// A reduce shuffle fetch.
    Shuffle { attempt: AttemptRef, order: u64 },
    /// A namenode-ordered replication transfer.
    Repl {
        block: BlockId,
        src: NodeId,
        dst: NodeId,
    },
    /// Writer → first pipeline target of a block write.
    PipeHead { write: u64 },
    /// First target → one further replica of a block write.
    PipeFan { write: u64, target: NodeId },
    /// A balancer move: copy the block to `dst`, then drop it from `src`.
    Balancer(ReplOrder),
}

/// Who asked for a block write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WriteOwner {
    /// Input staging from the central server.
    Upload,
    /// A reduce attempt writing its output file.
    ReduceOutput { attempt: AttemptRef },
}

/// An in-progress pipelined block write.
#[derive(Clone, Debug)]
struct WriteState {
    block: BlockId,
    file: FileId,
    targets: Vec<NodeId>,
    written: Vec<NodeId>,
    outstanding: usize,
    owner: WriteOwner,
    retries: u8,
    size: u64,
    /// Datanodes this write already saw fail; excluded on retry, like an
    /// HDFS client's excluded-nodes list.
    excluded: BTreeSet<NodeId>,
}

/// A worker whose daemons run, zombies included: the mediator's one
/// record of its physical state.
#[derive(Clone, Copy, Debug)]
struct Worker {
    /// `(map, reduce)` slots it registered with; a re-registration after
    /// a heal or a promotion reuses them.
    slots: (u8, u8),
    /// Storage gone while the daemons keep heartbeating (§IV-D.1). The
    /// masters keep trusting a zombie; the mediator fails what it
    /// sources.
    zombie: bool,
    /// Cut off by an injected partition: daemons alive, traffic and
    /// heartbeats dropped (hog-chaos).
    partitioned: bool,
    /// The chaos `Straggler` fault slowing it down, by its index in the
    /// fault plan, which holds the factors. Every heartbeat reads this
    /// record, and an index keeps it small.
    straggler: Option<u32>,
}

/// Run phase (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunPhase {
    /// Waiting for the pool to reach the configured size.
    Forming,
    /// Staging input data into HDFS.
    Uploading,
    /// Replaying the submission schedule.
    Running,
    /// Every job reached a terminal state.
    Done,
}

/// Cumulative mediator-level counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterCounters {
    /// Input blocks that could not be allocated at upload.
    pub upload_alloc_failures: u64,
    /// Pipeline writes abandoned after repeated head failures.
    pub write_failures: u64,
    /// Attempts doomed on zombie nodes.
    pub zombie_task_failures: u64,
    /// Attempts doomed by missing input blocks.
    pub lost_block_failures: u64,
    /// Shuffle fetch timeouts against unusable sources.
    pub fetch_timeouts: u64,
}

/// The fixed gauges of the per-layer metrics registry (hog-obs), in
/// registration order. `Cluster::sample_metrics` sets every one each
/// master tick, from one value array in this order.
const GAUGES: [(Layer, &str); 29] = [
    (Layer::Core, "pool_usable"),
    (Layer::Core, "pool_reported"),
    (Layer::Core, "zombies"),
    (Layer::Grid, "node_starts"),
    (Layer::Hdfs, "missing_blocks"),
    (Layer::Hdfs, "repl_completed"),
    (Layer::Hdfs, "block_reads"),
    (Layer::Hdfs, "repl_trims"),
    (Layer::Hdfs, "avail_raised"),
    (Layer::Hdfs, "avail_lowered"),
    (Layer::Hdfs, "replica_bytes"),
    (Layer::MapReduce, "maps_done"),
    (Layer::MapReduce, "reduces_done"),
    (Layer::MapReduce, "task_failures"),
    (Layer::MapReduce, "jobs_finished"),
    (Layer::MapReduce, "sched_node_local"),
    (Layer::MapReduce, "sched_rack_local"),
    (Layer::MapReduce, "sched_site_local"),
    (Layer::MapReduce, "sched_remote"),
    (Layer::Net, "flows_active"),
    (Layer::Net, "flows_done"),
    (Layer::Core, "pool_target"),
    (Layer::Core, "pool_outstanding"),
    (Layer::Core, "elastic_resizes"),
    (Layer::MapReduce, "fairness_jain"),
    (Layer::Core, "failover_recovery_ms"),
    (Layer::Core, "failover_lost_window_ms"),
    (Layer::Core, "failover_reregistrations"),
    (Layer::Core, "failover_crashes"),
];

/// Handles into the per-layer metrics registry (hog-obs), sampled every
/// master tick.
struct ObsMetrics {
    reg: MetricsRegistry,
    /// One handle per entry of [`GAUGES`].
    gauges: [MetricId; GAUGES.len()],
    /// Per-job running-slot share series, registered lazily as jobs are
    /// submitted (`mapreduce/job<i>_slots`), indexed by `JobId`.
    job_slots: Vec<MetricId>,
    job_secs: HistogramId,
}

impl ObsMetrics {
    fn new() -> Self {
        let mut reg = MetricsRegistry::new();
        ObsMetrics {
            gauges: GAUGES.map(|(layer, name)| reg.register(layer, name)),
            job_slots: Vec::new(),
            job_secs: reg.register_histogram(
                Layer::MapReduce,
                "job_secs",
                vec![60.0, 300.0, 600.0, 1200.0, 3600.0, 7200.0, 14400.0],
            ),
            reg,
        }
    }
}

/// The full-cluster simulation model.
pub struct Cluster {
    cfg: ClusterConfig,
    topo: Topology,
    net: FluidNet,
    grid: Option<GridModel>,
    /// The Namenode + JobTracker stack behind its failover lifecycle.
    masters: SingleMasterStack,
    rng: SimRng,
    master: NodeId,
    /// Workers whose daemons run (zombies included), by node: the
    /// per-heartbeat and per-disk-check gate.
    workers: NodeMap<Worker>,
    /// How many `workers` have `zombie` set, so the per-tick pool count
    /// does not walk the table.
    zombie_count: usize,
    flows: HashMap<FlowId, FlowCtx>,
    attempt_flows: HashMap<AttemptRef, Vec<FlowId>>,
    writes: HashMap<u64, WriteState>,
    next_write_id: u64,
    schedule: Vec<JobSpec>,
    input_files: Vec<FileId>,
    job_of_schedule: HashMap<JobId, usize>,
    /// Per-schedule-index outcome: completion time (None = failed).
    pub job_results: Vec<Option<(SimTime, bool)>>,
    finished_jobs: usize,
    phase: RunPhase,
    /// One entry per `BLOCK_SIZE` block still to write, by file.
    upload_queue: VecDeque<FileId>,
    upload_in_flight: usize,
    /// Nodes the master believes alive (JobTracker view; Fig. 5 curve).
    pub reported_series: StepSeries,
    /// Daemons actually running and usable.
    pub actual_series: StepSeries,
    /// First submission instant.
    pub workload_start: Option<SimTime>,
    /// Last job completion instant.
    pub workload_end: Option<SimTime>,
    /// Mediator counters.
    pub counters: ClusterCounters,
    target_nodes: usize,
    /// Fraction of `target_nodes` the forming pool may still be missing
    /// when the upload phase starts. Within the paper's five-site
    /// capacity the pool forms completely (its exact behaviour); past it,
    /// churn keeps a standing deficit of roughly `death_rate ×
    /// acquisition_delay` glideins, so a full simultaneous pool is
    /// unreachable and formation tolerates a 1% deficit — far above the
    /// expected standing deficit at 10k nodes.
    formation_grace: f64,
    /// Last availability-policy sweep instant (X17), when armed.
    avail_last: Option<SimTime>,
    /// Elastic pool controller, when `cfg.elastic` is set on a grid run.
    elastic: Option<ElasticController>,
    /// History of elastic resizes: (time, signed node delta).
    pub elastic_actions: Vec<(SimTime, i64)>,
    /// Which nodes each active partition fault cut off (for healing).
    partition_members: HashMap<u32, Vec<NodeId>>,
    /// Masters suspended until this instant (chaos `MasterStall`).
    master_stalled_until: Option<SimTime>,
    /// Decorrelated RNG stream for chaos victim selection.
    chaos_rng: SimRng,
    /// Decorrelated RNG stream for the straggler mix, present exactly
    /// when `cfg.straggler` is set so unconfigured runs draw nothing.
    straggler_rng: Option<SimRng>,
    /// Invariant auditor, when `cfg.chaos.audit` is set.
    auditor: Option<Auditor>,
    /// Livelock watchdog, when `cfg.chaos.watchdog` is set.
    watchdog: Option<Watchdog>,
    /// Network transfers that ran to completion (progress signal).
    flows_done: u64,
    /// Fire times with a NetTick already queued. [`Cluster::arm_net`]
    /// runs once per dispatch that moved the net, and many dispatches
    /// arm the same next completion; a tick at an already-armed instant
    /// would advance time by zero and harvest nothing, so it is skipped.
    /// A tick left at an earlier instant stays queued: when it fires and
    /// harvests nothing it rebases no flow (progress is lazy) and re-arms
    /// an instant already armed, so it changes nothing.
    armed_net_ticks: BTreeSet<SimTime>,
    /// Reusable buffer for `FluidNet::advance_into` (NetTick hot path).
    flow_end_buf: Vec<FlowEnd>,
    /// Set when the chaos layer aborted the run.
    chaos_failure: Option<ChaosFailure>,
    /// Shared trace handle (hog-obs); a no-op unless configured.
    tracer: Tracer,
    /// Metrics registry + handles, when `cfg.obs.metrics` is set.
    obs_metrics: Option<ObsMetrics>,
    /// Pool mode (`cfg.pool` set): home data uploaded, awaiting the
    /// federation's workload go-signal.
    pool_ready: bool,
    /// Pool mode: schedule indices whose submission timeline fired here
    /// and now await meta-scheduler routing. Drained by the federation
    /// after every handled event.
    pending_routes: Vec<usize>,
    /// Pool mode: runtime dataset stagings that finished (all blocks
    /// committed or permanently failed). Drained by the federation.
    completed_stagings: Vec<usize>,
    /// Pool mode: in-flight runtime stagings, file → (schedule index,
    /// blocks still outstanding).
    staging: HashMap<FileId, (usize, usize)>,
}

impl Cluster {
    /// Build a cluster (and its initial event seeds) from a config and a
    /// workload. Call [`Cluster::bootstrap`] to obtain the initial events.
    pub fn new(cfg: ClusterConfig, schedule: &SubmissionSchedule) -> Self {
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let mut topo = Topology::new();
        // The stable central server (Namenode + JobTracker) lives in its
        // own "site": a well-connected machine outside the worker pool.
        let central = topo.add_site("CENTRAL", "hcc.unl.edu");
        let master = topo.add_node(central);
        let mut net = FluidNet::new(cfg.net);
        net.register_node(master, central);

        let tracer = Tracer::new(cfg.obs.trace);
        net.set_tracer(tracer.clone());
        let mut nn = Namenode::new(cfg.hdfs.clone(), rng.fork(2));
        nn.set_tracer(tracer.clone());
        // One failure detector (§III-B): the JobTracker times trackers
        // out on the namenode's dead-node timeout.
        let mut jt = JobTracker::new(cfg.mr, cfg.hdfs.dead_node_timeout, rng.fork(3));
        jt.set_tracer(tracer.clone());
        let obs_metrics = cfg.obs.metrics.then(ObsMetrics::new);
        let target_nodes = cfg.resource.target_nodes();
        let paper_capacity: usize = hog_grid::config::paper_sites()
            .iter()
            .map(|s| s.max_slots)
            .sum();
        let formation_grace = if target_nodes > paper_capacity {
            0.01
        } else {
            0.0
        };
        // The controller only makes sense over a glidein pool; on fixed
        // clusters an `elastic` config is silently inert.
        let elastic = cfg.elastic.as_ref().and_then(|ec| match &cfg.resource {
            ResourceConfig::Grid { sites, .. } => Some(ElasticController::new(ec.clone(), sites)),
            ResourceConfig::Dedicated => None,
        });
        let n_jobs = schedule.len();
        let chaos_seed = cfg.seed ^ 0x686f_675f_6368_616f; // b"hog_chao"
        let straggler_seed = cfg.seed ^ 0x686f_675f_7374_7261; // b"hog_stra"
        let straggler_on = cfg.straggler.is_some();
        let chaos_audit = cfg.chaos.audit;
        let chaos_watchdog = cfg.chaos.watchdog;
        let failover_cfg = cfg.failover;
        Cluster {
            cfg,
            topo,
            net,
            grid: None,
            masters: SingleMasterStack::new(nn, jt, failover_cfg),
            rng,
            master,
            workers: NodeMap::new(),
            zombie_count: 0,
            flows: HashMap::new(),
            attempt_flows: HashMap::new(),
            writes: HashMap::new(),
            next_write_id: 0,
            schedule: schedule.jobs().to_vec(),
            input_files: Vec::new(),
            job_of_schedule: HashMap::new(),
            job_results: vec![None; n_jobs],
            finished_jobs: 0,
            phase: RunPhase::Forming,
            upload_queue: VecDeque::new(),
            upload_in_flight: 0,
            reported_series: StepSeries::new(),
            actual_series: StepSeries::new(),
            workload_start: None,
            workload_end: None,
            counters: ClusterCounters::default(),
            target_nodes,
            formation_grace,
            avail_last: None,
            elastic,
            elastic_actions: Vec::new(),
            partition_members: HashMap::new(),
            master_stalled_until: None,
            // Seeded independently of the master stream so enabling chaos
            // never perturbs the organic randomness of a run.
            chaos_rng: SimRng::seed_from_u64(chaos_seed),
            straggler_rng: straggler_on.then(|| SimRng::seed_from_u64(straggler_seed)),
            auditor: chaos_audit.then(Auditor::new),
            watchdog: chaos_watchdog.map(Watchdog::new),
            flows_done: 0,
            armed_net_ticks: BTreeSet::new(),
            flow_end_buf: Vec::new(),
            chaos_failure: None,
            tracer,
            obs_metrics,
            pool_ready: false,
            pending_routes: Vec::new(),
            completed_stagings: Vec::new(),
            staging: HashMap::new(),
        }
    }

    /// Seed the initial events: grid submission (or dedicated-node
    /// registration) and the master tick.
    pub fn bootstrap(&mut self, sim: &mut hog_sim_core::Simulation<Self>) {
        self.bootstrap_sched(&mut sim.scheduler());
    }

    /// [`Cluster::bootstrap`] over a bare [`Scheduler`] handle, for
    /// executors that drive the model without a [`hog_sim_core::Simulation`]
    /// (the hog-fed federation co-simulates several clusters, each with
    /// its own queue). Must be called with the clock at zero.
    pub fn bootstrap_sched(&mut self, sched: &mut Scheduler<'_, Event>) {
        debug_assert_eq!(sched.now(), SimTime::ZERO);
        sched.at(SimTime::ZERO, Event::MasterTick);
        match self.cfg.resource.clone() {
            ResourceConfig::Grid {
                sites,
                target_nodes,
                ..
            } => {
                let (mut grid, init) = GridModel::new(sites, &mut self.topo, self.rng.fork(1));
                grid.set_tracer(self.tracer.clone());
                let out = grid.submit_workers(SimTime::ZERO, target_nodes);
                self.grid = Some(grid);
                let seed = GridOutput {
                    defer: init,
                    notes: Vec::new(),
                };
                self.apply_grid_output(sched, seed, false);
                self.apply_grid_output(sched, out, false);
            }
            ResourceConfig::Dedicated => {
                let site = self.topo.add_site(DEDICATED_SITE, DEDICATED_DOMAIN);
                for slots in DEDICATED_NODES {
                    let node = self.topo.add_node(site);
                    self.register_worker(node, slots, sched);
                }
                self.set_phase(RunPhase::Uploading);
                self.begin_upload_queue();
                sched.at(SimTime::ZERO, Event::PumpUpload);
            }
        }
    }

    fn register_worker(&mut self, node: NodeId, slots: (u8, u8), sched: &mut Scheduler<'_, Event>) {
        let now = sched.now();
        let worker = Worker {
            slots,
            zombie: false,
            partitioned: false,
            straggler: None,
        };
        self.workers.insert(node, worker);
        self.net.register_node(node, self.topo.site_of(node));
        self.masters
            .nn
            .register_datanode(now, node, self.topo.site_of(node));
        self.masters
            .jt
            .register_tracker(now, node, self.topo.site_of(node), slots.0, slots.1);
        let (hb, check) = self.worker_timers(node);
        sched.after(hb, Event::Heartbeat { node });
        if let Some(d) = check {
            sched.every(d, Event::DiskCheck { node });
        }
    }

    /// Stagger heartbeats so 1000 nodes don't tick in the same
    /// millisecond; disk-check period from config.
    fn worker_timers(&self, node: NodeId) -> (SimDuration, Option<SimDuration>) {
        let hb_ms = HEARTBEAT_INTERVAL.as_millis().max(1);
        let offset = (node.0 as u64).wrapping_mul(5741) % hb_ms;
        (
            SimDuration::from_millis(offset + 1),
            self.cfg.hdfs.disk_check_interval,
        )
    }

    /// The current run phase.
    pub fn phase(&self) -> RunPhase {
        self.phase
    }

    /// Enter `phase` and trace the transition.
    fn set_phase(&mut self, phase: RunPhase) {
        self.phase = phase;
        let to = match phase {
            RunPhase::Forming => "forming",
            RunPhase::Uploading => "uploading",
            RunPhase::Running => "running",
            RunPhase::Done => "done",
        };
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Core, "phase")
                .with("to", to)
                .with("pool", self.workers.len())
        });
    }

    /// Topology access (reports).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Namenode access (reports).
    pub fn namenode(&self) -> &Namenode {
        &self.masters.nn
    }

    /// JobTracker access (reports).
    pub fn jobtracker(&self) -> &JobTracker {
        &self.masters.jt
    }

    /// Grid access (reports), if this cluster runs on the grid.
    pub fn grid(&self) -> Option<&GridModel> {
        self.grid.as_ref()
    }

    /// Network access (reports).
    pub fn network(&self) -> &FluidNet {
        &self.net
    }

    /// Count of *input* blocks currently missing (diagnostics: these are
    /// the ones that fail jobs).
    pub fn missing_input_blocks(&self) -> usize {
        self.input_files
            .iter()
            .flat_map(|&f| self.masters.nn.blocks_of(f))
            .filter(|&&b| {
                self.masters.nn.block(b).expected > 0 && self.masters.nn.block(b).is_missing()
            })
            .count()
    }

    /// Schedule-index ↔ JobTracker id mapping (reports).
    pub fn job_for_index(&self, index: usize) -> Option<JobId> {
        self.job_of_schedule
            .iter()
            .find(|(_, &i)| i == index)
            .map(|(&j, _)| j)
    }

    // ==================================================================
    // Pool mode (hog-fed)
    // ==================================================================

    /// The configuration this cluster was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Pool mode: whether home data is uploaded and the pool is waiting
    /// for the federation's `begin_workload` go-signal.
    pub fn pool_ready(&self) -> bool {
        self.pool_ready
    }

    /// Pool mode: drain the schedule indices whose submission timeline
    /// fired here since the last drain (they await routing).
    pub fn take_pending_routes(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.pending_routes)
    }

    /// Pool mode: drain the runtime dataset stagings that completed since
    /// the last drain.
    pub fn take_completed_stagings(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.completed_stagings)
    }

    /// Pool mode: submit schedule index `index` to *this* pool's
    /// JobTracker (the meta-scheduler routed it here). The input dataset
    /// must already be resident (home, or staged via
    /// [`Cluster::stage_dataset`]).
    pub fn external_submit(&mut self, index: usize, sched: &mut Scheduler<'_, Event>) {
        // Called between dispatches: trace at this call's instant.
        self.tracer.advance(sched.now());
        self.on_submit_job(sched, index);
    }

    /// Pool mode: write schedule index `index`'s input dataset into this
    /// pool's HDFS at `replication`, during the Running phase (cross-pool
    /// staging: the bytes already crossed the inter-pool WAN; this stages
    /// them onto local datanodes). Completion is reported through
    /// [`Cluster::take_completed_stagings`].
    pub fn stage_dataset(
        &mut self,
        index: usize,
        replication: u16,
        sched: &mut Scheduler<'_, Event>,
    ) {
        debug_assert!(self.cfg.pool.is_some());
        self.tracer.advance(sched.now());
        let f = self.input_files[index];
        self.masters.nn.set_file_replication(f, replication);
        let blocks = self.schedule[index].maps as usize;
        if blocks == 0 || self.staging.contains_key(&f) {
            self.completed_stagings.push(index);
            return;
        }
        self.staging.insert(f, (index, blocks));
        for _ in 0..blocks {
            self.upload_queue.push_back(f);
        }
        self.pump_upload(sched);
        // Called by the federation between dispatches, so no dispatch
        // arms the ticks of the writes this started.
        self.arm_net(sched);
    }

    /// One staged block reached a terminal state (committed or
    /// permanently failed); completes the file when it was the last.
    fn staging_block_done(&mut self, file: FileId) {
        let Some((index, remaining)) = self.staging.get_mut(&file) else {
            return;
        };
        *remaining -= 1;
        if *remaining == 0 {
            let index = *index;
            self.staging.remove(&file);
            self.masters.nn.complete_file(file);
            self.tracer
                .emit(|| TraceEvent::new(Layer::Fed, "stage_done").with("index", index));
            self.completed_stagings.push(index);
        }
    }

    // ==================================================================
    // Upload
    // ==================================================================

    fn begin_upload_queue(&mut self) {
        for (i, spec) in self.schedule.iter().enumerate() {
            let f = self
                .masters
                .nn
                .create_file(format!("/in/job{i}"), self.cfg.hdfs.replication);
            self.input_files.push(f);
            // Pool mode: every file exists (so `input_files[i]` stays
            // aligned with the schedule), but only datasets homed here
            // get their blocks written now; foreign datasets stay empty
            // until the federation stages them over the inter-pool WAN.
            if self.cfg.pool.as_ref().is_some_and(|p| !p.is_home(i)) {
                continue;
            }
            for _ in 0..spec.maps {
                self.upload_queue.push_back(f);
            }
        }
    }

    fn pump_upload(&mut self, sched: &mut Scheduler<'_, Event>) {
        while self.upload_in_flight < UPLOAD_PARALLEL {
            let Some(file) = self.upload_queue.pop_front() else {
                break;
            };
            match self
                .masters
                .nn
                .allocate_block(file, BLOCK_SIZE, None, &self.topo)
            {
                Some(alloc) => {
                    self.upload_in_flight += 1;
                    let owner = WriteOwner::Upload;
                    self.start_write(sched, owner, file, BLOCK_SIZE, alloc, 0, BTreeSet::new());
                }
                None => {
                    self.counters.upload_alloc_failures += 1;
                    self.staging_block_done(file);
                }
            }
        }
        if self.upload_queue.is_empty()
            && self.upload_in_flight == 0
            && self.phase == RunPhase::Uploading
        {
            self.finish_upload(sched);
        }
    }

    fn finish_upload(&mut self, sched: &mut Scheduler<'_, Event>) {
        for (i, &f) in self.input_files.iter().enumerate() {
            // Pool mode: foreign datasets are still empty placeholders;
            // completing them would freeze them at zero blocks.
            if self.cfg.pool.as_ref().is_some_and(|p| !p.is_home(i)) {
                continue;
            }
            self.masters.nn.complete_file(f);
        }
        self.set_phase(RunPhase::Running);
        // Checkpoint zero: the standby always has at least the complete
        // post-upload state, so even an immediate crash restores a master
        // that knows every input file. (Mirror mode needs no snapshots.)
        if self.masters.failover().is_some_and(|f| !f.is_mirror()) {
            self.masters.take_checkpoint(sched.now());
            self.tracer
                .emit(|| TraceEvent::new(Layer::Core, "master_checkpoint").with("count", 1usize));
        }
        if self.cfg.pool.is_some() {
            // Pool mode: the federation decides when the workload starts
            // (all pools must be ready and cross-pool replicas staged);
            // it will call `begin_workload` then.
            self.pool_ready = true;
            return;
        }
        self.begin_workload(sched.now(), sched);
    }

    /// Anchor the submission + fault timeline at `base` and push all of
    /// it into the event queue. Standalone clusters call this from
    /// `finish_upload`; in pool mode the federation calls it once every
    /// pool is ready (so `base` is the same instant federation-wide).
    /// `base` is the clock at the call and no entry precedes it, so each
    /// event fires at its planned instant.
    pub fn begin_workload(&mut self, base: SimTime, sched: &mut Scheduler<'_, Event>) {
        self.tracer.advance(base);
        let Some(first) = self.schedule.first() else {
            // A zero-job workload is complete the moment it starts.
            self.workload_start = Some(base);
            self.workload_end = Some(base);
            self.set_phase(RunPhase::Done);
            self.sample_metrics(base);
            return;
        };
        self.workload_start = Some(base + (first.submit_at - SimTime::ZERO));
        for (i, spec) in self.schedule.iter().enumerate() {
            // Pool mode: each index's submission timeline fires in its
            // home pool only (the fired event is then routed anywhere).
            if self.cfg.pool.as_ref().is_some_and(|p| !p.is_home(i)) {
                continue;
            }
            sched.at(
                base + (spec.submit_at - SimTime::ZERO),
                Event::SubmitJob { index: i },
            );
        }
        // Fault injection is anchored to workload start, like job
        // submission: a plan is meaningful relative to the workload, not
        // to however long pool formation and upload happened to take.
        for (i, tf) in self.cfg.chaos.plan.faults().iter().enumerate() {
            let index = i as u32;
            sched.at(base + tf.at, Event::Chaos { index });
            if let Some(w) = tf.fault.window() {
                sched.at(base + tf.at + w, Event::ChaosEnd { index });
            }
        }
    }

    // ==================================================================
    // Pipelined block writes
    // ==================================================================

    /// Start a pipelined write of `block` to `targets` by sending the
    /// first replica to the pipeline head. `retries` counts the block's
    /// earlier failed tries; `excluded` lists the datanodes they saw fail.
    #[allow(clippy::too_many_arguments)]
    fn start_write(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        owner: WriteOwner,
        file: FileId,
        size: u64,
        (block, targets): (BlockId, Vec<NodeId>),
        retries: u8,
        excluded: BTreeSet<NodeId>,
    ) {
        debug_assert!(!targets.is_empty());
        let id = self.next_write_id;
        self.next_write_id += 1;
        let head = targets[0];
        let writer = self.writer_of(owner);
        let mut st = WriteState {
            block,
            file,
            targets,
            written: Vec::new(),
            outstanding: 0,
            owner,
            retries,
            size,
            excluded,
        };
        if writer == Some(head) {
            // Writer-local first replica: the local disk write overlaps
            // the fan-out; start fanning immediately.
            st.written.push(head);
            self.writes.insert(id, st);
            self.start_fan(sched, id);
        } else if !self.node_usable(head) {
            // The chosen head died (or is a zombie) in the same instant;
            // exclude it and retry with fresh targets.
            st.excluded.insert(head);
            self.writes.insert(id, st);
            self.retry_or_fail_write(sched, id);
        } else {
            let src = writer.unwrap_or(self.master);
            let fid = self.net.start_flow(sched.now(), src, head, size);
            self.flows.insert(fid, FlowCtx::PipeHead { write: id });
            self.writes.insert(id, st);
            self.track_write_flow(owner, fid);
        }
    }

    /// The datanode a write streams from: the reduce attempt's own node
    /// for output writes, `None` (the central server) for uploads.
    fn writer_of(&self, owner: WriteOwner) -> Option<NodeId> {
        match owner {
            WriteOwner::Upload => None,
            WriteOwner::ReduceOutput { attempt } => Some(self.attempt_node(attempt)),
        }
    }

    /// Register a reduce-output write's flow under its attempt, so a kill
    /// cancels it.
    fn track_write_flow(&mut self, owner: WriteOwner, fid: FlowId) {
        if let WriteOwner::ReduceOutput { attempt } = owner {
            self.attempt_flows.entry(attempt).or_default().push(fid);
        }
    }

    /// Whether a node is alive with working storage (writable target).
    fn node_usable(&self, node: NodeId) -> bool {
        self.workers
            .get(node)
            .is_some_and(|w| !w.zombie && !w.partitioned)
    }

    /// Whether a node is alive and on the network: daemons running and
    /// not cut off by an injected partition. Storage state is irrelevant
    /// (a zombie still serves cached map output and heartbeats).
    fn node_reachable(&self, node: NodeId) -> bool {
        self.workers.get(node).is_some_and(|w| !w.partitioned)
    }

    /// Whether a node is a zombie: daemons up, storage gone.
    fn is_zombie(&self, node: NodeId) -> bool {
        self.workers.get(node).is_some_and(|w| w.zombie)
    }

    /// Chaos straggler multipliers for `node`: `(cpu, disk)`, 1.0 = no
    /// slowdown.
    fn slow(&self, node: NodeId) -> (f64, f64) {
        let fault = self.workers.get(node).and_then(|w| w.straggler);
        match fault.map(|i| &self.cfg.chaos.plan.faults()[i as usize].fault) {
            Some(&Fault::Straggler {
                cpu_factor,
                disk_factor,
                ..
            }) => (cpu_factor, disk_factor),
            _ => (1.0, 1.0),
        }
    }

    /// Workload straggler-mix CPU multiplier for one task attempt: 1.0
    /// unless `cfg.straggler` is set, in which case the dedicated
    /// straggler stream decides whether (and how badly) this attempt
    /// straggles. Distinct from the chaos [`Cluster::slow`] multipliers,
    /// which model injected per-node faults rather than organic task
    /// variance.
    fn straggler_factor(&mut self) -> f64 {
        match (&self.cfg.straggler, &mut self.straggler_rng) {
            (Some(mix), Some(rng)) => mix.factor(rng),
            _ => 1.0,
        }
    }

    /// Fan the block from its first holder to the remaining replicas.
    /// Targets that died (or zombified) since allocation are skipped —
    /// the replication monitor repairs the deficit later.
    fn start_fan(&mut self, sched: &mut Scheduler<'_, Event>, write: u64) {
        let st = &self.writes[&write];
        let (head, size, owner) = (st.written[0], st.size, st.owner);
        let rest: Vec<NodeId> = st.targets[1..]
            .iter()
            .copied()
            .filter(|&t| self.node_usable(t))
            .collect();
        if rest.is_empty() {
            self.finish_write(sched, write);
            return;
        }
        self.writes
            .get_mut(&write)
            .expect("fanning write is live")
            .outstanding = rest.len();
        for t in rest {
            let fid = self.net.start_flow(sched.now(), head, t, size);
            self.flows
                .insert(fid, FlowCtx::PipeFan { write, target: t });
            self.track_write_flow(owner, fid);
        }
    }

    fn finish_write(&mut self, sched: &mut Scheduler<'_, Event>, write: u64) {
        // Only count replicas on nodes still alive with working storage;
        // a head that died mid-fan takes its copy (and its fan flows)
        // with it. Zero surviving replicas = pipeline failure → the
        // client retries the whole block, as HDFS clients do.
        let surviving: Vec<NodeId> = self.writes[&write]
            .written
            .iter()
            .copied()
            .filter(|&n| self.node_usable(n))
            .collect();
        if surviving.is_empty() {
            self.retry_or_fail_write(sched, write);
            return;
        }
        let mut st = self.writes.remove(&write).unwrap();
        st.written = surviving;
        self.masters.nn.commit_block(st.block, &st.written);
        match st.owner {
            WriteOwner::Upload => {
                self.upload_in_flight -= 1;
                self.staging_block_done(st.file);
                // Pump via an event, not a direct call: a long run of
                // synchronously-failing writes must not recurse.
                sched.now_event(Event::PumpUpload);
            }
            WriteOwner::ReduceOutput { attempt } => {
                self.masters.nn.complete_file(st.file);
                let notes = self.masters.jt.reduce_done(sched.now(), attempt);
                self.forget_attempt(attempt);
                self.handle_notes(sched, notes);
            }
        }
    }

    /// A pipeline write lost its head transfer: retry with fresh targets
    /// or abandon.
    fn retry_or_fail_write(&mut self, sched: &mut Scheduler<'_, Event>, write: u64) {
        let Some(mut st) = self.writes.remove(&write) else {
            return;
        };
        // Whatever head this write last targeted has now failed it.
        if let Some(&head) = st.targets.first() {
            st.excluded.insert(head);
        }
        // The failed allocation leaves the namespace entirely.
        self.masters.nn.abandon_block(st.block);
        let writer = self.writer_of(st.owner);
        // A reduce whose own node died cannot retry its output write; the
        // JobTracker's tracker timeout reschedules the whole attempt.
        let writer_gone = writer.is_some_and(|w| !self.node_reachable(w));
        if st.retries < 3 && !writer_gone {
            if let Some(alloc) = self.masters.nn.allocate_block_excluding(
                st.file,
                st.size,
                writer,
                &st.excluded,
                &self.topo,
            ) {
                let retries = st.retries + 1;
                self.start_write(
                    sched,
                    st.owner,
                    st.file,
                    st.size,
                    alloc,
                    retries,
                    st.excluded,
                );
                return;
            }
        }
        self.counters.write_failures += 1;
        match st.owner {
            WriteOwner::Upload => {
                self.upload_in_flight -= 1;
                self.counters.upload_alloc_failures += 1;
                self.staging_block_done(st.file);
                sched.now_event(Event::PumpUpload);
            }
            WriteOwner::ReduceOutput { attempt } => {
                self.fail_attempt(sched, attempt, FailReason::DiskFull);
            }
        }
    }

    // ==================================================================
    // Network plumbing
    // ==================================================================

    /// (Re-)arm the network tick at the next flow completion when some
    /// call moved the net since the last arm, unless a tick at that exact
    /// instant is already pending (see [`Cluster::armed_net_ticks`]).
    /// Runs once at the end of every dispatch (and of
    /// [`Cluster::stage_dataset`]), so all the flows one dispatch starts
    /// settle in one deferred waterfilling pass per component.
    fn arm_net(&mut self, sched: &mut Scheduler<'_, Event>) {
        if !self.net.take_changed() {
            return;
        }
        if let Some(t) = self.net.next_completion() {
            // Mirror Scheduler::at's past-clamp so the bookkeeping key
            // matches the instant the tick will actually fire at.
            let t = t.max(sched.now());
            if self.armed_net_ticks.insert(t) {
                sched.at(t, Event::NetTick);
            }
        }
    }

    fn on_flow_end(&mut self, sched: &mut Scheduler<'_, Event>, end: FlowEnd) {
        let Some(ctx) = self.flows.remove(&end.id) else {
            return;
        };
        let ok = end.outcome == FlowOutcome::Completed;
        if ok {
            self.flows_done += 1;
        }
        match ctx {
            FlowCtx::MapInput { attempt } => {
                if ok {
                    self.start_map_compute(sched, attempt);
                } else {
                    // Source died: pick another replica and retry.
                    self.start_map_read(sched, attempt);
                }
            }
            FlowCtx::Shuffle { attempt, order } => {
                if !self.masters.jt.attempt_active(attempt) {
                    return;
                }
                if ok {
                    self.masters.jt.fetch_done(attempt, order);
                } else {
                    self.masters.jt.fetch_failed(attempt, order, &self.topo);
                }
                self.drive_reduce(sched, attempt);
            }
            FlowCtx::Repl { block, src, dst } => {
                self.masters.nn.repl_done(block, src, dst, ok);
            }
            FlowCtx::Balancer(mv) => {
                if ok && self.node_usable(mv.dst) {
                    // Copy landed: register it, then drop the source
                    // copy. `apply_move`'s `repl_done` also decrements
                    // both ends' replication stream counters; balancer
                    // moves never incremented them, which is safe
                    // because the decrement saturates.
                    hog_hdfs::balancer::apply_move(&mut self.masters.nn, &mv);
                }
                // Failed moves are simply abandoned; the balancer re-plans
                // on its next tick.
            }
            FlowCtx::PipeHead { write } => {
                if !self.writes.contains_key(&write) {
                    return; // abandoned (owner attempt was killed)
                }
                let head = self.writes[&write].targets[0];
                if ok && self.node_usable(head) {
                    self.writes.get_mut(&write).unwrap().written.push(head);
                    self.start_fan(sched, write);
                } else {
                    // Transfer failed, or the head zombified mid-write
                    // (bytes landed in a deleted working directory).
                    self.retry_or_fail_write(sched, write);
                }
            }
            FlowCtx::PipeFan { write, target } => {
                let usable = self.node_usable(target);
                let Some(st) = self.writes.get_mut(&write) else {
                    return;
                };
                if ok && usable {
                    st.written.push(target);
                }
                st.outstanding -= 1;
                if st.outstanding == 0 {
                    self.finish_write(sched, write);
                }
            }
        }
    }

    // ==================================================================
    // Worker lifecycle
    // ==================================================================

    /// A glidein's daemons came up (grid runs only).
    fn on_node_started(&mut self, node: NodeId, sched: &mut Scheduler<'_, Event>) {
        self.register_worker(node, GLIDEIN_SLOTS, sched);
        // Under churn a glidein pool carries a standing deficit of
        // (death rate x acquisition delay) nodes, so huge pools may never
        // hit `target_nodes` exactly; `formation_grace` admits that slack.
        let grace = (self.target_nodes as f64 * self.formation_grace) as usize;
        if self.phase == RunPhase::Forming && self.workers.len() >= self.target_nodes - grace {
            self.set_phase(RunPhase::Uploading);
            self.begin_upload_queue();
            sched.now_event(Event::PumpUpload);
        }
    }

    fn on_node_lost(&mut self, node: NodeId, reason: LossReason, sched: &mut Scheduler<'_, Event>) {
        // `chance` draws nothing at probability 0, so a zombie-free run
        // leaves the RNG stream untouched.
        let zombie_roll =
            reason == LossReason::Preempted && self.rng.chance(self.cfg.zombie.probability);
        if zombie_roll {
            // Double-forked daemons survive the kill; their working
            // directory is gone. They keep heartbeating.
            self.tracer
                .emit(|| TraceEvent::new(Layer::Core, "zombie_spawn").with("node", node.0));
            self.zombify(node);
        } else {
            self.shutdown_daemons(node, false, sched);
        }
    }

    /// `node`'s storage is gone while its daemons keep heartbeating
    /// (§IV-D.1). Only the mediator knows: the masters keep trusting
    /// the node until a read fails or the disk self-check shuts it down.
    fn zombify(&mut self, node: NodeId) {
        if let Some(w) = self.workers.get_mut(node) {
            if !w.zombie {
                w.zombie = true;
                self.zombie_count += 1;
            }
        }
        self.tracer
            .emit(|| TraceEvent::new(Layer::Hdfs, "storage_failed").with("node", node.0));
    }

    /// Daemons on `node` are gone: kill its flows and stop its
    /// heartbeats. After a crash the masters time the node out. A
    /// `decommission` (a node the elastic controller released) is
    /// voluntary: the JobTracker is told at once instead of waiting out
    /// its death detector, and completed map outputs on the node are not
    /// proactively re-run — the victim filter only hands over trackers
    /// whose outputs no unfinished reduce still needs.
    fn shutdown_daemons(
        &mut self,
        node: NodeId,
        decommission: bool,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if self.workers.remove(node).is_some_and(|w| w.zombie) {
            self.zombie_count -= 1;
        }
        self.masters.nn.mark_silent(sched.now(), node);
        let notes = if decommission {
            self.masters.jt.decommission_tracker(sched.now(), node)
        } else {
            self.masters.jt.tracker_silent(sched.now(), node);
            Vec::new()
        };
        self.drain_node(sched, node);
        self.handle_notes(sched, notes);
    }

    /// Kill every flow touching `node` and run their failure handlers.
    /// Callers mark the node silent at the masters first: the handlers
    /// may retry writes, and the namenode must not hand the departing
    /// node out as a fresh pipeline target.
    fn drain_node(&mut self, sched: &mut Scheduler<'_, Event>, node: NodeId) {
        for end in self.net.remove_node(sched.now(), node) {
            self.on_flow_end(sched, end);
        }
    }

    /// Queue a grid output's deferred events and wire its node notes into
    /// the masters. With `decommission_removed`, nodes the elastic
    /// controller picked (`LossReason::Removed`) retire gracefully
    /// instead of crashing.
    fn apply_grid_output(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        out: GridOutput,
        decommission_removed: bool,
    ) {
        for (d, e) in out.defer {
            sched.after(d, Event::Grid(e));
        }
        for note in out.notes {
            match note {
                GridNote::NodeStarted { node } => self.on_node_started(node, sched),
                GridNote::NodeLost {
                    node,
                    reason: LossReason::Removed,
                } if decommission_removed => self.shutdown_daemons(node, true, sched),
                GridNote::NodeLost { node, reason } => self.on_node_lost(node, reason, sched),
            }
        }
    }

    // ==================================================================
    // Task execution
    // ==================================================================

    fn attempt_node(&self, att: AttemptRef) -> NodeId {
        self.masters.jt.job(att.task.job).task(att.task).attempts[att.attempt as usize].node
    }

    /// The node `attempt` runs on, while the JobTracker still counts it
    /// running and the node is reachable. Anything else makes an event
    /// for the attempt stale: it was killed or failed, or its node died
    /// and the JobTracker timeout requeues the task.
    fn live_attempt_node(&self, attempt: AttemptRef) -> Option<NodeId> {
        if !self.masters.jt.attempt_active(attempt) {
            return None;
        }
        let node = self.attempt_node(attempt);
        self.node_reachable(node).then_some(node)
    }

    /// The parameters of `attempt`'s job, from the JobTracker's ledger.
    fn spec(&self, attempt: AttemptRef) -> &JobSubmission {
        &self.masters.jt.job(attempt.task.job).spec
    }

    /// Whether the masters are serving: not crashed, and not inside a
    /// chaos `MasterStall`.
    fn master_serving(&self, now: SimTime) -> bool {
        !self.masters.is_down() && self.master_stalled_until.is_none_or(|until| now >= until)
    }

    fn start_assignments(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        node: NodeId,
        assignments: &[Assignment],
    ) {
        for a in assignments {
            let attempt = a.attempt();
            if self.is_zombie(node) {
                sched.after(
                    ZOMBIE_FAIL_DELAY,
                    Event::AttemptDoomed {
                        attempt,
                        reason: DoomReason::Zombie,
                    },
                );
            } else if attempt.task.kind == TaskKind::Map {
                self.start_map_read(sched, attempt);
            } else {
                self.drive_reduce(sched, attempt);
            }
        }
    }

    /// Resolve the input source for a map attempt and start the read
    /// (local disk or a network flow).
    fn start_map_read(&mut self, sched: &mut Scheduler<'_, Event>, attempt: AttemptRef) {
        let Some(node) = self.live_attempt_node(attempt) else {
            return;
        };
        let (block, input_bytes) = self.spec(attempt).input_blocks[attempt.task.index as usize];
        let rtt = self.net.latency(self.master, node) * 2;
        loop {
            match self.masters.nn.pick_read_source(block, node, &self.topo) {
                None => {
                    sched.after(
                        rtt + SimDuration::from_secs(1),
                        Event::AttemptDoomed {
                            attempt,
                            reason: DoomReason::LostBlock,
                        },
                    );
                    return;
                }
                Some(src) if self.is_zombie(src) => {
                    // Zombie replica: the read fails fast and the client
                    // reports the bad replica, then tries the next one.
                    self.masters.nn.report_bad_replica(block, src);
                    continue;
                }
                Some(src) if src == node => {
                    let (_, disk) = self.slow(node);
                    let secs = transfer_secs(input_bytes, DISK_READ_RATE) * disk;
                    sched.after(
                        rtt + SimDuration::from_secs_f64(secs),
                        Event::MapInputReady { attempt },
                    );
                    return;
                }
                Some(src) => {
                    let fid = self.net.start_flow(sched.now(), src, node, input_bytes);
                    self.flows.insert(fid, FlowCtx::MapInput { attempt });
                    self.attempt_flows.entry(attempt).or_default().push(fid);
                    return;
                }
            }
        }
    }

    /// A map's input is in memory: schedule its compute phase.
    fn start_map_compute(&mut self, sched: &mut Scheduler<'_, Event>, attempt: AttemptRef) {
        let Some(node) = self.live_attempt_node(attempt) else {
            return;
        };
        let cpu_secs = self.spec(attempt).map_cpu_secs;
        let (cpu, _) = self.slow(node);
        let strag = self.straggler_factor();
        sched.after(
            SimDuration::from_secs_f64(cpu_secs * cpu * strag),
            Event::MapComputeDone { attempt },
        );
    }

    fn on_map_compute_done(&mut self, sched: &mut Scheduler<'_, Event>, attempt: AttemptRef) {
        let Some(node) = self.live_attempt_node(attempt) else {
            return;
        };
        if !self.masters.jt.reserve_map_scratch(attempt, node) {
            // Out of local disk: the §IV-D.2 failure mode.
            self.fail_attempt(sched, attempt, FailReason::DiskFull);
            return;
        }
        let (_, disk) = self.slow(node);
        let secs = transfer_secs(self.spec(attempt).map_output_bytes, DISK_WRITE_RATE) * disk;
        sched.after(
            SimDuration::from_secs_f64(secs),
            Event::MapSpillDone { attempt },
        );
    }

    fn on_map_spill_done(&mut self, sched: &mut Scheduler<'_, Event>, attempt: AttemptRef) {
        if self.live_attempt_node(attempt).is_none() {
            return;
        }
        let out = self.masters.jt.map_done(sched.now(), attempt, &self.topo);
        self.forget_attempt(attempt);
        self.handle_notes(sched, out.notes);
        for r in out.wake_reduces {
            self.drive_reduce(sched, r);
        }
    }

    fn drive_reduce(&mut self, sched: &mut Scheduler<'_, Event>, attempt: AttemptRef) {
        let Some(node) = self.live_attempt_node(attempt) else {
            return;
        };
        match self.masters.jt.reduce_next(attempt) {
            ReduceStep::Fetch(orders) => {
                for (id, order) in orders {
                    let usable = self.node_usable(order.src_rep);
                    if usable {
                        let fid = self.net.start_flow_diffuse(
                            sched.now(),
                            order.src_rep,
                            node,
                            order.bytes,
                        );
                        self.flows
                            .insert(fid, FlowCtx::Shuffle { attempt, order: id });
                        self.attempt_flows.entry(attempt).or_default().push(fid);
                    } else {
                        self.counters.fetch_timeouts += 1;
                        sched.after(
                            FETCH_RETRY_DELAY,
                            Event::FetchTimeout { attempt, order: id },
                        );
                    }
                }
            }
            ReduceStep::StartSort => {
                let cpu_secs = self.spec(attempt).reduce_cpu_secs;
                let (cpu, _) = self.slow(node);
                let strag = self.straggler_factor();
                sched.after(
                    SimDuration::from_secs_f64(cpu_secs * cpu * strag),
                    Event::ReduceSortDone { attempt },
                );
            }
            ReduceStep::Wait => {}
        }
    }

    fn on_reduce_sort_done(&mut self, sched: &mut Scheduler<'_, Event>, attempt: AttemptRef) {
        let Some(node) = self.live_attempt_node(attempt) else {
            return;
        };
        let spec = self.spec(attempt);
        let (bytes, repl) = (spec.reduce_output_bytes, spec.output_replication);
        let path = format!(
            "/out/j{}/r{}-a{}",
            attempt.task.job.0, attempt.task.index, attempt.attempt
        );
        let file = self.masters.nn.create_file(path, repl);
        match self
            .masters
            .nn
            .allocate_block(file, bytes, Some(node), &self.topo)
        {
            Some(alloc) => {
                let owner = WriteOwner::ReduceOutput { attempt };
                self.start_write(sched, owner, file, bytes, alloc, 0, BTreeSet::new());
            }
            None => self.fail_attempt(sched, attempt, FailReason::DiskFull),
        }
    }

    fn handle_notes(&mut self, sched: &mut Scheduler<'_, Event>, notes: Vec<JtNote>) {
        for note in notes {
            match note {
                JtNote::KillAttempt { attempt, .. } => {
                    self.cancel_attempt_work(sched, attempt);
                }
                JtNote::JobCompleted { job } => self.on_job_terminal(sched, job, true),
                JtNote::JobFailed { job } => self.on_job_terminal(sched, job, false),
            }
        }
    }

    /// The mediator fails a running attempt: report it, drop its state,
    /// and act on the JobTracker's fallout.
    fn fail_attempt(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        attempt: AttemptRef,
        why: FailReason,
    ) {
        let notes = self.masters.jt.attempt_failed(sched.now(), attempt, why);
        self.forget_attempt(attempt);
        self.handle_notes(sched, notes);
    }

    /// Drop the per-attempt state of an attempt that ended (succeeded,
    /// failed or killed), returning the flows registered under it.
    fn forget_attempt(&mut self, attempt: AttemptRef) -> Vec<FlowId> {
        self.attempt_flows.remove(&attempt).unwrap_or_default()
    }

    fn cancel_attempt_work(&mut self, sched: &mut Scheduler<'_, Event>, attempt: AttemptRef) {
        for fid in self.forget_attempt(attempt) {
            // The flow may belong to a pipeline write; abandon it.
            if let Some(FlowCtx::PipeHead { write } | FlowCtx::PipeFan { write, .. }) =
                self.flows.remove(&fid)
            {
                self.writes.remove(&write);
            }
            self.net.cancel_flow(sched.now(), fid);
        }
    }

    fn on_job_terminal(&mut self, sched: &mut Scheduler<'_, Event>, job: JobId, ok: bool) {
        // A job "completing" while the master is down completed against
        // the crashed master's ledger: nobody can report it to the client
        // and its output namespace dies with the ghost. The restored
        // ledger re-runs it after promotion.
        if self.masters.is_down() {
            return;
        }
        if let Some(&idx) = self.job_of_schedule.get(&job) {
            self.record_job_result(sched.now(), idx, ok);
        }
    }

    /// Record schedule index `idx`'s outcome (the first report wins); the
    /// last job to finish ends the run, and the metrics registry samples
    /// its final state.
    fn record_job_result(&mut self, now: SimTime, idx: usize, ok: bool) {
        if self.job_results[idx].is_some() {
            return;
        }
        self.job_results[idx] = Some((now, ok));
        self.finished_jobs += 1;
        if ok {
            if let (Some(m), Some(start)) = (&mut self.obs_metrics, self.workload_start) {
                m.reg
                    .observe(m.job_secs, now.saturating_since(start).as_secs_f64());
            }
        }
        if self.finished_jobs == self.schedule.len() {
            self.workload_end = Some(now);
            self.set_phase(RunPhase::Done);
            self.sample_metrics(now);
        }
    }

    fn on_submit_job(&mut self, sched: &mut Scheduler<'_, Event>, index: usize) {
        // Master down: the client's submission RPC fails. Instead of
        // failing the job it buffers and retries with backoff, exactly
        // like a `JobClient` looping on connect.
        if self.masters.is_down() {
            self.masters.stats.buffered_submissions += 1;
            self.tracer
                .emit(|| TraceEvent::new(Layer::Core, "submit_buffered").with("index", index));
            sched.after(self.cfg.mr.retry_backoff, Event::SubmitJob { index });
            return;
        }
        let file = self.input_files[index];
        let blocks = self.masters.nn.blocks_of(file).to_vec();
        let mut input_blocks = Vec::with_capacity(blocks.len());
        let mut split_locations = Vec::with_capacity(blocks.len());
        for b in blocks {
            let meta = self.masters.nn.block(b);
            input_blocks.push((b, meta.size));
            split_locations.push(meta.replicas.iter().copied().collect::<Vec<_>>());
        }
        let spec = &self.schedule[index];
        let submission = JobSubmission {
            input_blocks,
            split_locations,
            reduces: spec.reduces,
            map_cpu_secs: jobmodel::map_cpu_secs(),
            map_output_bytes: jobmodel::map_output_bytes(),
            reduce_cpu_secs: jobmodel::reduce_cpu_secs(spec.maps, spec.reduces),
            reduce_output_bytes: if spec.reduces == 0 {
                0
            } else {
                jobmodel::output_bytes(spec.maps) / spec.reduces as u64
            },
            output_replication: self.cfg.hdfs.replication,
        };
        let jid = self.masters.jt.submit_job(sched.now(), submission);
        self.job_of_schedule.insert(jid, index);
        // A job whose input vanished entirely (zero blocks uploaded) can
        // never run; terminal-fail it immediately.
        if self.schedule[index].maps > 0 && self.masters.jt.job(jid).spec.maps() == 0 {
            self.record_job_result(sched.now(), index, false);
        }
    }

    /// Elastic resize (§IV-C): growing submits more glidein requests;
    /// shrinking removes queued requests first, then running workers —
    /// the newest, or only nodes from `victims` when the elastic
    /// controller picked them (those decommission gracefully). With fewer
    /// eligible victims than asked the shrink under-delivers and the
    /// controller retries after its cooldown.
    fn resize_pool(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        delta: i64,
        victims: Option<&[NodeId]>,
    ) {
        let Some(grid) = self.grid.as_mut() else {
            return; // fixed clusters don't resize
        };
        let now = sched.now();
        let out = if delta >= 0 {
            self.target_nodes += delta as usize;
            grid.submit_workers(now, delta as usize)
        } else {
            let shrink = delta.unsigned_abs() as usize;
            self.target_nodes = self.target_nodes.saturating_sub(shrink);
            match victims {
                Some(v) => grid.remove_workers_preferring(shrink, &self.topo, v),
                None => grid.remove_workers(shrink, &self.topo),
            }
        };
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Core, "pool_resize")
                .with("delta", delta)
                .with("target", self.target_nodes)
        });
        self.apply_grid_output(sched, out, victims.is_some());
    }

    /// One controller step of the elastic feedback loop (tentpole of
    /// extension X12): observe the task backlog and pool state, let the
    /// deterministic [`ElasticController`] pick a resize, and apply it
    /// through the same grid paths an operator's `ResizePool` would use.
    fn on_elastic_tick(&mut self, sched: &mut Scheduler<'_, Event>) {
        let decision = {
            let (Some(ctl), Some(grid)) = (self.elastic.as_mut(), self.grid.as_ref()) else {
                return;
            };
            let b = self.masters.jt.backlog();
            let snap = PoolSnapshot {
                reported_live: self.masters.jt.reported_live(),
                outstanding: grid.outstanding_count(),
                pending_maps: b.pending_maps,
                running_maps: b.running_maps,
                pending_reduces: b.pending_reduces,
                running_reduces: b.running_reduces,
                active_jobs: b.active_jobs,
            };
            ctl.decide(sched.now(), &snap)
        };
        match decision {
            ElasticDecision::Hold => {}
            ElasticDecision::Grow(n) => {
                self.elastic_actions.push((sched.now(), n as i64));
                self.tracer.emit(|| {
                    TraceEvent::new(Layer::Core, "elastic_grow")
                        .with("nodes", n)
                        .with("target", self.target_nodes + n)
                });
                self.resize_pool(sched, n as i64, None);
            }
            ElasticDecision::Shrink(n) => {
                let victims = self.shrink_victims(sched.now(), n);
                self.elastic_actions.push((sched.now(), -(n as i64)));
                self.tracer.emit(|| {
                    TraceEvent::new(Layer::Core, "elastic_shrink")
                        .with("nodes", n)
                        .with("eligible", victims.len())
                });
                self.resize_pool(sched, -(n as i64), Some(&victims));
            }
        }
    }

    /// Pick up to `n` running workers the controller may release, most
    /// expendable first: highest decayed site failure score (hog-sched)
    /// breaks toward churny sites, newest node id breaks ties. Busy
    /// trackers are excluded outright — reclaiming one converts a
    /// voluntary shrink into rescheduling churn. Selection is
    /// batch-aware: a candidate joins the victim list only if every block
    /// it stores keeps enough live replicas *outside the list*
    /// ([`Cluster::replicas_survive_without`]), so a large shrink can
    /// never collectively erase a block that each victim individually
    /// appeared to leave safe.
    fn shrink_victims(&self, now: SimTime, n: usize) -> Vec<NodeId> {
        let mut ranked: Vec<(f64, NodeId)> = self
            .workers
            .iter()
            .filter(|(_, w)| !w.zombie)
            .map(|(n, _)| n)
            .filter(|&n| !self.masters.jt.tracker_busy(n))
            .map(|n| (self.masters.jt.site_penalty(self.topo.site_of(n), now), n))
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
        let mut victims: Vec<NodeId> = Vec::with_capacity(n);
        let mut chosen: HashSet<NodeId> = HashSet::new();
        for (_, node) in ranked {
            if victims.len() == n {
                break;
            }
            if self.replicas_survive_without(node, &chosen) {
                chosen.insert(node);
                victims.push(node);
            }
        }
        victims
    }

    /// Whether every block on `node` keeps enough live replicas after
    /// removing `node` and every already-planned victim. With the
    /// availability policy off "enough" is the legacy one survivor; when
    /// armed the floor rises to [`AvailabilityPolicy::shrink_floor`]
    /// (half the block's target) so an elastic shrink can't collapse an
    /// adaptively-thin block down to a single copy on a churny site.
    ///
    /// [`AvailabilityPolicy::shrink_floor`]: hog_hdfs::AvailabilityPolicy::shrink_floor
    fn replicas_survive_without(&self, node: NodeId, planned: &HashSet<NodeId>) -> bool {
        let policy = self.cfg.hdfs.availability;
        let Some(dn) = self.masters.nn.datanode(node) else {
            return true;
        };
        dn.blocks.iter().all(|&b| {
            let meta = self.masters.nn.block(b);
            if meta.expected == 0 {
                return true;
            }
            let floor = policy.map_or(1, |p| p.shrink_floor(meta.expected));
            meta.replicas
                .iter()
                .filter(|r| **r != node && !planned.contains(r))
                .take(floor)
                .count()
                >= floor
        })
    }

    /// One balancer iteration: plan moves toward mean utilisation and
    /// execute them as copy-then-drop transfers.
    fn on_balancer_tick(&mut self, sched: &mut Scheduler<'_, Event>) {
        for mv in hog_hdfs::balancer::plan(&self.masters.nn, &self.topo, 0.10, 32) {
            // The plan sees zombies as the namenode does: healthy.
            if !self.node_usable(mv.src) || !self.node_usable(mv.dst) {
                continue;
            }
            let fid = self.net.start_flow(sched.now(), mv.src, mv.dst, mv.bytes);
            self.flows.insert(fid, FlowCtx::Balancer(mv));
        }
    }

    /// One availability-policy sweep (X17): classify every site by its
    /// decayed failure score (hog-sched, via the JobTracker) and its
    /// churn profile (hog-grid), then let the namenode retarget
    /// per-block replication against the snapshot. A no-op unless
    /// `cfg.hdfs.availability` is armed and [`RETARGET_INTERVAL`] has
    /// elapsed.
    fn on_availability_tick(&mut self, now: SimTime) {
        if self.cfg.hdfs.availability.is_none() {
            return;
        }
        if self
            .avail_last
            .is_some_and(|t| now.saturating_since(t) < RETARGET_INTERVAL)
        {
            return;
        }
        self.avail_last = Some(now);
        let sites: Vec<SiteRisk> = self
            .topo
            .sites()
            .iter()
            .map(|info| {
                let penalty = self.masters.jt.site_penalty(info.id, now);
                let lifetime_secs = match self.site_churn(&info.name) {
                    Some((mean, churn)) => {
                        // Diurnal pressure > 1 compresses expected
                        // survival exactly as it compresses sampled
                        // lifetimes in hog-grid.
                        churn.typical_lifetime_secs(mean) / churn.pressure(now).max(0.05)
                    }
                    // CENTRAL and sites outside the grid config have no
                    // preemption process: never classified risky.
                    None => f64::INFINITY,
                };
                SiteRisk {
                    penalty,
                    lifetime_secs,
                }
            })
            .collect();
        self.masters
            .nn
            .apply_availability(AvailabilitySnapshot { sites }, &self.topo);
    }

    /// The configured preemption process for a site, by OSG resource
    /// name: `(exponential mean lifetime, churn model)`.
    fn site_churn(&self, name: &str) -> Option<(SimDuration, hog_grid::ChurnModel)> {
        let ResourceConfig::Grid { sites, .. } = &self.cfg.resource else {
            return None;
        };
        sites
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.node_lifetime.mean(), s.churn))
    }

    fn on_master_tick(&mut self, sched: &mut Scheduler<'_, Event>) {
        let stalled = !self.master_serving(sched.now());
        // Periodic checkpoint: only while the workload runs (the initial
        // checkpoint is taken at upload completion) and only from a
        // healthy master — a stalled master's checkpoint thread is just
        // as suspended as the rest of it, so a `MasterStall` delays the
        // cadence instead of snapshotting mid-stall state twice.
        if !stalled && self.phase == RunPhase::Running && self.masters.checkpoint_due(sched.now()) {
            self.masters.take_checkpoint(sched.now());
            self.tracer.emit(|| {
                TraceEvent::new(Layer::Core, "master_checkpoint")
                    .with("count", self.masters.stats.checkpoints.len())
            });
        }
        if !stalled {
            // Namenode: death detection + replication orders.
            let tick = self.masters.nn.tick(sched.now(), &self.topo);
            for ReplOrder {
                block,
                src,
                dst,
                bytes,
            } in tick.orders
            {
                if !self.node_usable(src) || !self.node_reachable(dst) {
                    // Zombie or just-died source, or a lost destination:
                    // the transfer fails fast.
                    self.masters.nn.repl_done(block, src, dst, false);
                    continue;
                }
                let fid = self.net.start_flow(sched.now(), src, dst, bytes);
                self.flows.insert(fid, FlowCtx::Repl { block, src, dst });
            }
            // JobTracker: dead trackers.
            let (_dead, notes) = self.masters.jt.check_dead(sched.now());
            self.handle_notes(sched, notes);
        }
        // Series sampling (the Fig. 5 curves).
        self.reported_series
            .record(sched.now(), self.masters.jt.reported_live() as f64);
        let usable = self.workers.len() - self.zombie_count;
        self.actual_series.record(sched.now(), usable as f64);
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Core, "master_tick")
                .with("reported", self.masters.jt.reported_live())
                .with("usable", usable)
                .with("stalled", stalled)
        });
        self.sample_metrics(sched.now());
        // Availability policy (X17: per-block targets tracking site risk)
        // and elastic pool controller: Running phase only. The
        // forming/upload pool has no failure history to classify against
        // yet and stays at the configured target, and a stalled master
        // can't see the backlog it would act on.
        if !stalled && self.phase == RunPhase::Running {
            self.on_availability_tick(sched.now());
            self.on_elastic_tick(sched);
        }
        self.run_chaos_supervision(sched.now());
        sched.after(REPLICATION_MONITOR_INTERVAL, Event::MasterTick);
    }

    /// Record the current value of every registered metric (when the
    /// registry is enabled). Called once per master tick and once when
    /// the run enters [`RunPhase::Done`].
    fn sample_metrics(&mut self, now: SimTime) {
        if self.obs_metrics.is_none() {
            return;
        }
        let sig = self.progress_sig();
        let jtc = self.masters.jt.counters();
        let fo = &self.masters.stats;
        let (raised, lowered, trimmed) = self.masters.nn.availability_counters();
        // One value per `GAUGES` entry, in its order.
        let values: [f64; GAUGES.len()] = [
            (self.workers.len() - self.zombie_count) as f64,
            self.masters.jt.reported_live() as f64,
            self.zombie_count as f64,
            sig.node_starts as f64,
            self.missing_input_blocks() as f64,
            sig.repl_completed as f64,
            self.masters.nn.read_count() as f64,
            trimmed as f64,
            raised as f64,
            lowered as f64,
            self.masters.nn.bytes_written() as f64,
            sig.maps_done as f64,
            sig.reduces_done as f64,
            sig.task_failures as f64,
            sig.jobs_finished as f64,
            jtc.node_local as f64,
            jtc.rack_local as f64,
            jtc.site_local as f64,
            jtc.remote as f64,
            self.flows.len() as f64,
            sig.flows_finished as f64,
            self.target_nodes as f64,
            self.grid.as_ref().map_or(0, |g| g.outstanding_count()) as f64,
            self.elastic
                .as_ref()
                .map_or(0, |c| c.resize_counts().0 + c.resize_counts().1) as f64,
            self.masters.jt.jain_fairness(),
            fo.total_recovery.as_millis() as f64,
            fo.total_lost_window.as_millis() as f64,
            fo.reregistrations as f64,
            fo.crashes as f64,
        ];
        let shares: Vec<(JobId, u32)> = self.masters.jt.job_shares().collect();
        let m = self.obs_metrics.as_mut().unwrap();
        for (&id, value) in m.gauges.iter().zip(values) {
            m.reg.set(id, value);
        }
        // Per-job slot shares: register a series the first tick a job id
        // appears; completed jobs drop out of the share list and read 0.
        if let Some(max_id) = shares.iter().map(|&(j, _)| j.0 as usize).max() {
            while m.job_slots.len() <= max_id {
                let id = m
                    .reg
                    .register_owned(Layer::MapReduce, format!("job{}_slots", m.job_slots.len()));
                m.job_slots.push(id);
            }
        }
        for &id in &m.job_slots {
            m.reg.set(id, 0.0);
        }
        for &(j, s) in &shares {
            m.reg.set(m.job_slots[j.0 as usize], s as f64);
        }
        m.reg.snapshot(now);
    }

    // ==================================================================
    // Master failover: crash, standby promotion, recovery protocol
    // ==================================================================

    /// The master host dies ([`Fault::MasterCrash`]). With no failover
    /// configuration the fault is recorded and ignored; in mirror mode
    /// the synchronous standby absorbs it with zero downtime; otherwise
    /// the stack goes down and the standby's detection timeout starts.
    fn on_master_crash(&mut self, sched: &mut Scheduler<'_, Event>) {
        let went_down = self.masters.crash(sched.now());
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Core, "master_crash")
                .with("downtime", went_down)
                .with("configured", self.masters.failover().is_some())
        });
        if went_down {
            sched.after(DETECTION_TIMEOUT, Event::MasterPromote);
        }
    }

    /// The standby noticed the active master is gone: restore the latest
    /// checkpoint as the live Namenode+JobTracker and reconcile it with
    /// physical reality. The crashed masters' final state (the *ghosts*)
    /// is the ground truth for what is actually on the workers' disks.
    ///
    /// Protocol, in order:
    ///
    /// 1. abandon every transfer the dead master orchestrated;
    /// 2. kill-all in the restored ledger (Hadoop 0.20 JT-restart model):
    ///    every attempt the checkpoint believed running is requeued;
    /// 3. align the restored ledger with outcomes the client already
    ///    observed, and schedule client resubmission of jobs whose
    ///    submission died with the crashed master (lost edit window);
    /// 4. pad attempt ordinals/job ids against the ghost so stale events
    ///    and output paths can never alias new work;
    /// 5. datanodes re-register and replay block reports (ghost block
    ///    sets = what disks really hold); unreachable nodes go silent;
    /// 6. trackers re-register with fresh heartbeats; scratch accounting
    ///    is rebuilt from the surviving ledger.
    fn on_master_promote(&mut self, sched: &mut Scheduler<'_, Event>) {
        let now = sched.now();
        let Some(promoted) = self.masters.promote(now) else {
            return; // stale event: the stack was not down
        };
        let ghost_nn = promoted.ghost_nn;
        let ghost_jt = promoted.ghost_jt;

        // 1. Every in-flight transfer was orchestrated by the dead
        // master (replication orders, shuffle fetches it planned, write
        // pipelines it allocated): abandon them all. Completions that
        // were already queued find no context and fall through.
        let active: Vec<FlowId> = {
            let mut v: Vec<FlowId> = self.flows.keys().copied().collect();
            v.sort_by_key(|f| f.0);
            v
        };
        for fid in active {
            self.net.cancel_flow(now, fid);
        }
        self.flows.clear();
        self.attempt_flows.clear();
        self.writes.clear();

        // 2. Kill-all in the restored ledger.
        let restored_jobs = self.masters.jt.job_count();
        let killed = self.masters.jt.recover_kill_all();

        // 3. Reconcile with what the client observed. Jobs the mediator
        // already recorded terminal (completed after the checkpoint,
        // before the crash) stay terminal — the client has the answer.
        // Jobs submitted after the checkpoint are gone from the restored
        // ledger entirely: their ids are retired and, unless they
        // finished before the crash, the client resubmits after backoff.
        let mut entries: Vec<(JobId, usize)> =
            self.job_of_schedule.iter().map(|(&j, &i)| (j, i)).collect();
        entries.sort_by_key(|&(j, i)| (j.0, i));
        let mut resubmitted = 0u64;
        for (jid, idx) in entries {
            if (jid.0 as usize) < restored_jobs {
                if let Some((t, ok)) = self.job_results[idx] {
                    self.masters.jt.recover_force_terminal(jid, t, ok);
                }
            } else {
                self.job_of_schedule.remove(&jid);
                if self.job_results[idx].is_none() {
                    resubmitted += 1;
                    sched.after(self.cfg.mr.retry_backoff, Event::SubmitJob { index: idx });
                }
            }
        }

        // 4. Ordinal/id padding against the ghost.
        self.masters.jt.recover_align_with_ghost(&ghost_jt, now);

        // 5. Namenode recovery: reachable datanodes re-register and
        // replay what their disks actually hold (the ghost's view —
        // updated through the downtime as nodes came and went). A
        // zombie replays like any other node: the restored namenode can
        // no more tell them apart than the original could (§IV-D.1).
        let reachable: Vec<(NodeId, (u8, u8))> = self
            .workers
            .iter()
            .filter(|(_, w)| !w.partitioned)
            .map(|(n, w)| (n, w.slots))
            .collect();
        let mut rereg = 0u64;
        for &(n, _) in &reachable {
            let report: Vec<BlockId> = ghost_nn
                .datanode(n)
                .map(|d| d.blocks.iter().copied().collect())
                .unwrap_or_default();
            self.masters
                .nn
                .replay_block_report(now, n, self.topo.site_of(n), &report);
            rereg += 1;
        }
        // Nodes the checkpoint believed live but that are unreachable
        // now (partitioned, or lost during the downtime) go silent; the
        // normal dead-node machinery takes it from there. Node tables
        // iterate by ascending id, so the silences replay in a fixed
        // order.
        let silent: Vec<NodeId> = self
            .masters
            .nn
            .datanodes()
            .filter(|&(n, d)| d.liveness == Liveness::Live && !self.node_reachable(n))
            .map(|(n, _)| n)
            .collect();
        for n in silent {
            self.masters.nn.mark_silent(now, n);
        }
        self.masters.nn.rebuild_replication_state();

        // 6. JobTracker recovery: reachable trackers re-register with
        // fresh heartbeats (checkpoint-stale timestamps would trip mass
        // death detection on the first tick); known-but-unreachable ones
        // go silent; scratch accounting is rebuilt from the ledger.
        for &(n, (m, r)) in &reachable {
            self.masters
                .jt
                .register_tracker(now, n, self.topo.site_of(n), m, r);
            rereg += 1;
        }
        let tracker_silent: Vec<NodeId> = self
            .workers
            .iter()
            .filter(|&(n, w)| w.partitioned && self.masters.jt.tracker_live(n))
            .map(|(n, _)| n)
            .collect();
        for n in tracker_silent {
            self.masters.jt.tracker_silent(now, n);
        }
        self.masters.jt.recover_rebuild_scratch();

        self.masters.stats.reregistrations += rereg;
        self.masters.stats.resubmissions += resubmitted;
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Core, "master_promote")
                .with("killed_attempts", killed)
                .with("reregistrations", rereg)
                .with("resubmissions", resubmitted)
                .with("restored_jobs", restored_jobs)
        });
    }

    /// Failover accounting (crashes, promotions, recovery/lost-window
    /// durations, re-registration storms).
    pub fn failover_stats(&self) -> &crate::master::FailoverStats {
        self.masters.stats()
    }

    // ==================================================================
    // Chaos: fault injection, invariant auditing, livelock detection
    // ==================================================================

    fn site_by_name(&self, name: &str) -> Option<hog_net::SiteId> {
        self.topo
            .sites()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.id)
    }

    fn fault_name(fault: &Fault) -> &'static str {
        match fault {
            Fault::PreemptBurst { .. } => "preempt_burst",
            Fault::SitePartition { .. } => "site_partition",
            Fault::WanDegrade { .. } => "wan_degrade",
            Fault::ZombieOutbreak { .. } => "zombie_outbreak",
            Fault::Straggler { .. } => "straggler",
            Fault::MasterStall { .. } => "master_stall",
            Fault::MasterCrash => "master_crash",
            Fault::CorruptAccounting { .. } => "corrupt_accounting",
            Fault::PoolPartition { .. } => "pool_partition",
        }
    }

    /// Apply the `index`-th fault of the configured plan.
    fn on_chaos(&mut self, sched: &mut Scheduler<'_, Event>, index: u32) {
        let Some(tf) = self.cfg.chaos.plan.faults().get(index as usize).cloned() else {
            return;
        };
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Chaos, "chaos_inject")
                .with("index", index)
                .with("fault", Self::fault_name(&tf.fault))
        });
        match tf.fault {
            Fault::PreemptBurst { site, count } => {
                let Some(site) = self.site_by_name(&site) else {
                    return;
                };
                let Some(grid) = self.grid.as_mut() else {
                    return;
                };
                let out = grid.inject_preemptions(site, count, &self.topo);
                self.apply_grid_output(sched, out, false);
            }
            Fault::SitePartition { site, .. } => {
                let Some(site) = self.site_by_name(&site) else {
                    return;
                };
                let members: Vec<NodeId> = self
                    .workers
                    .iter()
                    .filter(|&(n, w)| self.topo.site_of(n) == site && !w.partitioned)
                    .map(|(n, _)| n)
                    .collect();
                for &n in &members {
                    if let Some(w) = self.workers.get_mut(n) {
                        w.partitioned = true;
                    }
                    // Daemons stay up, but nothing gets through: both
                    // masters see silence, and every flow touching the
                    // node dies.
                    self.masters.nn.mark_silent(sched.now(), n);
                    self.masters.jt.tracker_silent(sched.now(), n);
                    self.drain_node(sched, n);
                }
                self.partition_members.insert(index, members);
            }
            Fault::WanDegrade { factor, .. } => {
                self.net.set_wan_factor(sched.now(), factor);
            }
            Fault::ZombieOutbreak { count } => {
                let mut candidates: Vec<NodeId> = self
                    .workers
                    .iter()
                    .filter(|(_, w)| !w.zombie && !w.partitioned)
                    .map(|(n, _)| n)
                    .collect();
                self.chaos_rng.shuffle(&mut candidates);
                for n in candidates.into_iter().take(count) {
                    self.zombify(n);
                }
            }
            Fault::Straggler { count, .. } => {
                let mut candidates: Vec<NodeId> = self
                    .workers
                    .iter()
                    .filter(|(_, w)| w.straggler.is_none())
                    .map(|(n, _)| n)
                    .collect();
                self.chaos_rng.shuffle(&mut candidates);
                for n in candidates.into_iter().take(count) {
                    if let Some(w) = self.workers.get_mut(n) {
                        w.straggler = Some(index);
                    }
                }
            }
            Fault::MasterStall { duration } => {
                self.master_stalled_until = Some(sched.now() + duration);
            }
            Fault::MasterCrash => self.on_master_crash(sched),
            Fault::CorruptAccounting { delta_bytes } => {
                // Deliberately breaks the namenode's books so the auditor
                // has something real to catch (negative-testing fault).
                if let Some((n, _)) = self.workers.iter().next() {
                    self.masters.nn.debug_skew_used(n, delta_bytes);
                }
            }
            Fault::PoolPartition { .. } => {
                // The inter-pool WAN lives above a standalone cluster; the
                // federation executor intercepts this fault and freezes
                // its `WanTier`. Here it is recorded (trace above) only.
            }
        }
    }

    /// End of a windowed fault (`SitePartition` heals, `WanDegrade`
    /// lifts).
    fn on_chaos_end(&mut self, sched: &mut Scheduler<'_, Event>, index: u32) {
        let Some(tf) = self.cfg.chaos.plan.faults().get(index as usize).cloned() else {
            return;
        };
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Chaos, "chaos_heal")
                .with("index", index)
                .with("fault", Self::fault_name(&tf.fault))
        });
        match tf.fault {
            Fault::SitePartition { .. } => {
                let members = self.partition_members.remove(&index).unwrap_or_default();
                for n in members {
                    let Some(w) = self.workers.get_mut(n) else {
                        continue; // lost for real while cut off
                    };
                    w.partitioned = false;
                    let (m, r) = w.slots;
                    self.net.register_node(n, self.topo.site_of(n));
                    let dn_dead = self
                        .masters
                        .nn
                        .datanode(n)
                        .is_none_or(|d| d.liveness == Liveness::Dead);
                    if dn_dead {
                        // The namenode wrote the node off (and dropped its
                        // block accounting); it reports back in empty, as
                        // a restarted datanode would.
                        self.masters
                            .nn
                            .register_datanode(sched.now(), n, self.topo.site_of(n));
                    } else {
                        self.masters.nn.mark_live(sched.now(), n);
                    }
                    if !self.masters.jt.tracker_live(n) {
                        self.masters.jt.register_tracker(
                            sched.now(),
                            n,
                            self.topo.site_of(n),
                            m,
                            r,
                        );
                    }
                }
            }
            Fault::WanDegrade { .. } => {
                self.net.set_wan_factor(sched.now(), 1.0);
            }
            _ => {}
        }
    }

    /// Per-master-tick chaos oversight: run the invariant audit and feed
    /// the livelock watchdog. The first failure freezes the run.
    fn run_chaos_supervision(&mut self, now: SimTime) {
        if self.chaos_failure.is_some() {
            return;
        }
        // While the master stack is down its liveness beliefs are frozen
        // at crash time; auditing a dead master against live ground truth
        // is meaningless (promotion reconciles the views).
        if self.auditor.is_some() && !self.masters.is_down() {
            // Flows started this instant carry no rate until the net's
            // deferred recompute runs.
            self.net.flush();
            let mut violations =
                hog_chaos::collect_violations(&[&self.net, &self.masters.nn, &self.masters.jt]);
            violations.extend(self.cross_layer_violations());
            if let Some(aud) = &mut self.auditor {
                if let Some(f) = aud.observe(now, violations) {
                    self.chaos_failure = Some(f);
                }
            }
        }
        if self.chaos_failure.is_none() && self.watchdog.is_some() && self.phase != RunPhase::Done {
            let sig = self.progress_sig();
            if let Some(wd) = &mut self.watchdog {
                if let Some(f) = wd.observe(now, sig) {
                    self.chaos_failure = Some(f);
                }
            }
        }
        // A fresh failure gets the flight-recorder tail appended to its
        // dump. The tail is captured before any further event is emitted,
        // so its last entry precedes (or coincides with) the failure time.
        if self.chaos_failure.is_some() && self.tracer.enabled() {
            let tail = self.tracer.tail(DUMP_TAIL);
            let rendered = render_tail(&tail, self.tracer.events_recorded(), self.tracer.dropped());
            if let Some(f) = &mut self.chaos_failure {
                f.append_context(&rendered);
            }
        }
    }

    /// Invariants no single layer can check: the masters' liveness views
    /// must agree with the mediator's ground truth.
    fn cross_layer_violations(&self) -> Vec<Violation> {
        let mut v = Vec::new();
        for (n, dn) in self.masters.nn.datanodes() {
            if dn.liveness == Liveness::Live && !self.node_reachable(n) {
                v.push(Violation::new(
                    "cluster",
                    format!("namenode believes {n:?} is Live but it is unreachable"),
                ));
            }
        }
        for (n, w) in self.workers.iter() {
            if w.partitioned && self.masters.jt.tracker_live(n) {
                v.push(Violation::new(
                    "cluster",
                    format!("jobtracker believes {n:?} is Live across a partition"),
                ));
            }
        }
        v
    }

    /// Snapshot every counter that moves when the cluster does real work.
    fn progress_sig(&self) -> ProgressSig {
        let mut maps_done = 0u64;
        let mut reduces_done = 0u64;
        for i in 0..self.masters.jt.job_count() {
            let job = self.masters.jt.job(JobId(i as u32));
            maps_done += job.maps_done as u64;
            reduces_done += job.reduces_done as u64;
        }
        let jtc = self.masters.jt.counters();
        ProgressSig {
            phase: self.phase as u8,
            pool_size: self
                .workers
                .iter()
                .filter(|&(n, _)| self.node_usable(n))
                .count(),
            node_starts: self.grid.as_ref().map_or(0, |g| g.node_start_count()),
            upload_remaining: self.upload_queue.len() + self.upload_in_flight,
            jobs_finished: self.finished_jobs,
            maps_done,
            reduces_done,
            task_failures: jtc.failures,
            repl_completed: self.masters.nn.counters().0,
            flows_finished: self.flows_done,
        }
    }

    /// The structured failure that aborted this run, if the chaos layer
    /// tripped.
    pub fn chaos_failure(&self) -> Option<&ChaosFailure> {
        self.chaos_failure.as_ref()
    }

    /// Drain the structured trace (None when tracing was off).
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        self.tracer.take_log()
    }

    /// Extract the metrics registry (None when metrics were off).
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.obs_metrics.take().map(|m| m.reg)
    }
}

impl Cluster {
    /// The body of [`Model::handle`]: route one event to its handler.
    fn dispatch(&mut self, event: Event, sched: &mut Scheduler<'_, Event>) {
        match event {
            Event::Grid(g) => {
                let Some(grid) = self.grid.as_mut() else {
                    return;
                };
                let out = grid.handle(sched.now(), g, &mut self.topo);
                self.apply_grid_output(sched, out, false);
            }
            Event::NetTick => {
                self.armed_net_ticks.remove(&sched.now());
                let mut ends = std::mem::take(&mut self.flow_end_buf);
                ends.clear();
                // An advance always counts as a change, so the tick
                // re-arms at the end of this dispatch.
                self.net.advance_into(sched.now(), &mut ends);
                for end in ends.drain(..) {
                    self.on_flow_end(sched, end);
                }
                self.flow_end_buf = ends;
            }
            Event::MasterTick => self.on_master_tick(sched),
            Event::Heartbeat { node } => {
                let Some(worker) = self.workers.get(node) else {
                    return; // daemon gone: heartbeats stop
                };
                // A partitioned worker keeps its daemons (and this timer)
                // alive, but its heartbeats never reach the JobTracker; a
                // stalled or crashed master receives nothing. Either way
                // the masters' timeout machinery sees silence.
                if !worker.partitioned && self.master_serving(sched.now()) {
                    let assignments = self.masters.jt.heartbeat(sched.now(), node, &self.topo);
                    self.start_assignments(sched, node, &assignments);
                }
                sched.every(HEARTBEAT_INTERVAL, Event::Heartbeat { node });
            }
            Event::DiskCheck { node } => {
                let Some(worker) = self.workers.get(node) else {
                    return;
                };
                if worker.zombie {
                    // The self-check noticed the working directory is
                    // gone: shut down cleanly (the paper's fix).
                    self.tracer.emit(|| {
                        TraceEvent::new(Layer::Core, "zombie_detected").with("node", node.0)
                    });
                    self.shutdown_daemons(node, false, sched);
                } else if let Some(d) = self.cfg.hdfs.disk_check_interval {
                    sched.every(d, Event::DiskCheck { node });
                }
            }
            Event::MapInputReady { attempt } => self.start_map_compute(sched, attempt),
            Event::MapComputeDone { attempt } => self.on_map_compute_done(sched, attempt),
            Event::MapSpillDone { attempt } => self.on_map_spill_done(sched, attempt),
            Event::ReduceSortDone { attempt } => self.on_reduce_sort_done(sched, attempt),
            Event::FetchTimeout { attempt, order } => {
                if !self.masters.jt.attempt_active(attempt) {
                    return;
                }
                self.masters.jt.fetch_failed(attempt, order, &self.topo);
                self.drive_reduce(sched, attempt);
            }
            Event::AttemptDoomed { attempt, reason } => {
                if !self.masters.jt.attempt_active(attempt) {
                    return;
                }
                let fr = match reason {
                    DoomReason::Zombie => {
                        self.counters.zombie_task_failures += 1;
                        FailReason::ZombieNode
                    }
                    DoomReason::LostBlock => {
                        self.counters.lost_block_failures += 1;
                        FailReason::LostBlock
                    }
                };
                self.fail_attempt(sched, attempt, fr);
            }
            Event::SubmitJob { index } => {
                if self.cfg.pool.is_some() {
                    // Pool mode: the fired submission goes to the
                    // federation's meta-scheduler, which picks a pool and
                    // calls `external_submit` there at this same instant.
                    self.pending_routes.push(index);
                } else {
                    self.on_submit_job(sched, index)
                }
            }
            Event::PumpUpload => self.pump_upload(sched),
            Event::ResizePool { delta } => self.resize_pool(sched, delta, None),
            Event::BalancerTick => self.on_balancer_tick(sched),
            Event::Chaos { index } => self.on_chaos(sched, index),
            Event::ChaosEnd { index } => self.on_chaos_end(sched, index),
            Event::MasterPromote => self.on_master_promote(sched),
        }
    }
}

impl Model for Cluster {
    type Event = Event;

    fn handle(&mut self, event: Event, sched: &mut Scheduler<'_, Event>) {
        // Keep the recorder's clock current: every emit between here and
        // the next dispatch is stamped with this instant.
        self.tracer.advance(sched.now());
        self.dispatch(event, sched);
        // The one arm point of a dispatch, early returns included.
        self.arm_net(sched);
    }

    /// Two timers can fire with nothing to do. A heartbeat re-arms only
    /// when its worker's daemons still run (without a worker record the
    /// dispatch drops the timer) and the JobTracker will not hear it or
    /// will get nothing from it: the worker is partitioned, the masters
    /// are not serving, or [`JobTracker::heartbeat_idle`] holds. A disk
    /// check re-arms only when its worker runs and is not a zombie (a
    /// zombie's check shuts it down). Either dispatch would then only
    /// advance the trace clock and re-arm the timer on its period
    /// (`HEARTBEAT_INTERVAL`, and the run's fixed disk-check interval),
    /// and the clock is advanced again before anything is traced.
    ///
    /// [`JobTracker::heartbeat_idle`]: hog_mapreduce::JobTracker::heartbeat_idle
    fn rearm_only(&self, event: &Event, now: SimTime) -> bool {
        match *event {
            Event::Heartbeat { node } => self.workers.get(node).is_some_and(|w| {
                w.partitioned
                    || !self.master_serving(now)
                    || self.masters.jt.heartbeat_idle(now, node)
            }),
            Event::DiskCheck { node } => self.workers.get(node).is_some_and(|w| !w.zombie),
            _ => false,
        }
    }

    fn finished(&self) -> bool {
        // A chaos failure (invariant violation or livelock) freezes the
        // run immediately so the dump reflects the moment of detection.
        self.phase == RunPhase::Done || self.chaos_failure.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hog_sim_core::Simulation;
    use hog_workload::facebook::Bin;

    #[test]
    fn a_finished_run_keeps_no_per_attempt_state() {
        let bin = Bin {
            number: 1,
            maps_at_facebook: (8, 8),
            fraction_at_facebook: 1.0,
            maps: 8,
            jobs_in_benchmark: 6,
            reduces: 2,
        };
        let schedule = SubmissionSchedule::from_bins(&[bin], 5);
        let mut cluster = Cluster::new(ClusterConfig::dedicated(1), &schedule);
        let mut sim = Simulation::new();
        cluster.bootstrap(&mut sim);
        sim.run(&mut cluster);
        assert_eq!(cluster.phase(), RunPhase::Done);
        assert!(
            cluster.attempt_flows.is_empty(),
            "{:?}",
            cluster.attempt_flows
        );
    }

    #[test]
    fn an_empty_schedule_finishes_as_a_zero_job_run() {
        let empty = SubmissionSchedule::from_jobs(Vec::new());
        for cfg in [ClusterConfig::hog(10, 1), ClusterConfig::dedicated(1)] {
            let name = cfg.name.clone();
            let r = crate::driver::run_workload(cfg, &empty, SimDuration::from_secs(3600));
            assert!(!r.stopped_early, "{name} did not finish");
            assert!(r.jobs.is_empty(), "{name}");
            assert_eq!(r.response_time, Some(SimDuration::ZERO), "{name}");
            assert_eq!(r.area_reported, 0.0, "{name}");
        }
    }
}
