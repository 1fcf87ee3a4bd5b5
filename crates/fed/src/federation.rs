//! The federation executor: N full master stacks co-simulated under one
//! clock, a meta-scheduler routing jobs between them, and an inter-pool
//! WAN tier staging datasets across pool boundaries.
//!
//! ## Co-simulation
//!
//! Each pool is a complete [`Cluster`] (Namenode + JobTracker + glidein
//! sites, optionally checkpointed) with its **own** event queue. The
//! federation's driver loop pops the globally earliest event across all
//! pool queues plus its own federation queue (WAN completions, periodic
//! ticks) and dispatches it to the owning pool under a
//! [`Scheduler`] borrowed over that pool's queue. Ties at the same
//! instant resolve to the lower pool index, with federation events last —
//! a fixed total order, so runs are deterministic.
//!
//! ## The job lifecycle
//!
//! A job's submission timeline fires in its dataset's *home* pool; the
//! fired submission is intercepted (pool mode:
//! [`Cluster::take_pending_routes`]) and handed to the
//! [`MetaScheduler`], which scores every pool on locality, backlog, and
//! health. If the chosen pool already holds the dataset the job is
//! submitted there immediately; otherwise the dataset crosses the WAN
//! first ([`WanTier`]), is staged onto the destination pool's datanodes
//! at `r_remote`, and the job submits on staging completion.
//!
//! ```text
//! Scheduled ──route──► Submitted{p} ──job done──► Done{p}
//!     │                    ▲
//!     └──route to non-resident pool──► AwaitingStage{p} ──staged──┘
//! ```
//!
//! ## Determinism and the 1-pool identity
//!
//! With a single pool, every dataset is home, routing is the identity,
//! and the pool's queue sees exactly the event sequence a standalone
//! [`Cluster`] run produces: deferred routing happens synchronously after
//! the submitting handler returns, against the same queue at the same
//! instant, so sequence-number allocation is unchanged. Federation-level
//! ticks live in a separate queue and only *read* pool state. The
//! `one_pool_identity` integration tests pin this with
//! fingerprint-identical runs.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use hog_chaos::{Auditor, ChaosFailure, Fault};
use hog_core::cluster::Cluster;
use hog_core::driver::{collect_result, JobOutcome, RunResult};
use hog_core::event::Event;
use hog_net::{WanDone, WanTier, WanTransferId};
use hog_obs::{Layer, MetricId, MetricsRegistry};
use hog_sim_core::engine::{RunStats, StopReason};
use hog_sim_core::{EventQueue, Model, Scheduler, SimDuration, SimRng, SimTime, Violation};
use hog_workload::{jobmodel, SubmissionSchedule};

use crate::config::{FedConfig, SHARE_PEERS, TICK_INTERVAL, WAN_CAPACITY, WAN_LATENCY};
use crate::meta::{MetaScheduler, PoolSnapshot};

/// Salt decorrelating the shared-dataset tagging draw from every other
/// stream keyed off the federation seed.
const SHARE_SALT: u64 = 0x6665_645f_7368_7231; // b"fed_shr1"

/// Per-tick multiplicative decay of the pool-health failure score.
const HEALTH_DECAY: f64 = 0.5;
/// Health-score weight of one task-attempt failure observed in a tick.
const HEALTH_SCALE: f64 = 0.1;

/// Runaway guard across all pool queues combined (same budget a
/// standalone run gets).
const EVENT_BUDGET: u64 = 2_000_000_000;

/// Seconds of queueing delay one backlog unit (one pending task per
/// live slot) is worth — converts a dataset's WAN staging time into the
/// meta-scheduler's backlog-denominated locality weight. Calibrated to
/// a typical Facebook-bin task duration (tens of seconds).
const BACKLOG_UNIT_SECS: f64 = 30.0;

/// Federation-internal events (separate queue from the pools').
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FedEvent {
    /// The earliest in-flight WAN transfer may have completed.
    WanTick,
    /// Periodic health sampling, gauges, and (optionally) the
    /// no-lost-jobs audit.
    FedTick,
}

/// Why a dataset is crossing the WAN.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StageKind {
    /// Up-front shared-dataset replication (before the workload starts).
    Initial,
    /// On-demand staging for a job routed to a non-resident pool.
    Route,
}

/// Where a job is in the federation lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobPhase {
    /// Submission timeline not fired yet (or not routed yet).
    Scheduled,
    /// Routed to `pool`; dataset crossing the WAN / staging there.
    AwaitingStage { pool: usize },
    /// Running (or queued) in `pool`'s JobTracker.
    Submitted { pool: usize },
    /// Terminal in `pool`.
    Done { pool: usize },
}

/// One member pool: a full master stack plus its private event queue.
struct Pool {
    cluster: Cluster,
    queue: EventQueue<Event>,
    /// Events handled by this pool (per-pool `RunStats` synthesis).
    events: u64,
    /// Schedule indices submitted here whose result is still pending.
    inflight: Vec<usize>,
}

/// Per-pool gauge ids in the federation registry.
struct PoolGauges {
    backlog: MetricId,
    size: MetricId,
    routed: MetricId,
    staged_bytes: MetricId,
}

/// Everything measured in one federation run.
#[derive(Clone, Debug)]
pub struct FedResult {
    /// Federation label.
    pub name: String,
    /// Federation seed.
    pub seed: u64,
    /// Routing policy name ("locality" / "random" / "home").
    pub policy: &'static str,
    /// Per-pool results (same shape a standalone run produces).
    pub pools: Vec<RunResult>,
    /// Merged per-job outcomes in schedule order, each taken from the
    /// pool that ran the job.
    pub jobs: Vec<JobOutcome>,
    /// Pool each job was routed to (`None` if never routed).
    pub routed_to: Vec<Option<usize>>,
    /// Jobs routed to each pool.
    pub routed_counts: Vec<u64>,
    /// Cross-pool WAN bytes delivered into each pool.
    pub staged_bytes_in: Vec<u64>,
    /// On-demand (route-triggered) WAN stagings.
    pub route_stagings: u64,
    /// Up-front shared-dataset stagings.
    pub initial_stagings: u64,
    /// Total bytes delivered over the inter-pool WAN.
    pub wan_bytes: u64,
    /// WAN transfers started.
    pub wan_transfers: u64,
    /// Inter-pool partitions injected (PoolPartition faults frozen the
    /// WAN this many times).
    pub partitions: u64,
    /// Workload response: first submission → last job terminal (`None`
    /// when the horizon cut the run short).
    pub response_time: Option<SimDuration>,
    /// Clock when the run stopped.
    pub end_time: SimTime,
    /// Pool events handled (federation ticks excluded).
    pub events: u64,
    /// Federation-queue events handled.
    pub fed_events: u64,
    /// True when every job reached a terminal state.
    pub completed: bool,
    /// First federation-audit failure, if the audit tripped.
    pub chaos_failure: Option<ChaosFailure>,
    /// Per-pool federation gauges (`fed/pool{i}_*`).
    pub metrics: MetricsRegistry,
}

impl FedResult {
    /// Mean job response time in seconds over finished jobs.
    pub fn mean_job_response_secs(&self) -> f64 {
        let times: Vec<f64> = self
            .jobs
            .iter()
            .filter_map(|j| j.response().map(|d| d.as_secs_f64()))
            .collect();
        if times.is_empty() {
            0.0
        } else {
            times.iter().sum::<f64>() / times.len() as f64
        }
    }

    /// Jobs that succeeded.
    pub fn jobs_succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.succeeded).count()
    }

    /// Jain fairness index over per-pool executed map assignments —
    /// 1.0 when every pool did equal work, 1/n when one pool did it all.
    pub fn pool_fairness(&self) -> f64 {
        let xs: Vec<f64> = self
            .pools
            .iter()
            .map(|p| (p.jt.node_local + p.jt.site_local + p.jt.remote) as f64)
            .collect();
        jain(&xs)
    }
}

/// Jain's fairness index; 1.0 for the empty/all-zero vector (nothing to
/// be unfair about).
pub fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (xs.len() as f64 * sq)
    }
}

/// The federated executor. Build with [`Federation::new`], run with
/// [`Federation::run`].
pub struct Federation {
    cfg: FedConfig,
    schedule: SubmissionSchedule,
    pools: Vec<Pool>,
    fed_queue: EventQueue<FedEvent>,
    wan: WanTier,
    meta: MetaScheduler,

    /// Dataset home pool per schedule index.
    home: Vec<usize>,
    /// Peer pools holding (or due to hold) a shared copy, per index.
    peers: Vec<Vec<usize>>,
    /// Pools where each dataset is fully resident.
    residency: Vec<BTreeSet<usize>>,
    phase: Vec<JobPhase>,
    /// (job, destination pool) → why it is staging there.
    awaiting: BTreeMap<(usize, usize), StageKind>,
    /// In-flight WAN transfer → (job, destination pool).
    wan_pending: BTreeMap<WanTransferId, (usize, usize)>,

    staging_started: bool,
    initial_pending: usize,
    workload_base: Option<SimTime>,
    /// Jobs not yet terminal.
    remaining: usize,

    /// Decayed per-pool attempt-failure score (meta-scheduler input).
    health: Vec<f64>,
    last_failures: Vec<u64>,

    registry: MetricsRegistry,
    gauges: Vec<PoolGauges>,
    auditor: Auditor,
    chaos_failure: Option<ChaosFailure>,

    routed_to: Vec<Option<usize>>,
    routed_counts: Vec<u64>,
    staged_bytes_in: Vec<u64>,
    route_stagings: u64,
    initial_stagings: u64,
    partitions: u64,

    /// Earliest armed WanTick (dedup; stale later ticks are harmless).
    armed_wan: Option<SimTime>,
    events: u64,
    fed_events: u64,
}

impl Federation {
    /// Build the federation: stamp a [`hog_core::config::PoolRole`] on
    /// every pool config (home datasets are dealt round-robin by schedule
    /// index), draw the shared-dataset set from the federation seed, and
    /// bootstrap every pool at `t = 0`.
    pub fn new(mut cfg: FedConfig, schedule: &SubmissionSchedule) -> Self {
        let n = cfg.pools.len();
        let n_jobs = schedule.len();

        // Dataset placement: home pool round-robin, shared tag by seeded
        // draw (index order, so the set is independent of pool count
        // changes only in the trivial 1-pool case).
        let home: Vec<usize> = (0..n_jobs).map(|i| i % n).collect();
        let mut rng = SimRng::seed_from_u64(cfg.seed ^ SHARE_SALT);
        let peer_count = SHARE_PEERS.min(n.saturating_sub(1));
        let peers: Vec<Vec<usize>> = (0..n_jobs)
            .map(|i| {
                let shared = rng.chance(cfg.shared_fraction);
                if !shared || peer_count == 0 {
                    Vec::new()
                } else {
                    (1..=peer_count).map(|k| (home[i] + k) % n).collect()
                }
            })
            .collect();
        let residency: Vec<BTreeSet<usize>> = home.iter().map(|&h| BTreeSet::from([h])).collect();

        // Stamp pool roles and build the member stacks.
        let mut pools = Vec::with_capacity(n);
        for (p, pool_cfg) in cfg.pools.iter_mut().enumerate() {
            let home_jobs: Vec<usize> = (0..n_jobs).filter(|&i| home[i] == p).collect();
            pool_cfg.pool = Some(hog_core::config::PoolRole {
                pool_id: p,
                home_jobs,
            });
            let cluster = Cluster::new(pool_cfg.clone(), schedule);
            pools.push(Pool {
                cluster,
                queue: EventQueue::new(),
                events: 0,
                inflight: Vec::new(),
            });
        }
        for pool in &mut pools {
            let mut sched = Scheduler::over(SimTime::ZERO, &mut pool.queue);
            pool.cluster.bootstrap_sched(&mut sched);
        }

        let mut registry = MetricsRegistry::new();
        let gauges: Vec<PoolGauges> = (0..n)
            .map(|p| PoolGauges {
                backlog: registry.register_owned(Layer::Fed, format!("pool{p}_backlog")),
                size: registry.register_owned(Layer::Fed, format!("pool{p}_size")),
                routed: registry.register_owned(Layer::Fed, format!("pool{p}_routed")),
                staged_bytes: registry.register_owned(Layer::Fed, format!("pool{p}_staged_bytes")),
            })
            .collect();

        let mut fed_queue = EventQueue::new();
        fed_queue.push(SimTime::ZERO + TICK_INTERVAL, FedEvent::FedTick);

        let meta = MetaScheduler::new(cfg.routing, cfg.seed);
        let wan = WanTier::new(WAN_CAPACITY, WAN_LATENCY);
        Federation {
            schedule: schedule.clone(),
            pools,
            fed_queue,
            wan,
            meta,
            home,
            peers,
            residency,
            phase: vec![JobPhase::Scheduled; n_jobs],
            awaiting: BTreeMap::new(),
            wan_pending: BTreeMap::new(),
            staging_started: false,
            initial_pending: 0,
            workload_base: None,
            remaining: n_jobs,
            health: vec![0.0; n],
            last_failures: vec![0; n],
            registry,
            gauges,
            auditor: Auditor::new(),
            chaos_failure: None,
            routed_to: vec![None; n_jobs],
            routed_counts: vec![0; n],
            staged_bytes_in: vec![0; n],
            route_stagings: 0,
            initial_stagings: 0,
            partitions: 0,
            armed_wan: None,
            events: 0,
            fed_events: 0,
            cfg,
        }
    }

    /// Drive the co-simulation to completion (all jobs terminal), the
    /// horizon, the event budget, or an audit failure — whichever first.
    pub fn run(mut self, horizon: SimDuration) -> FedResult {
        let end = SimTime::ZERO + horizon;
        let mut now = SimTime::ZERO;
        let stop;
        loop {
            if self.remaining == 0 {
                stop = StopReason::ModelFinished;
                break;
            }
            if self.chaos_failure.is_some() {
                // The audit aborts the run like chaos supervision does in
                // a standalone cluster.
                stop = StopReason::ModelFinished;
                break;
            }
            if self.events >= EVENT_BUDGET {
                stop = StopReason::EventBudgetExhausted;
                break;
            }
            let Some((t, who)) = self.earliest() else {
                stop = StopReason::QueueEmpty;
                break;
            };
            if t > end {
                now = end;
                stop = StopReason::HorizonReached;
                break;
            }
            now = t;
            if who == self.pools.len() {
                let (_, fe) = self.fed_queue.pop().expect("peeked");
                self.fed_events += 1;
                self.handle_fed_event(now, fe);
            } else {
                let pool = &mut self.pools[who];
                let (_, ev) = pool.queue.pop().expect("peeked");
                pool.events += 1;
                self.events += 1;
                self.intercept_partition(now, who, &ev);
                let pool = &mut self.pools[who];
                let mut sched = Scheduler::over(now, &mut pool.queue);
                pool.cluster.handle(ev, &mut sched);
                self.drain_pool_notes(now, who);
            }
        }
        self.finish(now, stop)
    }

    /// Earliest pending event: `(time, pool index)`, with
    /// `pools.len()` standing for the federation queue. Ties break to the
    /// lower pool index, federation last.
    fn earliest(&self) -> Option<(SimTime, usize)> {
        let mut best: Option<(SimTime, usize)> = None;
        for (p, pool) in self.pools.iter().enumerate() {
            if let Some(t) = pool.queue.peek_time() {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, p));
                }
            }
        }
        if let Some(t) = self.fed_queue.peek_time() {
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, self.pools.len()));
            }
        }
        best
    }

    /// `PoolPartition` faults live in a pool's chaos plan but act on the
    /// *federation's* WAN tier, so the executor intercepts them on the
    /// way to the pool (the cluster's own handler treats them as no-ops).
    fn intercept_partition(&mut self, now: SimTime, who: usize, ev: &Event) {
        let (index, freeze) = match ev {
            Event::Chaos { index } => (*index, true),
            Event::ChaosEnd { index } => (*index, false),
            _ => return,
        };
        let plan = &self.pools[who].cluster.config().chaos.plan;
        let Some(tf) = plan.faults().get(index as usize) else {
            return;
        };
        if !matches!(tf.fault, Fault::PoolPartition { .. }) {
            return;
        }
        if freeze && !self.wan.frozen() {
            self.partitions += 1;
        }
        self.wan.set_frozen(now, freeze);
        self.arm_wan_tick(now);
    }

    fn handle_fed_event(&mut self, now: SimTime, fe: FedEvent) {
        match fe {
            FedEvent::WanTick => {
                if self.armed_wan == Some(now) {
                    self.armed_wan = None;
                }
                for done in self.wan.advance(now) {
                    self.on_wan_done(now, done);
                }
                self.arm_wan_tick(now);
            }
            FedEvent::FedTick => {
                self.sample(now);
                if self.cfg.audit {
                    let violations = self.audit_no_lost_jobs();
                    if let Some(fail) = self.auditor.observe(now, violations) {
                        self.chaos_failure = Some(fail);
                    }
                }
                if self.remaining > 0 {
                    self.fed_queue.push(now + TICK_INTERVAL, FedEvent::FedTick);
                }
            }
        }
    }

    /// Keep a `WanTick` pending at the earliest possible WAN completion.
    /// Completions only move *later* while the flow set is stable, so an
    /// early tick is at worst a no-op `advance`.
    fn arm_wan_tick(&mut self, now: SimTime) {
        if let Some(t) = self.wan.next_completion() {
            debug_assert!(t >= now);
            if self.armed_wan.is_none_or(|a| t < a) {
                self.fed_queue.push(t, FedEvent::WanTick);
                self.armed_wan = Some(t);
            }
        }
    }

    /// A dataset finished crossing the WAN: write it onto the destination
    /// pool's datanodes (replication `r_remote`). Completion flows back
    /// through [`Cluster::take_completed_stagings`].
    fn on_wan_done(&mut self, now: SimTime, done: WanDone) {
        let Some((job, to)) = self.wan_pending.remove(&done.id) else {
            return;
        };
        debug_assert_eq!(done.tag, job as u64);
        self.staged_bytes_in[to] += done.bytes;
        let r = self.cfg.r_remote;
        let pool = &mut self.pools[to];
        let mut sched = Scheduler::over(now, &mut pool.queue);
        // What the transfer was for (`awaiting`) resolves at stage
        // completion.
        pool.cluster.stage_dataset(job, r, &mut sched);
        self.drain_pool_notes(now, to);
    }

    /// Pick up everything pool `who` noted during its last handler:
    /// readiness, completed stagings, fired submissions, finished jobs.
    fn drain_pool_notes(&mut self, now: SimTime, who: usize) {
        if !self.staging_started && self.pools.iter().all(|p| p.cluster.pool_ready()) {
            self.begin_initial_staging(now);
        }
        loop {
            let staged = self.pools[who].cluster.take_completed_stagings();
            let routes = self.pools[who].cluster.take_pending_routes();
            if staged.is_empty() && routes.is_empty() {
                break;
            }
            for job in staged {
                self.on_stage_complete(now, who, job);
            }
            for job in routes {
                self.route_job(now, job);
            }
        }
        // Terminal-state scan, cheap: only this pool's in-flight jobs.
        let done: Vec<usize> = {
            let pool = &self.pools[who];
            pool.inflight
                .iter()
                .copied()
                .filter(|&i| pool.cluster.job_results[i].is_some())
                .collect()
        };
        if !done.is_empty() {
            self.pools[who].inflight.retain(|i| !done.contains(i));
            for i in done {
                self.phase[i] = JobPhase::Done { pool: who };
                self.remaining -= 1;
            }
        }
    }

    /// All pools formed and uploaded their home datasets: fire the
    /// up-front shared-dataset replication, or start the workload
    /// immediately if there is nothing to share.
    fn begin_initial_staging(&mut self, now: SimTime) {
        self.staging_started = true;
        for i in 0..self.schedule.len() {
            for &q in &self.peers[i].clone() {
                if self.residency[i].contains(&q) {
                    continue;
                }
                self.start_stage(now, i, q, StageKind::Initial);
                self.initial_pending += 1;
                self.initial_stagings += 1;
            }
        }
        if self.initial_pending == 0 {
            self.start_workload(now);
        } else {
            self.arm_wan_tick(now);
        }
    }

    /// Launch one dataset transfer over the WAN.
    fn start_stage(&mut self, now: SimTime, job: usize, to: usize, kind: StageKind) {
        let from = self.home[job];
        let bytes = jobmodel::input_bytes(self.schedule.jobs()[job].maps);
        let id = self.wan.start_transfer(now, from, to, bytes, job as u64);
        self.wan_pending.insert(id, (job, to));
        self.awaiting.insert((job, to), kind);
    }

    /// A staged dataset is fully written in pool `who`.
    fn on_stage_complete(&mut self, now: SimTime, who: usize, job: usize) {
        self.residency[job].insert(who);
        let kind = self.awaiting.remove(&(job, who));
        match kind {
            Some(StageKind::Initial) => {
                self.initial_pending -= 1;
                if self.initial_pending == 0 && !self.workload_started() {
                    self.start_workload(now);
                }
            }
            Some(StageKind::Route) => {
                debug_assert_eq!(self.phase[job], JobPhase::AwaitingStage { pool: who });
                self.submit_to(now, job, who);
            }
            // A home upload completing is not tracked here.
            None => {}
        }
    }

    fn workload_started(&self) -> bool {
        self.workload_base.is_some()
    }

    /// Anchor every pool's submission + fault timeline at the same
    /// instant and let them rip.
    fn start_workload(&mut self, base: SimTime) {
        self.workload_base = Some(base);
        for pool in &mut self.pools {
            let mut sched = Scheduler::over(base, &mut pool.queue);
            pool.cluster.begin_workload(base, &mut sched);
        }
    }

    /// A submission fired in its home pool: score every pool and route.
    fn route_job(&mut self, now: SimTime, job: usize) {
        let snaps: Vec<PoolSnapshot> = self
            .pools
            .iter()
            .enumerate()
            .map(|(p, pool)| {
                let jt = pool.cluster.jobtracker();
                let b = jt.backlog();
                let tasks =
                    (b.pending_maps + b.running_maps + b.pending_reduces + b.running_reduces)
                        as f64;
                let live = jt.reported_live().max(1) as f64;
                PoolSnapshot {
                    locality: if self.residency[job].contains(&p) {
                        1.0
                    } else {
                        0.0
                    },
                    backlog_per_slot: tasks / live,
                    health_penalty: self.health[p],
                }
            })
            .collect();
        let bytes = jobmodel::input_bytes(self.schedule.jobs()[job].maps);
        let stage_units = bytes as f64 / WAN_CAPACITY / BACKLOG_UNIT_SECS;
        let picked = self.meta.route(self.home[job], stage_units, &snaps);
        self.routed_to[job] = Some(picked);
        self.routed_counts[picked] += 1;
        if self.residency[job].contains(&picked) {
            self.submit_to(now, job, picked);
        } else if let Some(kind) = self.awaiting.get_mut(&(job, picked)) {
            // Already staging there (shared copy still in flight): the
            // job rides that transfer instead of starting another.
            *kind = StageKind::Route;
            self.phase[job] = JobPhase::AwaitingStage { pool: picked };
        } else {
            self.start_stage(now, job, picked, StageKind::Route);
            self.route_stagings += 1;
            self.phase[job] = JobPhase::AwaitingStage { pool: picked };
            self.arm_wan_tick(now);
        }
    }

    fn submit_to(&mut self, now: SimTime, job: usize, pool_ix: usize) {
        self.phase[job] = JobPhase::Submitted { pool: pool_ix };
        let pool = &mut self.pools[pool_ix];
        pool.inflight.push(job);
        let mut sched = Scheduler::over(now, &mut pool.queue);
        pool.cluster.external_submit(job, &mut sched);
    }

    /// Periodic sampling: decay pool health, fold in fresh attempt
    /// failures, publish per-pool gauges.
    fn sample(&mut self, now: SimTime) {
        for (p, pool) in self.pools.iter().enumerate() {
            let jt = pool.cluster.jobtracker();
            let failures = jt.counters().failures;
            let delta = failures.saturating_sub(self.last_failures[p]);
            self.last_failures[p] = failures;
            self.health[p] = self.health[p] * HEALTH_DECAY + delta as f64 * HEALTH_SCALE;
            let b = jt.backlog();
            let tasks = b.pending_maps + b.running_maps + b.pending_reduces + b.running_reduces;
            let g = &self.gauges[p];
            self.registry.set(g.backlog, tasks as f64);
            self.registry.set(g.size, jt.reported_live() as f64);
            self.registry.set(g.routed, self.routed_counts[p] as f64);
            self.registry
                .set(g.staged_bytes, self.staged_bytes_in[p] as f64);
        }
        self.registry.snapshot(now);
    }

    /// The federation-level invariant: **no job is ever lost**. Every
    /// schedule index is accounted for in exactly one lifecycle state,
    /// every `AwaitingStage` has a live staging (WAN transfer in flight —
    /// even across a `PoolPartition` freeze — or blocks being written in
    /// the destination pool), and every `Done` has a recorded result.
    fn audit_no_lost_jobs(&self) -> Vec<Violation> {
        let mut v = Vec::new();
        let mut terminal = 0usize;
        for (i, ph) in self.phase.iter().enumerate() {
            match *ph {
                JobPhase::Scheduled => {}
                JobPhase::AwaitingStage { pool } => {
                    if !self.awaiting.contains_key(&(i, pool)) {
                        v.push(Violation::new(
                            "fed",
                            format!(
                                "job {i} awaits staging to pool {pool} but no staging is tracked"
                            ),
                        ));
                    }
                }
                JobPhase::Submitted { pool } => {
                    if !self.pools[pool].inflight.contains(&i)
                        && self.pools[pool].cluster.job_results[i].is_none()
                    {
                        v.push(Violation::new(
                            "fed",
                            format!("job {i} submitted to pool {pool} but not in flight there"),
                        ));
                    }
                }
                JobPhase::Done { pool } => {
                    terminal += 1;
                    if self.pools[pool].cluster.job_results[i].is_none() {
                        v.push(Violation::new(
                            "fed",
                            format!("job {i} marked done in pool {pool} without a result"),
                        ));
                    }
                }
            }
        }
        if self.schedule.len() - terminal != self.remaining {
            v.push(Violation::new(
                "fed",
                format!(
                    "job accounting drift: {} non-terminal phases vs remaining={}",
                    self.schedule.len() - terminal,
                    self.remaining
                ),
            ));
        }
        // Every tracked transfer must still exist in the WAN tier
        // (partitions freeze transfers; they must never drop them).
        if self.wan.active_transfers() != self.wan_pending.len() {
            v.push(Violation::new(
                "fed",
                format!(
                    "WAN tier holds {} transfers but the federation tracks {}",
                    self.wan.active_transfers(),
                    self.wan_pending.len()
                ),
            ));
        }
        v
    }

    /// Assemble the [`FedResult`]: per-pool [`RunResult`]s via the same
    /// collector standalone runs use (with synthesized per-pool
    /// [`RunStats`]), then the merged job view.
    fn finish(self, now: SimTime, stop: StopReason) -> FedResult {
        let Federation {
            cfg,
            schedule,
            pools,
            meta,
            routed_to,
            routed_counts,
            staged_bytes_in,
            route_stagings,
            initial_stagings,
            partitions,
            wan,
            registry,
            chaos_failure,
            remaining,
            home,
            events,
            fed_events,
            workload_base,
            ..
        } = self;
        let pool_results: Vec<RunResult> = pools
            .into_iter()
            .map(|pool| {
                let stats = RunStats {
                    end_time: now,
                    events_handled: pool.events,
                    peak_queue: pool.queue.peak_len(),
                    stop,
                };
                collect_result(pool.cluster, &schedule, stats)
            })
            .collect();
        let jobs: Vec<JobOutcome> = (0..schedule.len())
            .map(|i| {
                let p = routed_to[i].unwrap_or(home[i]);
                pool_results[p].jobs[i]
            })
            .collect();
        let completed = remaining == 0 && chaos_failure.is_none();
        let response_time = if completed {
            let first = workload_base.map(|b| b + (schedule.jobs()[0].submit_at - SimTime::ZERO));
            let last = jobs.iter().filter_map(|j| j.finished).max();
            match (first, last) {
                (Some(f), Some(l)) => Some(l.saturating_since(f)),
                _ => None,
            }
        } else {
            None
        };
        FedResult {
            name: cfg.name.clone(),
            seed: cfg.seed,
            policy: meta.policy().name(),
            pools: pool_results,
            jobs,
            routed_to,
            routed_counts,
            staged_bytes_in,
            route_stagings,
            initial_stagings,
            wan_bytes: wan.delivered_bytes(),
            wan_transfers: wan.started_transfers(),
            partitions,
            response_time,
            end_time: now,
            events,
            fed_events,
            completed,
            chaos_failure,
            metrics: registry,
        }
    }
}

/// Run a federation built from `cfg` over `schedule` to the given
/// horizon. The federated sibling of [`hog_core::run_workload`].
pub fn run_federation(
    cfg: FedConfig,
    schedule: &SubmissionSchedule,
    horizon: SimDuration,
) -> FedResult {
    Federation::new(cfg, schedule).run(horizon)
}

/// Convenience: assert a federation run finished (tests, drills).
pub fn assert_fed_finished(r: &FedResult) {
    if let Some(f) = &r.chaos_failure {
        panic!("federation {} audit failure:\n{}", r.name, f.dump());
    }
    assert!(
        r.completed,
        "federation {} did not finish: {} jobs incomplete",
        r.name,
        r.jobs.iter().filter(|j| j.finished.is_none()).count()
    );
}
