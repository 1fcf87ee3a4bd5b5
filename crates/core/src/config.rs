//! Cluster configuration and the paper's two reference systems.

use hog_chaos::FaultPlan;
use hog_grid::{ChurnModel, ElasticConfig, GridParams, SiteConfig};
use hog_hdfs::HdfsConfig;
use hog_mapreduce::{MrParams, SchedPolicy};
use hog_net::NetParams;
use hog_obs::{ObsOptions, TraceMode};
use hog_sim_core::units::GIB;
use hog_sim_core::SimDuration;
use hog_workload::{LoadgenParams, StragglerMix};

/// Which block placement policy the namenode uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementKind {
    /// HOG's site-aware policy (§III-B.1).
    SiteAware,
    /// Stock Hadoop rack-aware placement (dedicated cluster).
    RackAware,
    /// Topology-oblivious random placement (ablation X7).
    RackOblivious,
    /// MOON-style: first replica pinned to the named (dedicated) site.
    AnchorFirst {
        /// Name of the anchor site in the resource config.
        site_name: String,
    },
}

/// Where worker nodes come from.
#[derive(Clone, Debug)]
pub enum ResourceConfig {
    /// Opportunistic glideins from the grid (HOG).
    Grid {
        /// Global grid parameters.
        params: GridParams,
        /// Participating sites.
        sites: Vec<SiteConfig>,
        /// Pool size to form before the workload starts (the paper's
        /// x-axis in Figure 4).
        target_nodes: usize,
        /// `(map, reduce)` slots per glidein — `(1, 1)` in the paper,
        /// since each glidein gets one core.
        slots: (u8, u8),
    },
    /// A fixed set of dedicated nodes in one site (Table III).
    Fixed {
        /// Site name for the topology.
        site_name: String,
        /// DNS domain.
        domain: String,
        /// `(map_slots, reduce_slots)` per node, one entry per node.
        nodes: Vec<(u8, u8)>,
    },
}

impl ResourceConfig {
    /// Number of workers this resource layer aims to provide.
    pub fn target_nodes(&self) -> usize {
        match self {
            ResourceConfig::Grid { target_nodes, .. } => *target_nodes,
            ResourceConfig::Fixed { nodes, .. } => nodes.len(),
        }
    }
}

/// The abandoned-datanode failure mode (§IV-D.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZombieConfig {
    /// Whether preemptions can leave zombie daemons behind (HOG's *first
    /// iteration*, before the process-tree fix).
    pub enabled: bool,
    /// Probability that a preemption double-forks into a zombie.
    pub probability: f64,
}

impl ZombieConfig {
    /// The fixed HOG: preemptions kill the whole process tree.
    pub fn off() -> Self {
        ZombieConfig {
            enabled: false,
            probability: 0.0,
        }
    }

    /// First-iteration HOG: `p` of preemptions leave zombies.
    pub fn on(p: f64) -> Self {
        ZombieConfig {
            enabled: true,
            probability: p,
        }
    }
}

/// Chaos engineering knobs (hog-chaos): scripted fault injection, runtime
/// invariant auditing and the livelock watchdog. Everything defaults to
/// *off* so ordinary runs are byte-identical with or without the
/// subsystem compiled in.
#[derive(Clone, Debug, Default)]
pub struct ChaosOptions {
    /// Scripted fault timeline, offsets relative to workload start.
    pub plan: FaultPlan,
    /// Run the cross-layer invariant audit on every master tick; any
    /// violation aborts the run with a structured report.
    pub audit: bool,
    /// Abort the run if no progress is observed for this long (livelock
    /// watchdog window).
    pub watchdog: Option<SimDuration>,
}

impl ChaosOptions {
    /// Whether any part of the subsystem is active.
    pub fn active(&self) -> bool {
        !self.plan.is_empty() || self.audit || self.watchdog.is_some()
    }
}

/// Master failover: periodic checkpointing of the Namenode+JobTracker
/// stack plus standby promotion after a crash. `None` (the default)
/// reproduces the paper's single-master deployment — a `MasterCrash`
/// fault is then recorded and ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailoverConfig {
    /// How often the active master serializes a checkpoint (fsimage +
    /// job ledger). Mutations since the last checkpoint form the *edit
    /// window* and are lost on a crash. An interval of zero selects
    /// *mirror mode*: the standby tracks every mutation synchronously,
    /// so a crash loses nothing and causes no downtime.
    pub checkpoint_interval: SimDuration,
    /// How long after the crash the standby notices the active master
    /// is gone and promotes itself. During this window heartbeats go
    /// unanswered and client submissions buffer with retry/backoff.
    pub detection_timeout: SimDuration,
}

impl FailoverConfig {
    /// Checkpoint every `interval` with a 30 s detection timeout
    /// (matching the paper's 30 s dead-node detection).
    pub fn every(interval: SimDuration) -> Self {
        FailoverConfig {
            checkpoint_interval: interval,
            detection_timeout: SimDuration::from_secs(30),
        }
    }

    /// Mirror mode: synchronous standby, zero-loss, zero-downtime.
    pub fn mirror() -> Self {
        FailoverConfig::every(SimDuration::ZERO)
    }

    /// Whether the standby mirrors every mutation synchronously.
    pub fn is_mirror(&self) -> bool {
        self.checkpoint_interval == SimDuration::ZERO
    }
}

/// Federation pool membership (hog-fed). A cluster carrying a `PoolRole`
/// runs in *pool mode*: it uploads only the datasets homed in it, fires
/// the submission timeline for its home jobs, and hands every fired
/// submission to the federation's meta-scheduler for routing instead of
/// submitting locally. A 1-pool federation whose single pool homes every
/// job replays byte-identically to the same config without a role.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolRole {
    /// Index of this pool within the federation.
    pub pool_id: usize,
    /// Schedule indices whose datasets live (and whose submission
    /// timeline fires) in this pool. Sorted ascending.
    pub home_jobs: Vec<usize>,
}

impl PoolRole {
    /// Whether schedule index `i` is homed in this pool.
    pub fn is_home(&self, i: usize) -> bool {
        self.home_jobs.binary_search(&i).is_ok()
    }
}

/// Everything needed to build a cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Label for reports.
    pub name: String,
    /// Master RNG seed; every stochastic stream forks from it.
    pub seed: u64,
    /// Network capacities/latencies.
    pub net: NetParams,
    /// HDFS settings.
    pub hdfs: HdfsConfig,
    /// MapReduce settings.
    pub mr: MrParams,
    /// Job cost model.
    pub loadgen: LoadgenParams,
    /// Worker provisioning.
    pub resource: ResourceConfig,
    /// Fraction of `resource.target_nodes` the forming pool may still be
    /// missing when the upload phase starts. `0.0` (the default) demands
    /// the full pool — the paper's behaviour, and byte-identical to
    /// pre-knob builds. Past the paper's scale churn keeps a standing
    /// deficit of roughly `death_rate × acquisition_delay` glideins, so
    /// strict equality is unreachable and a small grace is required.
    pub formation_grace: f64,
    /// Zombie-datanode mode.
    pub zombie: ZombieConfig,
    /// Placement policy.
    pub placement: PlacementKind,
    /// Input blocks staged concurrently during upload.
    pub upload_parallel: usize,
    /// Delay between a task failing on a zombie node and the failure
    /// report reaching the JobTracker (models the doomed attempt's brief
    /// lifetime).
    pub zombie_fail_delay: SimDuration,
    /// Retry backoff for shuffle fetches aimed at unusable sources.
    pub fetch_retry_delay: SimDuration,
    /// Fault injection / auditing / watchdog (hog-chaos); inert by
    /// default.
    pub chaos: ChaosOptions,
    /// Structured tracing and the metrics registry (hog-obs); inert by
    /// default — untraced runs build no events.
    pub obs: ObsOptions,
    /// Elastic pool controller (hog-grid): when set, a feedback loop on
    /// the master tick resizes the glidein pool between the configured
    /// bounds instead of holding it at `resource.target_nodes`. `None`
    /// (the default) leaves every run byte-identical to a static pool.
    pub elastic: Option<ElasticConfig>,
    /// Master failover (checkpointed Namenode/JobTracker recovery).
    /// `None` (the default) keeps the single-master behaviour
    /// byte-identical to pre-failover builds.
    pub failover: Option<FailoverConfig>,
    /// Federation pool membership (hog-fed). `None` (the default) is the
    /// ordinary standalone cluster.
    pub pool: Option<PoolRole>,
    /// Heavy-tailed straggler mix layered onto task CPU times
    /// (hog-workload). Draws come from a dedicated RNG stream, so `None`
    /// (the default) keeps every run byte-identical to pre-straggler
    /// builds.
    pub straggler: Option<StragglerMix>,
}

impl ClusterConfig {
    /// The HOG system at a given pool size: five public-IP OSG sites,
    /// replication 10, 30 s dead-node detection, site-aware placement,
    /// zombie fix on, 1 map + 1 reduce slot per glidein.
    pub fn hog(target_nodes: usize, seed: u64) -> Self {
        let hdfs = HdfsConfig::hog().with_capacity(120 * GIB);
        let loadgen = LoadgenParams {
            output_replication: hdfs.replication,
            ..LoadgenParams::calibrated()
        };
        // Within the paper's five-site capacity the pool forms completely
        // (its exact behaviour); past it, preemption churn makes a full
        // simultaneous pool unreachable, so formation tolerates a 1%
        // deficit — far above the expected standing deficit at 10k nodes.
        let paper_capacity: usize = hog_grid::config::paper_sites()
            .iter()
            .map(|s| s.max_slots)
            .sum();
        let formation_grace = if target_nodes > paper_capacity {
            0.01
        } else {
            0.0
        };
        ClusterConfig {
            name: format!("hog-{target_nodes}"),
            seed,
            net: NetParams::grid_default(),
            hdfs,
            mr: MrParams::hog(),
            loadgen,
            resource: ResourceConfig::Grid {
                params: GridParams::default(),
                // Exactly the paper's five sites through 1101 nodes;
                // synthetic OSG sites appear only past the paper's scale.
                sites: hog_grid::config::scaled_sites(target_nodes),
                target_nodes,
                slots: (1, 1),
            },
            formation_grace,
            zombie: ZombieConfig::off(),
            placement: PlacementKind::SiteAware,
            upload_parallel: 8,
            zombie_fail_delay: SimDuration::from_secs(2),
            fetch_retry_delay: SimDuration::from_secs(15),
            chaos: ChaosOptions::default(),
            obs: ObsOptions::default(),
            elastic: None,
            failover: None,
            pool: None,
            straggler: None,
        }
    }

    /// The dedicated cluster of Table III: 20 nodes with 2 dual-core
    /// Opteron-275s (4 map slots, 1 reduce slot) plus 10 nodes with 2
    /// single-core Opterons (2 map slots, 1 reduce slot), 1 Gbps
    /// Ethernet, stock Hadoop 0.20 (replication 3, rack awareness).
    pub fn dedicated(seed: u64) -> Self {
        let hdfs = HdfsConfig::stock();
        let loadgen = LoadgenParams {
            output_replication: hdfs.replication,
            ..LoadgenParams::calibrated()
        };
        let mut nodes = vec![(4u8, 1u8); 20];
        nodes.extend(vec![(2u8, 1u8); 10]);
        ClusterConfig {
            name: "dedicated-100-cores".to_string(),
            seed,
            net: NetParams::lan_default(),
            hdfs,
            mr: MrParams::stock(),
            loadgen,
            resource: ResourceConfig::Fixed {
                site_name: "LOCAL".to_string(),
                domain: "local.unl.edu".to_string(),
                nodes,
            },
            formation_grace: 0.0,
            zombie: ZombieConfig::off(),
            placement: PlacementKind::RackAware,
            upload_parallel: 8,
            zombie_fail_delay: SimDuration::from_secs(2),
            fetch_retry_delay: SimDuration::from_secs(15),
            chaos: ChaosOptions::default(),
            obs: ObsOptions::default(),
            elastic: None,
            failover: None,
            pool: None,
            straggler: None,
        }
    }

    /// Override every site's mean node lifetime (churn-pressure knob used
    /// by the Figure 5 "unstable" run and several ablations).
    pub fn with_mean_lifetime(mut self, mean: SimDuration) -> Self {
        if let ResourceConfig::Grid { sites, .. } = &mut self.resource {
            for s in sites.iter_mut() {
                *s = s.clone().with_mean_lifetime(mean);
            }
        }
        self
    }

    /// Replace every site's preemption generator with the given churn
    /// model (hog-grid). The default [`ChurnModel::Exponential`] is the
    /// legacy memoryless process; [`ChurnModel::Calibrated`] is the
    /// heavy-tailed diurnal model.
    pub fn with_churn_model(mut self, churn: ChurnModel) -> Self {
        if let ResourceConfig::Grid { sites, .. } = &mut self.resource {
            for s in sites.iter_mut() {
                *s = s.clone().with_churn(churn);
            }
        }
        self
    }

    /// Switch every site to its OSG-calibrated churn profile: per-site
    /// heavy-tailed preemption inter-arrivals with a diurnal rate curve
    /// ([`hog_grid::config::SiteConfig::calibrated`]).
    pub fn with_calibrated_churn(mut self) -> Self {
        if let ResourceConfig::Grid { sites, .. } = &mut self.resource {
            for s in sites.iter_mut() {
                *s = s.clone().calibrated();
            }
        }
        self
    }

    /// Like [`Self::with_calibrated_churn`], but start the simulated day
    /// at `start_hour` (0–24) instead of midnight, so a short workload
    /// window can be replayed inside the campuses' diurnal preemption
    /// wave ([`hog_grid::config::SiteConfig::calibrated_at`]).
    pub fn with_calibrated_churn_at(mut self, start_hour: f64) -> Self {
        if let ResourceConfig::Grid { sites, .. } = &mut self.resource {
            for s in sites.iter_mut() {
                *s = s.clone().calibrated_at(start_hour);
            }
        }
        self
    }

    /// Layer the heavy-tailed straggler mix onto every task's CPU time
    /// (hog-workload).
    pub fn with_stragglers(mut self, mix: StragglerMix) -> Self {
        self.straggler = Some(mix);
        self
    }

    /// Override the replication factor (input and output alike).
    pub fn with_replication(mut self, r: u16) -> Self {
        self.hdfs.replication = r;
        self.loadgen.output_replication = r;
        self
    }

    /// Override both dead-node timeouts (namenode + jobtracker), ablation
    /// X1.
    pub fn with_dead_timeout(mut self, t: SimDuration) -> Self {
        self.hdfs.dead_node_timeout = t;
        self.mr.tracker_dead_timeout = t;
        self
    }

    /// Override the placement policy (ablation X7).
    pub fn with_placement(mut self, p: PlacementKind) -> Self {
        self.placement = p;
        self
    }

    /// Enable zombie datanodes with probability `p`, and optionally the
    /// disk-check fix (X3).
    pub fn with_zombies(mut self, p: f64, disk_check: bool) -> Self {
        self.zombie = ZombieConfig::on(p);
        self.hdfs.disk_check_interval = disk_check.then(|| SimDuration::from_secs(180));
        self
    }

    /// Multi-copy task execution (X6): run every task as `k` eager copies.
    pub fn with_task_copies(mut self, k: u8, eager: bool) -> Self {
        self.mr = self.mr.with_task_copies(k, eager);
        self
    }

    /// Select the slot-assignment policy (hog-sched): FIFO (stock
    /// Hadoop, the default), fair sharing with delay scheduling, or
    /// failure-aware placement.
    pub fn with_scheduler(mut self, policy: SchedPolicy) -> Self {
        self.mr = self.mr.with_scheduler(policy);
        self
    }

    /// Arm the Trua-style per-block availability policy (X17): each
    /// block's replication target tracks the failure risk of the sites
    /// holding it, its read heat, and the sites' churn profiles, instead
    /// of the flat factor. Also turns on fair replication dispatch (see
    /// [`hog_hdfs::HdfsConfig::with_availability`]).
    pub fn with_availability_policy(mut self, p: hog_hdfs::AvailabilityPolicy) -> Self {
        self.hdfs = self.hdfs.with_availability(p);
        self
    }

    /// Inject a scripted fault timeline (hog-chaos).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.chaos.plan = plan;
        self
    }

    /// Toggle the runtime invariant audit (hog-chaos).
    pub fn with_audit(mut self, on: bool) -> Self {
        self.chaos.audit = on;
        self
    }

    /// Arm the livelock watchdog with a no-progress window (hog-chaos).
    pub fn with_watchdog(mut self, window: SimDuration) -> Self {
        self.chaos.watchdog = Some(window);
        self
    }

    /// Set the trace mode (hog-obs): `Ring(cap)` keeps the last `cap`
    /// events (flight recorder), `Full` retains everything for export.
    pub fn with_tracing(mut self, mode: TraceMode) -> Self {
        self.obs.trace = mode;
        self
    }

    /// Arm the flight recorder: a bounded ring of the last `cap` trace
    /// events, appended to chaos failure dumps.
    pub fn with_flight_recorder(mut self, cap: usize) -> Self {
        self.obs.trace = TraceMode::Ring(cap);
        self
    }

    /// Enable the per-layer metrics registry, snapshotted every master
    /// tick (hog-obs).
    pub fn with_metrics(mut self) -> Self {
        self.obs.metrics = true;
        self
    }

    /// Close the glidein feedback loop: resize the pool between `min`
    /// and `max` nodes based on the observed task backlog (default
    /// controller tuning). The initial pool target stays whatever the
    /// resource config says; the controller takes over once the
    /// workload is running.
    pub fn with_elastic(mut self, min: usize, max: usize) -> Self {
        self.elastic = Some(ElasticConfig::new(min, max));
        self
    }

    /// Like [`ClusterConfig::with_elastic`], but with full control over
    /// the controller tuning (benchmarks and ablations).
    pub fn with_elastic_config(mut self, cfg: ElasticConfig) -> Self {
        self.elastic = Some(cfg);
        self
    }

    /// Arm master failover: checkpoint the Namenode+JobTracker stack
    /// every `interval` and promote a standby `detection` after a
    /// `MasterCrash`. `interval == ZERO` selects mirror mode (a
    /// synchronous standby that loses nothing and promotes instantly).
    pub fn with_failover(mut self, interval: SimDuration, detection: SimDuration) -> Self {
        self.failover = Some(FailoverConfig {
            checkpoint_interval: interval,
            detection_timeout: detection,
        });
        self
    }

    /// Rename (report labelling).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hog_preset_matches_paper() {
        let c = ClusterConfig::hog(100, 1);
        assert_eq!(c.hdfs.replication, 10);
        assert_eq!(c.loadgen.output_replication, 10);
        assert_eq!(c.hdfs.dead_node_timeout, SimDuration::from_secs(30));
        assert_eq!(c.placement, PlacementKind::SiteAware);
        match &c.resource {
            ResourceConfig::Grid {
                sites,
                target_nodes,
                slots,
                ..
            } => {
                assert_eq!(sites.len(), 5);
                assert_eq!(*target_nodes, 100);
                assert_eq!(*slots, (1, 1));
            }
            _ => panic!("HOG runs on the grid"),
        }
    }

    #[test]
    fn dedicated_preset_matches_table3() {
        let c = ClusterConfig::dedicated(1);
        assert_eq!(c.hdfs.replication, 3);
        assert_eq!(c.placement, PlacementKind::RackAware);
        match &c.resource {
            ResourceConfig::Fixed { nodes, .. } => {
                assert_eq!(nodes.len(), 30);
                let map_slots: u32 = nodes.iter().map(|&(m, _)| m as u32).sum();
                let reduce_slots: u32 = nodes.iter().map(|&(_, r)| r as u32).sum();
                assert_eq!(map_slots, 100, "1 map slot per core, 100 cores");
                assert_eq!(reduce_slots, 30, "1 reduce slot per node");
            }
            _ => panic!("dedicated cluster is fixed"),
        }
        assert_eq!(c.resource.target_nodes(), 30);
    }

    #[test]
    fn builders_cascade() {
        let c = ClusterConfig::hog(50, 2)
            .with_replication(5)
            .with_dead_timeout(SimDuration::from_secs(600))
            .with_placement(PlacementKind::RackOblivious)
            .with_zombies(0.5, true)
            .named("x");
        assert_eq!(c.hdfs.replication, 5);
        assert_eq!(c.loadgen.output_replication, 5);
        assert_eq!(c.mr.tracker_dead_timeout, SimDuration::from_secs(600));
        assert_eq!(c.placement, PlacementKind::RackOblivious);
        assert!(c.zombie.enabled);
        assert!(c.hdfs.disk_check_interval.is_some());
        assert_eq!(c.name, "x");
    }

    #[test]
    fn availability_policy_defaults_off_and_builder_arms_it() {
        let plain = ClusterConfig::hog(100, 1);
        assert!(plain.hdfs.availability.is_none());
        assert!(!plain.hdfs.repl_fairness);
        let armed = plain.with_availability_policy(hog_hdfs::AvailabilityPolicy::trua_default());
        assert!(armed.hdfs.availability.is_some());
        assert!(armed.hdfs.repl_fairness, "policy arms fair dispatch too");
    }

    #[test]
    fn churn_and_straggler_default_off_and_builders_arm_them() {
        let plain = ClusterConfig::hog(100, 1);
        assert!(plain.straggler.is_none(), "stragglers must default off");
        match &plain.resource {
            ResourceConfig::Grid { sites, .. } => {
                assert!(sites.iter().all(|s| s.churn == ChurnModel::Exponential));
            }
            _ => panic!("HOG runs on the grid"),
        }
        let armed = plain
            .with_calibrated_churn()
            .with_stragglers(StragglerMix::osg_default());
        assert!(armed.straggler.is_some());
        match &armed.resource {
            ResourceConfig::Grid { sites, .. } => {
                assert!(sites
                    .iter()
                    .all(|s| matches!(s.churn, ChurnModel::Calibrated(_))));
            }
            _ => unreachable!(),
        }
        // with_churn_model flips everything back.
        let back = armed.with_churn_model(ChurnModel::Exponential);
        match &back.resource {
            ResourceConfig::Grid { sites, .. } => {
                assert!(sites.iter().all(|s| s.churn == ChurnModel::Exponential));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn chaos_defaults_off_and_builders_arm_it() {
        let plain = ClusterConfig::hog(10, 1);
        assert!(!plain.chaos.active(), "chaos must be inert by default");
        assert!(!ClusterConfig::dedicated(1).chaos.active());
        let armed = plain
            .with_fault_plan(FaultPlan::new().at(
                SimDuration::from_secs(60),
                hog_chaos::Fault::ZombieOutbreak { count: 2 },
            ))
            .with_audit(true)
            .with_watchdog(SimDuration::from_secs(1800));
        assert!(armed.chaos.active());
        assert_eq!(armed.chaos.plan.len(), 1);
        assert!(armed.chaos.audit);
        assert_eq!(armed.chaos.watchdog, Some(SimDuration::from_secs(1800)));
    }

    #[test]
    fn obs_defaults_off_and_builders_arm_it() {
        let plain = ClusterConfig::hog(10, 1);
        assert!(
            !plain.obs.active(),
            "observability must be inert by default"
        );
        assert!(!ClusterConfig::dedicated(1).obs.active());
        let traced = plain.clone().with_tracing(TraceMode::Full).with_metrics();
        assert!(traced.obs.active());
        assert_eq!(traced.obs.trace, TraceMode::Full);
        assert!(traced.obs.metrics);
        let ringed = plain.with_flight_recorder(64);
        assert_eq!(ringed.obs.trace, TraceMode::Ring(64));
        assert!(!ringed.obs.metrics);
    }
}
