//! HDFS configuration.

use crate::availability::AvailabilityPolicy;
use crate::placement::PlacementKind;
use hog_sim_core::units::GIB;
use hog_sim_core::{SimDuration, HOG_DEAD_TIMEOUT, STOCK_DEAD_TIMEOUT};

/// Period of the namenode's replication monitor scan, which is also the
/// cluster's master tick.
pub const REPLICATION_MONITOR_INTERVAL: SimDuration = SimDuration::from_secs(3);

/// Tunables of the HDFS model. Two presets matter: [`HdfsConfig::hog`]
/// (replication 10, 30 s dead-node timeout, site-aware placement —
/// §III-B) and [`HdfsConfig::stock`] (replication 3, ~10 min recheck,
/// rack-aware placement, as on the dedicated cluster). Files split into
/// [`hog_sim_core::units::BLOCK_SIZE`] blocks.
#[derive(Clone, Debug)]
pub struct HdfsConfig {
    /// Default replication factor for new files.
    pub replication: u16,
    /// Where a block's replicas go (ablation X7 varies it; the MOON
    /// baseline anchors it).
    pub placement: PlacementKind,
    /// Silence after which a worker is declared dead — by the namenode,
    /// and by the JobTracker, which the cluster hands the same value.
    /// The paper: "If the worker nodes do not report every 30 seconds,
    /// then the node is marked dead for both the namenode and
    /// jobtracker", versus the traditional 10+ minute recheck interval.
    pub dead_node_timeout: SimDuration,
    /// Max concurrent replication transfers a single datanode may source
    /// or sink (`dfs.max-repl-streams` analogue).
    pub max_repl_streams_per_node: u8,
    /// Max replication orders issued per monitor tick (work limiter).
    pub max_repl_orders_per_tick: usize,
    /// Disk capacity HDFS may use on each worker node.
    pub datanode_capacity: u64,
    /// Period of the zombie-fix working-directory self-check (§IV-D.1:
    /// "we add the disk availability check in service code and do the
    /// check every 3 minutes"). `None` reproduces the *first iteration* of
    /// HOG, where zombie datanodes linger.
    pub disk_check_interval: Option<SimDuration>,
    /// Trua-style per-block replication targets. `None` (the default)
    /// keeps the flat factor and is bit-identical to the pre-policy
    /// namenode. Armed, it also makes the replication monitor's
    /// dispatch fair: the order rotates across ticks so a standing
    /// stream of critical (1-replica) blocks cannot starve higher
    /// buckets when the per-tick order budget runs out (adaptive
    /// targets widen the bucket spread, which makes that starvation
    /// much more likely).
    pub availability: Option<AvailabilityPolicy>,
}

impl HdfsConfig {
    /// HOG settings: replication 10, site-aware placement, 30 s failure
    /// detection, 3-minute zombie self-check.
    pub fn hog() -> Self {
        HdfsConfig {
            replication: 10,
            placement: PlacementKind::SiteAware,
            dead_node_timeout: HOG_DEAD_TIMEOUT,
            max_repl_streams_per_node: 2,
            max_repl_orders_per_tick: 64,
            datanode_capacity: 40 * GIB,
            disk_check_interval: Some(SimDuration::from_secs(180)),
            availability: None,
        }
    }

    /// Stock Hadoop 0.20 settings as used on the dedicated cluster:
    /// replication 3, rack-aware placement, ~10 minute dead-node
    /// detection.
    pub fn stock() -> Self {
        HdfsConfig {
            replication: 3,
            placement: PlacementKind::RackAware,
            dead_node_timeout: STOCK_DEAD_TIMEOUT,
            max_repl_streams_per_node: 2,
            max_repl_orders_per_tick: 64,
            datanode_capacity: 400 * GIB,
            disk_check_interval: None,
            availability: None,
        }
    }

    /// Override the replication factor (ablation X2 sweeps this 3..12).
    pub fn with_replication(mut self, r: u16) -> Self {
        self.replication = r;
        self
    }

    /// Override the dead-node timeout of both masters (ablation X1).
    pub fn with_dead_timeout(mut self, t: SimDuration) -> Self {
        self.dead_node_timeout = t;
        self
    }

    /// Override per-datanode capacity (disk-overflow experiment X4).
    pub fn with_capacity(mut self, c: u64) -> Self {
        self.datanode_capacity = c;
        self
    }

    /// Arm the Trua-style per-block availability policy (and with it
    /// fair replication dispatch).
    pub fn with_availability(mut self, p: AvailabilityPolicy) -> Self {
        self.availability = Some(p);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let hog = HdfsConfig::hog();
        assert_eq!(hog.replication, 10);
        assert_eq!(hog.placement, PlacementKind::SiteAware);
        assert_eq!(hog.dead_node_timeout, HOG_DEAD_TIMEOUT);
        assert!(hog.disk_check_interval.is_some());
        let stock = HdfsConfig::stock();
        assert_eq!(stock.replication, 3);
        assert_eq!(stock.placement, PlacementKind::RackAware);
        assert_eq!(stock.dead_node_timeout, STOCK_DEAD_TIMEOUT);
        assert!(stock.disk_check_interval.is_none());
    }

    #[test]
    fn builders_override() {
        let c = HdfsConfig::hog()
            .with_replication(5)
            .with_dead_timeout(SimDuration::from_secs(60))
            .with_capacity(GIB);
        assert_eq!(c.replication, 5);
        assert_eq!(c.dead_node_timeout, SimDuration::from_secs(60));
        assert_eq!(c.datanode_capacity, GIB);
    }

    #[test]
    fn availability_defaults_off_and_builder_arms_it() {
        assert!(HdfsConfig::hog().availability.is_none());
        assert!(HdfsConfig::stock().availability.is_none());
        let c = HdfsConfig::hog().with_availability(AvailabilityPolicy::trua_default());
        assert_eq!(c.availability, Some(AvailabilityPolicy::trua_default()));
    }
}
