//! Federation configuration: pool layout, dataset sharing, WAN tier.

use crate::meta::RoutingPolicy;
use hog_core::ClusterConfig;
use hog_sim_core::units::mbit_per_s;
use hog_sim_core::SimDuration;

/// Inter-pool WAN backbone capacity, bytes/s, shared by all transfers:
/// 250 Mbps, an order of magnitude under the 6 Gbps site uplinks, so
/// cross-pool staging is a real cost.
pub const WAN_CAPACITY: f64 = mbit_per_s(250.0);

/// Inter-pool one-way latency (continental).
pub const WAN_LATENCY: SimDuration = SimDuration::from_millis(100);

/// How often the federation samples pool health and per-pool gauges.
pub const TICK_INTERVAL: SimDuration = SimDuration::from_secs(60);

/// How many peer pools receive a copy of each shared dataset: the next
/// pool after its home, round-robin.
pub const SHARE_PEERS: usize = 1;

/// Everything needed to build a [`crate::Federation`].
#[derive(Clone, Debug)]
pub struct FedConfig {
    /// Label for reports.
    pub name: String,
    /// Federation-level seed: dataset sharing draws and the `Random`
    /// routing stream fork from it. Pool-internal randomness comes from
    /// each pool config's own seed.
    pub seed: u64,
    /// One cluster config per pool. Each gets a
    /// [`hog_core::config::PoolRole`] stamped on it by
    /// [`crate::Federation::new`]; any role already present is replaced.
    pub pools: Vec<ClusterConfig>,
    /// How jobs are routed to pools.
    pub routing: RoutingPolicy,
    /// Fraction of datasets tagged *shared*: replicated into peer pools
    /// up front so locality-aware routing has somewhere to spread load.
    pub shared_fraction: f64,
    /// Replication factor for cross-pool copies (`r_remote`): lower than
    /// the home pool's factor — the remote copy is a locality/spill-over
    /// asset, not the durability anchor.
    pub r_remote: u16,
    /// Run the federation-level no-lost-jobs audit every tick.
    pub audit: bool,
}

impl FedConfig {
    /// A federation over the given pool configs with locality-aware
    /// routing and no dataset sharing. The pools share one WAN
    /// ([`WAN_CAPACITY`], [`WAN_LATENCY`]).
    pub fn new(pools: Vec<ClusterConfig>, seed: u64) -> Self {
        assert!(!pools.is_empty(), "a federation needs at least one pool");
        FedConfig {
            name: format!("fed-{}p", pools.len()),
            seed,
            pools,
            routing: RoutingPolicy::LocalityAware,
            shared_fraction: 0.0,
            r_remote: 3,
            audit: false,
        }
    }

    /// Select the routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Tag `fraction` of datasets shared, each copied to
    /// [`SHARE_PEERS`] peer pools at replication `r_remote`.
    pub fn with_sharing(mut self, fraction: f64, r_remote: u16) -> Self {
        self.shared_fraction = fraction;
        self.r_remote = r_remote;
        self
    }

    /// Enable the federation-level no-lost-jobs invariant audit.
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Rename (report labelling).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}
