//! # hog-fed — federated multi-pool HOG
//!
//! HOG (the paper) runs **one** Hadoop instance over the whole grid. This
//! crate asks the natural scale-out question: what if each grid region
//! ran its *own* HOG pool — a full Namenode + JobTracker master stack
//! with its own glidein sites — and a thin federation layer routed jobs
//! between pools and replicated hot datasets across them?
//!
//! Three pieces:
//!
//! - [`Federation`] — the executor: N [`hog_core::Cluster`] pools, each
//!   with its own event queue, co-simulated under one clock
//!   (deterministic merge of queues; see the module docs in
//!   [`federation`]).
//! - [`MetaScheduler`] — routes each fired job submission to a pool by
//!   data locality, queue depth, and a decayed pool-health score, with
//!   spill-over when the preferred pool's backlog is too deep.
//! - Cross-pool block placement — shared datasets get replicas in peer
//!   pools up front, and routed jobs stage their dataset on demand, both
//!   over the inter-pool WAN tier ([`hog_net::WanTier`], slower than any
//!   intra-pool link).
//!
//! Entry points: [`FedConfig`] + [`run_federation`], mirroring
//! `hog_core::run_workload`. The `federation` bench bin sweeps pool
//! count × routing policy × shared-dataset fraction over this API.

pub mod config;
pub mod federation;
pub mod meta;

pub use config::FedConfig;
pub use federation::{assert_fed_finished, jain, run_federation, FedResult, Federation};
pub use meta::{MetaScheduler, PoolSnapshot, RoutingPolicy};
