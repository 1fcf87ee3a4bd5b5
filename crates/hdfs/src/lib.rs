//! Hadoop Distributed File System (0.20-era) model.
//!
//! This crate models the pieces of HDFS whose behaviour the HOG paper
//! depends on:
//!
//! * a **Namenode** ([`namenode::Namenode`]) holding the namespace, the
//!   block→replica map, datanode liveness (heartbeat timeout — HOG
//!   lowers it from ~10 minutes to 30 s — through the failure detector
//!   the JobTracker also uses, [`hog_sim_core::LivenessIndex`]), and the
//!   replication monitor that re-replicates under-replicated blocks
//!   after node loss;
//! * **datanode** accounting ([`datanode::DatanodeInfo`]): disk capacity,
//!   hosted blocks, liveness and replication streams — what heartbeats and
//!   block reports tell the namenode. The *zombie* failure mode from
//!   §IV-D.1 (daemon alive and heartbeating, but its working directory
//!   was deleted by the site's preemption — every read/write fails) is
//!   invisible here by definition: the `hog-core` mediator owns it, fails
//!   the transfers a zombie sources, and runs the paper's fix (periodic
//!   working-directory self-check → clean shutdown);
//! * **block placement** ([`PlacementKind`], one field of
//!   [`HdfsConfig`]): HOG's site-aware placement, stock rack-aware
//!   placement, a rack-oblivious ablation baseline and MOON's
//!   anchor-first placement;
//! * the **balancer** ([`balancer`]) the paper uses when growing the pool.
//!
//! Timing (how long a replication transfer takes, when heartbeats arrive)
//! lives in the mediator (`hog-core`), which drives this crate's state
//! machines and moves bytes through `hog-net`. That split keeps every
//! decision here synchronous and unit-testable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod availability;
pub mod balancer;
pub mod config;
pub mod datanode;
pub mod namenode;
pub mod placement;
pub mod types;

pub use availability::{AvailabilityPolicy, AvailabilitySnapshot, SiteBand, SiteRisk};
pub use config::{HdfsConfig, REPLICATION_MONITOR_INTERVAL};
pub use datanode::DatanodeInfo;
pub use namenode::{Namenode, NamenodeTickOutput, ReplOrder};
pub use placement::{stable_first, PlacementKind};
pub use types::{BlockId, BlockMeta, FileId, FileMeta};
