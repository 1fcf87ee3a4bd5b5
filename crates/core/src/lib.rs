//! HOG: Hadoop On the Grid — the paper's system, rebuilt as a
//! deterministic discrete-event simulation.
//!
//! This crate is the *mediator* layer: it owns simulated time and wires
//! the substrate state machines together —
//!
//! * [`hog_grid`] supplies (and preempts) worker nodes;
//! * [`hog_hdfs`] places, replicates and serves blocks;
//! * [`hog_mapreduce`] schedules jobs onto tasktrackers;
//! * [`hog_net`] moves every byte (map input, shuffle, replication,
//!   pipeline writes) through a max-min fair fluid network;
//! * [`hog_workload`] generates the Facebook schedule.
//!
//! Entry points:
//!
//! * [`config::ClusterConfig`] — presets: [`config::ClusterConfig::hog`]
//!   (the paper's system: five OSG sites, replication 10, 30 s failure
//!   detection, site awareness) and
//!   [`config::ClusterConfig::dedicated`] (Table III's 30-node /
//!   100-core local cluster baseline).
//! * [`driver::run_workload`] — build a cluster, form the pool, stage the
//!   input data, replay a submission schedule, and report the workload
//!   response time plus node-availability series (Figures 4 & 5, Table
//!   IV).
//! * [`experiments`] — one module per paper artifact and ablation.
//! * [`baselines`] — HOD- and MOON-style comparators (§V related work).
//! * [`sweep`] — embarrassingly-parallel multi-run harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod cluster;
pub mod config;
pub mod driver;
pub mod event;
pub mod experiments;
pub mod master;
pub mod report;
pub mod sweep;

pub use cluster::Cluster;
pub use config::{
    ChaosOptions, ClusterConfig, FailoverConfig, ResourceConfig, ZombieConfig, DETECTION_TIMEOUT,
};
pub use driver::{run_workload, JobOutcome, RunResult};
pub use hog_chaos as chaos;
pub use hog_hdfs::PlacementKind;
pub use hog_mapreduce::SchedPolicy;
pub use hog_obs as obs;
pub use master::{FailoverStats, MasterCheckpoint, MasterStatus, SingleMasterStack};
