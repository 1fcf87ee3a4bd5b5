//! The Facebook production workload used in the HOG evaluation.
//!
//! Zaharia et al. (delay scheduling, EuroSys 2010) sampled job
//! inter-arrival times and input sizes from a week of the Facebook
//! production cluster (October 2009) and quantised job sizes into nine
//! bins. The HOG paper reuses that schedule: exponential inter-arrivals
//! with mean 14 s, and — because its test clusters are small — only the
//! first six bins (jobs of ≤ 300 map tasks), 88 jobs, a ≈21-minute
//! submission schedule. The paper adds reduce-task counts per bin
//! (Table II), non-decreasing in job size.
//!
//! * [`facebook`] — the bin definitions of Tables I & II.
//! * [`schedule`] — deterministic submission-schedule generation,
//!   including the day-long diurnal trace
//!   ([`SubmissionSchedule::facebook_day`]).
//! * [`jobmodel`] — the loadgen cost model (map output ratio, CPU cost)
//!   applied to every generated job.
//! * [`straggler`] — the heavy-tailed task-slowdown mix the cluster can
//!   layer on top of any schedule.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod facebook;
pub mod jobmodel;
pub mod schedule;
pub mod straggler;

pub use facebook::{Bin, FACEBOOK_BINS, TRUNCATED_BIN_COUNT};
pub use schedule::{JobSpec, SubmissionSchedule};
pub use straggler::StragglerMix;
