//! Livelock detection.
//!
//! A chaotic run can wedge without any invariant breaking: every retry
//! loop keeps scheduling events, the clock advances, and nothing ever
//! completes. The [`Watchdog`] catches this by snapshotting a
//! [`ProgressSig`] — a cheap digest of every counter that moves when the
//! system does real work — on each master tick. If the signature is
//! bit-identical for longer than the configured window while the run is
//! unfinished, the watchdog trips with a structured report.

use crate::ChaosFailure;
use hog_sim_core::{SimDuration, SimTime};

/// Digest of cluster progress. Two equal signatures mean *nothing*
/// observable happened in between: no provisioning, upload, task, job or
/// replication progress.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgressSig {
    /// Cluster lifecycle phase (forming / uploading / running / done).
    pub phase: u8,
    /// Workers currently usable by the mediator.
    pub pool_size: usize,
    /// Glideins ever started (grid layer).
    pub node_starts: u64,
    /// Input blocks still to upload.
    pub upload_remaining: usize,
    /// Workload jobs finished (succeeded or failed).
    pub jobs_finished: usize,
    /// Map tasks completed across all jobs.
    pub maps_done: u64,
    /// Reduce tasks completed across all jobs.
    pub reduces_done: u64,
    /// Task attempt failures (a failing-but-retrying system is live).
    pub task_failures: u64,
    /// Completed replication transfers (namenode). Failed replications
    /// are deliberately excluded: a wedged cluster can re-dispatch a
    /// doomed replication every tick forever, and counting those retries
    /// as "progress" would mask exactly the livelock we hunt.
    pub repl_completed: u64,
    /// Network flows ever finished.
    pub flows_finished: u64,
}

impl ProgressSig {
    fn render(&self) -> String {
        format!(
            "phase={} pool={} node_starts={} upload_remaining={} jobs_finished={} \
             maps_done={} reduces_done={} task_failures={} repl_completed={} \
             flows_finished={}",
            self.phase,
            self.pool_size,
            self.node_starts,
            self.upload_remaining,
            self.jobs_finished,
            self.maps_done,
            self.reduces_done,
            self.task_failures,
            self.repl_completed,
            self.flows_finished,
        )
    }
}

/// Livelock watchdog (see module docs).
#[derive(Clone, Debug)]
pub struct Watchdog {
    window: SimDuration,
    last: Option<ProgressSig>,
    last_change: SimTime,
}

impl Watchdog {
    /// A watchdog that trips after `window` of zero progress.
    pub fn new(window: SimDuration) -> Self {
        Watchdog {
            window,
            last: None,
            last_change: SimTime::ZERO,
        }
    }

    /// The configured no-progress window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Feed one master-tick observation. Returns the aborting failure if
    /// the signature has been frozen for at least the window.
    pub fn observe(&mut self, now: SimTime, sig: ProgressSig) -> Option<ChaosFailure> {
        if self.last.as_ref() != Some(&sig) {
            self.last = Some(sig);
            self.last_change = now;
            return None;
        }
        let stalled_for = now.saturating_since(self.last_change);
        if stalled_for < self.window {
            return None;
        }
        let dump = format!(
            "livelock: no progress for {}s (window {}s) at t={}s\n  frozen signature: {}\n",
            stalled_for.as_millis() / 1000,
            self.window.as_millis() / 1000,
            now.as_millis() / 1000,
            self.last
                .as_ref()
                .expect("signature was just compared")
                .render(),
        );
        Some(ChaosFailure::Livelock {
            at: now,
            stalled_for,
            dump,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(jobs: usize) -> ProgressSig {
        ProgressSig {
            jobs_finished: jobs,
            ..ProgressSig::default()
        }
    }

    #[test]
    fn trips_only_after_a_full_frozen_window() {
        let mut w = Watchdog::new(SimDuration::from_secs(100));
        let t = |s: u64| SimTime::from_millis(s * 1000);
        assert!(w.observe(t(0), sig(0)).is_none());
        assert!(w.observe(t(60), sig(0)).is_none(), "within window");
        let fail = w.observe(t(100), sig(0)).expect("window elapsed");
        match fail {
            ChaosFailure::Livelock { stalled_for, .. } => {
                assert_eq!(stalled_for, SimDuration::from_secs(100))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn any_progress_resets_the_clock() {
        let mut w = Watchdog::new(SimDuration::from_secs(100));
        let t = |s: u64| SimTime::from_millis(s * 1000);
        assert!(w.observe(t(0), sig(0)).is_none());
        assert!(w.observe(t(90), sig(1)).is_none(), "progress at t=90");
        assert!(w.observe(t(150), sig(1)).is_none(), "only 60s frozen");
        assert!(w.observe(t(190), sig(1)).is_some(), "100s frozen again");
    }

    #[test]
    fn report_names_the_frozen_signature() {
        let mut w = Watchdog::new(SimDuration::from_secs(10));
        let t = |s: u64| SimTime::from_millis(s * 1000);
        w.observe(t(0), sig(3));
        let fail = w.observe(t(10), sig(3)).unwrap();
        assert!(fail.dump().contains("jobs_finished=3"));
        assert!(fail.dump().contains("window 10s"));
    }
}
