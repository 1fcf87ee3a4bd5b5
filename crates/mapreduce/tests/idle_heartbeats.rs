//! Property tests for the heartbeat path.
//!
//! The cluster dispatches heartbeats one at a time, and the engine
//! re-arms a heartbeat timer in place, without dispatching it, when
//! [`JobTracker::heartbeat_idle`] says the heartbeat would change
//! nothing. These properties pin that skip, and the retry backoff that
//! gates what a heartbeat may be assigned:
//!
//! * `skipping_idle_heartbeats_matches_delivering_all` — over random
//!   interleavings of heartbeat rounds, map completions, tracker
//!   silences/deaths, late joins and time advances, a world that skips
//!   every heartbeat for which `heartbeat_idle` holds yields exactly the
//!   per-node assignments of a world that delivers every heartbeat, and
//!   leaves the tracker in an observably identical state (audit-clean,
//!   same backlog, same liveness census, same ledger); each case checks
//!   that some heartbeats were skipped.
//! * `retry_backoff_gates_the_runnable_cursor` — a map thrown back into
//!   `pending` by a blamed failure must not be served by the pending
//!   scan before its retry backoff expires, and must be served after.

use hog_hdfs::BlockId;
use hog_mapreduce::jobtracker::FailReason;
use hog_mapreduce::{Assignment, AttemptRef, JobSubmission, JobTracker, MrParams};
use hog_net::{NodeId, SiteId, Topology};
use hog_sim_core::{Liveness, SimDuration, SimRng, SimTime, HOG_DEAD_TIMEOUT};
use proptest::prelude::*;

/// One step of the random schedule. A `Round` heartbeats every live
/// tracker at the same instant.
#[derive(Clone, Debug)]
enum Op {
    Round,
    FinishMap(usize),
    Silence(usize),
    AddTracker,
    Advance,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Round),
        Just(Op::Round),
        (0usize..64).prop_map(Op::FinishMap),
        (0usize..64).prop_map(Op::Silence),
        Just(Op::AddTracker),
        Just(Op::Advance),
    ]
}

struct World {
    jt: JobTracker,
    topo: Topology,
    nodes: Vec<NodeId>,
    sites: Vec<SiteId>,
    running_maps: Vec<AttemptRef>,
    now: SimTime,
    /// Skip the heartbeats `heartbeat_idle` answers for, as the engine's
    /// in-place re-arm does, instead of delivering every one.
    skip_idle: bool,
    /// Heartbeats a skipping world did not deliver.
    skipped: usize,
}

impl World {
    fn new(seed: u64, speculation: bool, skip_idle: bool) -> Self {
        let mut topo = Topology::new();
        let mut sites = Vec::new();
        let mut nodes = Vec::new();
        for s in 0..3u16 {
            let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
            sites.push(site);
            for _ in 0..4 {
                nodes.push(topo.add_node(site));
            }
        }
        let cfg = MrParams::hog().with_speculation(speculation);
        let mut jt = JobTracker::new(cfg, HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(seed));
        for &n in &nodes {
            jt.register_tracker(SimTime::ZERO, n, topo.site_of(n), 1, 1);
        }
        let mut w = World {
            jt,
            topo,
            nodes,
            sites,
            running_maps: Vec::new(),
            now: SimTime::from_secs(1),
            skip_idle,
            skipped: 0,
        };
        let mut rng = SimRng::seed_from_u64(seed ^ 0xbeef);
        for j in 0..3u64 {
            let maps = 3 + (rng.next_u64() % 6) as u32;
            let locs: Vec<Vec<NodeId>> = (0..maps)
                .map(|_| {
                    (0..1 + rng.next_u64() % 2)
                        .map(|_| w.nodes[(rng.next_u64() as usize) % w.nodes.len()])
                        .collect()
                })
                .collect();
            let spec = JobSubmission {
                input_blocks: (0..maps)
                    .map(|i| (BlockId(j * 100 + i as u64), 64))
                    .collect(),
                split_locations: locs,
                reduces: (rng.next_u64() % 3) as u32,
                map_cpu_secs: 10.0,
                map_output_bytes: 600,
                reduce_cpu_secs: 5.0,
                reduce_output_bytes: 300,
                output_replication: 2,
            };
            w.jt.submit_job(w.now, spec);
        }
        w
    }

    fn prune_dead(&mut self) {
        let jt = &self.jt;
        self.running_maps.retain(|att| {
            jt.attempt_active(*att)
                && jt
                    .job(att.task.job)
                    .task(att.task)
                    .attempts
                    .get(att.attempt as usize)
                    .is_some_and(|a| jt.tracker_live(a.node))
        });
    }

    /// One same-instant heartbeat round over every tracker, returning the
    /// per-node assignments in dispatch order.
    fn round(&mut self) -> Vec<(NodeId, Vec<Assignment>)> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for i in 0..self.nodes.len() {
            let node = self.nodes[i];
            if self
                .jt
                .tracker(node)
                .is_some_and(|t| t.liveness == Liveness::Dead)
            {
                continue;
            }
            let assigns = if self.skip_idle && self.jt.heartbeat_idle(self.now, node) {
                self.skipped += 1;
                Vec::new()
            } else {
                self.jt.heartbeat(self.now, node, &self.topo)
            };
            for a in &assigns {
                if let Assignment::Map { attempt, .. } = a {
                    self.running_maps.push(*attempt);
                }
            }
            out.push((node, assigns));
        }
        out
    }

    fn apply(&mut self, op: &Op) -> Option<Vec<(NodeId, Vec<Assignment>)>> {
        match op {
            Op::Round => return Some(self.round()),
            Op::FinishMap(i) => {
                self.prune_dead();
                if !self.running_maps.is_empty() {
                    let att = self.running_maps.swap_remove(i % self.running_maps.len());
                    let node = self.jt.job(att.task.job).task(att.task).attempts
                        [att.attempt as usize]
                        .node;
                    if self.jt.reserve_map_scratch(att, node) {
                        let _ = self.jt.map_done(self.now, att, &self.topo);
                    }
                }
            }
            Op::Silence(i) => {
                let node = self.nodes[i % self.nodes.len()];
                self.jt.tracker_silent(self.now, node);
            }
            Op::AddTracker => {
                let site = self.sites[self.nodes.len() % self.sites.len()];
                let n = self.topo.add_node(site);
                self.nodes.push(n);
                self.jt.register_tracker(self.now, n, site, 1, 1);
            }
            Op::Advance => {
                self.now += SimDuration::from_secs(10);
                let _ = self.jt.check_dead(self.now);
                self.prune_dead();
            }
        }
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn skipping_idle_heartbeats_matches_delivering_all(
        seed in 0u64..1_000_000,
        speculation in (0u8..2).prop_map(|b| b == 1),
        ops in proptest::collection::vec(op_strategy(), 1..50),
    ) {
        let mut delivering = World::new(seed, speculation, false);
        let mut skipping = World::new(seed, speculation, true);
        // Two opening rounds: after the first has filled slots (and run
        // the first speculation scans), the second has idle heartbeats
        // to skip, so no case is vacuous.
        let ops = [Op::Round, Op::Round].iter().chain(&ops);
        for (step, op) in ops.enumerate() {
            let a = delivering.apply(op);
            let b = skipping.apply(op);
            prop_assert_eq!(
                &a, &b,
                "round {} diverged when idle heartbeats were skipped",
                step
            );
        }
        prop_assert!(skipping.skipped > 0, "no heartbeat was idle");
        // Observable state must agree too, not just the assignment log.
        prop_assert_eq!(delivering.jt.backlog(), skipping.jt.backlog());
        prop_assert_eq!(delivering.jt.reported_live(), skipping.jt.reported_live());
        prop_assert_eq!(delivering.jt.job_queue(), skipping.jt.job_queue());
        prop_assert_eq!(delivering.jt.export_ledger(), skipping.jt.export_ledger());
        for w in [&delivering, &skipping] {
            let violations = hog_sim_core::Auditable::audit(&w.jt);
            prop_assert!(violations.is_empty(), "audit failed: {:?}", violations);
        }
    }

    /// A map thrown back to `pending` by a blamed failure is invisible
    /// to heartbeats until its retry backoff expires — the pending scan
    /// must not serve it early — and is assignable again the moment the
    /// backoff is over. (Node-death requeues carry no blame, hence no
    /// backoff; that path is exercised by the round test above.)
    #[test]
    fn retry_backoff_gates_the_runnable_cursor(
        seed in 0u64..1_000_000,
        probe_pct in 10u64..90,
    ) {
        let mut topo = Topology::new();
        let site = topo.add_site("S0".to_string(), "s0.edu".to_string());
        let worker = topo.add_node(site);
        let spare = topo.add_node(site);
        let cfg = MrParams::hog().with_speculation(false);
        let backoff = cfg.retry_backoff;
        let mut jt = JobTracker::new(cfg, HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(seed));
        jt.register_tracker(SimTime::ZERO, worker, site, 1, 1);
        jt.register_tracker(SimTime::ZERO, spare, site, 1, 1);
        // One single-map job whose only split replica is on `worker`.
        let spec = JobSubmission {
            input_blocks: vec![(BlockId(1), 64)],
            split_locations: vec![vec![worker]],
            reduces: 0,
            map_cpu_secs: 10.0,
            map_output_bytes: 600,
            reduce_cpu_secs: 5.0,
            reduce_output_bytes: 300,
            output_replication: 2,
        };
        jt.submit_job(SimTime::from_secs(1), spec);
        let t0 = SimTime::from_secs(2);
        let launched = jt.heartbeat(t0, worker, &topo);
        prop_assert_eq!(launched.len(), 1, "the map must launch on its replica node");
        let Assignment::Map { attempt, .. } = launched[0].clone() else {
            return Err(TestCaseError::fail("expected a map assignment"));
        };
        // Fail the attempt with blame: the task re-pends behind a retry
        // backoff stamped at the failure instant.
        let failed_at = SimTime::from_secs(3);
        let _ = jt.attempt_failed(failed_at, attempt, FailReason::ZombieNode);
        // Before the backoff expires the spare's heartbeats get nothing.
        let probe = failed_at
            + SimDuration::from_secs_f64(backoff.as_secs_f64() * probe_pct as f64 / 100.0);
        prop_assert!(probe < failed_at + backoff);
        let early = jt.heartbeat(probe, spare, &topo);
        prop_assert!(
            early.is_empty(),
            "task assigned {:?} before retry backoff expired",
            early
        );
        // At expiry the task is runnable again and goes to the spare.
        let late = jt.heartbeat(failed_at + backoff, spare, &topo);
        prop_assert_eq!(late.len(), 1, "task must be reassigned once backoff expires");
        match &late[0] {
            Assignment::Map { attempt, .. } => {
                prop_assert_eq!(attempt.task.index, 0);
            }
            other => prop_assert!(false, "expected a map assignment, got {:?}", other),
        }
        let violations = hog_sim_core::Auditable::audit(&jt);
        prop_assert!(violations.is_empty(), "audit failed: {:?}", violations);
    }
}
