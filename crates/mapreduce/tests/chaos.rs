//! Chaos property test: drive the JobTracker with random interleavings of
//! heartbeats, completions, failures and tracker deaths, and assert the
//! global invariants that the mediator relies on:
//!
//! * slot accounting never goes negative or exceeds capacity;
//! * every job eventually reaches a terminal state once chaos stops;
//! * `maps_done`/`reduces_done` never exceed task counts;
//! * no attempt is running on a dead tracker;
//! * a dead tracker can re-register (the partition-heal path) and the
//!   revived node picks up work again without corrupting accounting;
//! * the runtime invariant auditor ([`hog_sim_core::Auditable`]) stays
//!   clean across every interleaving.

use hog_hdfs::BlockId;
use hog_mapreduce::job::JobStatus;
use hog_mapreduce::jobtracker::FailReason;
use hog_mapreduce::{
    Assignment, AttemptRef, JobSubmission, JobTracker, MrParams, ReduceStep, TaskKind,
};
use hog_net::{NodeId, Topology};
use hog_sim_core::{SimDuration, SimRng, SimTime, HOG_DEAD_TIMEOUT};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Chaos {
    /// Succeed a random running map.
    FinishMap(usize),
    /// Fail a random running attempt.
    FailAttempt(usize),
    /// Progress a random running reduce (fetches or sort completion).
    DriveReduce(usize),
    /// Silence a random tracker, then declare deaths later.
    KillTracker(usize),
    /// Re-register a dead tracker (the cluster does this when a network
    /// partition heals and the node reports back in).
    ReviveTracker(usize),
    /// Heartbeat everyone (assign work).
    HeartbeatAll,
}

fn chaos_strategy() -> impl Strategy<Value = Chaos> {
    prop_oneof![
        (0usize..32).prop_map(Chaos::FinishMap),
        (0usize..32).prop_map(Chaos::FailAttempt),
        (0usize..32).prop_map(Chaos::DriveReduce),
        (0usize..32).prop_map(Chaos::KillTracker),
        (0usize..32).prop_map(Chaos::ReviveTracker),
        Just(Chaos::HeartbeatAll),
    ]
}

struct World {
    jt: JobTracker,
    topo: Topology,
    nodes: Vec<NodeId>,
    dead: Vec<NodeId>,
    running: Vec<AttemptRef>,
    now: SimTime,
}

impl World {
    fn new(seed: u64) -> Self {
        let mut topo = Topology::new();
        let mut nodes = Vec::new();
        for s in 0..3 {
            let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
            for _ in 0..4 {
                nodes.push(topo.add_node(site));
            }
        }
        let mut cfg = MrParams::hog();
        cfg.retry_backoff = SimDuration::from_secs(1);
        cfg.max_attempts = 200; // chaos shouldn't kill jobs; hangs are the bug
        cfg.blacklist_threshold = 200;
        let mut jt = JobTracker::new(cfg, HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(seed));
        for &n in &nodes {
            jt.register_tracker(SimTime::ZERO, n, topo.site_of(n), 1, 1);
        }
        World {
            jt,
            topo,
            nodes,
            dead: Vec::new(),
            running: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    fn submit(&mut self, maps: u32, reduces: u32) {
        let locs: Vec<Vec<NodeId>> = (0..maps)
            .map(|i| vec![self.nodes[i as usize % self.nodes.len()]])
            .collect();
        let spec = JobSubmission {
            input_blocks: (0..maps).map(|i| (BlockId(i as u64), 64)).collect(),
            split_locations: locs,
            reduces,
            map_cpu_secs: 1.0,
            map_output_bytes: 10,
            reduce_cpu_secs: 1.0,
            reduce_output_bytes: 10,
            output_replication: 1,
        };
        self.jt.submit_job(self.now, spec);
    }

    fn tick(&mut self) {
        self.now += SimDuration::from_secs(3);
    }

    fn heartbeat_all(&mut self) {
        for &n in &self.nodes.clone() {
            if self.dead.contains(&n) {
                continue;
            }
            for a in self.jt.heartbeat(self.now, n, &self.topo) {
                self.running.push(a.attempt());
                if let Assignment::Map { attempt, .. } = a {
                    // Scratch is effectively unbounded here.
                    let node = self.attempt_node(attempt);
                    let _ = self.jt.reserve_map_scratch(attempt, node);
                }
            }
        }
        self.running.retain(|&a| self.jt.attempt_active(a));
    }

    fn attempt_node(&self, a: AttemptRef) -> NodeId {
        self.jt.job(a.task.job).task(a.task).attempts[a.attempt as usize].node
    }

    fn check_invariants(&self) {
        for &n in &self.nodes {
            let t = self.jt.tracker(n).expect("registered");
            assert!(t.running_of(TaskKind::Map) <= t.map_slots as usize);
            assert!(t.running_of(TaskKind::Reduce) <= t.reduce_slots as usize);
        }
        for jid in 0..self.jt.job_count() {
            let j = self.jt.job(hog_mapreduce::JobId(jid as u32));
            assert!(j.maps_done <= j.spec.maps());
            assert!(j.reduces_done <= j.spec.reduces);
        }
        // The same auditor the chaos subsystem runs on every master tick:
        // slot bounds, scratch bounds, dead-tracker emptiness, and
        // attempt/bookkeeping agreement.
        let violations = hog_sim_core::Auditable::audit(&self.jt);
        assert!(violations.is_empty(), "auditor: {violations:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn jobtracker_survives_chaos(
        seed in 0u64..1000,
        ops in proptest::collection::vec(chaos_strategy(), 10..120),
    ) {
        let mut w = World::new(seed);
        w.submit(6, 2);
        w.submit(4, 1);
        w.tick();
        w.heartbeat_all();
        for op in ops {
            w.tick();
            match op {
                Chaos::HeartbeatAll => w.heartbeat_all(),
                Chaos::FinishMap(i) => {
                    let maps: Vec<AttemptRef> = w
                        .running
                        .iter()
                        .copied()
                        .filter(|a| a.task.kind == TaskKind::Map && w.jt.attempt_active(*a))
                        .collect();
                    if !maps.is_empty() {
                        let a = maps[i % maps.len()];
                        let out = w.jt.map_done(w.now, a, &w.topo);
                        for r in out.wake_reduces {
                            drive(&mut w.jt, r, w.now);
                        }
                    }
                }
                Chaos::FailAttempt(i) => {
                    let act: Vec<AttemptRef> = w
                        .running
                        .iter()
                        .copied()
                        .filter(|a| w.jt.attempt_active(*a))
                        .collect();
                    if !act.is_empty() {
                        let a = act[i % act.len()];
                        w.jt.attempt_failed(w.now, a, FailReason::DiskFull);
                    }
                }
                Chaos::DriveReduce(i) => {
                    let reds: Vec<AttemptRef> = w
                        .running
                        .iter()
                        .copied()
                        .filter(|a| a.task.kind == TaskKind::Reduce && w.jt.attempt_active(*a))
                        .collect();
                    if !reds.is_empty() {
                        let a = reds[i % reds.len()];
                        drive(&mut w.jt, a, w.now);
                    }
                }
                Chaos::KillTracker(i) => {
                    let live: Vec<NodeId> = w
                        .nodes
                        .iter()
                        .copied()
                        .filter(|n| !w.dead.contains(n))
                        .collect();
                    if live.len() > 4 {
                        let victim = live[i % live.len()];
                        w.jt.tracker_silent(w.now, victim);
                        w.dead.push(victim);
                    }
                }
                Chaos::ReviveTracker(i) => {
                    if !w.dead.is_empty() {
                        let back = w.dead.remove(i % w.dead.len());
                        // A fresh registration wipes the dead record and
                        // restores the node's slots, exactly like a
                        // healed partition member reporting back in.
                        w.jt.register_tracker(w.now, back, w.topo.site_of(back), 1, 1);
                        assert!(w.jt.tracker_live(back), "revived tracker must be live");
                        assert!(
                            w.jt.tracker(back).unwrap().running.is_empty(),
                            "revived tracker must come back empty"
                        );
                    }
                }
            }
            w.now += SimDuration::from_secs(40); // past dead timeout
            w.jt.check_dead(w.now);
            w.check_invariants();
        }
        // Chaos over: drain the system — with surviving trackers and no
        // further injected failures, every job must finish.
        for _ in 0..600 {
            if w.jt.incomplete_jobs() == 0 {
                break;
            }
            w.tick();
            w.now += SimDuration::from_secs(5);
            w.heartbeat_all();
            let maps: Vec<AttemptRef> = w
                .running
                .iter()
                .copied()
                .filter(|a| a.task.kind == TaskKind::Map && w.jt.attempt_active(*a))
                .collect();
            for a in maps {
                let out = w.jt.map_done(w.now, a, &w.topo);
                for r in out.wake_reduces {
                    drive(&mut w.jt, r, w.now);
                }
            }
            let reds: Vec<AttemptRef> = w
                .running
                .iter()
                .copied()
                .filter(|a| a.task.kind == TaskKind::Reduce && w.jt.attempt_active(*a))
                .collect();
            for a in reds {
                drive(&mut w.jt, a, w.now);
            }
            w.check_invariants();
        }
        prop_assert_eq!(w.jt.incomplete_jobs(), 0, "jobs hung after chaos");
        for jid in 0..w.jt.job_count() {
            let j = w.jt.job(hog_mapreduce::JobId(jid as u32));
            prop_assert_eq!(j.status, JobStatus::Succeeded);
        }
    }
}

/// Pump a reduce attempt: complete any fetches instantly; finish the sort.
fn drive(jt: &mut JobTracker, att: AttemptRef, now: SimTime) {
    loop {
        match jt.reduce_next(att) {
            ReduceStep::Fetch(orders) => {
                for (id, _) in orders {
                    jt.fetch_done(att, id);
                }
            }
            ReduceStep::StartSort => {
                jt.reduce_done(now, att);
                return;
            }
            ReduceStep::Wait => return,
        }
    }
}
