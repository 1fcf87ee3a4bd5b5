//! Oracle property test for FIFO scheduling: the JobTracker under
//! [`hog_sched::Scheduler::Fifo`] must make exactly the decisions of
//! stock Hadoop's inline JobTracker logic.
//!
//! The oracle below is an independent reimplementation of those
//! assignment rules — submission-order job walk, node → site → remote
//! locality ladder over the static split hints, blacklist / slowstart /
//! retry-backoff eligibility — evaluated against the *live* JobTracker
//! state immediately before each heartbeat. The property drives random
//! interleavings of heartbeats, map completions, tracker deaths and
//! late-joining trackers, and asserts every map/reduce assignment (job,
//! task index and achieved locality) matches the oracle's prediction.
//!
//! Speculation is disabled here so the oracle stays a pure function of
//! queue state; the speculation path is covered bit-for-bit by the scale
//! benchmark's outcome fingerprints and by `tests/chaos.rs`.

use hog_hdfs::BlockId;
use hog_mapreduce::job::JobStatus;
use hog_mapreduce::jobtracker::Locality;
use hog_mapreduce::{Assignment, AttemptRef, JobId, JobSubmission, JobTracker, MrParams, TaskKind};
use hog_net::{NodeId, SiteId, Topology};
use hog_sim_core::{Liveness, SimDuration, SimRng, SimTime, HOG_DEAD_TIMEOUT};
use proptest::prelude::*;

/// One step of the random schedule.
#[derive(Clone, Debug)]
enum Op {
    /// Heartbeat one tracker (oracle-checked assignment).
    Heartbeat(usize),
    /// Complete a random running map attempt.
    FinishMap(usize),
    /// Silence one tracker; it dies once the 30 s timeout elapses.
    Silence(usize),
    /// A late glidein joins the pool.
    AddTracker,
    /// Advance time 10 s and sweep for dead trackers.
    Advance,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64).prop_map(Op::Heartbeat),
        (0usize..64).prop_map(Op::Heartbeat),
        (0usize..64).prop_map(Op::FinishMap),
        (0usize..64).prop_map(Op::Silence),
        Just(Op::AddTracker),
        Just(Op::Advance),
    ]
}

/// What the pre-refactor FIFO logic would assign to a free map slot.
fn oracle_map(
    jt: &JobTracker,
    topo: &Topology,
    node: NodeId,
    now: SimTime,
) -> Option<(JobId, u32, Locality)> {
    let site = topo.site_of(node);
    let threshold = jt.config().blacklist_threshold;
    for &jid in jt.job_queue() {
        let job = jt.job(jid);
        if job.status != JobStatus::Running
            || job.blacklisted(node, threshold)
            || job.pending_maps.is_empty()
        {
            continue;
        }
        let elig =
            |m: u32| job.pending_maps.contains(&m) && job.retry_eligible(TaskKind::Map, m, now);
        let replica_at = |m: u32, pred: &dyn Fn(NodeId) -> bool| {
            job.spec.split_locations[m as usize]
                .iter()
                .any(|&n| pred(n))
        };
        let mut pick = None;
        for m in 0..job.spec.maps() {
            if elig(m) && replica_at(m, &|n| n == node) {
                pick = Some((m, Locality::NodeLocal));
                break;
            }
        }
        if pick.is_none() {
            for m in 0..job.spec.maps() {
                if elig(m) && replica_at(m, &|n| topo.site_of(n) == site) {
                    pick = Some((m, Locality::SiteLocal));
                    break;
                }
            }
        }
        if pick.is_none() {
            pick = job
                .pending_maps
                .iter()
                .find(|&&m| job.retry_eligible(TaskKind::Map, m, now))
                .map(|&m| (m, Locality::Remote));
        }
        if let Some((m, locality)) = pick {
            return Some((jid, m, locality));
        }
    }
    None
}

/// What the pre-refactor FIFO logic would assign to a free reduce slot.
fn oracle_reduce(jt: &JobTracker, node: NodeId, now: SimTime) -> Option<(JobId, u32)> {
    let cfg = jt.config();
    for &jid in jt.job_queue() {
        let job = jt.job(jid);
        if job.status != JobStatus::Running
            || job.blacklisted(node, cfg.blacklist_threshold)
            || !job.slowstart_reached(cfg.reduce_slowstart)
            || job.pending_reduces.is_empty()
        {
            continue;
        }
        if let Some(&r) = job
            .pending_reduces
            .iter()
            .find(|&&r| job.retry_eligible(TaskKind::Reduce, r, now))
        {
            return Some((jid, r));
        }
    }
    None
}

struct World {
    jt: JobTracker,
    topo: Topology,
    nodes: Vec<NodeId>,
    sites: Vec<SiteId>,
    running_maps: Vec<AttemptRef>,
    now: SimTime,
}

impl World {
    fn new(seed: u64) -> Self {
        let mut topo = Topology::new();
        let mut sites = Vec::new();
        let mut nodes = Vec::new();
        for s in 0..3u16 {
            let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
            sites.push(site);
            for _ in 0..3 {
                nodes.push(topo.add_node(site));
            }
        }
        // Speculation off: the oracle is a pure function of queue state.
        let cfg = MrParams::hog().with_speculation(false);
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
        };
        // Three overlapping jobs with pseudo-random split locations.
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5eed);
        for j in 0..3 {
            let maps = 3 + (rng.next_u64() % 6) as u32;
            let reduces = (rng.next_u64() % 3) as u32;
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
                reduces,
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

    /// Drop bookkeeping for attempts on trackers the JT no longer trusts.
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

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match op {
            Op::Heartbeat(i) => {
                let node = self.nodes[i % self.nodes.len()];
                let (liveness, free_m, free_r) = {
                    let t = self.jt.tracker(node).expect("registered tracker");
                    (t.liveness, t.free_map_slots(), t.free_reduce_slots())
                };
                // A tracker already declared Dead gets nothing (it must
                // re-register); Silent ones revive on heartbeat and are
                // assignable like live ones.
                if liveness == Liveness::Dead {
                    let out = self.jt.heartbeat(self.now, node, &self.topo);
                    prop_assert!(out.is_empty(), "dead tracker got work: {:?}", out);
                    return Ok(());
                }
                // Predict before the call: the map pick cannot change the
                // reduce pick (different pending sets; FIFO order is
                // submission order either way).
                let want_map = (free_m > 0)
                    .then(|| oracle_map(&self.jt, &self.topo, node, self.now))
                    .flatten();
                let want_reduce = (free_r > 0)
                    .then(|| oracle_reduce(&self.jt, node, self.now))
                    .flatten();
                let out = self.jt.heartbeat(self.now, node, &self.topo);
                let mut got_map = None;
                let mut got_reduce = None;
                for a in &out {
                    match a {
                        Assignment::Map {
                            attempt, locality, ..
                        } => {
                            got_map = Some((attempt.task.job, attempt.task.index, *locality));
                            self.running_maps.push(*attempt);
                        }
                        Assignment::Reduce { attempt } => {
                            got_reduce = Some((attempt.task.job, attempt.task.index));
                        }
                    }
                }
                prop_assert_eq!(
                    got_map,
                    want_map,
                    "map assignment diverged from oracle on node {:?} at {:?}",
                    node,
                    self.now
                );
                prop_assert_eq!(
                    got_reduce,
                    want_reduce,
                    "reduce assignment diverged from oracle on node {:?} at {:?}",
                    node,
                    self.now
                );
            }
            Op::FinishMap(i) => {
                self.prune_dead();
                if self.running_maps.is_empty() {
                    return Ok(());
                }
                let att = self.running_maps.swap_remove(i % self.running_maps.len());
                let node =
                    self.jt.job(att.task.job).task(att.task).attempts[att.attempt as usize].node;
                prop_assert!(self.jt.reserve_map_scratch(att, node));
                let _ = self.jt.map_done(self.now, att, &self.topo);
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
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// 128 random interleavings: the JobTracker under
    /// `Scheduler::Fifo` is decision-identical to the inline logic.
    #[test]
    fn fifo_matches_pre_refactor_oracle(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut w = World::new(seed);
        for op in &ops {
            w.apply(op)?;
        }
        // The JobTracker's own invariants must hold at the end too.
        let violations = hog_sim_core::Auditable::audit(&w.jt);
        prop_assert!(violations.is_empty(), "audit failed: {:?}", violations);
    }
}
