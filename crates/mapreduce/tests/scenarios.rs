//! Scenario tests driving the JobTracker the way the mediator does, but
//! with instantaneous task phases (no network/disk timing).

use hog_hdfs::BlockId;
use hog_mapreduce::job::JobStatus;
use hog_mapreduce::jobtracker::{FailReason, Locality};
use hog_mapreduce::{
    Assignment, AttemptRef, JobId, JobSubmission, JobTracker, JtNote, MrParams, ReduceStep,
    TaskKind,
};
use hog_net::{NodeId, Topology};
use hog_sim_core::{SimDuration, SimRng, SimTime, HOG_DEAD_TIMEOUT};

struct Mini {
    jt: JobTracker,
    topo: Topology,
    nodes: Vec<NodeId>,
}

impl Mini {
    fn new(sites: u16, per_site: u32, cfg: MrParams) -> Self {
        let mut topo = Topology::new();
        let mut nodes = Vec::new();
        for s in 0..sites {
            let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
            for _ in 0..per_site {
                nodes.push(topo.add_node(site));
            }
        }
        let mut jt = JobTracker::new(cfg, HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(42));
        for &n in &nodes {
            jt.register_tracker(SimTime::ZERO, n, topo.site_of(n), 1, 1);
        }
        Mini { jt, topo, nodes }
    }

    fn submit(&mut self, now: SimTime, maps: u32, reduces: u32) -> JobId {
        // Block i "lives" on node i % n — static split locations.
        let locs: Vec<Vec<NodeId>> = (0..maps)
            .map(|i| vec![self.nodes[i as usize % self.nodes.len()]])
            .collect();
        let spec = JobSubmission {
            input_blocks: (0..maps).map(|i| (BlockId(i as u64), 64)).collect(),
            split_locations: locs,
            reduces,
            map_cpu_secs: 10.0,
            map_output_bytes: 1000,
            reduce_cpu_secs: 5.0,
            reduce_output_bytes: 500,
            output_replication: 3,
        };
        self.jt.submit_job(now, spec)
    }

    /// Heartbeat every node once at `now`, collecting assignments.
    fn heartbeat_all(&mut self, now: SimTime) -> Vec<Assignment> {
        let mut out = Vec::new();
        for &n in &self.nodes.clone() {
            out.extend(self.jt.heartbeat(now, n, &self.topo));
        }
        out
    }

    /// Complete all map assignments instantly, then drive every reduce to
    /// completion. Returns completion notes.
    fn run_to_completion(&mut self, mut now: SimTime) -> Vec<JtNote> {
        let mut notes = Vec::new();
        let mut reduce_attempts: Vec<AttemptRef> = Vec::new();
        for _round in 0..200 {
            now += SimDuration::from_secs(3);
            let assignments = self.heartbeat_all(now);
            let mut done_any = !assignments.is_empty();
            for a in assignments {
                match a {
                    Assignment::Map { attempt, .. } => {
                        let node = self.jt.job(attempt.task.job).task(attempt.task).attempts
                            [attempt.attempt as usize]
                            .node;
                        assert!(self.jt.reserve_map_scratch(attempt, node));
                        let out = self.jt.map_done(now, attempt, &self.topo);
                        notes.extend(out.notes);
                        for r in out.wake_reduces {
                            if !reduce_attempts.contains(&r) {
                                reduce_attempts.push(r);
                            }
                        }
                    }
                    Assignment::Reduce { attempt } => {
                        reduce_attempts.push(attempt);
                    }
                }
            }
            // Drive reduces.
            let mut progressed = true;
            while progressed {
                progressed = false;
                for &att in &reduce_attempts.clone() {
                    match self.jt.reduce_next(att) {
                        ReduceStep::Fetch(orders) => {
                            for (id, _) in orders {
                                self.jt.fetch_done(att, id);
                            }
                            progressed = true;
                            done_any = true;
                        }
                        ReduceStep::StartSort => {
                            notes.extend(self.jt.reduce_done(now, att));
                            progressed = true;
                            done_any = true;
                        }
                        ReduceStep::Wait => {}
                    }
                }
            }
            if self.jt.incomplete_jobs() == 0 {
                break;
            }
            let _ = done_any;
        }
        notes
    }
}

#[test]
fn node_local_assignment_preferred() {
    let mut m = Mini::new(2, 3, MrParams::hog());
    m.submit(SimTime::ZERO, 6, 0);
    // Each node heartbeats: with blocks spread round-robin, every node
    // should get its local map.
    let assignments = m.heartbeat_all(SimTime::from_secs(3));
    assert_eq!(assignments.len(), 6);
    for a in &assignments {
        match a {
            Assignment::Map { locality, .. } => assert_eq!(*locality, Locality::NodeLocal),
            _ => panic!("expected map"),
        }
    }
    let c = m.jt.counters();
    assert_eq!(c.node_local, 6);
    assert_eq!(c.remote, 0);
}

#[test]
fn locality_degrades_to_site_then_remote() {
    let mut m = Mini::new(2, 2, MrParams::hog());
    // 1 map whose split lives on node 0 (site 0).
    let job = {
        let spec = JobSubmission {
            input_blocks: vec![(BlockId(0), 64)],
            split_locations: vec![vec![m.nodes[0]]],
            reduces: 0,
            map_cpu_secs: 1.0,
            map_output_bytes: 10,
            reduce_cpu_secs: 1.0,
            reduce_output_bytes: 10,
            output_replication: 1,
        };
        m.jt.submit_job(SimTime::ZERO, spec)
    };
    // Node 1 (same site as 0) heartbeats first: site-local.
    let a = m.jt.heartbeat(SimTime::from_secs(3), m.nodes[1], &m.topo);
    assert_eq!(a.len(), 1);
    match &a[0] {
        Assignment::Map { locality, .. } => assert_eq!(*locality, Locality::SiteLocal),
        _ => panic!(),
    }
    let _ = job;
    // Submit another 1-map job local to node 0; node 3 (other site) gets
    // it remotely.
    let spec = JobSubmission {
        input_blocks: vec![(BlockId(1), 64)],
        split_locations: vec![vec![m.nodes[0]]],
        reduces: 0,
        map_cpu_secs: 1.0,
        map_output_bytes: 10,
        reduce_cpu_secs: 1.0,
        reduce_output_bytes: 10,
        output_replication: 1,
    };
    m.jt.submit_job(SimTime::ZERO, spec);
    let a = m.jt.heartbeat(SimTime::from_secs(3), m.nodes[3], &m.topo);
    match &a[0] {
        Assignment::Map { locality, .. } => assert_eq!(*locality, Locality::Remote),
        _ => panic!(),
    }
}

#[test]
fn fifo_order_across_jobs() {
    let mut m = Mini::new(1, 1, MrParams::hog());
    let j1 = m.submit(SimTime::ZERO, 2, 0);
    let j2 = m.submit(SimTime::from_secs(1), 2, 0);
    // The single slot serves j1 first.
    let a = m.jt.heartbeat(SimTime::from_secs(3), m.nodes[0], &m.topo);
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].attempt().task.job, j1);
    let _ = j2;
}

#[test]
fn slowstart_gates_reduces() {
    let mut cfg = MrParams::hog();
    cfg.reduce_slowstart = 0.5;
    let mut m = Mini::new(1, 4, cfg);
    m.submit(SimTime::ZERO, 4, 2);
    let assignments = m.heartbeat_all(SimTime::from_secs(3));
    // All four map slots busy; no reduce yet (0% maps done).
    assert!(assignments
        .iter()
        .all(|a| matches!(a, Assignment::Map { .. })));
    // Finish 2 maps (50%): reduces may start.
    for a in assignments.iter().take(2) {
        let att = a.attempt();
        m.jt.map_done(SimTime::from_secs(10), att, &m.topo);
    }
    let more = m.heartbeat_all(SimTime::from_secs(12));
    assert!(
        more.iter().any(|a| matches!(a, Assignment::Reduce { .. })),
        "slowstart reached, reduces should schedule"
    );
}

#[test]
fn full_job_lifecycle_completes() {
    let mut m = Mini::new(2, 3, MrParams::hog());
    let j = m.submit(SimTime::ZERO, 6, 3);
    let notes = m.run_to_completion(SimTime::ZERO);
    assert!(notes.contains(&JtNote::JobCompleted { job: j }));
    assert_eq!(m.jt.job(j).status, JobStatus::Succeeded);
    assert!(m.jt.response_time(j).is_some());
    assert_eq!(m.jt.incomplete_jobs(), 0);
    // Scratch space freed everywhere after completion.
    for &n in &m.nodes {
        assert_eq!(m.jt.tracker_scratch(n).unwrap().0, 0);
    }
}

#[test]
fn map_only_job_completes() {
    let mut m = Mini::new(1, 2, MrParams::hog());
    let j = m.submit(SimTime::ZERO, 4, 0);
    let notes = m.run_to_completion(SimTime::ZERO);
    assert!(notes.contains(&JtNote::JobCompleted { job: j }));
}

#[test]
fn workload_of_many_jobs_all_complete() {
    let mut m = Mini::new(2, 5, MrParams::hog());
    let jobs: Vec<JobId> = (0..8)
        .map(|i| m.submit(SimTime::from_secs(i), 5, 2))
        .collect();
    let notes = m.run_to_completion(SimTime::ZERO);
    for j in jobs {
        assert!(
            notes.contains(&JtNote::JobCompleted { job: j }),
            "job {j:?} did not complete"
        );
    }
}

#[test]
fn failed_attempt_is_retried() {
    let mut cfg = MrParams::hog();
    cfg.retry_backoff = SimDuration::ZERO;
    let mut m = Mini::new(1, 2, cfg);
    let j = m.submit(SimTime::ZERO, 1, 0);
    let a = m.heartbeat_all(SimTime::from_secs(3));
    let att = a[0].attempt();
    m.jt.attempt_failed(SimTime::from_secs(5), att, FailReason::DiskFull);
    assert_eq!(m.jt.counters().failures, 1);
    // Task is pending again; another heartbeat reassigns (attempt 1).
    let a = m.heartbeat_all(SimTime::from_secs(6));
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].attempt().attempt, 1);
    let _ = j;
}

#[test]
fn max_attempts_fails_the_job() {
    let mut cfg = MrParams::hog();
    cfg.max_attempts = 2;
    cfg.retry_backoff = SimDuration::ZERO;
    cfg.blacklist_threshold = 10; // keep both nodes usable
    let mut m = Mini::new(1, 2, cfg);
    let j = m.submit(SimTime::ZERO, 1, 1);
    for round in 0..2 {
        let a = m.heartbeat_all(SimTime::from_secs(3 * (round + 1)));
        let map_att = a
            .iter()
            .map(|x| x.attempt())
            .find(|x| x.task.kind == TaskKind::Map)
            .unwrap();
        let notes = m.jt.attempt_failed(
            SimTime::from_secs(3 * (round + 1) + 1),
            map_att,
            FailReason::LostBlock,
        );
        if round == 1 {
            assert!(notes.contains(&JtNote::JobFailed { job: j }));
        }
    }
    assert_eq!(m.jt.job(j).status, JobStatus::Failed);
    assert_eq!(m.jt.counters().jobs_failed, 1);
    assert_eq!(m.jt.incomplete_jobs(), 0);
}

#[test]
fn blacklisted_tracker_gets_no_tasks_of_that_job() {
    let mut cfg = MrParams::hog();
    cfg.blacklist_threshold = 1;
    cfg.retry_backoff = SimDuration::ZERO;
    let mut m = Mini::new(1, 2, cfg);
    m.submit(SimTime::ZERO, 3, 0);
    let a = m.jt.heartbeat(SimTime::from_secs(3), m.nodes[0], &m.topo);
    let att = a[0].attempt();
    m.jt.attempt_failed(SimTime::from_secs(4), att, FailReason::ZombieNode);
    // Node 0 is now blacklisted for this job.
    let a = m.jt.heartbeat(SimTime::from_secs(6), m.nodes[0], &m.topo);
    assert!(a.is_empty(), "blacklisted node must not get job tasks");
    // Node 1 still gets work.
    let a = m.jt.heartbeat(SimTime::from_secs(6), m.nodes[1], &m.topo);
    assert!(!a.is_empty());
}

#[test]
fn tracker_death_requeues_running_and_reruns_lost_maps() {
    let mut m = Mini::new(1, 3, MrParams::hog());
    m.submit(SimTime::ZERO, 3, 1);
    let assignments = m.heartbeat_all(SimTime::from_secs(3));
    // Complete the map on node 0; leave others running.
    let att0 = assignments
        .iter()
        .map(|a| a.attempt())
        .find(|a| {
            a.task.kind == TaskKind::Map
                && m.jt.job(a.task.job).task(a.task).attempts[a.attempt as usize].node == m.nodes[0]
        })
        .unwrap();
    m.jt.map_done(SimTime::from_secs(10), att0, &m.topo);
    let done_before = m.jt.job(att0.task.job).maps_done;
    assert_eq!(done_before, 1);
    // Node 0 dies: its completed map output is lost; job has reduces, so
    // the map must re-run.
    m.jt.tracker_silent(SimTime::from_secs(12), m.nodes[0]);
    let (dead, _) = m.jt.check_dead(SimTime::from_secs(50));
    assert_eq!(dead, vec![m.nodes[0]]);
    assert_eq!(m.jt.job(att0.task.job).maps_done, 0, "lost output re-runs");
    assert!(m
        .jt
        .job(att0.task.job)
        .pending_maps
        .contains(&att0.task.index));
    assert_eq!(m.jt.reported_live(), 2);
}

#[test]
fn speculation_launches_second_copy_and_winner_kills_loser() {
    let mut cfg = MrParams::hog();
    cfg.speculative_min_completed = 1;
    let mut m = Mini::new(1, 3, cfg);
    m.submit(SimTime::ZERO, 3, 0);
    // Assign one map per node.
    let assignments = m.heartbeat_all(SimTime::from_secs(3));
    assert_eq!(assignments.len(), 3);
    // Two maps finish fast (mean ~7 s); the third straggles.
    let atts: Vec<AttemptRef> = assignments.iter().map(|a| a.attempt()).collect();
    m.jt.map_done(SimTime::from_secs(10), atts[0], &m.topo);
    m.jt.map_done(SimTime::from_secs(10), atts[1], &m.topo);
    // Much later, an idle node heartbeats: straggler (elapsed 97 s > 1.33
    // × 7 s) gets a speculative copy.
    let a = m.jt.heartbeat(SimTime::from_secs(100), m.nodes[0], &m.topo);
    assert_eq!(a.len(), 1, "speculative attempt expected");
    let spec_att = a[0].attempt();
    assert_eq!(spec_att.task, atts[2].task);
    assert_eq!(spec_att.attempt, 1);
    assert_eq!(m.jt.counters().speculative, 1);
    // The speculative copy wins; the original is killed.
    let out = m.jt.map_done(SimTime::from_secs(110), spec_att, &m.topo);
    assert!(out.notes.iter().any(|n| matches!(
        n,
        JtNote::KillAttempt { attempt, .. } if *attempt == atts[2]
    )));
    assert!(!m.jt.attempt_active(atts[2]));
}

/// Which running task an idle map slot copies: the lowest-indexed task
/// below `max_task_copies` running attempts whose every running attempt
/// is on another node and, outside eager mode, older than the straggler
/// threshold.
#[test]
fn speculation_copies_the_lowest_task_whose_attempts_all_straggle_elsewhere() {
    let t = SimTime::from_secs;
    // (task index, attempt ordinal) of each map assignment.
    let picks = |got: &[Assignment]| -> Vec<(u32, u8)> {
        got.iter()
            .map(|a| match a {
                Assignment::Map { attempt, .. } => (attempt.task.index, attempt.attempt),
                Assignment::Reduce { .. } => panic!("a map-only job"),
            })
            .collect()
    };
    // Stock speculation. Node 0 has two map slots; map i's split lives
    // on node i % 4.
    let mut cfg = MrParams::hog();
    cfg.speculative_min_completed = 1;
    let mut m = Mini::new(1, 4, cfg);
    let site = m.topo.site_of(m.nodes[0]);
    m.jt.register_tracker(SimTime::ZERO, m.nodes[0], site, 2, 1);
    m.submit(SimTime::ZERO, 5, 0);
    let first = m.jt.heartbeat(t(0), m.nodes[0], &m.topo);
    assert_eq!(picks(&first), [(0, 0), (4, 0)]);
    for n in [m.nodes[2], m.nodes[3]] {
        m.jt.heartbeat(t(0), n, &m.topo);
    }
    // Map 4 finishes in 10 s: the straggler threshold is 13.3 s.
    m.jt.map_done(t(10), first[1].attempt(), &m.topo);
    // Map 1 starts late, on node 1.
    let late = m.jt.heartbeat(t(95), m.nodes[1], &m.topo);
    assert_eq!(picks(&late), [(1, 0)]);
    // Node 0 heartbeats at 100 s with a free map slot. Task 0 runs on
    // node 0 itself, task 1's only attempt is 5 s old, tasks 2 and 3
    // straggle elsewhere: the lowest of them, task 2, gets the copy.
    let got = m.jt.heartbeat(t(100), m.nodes[0], &m.topo);
    assert_eq!(picks(&got), [(2, 1)]);
    assert_eq!(m.jt.counters().speculative, 1);

    // Eager copies ignore age (no task has finished, and every attempt
    // is 1 s old) and stop at `max_task_copies` running attempts.
    let second_copy = |k: u8| {
        let mut m = Mini::new(1, 5, MrParams::hog().with_task_copies(k, true));
        m.submit(SimTime::ZERO, 3, 0);
        for &n in &m.nodes[..3] {
            m.jt.heartbeat(t(0), n, &m.topo);
        }
        let a = m.jt.heartbeat(t(1), m.nodes[3], &m.topo);
        assert_eq!(picks(&a), [(0, 1)]);
        picks(&m.jt.heartbeat(t(1), m.nodes[4], &m.topo))
    };
    assert_eq!(second_copy(2), [(1, 1)], "task 0 is at the cap");
    assert_eq!(second_copy(3), [(0, 2)], "a third copy of task 0");
}

#[test]
fn speculation_disabled_means_no_second_copies() {
    let mut m = Mini::new(1, 3, MrParams::hog().with_speculation(false));
    m.submit(SimTime::ZERO, 3, 0);
    let assignments = m.heartbeat_all(SimTime::from_secs(3));
    let atts: Vec<AttemptRef> = assignments.iter().map(|a| a.attempt()).collect();
    m.jt.map_done(SimTime::from_secs(10), atts[0], &m.topo);
    m.jt.map_done(SimTime::from_secs(10), atts[1], &m.topo);
    let a =
        m.jt.heartbeat(SimTime::from_secs(1000), m.nodes[0], &m.topo);
    assert!(a.is_empty());
    assert_eq!(m.jt.counters().speculative, 0);
}

#[test]
fn scratch_exhaustion_detected() {
    let cfg = MrParams::hog().with_scratch(1500); // fits one 1000-byte output
    let mut m = Mini::new(1, 1, cfg);
    m.submit(SimTime::ZERO, 2, 1);
    let a1 = m.jt.heartbeat(SimTime::from_secs(3), m.nodes[0], &m.topo);
    let att1 = a1
        .iter()
        .map(|a| a.attempt())
        .find(|a| a.task.kind == TaskKind::Map)
        .unwrap();
    assert!(m.jt.reserve_map_scratch(att1, m.nodes[0]));
    m.jt.map_done(SimTime::from_secs(5), att1, &m.topo);
    let a2 = m.jt.heartbeat(SimTime::from_secs(6), m.nodes[0], &m.topo);
    let att2 = a2
        .iter()
        .map(|a| a.attempt())
        .find(|a| a.task.kind == TaskKind::Map)
        .unwrap();
    assert!(
        !m.jt.reserve_map_scratch(att2, m.nodes[0]),
        "second map output must not fit"
    );
}

#[test]
fn reduce_shuffle_protocol_reaches_sort_exactly_once() {
    let mut m = Mini::new(2, 2, MrParams::hog());
    m.submit(SimTime::ZERO, 2, 1);
    let assignments = m.heartbeat_all(SimTime::from_secs(3));
    let maps: Vec<AttemptRef> = assignments
        .iter()
        .map(|a| a.attempt())
        .filter(|a| a.task.kind == TaskKind::Map)
        .collect();
    let reduce = assignments
        .iter()
        .map(|a| a.attempt())
        .find(|a| a.task.kind == TaskKind::Reduce);
    // Slowstart 0.05 but 0 maps done: reduce may or may not be assigned
    // yet. Complete the maps first.
    for &att in &maps {
        m.jt.map_done(SimTime::from_secs(10), att, &m.topo);
    }
    let reduce = reduce.unwrap_or_else(|| {
        m.heartbeat_all(SimTime::from_secs(12))
            .iter()
            .map(|a| a.attempt())
            .find(|a| a.task.kind == TaskKind::Reduce)
            .expect("reduce assigned after maps done")
    });
    // Fetch until sort.
    let mut sorted = 0;
    for _ in 0..10 {
        match m.jt.reduce_next(reduce) {
            ReduceStep::Fetch(orders) => {
                for (id, order) in orders {
                    assert!(!order.maps.is_empty());
                    assert!(order.bytes > 0);
                    m.jt.fetch_done(reduce, id);
                }
            }
            ReduceStep::StartSort => {
                // The sort's parameters are the job's own, in the ledger.
                let spec = &m.jt.job(reduce.task.job).spec;
                assert_eq!(spec.reduce_cpu_secs, 5.0);
                assert_eq!(spec.reduce_output_bytes, 500);
                assert_eq!(spec.output_replication, 3);
                sorted += 1;
            }
            ReduceStep::Wait => break,
        }
    }
    assert_eq!(sorted, 1, "StartSort must be issued exactly once");
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut m = Mini::new(2, 4, MrParams::hog());
        for i in 0..5 {
            m.submit(SimTime::from_secs(i), 4, 2);
        }
        let notes = m.run_to_completion(SimTime::ZERO);
        format!("{notes:?}")
    };
    assert_eq!(run(), run());
}

#[test]
fn too_many_fetch_failures_reexecute_the_map() {
    let mut m = Mini::new(2, 2, MrParams::hog());
    m.submit(SimTime::ZERO, 2, 1);
    // Complete the maps.
    let assignments = m.heartbeat_all(SimTime::from_secs(3));
    let maps: Vec<AttemptRef> = assignments
        .iter()
        .map(|a| a.attempt())
        .filter(|a| a.task.kind == TaskKind::Map)
        .collect();
    for &att in &maps {
        m.jt.map_done(SimTime::from_secs(10), att, &m.topo);
    }
    let reduce = assignments
        .iter()
        .map(|a| a.attempt())
        .find(|a| a.task.kind == TaskKind::Reduce)
        .unwrap_or_else(|| {
            m.heartbeat_all(SimTime::from_secs(12))
                .iter()
                .map(|a| a.attempt())
                .find(|a| a.task.kind == TaskKind::Reduce)
                .expect("reduce after maps")
        });
    let job = reduce.task.job;
    assert_eq!(m.jt.job(job).maps_done, 2);
    // Fail the same fetch three times (threshold): covered maps re-run.
    for round in 0..3 {
        let step = m.jt.reduce_next(reduce);
        let ReduceStep::Fetch(orders) = step else {
            panic!("expected fetch in round {round}, got {step:?}")
        };
        for (id, _) in orders {
            m.jt.fetch_failed(reduce, id, &m.topo);
        }
    }
    assert!(
        m.jt.job(job).maps_done < 2,
        "strikes should have re-pended at least one map"
    );
    assert!(!m.jt.job(job).pending_maps.is_empty());
}

#[test]
fn eager_copies_run_k_way() {
    let cfg = MrParams::hog().with_task_copies(3, true);
    let mut m = Mini::new(1, 4, cfg);
    m.submit(SimTime::ZERO, 1, 0); // one map, four idle slots
    let a = m.heartbeat_all(SimTime::from_secs(3));
    // The single map should be running on 3 distinct nodes (primary + 2
    // eager copies), not 4 (cap at K=3).
    assert_eq!(a.len(), 3, "got {a:?}");
    let nodes: std::collections::BTreeSet<_> = a
        .iter()
        .map(|x| {
            let att = x.attempt();
            m.jt.job(att.task.job).task(att.task).attempts[att.attempt as usize].node
        })
        .collect();
    assert_eq!(nodes.len(), 3, "copies must land on distinct nodes");
    // First finisher wins; the other two are killed.
    let winner = a[1].attempt();
    let out = m.jt.map_done(SimTime::from_secs(5), winner, &m.topo);
    let kills = out
        .notes
        .iter()
        .filter(|n| matches!(n, JtNote::KillAttempt { .. }))
        .count();
    assert_eq!(kills, 2);
}

#[test]
fn single_copy_config_disables_speculation() {
    let cfg = MrParams::hog().with_task_copies(1, false);
    let mut m = Mini::new(1, 3, cfg);
    m.submit(SimTime::ZERO, 1, 0);
    let a = m.heartbeat_all(SimTime::from_secs(3));
    assert_eq!(a.len(), 1, "K=1 means exactly one attempt");
    let more = m.heartbeat_all(SimTime::from_secs(1000));
    assert!(more.is_empty());
}
