//! Tracker-death handling under every scheduler policy.
//!
//! Regression for the tracker-death borrow bug: the death path used
//! to re-fetch the tracker with successive `get_mut(..).unwrap()` calls
//! around the `sched.on_tracker_dead` policy hook, so any hook (or
//! future refactor) that removed the entry mid-path would panic instead
//! of taking an error path. The restructured code takes one scoped
//! borrow; these tests drive a death through each policy and check the
//! requeue semantics that borrow must preserve.

use hog_hdfs::BlockId;
use hog_mapreduce::jobtracker::FailReason;
use hog_mapreduce::{Assignment, JobSubmission, JobTracker, MrParams, SchedPolicy};
use hog_net::{NodeId, SiteId, Topology};
use hog_sim_core::{SimDuration, SimRng, SimTime, HOG_DEAD_TIMEOUT};

/// `nodes_n` trackers dealt round-robin over `sites_n` sites.
fn cluster(
    policy: SchedPolicy,
    nodes_n: usize,
    sites_n: usize,
) -> (JobTracker, Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let sites: Vec<SiteId> = (0..sites_n)
        .map(|i| topo.add_site(format!("S{i}"), format!("s{i}.edu")))
        .collect();
    let nodes: Vec<NodeId> = (0..nodes_n)
        .map(|i| topo.add_node(sites[i % sites_n]))
        .collect();
    let cfg = MrParams {
        sched: policy,
        ..MrParams::hog()
    };
    let mut jt = JobTracker::new(cfg, HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(7));
    for &n in &nodes {
        jt.register_tracker(SimTime::ZERO, n, topo.site_of(n), 1, 1);
    }
    (jt, topo, nodes)
}

fn submit(jt: &mut JobTracker, nodes: &[NodeId], maps: u32, reduces: u32) {
    let locs: Vec<Vec<NodeId>> = (0..maps)
        .map(|i| vec![nodes[i as usize % nodes.len()]])
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
    jt.submit_job(SimTime::from_secs(1), spec);
}

fn drive_death(policy: SchedPolicy) {
    let (mut jt, topo, nodes) = cluster(policy, 4, 1);
    submit(&mut jt, &nodes, 8, 2);

    // Assign work everywhere.
    let t1 = SimTime::from_secs(2);
    let mut assigned = 0usize;
    for &n in &nodes {
        for a in jt.heartbeat(t1, n, &topo) {
            if let Assignment::Map { attempt, .. } = a {
                assert!(jt.reserve_map_scratch(attempt, n));
            }
            assigned += 1;
        }
    }
    assert!(assigned > 0, "{policy:?}: no work assigned");
    let before = jt.backlog();
    assert!(before.running_maps > 0);

    // Node 0 goes silent; past the 30 s timeout it must be declared
    // dead without panicking, whatever state the policy hook keeps.
    let victim = nodes[0];
    jt.tracker_silent(SimTime::from_secs(5), victim);
    let t_dead = SimTime::from_secs(5) + HOG_DEAD_TIMEOUT;
    let (died, _notes) = jt.check_dead(t_dead);
    assert_eq!(died, vec![victim], "{policy:?}: victim not declared dead");
    assert!(!jt.tracker_live(victim));
    assert_eq!(jt.reported_live(), nodes.len() - 1);

    // Its running attempts went back to pending, none lost.
    let after = jt.backlog();
    assert_eq!(
        after.pending_maps + after.running_maps,
        before.pending_maps + before.running_maps,
        "{policy:?}: map tasks lost across tracker death"
    );
    assert!(
        after.running_maps < before.running_maps,
        "{policy:?}: victim's attempts still counted running"
    );

    // A second declaration for the same (now dead) tracker and one for
    // a node the JobTracker never saw must both be no-ops.
    jt.tracker_silent(t_dead, victim);
    let (died, notes) = jt.check_dead(t_dead + SimDuration::from_secs(60));
    assert!(died.is_empty());
    assert!(notes.is_empty());
    let ghost = NodeId(9_999);
    jt.tracker_silent(t_dead, ghost);
    let (died, _) = jt.check_dead(t_dead + SimDuration::from_secs(120));
    assert!(died.is_empty(), "{policy:?}: ghost node declared dead");

    // Failure-aware policies now hold a penalty against the site; the
    // read path the elastic controller uses must see it (and see zero
    // for history-free policies).
    let site = topo.site_of(victim);
    let p = jt.site_penalty(site, t_dead);
    match policy {
        SchedPolicy::FailureAware => assert!(p > 0.0, "site penalty not recorded"),
        _ => assert_eq!(p, 0.0, "{policy:?} should keep no site history"),
    }
}

#[test]
fn tracker_death_under_fifo() {
    drive_death(SchedPolicy::Fifo);
}

#[test]
fn tracker_death_under_fair() {
    drive_death(SchedPolicy::Fair);
}

#[test]
fn tracker_death_under_failure_aware() {
    drive_death(SchedPolicy::FailureAware);
}

/// FailureAware charges the site of the tracker record the JobTracker
/// hands it: a death charges the victim's site (2.0 × 0.25) and leaves
/// the other site clean, and a blamed attempt failure on a node of the
/// other site raises that site's penalty by 1.0 × 0.25 at once. A clone
/// of the JobTracker (what a master checkpoint takes) carries the
/// policy's failure history as of the clone, and only that.
#[test]
fn failure_aware_charges_the_failing_trackers_site() {
    let (mut jt, topo, nodes) = cluster(SchedPolicy::FailureAware, 4, 2);
    submit(&mut jt, &nodes, 8, 0);
    let t1 = SimTime::from_secs(2);
    let mut maps = Vec::new();
    for &n in &nodes {
        for a in jt.heartbeat(t1, n, &topo) {
            if let Assignment::Map { attempt, .. } = a {
                assert!(jt.reserve_map_scratch(attempt, n));
                maps.push((attempt, n));
            }
        }
    }
    let victim = nodes[0];
    let (home, other) = (topo.site_of(victim), topo.site_of(nodes[1]));
    assert_ne!(home, other);

    jt.tracker_silent(SimTime::from_secs(5), victim);
    let t_dead = SimTime::from_secs(5) + HOG_DEAD_TIMEOUT;
    let (died, _) = jt.check_dead(t_dead);
    assert_eq!(died, vec![victim]);
    assert_eq!(jt.site_penalty(home, t_dead), 0.5);
    assert_eq!(jt.site_penalty(other, t_dead), 0.0);
    let snapshot = jt.clone();
    assert_eq!(
        snapshot.site_penalty(home, t_dead),
        0.5,
        "history not copied"
    );

    let &(attempt, on) = maps
        .iter()
        .find(|&&(_, n)| topo.site_of(n) == other)
        .expect("a map runs at the other site");
    jt.attempt_failed(t_dead, attempt, FailReason::DiskFull);
    assert_eq!(jt.site_penalty(other, t_dead), 0.25, "{on:?} not charged");
    assert_eq!(jt.site_penalty(home, t_dead), 0.5);
    assert_eq!(snapshot.site_penalty(other, t_dead), 0.0, "history shared");
}

#[test]
fn jain_fairness_degenerate_and_skewed() {
    let (mut jt, topo, nodes) = cluster(SchedPolicy::Fifo, 4, 1);
    // No jobs: vacuous fairness.
    assert_eq!(jt.jain_fairness(), 1.0);
    submit(&mut jt, &nodes, 4, 1);
    // One job: still 1.0 by definition.
    assert_eq!(jt.jain_fairness(), 1.0);
    submit(&mut jt, &nodes, 4, 1);
    // Two contenders, no slots assigned yet: equally starved.
    assert_eq!(jt.jain_fairness(), 1.0);
    let t = SimTime::from_secs(2);
    for &n in &nodes {
        for a in jt.heartbeat(t, n, &topo) {
            if let Assignment::Map { attempt, .. } = a {
                assert!(jt.reserve_map_scratch(attempt, n));
            }
        }
    }
    // FIFO gives all four map slots to job 0: maximal skew, J = 1/2.
    let j = jt.jain_fairness();
    assert!((j - 0.5).abs() < 1e-9, "expected J=0.5, got {j}");
    let shares: Vec<u32> = jt.job_shares().map(|(_, s)| s).collect();
    assert_eq!(shares, vec![4, 0]);
}
