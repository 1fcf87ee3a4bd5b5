//! Property tests on namenode consistency: after arbitrary interleavings
//! of writes, node deaths, bad-replica reports and repairs, the block map
//! and the datanode accounting must agree and every invariant must hold.

use hog_hdfs::{HdfsConfig, Namenode};
use hog_net::{NodeId, Topology};
use hog_sim_core::{SimRng, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    /// Write a new block to a fresh file.
    Write { size: u64 },
    /// Silence node (idx modulo live nodes).
    Kill { idx: usize },
    /// Report one replica of a random block bad.
    BadReplica { block_idx: usize, rep_idx: usize },
    /// Run one namenode tick and complete every issued order.
    TickAndRepair,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..64_000_000).prop_map(|size| Op::Write { size }),
        (0usize..64).prop_map(|idx| Op::Kill { idx }),
        ((0usize..64), (0usize..8))
            .prop_map(|(block_idx, rep_idx)| Op::BadReplica { block_idx, rep_idx }),
        Just(Op::TickAndRepair),
    ]
}

/// Cross-check: every replica in the block map is accounted on the
/// datanode, and vice versa; used bytes match; no block exceeds its
/// expected replication by more than the in-flight window.
fn check_consistency(nn: &Namenode, blocks: &[hog_hdfs::BlockId]) {
    // datanode -> accounted blocks
    let mut dn_blocks: HashMap<NodeId, Vec<hog_hdfs::BlockId>> = HashMap::new();
    for (node, info) in nn.datanodes() {
        let mut sum = 0u64;
        for &b in &info.blocks {
            sum += nn.block(b).size;
            dn_blocks.entry(node).or_default().push(b);
        }
        assert_eq!(info.used, sum, "used bytes out of sync on {node:?}");
        assert!(info.used <= info.capacity, "overfull datanode {node:?}");
    }
    for &b in blocks {
        let meta = nn.block(b);
        for &r in &meta.replicas {
            assert!(
                dn_blocks.get(&r).is_some_and(|v| v.contains(&b)),
                "replica {r:?} of {b:?} missing from datanode accounting"
            );
        }
        assert!(
            meta.replicas.len() <= meta.expected as usize,
            "block {b:?} over-replicated: {} > {}",
            meta.replicas.len(),
            meta.expected
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn namenode_invariants_hold_under_chaos(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut topo = Topology::new();
        let mut nodes = Vec::new();
        for s in 0..4 {
            let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
            for _ in 0..6 {
                nodes.push(topo.add_node(site));
            }
        }
        let cfg = HdfsConfig::hog().with_replication(4);
        let mut nn = Namenode::new(cfg, SimRng::seed_from_u64(7));
        for &n in &nodes {
            nn.register_datanode(SimTime::ZERO, n, topo.site_of(n));
        }
        let mut blocks = Vec::new();
        let mut t = 0u64;
        let mut file_no = 0u32;
        let mut killed: Vec<NodeId> = Vec::new();
        for op in ops {
            t += 60; // one minute between operations: past the 30 s timeout
            let now = SimTime::from_secs(t);
            match op {
                Op::Write { size } => {
                    let f = nn.create_file_default(format!("/f{file_no}"));
                    file_no += 1;
                    if let Some((b, targets)) = nn.allocate_block(f, size, None, &topo) {
                        nn.commit_block(b, &targets);
                        blocks.push(b);
                    }
                    nn.complete_file(f);
                }
                Op::Kill { idx } => {
                    let live: Vec<NodeId> = nodes
                        .iter()
                        .copied()
                        .filter(|n| nn.is_live(*n) && !killed.contains(n))
                        .collect();
                    // Keep at least 5 nodes so writes keep succeeding.
                    if live.len() > 5 {
                        let victim = live[idx % live.len()];
                        nn.mark_silent(now, victim);
                        killed.push(victim);
                    }
                }
                Op::BadReplica { block_idx, rep_idx } => {
                    if !blocks.is_empty() {
                        let b = blocks[block_idx % blocks.len()];
                        let reps: Vec<NodeId> = nn.block(b).replicas.iter().copied().collect();
                        if !reps.is_empty() {
                            nn.report_bad_replica(b, reps[rep_idx % reps.len()]);
                        }
                    }
                }
                Op::TickAndRepair => {
                    let out = nn.tick(now, &topo);
                    for o in out.orders {
                        nn.repl_done(o.block, o.src, o.dst, true);
                    }
                }
            }
            check_consistency(&nn, &blocks);
        }
        // Final deep repair: ticks until quiescent must clear every
        // repairable deficit.
        for i in 0..200 {
            let out = nn.tick(SimTime::from_secs(t + 60 + i), &topo);
            if out.orders.is_empty() && out.newly_dead.is_empty() {
                break;
            }
            for o in out.orders {
                nn.repl_done(o.block, o.src, o.dst, true);
            }
        }
        check_consistency(&nn, &blocks);
        for &b in &blocks {
            let meta = nn.block(b);
            // Any block that still has one replica must be repairable to
            // min(expected, live datanodes with room).
            if !meta.is_missing() && meta.expected > 0 {
                prop_assert!(
                    meta.deficit() == 0 || nn.under_replicated_count() == 0,
                    "block {b:?} left deficient after quiescence: {}/{} replicas",
                    meta.replicas.len(),
                    meta.expected
                );
            }
        }
    }
}

#[test]
fn allocation_respects_exclusions() {
    use std::collections::BTreeSet;
    let mut topo = Topology::new();
    let site = topo.add_site("S0", "s0.edu");
    let nodes: Vec<NodeId> = (0..6).map(|_| topo.add_node(site)).collect();
    let mut nn = Namenode::new(
        HdfsConfig::hog().with_replication(3),
        SimRng::seed_from_u64(5),
    );
    for &n in &nodes {
        nn.register_datanode(SimTime::ZERO, n, topo.site_of(n));
    }
    let f = nn.create_file_default("/x");
    // Exclude three specific nodes: they must never appear as targets.
    let excluded: BTreeSet<NodeId> = nodes[..3].iter().copied().collect();
    for _ in 0..10 {
        let (b, targets) = nn
            .allocate_block_excluding(f, 1024, None, &excluded, &topo)
            .expect("three nodes remain");
        assert!(targets.iter().all(|t| !excluded.contains(t)), "{targets:?}");
        nn.commit_block(b, &targets);
    }
    // Excluding everything yields None.
    let all: BTreeSet<NodeId> = nodes.iter().copied().collect();
    assert!(nn
        .allocate_block_excluding(f, 1024, None, &all, &topo)
        .is_none());
}
