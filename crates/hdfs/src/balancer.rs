//! The HDFS balancer.
//!
//! The paper: "If users want to increase the number of nodes in the HOG,
//! they can submit more Condor jobs for extra nodes. They can use the HDFS
//! balancer to balance the data distribution." The balancer plans block
//! moves from over-utilised to under-utilised datanodes until every node
//! is within a threshold of the cluster-mean utilisation.

use crate::namenode::{Namenode, ReplOrder};
use crate::types::BlockId;
use hog_net::{NodeId, Topology};
use std::collections::{BTreeSet, HashMap};

/// Compute one balancer iteration: the block moves (copy then delete
/// source — here compressed to a move) that bring utilisation within
/// `threshold`, in order.
///
/// `threshold` is the allowed deviation from mean utilisation (Hadoop
/// default 0.10 = 10 percentage points). `max_moves` bounds the plan so
/// each iteration stays cheap, like the real balancer's bandwidth cap.
/// Excess replicas are not the balancer's business: the namenode's
/// replication monitor sheds them ([`Namenode::tick`]).
pub fn plan(nn: &Namenode, topo: &Topology, threshold: f64, max_moves: usize) -> Vec<ReplOrder> {
    // Utilisation per live datanode. A zero-capacity node can be neither
    // a source nor a sink (and its utilisation would be 0/0), so it
    // stays out of the plan. Zombies look live here, as they do to the
    // namenode; the mediator refuses moves with an unusable end.
    let mut nodes: Vec<(NodeId, u64, u64)> = nn
        .datanodes()
        .filter(|(n, d)| nn.is_live(*n) && d.capacity > 0)
        .map(|(n, d)| (n, d.used, d.capacity))
        .collect();
    if nodes.len() < 2 {
        return Vec::new();
    }
    let total_used: u64 = nodes.iter().map(|&(_, u, _)| u).sum();
    let total_cap: u64 = nodes.iter().map(|&(_, _, c)| c).sum();
    let mean = total_used as f64 / total_cap as f64;

    let util = |used: u64, cap: u64| used as f64 / cap as f64;
    // Sort descending by utilisation: fullest first (sources), emptiest
    // last (sinks).
    nodes.sort_by(|a, b| {
        util(b.1, b.2)
            .total_cmp(&util(a.1, a.2))
            .then(a.0.cmp(&b.0))
    });

    let mut moves = Vec::new();
    let mut used: HashMap<NodeId, u64> = nodes.iter().map(|&(n, u, _)| (n, u)).collect();
    let cap: HashMap<NodeId, u64> = nodes.iter().map(|&(n, _, c)| (n, c)).collect();
    // Blocks already scheduled to move (don't move one block twice).
    let mut moved: BTreeSet<BlockId> = BTreeSet::new();

    let over: Vec<NodeId> = nodes
        .iter()
        .filter(|&&(n, u, c)| util(u, c) > mean + threshold && n.0 < u32::MAX)
        .map(|&(n, _, _)| n)
        .collect();

    for src in over {
        if moves.len() >= max_moves {
            break;
        }
        let src_blocks: Vec<BlockId> = nn
            .datanode(src)
            .map(|d| d.blocks.iter().copied().collect())
            .unwrap_or_default();
        for b in src_blocks {
            if moves.len() >= max_moves {
                break;
            }
            if util(used[&src], cap[&src]) <= mean + threshold {
                break; // source is balanced now
            }
            if moved.contains(&b) {
                continue;
            }
            let size = nn.block(b).size;
            // The sink: the emptiest live node that does not already hold
            // the block and has room; prefer a different node in the same
            // site to preserve the placement's site spread.
            let replica_sites: BTreeSet<_> = nn
                .block(b)
                .replicas
                .iter()
                .map(|&r| topo.site_of(r))
                .collect();
            let src_site = topo.site_of(src);
            let mut sinks: Vec<NodeId> = used
                .keys()
                .copied()
                .filter(|&n| {
                    n != src
                        && !nn.block(b).replicas.contains(&n)
                        && cap[&n].saturating_sub(used[&n]) >= size
                })
                .collect();
            // Same-site sinks keep the replica's failure-domain layout
            // identical; otherwise a site not yet holding the block is
            // fine too (it only improves spread).
            sinks.sort_by_key(|&n| {
                let same_site = topo.site_of(n) == src_site;
                let new_site = !replica_sites.contains(&topo.site_of(n));
                (
                    std::cmp::Reverse(same_site),
                    std::cmp::Reverse(new_site),
                    used[&n],
                    n,
                )
            });
            let Some(&dst) = sinks.first() else { continue };
            if util(used[&dst], cap[&dst]) >= mean {
                continue; // no under-utilised sink available
            }
            moves.push(ReplOrder {
                block: b,
                src,
                dst,
                bytes: size,
            });
            moved.insert(b);
            *used.get_mut(&src).unwrap() -= size;
            *used.get_mut(&dst).unwrap() += size;
        }
    }
    moves
}

/// Apply one completed balancer move to the namenode: the destination now
/// holds the block and the source drops it.
pub fn apply_move(nn: &mut Namenode, mv: &ReplOrder) {
    nn.repl_done(mv.block, mv.src, mv.dst, true);
    nn.report_bad_replica(mv.block, mv.src);
    // `report_bad_replica` queues re-replication if the drop made the
    // block deficient, which cannot happen here because we just added a
    // replica; the pair is a net-zero move.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HdfsConfig;
    use hog_sim_core::{SimRng, SimTime};

    fn setup_unbalanced() -> (Namenode, Topology, Vec<NodeId>) {
        let mut topo = Topology::new();
        let site = topo.add_site("S0", "s0.edu");
        let old: Vec<NodeId> = (0..4).map(|_| topo.add_node(site)).collect();
        let cfg = HdfsConfig::hog().with_replication(2).with_capacity(1 << 30);
        let mut nn = Namenode::new(cfg, SimRng::seed_from_u64(3));
        for &n in &old {
            nn.register_datanode(SimTime::ZERO, n, site);
        }
        // Fill the old nodes with data.
        let f = nn.create_file_default("/data");
        for _ in 0..20 {
            let (b, t) = nn.allocate_block(f, 32 << 20, None, &topo).unwrap();
            nn.commit_block(b, &t);
        }
        nn.complete_file(f);
        // New empty nodes join (pool grew).
        let new: Vec<NodeId> = (0..4).map(|_| topo.add_node(site)).collect();
        for &n in &new {
            nn.register_datanode(SimTime::from_secs(100), n, site);
        }
        (nn, topo, new)
    }

    fn spread(nn: &Namenode) -> (u64, u64) {
        let used: Vec<u64> = nn
            .datanodes()
            .filter(|(n, _)| nn.is_live(*n))
            .map(|(_, d)| d.used)
            .collect();
        (*used.iter().min().unwrap(), *used.iter().max().unwrap())
    }

    #[test]
    fn balancer_moves_data_to_new_nodes() {
        let (mut nn, topo, new) = setup_unbalanced();
        let (min_before, max_before) = spread(&nn);
        assert_eq!(min_before, 0, "new nodes start empty");
        let moves = plan(&nn, &topo, 0.10, 100);
        assert!(!moves.is_empty(), "unbalanced cluster needs moves");
        for mv in &moves {
            apply_move(&mut nn, mv);
        }
        let (min_after, max_after) = spread(&nn);
        assert!(min_after > min_before, "new nodes received data");
        assert!(max_after <= max_before, "old nodes shed data");
        // New nodes now host blocks.
        assert!(new.iter().any(|&n| nn.datanode(n).unwrap().used > 0));
        // No block lost replicas in the process.
        assert_eq!(nn.missing_block_count(), 0);
        assert_eq!(nn.under_replicated_count(), 0);
    }

    #[test]
    fn balanced_cluster_needs_no_moves() {
        let (mut nn, topo, _) = setup_unbalanced();
        // Run the balancer to convergence first.
        for _ in 0..10 {
            let moves = plan(&nn, &topo, 0.10, 100);
            if moves.is_empty() {
                break;
            }
            for mv in &moves {
                apply_move(&mut nn, mv);
            }
        }
        let moves = plan(&nn, &topo, 0.10, 100);
        assert!(moves.is_empty(), "already balanced: {moves:?}");
    }

    #[test]
    fn max_moves_bounds_plan() {
        let (nn, topo, _) = setup_unbalanced();
        assert!(plan(&nn, &topo, 0.10, 3).len() <= 3);
    }

    #[test]
    fn zero_capacity_datanodes_stay_out_of_the_plan() {
        let mut topo = Topology::new();
        let site = topo.add_site("S0", "s0.edu");
        let cfg = HdfsConfig::hog().with_replication(1).with_capacity(0);
        let mut nn = Namenode::new(cfg, SimRng::seed_from_u64(1));
        for _ in 0..4 {
            nn.register_datanode(SimTime::ZERO, topo.add_node(site), site);
        }
        assert!(plan(&nn, &topo, 0.1, 10).is_empty());
    }

    #[test]
    fn single_node_cluster_has_no_plan() {
        let mut topo = Topology::new();
        let site = topo.add_site("S0", "s0.edu");
        let n = topo.add_node(site);
        let cfg = HdfsConfig::hog().with_replication(1);
        let mut nn = Namenode::new(cfg, SimRng::seed_from_u64(1));
        nn.register_datanode(SimTime::ZERO, n, site);
        assert!(plan(&nn, &topo, 0.1, 10).is_empty());
    }
}
