//! Block placement policies.
//!
//! HOG's contribution is extending rack awareness to **site awareness**:
//! sites are common failure domains (whole-site outages, correlated
//! preemption bursts) and intra-site bandwidth dwarfs inter-site bandwidth,
//! so replicas must spread across sites exactly like stock HDFS spreads
//! them across racks. Three policies are provided:
//!
//! * [`SiteAwarePolicy`] — HOG §III-B.1: first replica local to the
//!   writer, the rest spread over the sites currently holding the fewest
//!   replicas of the block, preferring emptier nodes inside a site.
//! * [`RackAwarePolicy`] — stock Hadoop 0.20 default (writer, remote
//!   rack, same remote rack, then random); used on the dedicated cluster
//!   where racks are the failure domain.
//! * [`RackObliviousPolicy`] — uniform random placement, the ablation
//!   baseline showing what site awareness buys (experiment X7).

use hog_net::{NodeId, SiteId};
use hog_sim_core::SimRng;

/// A datanode eligible to receive a replica.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The node.
    pub node: NodeId,
    /// Its site.
    pub site: SiteId,
    /// Free bytes on its HDFS partition.
    pub free: u64,
}

/// A replica-target chooser. Implementations must return distinct nodes
/// drawn from `candidates` (never one listed in `existing`), at most `n`
/// of them; fewer when the cluster cannot satisfy the request.
pub trait PlacementPolicy: Send {
    /// Human-readable policy name (report labelling).
    fn name(&self) -> &'static str;

    /// Choose up to `n` targets for a block.
    ///
    /// * `writer` — the datanode co-located with the writing client, if
    ///   any (map outputs written to HDFS, or a datanode-local upload).
    /// * `existing` — `(node, site)` of current replicas (non-empty for
    ///   re-replication).
    /// * `candidates` — eligible datanodes (live, storage OK, enough free
    ///   space); never contains nodes from `existing`.
    fn choose(
        &self,
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        candidates: &[Candidate],
        rng: &mut SimRng,
    ) -> Vec<NodeId>;

    /// Clone this policy into a fresh box. Master checkpointing clones
    /// the whole Namenode, boxed policy included, through this hook.
    fn box_clone(&self) -> Box<dyn PlacementPolicy>;
}

impl Clone for Box<dyn PlacementPolicy> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// HOG's site-aware placement.
#[derive(Clone, Copy, Debug, Default)]
pub struct SiteAwarePolicy;

impl PlacementPolicy for SiteAwarePolicy {
    fn name(&self) -> &'static str {
        "site-aware"
    }

    fn choose(
        &self,
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        candidates: &[Candidate],
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let mut chosen: Vec<NodeId> = Vec::with_capacity(n);
        if n == 0 || candidates.is_empty() {
            return chosen;
        }
        // This runs on every block allocation with n = the replication
        // factor (10 under the HOG preset) over every datanode that can
        // take the block, so it makes one pass over the candidates per
        // call, not per replica. The result depends only on the
        // candidate *set*: the site key is `(replicas so far, site id)`
        // over sites with an unchosen candidate, and inside a site the
        // most free space wins, ties drawn in ascending node order. So
        // the pass threads each candidate onto its site's list (two flat
        // buffers: a head per site, a link per candidate), and each
        // replica scans the sites and then only the chosen site's list.
        const END: u32 = u32::MAX;
        // Per site: (replicas so far, head of its unchosen-candidate list).
        // 64 slots cover every pool the presets build (32 sites at 10k
        // nodes) without a regrowth.
        let mut sites: Vec<(u32, u32)> = Vec::with_capacity(64);
        let slot = |sites: &mut Vec<(u32, u32)>, site: SiteId| {
            let s = site.0 as usize;
            if s >= sites.len() {
                sites.resize(s + 1, (0, END));
            }
            s
        };
        for &(_, site) in existing {
            let s = slot(&mut sites, site);
            sites[s].0 += 1;
        }
        // First replica: data locality — the writer's own datanode, when
        // it is a candidate and this is a fresh write.
        let writer = writer.filter(|_| existing.is_empty());
        let mut next = vec![END; candidates.len()];
        for (i, c) in candidates.iter().enumerate() {
            let s = slot(&mut sites, c.site);
            if Some(c.node) == writer {
                chosen.push(c.node);
                sites[s].0 += 1;
                continue;
            }
            next[i] = sites[s].1;
            sites[s].1 = i as u32;
        }
        // `(node, candidate, predecessor on its site list)`.
        let mut ties: Vec<(NodeId, u32, u32)> = Vec::new();
        while chosen.len() < n {
            // The site with the fewest replicas so far; count ties go to
            // the lowest site id. Only sites that still have an unchosen
            // candidate qualify.
            let mut best: Option<(u32, usize)> = None;
            for (s, &(count, head)) in sites.iter().enumerate() {
                if head != END && best.is_none_or(|(c, _)| count < c) {
                    best = Some((count, s));
                }
            }
            let Some((_, s)) = best else { break };
            // Inside the site prefer the emptiest node, ties drawn under
            // the run rng in ascending node order.
            let mut top_free = 0u64;
            ties.clear();
            let (mut prev, mut i) = (END, sites[s].1);
            while i != END {
                let c = &candidates[i as usize];
                if ties.is_empty() || c.free > top_free {
                    top_free = c.free;
                    ties.clear();
                    ties.push((c.node, i, prev));
                } else if c.free == top_free {
                    ties.push((c.node, i, prev));
                }
                prev = i;
                i = next[i as usize];
            }
            ties.sort_unstable_by_key(|&(node, _, _)| node);
            let (node, pick, prev) = ties[rng.index(ties.len())];
            // Unlink the pick from its site's list.
            let after = next[pick as usize];
            match prev {
                END => sites[s].1 = after,
                p => next[p as usize] = after,
            }
            sites[s].0 += 1;
            chosen.push(node);
        }
        chosen
    }

    fn box_clone(&self) -> Box<dyn PlacementPolicy> {
        Box::new(*self)
    }
}

/// Stock Hadoop 0.20 rack-aware placement (racks == our sites).
#[derive(Clone, Copy, Debug, Default)]
pub struct RackAwarePolicy;

impl PlacementPolicy for RackAwarePolicy {
    fn name(&self) -> &'static str {
        "rack-aware"
    }

    fn choose(
        &self,
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        candidates: &[Candidate],
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let mut chosen: Vec<NodeId> = Vec::with_capacity(n);
        let mut remaining: Vec<&Candidate> = candidates.iter().collect();
        let site_of = |node: NodeId, cands: &[Candidate]| {
            cands.iter().find(|c| c.node == node).map(|c| c.site)
        };
        let take = |pred: &dyn Fn(&Candidate) -> bool,
                    remaining: &mut Vec<&Candidate>,
                    rng: &mut SimRng|
         -> Option<NodeId> {
            let idxs: Vec<usize> = remaining
                .iter()
                .enumerate()
                .filter(|(_, c)| pred(c))
                .map(|(i, _)| i)
                .collect();
            if idxs.is_empty() {
                return None;
            }
            let i = idxs[rng.index(idxs.len())];
            Some(remaining.swap_remove(i).node)
        };

        // Replica 1: the writer's node, else random.
        if chosen.len() < n && existing.is_empty() {
            let first = writer
                .and_then(|w| take(&|c: &Candidate| c.node == w, &mut remaining, rng))
                .or_else(|| take(&|_| true, &mut remaining, rng));
            if let Some(f) = first {
                chosen.push(f);
            }
        }
        // Replica 2: a different rack/site than replica 1 (or than any
        // existing replica, for re-replication).
        if chosen.len() < n {
            let first_site = chosen
                .first()
                .and_then(|&f| site_of(f, candidates))
                .or_else(|| existing.first().map(|&(_, s)| s));
            let second = match first_site {
                Some(fs) => take(&|c: &Candidate| c.site != fs, &mut remaining, rng)
                    .or_else(|| take(&|_| true, &mut remaining, rng)),
                None => take(&|_| true, &mut remaining, rng),
            };
            if let Some(s) = second {
                chosen.push(s);
            }
        }
        // Replica 3: same rack as replica 2, different node.
        if chosen.len() < n {
            let second_site = chosen.last().and_then(|&s| site_of(s, candidates));
            let third = match second_site {
                Some(ss) => take(&|c: &Candidate| c.site == ss, &mut remaining, rng)
                    .or_else(|| take(&|_| true, &mut remaining, rng)),
                None => take(&|_| true, &mut remaining, rng),
            };
            if let Some(t) = third {
                chosen.push(t);
            }
        }
        // The rest: random.
        while chosen.len() < n {
            match take(&|_| true, &mut remaining, rng) {
                Some(x) => chosen.push(x),
                None => break,
            }
        }
        chosen
    }

    fn box_clone(&self) -> Box<dyn PlacementPolicy> {
        Box::new(*self)
    }
}

/// MOON-style anchor placement: the first replica is pinned to a
/// dedicated *anchor* site (nodes that are never preempted), the rest
/// spread site-aware over the opportunistic pool. Models Lin et al.'s
/// MOON, which the paper contrasts with HOG in §V: data durability comes
/// from the anchor, so the opportunistic replication factor can stay low,
/// but the anchor's capacity and bandwidth bound the system.
#[derive(Clone, Copy, Debug)]
pub struct AnchorFirstPolicy {
    /// The dedicated anchor site.
    pub anchor: SiteId,
}

impl PlacementPolicy for AnchorFirstPolicy {
    fn name(&self) -> &'static str {
        "anchor-first"
    }

    fn choose(
        &self,
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        candidates: &[Candidate],
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        if n == 0 || candidates.is_empty() {
            return Vec::new();
        }
        let mut chosen = Vec::with_capacity(n);
        let anchor_has_replica = existing.iter().any(|&(_, s)| s == self.anchor);
        if !anchor_has_replica {
            // Pin one replica to the emptiest anchor node.
            let mut anchors: Vec<&Candidate> = candidates
                .iter()
                .filter(|c| c.site == self.anchor)
                .collect();
            anchors.sort_by_key(|c| (std::cmp::Reverse(c.free), c.node));
            if let Some(a) = anchors.first() {
                chosen.push(a.node);
            }
        }
        // Remaining replicas: site-aware spread over non-anchor nodes.
        let rest: Vec<Candidate> = candidates
            .iter()
            .filter(|c| c.site != self.anchor && !chosen.contains(&c.node))
            .copied()
            .collect();
        let mut existing_rest: Vec<(NodeId, SiteId)> = existing.to_vec();
        for &c in &chosen {
            existing_rest.push((c, self.anchor));
        }
        let more = SiteAwarePolicy.choose(
            writer,
            n.saturating_sub(chosen.len()),
            &existing_rest,
            &rest,
            rng,
        );
        chosen.extend(more);
        chosen.truncate(n);
        chosen
    }

    fn box_clone(&self) -> Box<dyn PlacementPolicy> {
        Box::new(*self)
    }
}

/// Uniform random placement, ignoring topology entirely (ablation).
#[derive(Clone, Copy, Debug, Default)]
pub struct RackObliviousPolicy;

impl PlacementPolicy for RackObliviousPolicy {
    fn name(&self) -> &'static str {
        "rack-oblivious"
    }

    fn choose(
        &self,
        _writer: Option<NodeId>,
        n: usize,
        _existing: &[(NodeId, SiteId)],
        candidates: &[Candidate],
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let mut pool: Vec<NodeId> = candidates.iter().map(|c| c.node).collect();
        rng.shuffle(&mut pool);
        pool.truncate(n);
        pool
    }

    fn box_clone(&self) -> Box<dyn PlacementPolicy> {
        Box::new(*self)
    }
}

/// Restrict `candidates` to stable sites when placing availability-
/// boosted *extra* copies (Trua-style targets above the birth target):
/// an extra copy parked on a churn-prone site would be preempted before
/// it earns its bytes. Filters in place, and leaves the full set when
/// no candidate sits on a stable site — durability first, placement
/// preference second. Relative candidate order is preserved, so
/// downstream policy choices stay deterministic.
pub fn stable_first<F: Fn(SiteId) -> bool>(candidates: &mut Vec<Candidate>, is_stable: F) {
    if candidates.iter().any(|c| is_stable(c.site)) {
        candidates.retain(|c| is_stable(c.site));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The linear site-aware choice this module shipped before the
    /// site-bucketed one: two passes over every candidate per replica.
    /// Kept as the oracle `SiteAwarePolicy::choose` must match.
    fn choose_linear(
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        candidates: &[Candidate],
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let mut chosen: Vec<NodeId> = Vec::with_capacity(n);
        if n == 0 || candidates.is_empty() {
            return chosen;
        }
        let max_site = candidates
            .iter()
            .map(|c| c.site.0)
            .chain(existing.iter().map(|&(_, s)| s.0))
            .max()
            .unwrap_or(0) as usize;
        let mut site_count = vec![0u32; max_site + 1];
        for &(_, s) in existing {
            site_count[s.0 as usize] += 1;
        }
        let mut taken = vec![false; candidates.len()];
        // First replica: data locality — the writer's own datanode, when
        // it is a candidate and this is a fresh write.
        if existing.is_empty() {
            if let Some(w) = writer {
                if let Some(i) = candidates.iter().position(|c| c.node == w) {
                    chosen.push(w);
                    taken[i] = true;
                    site_count[candidates[i].site.0 as usize] += 1;
                }
            }
        }
        let mut ties: Vec<usize> = Vec::new();
        while chosen.len() < n {
            // Pick the site with the fewest replicas so far; break count
            // ties by site id for determinism. Only sites that still have
            // an unchosen candidate qualify.
            let mut best: Option<(u32, SiteId)> = None;
            for (i, c) in candidates.iter().enumerate() {
                if taken[i] {
                    continue;
                }
                let key = (site_count[c.site.0 as usize], c.site);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            let Some((_, site)) = best else { break };
            // Inside the site prefer the emptiest node, tie-broken
            // randomly (via node id shuffle under the run rng). Ties are
            // ordered by ascending node id — what a stable sort by
            // `(Reverse(free), node)` yields — so the draw below lands on
            // the same node the sort-based code picked.
            let mut top_free = 0u64;
            ties.clear();
            for (i, c) in candidates.iter().enumerate() {
                if taken[i] || c.site != site {
                    continue;
                }
                if ties.is_empty() || c.free > top_free {
                    top_free = c.free;
                    ties.clear();
                    ties.push(i);
                } else if c.free == top_free {
                    ties.push(i);
                }
            }
            ties.sort_unstable_by_key(|&i| candidates[i].node);
            let pick = ties[rng.index(ties.len())];
            taken[pick] = true;
            site_count[site.0 as usize] += 1;
            chosen.push(candidates[pick].node);
        }
        chosen
    }

    /// `sites` nodes spread round-robin over `n_sites` sites.
    fn cluster(n_nodes: u32, n_sites: u16) -> Vec<Candidate> {
        (0..n_nodes)
            .map(|i| Candidate {
                node: NodeId(i),
                site: SiteId((i % n_sites as u32) as u16),
                free: 1_000_000,
            })
            .collect()
    }

    fn sites_of(chosen: &[NodeId], cands: &[Candidate]) -> Vec<SiteId> {
        chosen
            .iter()
            .map(|&n| cands.iter().find(|c| c.node == n).unwrap().site)
            .collect()
    }

    #[test]
    fn site_aware_prefers_writer_first() {
        let cands = cluster(20, 5);
        let mut rng = SimRng::seed_from_u64(1);
        let chosen = SiteAwarePolicy.choose(Some(NodeId(7)), 3, &[], &cands, &mut rng);
        assert_eq!(chosen[0], NodeId(7));
        assert_eq!(chosen.len(), 3);
    }

    #[test]
    fn site_aware_spreads_across_sites() {
        let cands = cluster(25, 5);
        let mut rng = SimRng::seed_from_u64(2);
        let chosen = SiteAwarePolicy.choose(None, 5, &[], &cands, &mut rng);
        let mut sites = sites_of(&chosen, &cands);
        sites.sort();
        sites.dedup();
        assert_eq!(sites.len(), 5, "5 replicas over 5 sites must use all 5");
    }

    #[test]
    fn site_aware_ten_replicas_balance_sites() {
        // Replication 10 over 5 sites: exactly 2 per site.
        let cands = cluster(50, 5);
        let mut rng = SimRng::seed_from_u64(3);
        let chosen = SiteAwarePolicy.choose(None, 10, &[], &cands, &mut rng);
        assert_eq!(chosen.len(), 10);
        let sites = sites_of(&chosen, &cands);
        for s in 0..5u16 {
            let k = sites.iter().filter(|&&x| x == SiteId(s)).count();
            assert_eq!(k, 2, "site {s} should hold 2 of 10 replicas");
        }
    }

    #[test]
    fn site_aware_rereplication_avoids_loaded_sites() {
        let cands: Vec<Candidate> = cluster(20, 4)
            .into_iter()
            .filter(|c| c.node != NodeId(0))
            .collect();
        // Existing replicas pile on sites 0 and 1.
        let existing = vec![
            (NodeId(0), SiteId(0)),
            (NodeId(100), SiteId(0)),
            (NodeId(101), SiteId(1)),
        ];
        let mut rng = SimRng::seed_from_u64(4);
        let chosen = SiteAwarePolicy.choose(None, 2, &existing, &cands, &mut rng);
        let sites = sites_of(&chosen, &cands);
        assert!(sites.contains(&SiteId(2)));
        assert!(sites.contains(&SiteId(3)));
    }

    #[test]
    fn site_aware_prefers_empty_nodes_within_site() {
        let mut cands = cluster(10, 1);
        for (i, c) in cands.iter_mut().enumerate() {
            c.free = (i as u64) * 100; // node 9 is emptiest
        }
        let mut rng = SimRng::seed_from_u64(5);
        let chosen = SiteAwarePolicy.choose(None, 1, &[], &cands, &mut rng);
        assert_eq!(chosen, vec![NodeId(9)]);
    }

    #[test]
    fn rack_aware_classic_pattern() {
        let cands = cluster(30, 3);
        let mut rng = SimRng::seed_from_u64(6);
        let chosen = RackAwarePolicy.choose(Some(NodeId(0)), 3, &[], &cands, &mut rng);
        assert_eq!(chosen.len(), 3);
        assert_eq!(chosen[0], NodeId(0));
        let s = sites_of(&chosen, &cands);
        assert_ne!(s[0], s[1], "replica 2 on a different rack");
        assert_eq!(s[1], s[2], "replica 3 on the same rack as replica 2");
        assert_ne!(chosen[1], chosen[2]);
    }

    #[test]
    fn rack_aware_single_site_degenerates_gracefully() {
        let cands = cluster(10, 1);
        let mut rng = SimRng::seed_from_u64(7);
        let chosen = RackAwarePolicy.choose(Some(NodeId(2)), 3, &[], &cands, &mut rng);
        assert_eq!(chosen.len(), 3);
        let mut c = chosen.clone();
        c.dedup();
        assert_eq!(c.len(), 3, "distinct nodes even in one rack");
    }

    #[test]
    fn anchor_first_pins_one_replica() {
        let cands = cluster(20, 4); // site 0 is the anchor
        let policy = AnchorFirstPolicy { anchor: SiteId(0) };
        let mut rng = SimRng::seed_from_u64(17);
        let chosen = policy.choose(None, 3, &[], &cands, &mut rng);
        assert_eq!(chosen.len(), 3);
        let sites = sites_of(&chosen, &cands);
        assert_eq!(
            sites.iter().filter(|&&s| s == SiteId(0)).count(),
            1,
            "exactly one anchor replica: {sites:?}"
        );
    }

    #[test]
    fn anchor_first_skips_anchor_when_already_covered() {
        let cands: Vec<Candidate> = cluster(20, 4)
            .into_iter()
            .filter(|c| c.site != SiteId(0))
            .collect();
        let policy = AnchorFirstPolicy { anchor: SiteId(0) };
        let mut rng = SimRng::seed_from_u64(18);
        // Re-replication with the anchor already holding a copy.
        let existing = vec![(NodeId(100), SiteId(0))];
        let chosen = policy.choose(None, 2, &existing, &cands, &mut rng);
        assert_eq!(chosen.len(), 2);
        let sites = sites_of(&chosen, &cands);
        assert!(sites.iter().all(|&s| s != SiteId(0)));
    }

    #[test]
    fn anchor_first_survives_empty_anchor() {
        // No anchor nodes available: all replicas go opportunistic.
        let cands: Vec<Candidate> = cluster(12, 3)
            .into_iter()
            .map(|mut c| {
                c.site = SiteId(c.site.0 + 1); // sites 1..3, no site 0
                c
            })
            .collect();
        let policy = AnchorFirstPolicy { anchor: SiteId(0) };
        let mut rng = SimRng::seed_from_u64(19);
        let chosen = policy.choose(None, 3, &[], &cands, &mut rng);
        assert_eq!(chosen.len(), 3);
    }

    #[test]
    fn oblivious_ignores_writer() {
        let cands = cluster(100, 5);
        let mut hits = 0;
        for seed in 0..50 {
            let mut rng = SimRng::seed_from_u64(seed);
            let chosen = RackObliviousPolicy.choose(Some(NodeId(3)), 1, &[], &cands, &mut rng);
            if chosen[0] == NodeId(3) {
                hits += 1;
            }
        }
        assert!(hits <= 5, "writer shouldn't be systematically preferred");
    }

    #[test]
    fn all_policies_handle_tiny_clusters() {
        let cands = cluster(2, 1);
        let mut rng = SimRng::seed_from_u64(8);
        for policy in [
            &SiteAwarePolicy as &dyn PlacementPolicy,
            &RackAwarePolicy,
            &RackObliviousPolicy,
        ] {
            let chosen = policy.choose(None, 10, &[], &cands, &mut rng);
            assert_eq!(chosen.len(), 2, "{}: give what exists", policy.name());
            assert_ne!(chosen[0], chosen[1]);
        }
    }

    #[test]
    fn empty_candidates_yield_empty() {
        let mut rng = SimRng::seed_from_u64(9);
        for policy in [
            &SiteAwarePolicy as &dyn PlacementPolicy,
            &RackAwarePolicy,
            &RackObliviousPolicy,
        ] {
            assert!(policy.choose(None, 3, &[], &[], &mut rng).is_empty());
        }
    }

    #[test]
    fn stable_first_filters_and_falls_back() {
        // Sites 0..4, 3 nodes each. Sites 1 and 3 stable: only their
        // nodes survive, order kept.
        let cands = cluster(12, 4);
        let mut filtered = cands.clone();
        stable_first(&mut filtered, |s| s.0 % 2 == 1);
        assert_eq!(filtered.len(), 6);
        assert!(filtered.iter().all(|c| c.site.0 % 2 == 1));
        let ids: Vec<u32> = filtered.iter().map(|c| c.node.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "relative order preserved");
        // No stable site at all: full set returned unchanged.
        let mut fallback = cands.clone();
        stable_first(&mut fallback, |_| false);
        assert_eq!(fallback.len(), cands.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every policy returns distinct nodes drawn from the candidates,
        /// never more than requested or available.
        #[test]
        fn prop_policies_return_valid_sets(
            n_nodes in 1u32..60,
            n_sites in 1u16..6,
            want in 0usize..15,
            seed in 0u64..1000,
            which in 0u8..3,
        ) {
            let cands = cluster(n_nodes, n_sites);
            let mut rng = SimRng::seed_from_u64(seed);
            let policy: &dyn PlacementPolicy = match which {
                0 => &SiteAwarePolicy,
                1 => &RackAwarePolicy,
                _ => &RackObliviousPolicy,
            };
            let chosen = policy.choose(Some(NodeId(0)), want, &[], &cands, &mut rng);
            prop_assert!(chosen.len() <= want);
            prop_assert!(chosen.len() <= cands.len());
            if want > 0 && !cands.is_empty() {
                prop_assert!(!chosen.is_empty(), "{} returned nothing", policy.name());
            }
            let mut uniq = chosen.clone();
            uniq.sort();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), chosen.len(), "duplicates returned");
            for c in &chosen {
                prop_assert!(cands.iter().any(|x| x.node == *c));
            }
        }

        /// The site-bucketed choice returns what the linear oracle
        /// returns under the same rng, draws the rng the same number of
        /// times, and ignores the order of its candidates. Free space
        /// comes from a few values so in-site ties are common, and some
        /// existing replicas sit on sites with no candidate.
        #[test]
        fn prop_site_aware_matches_linear_oracle_in_any_order(
            spec in proptest::collection::vec((0u16..12, 0u64..4), 1..80),
            existing_sites in proptest::collection::vec(0u16..14, 0..4),
            writer in 0u32..100,
            want in 0usize..14,
            seed in 0u64..10_000,
        ) {
            let cands: Vec<Candidate> = spec
                .iter()
                .enumerate()
                .map(|(i, &(site, free))| Candidate {
                    node: NodeId(i as u32 * 3 + 1),
                    site: SiteId(site),
                    free: free * 1_000,
                })
                .collect();
            let existing: Vec<(NodeId, SiteId)> = existing_sites
                .iter()
                .enumerate()
                .map(|(i, &s)| (NodeId(10_000 + i as u32), SiteId(s)))
                .collect();
            let writer = Some(NodeId(writer));
            let run = |cands: &[Candidate], linear: bool| {
                let mut rng = SimRng::seed_from_u64(seed);
                let chosen = if linear {
                    choose_linear(writer, want, &existing, cands, &mut rng)
                } else {
                    SiteAwarePolicy.choose(writer, want, &existing, cands, &mut rng)
                };
                (chosen, rng.index(1 << 30))
            };
            let want_out = run(&cands, true);
            prop_assert_eq!(run(&cands, false), want_out.clone());
            let mut shuffled = cands.clone();
            SimRng::seed_from_u64(seed ^ 0x5eed).shuffle(&mut shuffled);
            prop_assert_eq!(run(&shuffled, false), want_out.clone());
            shuffled.reverse();
            prop_assert_eq!(run(&shuffled, false), want_out);
        }

        /// Site-aware invariant: replica counts across sites never differ
        /// by more than one when every site has spare nodes.
        #[test]
        fn prop_site_aware_balances(
            per_site in 3u32..8,
            n_sites in 2u16..6,
            want in 1usize..12,
            seed in 0u64..500,
        ) {
            let n_nodes = per_site * n_sites as u32;
            let cands = cluster(n_nodes, n_sites);
            let want = want.min(n_nodes as usize);
            let mut rng = SimRng::seed_from_u64(seed);
            let chosen = SiteAwarePolicy.choose(None, want, &[], &cands, &mut rng);
            let sites = sites_of(&chosen, &cands);
            let mut counts = vec![0usize; n_sites as usize];
            for s in sites { counts[s.0 as usize] += 1; }
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            // Only enforce when no site ran out of candidate nodes.
            if max <= per_site as usize {
                prop_assert!(max - min <= 1, "unbalanced: {counts:?}");
            }
        }
    }
}
