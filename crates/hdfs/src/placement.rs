//! Block placement: which datanodes receive a block's replicas.
//!
//! HOG's contribution is extending rack awareness to **site awareness**:
//! sites are common failure domains (whole-site outages, correlated
//! preemption bursts) and intra-site bandwidth dwarfs inter-site bandwidth,
//! so replicas must spread across sites exactly like stock HDFS spreads
//! them across racks. [`crate::HdfsConfig::placement`] picks one of four
//! placements:
//!
//! * [`PlacementKind::SiteAware`] — HOG §III-B.1: first replica local to
//!   the writer, the rest spread over the sites currently holding the
//!   fewest replicas of the block, preferring emptier nodes inside a site.
//! * [`PlacementKind::RackAware`] — stock Hadoop 0.20 default (writer,
//!   remote rack, same remote rack, then random); used on the dedicated
//!   cluster where racks are the failure domain.
//! * [`PlacementKind::RackOblivious`] — uniform random placement, the
//!   ablation baseline showing what site awareness buys (experiment X7).
//! * [`PlacementKind::AnchorFirst`] — MOON-style: one replica pinned to a
//!   dedicated anchor site, the rest site-aware (experiment X5).
//!
//! The two site-aware placements never look at a node outside the head
//! of a site: they read the namenode's free-space index, which keeps each
//! site's `Live` datanodes ordered by free space. The other two draw
//! over the whole candidate list, so the namenode hands them one flat
//! scan of its records ([`Candidate`]).

use crate::datanode::DatanodeInfo;
use hog_net::{NodeId, NodeMap, SiteId, Topology};
use hog_sim_core::{Liveness, SimRng};
use std::cmp::Reverse;

/// A datanode eligible to receive a replica, as the flat placements
/// ([`PlacementKind::RackAware`], [`PlacementKind::RackOblivious`]) see
/// it.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The node.
    pub node: NodeId,
    /// Its site.
    pub site: SiteId,
    /// Free bytes on its HDFS partition.
    pub free: u64,
}

/// Which block placement the namenode uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementKind {
    /// HOG's site-aware policy (§III-B.1).
    SiteAware,
    /// Stock Hadoop rack-aware placement (dedicated cluster).
    RackAware,
    /// Topology-oblivious random placement (ablation X7).
    RackOblivious,
    /// MOON-style: first replica pinned to the named (dedicated) site.
    AnchorFirst {
        /// Name of the anchor site in the resource config.
        site_name: String,
    },
}

impl PlacementKind {
    /// The site [`PlacementKind::AnchorFirst`] pins a replica to, looked
    /// up by name in `topo`. `None` for the other variants, and for a
    /// name `topo` does not have: such an anchor pins nothing and places
    /// exactly as [`PlacementKind::SiteAware`] does.
    pub fn anchor(&self, topo: &Topology) -> Option<SiteId> {
        let PlacementKind::AnchorFirst { site_name } = self else {
            return None;
        };
        topo.sites()
            .iter()
            .find(|s| s.name == *site_name)
            .map(|s| s.id)
    }
}

/// An index entry: most free space first, ties by ascending node.
type Entry = (Reverse<u64>, NodeId);

/// One site's `Live` datanodes, each list ascending by [`Entry`].
#[derive(Clone, Debug, Default)]
struct SiteFree {
    /// Nodes with a repair stream to spare.
    spare: Vec<Entry>,
    /// Nodes at the repair-stream cap: write targets, not repair targets.
    busy: Vec<Entry>,
}

/// The namenode's per-site free-space index: every `Live` datanode,
/// filed under its site by (free bytes descending, node ascending), on
/// the spare or the busy side of the site by whether its repair streams
/// are below the cap. The namenode re-files a node at every change to
/// its record ([`FreeIndex::leave`] before, [`FreeIndex::enter`] after),
/// so the index is always what a recount of the records would build
/// ([`FreeIndex::audit`]).
///
/// A choice reads only site heads: a site's best candidate is its first
/// entry that is not excluded or already chosen, and that entry's tie
/// group (the entries at the same free space) is contiguous and
/// node-ascending, so its size and its `k`-th member come from binary
/// searches. A repair reads only the spare side, so nodes at the stream
/// cap cost it nothing.
#[derive(Clone, Debug)]
pub(crate) struct FreeIndex {
    /// `max_repl_streams_per_node`: a node with this many streams is busy.
    cap: u8,
    /// By site id.
    sites: Vec<SiteFree>,
}

/// What one choice asks the [`FreeIndex`] for. A node qualifies when it
/// is in the index (`Live`), has `size` bytes free, is not excluded or
/// already chosen, sits on an admitted site and, for a repair, has a
/// stream to spare.
pub(crate) struct Ask<'a, A> {
    /// Bytes the block needs.
    pub size: u64,
    /// Replicas wanted.
    pub n: usize,
    /// The writer's datanode and site when the node has room and is not
    /// excluded: a fresh write's first replica, if its site is admitted.
    pub writer: Option<(NodeId, SiteId)>,
    /// `(node, site)` of the block's current replicas.
    pub existing: &'a [(NodeId, SiteId)],
    /// Nodes no replica may go to, ascending and distinct.
    pub exclude: &'a [NodeId],
    /// A repair copy: only nodes with a stream to spare qualify.
    pub spare_only: bool,
    /// The sites a replica may go to.
    pub admit: A,
}

impl<A: Fn(SiteId) -> bool> Ask<'_, A> {
    fn may_take(&self, node: NodeId, chosen: &[NodeId]) -> bool {
        self.exclude.binary_search(&node).is_err() && !chosen.contains(&node)
    }
}

/// Buffers a choice works in, kept by the caller so that choosing
/// allocates nothing once they have grown.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    /// Replicas per site so far.
    counts: Vec<u32>,
    /// Places in a tie group that a draw must skip.
    skip: Vec<usize>,
}

impl FreeIndex {
    /// An empty index for nodes allowed `cap` repair streams.
    pub(crate) fn new(cap: u8) -> Self {
        FreeIndex {
            cap,
            sites: Vec::new(),
        }
    }

    /// The list `dn` belongs on and its entry there; `None` unless the
    /// node is `Live`.
    fn slot(&mut self, node: NodeId, dn: &DatanodeInfo) -> Option<(&mut Vec<Entry>, Entry)> {
        if dn.liveness != Liveness::Live {
            return None;
        }
        let s = dn.site.0 as usize;
        if self.sites.len() <= s {
            self.sites.resize_with(s + 1, SiteFree::default);
        }
        let site = &mut self.sites[s];
        let list = if dn.repl_streams < self.cap {
            &mut site.spare
        } else {
            &mut site.busy
        };
        Some((list, (Reverse(dn.free()), node)))
    }

    /// File `node` as its record `dn` now reads (nothing unless `Live`).
    pub(crate) fn enter(&mut self, node: NodeId, dn: &DatanodeInfo) {
        if let Some((list, entry)) = self.slot(node, dn) {
            let at = list.binary_search(&entry).unwrap_or_else(|at| at);
            list.insert(at, entry);
        }
    }

    /// Take `node` out, where its record `dn` (unchanged since it was
    /// filed) put it.
    pub(crate) fn leave(&mut self, node: NodeId, dn: &DatanodeInfo) {
        if let Some((list, entry)) = self.slot(node, dn) {
            let found = list.binary_search(&entry);
            debug_assert!(
                found.is_ok(),
                "datanode {} is not filed as {entry:?}",
                node.0
            );
            if let Ok(at) = found {
                list.remove(at);
            }
        }
    }

    /// Recount the index against the datanode records: every `Live` node
    /// is filed exactly once, under its site, its free bytes and its side
    /// of the stream cap, and nothing else is filed. One line per
    /// violation.
    pub(crate) fn audit(&self, records: &NodeMap<DatanodeInfo>) -> Vec<String> {
        let mut out = Vec::new();
        let mut filed = 0;
        for (s, site) in self.sites.iter().enumerate() {
            for (side, list) in [("spare", &site.spare), ("busy", &site.busy)] {
                if !list.windows(2).all(|w| w[0] < w[1]) {
                    out.push(format!(
                        "free-space index: site {s}'s {side} list is out of order"
                    ));
                }
                filed += list.len();
            }
        }
        let mut live = 0;
        for (n, dn) in records.iter() {
            if dn.liveness != Liveness::Live {
                continue;
            }
            live += 1;
            let filed_here = self.sites.get(dn.site.0 as usize).is_some_and(|site| {
                let list = if dn.repl_streams < self.cap {
                    &site.spare
                } else {
                    &site.busy
                };
                list.binary_search(&(Reverse(dn.free()), n)).is_ok()
            });
            if !filed_here {
                out.push(format!(
                    "free-space index: live datanode {} is not filed at site {} with {} bytes free",
                    n.0,
                    dn.site.0,
                    dn.free()
                ));
            }
        }
        if filed != live {
            out.push(format!(
                "free-space index: {filed} entries for {live} live datanodes"
            ));
        }
        out
    }

    /// The best entry of site `s` a replica may take: the smaller of its
    /// sides' first qualifying entries. Sorted by free space, a side's
    /// walk stops at the first entry without room and passes only the
    /// excluded and chosen nodes before it.
    fn head<A: Fn(SiteId) -> bool>(
        &self,
        s: usize,
        ask: &Ask<'_, A>,
        chosen: &[NodeId],
    ) -> Option<Entry> {
        let site = self.sites.get(s)?;
        let first = |list: &[Entry]| {
            list.iter()
                .take_while(|e| e.0 .0 >= ask.size)
                .find(|e| ask.may_take(e.1, chosen))
                .copied()
        };
        let spare = first(&site.spare);
        if ask.spare_only {
            return spare;
        }
        match (spare, first(&site.busy)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Whether some admitted site has a node `ask` may take.
    pub(crate) fn any<A: Fn(SiteId) -> bool>(&self, ask: &Ask<'_, A>) -> bool {
        (0..self.sites.len())
            .any(|s| (ask.admit)(SiteId(s as u16)) && self.head(s, ask, &[]).is_some())
    }

    /// Draw one node of site `s`'s tie group at `free` bytes: the group's
    /// qualifying nodes in ascending order, one `rng.index` over them.
    fn draw<A: Fn(SiteId) -> bool>(
        &self,
        s: usize,
        free: u64,
        ask: &Ask<'_, A>,
        chosen: &[NodeId],
        skip: &mut Vec<usize>,
        rng: &mut SimRng,
    ) -> NodeId {
        let site = &self.sites[s];
        let spare = tie_group(&site.spare, free);
        let busy = if ask.spare_only {
            &[][..]
        } else {
            tie_group(&site.busy, free)
        };
        // The group's excluded and chosen members, by place in the group.
        skip.clear();
        for &x in ask.exclude.iter().chain(chosen) {
            let entry = (Reverse(free), x);
            if spare.binary_search(&entry).is_ok() || busy.binary_search(&entry).is_ok() {
                skip.push(spare.partition_point(|e| e.1 < x) + busy.partition_point(|e| e.1 < x));
            }
        }
        skip.sort_unstable();
        let mut place = rng.index(spare.len() + busy.len() - skip.len());
        for &at in skip.iter() {
            if at > place {
                break;
            }
            place += 1;
        }
        nth_of_union(spare, busy, place)
    }

    /// Spread replicas site-aware until `out` holds `ask.n`, given the
    /// replicas per site so far in `scratch.counts` (one slot per index
    /// site). First the writer's node, when `writer_first` and it
    /// qualifies; then, per replica, the site with the fewest replicas
    /// (count ties to the lowest site id) among sites with a qualifying
    /// node, and in it the most free space, ties drawn in ascending node
    /// order.
    fn spread<A: Fn(SiteId) -> bool>(
        &self,
        ask: &Ask<'_, A>,
        writer_first: bool,
        scratch: &mut Scratch,
        rng: &mut SimRng,
        out: &mut Vec<NodeId>,
    ) {
        let Scratch { counts, skip } = scratch;
        if let Some((w, s)) = ask.writer.filter(|&(_, s)| writer_first && (ask.admit)(s)) {
            out.push(w);
            counts[s.0 as usize] += 1;
        }
        while out.len() < ask.n {
            let mut best: Option<(u32, usize, u64)> = None;
            for (s, &count) in counts.iter().enumerate() {
                if best.is_some_and(|(c, _, _)| count >= c) || !(ask.admit)(SiteId(s as u16)) {
                    continue;
                }
                if let Some((Reverse(free), _)) = self.head(s, ask, out) {
                    best = Some((count, s, free));
                }
            }
            let Some((_, s, free)) = best else { break };
            let node = self.draw(s, free, ask, out, skip, rng);
            out.push(node);
            counts[s] += 1;
        }
    }

    /// Load `scratch.counts` with `existing`'s replicas per index site.
    fn count(&self, existing: &[(NodeId, SiteId)], scratch: &mut Scratch) {
        scratch.counts.clear();
        scratch.counts.resize(self.sites.len(), 0);
        for &(_, s) in existing {
            // A site the index never filed a node under has no candidate.
            if let Some(c) = scratch.counts.get_mut(s.0 as usize) {
                *c += 1;
            }
        }
    }

    /// HOG's site-aware placement into `out` (empty on entry).
    pub(crate) fn site_aware<A: Fn(SiteId) -> bool>(
        &self,
        ask: &Ask<'_, A>,
        scratch: &mut Scratch,
        rng: &mut SimRng,
        out: &mut Vec<NodeId>,
    ) {
        if ask.n == 0 {
            return;
        }
        self.count(ask.existing, scratch);
        self.spread(ask, ask.existing.is_empty(), scratch, rng, out);
    }

    /// MOON-style anchor placement into `out` (empty on entry): unless
    /// the block already has a replica on the dedicated `anchor` site
    /// (nodes that are never preempted), its first replica goes to the
    /// anchor's emptiest qualifying node; the rest spread site-aware over
    /// the opportunistic pool. Models Lin et al.'s MOON, which the paper
    /// contrasts with HOG in §V: data durability comes from the anchor,
    /// so the opportunistic replication factor can stay low, but the
    /// anchor's capacity and bandwidth bound the system.
    pub(crate) fn anchor_first<A: Fn(SiteId) -> bool>(
        &self,
        anchor: SiteId,
        ask: &Ask<'_, A>,
        scratch: &mut Scratch,
        rng: &mut SimRng,
        out: &mut Vec<NodeId>,
    ) {
        if ask.n == 0 {
            return;
        }
        if (ask.admit)(anchor) && !ask.existing.iter().any(|&(_, s)| s == anchor) {
            if let Some((_, node)) = self.head(anchor.0 as usize, ask, out) {
                out.push(node);
            }
        }
        let rest = Ask {
            size: ask.size,
            n: ask.n,
            writer: ask.writer,
            existing: ask.existing,
            exclude: ask.exclude,
            spare_only: ask.spare_only,
            admit: |s: SiteId| s != anchor && (ask.admit)(s),
        };
        self.count(ask.existing, scratch);
        // The pin counts as an existing replica: no writer-first after it.
        let writer_first = ask.existing.is_empty() && out.is_empty();
        self.spread(&rest, writer_first, scratch, rng, out);
    }
}

/// The entries of `list` at exactly `free` bytes: contiguous, and
/// ascending by node.
fn tie_group(list: &[Entry], free: u64) -> &[Entry] {
    let lo = list.partition_point(|e| e.0 .0 > free);
    let len = list[lo..].partition_point(|e| e.0 .0 == free);
    &list[lo..lo + len]
}

/// The `place`-th node (from 0) of two node-ascending, disjoint runs
/// taken together.
fn nth_of_union(a: &[Entry], b: &[Entry], place: usize) -> NodeId {
    if b.is_empty() {
        return a[place].1;
    }
    // An entry's place in the union is its index in its own run plus the
    // entries of the other run below it; that grows with the index.
    let find = |a: &[Entry], b: &[Entry]| {
        let at = |i: usize| i + b.partition_point(|e| e.1 < a[i].1);
        let (mut lo, mut hi) = (0, a.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if at(mid) < place {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < a.len() && at(lo) == place).then(|| a[lo].1)
    };
    find(a, b)
        .or_else(|| find(b, a))
        .expect("the place lies inside the union")
}

/// Stock Hadoop 0.20 rack-aware placement (racks == our sites).
pub(crate) fn rack_aware(
    writer: Option<NodeId>,
    n: usize,
    existing: &[(NodeId, SiteId)],
    candidates: &[Candidate],
    rng: &mut SimRng,
) -> Vec<NodeId> {
    let mut chosen: Vec<NodeId> = Vec::with_capacity(n);
    let mut remaining: Vec<&Candidate> = candidates.iter().collect();
    let site_of =
        |node: NodeId, cands: &[Candidate]| cands.iter().find(|c| c.node == node).map(|c| c.site);
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

/// Uniform random placement, ignoring topology entirely (ablation).
pub(crate) fn rack_oblivious(n: usize, candidates: &[Candidate], rng: &mut SimRng) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = candidates.iter().map(|c| c.node).collect();
    rng.shuffle(&mut pool);
    pool.truncate(n);
    pool
}

/// Restrict `candidates` to stable sites when placing availability-
/// boosted *extra* copies (Trua-style targets above the birth target):
/// an extra copy parked on a churn-prone site would be preempted before
/// it earns its bytes. Filters in place, and leaves the full set when
/// no candidate sits on a stable site — durability first, placement
/// preference second. Relative candidate order is preserved, so
/// downstream policy choices stay deterministic. (The site-aware
/// placements apply the same rule as a site filter on the
/// free-space index.)
pub fn stable_first<F: Fn(SiteId) -> bool>(candidates: &mut Vec<Candidate>, is_stable: F) {
    if candidates.iter().any(|c| is_stable(c.site)) {
        candidates.retain(|c| is_stable(c.site));
    }
}

/// The choices over a flat candidate list that the namenode made before
/// the [`FreeIndex`]: the oracles the index-driven choices must match.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Choose up to `n` targets from `candidates` (never one listed in
    /// `existing`) as `placement` does, with `anchor` its
    /// [`PlacementKind::anchor`].
    pub(crate) fn choose(
        placement: &PlacementKind,
        anchor: Option<SiteId>,
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        candidates: &[Candidate],
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        match (placement, anchor) {
            (PlacementKind::RackAware, _) => rack_aware(writer, n, existing, candidates, rng),
            (PlacementKind::RackOblivious, _) => rack_oblivious(n, candidates, rng),
            (PlacementKind::AnchorFirst { .. }, Some(anchor)) => {
                anchor_first(anchor, writer, n, existing, candidates, rng)
            }
            _ => site_aware(writer, n, existing, candidates, rng),
        }
    }

    /// The linear site-aware choice: two passes over every candidate per
    /// replica.
    pub(crate) fn site_aware(
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
            // `(Reverse(free), node)` yields.
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

    /// Anchor placement over a candidate list: the emptiest anchor
    /// candidate, then [`site_aware`] over the non-anchor rest.
    fn anchor_first(
        anchor: SiteId,
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
        if !existing.iter().any(|&(_, s)| s == anchor) {
            let mut anchors: Vec<&Candidate> =
                candidates.iter().filter(|c| c.site == anchor).collect();
            anchors.sort_by_key(|c| (Reverse(c.free), c.node));
            if let Some(a) = anchors.first() {
                chosen.push(a.node);
            }
        }
        let rest: Vec<Candidate> = candidates
            .iter()
            .filter(|c| c.site != anchor && !chosen.contains(&c.node))
            .copied()
            .collect();
        let mut existing_rest: Vec<(NodeId, SiteId)> = existing.to_vec();
        for &c in &chosen {
            existing_rest.push((c, anchor));
        }
        let more = site_aware(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use hog_sim_core::SimTime;
    use proptest::prelude::*;

    /// `placement`'s choice as the namenode makes it, with `candidates`
    /// as the only `Live` datanodes: the site-aware arms read an index of
    /// them, the flat arms the list itself.
    fn choose(
        placement: &PlacementKind,
        anchor: Option<SiteId>,
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        candidates: &[Candidate],
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let mut index = FreeIndex::new(u8::MAX);
        for c in candidates {
            index.enter(c.node, &DatanodeInfo::new(c.free, c.site, SimTime::ZERO));
        }
        let ask = Ask {
            size: 0,
            n,
            writer: writer
                .and_then(|w| candidates.iter().find(|c| c.node == w))
                .map(|c| (c.node, c.site)),
            existing,
            exclude: &[],
            spare_only: false,
            admit: |_| true,
        };
        let mut out = Vec::new();
        let mut scratch = Scratch::default();
        match (placement, anchor) {
            (PlacementKind::RackAware | PlacementKind::RackOblivious, _) => {
                out = oracle::choose(placement, anchor, writer, n, existing, candidates, rng);
            }
            (PlacementKind::AnchorFirst { .. }, Some(a)) => {
                index.anchor_first(a, &ask, &mut scratch, rng, &mut out)
            }
            _ => index.site_aware(&ask, &mut scratch, rng, &mut out),
        }
        out
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

    /// Anchor placement on site `"A"`, which is [`ANCHOR`] wherever
    /// the tests build a topology.
    fn anchored() -> PlacementKind {
        PlacementKind::AnchorFirst {
            site_name: "A".into(),
        }
    }

    const ANCHOR: Option<SiteId> = Some(SiteId(0));

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
        let chosen = choose(
            &PlacementKind::SiteAware,
            None,
            Some(NodeId(7)),
            3,
            &[],
            &cands,
            &mut rng,
        );
        assert_eq!(chosen[0], NodeId(7));
        assert_eq!(chosen.len(), 3);
    }

    #[test]
    fn site_aware_spreads_across_sites() {
        let cands = cluster(25, 5);
        let mut rng = SimRng::seed_from_u64(2);
        let chosen = choose(
            &PlacementKind::SiteAware,
            None,
            None,
            5,
            &[],
            &cands,
            &mut rng,
        );
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
        let chosen = choose(
            &PlacementKind::SiteAware,
            None,
            None,
            10,
            &[],
            &cands,
            &mut rng,
        );
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
        let chosen = choose(
            &PlacementKind::SiteAware,
            None,
            None,
            2,
            &existing,
            &cands,
            &mut rng,
        );
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
        let chosen = choose(
            &PlacementKind::SiteAware,
            None,
            None,
            1,
            &[],
            &cands,
            &mut rng,
        );
        assert_eq!(chosen, vec![NodeId(9)]);
    }

    #[test]
    fn rack_aware_classic_pattern() {
        let cands = cluster(30, 3);
        let mut rng = SimRng::seed_from_u64(6);
        let chosen = choose(
            &PlacementKind::RackAware,
            None,
            Some(NodeId(0)),
            3,
            &[],
            &cands,
            &mut rng,
        );
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
        let chosen = choose(
            &PlacementKind::RackAware,
            None,
            Some(NodeId(2)),
            3,
            &[],
            &cands,
            &mut rng,
        );
        assert_eq!(chosen.len(), 3);
        let mut c = chosen.clone();
        c.dedup();
        assert_eq!(c.len(), 3, "distinct nodes even in one rack");
    }

    #[test]
    fn anchor_first_pins_one_replica() {
        let cands = cluster(20, 4); // site 0 is the anchor
        let mut rng = SimRng::seed_from_u64(17);
        let chosen = choose(&anchored(), ANCHOR, None, 3, &[], &cands, &mut rng);
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
        let mut rng = SimRng::seed_from_u64(18);
        // Re-replication with the anchor already holding a copy.
        let existing = vec![(NodeId(100), SiteId(0))];
        let chosen = choose(&anchored(), ANCHOR, None, 2, &existing, &cands, &mut rng);
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
        let mut rng = SimRng::seed_from_u64(19);
        let chosen = choose(&anchored(), ANCHOR, None, 3, &[], &cands, &mut rng);
        assert_eq!(chosen.len(), 3);
    }

    #[test]
    fn anchor_first_finds_its_site_by_name() {
        let mut topo = Topology::new();
        for name in ["A", "B", "C", "D"] {
            topo.add_site(name, format!("{name}.edu"));
        }
        let mut cands = cluster(20, 4);
        cands[8].free *= 2; // node 8, on site A: its emptiest node
        let pick = |placement: &PlacementKind| {
            let mut rng = SimRng::seed_from_u64(20);
            choose(
                placement,
                placement.anchor(&topo),
                None,
                3,
                &[],
                &cands,
                &mut rng,
            )
        };
        let a = anchored();
        assert_eq!(a.anchor(&topo), ANCHOR);
        assert_eq!(pick(&a)[0], NodeId(8), "the anchor replica");
        // A site the topology lacks pins nothing: site-aware placement.
        let z = PlacementKind::AnchorFirst {
            site_name: "Z".into(),
        };
        assert_eq!(z.anchor(&topo), None);
        assert_eq!(pick(&z), pick(&PlacementKind::SiteAware));
    }

    #[test]
    fn oblivious_ignores_writer() {
        let cands = cluster(100, 5);
        let mut hits = 0;
        for seed in 0..50 {
            let mut rng = SimRng::seed_from_u64(seed);
            let chosen = choose(
                &PlacementKind::RackOblivious,
                None,
                Some(NodeId(3)),
                1,
                &[],
                &cands,
                &mut rng,
            );
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
            PlacementKind::SiteAware,
            PlacementKind::RackAware,
            PlacementKind::RackOblivious,
        ] {
            let chosen = choose(&policy, None, None, 10, &[], &cands, &mut rng);
            assert_eq!(chosen.len(), 2, "{policy:?}: give what exists");
            assert_ne!(chosen[0], chosen[1]);
        }
    }

    #[test]
    fn empty_candidates_yield_empty() {
        let mut rng = SimRng::seed_from_u64(9);
        for policy in [
            PlacementKind::SiteAware,
            PlacementKind::RackAware,
            PlacementKind::RackOblivious,
        ] {
            assert!(choose(&policy, None, None, 3, &[], &[], &mut rng).is_empty());
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

    #[test]
    fn union_draw_walks_both_runs_in_node_order() {
        let run =
            |ids: &[u32]| -> Vec<Entry> { ids.iter().map(|&i| (Reverse(5), NodeId(i))).collect() };
        let (a, b) = (run(&[1, 4, 5, 9]), run(&[2, 3, 7]));
        let all: Vec<u32> = (0..7).map(|p| nth_of_union(&a, &b, p).0).collect();
        assert_eq!(all, vec![1, 2, 3, 4, 5, 7, 9]);
        assert_eq!(nth_of_union(&a, &[], 2), NodeId(5));
        assert_eq!(nth_of_union(&[], &b, 1), NodeId(3));
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
            let policy = match which {
                0 => PlacementKind::SiteAware,
                1 => PlacementKind::RackAware,
                _ => PlacementKind::RackOblivious,
            };
            let chosen = choose(&policy, None, Some(NodeId(0)), want, &[], &cands, &mut rng);
            prop_assert!(chosen.len() <= want);
            prop_assert!(chosen.len() <= cands.len());
            if want > 0 && !cands.is_empty() {
                prop_assert!(!chosen.is_empty(), "{:?} returned nothing", policy);
            }
            let mut uniq = chosen.clone();
            uniq.sort();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), chosen.len(), "duplicates returned");
            for c in &chosen {
                prop_assert!(cands.iter().any(|x| x.node == *c));
            }
        }

        /// The index-driven site-aware and anchor-first choices return
        /// what the linear oracle returns over the candidates a flat scan
        /// would list, under the same rng, and draw the rng the same
        /// number of times. Free space comes from a few values, and one
        /// value in three is the full disk of a fresh node, so tie groups
        /// run large; some nodes are at the stream cap (repair targets
        /// skip them, write targets do not), some are excluded or lack
        /// room for the block, some sites are not admitted, some existing
        /// replicas sit on sites with no candidate, and the writer may or
        /// may not qualify.
        #[test]
        fn prop_indexed_choice_matches_linear_oracle(
            spec in proptest::collection::vec((0u16..12, 0u64..6, proptest::bool::ANY, 0u8..8), 1..120),
            existing_sites in proptest::collection::vec(0u16..14, 0..4),
            (writer, want, size) in (0u32..130, 0usize..14, 0u64..3),
            (spare_only, admitted, anchor) in (proptest::bool::ANY, 0u16..4096, 0u16..20),
            seed in 0u64..10_000,
        ) {
            let nodes: Vec<(Candidate, bool, bool)> = spec
                .iter()
                .enumerate()
                .map(|(i, &(site, free, busy, flag))| {
                    let free = if free >= 3 { 9_000 } else { free * 1_000 };
                    let cand = Candidate { node: NodeId(i as u32), site: SiteId(site), free };
                    (cand, busy, flag == 0)
                })
                .collect();
            let size = size * 1_000;
            let admit = |s: SiteId| admitted & (1 << (s.0 % 12)) != 0;
            let exclude: Vec<NodeId> = nodes.iter().filter(|n| n.2).map(|n| n.0.node).collect();
            let qualifies = |&(c, busy, excluded): &(Candidate, bool, bool)| {
                c.free >= size && !excluded && !(spare_only && busy) && admit(c.site)
            };
            let flat: Vec<Candidate> = nodes.iter().filter(|n| qualifies(n)).map(|n| n.0).collect();
            let existing: Vec<(NodeId, SiteId)> = existing_sites
                .iter()
                .enumerate()
                .map(|(i, &s)| (NodeId(10_000 + i as u32), SiteId(s)))
                .collect();
            // Only a write has a writer.
            let writer = (!spare_only).then_some(NodeId(writer));
            // Anchor-first on one of the sites in use, or on none.
            let anchor = (anchor < 13).then_some(anchor);
            let placement = match anchor {
                Some(_) => PlacementKind::AnchorFirst { site_name: "A".into() },
                None => PlacementKind::SiteAware,
            };
            let anchor = anchor.map(SiteId);
            let mut want_rng = SimRng::seed_from_u64(seed);
            let want_out = oracle::choose(&placement, anchor, writer, want, &existing, &flat, &mut want_rng);

            let mut index = FreeIndex::new(2);
            for &(c, busy, _) in &nodes {
                let mut dn = DatanodeInfo::new(c.free, c.site, SimTime::ZERO);
                dn.repl_streams = if busy { 2 } else { 0 };
                index.enter(c.node, &dn);
            }
            let ask = Ask {
                size,
                n: want,
                writer: writer
                    .and_then(|w| nodes.iter().find(|n| n.0.node == w && n.0.free >= size && !n.2))
                    .map(|n| (n.0.node, n.0.site)),
                existing: &existing,
                exclude: &exclude,
                spare_only,
                admit,
            };
            let mut rng = SimRng::seed_from_u64(seed);
            let mut got = Vec::new();
            match anchor {
                Some(a) => index.anchor_first(a, &ask, &mut Scratch::default(), &mut rng, &mut got),
                None => index.site_aware(&ask, &mut Scratch::default(), &mut rng, &mut got),
            }
            prop_assert_eq!(&got, &want_out);
            prop_assert_eq!(rng.next_u64(), want_rng.next_u64());
            prop_assert_eq!(index.any(&ask), !flat.is_empty());
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
            let chosen = choose(&PlacementKind::SiteAware, None, None, want, &[], &cands, &mut rng);
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
