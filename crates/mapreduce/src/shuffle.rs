//! Per-reduce shuffle bookkeeping.
//!
//! Each reduce must fetch one partition from every map. Fetches are
//! batched: all currently-available partitions living at one *site* are
//! pulled in a single network flow (the flow's source is marked "diffuse"
//! in the fluid model, since the bytes really stream from many nodes of
//! that site in parallel). This keeps the flow count per reduce at
//! O(sites × waves) instead of O(maps), matching the granularity at which
//! the WAN — the paper's bottleneck — is actually exercised.

use hog_net::{NodeId, SiteId};
use std::collections::{HashMap, HashSet};

/// One shuffle fetch: pull `bytes` (the partitions of `maps`) from site
/// `src_site`, using `src_rep` as the representative flow endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchOrder {
    /// Map indices covered by this fetch.
    pub maps: Vec<u32>,
    /// Representative source node (one of the map-output holders).
    pub src_rep: NodeId,
    /// Site the bytes come from.
    pub src_site: SiteId,
    /// Total bytes of this batch.
    pub bytes: u64,
}

/// Where a pending map partition currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Source {
    node: NodeId,
    site: SiteId,
    bytes: u64,
}

/// Shuffle state of one reduce attempt.
#[derive(Clone, Debug, Default)]
pub struct ReducePlan {
    /// Map partitions not yet fetched, keyed by map index. `None` source
    /// means the output was lost and the map is being re-executed.
    pending: HashMap<u32, Option<Source>>,
    /// Fetches currently in flight (order id → covered maps).
    in_flight: HashMap<u64, Vec<u32>>,
    /// Map indices whose partitions this reduce already holds.
    fetched_maps: HashSet<u32>,
    next_order_id: u64,
    fetched: u32,
    total: u32,
    /// Set once the JobTracker answered `StartSort`: the attempt is past
    /// its shuffle and waits for nothing more.
    pub(crate) sorting: bool,
}

impl ReducePlan {
    /// A plan expecting `total_maps` partitions. Completed maps are added
    /// via [`ReducePlan::map_available`] (including those that finished
    /// before the reduce started).
    pub fn new(total_maps: u32) -> Self {
        ReducePlan {
            pending: HashMap::new(),
            in_flight: HashMap::new(),
            fetched_maps: HashSet::new(),
            next_order_id: 0,
            fetched: 0,
            total: total_maps,
            sorting: false,
        }
    }

    /// A map's output became available on `node`.
    pub fn map_available(&mut self, map: u32, node: NodeId, site: SiteId, bytes: u64) {
        if self.is_fetched(map) || self.in_flight.values().flatten().any(|&m| m == map) {
            return;
        }
        self.pending.insert(map, Some(Source { node, site, bytes }));
    }

    /// A map's output was lost (its node died); it will reappear via
    /// [`ReducePlan::map_available`] once re-executed.
    pub fn map_lost(&mut self, map: u32) {
        if !self.is_fetched(map) {
            self.pending.insert(map, None);
        }
    }

    fn is_fetched(&self, map: u32) -> bool {
        // A map is fetched iff it is neither pending nor in flight and the
        // fetched counter accounts for it. We track explicitly:
        self.fetched_maps.contains(&map)
    }

    /// How many partitions have been fetched.
    pub fn fetched_count(&self) -> u32 {
        self.fetched
    }

    /// True when every one of the `total` partitions has been fetched.
    pub fn complete(&self) -> bool {
        self.fetched == self.total
    }

    /// Number of fetches currently in flight.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Emit up to `limit - in_flight` new fetch orders, batching pending
    /// partitions by source site (largest batch first). Returns the order
    /// ids paired with the orders.
    pub fn next_orders(&mut self, limit: usize) -> Vec<(u64, FetchOrder)> {
        let mut out = Vec::new();
        while self.in_flight.len() < limit {
            // Group pending-with-source by site.
            let mut by_site: HashMap<SiteId, Vec<(u32, Source)>> = HashMap::new();
            for (&m, src) in &self.pending {
                if let Some(s) = src {
                    by_site.entry(s.site).or_default().push((m, *s));
                }
            }
            if by_site.is_empty() {
                break;
            }
            // Largest batch first; site id tie-break for determinism.
            let (&site, _) = by_site
                .iter()
                .max_by_key(|(&s, v)| {
                    (
                        v.iter().map(|(_, x)| x.bytes).sum::<u64>(),
                        std::cmp::Reverse(s),
                    )
                })
                .unwrap();
            let mut batch = by_site.remove(&site).unwrap();
            batch.sort_by_key(|&(m, _)| m);
            let maps: Vec<u32> = batch.iter().map(|&(m, _)| m).collect();
            let bytes: u64 = batch.iter().map(|&(_, s)| s.bytes).sum();
            let src_rep = batch[0].1.node;
            for &(m, _) in &batch {
                self.pending.remove(&m);
            }
            let id = self.next_order_id;
            self.next_order_id += 1;
            self.in_flight.insert(id, maps.clone());
            out.push((
                id,
                FetchOrder {
                    maps,
                    src_rep,
                    src_site: site,
                    bytes,
                },
            ));
        }
        out
    }

    /// A fetch completed: its maps are now held by the reduce.
    pub fn fetch_done(&mut self, order: u64) {
        if let Some(maps) = self.in_flight.remove(&order) {
            for m in maps {
                self.fetched += 1;
                self.fetched_maps.insert(m);
            }
        }
    }

    /// A fetch failed (source vanished): its maps return to pending
    /// *without* a source; callers re-add sources for maps whose outputs
    /// still exist via [`ReducePlan::map_available`]. Returns the affected
    /// map indices (drives the JobTracker's too-many-fetch-failures map
    /// re-execution).
    pub fn fetch_failed(&mut self, order: u64) -> Vec<u32> {
        if let Some(maps) = self.in_flight.remove(&order) {
            for &m in &maps {
                self.pending.insert(m, None);
            }
            maps
        } else {
            Vec::new()
        }
    }

    /// Maps currently without a known source (diagnostics/tests).
    pub fn sourceless(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, s)| s.is_none())
            .map(|(&m, _)| m)
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan3() -> ReducePlan {
        let mut p = ReducePlan::new(3);
        p.map_available(0, NodeId(1), SiteId(0), 100);
        p.map_available(1, NodeId(2), SiteId(0), 100);
        p.map_available(2, NodeId(9), SiteId(1), 50);
        p
    }

    #[test]
    fn batches_by_site_largest_first() {
        let mut p = plan3();
        let orders = p.next_orders(2);
        assert_eq!(orders.len(), 2);
        let (_, first) = &orders[0];
        assert_eq!(first.src_site, SiteId(0));
        assert_eq!(first.maps, vec![0, 1]);
        assert_eq!(first.bytes, 200);
        let (_, second) = &orders[1];
        assert_eq!(second.src_site, SiteId(1));
        assert_eq!(second.maps, vec![2]);
    }

    #[test]
    fn parallel_limit_respected() {
        let mut p = plan3();
        let orders = p.next_orders(1);
        assert_eq!(orders.len(), 1);
        assert_eq!(p.in_flight_count(), 1);
        // No more until the first completes.
        assert!(p.next_orders(1).is_empty());
    }

    #[test]
    fn completion_tracking() {
        let mut p = plan3();
        let orders = p.next_orders(5);
        assert!(!p.complete());
        for (id, _) in orders {
            p.fetch_done(id);
        }
        assert_eq!(p.fetched_count(), 3);
        assert!(p.complete());
    }

    #[test]
    fn failed_fetch_returns_maps_sourceless() {
        let mut p = plan3();
        let orders = p.next_orders(5);
        let (id, order) = &orders[0];
        p.fetch_failed(*id);
        assert_eq!(p.sourceless(), order.maps.clone());
        // Re-adding sources makes them fetchable again.
        for &m in &order.maps {
            p.map_available(m, NodeId(5), SiteId(2), 100);
        }
        let retry = p.next_orders(5);
        assert!(!retry.is_empty());
    }

    #[test]
    fn late_maps_join_later_waves() {
        let mut p = ReducePlan::new(2);
        p.map_available(0, NodeId(1), SiteId(0), 10);
        let o1 = p.next_orders(4);
        assert_eq!(o1.len(), 1);
        p.fetch_done(o1[0].0);
        assert!(!p.complete());
        p.map_available(1, NodeId(2), SiteId(0), 10);
        let o2 = p.next_orders(4);
        assert_eq!(o2.len(), 1);
        p.fetch_done(o2[0].0);
        assert!(p.complete());
    }

    #[test]
    fn duplicate_availability_is_ignored_once_fetched() {
        let mut p = ReducePlan::new(1);
        p.map_available(0, NodeId(1), SiteId(0), 10);
        let o = p.next_orders(1);
        p.fetch_done(o[0].0);
        p.map_available(0, NodeId(3), SiteId(1), 10); // stale re-announcement
        assert!(p.next_orders(1).is_empty());
        assert!(p.complete());
    }

    #[test]
    fn map_lost_then_reexecuted() {
        let mut p = ReducePlan::new(1);
        p.map_lost(0);
        assert!(p.next_orders(1).is_empty(), "no source yet");
        p.map_available(0, NodeId(4), SiteId(0), 10);
        let o = p.next_orders(1);
        assert_eq!(o.len(), 1);
    }
}
