//! Event-driven max-min fair fluid-flow network.
//!
//! Every in-flight transfer is a *fluid flow* with a current rate assigned
//! by progressive filling (water-filling) over the links it traverses:
//!
//! * intra-site flow: `src NIC up → dst NIC down`
//! * inter-site flow: `src NIC up → src site uplink → dst site downlink →
//!   dst NIC down`
//! * loopback (src == dst): a fixed unshared local-copy rate
//!
//! Whenever the flow set changes (start, cancel, completion, node death)
//! rates are recomputed. This is the classic NS-style fluid approximation:
//! it captures the paper's key effects — WAN shuffle is slow because many
//! reducers share one site uplink, while intra-site traffic only contends
//! for NICs — without packet-level cost.
//!
//! Propagation latency is deliberately **not** folded into flow completion
//! times; bulk transfers are bandwidth-dominated and RPC latency is modelled
//! explicitly by the substrates via [`Network::latency`].
//!
//! # Scale path (DESIGN.md §10)
//!
//! The naive formulation progressed *every* flow and re-ran a *global*
//! waterfilling pass on every flow event — O(flows × links) work per event.
//! This implementation is incremental while reproducing the same simulated
//! outcomes:
//!
//! * **Persistent tables** — `LinkKey`s are interned to dense `u32` ids
//!   once, node→site lookups are a dense `Vec`, and each link keeps its
//!   member-flow list up to date, so no per-recompute `HashMap` is built.
//! * **Lazy flow progress** — a flow's `remaining` is rebased only when its
//!   component is recomputed. Completion instants are *predicted* with the
//!   same millisecond-grain arithmetic the eager version used
//!   (`remaining − rate·(Δms/1000) < DONE_EPS`), kept in a min-heap, and
//!   harvested when simulation time passes them.
//! * **Component-local recompute** — a flow start/end only re-waterfills
//!   the connected component of links it touches. Disjoint components
//!   cannot exchange bandwidth, and the freezing pass visits the affected
//!   links in the same relative order as the global pass, so the computed
//!   rates are identical (see DESIGN.md §10 for the argument).
//! * **Deferred recompute** — a flow start only registers the flow and
//!   queues its links. The queue is flushed before any other [`Network`]
//!   call and whenever time advances, with one pass per connected
//!   component reachable from the queued links, so a burst of starts at
//!   one instant (a block write fanning out to its replicas, a
//!   replication-monitor tick) costs one pass per component instead of one
//!   per start. Between flushes components only merge, so each flushed
//!   pass has the same members in the same order as that component's last
//!   one-per-start pass would have had.
//! * **Allocation-free passes** — the waterfilling tables live in buffers
//!   reused across passes (each local link's members in one CSR array),
//!   and a flow whose predicted instants survive a rebase keeps its live
//!   heap entries instead of pushing fresh ones.

use crate::params::NetParams;
use crate::topology::{NodeId, SiteId};
use crate::{FlowEnd, FlowId, FlowOutcome, Network};
use hog_obs::{Layer, TraceEvent, Tracer};
use hog_sim_core::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// One shared capacity on a flow's path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum LinkKey {
    NodeUp(NodeId),
    NodeDown(NodeId),
    SiteUp(SiteId),
    SiteDown(SiteId),
}

/// Dense index into [`FluidNet::links`].
type LinkId = u32;

/// Interned link: its identity plus the positions (in [`FluidNet::flows`])
/// of the flows currently traversing it.
struct LinkState {
    key: LinkKey,
    flows_on: Vec<u32>,
}

/// A flow's path never exceeds 4 links (NIC up, site up, site down, NIC
/// down), so paths are fixed arrays instead of heap `Vec`s.
const MAX_PATH: usize = 4;

#[derive(Clone, Debug)]
struct Flow {
    id: FlowId,
    tag: u64,
    src: NodeId,
    dst: NodeId,
    /// Interned links this flow traverses (first `links_len` entries).
    links: [LinkId; MAX_PATH],
    links_len: u8,
    /// Position of this flow inside each link's `flows_on` list.
    link_pos: [u32; MAX_PATH],
    /// Bytes left as of `upd` (*not* of "now" — progress is lazy).
    remaining: f64,
    rate: f64,
    /// Epoch start: the instant `remaining`/`rate` were last rebased.
    upd: SimTime,
    /// Bumped whenever the predicted instants change; heap entries
    /// carrying an older value are stale.
    gen: u32,
    /// Instants of the live `crossings` / `projections` entries (tagged
    /// `gen`). `None` = no entry: not yet scheduled, or stalled at rate 0.
    crossing: Option<SimTime>,
    projection: Option<SimTime>,
}

/// Reusable tables of one waterfilling pass, indexed by local link id
/// (first-touch order) or by member index. They keep their capacity across
/// passes, so a pass allocates nothing once they have grown.
#[derive(Default)]
struct Fill {
    residual: Vec<f64>,
    unfrozen_on: Vec<u32>,
    /// CSR member lists: local link `l` carries the members
    /// `on_link[on_start[l]..on_start[l + 1]]`, in member order.
    on_start: Vec<u32>,
    on_link: Vec<u32>,
    flow_links: Vec<[u32; MAX_PATH]>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
}

/// Sentinel for "node not registered" in the dense site table.
const NO_SITE: u16 = u16::MAX;
/// Sentinel for "flow no longer active" in the id → position table.
const NO_FLOW: u32 = u32::MAX;

/// The fluid network model. See the module docs for semantics.
pub struct FluidNet {
    params: NetParams,
    /// Dense node → site table (`NO_SITE` = unregistered).
    site_of_node: Vec<u16>,
    flows: Vec<Flow>,
    /// FlowId.0 → position in `flows` (`NO_FLOW` = gone). Grows by one
    /// entry per flow ever started.
    flow_pos: Vec<u32>,
    /// Interned links; never shrinks (a handful of entries per node).
    links: Vec<LinkState>,
    link_ids: HashMap<LinkKey, LinkId>,
    /// Predicted completion instants: `(first ms where remaining dips
    /// below DONE_EPS, flow id, gen)`.
    crossings: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Projected finish instants as reported by [`Network::next_completion`]
    /// (ceil of remaining/rate — up to one ms *after* the crossing).
    projections: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    finished: Vec<FlowEnd>,
    last_update: SimTime,
    next_flow_id: u64,
    /// Links of the flows started since the last [`FluidNet::flush`], in
    /// start order: the seeds of the deferred recompute.
    pending: Vec<LinkId>,
    /// Number of rate recomputation passes performed (diagnostics /
    /// benches). One pass may cover several touched components.
    recomputes: u64,
    /// Total flows examined across all recomputation passes: the
    /// per-recompute work metric the scale benchmark tracks.
    recompute_work: u64,
    /// WAN degradation multiplier applied to site up/downlink capacity
    /// (1.0 = healthy; chaos fault injection lowers it temporarily).
    wan_factor: f64,
    tracer: Tracer,
    // Scratch space reused across recomputes (stamp-marked, never cleared).
    link_mark: Vec<u32>,
    /// Valid only where `link_mark` carries the current stamp: the local
    /// dense id assigned to that link by the in-progress recompute.
    link_local: Vec<u32>,
    flow_mark: Vec<u32>,
    mark_gen: u32,
    scratch_flows: Vec<u32>,
    scratch_links: Vec<LinkId>,
    /// Links freed by a harvest or a node removal (recompute seeds).
    dirty: Vec<LinkId>,
    /// Positions of the flows a harvest completes.
    due: Vec<u32>,
    fill: Fill,
}

/// Completion threshold: a flow with fewer than this many bytes left is
/// done. Covers f64 rounding noise from progressing at millisecond grain.
const DONE_EPS: f64 = 0.5;

/// Capacity of `link` under `params`, with site links scaled by the WAN
/// degradation multiplier.
fn link_cap(params: &NetParams, wan_factor: f64, link: LinkKey) -> f64 {
    match link {
        LinkKey::NodeUp(_) => params.nic_up,
        LinkKey::NodeDown(_) => params.nic_down,
        LinkKey::SiteUp(_) => params.site_up * wan_factor,
        LinkKey::SiteDown(_) => params.site_down * wan_factor,
    }
}

impl FluidNet {
    /// A fluid network with the given parameters.
    pub fn new(params: NetParams) -> Self {
        FluidNet {
            params,
            site_of_node: Vec::new(),
            flows: Vec::new(),
            flow_pos: Vec::new(),
            links: Vec::new(),
            link_ids: HashMap::new(),
            crossings: BinaryHeap::new(),
            projections: BinaryHeap::new(),
            finished: Vec::new(),
            last_update: SimTime::ZERO,
            next_flow_id: 0,
            pending: Vec::new(),
            recomputes: 0,
            recompute_work: 0,
            wan_factor: 1.0,
            tracer: Tracer::disabled(),
            link_mark: Vec::new(),
            link_local: Vec::new(),
            flow_mark: Vec::new(),
            mark_gen: 0,
            scratch_flows: Vec::new(),
            scratch_links: Vec::new(),
            dirty: Vec::new(),
            due: Vec::new(),
            fill: Fill::default(),
        }
    }

    /// Attach the shared trace handle (disabled by default).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The parameters in use.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Diagnostics: how many rate recomputation passes have run.
    pub fn recompute_count(&self) -> u64 {
        self.recomputes
    }

    /// Diagnostics: total flows examined across all recomputation passes
    /// (the per-recompute work measure — divide by [`recompute_count`] for
    /// the average working-set size).
    ///
    /// [`recompute_count`]: FluidNet::recompute_count
    pub fn recompute_work(&self) -> u64 {
        self.recompute_work
    }

    /// The current rate of a flow, if it is still active (testing hook).
    /// Flushes the deferred recompute first.
    pub fn rate_of(&mut self, id: FlowId) -> Option<f64> {
        self.flush();
        let p = *self.flow_pos.get(id.0 as usize)?;
        if p == NO_FLOW {
            return None;
        }
        Some(self.flows[p as usize].rate)
    }

    fn site_of(&self, node: NodeId) -> Option<SiteId> {
        match self.site_of_node.get(node.0 as usize) {
            Some(&s) if s != NO_SITE => Some(SiteId(s)),
            _ => None,
        }
    }

    /// Scale every site up/downlink to `factor` × its configured capacity
    /// (chaos: WAN degradation window). `factor` is clamped to a small
    /// positive minimum so flows keep draining; `1.0` restores full
    /// bandwidth. In-flight flows are progressed to `now` first and their
    /// rates recomputed under the new capacities.
    pub fn set_wan_factor(&mut self, now: SimTime, factor: f64) {
        self.flush();
        self.progress_to(now);
        self.wan_factor = factor.max(1e-3);
        self.tracer
            .emit(|| TraceEvent::new(Layer::Net, "wan_factor").with("factor", self.wan_factor));
        // Capacities changed under every flow: full recompute.
        self.recomputes += 1;
        let all: Vec<u32> = (0..self.flows.len() as u32)
            .filter(|&p| self.flows[p as usize].links_len > 0)
            .collect();
        self.recompute_for(&all);
        self.settle_heaps();
    }

    /// The WAN degradation multiplier currently in force.
    pub fn wan_factor(&self) -> f64 {
        self.wan_factor
    }

    /// Run the deferred recompute for the flows started since the last
    /// flush: one waterfilling pass per connected component reachable from
    /// their links, at the instant they started. Every [`Network`] call
    /// flushes on its own; call this before reading rates through `&self`
    /// (the invariant audit).
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        // Stamps only grow, so a link stamped above `base` lies in a
        // component this flush has already recomputed.
        let base = self.mark_gen;
        for &l in &pending {
            if self.link_mark[l as usize] > base {
                continue;
            }
            // One pass per component, never one over their union: a union
            // pass's global minimum-share cutoff could freeze a near-tied
            // link of another component at a different share.
            self.recompute_from(&[l]);
        }
        pending.clear();
        self.pending = pending;
    }

    fn intern(&mut self, key: LinkKey) -> LinkId {
        if let Some(&id) = self.link_ids.get(&key) {
            return id;
        }
        let id = self.links.len() as LinkId;
        self.links.push(LinkState {
            key,
            flows_on: Vec::new(),
        });
        self.link_ids.insert(key, id);
        self.link_mark.push(0);
        self.link_local.push(0);
        id
    }

    fn path_for(
        &mut self,
        src: NodeId,
        dst: NodeId,
        diffuse_src: bool,
    ) -> ([LinkId; MAX_PATH], u8) {
        let mut links = [0 as LinkId; MAX_PATH];
        let mut n = 0u8;
        if src == dst {
            return (links, 0);
        }
        let ss = self.site_of(src).expect("src registered");
        let ds = self.site_of(dst).expect("dst registered");
        let push = |net: &mut Self, key: LinkKey, links: &mut [LinkId; MAX_PATH], n: &mut u8| {
            links[*n as usize] = net.intern(key);
            *n += 1;
        };
        if ss == ds {
            if !diffuse_src {
                push(self, LinkKey::NodeUp(src), &mut links, &mut n);
            }
            push(self, LinkKey::NodeDown(dst), &mut links, &mut n);
        } else {
            if !diffuse_src {
                push(self, LinkKey::NodeUp(src), &mut links, &mut n);
            }
            push(self, LinkKey::SiteUp(ss), &mut links, &mut n);
            push(self, LinkKey::SiteDown(ds), &mut links, &mut n);
            push(self, LinkKey::NodeDown(dst), &mut links, &mut n);
        }
        (links, n)
    }

    /// `remaining` of `f` progressed to `now` with its current rate — the
    /// same `remaining -= rate · dt_secs` arithmetic the eager version
    /// applied stepwise (dt in whole-ms f64, matching `as_secs_f64`).
    fn rem_at(&self, f: &Flow, now: SimTime) -> f64 {
        let dt = now.saturating_since(f.upd).as_secs_f64();
        if dt > 0.0 {
            f.remaining - f.rate * dt
        } else {
            f.remaining
        }
    }

    /// First whole millisecond at which `f.remaining` dips below
    /// [`DONE_EPS`] — the instant an eager per-ms progression would first
    /// observe the flow as done. `None` if the flow never drains (rate 0).
    fn crossing_of(&self, f: &Flow) -> Option<SimTime> {
        if f.remaining < DONE_EPS {
            return Some(f.upd);
        }
        if f.rate <= 0.0 {
            return None;
        }
        let est = ((f.remaining - DONE_EPS) / f.rate * 1000.0).floor();
        let mut k = if est >= 2.0 { est as u64 - 1 } else { 0 };
        // Walk to the exact boundary of the eager predicate (the division
        // above is only a seed; f64 rounding can misplace it by one).
        loop {
            if f.remaining - f.rate * (k as f64 / 1000.0) < DONE_EPS {
                break;
            }
            k += 1;
        }
        Some(f.upd + SimDuration::from_millis(k))
    }

    /// Projected completion instant of `f` given its current rate: the
    /// ceil-to-ms the eager version reported from `next_completion`.
    fn projection_of(&self, f: &Flow) -> Option<SimTime> {
        if f.remaining < DONE_EPS {
            return Some(f.upd);
        }
        if f.rate <= 0.0 {
            return None;
        }
        let secs = f.remaining / f.rate;
        // Round *up* to the next millisecond so that progressing to the
        // scheduled instant always drains the flow below DONE_EPS.
        let ms = (secs * 1000.0).ceil().max(1.0);
        Some(f.upd + SimDuration::from_millis(ms as u64))
    }

    /// Re-predict `flows[p]`'s instants. If either moved, bump its `gen`
    /// (staling its old heap entries) and push fresh ones; otherwise its
    /// live entries stay valid and nothing is pushed.
    fn reschedule(&mut self, p: usize) {
        let f = &self.flows[p];
        let crossing = self.crossing_of(f);
        let projection = self.projection_of(f);
        if crossing == f.crossing && projection == f.projection {
            return;
        }
        let f = &mut self.flows[p];
        f.gen = f.gen.wrapping_add(1);
        f.crossing = crossing;
        f.projection = projection;
        if let Some(t) = crossing {
            self.crossings.push(Reverse((t, f.id.0, f.gen)));
        }
        if let Some(t) = projection {
            self.projections.push(Reverse((t, f.id.0, f.gen)));
        }
    }

    fn entry_valid(&self, id: u64, gen: u32) -> bool {
        match self.flow_pos.get(id as usize) {
            Some(&p) if p != NO_FLOW => self.flows[p as usize].gen == gen,
            _ => false,
        }
    }

    /// Drop stale heads so `next_completion` can peek in O(1), and rebuild
    /// the heaps outright if stale entries dominate.
    fn settle_heaps(&mut self) {
        while let Some(&Reverse((_, id, gen))) = self.projections.peek() {
            if self.entry_valid(id, gen) {
                break;
            }
            self.projections.pop();
        }
        let cap = 64 + 16 * self.flows.len();
        if self.projections.len() > cap || self.crossings.len() > cap {
            self.projections.clear();
            self.crossings.clear();
            for f in &self.flows {
                if let Some(t) = f.crossing {
                    self.crossings.push(Reverse((t, f.id.0, f.gen)));
                }
                if let Some(t) = f.projection {
                    self.projections.push(Reverse((t, f.id.0, f.gen)));
                }
            }
        }
    }

    /// Detach `flows[p]` from its links' membership lists.
    fn detach_links(&mut self, p: usize) {
        let links_len = self.flows[p].links_len as usize;
        for k in 0..links_len {
            let l = self.flows[p].links[k] as usize;
            let pos = self.flows[p].link_pos[k] as usize;
            self.links[l].flows_on.swap_remove(pos);
            if pos < self.links[l].flows_on.len() {
                // Another flow's entry moved into `pos`: fix its back-pointer.
                let moved = self.links[l].flows_on[pos] as usize;
                let g = &mut self.flows[moved];
                for k2 in 0..g.links_len as usize {
                    if g.links[k2] as usize == l {
                        g.link_pos[k2] = pos as u32;
                        break;
                    }
                }
            }
        }
    }

    /// Remove `flows[p]` (swap-remove, like the eager version) keeping the
    /// id → position and link membership tables consistent.
    fn remove_flow_at(&mut self, p: usize) -> Flow {
        self.detach_links(p);
        let f = self.flows.swap_remove(p);
        self.flow_pos[f.id.0 as usize] = NO_FLOW;
        if p < self.flows.len() {
            // The former tail now lives at `p`: update both tables.
            let id = self.flows[p].id.0 as usize;
            self.flow_pos[id] = p as u32;
            let links_len = self.flows[p].links_len as usize;
            for k in 0..links_len {
                let l = self.flows[p].links[k] as usize;
                let pos = self.flows[p].link_pos[k] as usize;
                self.links[l].flows_on[pos] = p as u32;
            }
        }
        f
    }

    /// Collect the union of connected components reachable from `seeds`
    /// (link ids) into `scratch_flows` as flow positions, ascending.
    fn collect_component(&mut self, seed_links: &[LinkId]) {
        self.mark_gen += 1;
        let stamp = self.mark_gen;
        if self.flow_mark.len() < self.flows.len() {
            self.flow_mark.resize(self.flows.len(), 0);
        }
        self.scratch_flows.clear();
        self.scratch_links.clear();
        let mut frontier = 0usize;
        for &l in seed_links {
            if self.link_mark[l as usize] != stamp {
                self.link_mark[l as usize] = stamp;
                self.scratch_links.push(l);
            }
        }
        while frontier < self.scratch_links.len() {
            let l = self.scratch_links[frontier] as usize;
            frontier += 1;
            for i in 0..self.links[l].flows_on.len() {
                let p = self.links[l].flows_on[i];
                if self.flow_mark[p as usize] == stamp {
                    continue;
                }
                self.flow_mark[p as usize] = stamp;
                self.scratch_flows.push(p);
                let f = &self.flows[p as usize];
                for k in 0..f.links_len as usize {
                    let fl = f.links[k];
                    if self.link_mark[fl as usize] != stamp {
                        self.link_mark[fl as usize] = stamp;
                        self.scratch_links.push(fl);
                    }
                }
            }
        }
        self.scratch_flows.sort_unstable();
    }

    /// One waterfilling pass over the union of the components reachable
    /// from `seeds`.
    fn recompute_from(&mut self, seeds: &[LinkId]) {
        self.recomputes += 1;
        self.collect_component(seeds);
        let members = std::mem::take(&mut self.scratch_flows);
        self.recompute_for(&members);
        self.scratch_flows = members;
    }

    /// Max-min fair progressive filling over the given flow positions
    /// (ascending — the same relative order the global pass used). Each
    /// round freezes *every* link currently at the minimum fair share — in
    /// homogeneous clusters (all NICs equal) that collapses thousands of
    /// tie-broken rounds into a handful. Rebases each touched flow to
    /// `last_update` and refreshes its heap entries.
    fn recompute_for(&mut self, members: &[u32]) {
        self.recompute_work += members.len() as u64;
        let n = members.len();
        if n == 0 {
            return;
        }
        self.mark_gen += 1;
        let stamp = self.mark_gen;
        let fill = &mut self.fill;
        fill.residual.clear();
        fill.unfrozen_on.clear();
        fill.flow_links.clear();
        fill.flow_links.resize(n, [u32::MAX; MAX_PATH]);
        fill.frozen.clear();
        fill.frozen.resize(n, false);
        fill.rates.clear();
        fill.rates.resize(n, 0.0);

        // Local dense link table in first-touch order (matches the relative
        // enumeration order of the global pass; see module docs).
        // `link_mark[l] == stamp` ⇔ l already has its local id in
        // `link_local[l]`.
        for (i, &p) in members.iter().enumerate() {
            let f = &self.flows[p as usize];
            debug_assert!(f.links_len > 0, "loopback flows have no component");
            for (k, &gl) in f.links.iter().enumerate().take(f.links_len as usize) {
                let gl = gl as usize;
                let lid = if self.link_mark[gl] == stamp {
                    self.link_local[gl]
                } else {
                    self.link_mark[gl] = stamp;
                    let l = fill.residual.len() as u32;
                    self.link_local[gl] = l;
                    fill.residual
                        .push(link_cap(&self.params, self.wan_factor, self.links[gl].key));
                    fill.unfrozen_on.push(0);
                    l
                };
                fill.flow_links[i][k] = lid;
                fill.unfrozen_on[lid as usize] += 1;
            }
        }
        let nl = fill.residual.len();

        // Member lists as CSR: `on_start[l]` first holds the end of link
        // `l`'s slice; filling members back to front walks each entry down
        // to the slice start, leaving every slice in member order.
        fill.on_start.clear();
        let mut end = 0u32;
        for &c in &fill.unfrozen_on {
            end += c;
            fill.on_start.push(end);
        }
        fill.on_start.push(end);
        fill.on_link.clear();
        fill.on_link.resize(end as usize, 0);
        for i in (0..n).rev() {
            for &lid in &fill.flow_links[i] {
                if lid == u32::MAX {
                    break;
                }
                fill.on_start[lid as usize] -= 1;
                fill.on_link[fill.on_start[lid as usize] as usize] = i as u32;
            }
        }

        let mut n_unfrozen = n;
        while n_unfrozen > 0 {
            // Minimum fair share among links still carrying unfrozen flows.
            let mut min_share = f64::INFINITY;
            for id in 0..nl {
                let c = fill.unfrozen_on[id];
                if c == 0 {
                    continue;
                }
                let share = fill.residual[id].max(0.0) / c as f64;
                if share < min_share {
                    min_share = share;
                }
            }
            if !min_share.is_finite() {
                break;
            }
            let cutoff = min_share * (1.0 + 1e-9) + 1e-9;
            // Freeze flows on every link at the minimum share. Freezing
            // drops a link's unfrozen count to zero, so no link's member
            // list is walked twice.
            let mut froze_any = false;
            for id in 0..nl {
                let c = fill.unfrozen_on[id];
                if c == 0 {
                    continue;
                }
                let share = fill.residual[id].max(0.0) / c as f64;
                if share > cutoff {
                    continue;
                }
                for j in fill.on_start[id]..fill.on_start[id + 1] {
                    let fi = fill.on_link[j as usize] as usize;
                    if fill.frozen[fi] {
                        continue;
                    }
                    fill.rates[fi] = min_share;
                    fill.frozen[fi] = true;
                    n_unfrozen -= 1;
                    froze_any = true;
                    for &lid in &fill.flow_links[fi] {
                        if lid == u32::MAX {
                            break;
                        }
                        fill.residual[lid as usize] -= min_share;
                        fill.unfrozen_on[lid as usize] -= 1;
                    }
                }
            }
            if !froze_any {
                break; // numerical safety: should be unreachable
            }
        }

        // Rebase every touched flow to `last_update`, apply the new rates,
        // and refresh its predicted instants.
        let now = self.last_update;
        for (i, &p) in members.iter().enumerate() {
            let f = &mut self.flows[p as usize];
            f.remaining = if now > f.upd {
                f.remaining - f.rate * now.saturating_since(f.upd).as_secs_f64()
            } else {
                f.remaining
            };
            f.upd = now;
            f.rate = self.fill.rates[i];
            self.reschedule(p as usize);
        }
    }

    /// Advance the clock to `now`, harvesting every flow whose predicted
    /// crossing has passed. Completions are emitted in exactly the order
    /// the eager ascending swap-remove scan produced, and the touched
    /// components are re-waterfilled in one pass over their union.
    fn progress_to(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "time went backwards");
        if now > self.last_update {
            // Deferred passes belong to the instant their flows started.
            self.flush();
        }
        self.last_update = now;
        let mut due = std::mem::take(&mut self.due);
        while let Some(&Reverse((t, id, gen))) = self.crossings.peek() {
            if t > now {
                break;
            }
            self.crossings.pop();
            if self.entry_valid(id, gen) {
                due.push(self.flow_pos[id as usize]);
            }
        }
        // At the queue's own instant only a zero-byte start can be due, and
        // it flushed the queue when it started.
        debug_assert!(due.is_empty() || self.pending.is_empty());
        due.sort_unstable();
        due.dedup();
        let mut dirty = std::mem::take(&mut self.dirty);
        // Emulate the eager scan: ascending index, and when the swapped-in
        // tail flow is itself done, re-check slot `p` immediately.
        let mut next = 0;
        while next < due.len() {
            let p = due[next] as usize;
            let tail = self.flows.len() - 1;
            let f = self.remove_flow_at(p);
            dirty.extend_from_slice(&f.links[..f.links_len as usize]);
            self.tracer.emit(|| {
                TraceEvent::new(Layer::Net, "flow_end")
                    .with("flow", f.id.0)
                    .with("outcome", "completed")
            });
            self.finished.push(FlowEnd {
                id: f.id,
                tag: f.tag,
                src: f.src,
                dst: f.dst,
                outcome: FlowOutcome::Completed,
            });
            // The tail is the highest position, so if it is due it is the
            // last entry; it now lives at `p`, which stays next in line.
            if p != tail && due.last() == Some(&(tail as u32)) {
                due.pop();
            } else {
                next += 1;
            }
        }
        if !dirty.is_empty() {
            self.recompute_from(&dirty);
        }
        due.clear();
        self.due = due;
        dirty.clear();
        self.dirty = dirty;
    }

    fn push_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
        diffuse_src: bool,
    ) -> FlowId {
        assert!(
            self.site_of(src).is_some() && self.site_of(dst).is_some(),
            "both endpoints must be registered"
        );
        self.progress_to(now);
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        let (links, links_len) = self.path_for(src, dst, diffuse_src);
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Net, "flow_start")
                .with("flow", id.0)
                .with("src", src.0)
                .with("dst", dst.0)
                .with("bytes", bytes)
                .with("wan", self.site_of(src) != self.site_of(dst))
        });
        let p = self.flows.len();
        let mut link_pos = [0u32; MAX_PATH];
        for k in 0..links_len as usize {
            let l = links[k] as usize;
            link_pos[k] = self.links[l].flows_on.len() as u32;
            self.links[l].flows_on.push(p as u32);
        }
        self.flows.push(Flow {
            id,
            tag,
            src,
            dst,
            links,
            links_len,
            link_pos,
            remaining: bytes as f64,
            rate: if links_len == 0 {
                self.params.loopback
            } else {
                0.0
            },
            upd: now,
            gen: 0,
            crossing: None,
            projection: None,
        });
        self.flow_pos.push(p as u32);
        debug_assert_eq!(self.flow_pos.len() as u64, self.next_flow_id);
        if links_len == 0 {
            // Loopback: fixed rate, no shared capacity — no recompute.
            self.reschedule(p);
        } else {
            self.pending.extend_from_slice(&links[..links_len as usize]);
        }
        if (bytes as f64) < DONE_EPS {
            // Due the instant it starts, and the next call must harvest it
            // exactly as if every start had run its own pass.
            self.flush();
        }
        id
    }
}

impl hog_sim_core::Auditable for FluidNet {
    /// Flow-conservation / feasibility audit: every active flow must have
    /// a finite non-negative rate and positive remaining bytes, both
    /// endpoints must be registered, and the summed rate over each shared
    /// link must not exceed its (possibly WAN-degraded) capacity. Flows
    /// still awaiting a deferred recompute read rate 0, so
    /// [`FluidNet::flush`] first.
    fn audit(&self) -> Vec<hog_sim_core::Violation> {
        use hog_sim_core::Violation;
        let mut out = Vec::new();
        let mut load: HashMap<LinkKey, f64> = HashMap::new();
        for f in &self.flows {
            if !f.rate.is_finite() || f.rate < 0.0 {
                out.push(Violation::new(
                    "net",
                    format!("flow {} has invalid rate {}", f.id.0, f.rate),
                ));
            }
            let rem = self.rem_at(f, self.last_update);
            if rem.is_nan() || rem <= 0.0 {
                out.push(Violation::new(
                    "net",
                    format!("flow {} remains active with {} bytes left", f.id.0, rem),
                ));
            }
            for end in [f.src, f.dst] {
                if self.site_of(end).is_none() {
                    out.push(Violation::new(
                        "net",
                        format!("flow {} touches unregistered node {}", f.id.0, end.0),
                    ));
                }
            }
            for k in 0..f.links_len as usize {
                *load
                    .entry(self.links[f.links[k] as usize].key)
                    .or_insert(0.0) += f.rate;
            }
        }
        for (l, used) in &load {
            let cap = link_cap(&self.params, self.wan_factor, *l);
            if *used > cap * (1.0 + 1e-6) + 1.0 {
                out.push(Violation::new(
                    "net",
                    format!("link {l:?} oversubscribed: {used:.1} B/s on {cap:.1} B/s"),
                ));
            }
        }
        out
    }
}

impl Network for FluidNet {
    fn register_node(&mut self, node: NodeId, site: SiteId) {
        let idx = node.0 as usize;
        if self.site_of_node.len() <= idx {
            self.site_of_node.resize(idx + 1, NO_SITE);
        }
        self.site_of_node[idx] = site.0;
    }

    fn remove_node(&mut self, now: SimTime, node: NodeId) -> Vec<FlowEnd> {
        self.flush();
        self.progress_to(now);
        let mut killed = Vec::new();
        let mut dirty = std::mem::take(&mut self.dirty);
        let mut i = 0;
        while i < self.flows.len() {
            if self.flows[i].src == node || self.flows[i].dst == node {
                let f = self.remove_flow_at(i);
                dirty.extend_from_slice(&f.links[..f.links_len as usize]);
                self.tracer.emit(|| {
                    TraceEvent::new(Layer::Net, "flow_end")
                        .with("flow", f.id.0)
                        .with("outcome", "killed")
                        .with("node", node.0)
                });
                killed.push(FlowEnd {
                    id: f.id,
                    tag: f.tag,
                    src: f.src,
                    dst: f.dst,
                    outcome: FlowOutcome::Killed,
                });
            } else {
                i += 1;
            }
        }
        if let Some(s) = self.site_of_node.get_mut(node.0 as usize) {
            *s = NO_SITE;
        }
        if !dirty.is_empty() {
            self.recompute_from(&dirty);
        }
        dirty.clear();
        self.dirty = dirty;
        self.settle_heaps();
        killed
    }

    fn latency(&self, src: NodeId, dst: NodeId) -> SimDuration {
        if src == dst {
            return SimDuration::ZERO;
        }
        match (self.site_of(src), self.site_of(dst)) {
            (Some(a), Some(b)) if a == b => self.params.intra_site_latency,
            _ => self.params.inter_site_latency,
        }
    }

    fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> FlowId {
        self.push_flow(now, src, dst, bytes, tag, false)
    }

    fn start_flow_diffuse(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> FlowId {
        self.push_flow(now, src, dst, bytes, tag, true)
    }

    fn cancel_flow(&mut self, now: SimTime, id: FlowId) {
        self.flush();
        self.progress_to(now);
        let p = match self.flow_pos.get(id.0 as usize) {
            Some(&p) if p != NO_FLOW => p as usize,
            _ => return,
        };
        let f = self.remove_flow_at(p);
        if f.links_len > 0 {
            self.recompute_from(&f.links[..f.links_len as usize]);
        }
        self.settle_heaps();
    }

    fn advance(&mut self, now: SimTime) -> Vec<FlowEnd> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    fn advance_into(&mut self, now: SimTime, out: &mut Vec<FlowEnd>) {
        self.flush();
        self.progress_to(now);
        self.settle_heaps();
        out.append(&mut self.finished);
    }

    fn next_completion(&mut self) -> Option<SimTime> {
        self.flush();
        if !self.finished.is_empty() {
            return Some(self.last_update);
        }
        self.settle_heaps();
        self.projections.peek().map(|&Reverse((t, _, _))| t)
    }

    fn active_flows(&self) -> usize {
        self.flows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hog_sim_core::units::{gbit_per_s, MIB};
    use proptest::prelude::*;

    fn two_site_net() -> (FluidNet, Vec<NodeId>, Vec<NodeId>) {
        let mut net = FluidNet::new(NetParams::grid_default());
        let s0 = SiteId(0);
        let s1 = SiteId(1);
        let a: Vec<NodeId> = (0..4).map(NodeId).collect();
        let b: Vec<NodeId> = (4..8).map(NodeId).collect();
        for &n in &a {
            net.register_node(n, s0);
        }
        for &n in &b {
            net.register_node(n, s1);
        }
        (net, a, b)
    }

    /// Drain the network to completion, returning (time, ends).
    fn drain(net: &mut FluidNet) -> Vec<(SimTime, FlowEnd)> {
        let mut out = Vec::new();
        while let Some(t) = net.next_completion() {
            for e in net.advance(t) {
                out.push((t, e));
            }
        }
        out
    }

    #[test]
    fn single_intra_site_flow_runs_at_nic_speed() {
        let (mut net, a, _) = two_site_net();
        // 125 MB at 1 Gbps = 1.0 s
        net.start_flow(SimTime::ZERO, a[0], a[1], 125_000_000, 1);
        let ends = drain(&mut net);
        assert_eq!(ends.len(), 1);
        let (t, e) = ends[0];
        assert_eq!(e.outcome, FlowOutcome::Completed);
        assert_eq!(e.tag, 1);
        let secs = t.as_secs_f64();
        assert!((secs - 1.0).abs() < 0.01, "took {secs}s, expected ~1s");
    }

    #[test]
    fn two_flows_share_the_source_nic() {
        let (mut net, a, _) = two_site_net();
        net.start_flow(SimTime::ZERO, a[0], a[1], 125_000_000, 1);
        net.start_flow(SimTime::ZERO, a[0], a[2], 125_000_000, 2);
        // Both share a0's 1 Gbps uplink -> 0.5 Gbps each -> ~2 s.
        let ends = drain(&mut net);
        assert_eq!(ends.len(), 2);
        for (t, _) in ends {
            assert!((t.as_secs_f64() - 2.0).abs() < 0.02);
        }
    }

    #[test]
    fn inter_site_flows_bottleneck_on_site_uplink() {
        let (mut net, a, b) = two_site_net();
        // 8 cross-site flows from 4 distinct sources (2 each). Site uplink
        // is 5 Gbps, NICs are 1 Gbps: per-source NIC is the bottleneck at
        // 0.5 Gbps per flow (8 * 0.5 = 4 < 5).
        for (i, (&src, &dst)) in a.iter().cycle().zip(b.iter().cycle()).take(8).enumerate() {
            net.start_flow(SimTime::ZERO, src, dst, 62_500_000, i as u64);
        }
        let r = net.rate_of(FlowId(0)).unwrap();
        assert!((r - gbit_per_s(0.5)).abs() < 1.0, "rate {r}");
    }

    #[test]
    fn many_sources_saturate_site_uplink() {
        let mut net = FluidNet::new(NetParams::grid_default());
        let s0 = SiteId(0);
        let s1 = SiteId(1);
        // 12 sources at s0, 12 sinks at s1 => demand 12 Gbps > 6 Gbps uplink.
        for i in 0..12 {
            net.register_node(NodeId(i), s0);
            net.register_node(NodeId(100 + i), s1);
        }
        for i in 0..12 {
            net.start_flow(
                SimTime::ZERO,
                NodeId(i),
                NodeId(100 + i),
                10 * MIB,
                i as u64,
            );
        }
        let share = NetParams::grid_default().site_up / 12.0;
        for i in 0..12 {
            let r = net.rate_of(FlowId(i)).unwrap();
            assert!(
                (r - share).abs() < 1.0,
                "flow {i} should get 1/12 of the site uplink, got {r}"
            );
        }
    }

    #[test]
    fn textbook_max_min_example() {
        // One slow flow crossing the WAN plus one fast intra-site flow on
        // disjoint links: the intra-site flow must not be throttled.
        let (mut net, a, b) = two_site_net();
        net.start_flow(SimTime::ZERO, a[0], b[0], 100 * MIB, 0);
        net.start_flow(SimTime::ZERO, a[2], a[3], 100 * MIB, 1);
        let r0 = net.rate_of(FlowId(0)).unwrap();
        let r1 = net.rate_of(FlowId(1)).unwrap();
        assert!((r0 - gbit_per_s(1.0)).abs() < 1.0);
        assert!((r1 - gbit_per_s(1.0)).abs() < 1.0);
    }

    #[test]
    fn diffuse_flows_skip_source_nic() {
        let (mut net, a, b) = two_site_net();
        // Two diffuse cross-site flows sharing one representative source:
        // with a normal source they'd halve the 1 Gbps NIC; diffuse they
        // only share the 5 Gbps site uplink and distinct receiver NICs, so
        // each gets a full 1 Gbps (receiver-limited).
        net.start_flow_diffuse(SimTime::ZERO, a[0], b[0], 100 * MIB, 0);
        net.start_flow_diffuse(SimTime::ZERO, a[0], b[1], 100 * MIB, 1);
        for i in 0..2 {
            let r = net.rate_of(FlowId(i)).unwrap();
            assert!((r - gbit_per_s(1.0)).abs() < 1.0, "flow {i} rate {r}");
        }
        // Intra-site diffuse: only the receiver NIC constrains.
        net.start_flow_diffuse(SimTime::ZERO, a[1], a[2], 100 * MIB, 2);
        net.start_flow(SimTime::ZERO, a[3], a[2], 100 * MIB, 3);
        // Both share a2's downlink NIC: 0.5 Gbps each.
        let r2 = net.rate_of(FlowId(2)).unwrap();
        assert!((r2 - gbit_per_s(0.5)).abs() < 1.0, "rate {r2}");
    }

    #[test]
    fn loopback_flows_use_loopback_rate() {
        let (mut net, a, _) = two_site_net();
        net.start_flow(SimTime::ZERO, a[0], a[0], 100 * MIB, 0);
        let r = net.rate_of(FlowId(0)).unwrap();
        assert_eq!(r, NetParams::grid_default().loopback);
    }

    #[test]
    fn completion_frees_bandwidth_for_survivors() {
        let (mut net, a, _) = two_site_net();
        // Short and long flow share a0's NIC.
        net.start_flow(SimTime::ZERO, a[0], a[1], 62_500_000, 0); // 0.5 Gb-s worth
        net.start_flow(SimTime::ZERO, a[0], a[2], 250_000_000, 1);
        // Phase 1: both at 0.5 Gbps. Short one (62.5 MB) finishes at t=1s.
        let t1 = net.next_completion().unwrap();
        assert!((t1.as_secs_f64() - 1.0).abs() < 0.01);
        let ends = net.advance(t1);
        assert_eq!(ends.len(), 1);
        assert_eq!(ends[0].tag, 0);
        // Survivor now gets the full NIC: 250-62.5=187.5 MB left at 1 Gbps
        // -> finishes 1.5 s later.
        let t2 = net.next_completion().unwrap();
        assert!((t2.as_secs_f64() - 2.5).abs() < 0.02, "t2={t2}");
    }

    #[test]
    fn remove_node_kills_its_flows() {
        let (mut net, a, b) = two_site_net();
        net.start_flow(SimTime::ZERO, a[0], b[0], 100 * MIB, 7);
        net.start_flow(SimTime::ZERO, a[1], a[2], 100 * MIB, 8);
        let killed = net.remove_node(SimTime::from_millis(10), a[0]);
        assert_eq!(killed.len(), 1);
        assert_eq!(killed[0].tag, 7);
        assert_eq!(killed[0].outcome, FlowOutcome::Killed);
        assert_eq!(net.active_flows(), 1);
    }

    #[test]
    fn cancel_is_silent_and_idempotent() {
        let (mut net, a, _) = two_site_net();
        let id = net.start_flow(SimTime::ZERO, a[0], a[1], 100 * MIB, 0);
        net.cancel_flow(SimTime::from_millis(5), id);
        net.cancel_flow(SimTime::from_millis(6), id); // unknown now: ignored
        assert_eq!(net.active_flows(), 0);
        assert!(net.advance(SimTime::from_secs(10)).is_empty());
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let (mut net, a, _) = two_site_net();
        net.start_flow(SimTime::from_secs(1), a[0], a[1], 0, 3);
        let t = net.next_completion().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
        let ends = net.advance(t);
        assert_eq!(ends.len(), 1);
        assert_eq!(ends[0].outcome, FlowOutcome::Completed);
    }

    #[test]
    fn latency_classes() {
        let (net, a, b) = two_site_net();
        let p = NetParams::grid_default();
        assert_eq!(net.latency(a[0], a[1]), p.intra_site_latency);
        assert_eq!(net.latency(a[0], b[0]), p.inter_site_latency);
        assert_eq!(net.latency(a[0], a[0]), SimDuration::ZERO);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut net, a, b) = two_site_net();
            let mut trace = Vec::new();
            net.start_flow(SimTime::ZERO, a[0], b[0], 77 * MIB, 0);
            net.start_flow(SimTime::from_millis(300), a[1], b[1], 33 * MIB, 1);
            net.start_flow(SimTime::from_millis(700), a[0], a[2], 10 * MIB, 2);
            for (t, e) in drain(&mut net) {
                trace.push((t.as_millis(), e.tag));
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rate_of_and_cancel_after_many_swaps() {
        // Exercise the FlowId → position table across interleaved removals
        // (swap_remove reshuffles positions aggressively).
        let (mut net, a, b) = two_site_net();
        let mut ids = Vec::new();
        for i in 0..6 {
            ids.push(net.start_flow(
                SimTime::ZERO,
                a[(i % 4) as usize],
                b[((i + 1) % 4) as usize],
                100 * MIB,
                i,
            ));
        }
        net.cancel_flow(SimTime::from_millis(1), ids[0]);
        net.cancel_flow(SimTime::from_millis(2), ids[3]);
        assert!(net.rate_of(ids[0]).is_none());
        assert!(net.rate_of(ids[3]).is_none());
        for &id in &[ids[1], ids[2], ids[4], ids[5]] {
            assert!(net.rate_of(id).unwrap() > 0.0);
        }
        assert_eq!(net.active_flows(), 4);
    }

    #[test]
    fn same_instant_burst_runs_one_pass_per_component() {
        // A block fanning out to three replicas plus one unrelated
        // transfer: two components, so two passes instead of four.
        let (mut net, a, b) = two_site_net();
        for &dst in &[a[1], a[2], a[3]] {
            net.start_flow(SimTime::ZERO, a[0], dst, 100 * MIB, 0);
        }
        net.start_flow(SimTime::ZERO, b[0], b[1], 100 * MIB, 1);
        assert_eq!(net.recompute_count(), 0, "starts only queue");
        net.next_completion();
        assert_eq!(net.recompute_count(), 2);
        for i in 0..3 {
            let r = net.rate_of(FlowId(i)).unwrap();
            assert!((r - gbit_per_s(1.0) / 3.0).abs() < 1.0, "flow {i} rate {r}");
        }
        let r = net.rate_of(FlowId(3)).unwrap();
        assert!((r - gbit_per_s(1.0)).abs() < 1.0, "rate {r}");
    }

    #[test]
    fn unchanged_instants_keep_their_heap_entries() {
        // Receivers faster than senders: a second sender into the same
        // receiver joins the first flow's component without changing its
        // rate, so that flow's live heap entries stay valid and only the
        // newcomer pushes.
        let mut params = NetParams::grid_default();
        params.nic_down = params.nic_up * 2.5;
        let mut net = FluidNet::new(params);
        for n in 0..3 {
            net.register_node(NodeId(n), SiteId(0));
        }
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MIB, 0);
        net.next_completion();
        net.start_flow(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MIB, 1);
        net.next_completion();
        assert_eq!(net.recompute_work(), 3, "the second pass covers both flows");
        assert_eq!(net.projections.len(), 2);
        assert_eq!(net.crossings.len(), 2);
    }

    #[test]
    fn a_moved_projection_alone_reschedules() {
        // 1000 bytes at 1 MB/s: crossing and projection both land at 1 ms.
        // Slowing the WAN by 0.02 % keeps the crossing at 1 ms but moves
        // the projection to 2 ms, and `next_completion` must follow it.
        let mut params = NetParams::grid_default();
        params.site_up = 1e6;
        params.site_down = 1e6;
        let mut net = FluidNet::new(params);
        net.register_node(NodeId(0), SiteId(0));
        net.register_node(NodeId(1), SiteId(1));
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1000, 0);
        assert_eq!(net.next_completion(), Some(SimTime::from_millis(1)));
        net.set_wan_factor(SimTime::ZERO, 0.9998);
        assert_eq!(net.next_completion(), Some(SimTime::from_millis(2)));
    }

    /// From-scratch waterfilling oracle, written independently of the
    /// incremental implementation: classic per-round progressive filling
    /// over (path, capacity) tuples.
    fn oracle_rates(
        paths: &[Vec<String>],
        caps: &std::collections::HashMap<String, f64>,
        loopback: f64,
    ) -> Vec<f64> {
        let n = paths.len();
        let mut rates = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        for (i, p) in paths.iter().enumerate() {
            if p.is_empty() {
                rates[i] = loopback;
                frozen[i] = true;
            }
        }
        let mut residual: std::collections::HashMap<String, f64> = caps.clone();
        loop {
            // Share of each link over its unfrozen flows.
            let mut best: Option<f64> = None;
            for (l, &cap) in &residual {
                let users = paths
                    .iter()
                    .enumerate()
                    .filter(|(i, p)| !frozen[*i] && p.contains(l))
                    .count();
                if users == 0 {
                    continue;
                }
                let share = cap.max(0.0) / users as f64;
                best = Some(match best {
                    Some(b) if b <= share => b,
                    _ => share,
                });
            }
            let Some(min_share) = best else { break };
            let cutoff = min_share * (1.0 + 1e-9) + 1e-9;
            let mut froze = Vec::new();
            for (l, &cap) in &residual {
                let users: Vec<usize> = paths
                    .iter()
                    .enumerate()
                    .filter(|(i, p)| !frozen[*i] && p.contains(l))
                    .map(|(i, _)| i)
                    .collect();
                if users.is_empty() {
                    continue;
                }
                let share = cap.max(0.0) / users.len() as f64;
                if share <= cutoff {
                    froze.extend(users);
                }
            }
            froze.sort_unstable();
            froze.dedup();
            if froze.is_empty() {
                break;
            }
            for i in froze {
                if frozen[i] {
                    continue;
                }
                frozen[i] = true;
                rates[i] = min_share;
                for l in &paths[i] {
                    *residual.get_mut(l).unwrap() -= min_share;
                }
            }
        }
        rates
    }

    /// Human-readable link names for the oracle, mirroring `path_for`.
    fn oracle_path(src: u32, dst: u32, site_of: impl Fn(u32) -> u16) -> Vec<String> {
        if src == dst {
            return Vec::new();
        }
        let (ss, ds) = (site_of(src), site_of(dst));
        if ss == ds {
            vec![format!("up{src}"), format!("down{dst}")]
        } else {
            vec![
                format!("up{src}"),
                format!("su{ss}"),
                format!("sd{ds}"),
                format!("down{dst}"),
            ]
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Invariant: after any sequence of flow starts, per-link committed
        /// bandwidth never exceeds capacity and every flow has a positive
        /// rate (work conservation: rates are only zero if a link is dead).
        #[test]
        fn prop_rates_feasible(specs in proptest::collection::vec((0u32..8, 0u32..8, 1u64..200_000_000), 1..40)) {
            let (mut net, _, _) = two_site_net();
            for (i, &(s, d, bytes)) in specs.iter().enumerate() {
                net.start_flow(SimTime::ZERO, NodeId(s), NodeId(d), bytes, i as u64);
            }
            // Reconstruct link loads from the flow table.
            let mut loads: std::collections::HashMap<String, f64> = Default::default();
            let p = *net.params();
            for (i, &(s, d, _)) in specs.iter().enumerate() {
                let id = FlowId(i as u64);
                if let Some(r) = net.rate_of(id) {
                    prop_assert!(r > 0.0, "flow {} starved", i);
                    if s == d { continue; }
                    *loads.entry(format!("up{s}")).or_default() += r;
                    *loads.entry(format!("down{d}")).or_default() += r;
                    let ss = if s < 4 {0} else {1};
                    let ds = if d < 4 {0} else {1};
                    if ss != ds {
                        *loads.entry(format!("siteup{ss}")).or_default() += r;
                        *loads.entry(format!("sitedown{ds}")).or_default() += r;
                    }
                }
            }
            for (k, v) in loads {
                let cap = if k.starts_with("site") { p.site_up } else { p.nic_up };
                prop_assert!(v <= cap * 1.0001, "link {} overloaded: {} > {}", k, v, cap);
            }
        }

        /// All flows eventually complete, exactly once each.
        #[test]
        fn prop_all_flows_complete(specs in proptest::collection::vec((0u32..8, 0u32..8, 0u64..50_000_000, 0u64..5_000u64), 1..30)) {
            let (mut net, _, _) = two_site_net();
            let mut last_start = SimTime::ZERO;
            for (i, &(s, d, bytes, delay)) in specs.iter().enumerate() {
                let t = last_start + hog_sim_core::SimDuration::from_millis(delay);
                last_start = t;
                net.start_flow(t, NodeId(s), NodeId(d), bytes, i as u64);
            }
            let ends = drain(&mut net);
            prop_assert_eq!(ends.len(), specs.len());
            let mut tags: Vec<u64> = ends.iter().map(|(_, e)| e.tag).collect();
            tags.sort_unstable();
            prop_assert_eq!(tags, (0..specs.len() as u64).collect::<Vec<_>>());
            // Times are non-decreasing as produced by drain().
            let times: Vec<u64> = ends.iter().map(|(t, _)| t.as_millis()).collect();
            prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Oracle equivalence: after an arbitrary interleaving of starts,
        /// cancellations, and WAN-factor changes, the incremental rates
        /// must match a from-scratch full waterfilling pass over the same
        /// surviving flow set, on both homogeneous and heterogeneous
        /// capacities, within 1e-9 relative. A third of the ops share the
        /// previous op's instant, so bursts of starts reach the net
        /// unflushed; each burst is checked once complete, before time
        /// moves on.
        #[test]
        fn prop_incremental_matches_full_oracle(
            ops in proptest::collection::vec(
                (0u32..16, 0u32..16, 1u64..500_000_000, 0u8..10, 0u8..4, 0u8..3),
                1..60,
            ),
            hetero_sel in 0u8..2,
            wan_move in 1u8..11,
        ) {
            let hetero = hetero_sel == 1;
            let mut params = NetParams::grid_default();
            if hetero {
                // Heterogeneous capacities: downlinks faster than uplinks,
                // asymmetric site pipes.
                params.nic_down = params.nic_up * 2.5;
                params.site_down = params.site_up * 0.6;
            }
            let loopback = params.loopback;
            let (nic_up, nic_down, site_up, site_down) =
                (params.nic_up, params.nic_down, params.site_up, params.site_down);
            let mut net = FluidNet::new(params);
            // 4 sites × 4 nodes.
            for n in 0..16u32 {
                net.register_node(NodeId(n), SiteId((n / 4) as u16));
            }
            let site_of = |n: u32| (n / 4) as u16;
            // Drop the flows completed by `now`, then hold every surviving
            // rate against the oracle.
            let check = |net: &mut FluidNet,
                         live: &mut Vec<(FlowId, u32, u32)>,
                         now: SimTime,
                         wan: f64,
                         step: usize|
             -> Result<(), TestCaseError> {
                for e in net.advance(now) {
                    live.retain(|&(id, _, _)| id != e.id);
                }
                let paths: Vec<Vec<String>> = live
                    .iter()
                    .map(|&(_, s, d)| oracle_path(s, d, site_of))
                    .collect();
                let mut caps = std::collections::HashMap::new();
                for n in 0..16u32 {
                    caps.insert(format!("up{n}"), nic_up);
                    caps.insert(format!("down{n}"), nic_down);
                }
                for s in 0..4u16 {
                    caps.insert(format!("su{s}"), site_up * wan);
                    caps.insert(format!("sd{s}"), site_down * wan);
                }
                let want = oracle_rates(&paths, &caps, loopback);
                for (k, &(id, s, d)) in live.iter().enumerate() {
                    let got = net.rate_of(id).unwrap();
                    let w = want[k];
                    prop_assert!(
                        (got - w).abs() <= 1e-9 * w.max(1.0),
                        "step {}: flow {}→{} rate {} != oracle {}",
                        step, s, d, got, w
                    );
                }
                Ok(())
            };
            let mut wan = 1.0f64;
            let mut live: Vec<(FlowId, u32, u32)> = Vec::new(); // (id, src, dst)
            let mut now = SimTime::ZERO;
            for (step, &(src, dst, bytes, cancel_sel, op, gap)) in ops.iter().enumerate() {
                if gap > 0 {
                    check(&mut net, &mut live, now, wan, step)?;
                    now += SimDuration::from_millis(1);
                }
                match op {
                    0 | 1 => {
                        let id = net.start_flow(now, NodeId(src), NodeId(dst), bytes, step as u64);
                        live.push((id, src, dst));
                    }
                    2 if !live.is_empty() => {
                        let idx = cancel_sel as usize % live.len();
                        let (id, _, _) = live.swap_remove(idx);
                        net.cancel_flow(now, id);
                    }
                    _ => {
                        wan = wan_move as f64 / 10.0;
                        net.set_wan_factor(now, wan);
                    }
                }
            }
            check(&mut net, &mut live, now, wan, ops.len())?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Deferred recompute is exact. Net `a` waterfills once per burst
        /// of same-instant starts; net `b` calls `next_completion` after
        /// every start, which runs one pass per start. Through bursts of
        /// regular, diffuse, loopback and zero-byte starts mixed with
        /// cancels, node removals, WAN changes and advances, both must
        /// agree bit for bit on every rate, every next completion and
        /// every delivered `FlowEnd`.
        #[test]
        fn prop_deferred_recompute_is_bit_identical(
            ops in proptest::collection::vec(
                (0u8..10, 0u32..12, 0u32..12, 1u64..300_000_000, 0u8..6),
                1..80,
            ),
        ) {
            let new_net = || {
                let mut net = FluidNet::new(NetParams::grid_default());
                // 3 sites × 4 nodes.
                for n in 0..12u32 {
                    net.register_node(NodeId(n), SiteId((n / 4) as u16));
                }
                net
            };
            let agree = |a: &mut FluidNet,
                         b: &mut FluidNet,
                         live: &[FlowId],
                         step: usize|
             -> Result<(), TestCaseError> {
                for &id in live {
                    prop_assert_eq!(
                        a.rate_of(id).map(f64::to_bits),
                        b.rate_of(id).map(f64::to_bits),
                        "step {}: rate of flow {}",
                        step,
                        id.0
                    );
                }
                prop_assert_eq!(
                    a.next_completion(),
                    b.next_completion(),
                    "step {}: next completion",
                    step
                );
                Ok(())
            };
            let (mut a, mut b) = (new_net(), new_net());
            let mut live: Vec<FlowId> = Vec::new();
            let mut now = SimTime::ZERO;
            for (step, &(kind, x, y, bytes, gap)) in ops.iter().enumerate() {
                // Half the ops share the previous op's instant. Comparing
                // flushes `a`, so it happens only once a burst is over, and
                // not before 100 ms steps: those carry an unflushed burst
                // across a clock advance.
                let ms = match gap {
                    0..=2 => 0,
                    3 => 1,
                    4 => 100,
                    _ => 2000,
                };
                if ms > 0 {
                    if ms != 100 {
                        agree(&mut a, &mut b, &live, step)?;
                    }
                    now += SimDuration::from_millis(ms);
                }
                let src = NodeId(x);
                match kind {
                    0..=5 => {
                        let (dst, bytes) = match kind {
                            4 => (src, bytes),
                            5 => (NodeId(y), 0),
                            _ => (NodeId(y), bytes),
                        };
                        let start = |net: &mut FluidNet| {
                            if kind == 3 {
                                net.start_flow_diffuse(now, src, dst, bytes, step as u64)
                            } else {
                                net.start_flow(now, src, dst, bytes, step as u64)
                            }
                        };
                        let id = start(&mut a);
                        prop_assert_eq!(id, start(&mut b));
                        b.next_completion();
                        live.push(id);
                    }
                    6 if !live.is_empty() => {
                        let id = live.swap_remove(y as usize % live.len());
                        a.cancel_flow(now, id);
                        b.cancel_flow(now, id);
                    }
                    7 => {
                        let killed = a.remove_node(now, src);
                        prop_assert_eq!(&killed, &b.remove_node(now, src));
                        live.retain(|id| killed.iter().all(|e| e.id != *id));
                        // The node rejoins at once, so later starts may use it.
                        a.register_node(src, SiteId((x / 4) as u16));
                        b.register_node(src, SiteId((x / 4) as u16));
                    }
                    8 => {
                        let factor = (bytes % 10 + 1) as f64 / 10.0;
                        a.set_wan_factor(now, factor);
                        b.set_wan_factor(now, factor);
                    }
                    _ => {
                        let ends = a.advance(now);
                        prop_assert_eq!(&ends, &b.advance(now));
                        live.retain(|id| ends.iter().all(|e| e.id != *id));
                    }
                }
            }
            agree(&mut a, &mut b, &live, ops.len())?;
            prop_assert!(a.recompute_count() <= b.recompute_count());
            prop_assert_eq!(drain(&mut a), drain(&mut b));
        }
    }
}
