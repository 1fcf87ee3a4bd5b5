//! Node and site identity, plus the hostname → site grouping rule.
//!
//! HOG detects sites from worker DNS names: `workername.site.edu` nodes are
//! grouped by their last two DNS labels (`site.edu`). [`site_domain_of`]
//! implements exactly that rule; [`Topology`] keeps the authoritative
//! node ↔ site mapping used by the network models, HDFS placement and the
//! MapReduce scheduler.

use std::collections::HashMap;

/// A worker (or master) node. Ids are dense and never reused within a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A grid site (one administrative failure domain, e.g. `FNAL_FERMIGRID`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u16);

/// A rack within a site: nodes are grouped into racks of [`RACK_SIZE`] in
/// registration order, so a rack never spans two sites. The id packs the
/// owning site in the upper half-word and the per-site rack ordinal in the
/// lower, making it unique across the whole topology.
///
/// HOG itself has no rack tier (glideins report only their site), but the
/// delay-scheduling policy in `hog-sched` wants the classic four-level
/// locality ladder, so the topology synthesises one deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RackId(pub u32);

/// Number of nodes per synthesised rack (see [`RackId`]).
pub const RACK_SIZE: u32 = 16;

/// Extract the site-grouping key from a worker hostname, per the paper:
/// "The worker nodes will be separated depending on the last two groups,
/// the `site.edu`." Returns `None` for hostnames with fewer than two
/// labels (no domain to group by).
pub fn site_domain_of(hostname: &str) -> Option<&str> {
    let trimmed = hostname.trim_end_matches('.');
    let mut dots = trimmed.char_indices().filter(|&(_, c)| c == '.');
    let last = dots.next_back()?.0;
    match trimmed[..last].rfind('.') {
        Some(second_last) => Some(&trimmed[second_last + 1..]),
        None => {
            // Exactly two labels ("site.edu"): the whole name is the key.
            Some(trimmed)
        }
    }
}

/// Static description of one site.
#[derive(Clone, Debug)]
pub struct SiteInfo {
    /// Dense site id.
    pub id: SiteId,
    /// OSG resource name, e.g. `UCSDT2`.
    pub name: String,
    /// DNS domain used for hostname synthesis, e.g. `ucsd.edu`.
    pub domain: String,
}

/// Per-node record.
#[derive(Clone, Debug)]
pub struct NodeRecord {
    /// The node's id.
    pub id: NodeId,
    /// Site the node lives in.
    pub site: SiteId,
    /// Synthesised DNS name (`w17.ucsd.edu`).
    pub hostname: String,
    /// Synthesised rack within the site (see [`RackId`]).
    pub rack: RackId,
    /// Whether the node is currently alive (registered and not removed).
    pub alive: bool,
}

/// The authoritative node/site registry.
///
/// Nodes are added when a glidein starts and marked dead when it is
/// preempted; ids are never reused so late-arriving events referencing a
/// dead node are detectable rather than aliasing a new node.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    sites: Vec<SiteInfo>,
    nodes: Vec<NodeRecord>,
    by_hostname: HashMap<String, NodeId>,
    per_site_counter: Vec<u64>,
    per_site_added: Vec<u32>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a site; returns its id. Site names should be unique but
    /// this is not enforced (the grid model owns that invariant).
    pub fn add_site(&mut self, name: impl Into<String>, domain: impl Into<String>) -> SiteId {
        let id = SiteId(u16::try_from(self.sites.len()).expect("too many sites"));
        self.sites.push(SiteInfo {
            id,
            name: name.into(),
            domain: domain.into(),
        });
        self.per_site_counter.push(0);
        self.per_site_added.push(0);
        id
    }

    /// Register a new node at `site` with a synthesised unique hostname.
    pub fn add_node(&mut self, site: SiteId) -> NodeId {
        let n = &mut self.per_site_counter[site.0 as usize];
        *n += 1;
        let hostname = format!("w{}.{}", n, self.sites[site.0 as usize].domain);
        self.add_node_named(site, hostname)
    }

    /// Register a new node with an explicit hostname.
    pub fn add_node_named(&mut self, site: SiteId, hostname: String) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        let ordinal = &mut self.per_site_added[site.0 as usize];
        let rack = RackId((u32::from(site.0) << 16) | (*ordinal / RACK_SIZE));
        *ordinal += 1;
        self.by_hostname.insert(hostname.clone(), id);
        self.nodes.push(NodeRecord {
            id,
            site,
            hostname,
            rack,
            alive: true,
        });
        id
    }

    /// Mark a node dead. Idempotent.
    pub fn mark_dead(&mut self, node: NodeId) {
        self.nodes[node.0 as usize].alive = false;
    }

    /// Site of a node (dead or alive).
    pub fn site_of(&self, node: NodeId) -> SiteId {
        self.nodes[node.0 as usize].site
    }

    /// Whether two nodes share a site — the paper's locality question.
    pub fn same_site(&self, a: NodeId, b: NodeId) -> bool {
        self.site_of(a) == self.site_of(b)
    }

    /// Rack of a node (dead or alive). Racks are synthesised: [`RACK_SIZE`]
    /// consecutive registrations within a site share one (see [`RackId`]).
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.nodes[node.0 as usize].rack
    }

    /// Whether two nodes share a synthesised rack (implies same site).
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Whether the node is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].alive
    }

    /// Full record for a node.
    pub fn node(&self, node: NodeId) -> &NodeRecord {
        &self.nodes[node.0 as usize]
    }

    /// Info for a site.
    pub fn site(&self, site: SiteId) -> &SiteInfo {
        &self.sites[site.0 as usize]
    }

    /// All sites.
    pub fn sites(&self) -> &[SiteInfo] {
        &self.sites
    }

    /// Total nodes ever registered (alive + dead).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterator over currently-alive nodes.
    pub fn alive_nodes(&self) -> impl Iterator<Item = &NodeRecord> {
        self.nodes.iter().filter(|n| n.alive)
    }

    /// Number of currently-alive nodes.
    pub fn alive_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Currently-alive nodes in a given site.
    pub fn alive_in_site(&self, site: SiteId) -> impl Iterator<Item = &NodeRecord> {
        self.nodes.iter().filter(move |n| n.alive && n.site == site)
    }

    /// Resolve a hostname to its node id (alive or dead).
    pub fn resolve(&self, hostname: &str) -> Option<NodeId> {
        self.by_hostname.get(hostname).copied()
    }

    /// Apply the site-awareness script to a registered node: map its
    /// hostname to the site whose domain matches. This mirrors what
    /// `topology.script.file.name` does in HOG and is used by tests to
    /// check consistency between DNS grouping and the registry.
    pub fn site_by_dns(&self, node: NodeId) -> Option<SiteId> {
        let domain = site_domain_of(&self.nodes[node.0 as usize].hostname)?;
        self.sites
            .iter()
            .find(|s| s.domain == domain || s.domain.ends_with(domain))
            .map(|s| s.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dns_grouping_rule() {
        assert_eq!(site_domain_of("w1.fnal.gov"), Some("fnal.gov"));
        assert_eq!(site_domain_of("node-3.cmsaf.mit.edu"), Some("mit.edu"));
        assert_eq!(site_domain_of("a.b.c.d.ucsd.edu"), Some("ucsd.edu"));
        assert_eq!(site_domain_of("ucsd.edu"), Some("ucsd.edu"));
        assert_eq!(site_domain_of("localhost"), None);
        assert_eq!(site_domain_of("w1.fnal.gov."), Some("fnal.gov"));
    }

    #[test]
    fn same_domain_means_same_group() {
        let a = site_domain_of("w1.aglt2.org").unwrap();
        let b = site_domain_of("w9999.aglt2.org").unwrap();
        assert_eq!(a, b);
        let c = site_domain_of("w1.ucsd.edu").unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn topology_registry_basics() {
        let mut t = Topology::new();
        let fnal = t.add_site("FNAL_FERMIGRID", "fnal.gov");
        let ucsd = t.add_site("UCSDT2", "ucsd.edu");
        let n1 = t.add_node(fnal);
        let n2 = t.add_node(fnal);
        let n3 = t.add_node(ucsd);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.alive_count(), 3);
        assert!(t.same_site(n1, n2));
        assert!(!t.same_site(n1, n3));
        assert_eq!(t.node(n1).hostname, "w1.fnal.gov");
        assert_eq!(t.node(n2).hostname, "w2.fnal.gov");
        assert_eq!(t.resolve("w1.ucsd.edu"), Some(n3));
    }

    #[test]
    fn racks_group_within_sites() {
        let mut t = Topology::new();
        let a = t.add_site("A", "a.edu");
        let b = t.add_site("B", "b.edu");
        let a_nodes: Vec<NodeId> = (0..RACK_SIZE + 2).map(|_| t.add_node(a)).collect();
        let b0 = t.add_node(b);
        // First RACK_SIZE nodes in site A share a rack; the next two spill
        // into a second rack.
        assert!(t.same_rack(a_nodes[0], a_nodes[RACK_SIZE as usize - 1]));
        assert!(!t.same_rack(a_nodes[0], a_nodes[RACK_SIZE as usize]));
        assert!(t.same_rack(a_nodes[RACK_SIZE as usize], a_nodes[RACK_SIZE as usize + 1]));
        // A rack never spans sites, even for the first node of each.
        assert!(!t.same_rack(a_nodes[0], b0));
        // Same rack implies same site.
        for &n in &a_nodes {
            assert_eq!(t.site_of(n), a);
        }
    }

    #[test]
    fn dead_nodes_leave_registry_consistent() {
        let mut t = Topology::new();
        let s = t.add_site("X", "x.edu");
        let n1 = t.add_node(s);
        let n2 = t.add_node(s);
        t.mark_dead(n1);
        t.mark_dead(n1); // idempotent
        assert!(!t.is_alive(n1));
        assert!(t.is_alive(n2));
        assert_eq!(t.alive_count(), 1);
        assert_eq!(t.alive_in_site(s).count(), 1);
        // id still resolvable, site still known
        assert_eq!(t.site_of(n1), s);
    }

    #[test]
    fn dns_script_agrees_with_registry() {
        let mut t = Topology::new();
        let sites = [
            ("FNAL_FERMIGRID", "fnal.gov"),
            ("USCMS-FNAL-WC1", "wc1.fnal.gov"),
            ("UCSDT2", "ucsd.edu"),
            ("AGLT2", "aglt2.org"),
            ("MIT_CMS", "mit.edu"),
        ];
        let ids: Vec<SiteId> = sites.iter().map(|&(n, d)| t.add_site(n, d)).collect();
        for &sid in &ids {
            let node = t.add_node(sid);
            let via_dns = t.site_by_dns(node).unwrap();
            // The two FNAL sites share the fnal.gov suffix; DNS grouping may
            // legitimately collapse them (both are the FNAL failure domain).
            let dns_domain = site_domain_of(&t.node(node).hostname).unwrap();
            assert!(t.site(via_dns).domain.ends_with(dns_domain));
        }
    }

    proptest! {
        /// Any two hostnames with the same last-two labels group together.
        #[test]
        fn prop_grouping_depends_only_on_suffix(
            host_a in "[a-z]{1,8}",
            host_b in "[a-z]{1,8}",
            mid in "[a-z]{1,6}",
            dom in "[a-z]{2,8}\\.[a-z]{2,3}",
        ) {
            let a = format!("{host_a}.{dom}");
            let b = format!("{host_b}.{mid}.{dom}");
            prop_assert_eq!(site_domain_of(&a), site_domain_of(&b));
            prop_assert_eq!(site_domain_of(&a), Some(dom.as_str()));
        }

        /// Node ids are dense, never reused, and keep their site.
        #[test]
        fn prop_registry_ids_dense(sites in 1usize..5, adds in proptest::collection::vec(0usize..5, 1..40)) {
            let mut t = Topology::new();
            let site_ids: Vec<SiteId> = (0..sites)
                .map(|i| t.add_site(format!("S{i}"), format!("s{i}.edu")))
                .collect();
            let mut expected = Vec::new();
            for (i, &s) in adds.iter().enumerate() {
                let site = site_ids[s % site_ids.len()];
                let id = t.add_node(site);
                prop_assert_eq!(id.0 as usize, i);
                expected.push((id, site));
            }
            for (id, site) in expected {
                prop_assert_eq!(t.site_of(id), site);
            }
        }
    }
}
