//! Node and site identity, plus the hostname → site grouping rule.
//!
//! HOG detects sites from worker DNS names: `workername.site.edu` nodes are
//! grouped by their last two DNS labels (`site.edu`). [`site_domain_of`]
//! implements exactly that rule. In the simulator the grid knows each
//! glidein's site when it starts, so [`Topology`] records the node → site
//! mapping directly, without hostnames: it is the authoritative registry
//! read by the network models, HDFS placement and the MapReduce scheduler.

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
    /// DNS domain its workers' names end in, e.g. `ucsd.edu` (the key
    /// [`site_domain_of`] groups them by).
    pub domain: String,
}

/// The authoritative node/site registry.
///
/// A node is added when its glidein starts and keeps its id, site and
/// rack for the rest of the run: ids are never reused, so late-arriving
/// events referencing a dead node are detectable rather than aliasing a
/// new node. Which nodes are running is the grid's record, not this one.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    sites: Vec<SiteInfo>,
    /// Site and rack of every node ever registered, by id.
    nodes: Vec<(SiteId, RackId)>,
    /// Nodes registered per site so far (numbers the racks).
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
        self.per_site_added.push(0);
        id
    }

    /// Register a new node at `site`. Its id is its registration index;
    /// its rack is its per-site ordinal ÷ [`RACK_SIZE`].
    pub fn add_node(&mut self, site: SiteId) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        let ordinal = &mut self.per_site_added[site.0 as usize];
        let rack = RackId((u32::from(site.0) << 16) | (*ordinal / RACK_SIZE));
        *ordinal += 1;
        self.nodes.push((site, rack));
        id
    }

    /// Site of a node (dead or alive).
    pub fn site_of(&self, node: NodeId) -> SiteId {
        self.nodes[node.0 as usize].0
    }

    /// Rack of a node (dead or alive). Racks are synthesised: [`RACK_SIZE`]
    /// consecutive registrations within a site share one (see [`RackId`]).
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.nodes[node.0 as usize].1
    }

    /// All sites.
    pub fn sites(&self) -> &[SiteInfo] {
        &self.sites
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
        assert_eq!((n1, n2, n3), (NodeId(0), NodeId(1), NodeId(2)));
        assert_eq!(t.site_of(n1), fnal);
        assert_eq!(t.site_of(n2), fnal);
        assert_eq!(t.site_of(n3), ucsd);
        assert_eq!(t.sites().len(), 2);
        assert_eq!(t.sites()[ucsd.0 as usize].domain, "ucsd.edu");
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
        let rack = |i: usize| t.rack_of(a_nodes[i]);
        let r = RACK_SIZE as usize;
        assert_eq!(rack(0), rack(r - 1));
        assert_ne!(rack(0), rack(r));
        assert_eq!(rack(r), rack(r + 1));
        // A rack never spans sites, even for the first node of each.
        assert_ne!(rack(0), t.rack_of(b0));
        // Same rack implies same site.
        for &n in &a_nodes {
            assert_eq!(t.site_of(n), a);
        }
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
        for (name, domain) in sites {
            t.add_site(name, domain);
        }
        for site in t.sites() {
            // What `topology.script.file.name` sees for a worker there.
            let worker = format!("w17.{}", site.domain);
            let key = site_domain_of(&worker).unwrap();
            assert!(site.domain.ends_with(key));
            // Map the worker to the first site whose domain matches. The
            // two FNAL sites share the fnal.gov suffix; DNS grouping may
            // legitimately collapse them (both are the FNAL failure domain).
            let via_dns = t
                .sites()
                .iter()
                .find(|s| s.domain == key || s.domain.ends_with(key))
                .unwrap();
            assert!(via_dns.domain.ends_with(key));
            if site.domain == key {
                assert_eq!(via_dns.id, site.id);
            }
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
