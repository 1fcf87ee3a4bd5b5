//! Grid and site configuration.

use crate::churn::{osg_profile, ChurnModel};
use hog_sim_core::dist::{Exponential, UniformDuration};
use hog_sim_core::units::MIB;
use hog_sim_core::SimDuration;

/// Size of the compressed Hadoop worker package fetched from the central
/// repository (75 MB in the evaluation).
pub const PACKAGE_BYTES: u64 = 75 * MIB;

/// Effective rate (bytes/s) at which a site's workers fetch the worker
/// package from the central web repository.
pub const PACKAGE_DOWNLOAD_RATE: f64 = 20.0 * MIB as f64;

/// Fixed time for late-binding configuration + daemon startup after
/// unpacking (decompression is "trivial" per the paper; this covers
/// configuration rewriting and JVM startup).
pub const CONFIGURE_TIME: SimDuration = SimDuration::from_secs(15);

/// `(map, reduce)` task slots of one glidein worker. Each glidein gets
/// one core, so the paper runs one map and one reduce slot per worker.
pub const GLIDEIN_SLOTS: (u8, u8) = (1, 1);

/// Delay before a preempted Condor job re-enters the negotiation cycle
/// (`OnExitRemove = FALSE` requeue plus negotiator latency).
pub const RESUBMIT_DELAY: UniformDuration =
    UniformDuration::new(SimDuration::from_secs(30), SimDuration::from_secs(90));

/// Per-site resource and failure characteristics.
#[derive(Clone, Debug)]
pub struct SiteConfig {
    /// OSG resource name (`GLIDEIN_ResourceName`), e.g. `FNAL_FERMIGRID`.
    pub name: String,
    /// DNS domain for worker hostnames, e.g. `fnal.gov`.
    pub domain: String,
    /// Maximum concurrently running glideins the site will host.
    pub max_slots: usize,
    /// Whether worker nodes have public IPs. Hadoop peers must reach each
    /// other directly, so HOG can only use public-IP sites; the glidein
    /// matcher skips sites where this is false.
    pub public_ip: bool,
    /// Batch-queue wait before a matched glidein starts executing.
    pub acquisition_delay: UniformDuration,
    /// Distribution of a worker's lifetime until the site preempts it
    /// (used by the default [`ChurnModel::Exponential`]).
    pub node_lifetime: Exponential,
    /// Which preemption process drives the site. The default
    /// ([`ChurnModel::Exponential`]) draws from `node_lifetime` exactly
    /// as every pre-churn build did — bit-identical fingerprints;
    /// [`ChurnModel::Calibrated`] switches to the OSG-fit heavy-tailed
    /// diurnal generator (see [`crate::churn`]).
    pub churn: ChurnModel,
    /// Mean time between whole-site outages. `None` disables outages.
    pub outage_mtbf: Option<Exponential>,
    /// How long an outage lasts.
    pub outage_duration: UniformDuration,
}

impl SiteConfig {
    /// A stable, well-connected site: multi-hour mean lifetime, short
    /// batch queue, no outages.
    pub fn stable(name: &str, domain: &str, max_slots: usize) -> Self {
        SiteConfig {
            name: name.to_string(),
            domain: domain.to_string(),
            max_slots,
            public_ip: true,
            acquisition_delay: UniformDuration::new(
                SimDuration::from_secs(20),
                SimDuration::from_secs(120),
            ),
            node_lifetime: Exponential::from_mean(SimDuration::from_secs(12 * 3600)),
            churn: ChurnModel::Exponential,
            outage_mtbf: None,
            outage_duration: UniformDuration::point(SimDuration::from_mins(10)),
        }
    }

    /// A NATed site (not usable by HOG; exists so tests can verify the
    /// public-IP requirement is enforced).
    pub fn nated(name: &str, domain: &str, max_slots: usize) -> Self {
        SiteConfig {
            public_ip: false,
            ..Self::stable(name, domain, max_slots)
        }
    }

    /// Override the mean node lifetime (preemption pressure knob).
    pub fn with_mean_lifetime(mut self, mean: SimDuration) -> Self {
        self.node_lifetime = Exponential::from_mean(mean);
        self
    }

    /// Select the preemption process for this site.
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = churn;
        self
    }

    /// Switch this site to its OSG-calibrated churn profile (matched by
    /// resource name via [`osg_profile`]).
    pub fn calibrated(self) -> Self {
        let profile = osg_profile(&self.name);
        self.with_churn(ChurnModel::Calibrated(profile))
    }

    /// [`Self::calibrated`] with the simulation clock started at
    /// `start_hour` of the campus day (see
    /// [`crate::churn::CalibratedChurn::with_clock`]), so short runs can
    /// land their workload window inside the preemption wave.
    pub fn calibrated_at(self, start_hour: f64) -> Self {
        let profile = osg_profile(&self.name).with_clock(start_hour);
        self.with_churn(ChurnModel::Calibrated(profile))
    }
}

/// The five public-IP OSG sites the paper's submit file pins
/// (`requirements = GLIDEIN_ResourceName =?= ...`), with slot counts large
/// enough to host the paper's biggest (1101-node) experiment.
pub fn paper_sites() -> Vec<SiteConfig> {
    vec![
        SiteConfig::stable("FNAL_FERMIGRID", "fnal.gov", 400),
        SiteConfig::stable("USCMS-FNAL-WC1", "wc1.fnal.gov", 350),
        SiteConfig::stable("UCSDT2", "ucsd.edu", 250),
        SiteConfig::stable("AGLT2", "aglt2.org", 250),
        SiteConfig::stable("MIT_CMS", "mit.edu", 200),
    ]
}

/// Site list able to host `target_nodes` glideins with ~20% headroom for
/// churn replacement (a dead glidein resubmits while its slot drains, so
/// the controller needs spare capacity beyond the steady-state target).
///
/// Up to the paper's scale this is exactly [`paper_sites`] — the five
/// pinned OSG sites (1450 slots) cover every experiment in the paper,
/// 1101 nodes included, so existing runs are bit-identical. Past that,
/// synthetic 400-slot public-IP sites (`OSG_SYN_00` at `syn0.osg.grid`,
/// `OSG_SYN_01` at `syn1.osg.grid`, ...) are appended until capacity
/// reaches the headroomed target — what pinning more `requirements =
/// GLIDEIN_ResourceName` clauses onto additional OSG sites would look
/// like. They use the [`SiteConfig::stable`] profile, matching the five
/// real sites.
pub fn scaled_sites(target_nodes: usize) -> Vec<SiteConfig> {
    let mut sites = paper_sites();
    let needed = target_nodes + target_nodes / 5;
    let mut capacity: usize = sites.iter().map(|s| s.max_slots).sum();
    let mut i = 0usize;
    while capacity < needed {
        sites.push(SiteConfig::stable(
            &format!("OSG_SYN_{i:02}"),
            &format!("syn{i}.osg.grid"),
            400,
        ));
        capacity += 400;
        i += 1;
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sites_are_the_five_public_ones() {
        let sites = paper_sites();
        assert_eq!(sites.len(), 5);
        assert!(sites.iter().all(|s| s.public_ip));
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"FNAL_FERMIGRID"));
        assert!(names.contains(&"USCMS-FNAL-WC1"));
        assert!(names.contains(&"UCSDT2"));
        assert!(names.contains(&"AGLT2"));
        assert!(names.contains(&"MIT_CMS"));
        let total: usize = sites.iter().map(|s| s.max_slots).sum();
        assert!(total >= 1101, "must be able to host the 1101-node run");
    }

    #[test]
    fn package_matches_paper() {
        assert_eq!(PACKAGE_BYTES, 75 * MIB);
    }

    #[test]
    fn scaled_sites_match_paper_through_1101() {
        // Everything up to the paper's largest run must keep the exact
        // five-site list, or the historical fingerprints change.
        for target in [30, 100, 300, 1101] {
            let sites = scaled_sites(target);
            assert_eq!(sites.len(), 5, "target {target} must stay on paper sites");
        }
    }

    #[test]
    fn scaled_sites_synthesize_capacity_with_headroom() {
        for target in [3000usize, 10000] {
            let sites = scaled_sites(target);
            let capacity: usize = sites.iter().map(|s| s.max_slots).sum();
            assert!(
                capacity >= target + target / 5,
                "target {target}: capacity {capacity} lacks 20% headroom"
            );
            assert!(sites.iter().all(|s| s.public_ip));
            // Synthetic names are distinct from each other and the real ones.
            let mut names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), sites.len(), "site names must be unique");
        }
        let sites = scaled_sites(3000);
        assert_eq!(sites[5].name, "OSG_SYN_00");
        assert_eq!(sites[5].domain, "syn0.osg.grid");
    }

    #[test]
    fn sites_default_to_exponential_churn() {
        // The historical fingerprints depend on this: scaled/paper sites
        // must keep the legacy preemption path unless explicitly switched.
        assert!(paper_sites()
            .iter()
            .chain(scaled_sites(3000).iter())
            .all(|s| s.churn == ChurnModel::Exponential));
    }

    #[test]
    fn calibrated_sites_carry_per_site_profiles() {
        let sites: Vec<SiteConfig> = scaled_sites(1101)
            .into_iter()
            .map(SiteConfig::calibrated)
            .collect();
        assert_eq!(sites.len(), 5);
        for s in &sites {
            assert_eq!(
                s.churn,
                ChurnModel::Calibrated(osg_profile(&s.name)),
                "site {} must carry its own profile",
                s.name
            );
        }
        // Only the churn generator changes.
        let plain = scaled_sites(1101);
        for (c, p) in sites.iter().zip(plain.iter()) {
            assert_eq!(c.max_slots, p.max_slots);
            assert_eq!(c.node_lifetime, p.node_lifetime);
        }
    }
}
