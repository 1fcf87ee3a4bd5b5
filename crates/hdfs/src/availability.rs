//! Trua-style per-block availability targets.
//!
//! HOG's answer to OSG preemption is a flat replication factor of 10
//! (§III-B): every block pays the worst-case premium whether or not its
//! hosts are at risk. Trua (see PAPERS.md) showed that per-task
//! availability targets beat a flat factor — the same idea applies per
//! block. The [`AvailabilityPolicy`] here sets each block's replication
//! target from three signals:
//!
//! 1. the decayed site-failure penalty of the block's current hosts
//!    (hog-sched's failure history, read through the JobTracker),
//! 2. the churn band of those hosts' sites (hog-grid's `ChurnModel`
//!    median-lifetime, scaled by the diurnal pressure multiplier),
//! 3. a per-block read counter (hot blocks buy extra copies for read
//!    bandwidth as much as for durability).
//!
//! Targets are clamped to `[r_min, r_max]` and lowered only through a
//! hysteresis band so a site drifting around a classification boundary
//! doesn't make targets flap (raise eagerly, lower reluctantly).
//!
//! All of the state driven by this policy is **soft**: read counters
//! and the excess-replica queue are rebuilt from the block map after a
//! failover and are deliberately excluded from the fsimage, while the
//! per-block target itself rides in [`crate::types::BlockMeta::expected`],
//! which was already persisted. With the policy disabled (the default)
//! every code path is bit-identical to the flat-replication namenode.

use hog_net::SiteId;
use hog_sim_core::SimDuration;

/// A block with at least this many reads counts as hot.
pub const HOT_READS: u32 = 3;

/// Extra copies for a hot block.
pub const HOT_BOOST: u16 = 2;

/// Extra copies when the majority of a block's hosts sit on risky sites
/// (high failure penalty or short typical lifetime).
pub const RISKY_BOOST: u16 = 2;

/// Copies shed when a block is cold and *every* host sits on a stable
/// site.
pub const STABLE_DROP: u16 = 2;

/// A site whose pressure-adjusted typical glidein lifetime is at least
/// this many seconds qualifies as stable (35 min — the paper's measured
/// mean OSG lifetime).
pub const STABLE_LIFETIME_SECS: f64 = 35.0 * 60.0;

/// A site whose pressure-adjusted typical lifetime is below this many
/// seconds is risky regardless of its penalty.
pub const RISKY_LIFETIME_SECS: f64 = 20.0 * 60.0;

/// A site with a decayed failure penalty at or above this is risky
/// regardless of its lifetime band.
pub const RISKY_PENALTY: f64 = 2.0;

/// Stability additionally requires the decayed penalty to sit below
/// this.
pub const STABLE_PENALTY: f64 = 0.75;

/// Lower a target only when it exceeds the raw recomputed target by more
/// than this many copies (raises apply immediately).
pub const HYSTERESIS: u16 = 1;

/// Minimum spacing between retarget sweeps on the master tick.
pub const RETARGET_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// Per-block replication targeting policy: the bounds and birth target
/// of every block's replication. The signal weights and site bands are
/// the constants above. Disabled by default
/// (`HdfsConfig::availability == None`); arm it with
/// [`crate::HdfsConfig::with_availability`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AvailabilityPolicy {
    /// Hard floor for any block's replication target.
    pub r_min: u16,
    /// Hard ceiling for any block's replication target.
    pub r_max: u16,
    /// Birth target for new blocks: written with
    /// `min(file replication, initial)` copies instead of the flat
    /// factor, then retargeted as signals accumulate. This is where
    /// most of the replica-GB saving comes from — trims only reclaim
    /// space, they can't un-write pipeline bytes.
    pub initial: u16,
}

impl AvailabilityPolicy {
    /// Defaults tuned for the paper's OSG deployment: birth at 6
    /// copies (flat-10 minus the premium paid for blocks that turn out
    /// to live on stable sites), floor 4, ceiling 12, and a one-copy
    /// hysteresis band.
    pub fn trua_default() -> Self {
        AvailabilityPolicy {
            r_min: 4,
            r_max: 12,
            initial: 6,
        }
    }

    /// Replication a new block is born with: the file's requested
    /// factor capped at `initial`, then clamped into `[r_min, r_max]`.
    /// A file explicitly asking for *less* than `r_min` still gets
    /// `r_min` — the floor is the availability guarantee.
    pub fn birth_target(&self, file_replication: u16) -> u16 {
        file_replication
            .min(self.initial)
            .clamp(self.r_min, self.r_max)
    }

    /// Recompute a block's raw target from its signals, before
    /// hysteresis. `base` is the block's birth target, `reads` its
    /// lifetime read count, and the host counts classify where its
    /// replicas currently sit.
    pub fn raw_target(
        &self,
        base: u16,
        reads: u32,
        risky_hosts: usize,
        stable_hosts: usize,
        hosts: usize,
    ) -> u16 {
        let mut t = base as i32;
        if hosts > 0 && 2 * risky_hosts >= hosts {
            t += RISKY_BOOST as i32;
        }
        let hot = reads >= HOT_READS;
        if hot {
            t += HOT_BOOST as i32;
        } else if hosts > 0 && stable_hosts == hosts {
            t -= STABLE_DROP as i32;
        }
        t.clamp(self.r_min as i32, self.r_max as i32) as u16
    }

    /// Apply hysteresis: raises take effect immediately, lowers only
    /// once the gap exceeds the hysteresis band (and then drop all the
    /// way to the raw target, so the band doesn't ratchet).
    pub fn apply(&self, current: u16, raw: u16) -> u16 {
        if raw > current || current - raw > HYSTERESIS {
            raw
        } else {
            current
        }
    }

    /// How many replicas of a block must survive a planned shrink /
    /// decommission batch when this policy is armed: half the block's
    /// target (rounded up), never below one. The flat namenode only
    /// requires a single survivor; per-block targets would be
    /// meaningless if a shrink could cut an 8-target block to 1 copy
    /// in one batch.
    pub fn shrink_floor(&self, expected: u16) -> usize {
        ((expected as usize).div_ceil(2)).max(1)
    }
}

/// How a site is classified for availability decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteBand {
    /// High failure penalty or short typical lifetime: replicas here
    /// need backup.
    Risky,
    /// Neither risky nor provably stable (includes sites the snapshot
    /// doesn't cover, like the dedicated CENTRAL site's unknown peers).
    Neutral,
    /// Low penalty and long typical lifetime: safe to hold the only
    /// copies of a cold block.
    Stable,
}

/// One site's availability signals at snapshot time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SiteRisk {
    /// Decayed failure penalty from hog-sched (0.0 when the active
    /// scheduler keeps no failure history).
    pub penalty: f64,
    /// Typical glidein lifetime in seconds under the site's churn
    /// model, divided by the current diurnal pressure multiplier —
    /// shorter at reclaim peaks.
    pub lifetime_secs: f64,
}

/// Point-in-time availability signals for every site, indexed by
/// [`SiteId`]. Built by the cluster on the master tick and handed to
/// [`crate::Namenode::apply_availability`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AvailabilitySnapshot {
    /// Per-site risk, dense by `SiteId`. Sites beyond the vector
    /// (registered after the snapshot was built) classify as Neutral.
    pub sites: Vec<SiteRisk>,
}

impl AvailabilitySnapshot {
    /// Classify a site against the risky and stable bands. Unknown
    /// sites are Neutral: they neither trigger a risky boost nor allow a
    /// stable drop.
    pub fn classify(&self, site: SiteId) -> SiteBand {
        let Some(risk) = self.sites.get(site.0 as usize) else {
            return SiteBand::Neutral;
        };
        if risk.penalty >= RISKY_PENALTY || risk.lifetime_secs <= RISKY_LIFETIME_SECS {
            SiteBand::Risky
        } else if risk.penalty < STABLE_PENALTY && risk.lifetime_secs >= STABLE_LIFETIME_SECS {
            SiteBand::Stable
        } else {
            SiteBand::Neutral
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AvailabilityPolicy {
        AvailabilityPolicy::trua_default()
    }

    #[test]
    fn birth_target_caps_and_clamps() {
        let p = policy();
        assert_eq!(p.birth_target(10), 6); // flat-10 file births at `initial`
        assert_eq!(p.birth_target(5), 5); // below `initial` passes through
        assert_eq!(p.birth_target(2), 4); // but never below the floor
        assert_eq!(p.birth_target(1), 4);
    }

    #[test]
    fn raw_target_boosts_and_drops() {
        let p = policy();
        // Cold block, all hosts stable: sheds copies.
        assert_eq!(p.raw_target(6, 0, 0, 6, 6), 4);
        // Cold block, mixed hosts: stays at base.
        assert_eq!(p.raw_target(6, 0, 0, 3, 6), 6);
        // Majority-risky hosts: boosted.
        assert_eq!(p.raw_target(6, 0, 3, 0, 6), 8);
        // Hot block never takes the stable drop, and stacks with risky.
        assert_eq!(p.raw_target(6, 5, 0, 6, 6), 8);
        assert_eq!(p.raw_target(6, 5, 6, 0, 6), 10);
    }

    #[test]
    fn raw_target_clamps_to_bounds() {
        let p = policy();
        assert_eq!(p.raw_target(12, 99, 6, 0, 6), p.r_max);
        assert_eq!(p.raw_target(4, 0, 0, 6, 6), p.r_min);
        // A hostless block (all replicas lost) keeps its base.
        assert_eq!(p.raw_target(6, 0, 0, 0, 0), 6);
    }

    #[test]
    fn hysteresis_raises_eagerly_lowers_reluctantly() {
        let p = policy(); // HYSTERESIS = 1
        assert_eq!(p.apply(6, 8), 8); // raise applies immediately
        assert_eq!(p.apply(6, 5), 6); // one-copy lower: held
        assert_eq!(p.apply(6, 4), 4); // beyond the band: drops to raw
        assert_eq!(p.apply(6, 6), 6);
    }

    #[test]
    fn shrink_floor_is_half_target_at_least_one() {
        let p = policy();
        assert_eq!(p.shrink_floor(0), 1);
        assert_eq!(p.shrink_floor(1), 1);
        assert_eq!(p.shrink_floor(4), 2);
        assert_eq!(p.shrink_floor(9), 5);
        assert_eq!(p.shrink_floor(10), 5);
    }

    #[test]
    fn classification_bands() {
        let snap = AvailabilitySnapshot {
            sites: vec![
                SiteRisk {
                    penalty: 0.0,
                    lifetime_secs: 3600.0,
                }, // stable
                SiteRisk {
                    penalty: 3.0,
                    lifetime_secs: 3600.0,
                }, // risky (penalty)
                SiteRisk {
                    penalty: 0.0,
                    lifetime_secs: 900.0,
                }, // risky (lifetime)
                SiteRisk {
                    penalty: 1.0,
                    lifetime_secs: 3600.0,
                }, // neutral (mid penalty)
                SiteRisk {
                    penalty: 0.0,
                    lifetime_secs: 1500.0,
                }, // neutral (mid lifetime)
            ],
        };
        assert_eq!(snap.classify(SiteId(0)), SiteBand::Stable);
        assert_eq!(snap.classify(SiteId(1)), SiteBand::Risky);
        assert_eq!(snap.classify(SiteId(2)), SiteBand::Risky);
        assert_eq!(snap.classify(SiteId(3)), SiteBand::Neutral);
        assert_eq!(snap.classify(SiteId(4)), SiteBand::Neutral);
        // Unknown site: neutral.
        assert_eq!(snap.classify(SiteId(99)), SiteBand::Neutral);
    }
}
