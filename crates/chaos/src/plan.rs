//! Scripted fault timelines.
//!
//! A [`FaultPlan`] is a list of [`TimedFault`]s: offsets (relative to the
//! workload start, i.e. when upload finishes and jobs begin submitting)
//! paired with a [`Fault`] to inject. The plan is pure data — the
//! `hog-core` mediator resolves site names against its topology and
//! performs the actual state surgery — so the same plan can be replayed
//! against any configuration, and two runs with the same seed and plan
//! are byte-identical.

use hog_sim_core::{SimDuration, SimRng};

/// One injectable cross-layer fault.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// The batch system evicts up to `count` running glideins at `site`
    /// simultaneously (correlated preemption burst, grid layer).
    PreemptBurst {
        /// Site name (matched against the grid site configs).
        site: String,
        /// Maximum number of victims.
        count: usize,
    },
    /// `site` becomes unreachable for `duration` while its nodes stay
    /// alive: flows are killed, heartbeats stop arriving at the masters,
    /// but daemons keep running and re-join on heal. Distinct from
    /// a grid `SiteOutage`, which kills the glideins outright.
    SitePartition {
        /// Site name.
        site: String,
        /// How long the partition lasts.
        duration: SimDuration,
    },
    /// Every site's WAN up/downlink drops to `factor` × its configured
    /// capacity for `duration` (network layer).
    WanDegrade {
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
        /// How long the degradation lasts.
        duration: SimDuration,
    },
    /// Up to `count` healthy workers outside any partition lose their
    /// storage at once while their daemons keep heartbeating: the
    /// §IV-D.1 abandoned-node pathology as an outbreak. The masters
    /// cannot see it; the mediator fails what the zombies source.
    ZombieOutbreak {
        /// Number of new zombies.
        count: usize,
    },
    /// Up to `count` nodes become stragglers: their map/reduce compute
    /// slows by `cpu_factor` and local disk I/O by `disk_factor`.
    Straggler {
        /// Number of straggler nodes.
        count: usize,
        /// CPU time multiplier (≥ 1 slows the node down).
        cpu_factor: f64,
        /// Disk read/write time multiplier (≥ 1 slows the node down).
        disk_factor: f64,
    },
    /// The namenode/jobtracker master process stalls for `duration`:
    /// no death detection, no replication dispatch, no heartbeat
    /// processing — then resumes.
    MasterStall {
        /// How long the masters are suspended.
        duration: SimDuration,
    },
    /// The master host dies outright: the Namenode+JobTracker stack goes
    /// down and stays down until the standby's detection timeout fires
    /// and promotes a checkpoint-restored replacement (the recovery
    /// protocol lives in the `hog-core` mediator). On clusters without a
    /// failover configuration the fault is recorded and ignored — the
    /// paper's single-master deployment has nothing to promote.
    MasterCrash,
    /// Corrupt a datanode's byte accounting by `delta_bytes` without
    /// touching its block set. Exists so the invariant
    /// [`Auditor`](crate::Auditor) can be proven live: a run with this
    /// fault and auditing enabled *must* abort.
    CorruptAccounting {
        /// Bytes of phantom usage to add.
        delta_bytes: u64,
    },
    /// The inter-pool WAN backbone is severed for `duration`: cross-pool
    /// block staging freezes (transfers pause, not abort) and the
    /// federation meta-scheduler must route around the cut. A no-op on a
    /// single standalone cluster, which has no inter-pool tier.
    PoolPartition {
        /// How long the backbone stays cut.
        duration: SimDuration,
    },
}

impl Fault {
    /// For windowed faults, how long the fault stays in force before the
    /// mediator heals it (`ChaosEnd`). `None` for instantaneous faults.
    pub fn window(&self) -> Option<SimDuration> {
        match self {
            Fault::SitePartition { duration, .. }
            | Fault::WanDegrade { duration, .. }
            | Fault::PoolPartition { duration } => Some(*duration),
            _ => None,
        }
    }
}

/// A fault with its injection offset (relative to workload start).
#[derive(Clone, Debug, PartialEq)]
pub struct TimedFault {
    /// Offset from workload start.
    pub at: SimDuration,
    /// What to inject.
    pub fault: Fault,
}

/// A deterministic, scripted timeline of faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<TimedFault>,
}

impl FaultPlan {
    /// An empty plan (no faults; auditing/watchdog may still run).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Append a fault at `at` (offset from workload start). Builder-style.
    pub fn at(mut self, at: SimDuration, fault: Fault) -> Self {
        self.faults.push(TimedFault { at, fault });
        self
    }

    /// The scripted faults, in insertion order.
    pub fn faults(&self) -> &[TimedFault] {
        &self.faults
    }

    /// Number of scripted faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A seeded, escalating plan for graceful-degradation sweeps:
    /// `intensity` 0 is fault-free; each level adds a wave of correlated
    /// preemptions and mixes in partitions, WAN degradation, zombie
    /// outbreaks, stragglers and a master stall as intensity grows.
    /// Site-scoped faults draw their target from `sites` with a
    /// dedicated RNG stream, so the plan depends only on `(seed,
    /// intensity, sites)`.
    pub fn escalating(seed: u64, intensity: u32, sites: &[&str]) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x484f_4743); // "HOGC"
        let mut plan = FaultPlan::new();
        if sites.is_empty() {
            return plan;
        }
        let secs = SimDuration::from_secs;
        for wave in 0..intensity {
            let base = secs(240 + 420 * wave as u64);
            let site = sites[rng.index(sites.len())].to_string();
            plan = plan.at(
                base,
                Fault::PreemptBurst {
                    site,
                    count: 2 * intensity as usize,
                },
            );
            if wave % 2 == 1 {
                let site = sites[rng.index(sites.len())].to_string();
                plan = plan.at(
                    base + secs(45),
                    Fault::SitePartition {
                        site,
                        duration: secs(60 * (1 + intensity as u64)),
                    },
                );
            }
            if wave % 3 == 2 {
                plan = plan.at(
                    base + secs(90),
                    Fault::WanDegrade {
                        factor: 1.0 / (1.0 + intensity as f64),
                        duration: secs(300),
                    },
                );
            }
            if wave % 4 == 3 {
                plan = plan.at(
                    base + secs(150),
                    Fault::ZombieOutbreak {
                        count: intensity as usize,
                    },
                );
            }
        }
        if intensity >= 3 {
            plan = plan.at(
                secs(120),
                Fault::Straggler {
                    count: intensity as usize,
                    cpu_factor: 2.5,
                    disk_factor: 2.0,
                },
            );
        }
        if intensity >= 5 {
            plan = plan.at(
                secs(1200),
                Fault::MasterStall {
                    duration: secs(45 * intensity as u64),
                },
            );
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITES: &[&str] = &["A", "B", "C"];

    #[test]
    fn builder_preserves_order() {
        let plan = FaultPlan::new()
            .at(
                SimDuration::from_secs(10),
                Fault::ZombieOutbreak { count: 2 },
            )
            .at(
                SimDuration::from_secs(5),
                Fault::MasterStall {
                    duration: SimDuration::from_secs(30),
                },
            );
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.faults()[0].at, SimDuration::from_secs(10));
        assert_eq!(plan.faults()[1].at, SimDuration::from_secs(5));
    }

    #[test]
    fn windows_only_for_windowed_faults() {
        assert!(Fault::ZombieOutbreak { count: 1 }.window().is_none());
        assert!(Fault::MasterCrash.window().is_none());
        assert!(Fault::MasterStall {
            duration: SimDuration::from_secs(9)
        }
        .window()
        .is_none());
        assert_eq!(
            Fault::WanDegrade {
                factor: 0.5,
                duration: SimDuration::from_secs(9)
            }
            .window(),
            Some(SimDuration::from_secs(9))
        );
        assert_eq!(
            Fault::SitePartition {
                site: "X".into(),
                duration: SimDuration::from_secs(7)
            }
            .window(),
            Some(SimDuration::from_secs(7))
        );
    }

    #[test]
    fn escalating_is_deterministic_and_monotone_in_intensity() {
        let a = FaultPlan::escalating(7, 4, SITES);
        let b = FaultPlan::escalating(7, 4, SITES);
        assert_eq!(a, b);
        assert!(FaultPlan::escalating(7, 0, SITES).is_empty());
        let mut last = 0;
        for k in 1..8 {
            let n = FaultPlan::escalating(7, k, SITES).len();
            assert!(n >= last, "plan must not shrink as intensity grows");
            last = n;
        }
    }

    #[test]
    fn escalating_differs_across_seeds() {
        let a = FaultPlan::escalating(1, 6, SITES);
        let b = FaultPlan::escalating(2, 6, SITES);
        assert_ne!(a, b, "site picks should depend on the seed");
    }

    #[test]
    fn escalating_without_sites_is_empty() {
        assert!(FaultPlan::escalating(3, 5, &[]).is_empty());
    }
}
