//! Experiment harnesses — one function per paper artifact (Tables I–IV,
//! Figures 4–5) and per ablation (X1–X7 in DESIGN.md).
//!
//! Each harness returns plain data; the `hog-bench` binaries render it as
//! text tables / ASCII figures / CSV. Every experiment is deterministic
//! given its seeds.

use crate::config::ClusterConfig;
use crate::driver::RunResult;
use crate::sweep::{run_sweep, SweepPoint};
use hog_hdfs::PlacementKind;
use hog_sim_core::{SimDuration, SimTime};

/// The pool sizes the paper samples in Figure 4.
pub const FIG4_POOL_SIZES: [usize; 12] = [40, 50, 55, 60, 99, 100, 132, 160, 171, 180, 974, 1101];

/// Default horizon for experiment runs.
pub const HORIZON: SimDuration = SimDuration::from_secs(60 * 3600);

/// One point of Figure 4: a pool size with its per-run response times.
#[derive(Clone, Debug)]
pub struct Fig4Point {
    /// Max pool size configured (the x axis).
    pub nodes: usize,
    /// Response time per run, seconds (3 runs in the paper).
    pub responses: Vec<f64>,
}

impl Fig4Point {
    /// Mean response across runs.
    pub fn mean(&self) -> f64 {
        if self.responses.is_empty() {
            return f64::NAN;
        }
        self.responses.iter().sum::<f64>() / self.responses.len() as f64
    }
}

/// Figure 4 data: HOG response-time curve plus the dedicated baseline.
#[derive(Clone, Debug)]
pub struct Fig4 {
    /// One point per pool size.
    pub hog: Vec<Fig4Point>,
    /// Dedicated-cluster response times (one per run).
    pub cluster: Vec<f64>,
    /// Raw results for deeper reporting.
    pub runs: Vec<RunResult>,
}

impl Fig4 {
    /// Mean dedicated-cluster response.
    pub fn cluster_mean(&self) -> f64 {
        if self.cluster.is_empty() {
            return f64::NAN;
        }
        self.cluster.iter().sum::<f64>() / self.cluster.len() as f64
    }

    /// The strict crossover: smallest sampled pool size whose mean
    /// response beats the cluster outright.
    pub fn crossover_nodes(&self) -> Option<usize> {
        self.equivalence_at(0.0)
    }

    /// The equivalent-performance point at a tolerance: smallest sampled
    /// pool size whose mean response is within `tol` (e.g. 0.05 = 5 %) of
    /// the cluster mean. The paper reports the curve crossing between 99
    /// and 100 nodes; with three runs per point, a small tolerance absorbs
    /// churn-induced run-to-run variance.
    pub fn equivalence_at(&self, tol: f64) -> Option<usize> {
        let base = self.cluster_mean() * (1.0 + tol);
        self.hog
            .iter()
            .filter(|p| p.mean().is_finite() && p.mean() <= base)
            .map(|p| p.nodes)
            .min()
    }
}

/// Reproduce Figure 4: `runs_per_point` seeds at each pool size in
/// `sizes`, plus the dedicated baseline. `threads` parallelises across
/// runs.
pub fn figure4(sizes: &[usize], runs_per_point: usize, threads: usize) -> Fig4 {
    let mut points = Vec::new();
    for &n in sizes {
        for r in 0..runs_per_point {
            points.push(SweepPoint {
                cfg: ClusterConfig::hog(n, 100 + r as u64),
                workload_seed: 1000 + r as u64,
            });
        }
    }
    for r in 0..runs_per_point {
        points.push(SweepPoint {
            cfg: ClusterConfig::dedicated(100 + r as u64),
            workload_seed: 1000 + r as u64,
        });
    }
    let results = run_sweep(points, HORIZON, threads);
    let mut hog = Vec::new();
    let mut idx = 0;
    for &n in sizes {
        let mut responses = Vec::new();
        for _ in 0..runs_per_point {
            if let Some(d) = results[idx].response_time {
                responses.push(d.as_secs_f64());
            }
            idx += 1;
        }
        hog.push(Fig4Point {
            nodes: n,
            responses,
        });
    }
    let cluster: Vec<f64> = results[idx..]
        .iter()
        .filter_map(|r| r.response_time.map(|d| d.as_secs_f64()))
        .collect();
    Fig4 {
        hog,
        cluster,
        runs: results,
    }
}

/// One Figure 5 trace with its Table IV row.
#[derive(Clone, Debug)]
pub struct Fig5Run {
    /// Label, e.g. "5a-stable".
    pub label: String,
    /// Response time, seconds.
    pub response: f64,
    /// Area beneath the reported-nodes curve over the workload window
    /// (node·seconds), Table IV.
    pub area: f64,
    /// The full run (for rendering the trace).
    pub result: RunResult,
}

/// Reproduce Figure 5 + Table IV: three 55-node runs — two on stable
/// sites, one under heavy churn — reporting response time and the area
/// beneath the availability curve. In the paper, the larger the node
/// fluctuation (smaller area), the longer the response.
pub fn figure5(threads: usize) -> Vec<Fig5Run> {
    // Stable runs keep the default 12 h mean glidein lifetime; the
    // unstable run models a preemption-heavy day (75 min mean). The paper
    // saw a 1.6× response gap between its best stable and its unstable
    // run; pushing churn much harder than this turns the gap into an
    // order of magnitude because the upload phase starts thrashing too.
    let stable_lifetime = SimDuration::from_secs(12 * 3600);
    let unstable_lifetime = SimDuration::from_secs(75 * 60);
    let points = vec![
        SweepPoint {
            cfg: ClusterConfig::hog(55, 501)
                .with_mean_lifetime(stable_lifetime)
                .named("5a-stable"),
            workload_seed: 1500,
        },
        SweepPoint {
            cfg: ClusterConfig::hog(55, 502)
                .with_mean_lifetime(stable_lifetime)
                .named("5b-stable"),
            workload_seed: 1500,
        },
        SweepPoint {
            cfg: ClusterConfig::hog(55, 503)
                .with_mean_lifetime(unstable_lifetime)
                .named("5c-unstable"),
            workload_seed: 1500,
        },
    ];
    let results = run_sweep(points, HORIZON, threads);
    results
        .into_iter()
        .map(|r| Fig5Run {
            label: r.name.clone(),
            response: r.response_time.map(|d| d.as_secs_f64()).unwrap_or(f64::NAN),
            area: r.area_reported,
            result: r,
        })
        .collect()
}

/// One arm of a multi-arm comparison.
#[derive(Clone, Debug)]
pub struct ComparisonArm {
    /// Label.
    pub label: String,
    /// The run.
    pub result: RunResult,
}

impl ComparisonArm {
    /// Response seconds (NaN if unfinished).
    pub fn response(&self) -> f64 {
        self.result
            .response_time
            .map(|d| d.as_secs_f64())
            .unwrap_or(f64::NAN)
    }
}

/// A labelled set of runs under contrasting configurations.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// The arms, in input order.
    pub arms: Vec<ComparisonArm>,
}

fn compare(points: Vec<(String, SweepPoint)>, threads: usize) -> Comparison {
    let (labels, pts): (Vec<_>, Vec<_>) = points.into_iter().unzip();
    let results = run_sweep(pts, HORIZON, threads);
    Comparison {
        arms: labels
            .into_iter()
            .zip(results)
            .map(|(label, result)| ComparisonArm { label, result })
            .collect(),
    }
}

/// X1 — dead-node timeout ablation: HOG's 30 s detection vs the stock
/// ~10.5 min recheck interval, under churn.
pub fn ablation_heartbeat(nodes: usize, threads: usize) -> Comparison {
    let churn = SimDuration::from_secs(45 * 60);
    compare(
        vec![
            (
                "hog-30s-timeout".into(),
                SweepPoint {
                    cfg: ClusterConfig::hog(nodes, 601)
                        .with_mean_lifetime(churn)
                        .named("hog-30s-timeout"),
                    workload_seed: 1600,
                },
            ),
            (
                "stock-630s-timeout".into(),
                SweepPoint {
                    cfg: ClusterConfig::hog(nodes, 601)
                        .with_mean_lifetime(churn)
                        .with_dead_timeout(SimDuration::from_secs(630))
                        .named("stock-630s-timeout"),
                    workload_seed: 1600,
                },
            ),
        ],
        threads,
    )
}

/// X2 — replication-factor sweep under churn: the paper's "10 replicas
/// was the experimental number which worked".
pub fn ablation_replication(
    nodes: usize,
    factors: &[u16],
    threads: usize,
) -> Vec<(u16, ComparisonArm)> {
    let churn = SimDuration::from_secs(35 * 60);
    let points: Vec<(String, SweepPoint)> = factors
        .iter()
        .map(|&f| {
            let label = format!("replication-{f}");
            (
                label.clone(),
                SweepPoint {
                    cfg: ClusterConfig::hog(nodes, 602)
                        .with_mean_lifetime(churn)
                        .with_replication(f)
                        .named(label),
                    workload_seed: 1601,
                },
            )
        })
        .collect();
    let cmp = compare(points, threads);
    factors.iter().copied().zip(cmp.arms).collect()
}

/// X3 — zombie datanodes: first-iteration HOG (no fix) vs the disk-check
/// fix vs no zombies at all.
pub fn ablation_zombie(nodes: usize, threads: usize) -> Comparison {
    let churn = SimDuration::from_secs(45 * 60);
    compare(
        vec![
            (
                "no-zombies".into(),
                SweepPoint {
                    cfg: ClusterConfig::hog(nodes, 603)
                        .with_mean_lifetime(churn)
                        .named("no-zombies"),
                    workload_seed: 1602,
                },
            ),
            (
                "zombies-no-fix".into(),
                SweepPoint {
                    cfg: ClusterConfig::hog(nodes, 603)
                        .with_mean_lifetime(churn)
                        .with_zombies(0.3, false)
                        .named("zombies-no-fix"),
                    workload_seed: 1602,
                },
            ),
            (
                "zombies-disk-check".into(),
                SweepPoint {
                    cfg: ClusterConfig::hog(nodes, 603)
                        .with_mean_lifetime(churn)
                        .with_zombies(0.3, true)
                        .named("zombies-disk-check"),
                    workload_seed: 1602,
                },
            ),
        ],
        threads,
    )
}

/// X4 — disk overflow (§IV-D.2): shrink the workers' scratch disks until
/// intermediate-data buildup causes task failures. One 64 MB map spills
/// 32 MiB, so the interesting range is a few map-outputs' worth.
pub fn ablation_disk(
    nodes: usize,
    scratch_mib: &[u64],
    threads: usize,
) -> Vec<(u64, ComparisonArm)> {
    let points: Vec<(String, SweepPoint)> = scratch_mib
        .iter()
        .map(|&m| {
            let label = format!("scratch-{m}MiB");
            let mut cfg = ClusterConfig::hog(nodes, 604).named(label.clone());
            cfg.mr = cfg.mr.with_scratch(m * hog_sim_core::units::MIB);
            (
                label,
                SweepPoint {
                    cfg,
                    workload_seed: 1603,
                },
            )
        })
        .collect();
    let cmp = compare(points, threads);
    scratch_mib.iter().copied().zip(cmp.arms).collect()
}

/// X6 — multi-copy task execution (§VI future work): eager K copies of
/// every task under churn, taking the fastest.
pub fn ablation_multicopy(nodes: usize, copies: &[u8], threads: usize) -> Vec<(u8, ComparisonArm)> {
    let churn = SimDuration::from_secs(35 * 60);
    let points: Vec<(String, SweepPoint)> = copies
        .iter()
        .map(|&k| {
            let label = format!("copies-{k}");
            (
                label.clone(),
                SweepPoint {
                    cfg: ClusterConfig::hog(nodes, 606)
                        .with_mean_lifetime(churn)
                        .with_task_copies(k, k > 2)
                        .named(label),
                    workload_seed: 1605,
                },
            )
        })
        .collect();
    let cmp = compare(points, threads);
    copies.iter().copied().zip(cmp.arms).collect()
}

/// X7 — site awareness ablation: HOG's site-aware placement vs
/// rack-oblivious random placement, under site outages (the failure mode
/// site awareness exists to survive).
pub fn ablation_siteaware(nodes: usize, threads: usize) -> Comparison {
    let mk = |placement: PlacementKind, name: &str| {
        // Replication 2 so placement alone decides whether one whole-site
        // outage can eat every replica of a block: site-aware placement
        // guarantees two distinct sites per block, oblivious placement
        // stacks ~1/5 of blocks inside a single failure domain. (At HOG's
        // replication 10 even random placement straddles sites.)
        let mut cfg = ClusterConfig::hog(nodes, 607)
            .with_replication(2)
            .with_placement(placement)
            .named(name.to_string());
        if let crate::config::ResourceConfig::Grid { sites, .. } = &mut cfg.resource {
            for s in sites.iter_mut() {
                s.outage_mtbf = Some(hog_sim_core::dist::Exponential::from_mean(
                    SimDuration::from_secs(3 * 3600),
                ));
                s.outage_duration = hog_sim_core::dist::UniformDuration::new(
                    SimDuration::from_mins(5),
                    SimDuration::from_mins(15),
                );
            }
        }
        SweepPoint {
            cfg,
            workload_seed: 1606,
        }
    };
    compare(
        vec![
            (
                "site-aware".into(),
                mk(PlacementKind::SiteAware, "site-aware"),
            ),
            (
                "rack-oblivious".into(),
                mk(PlacementKind::RackOblivious, "rack-oblivious"),
            ),
        ],
        threads,
    )
}

/// Locality study (§IV-D: "The high replication factor for HOG allows
/// for very good data locality"): sweep the replication factor and report
/// the map-locality mix. Returns `(factor, node_local, site_local,
/// remote, response_secs)` per factor.
pub fn locality_vs_replication(
    nodes: usize,
    factors: &[u16],
    threads: usize,
) -> Vec<(u16, u64, u64, u64, f64)> {
    let points: Vec<(String, SweepPoint)> = factors
        .iter()
        .map(|&f| {
            let label = format!("locality-r{f}");
            (
                label.clone(),
                SweepPoint {
                    cfg: ClusterConfig::hog(nodes, 608)
                        .with_replication(f)
                        .named(label),
                    workload_seed: 1607,
                },
            )
        })
        .collect();
    let cmp = compare(points, threads);
    factors
        .iter()
        .zip(cmp.arms)
        .map(|(&f, arm)| {
            let jt = arm.result.jt;
            (f, jt.node_local, jt.site_local, jt.remote, arm.response())
        })
        .collect()
}

/// X10 — graceful degradation under escalating chaos: replay the same
/// workload while a seeded [`hog_chaos::FaultPlan`] injects ever harsher
/// cross-layer faults (preemption bursts, site partitions, WAN
/// degradation, zombie outbreaks, stragglers, master stalls), with the
/// invariant auditor and livelock watchdog armed. Returns one arm per
/// intensity, 0 = fault-free control.
pub fn ablation_chaos(
    nodes: usize,
    intensities: &[u32],
    threads: usize,
) -> Vec<(u32, ComparisonArm)> {
    let sites: Vec<String> = hog_grid::config::paper_sites()
        .into_iter()
        .map(|s| s.name)
        .collect();
    let site_refs: Vec<&str> = sites.iter().map(String::as_str).collect();
    let points: Vec<(String, SweepPoint)> = intensities
        .iter()
        .map(|&k| {
            let label = format!("chaos-{k}");
            (
                label.clone(),
                SweepPoint {
                    cfg: ClusterConfig::hog(nodes, 610)
                        .with_fault_plan(hog_chaos::FaultPlan::escalating(610, k, &site_refs))
                        .with_audit(true)
                        .with_watchdog(SimDuration::from_secs(3600))
                        .named(label),
                    workload_seed: 1610,
                },
            )
        })
        .collect();
    let cmp = compare(points, threads);
    intensities.iter().copied().zip(cmp.arms).collect()
}

/// The workload window of a run (for rendering availability traces).
pub fn workload_window(r: &RunResult) -> (SimTime, SimTime) {
    let start = r.workload_start.unwrap_or(SimTime::ZERO);
    let end = r
        .jobs
        .iter()
        .filter_map(|j| j.finished)
        .max()
        .unwrap_or(start);
    (start, end)
}
