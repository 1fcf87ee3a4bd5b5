//! Criterion benches for the two scale-path hot spots this repo's
//! incremental rework targets (DESIGN.md §10):
//!
//! * `fluid_recompute/*` — cost of the waterfilling recompute triggered by
//!   one flow start while N flows are already in the air. The incremental
//!   engine only re-waterfills the connected component the new flow
//!   touches, so cost scales with component size, not N.
//!   `burst_64_at_1000` starts 64 flows at one instant (the
//!   replication-monitor tick pattern), which the deferred recompute
//!   settles with one pass per touched component.
//! * `namenode_tick/*` — one replication-monitor tick with a deep
//!   under-replication queue. The bucketed queue dispatches without the
//!   per-tick sort of the whole backlog.
//! * `jobtracker_heartbeat/*` — one cluster-wide heartbeat round against
//!   a loaded job queue. The incremental job-order cache and pending-only
//!   locality index keep the per-heartbeat cost flat in tracker count.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hog_hdfs::placement::SiteAwarePolicy;
use hog_hdfs::{BlockId, HdfsConfig, Namenode};
use hog_mapreduce::{Assignment, JobSubmission, JobTracker, MrParams};
use hog_net::{FluidNet, NetParams, Network, NodeId, SiteId, Topology};
use hog_sim_core::{SimRng, SimTime};
use std::hint::black_box;

/// A fluid net with `flows` active transfers spread over 8 sites × 50
/// nodes (enough endpoints that NICs are not all shared), with its
/// deferred recompute already settled.
fn loaded_net(flows: u32) -> FluidNet {
    let mut net = FluidNet::new(NetParams::grid_default());
    let nodes = 400u32;
    for n in 0..nodes {
        net.register_node(NodeId(n), SiteId((n / 50) as u16));
    }
    for i in 0..flows {
        let src = NodeId(i * 7 % nodes);
        let dst = NodeId((i * 131 + 11) % nodes);
        net.start_flow(SimTime::ZERO, src, dst, 256 << 20, i as u64);
    }
    net.flush();
    net
}

fn bench_fluid_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_recompute");
    for &flows in &[10u32, 100, 1000] {
        let name = format!("start_flow_at_{flows}");
        group.bench_function(&name, |b| {
            b.iter_batched(
                || loaded_net(flows),
                |mut net| {
                    // One start, flushed = one incremental recompute of the
                    // touched component.
                    net.start_flow(SimTime::ZERO, NodeId(3), NodeId(397), 256 << 20, 1 << 40);
                    black_box(net.next_completion());
                    black_box(net.recompute_work())
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.bench_function("burst_64_at_1000", |b| {
        b.iter_batched(
            || loaded_net(1000),
            |mut net| {
                // 64 same-instant repair copies, settled by one flush.
                for i in 0..64u32 {
                    let src = NodeId(i * 13 % 400);
                    let dst = NodeId((i * 61 + 5) % 400);
                    net.start_flow(SimTime::ZERO, src, dst, 64 << 20, (1 << 40) + i as u64);
                }
                black_box(net.next_completion());
                black_box(net.recompute_work())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_namenode_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("namenode_tick");
    group.sample_size(10);
    // 10k blocks on 200 datanodes at replication 3; killing 7 nodes puts
    // ~1k blocks below target, so the measured tick dispatches from a
    // four-digit priority queue (bounded by max_repl_orders_per_tick).
    group.bench_function("10k_blocks_1k_under", |b| {
        b.iter_batched(
            || {
                let mut topo = Topology::new();
                let mut nodes = Vec::new();
                for s in 0..10 {
                    let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
                    for _ in 0..20 {
                        nodes.push(topo.add_node(site));
                    }
                }
                let mut nn = Namenode::new(
                    HdfsConfig::hog(),
                    Box::new(SiteAwarePolicy),
                    SimRng::seed_from_u64(3),
                );
                for &n in &nodes {
                    nn.register_datanode(SimTime::ZERO, n);
                }
                let f = nn.create_file_default("/in");
                for _ in 0..10_000 {
                    let (blk, t) = nn.allocate_block(f, 8 << 20, None, &topo).unwrap();
                    nn.commit_block(blk, &t);
                }
                for &n in nodes.iter().take(7) {
                    nn.mark_silent(SimTime::from_secs(1), n);
                }
                // Priming tick: declares the silent nodes dead and fills
                // the under-replication queue.
                let _ = nn.tick(SimTime::from_secs(3600), &topo);
                assert!(nn.under_replicated_count() >= 1000);
                (nn, topo)
            },
            |(mut nn, topo)| {
                let out = nn.tick(SimTime::from_secs(3700), &topo);
                black_box((out.orders.len(), nn.under_replicated_count()))
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// A JobTracker with `trackers` registered workers over `trackers / 200`
/// sites and `jobs` submitted jobs whose splits land on real workers, plus
/// the matching topology. Speculation is off so the measured round is the
/// pure assignment path (no speculative rescans).
fn loaded_jt(trackers: u32, jobs: u32) -> (JobTracker, Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let mut nodes = Vec::with_capacity(trackers as usize);
    let sites = (trackers / 200).max(1);
    for s in 0..sites {
        let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
        for _ in 0..trackers.div_ceil(sites) {
            if nodes.len() < trackers as usize {
                nodes.push(topo.add_node(site));
            }
        }
    }
    let mut jt = JobTracker::new(
        MrParams::hog().with_speculation(false),
        SimRng::seed_from_u64(11),
    );
    for &n in &nodes {
        jt.register_tracker(SimTime::ZERO, n, topo.site_of(n), 1, 1);
    }
    for j in 0..jobs {
        let maps = 50usize;
        let spec = JobSubmission {
            input_blocks: (0..maps)
                .map(|i| (BlockId((j as u64) << 20 | i as u64), 64 << 20))
                .collect(),
            split_locations: (0..maps)
                .map(|i| {
                    // Three replicas per split, scattered like placement
                    // would scatter them.
                    (0..3usize)
                        .map(|r| nodes[(i * 997 + r * 131 + j as usize * 7919) % nodes.len()])
                        .collect()
                })
                .collect(),
            reduces: 4,
            map_cpu_secs: 30.0,
            map_output_bytes: 16 << 20,
            reduce_cpu_secs: 10.0,
            reduce_output_bytes: 16 << 20,
            output_replication: 10,
        };
        jt.submit_job(SimTime::ZERO, spec, &topo);
    }
    (jt, topo, nodes)
}

fn bench_jobtracker_heartbeat(c: &mut Criterion) {
    let mut group = c.benchmark_group("jobtracker_heartbeat");
    group.sample_size(10);
    for &(trackers, jobs) in &[(1_000u32, 10u32), (1_000, 100), (10_000, 10), (10_000, 100)] {
        let name = format!("{trackers}_trackers_{jobs}_jobs");
        group.bench_function(&name, |b| {
            b.iter_batched(
                || loaded_jt(trackers, jobs),
                |(mut jt, topo, nodes)| {
                    // One cluster-wide heartbeat round, assignments
                    // drained into a reused buffer exactly like the
                    // cluster's batched dispatch loop does.
                    let now = SimTime::from_secs(3);
                    let mut out: Vec<Assignment> = Vec::new();
                    let mut assigned = 0usize;
                    for &n in &nodes {
                        jt.heartbeat_into(now, n, &topo, &mut out);
                        assigned += out.len();
                    }
                    black_box(assigned)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fluid_recompute,
    bench_namenode_tick,
    bench_jobtracker_heartbeat
);
criterion_main!(benches);
