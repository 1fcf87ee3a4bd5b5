//! Criterion benches for the scale-path hot spots this repo's
//! incremental rework targets (DESIGN.md §10):
//!
//! * `event_queue/*` — popping and re-arming 10k per-node periodic timers
//!   beside 10k one-shot timers, with the re-arms on the queue's
//!   fixed-period lane, on its heap, or in place on the lane
//!   (`EventQueue::pop_or_rearm`, the path of a firing that would do
//!   nothing but re-arm).
//! * `fluid_recompute/*` — cost of the waterfilling recompute triggered by
//!   one flow start while N flows are already in the air. The incremental
//!   engine only re-waterfills the connected component the new flow
//!   touches, so cost scales with component size, not N.
//!   `burst_64_at_1000` starts 64 flows at one instant (the
//!   replication-monitor tick pattern), which the deferred recompute
//!   settles with one pass per touched component. The `wake_16_*` pair is
//!   one map spill waking 16 reduces, each starting 2 cross-site diffuse
//!   fetches: `wake_16_query_each` asks for the next completion after
//!   every reduce (one pass per reduce over the growing component, the
//!   cost of arming the network tick per reduce), `wake_16_query_once`
//!   asks once at the end (the mediator's one arm per dispatch).
//! * `namenode_tick/*` — one replication-monitor tick with a deep
//!   under-replication queue. The bucketed queue dispatches without the
//!   per-tick sort of the whole backlog. `300_datanodes_r10` is
//!   churn_300's shape: 64 repair orders at replication 10.
//!   `10k_datanodes_repair` makes the same 64 orders over 10k datanodes
//!   in 32 sites: each reads only site heads of the namenode's
//!   free-space index, so it should cost about what the 300-node tick
//!   does.
//! * `jobtracker_heartbeat/*` — one cluster-wide heartbeat round against
//!   a loaded job queue: every free map slot walks the policy's job
//!   order and each job's pending maps for the best locality rung.
//!   `idle_10000_trackers_spec_on` is the long tail of a 10k-node run:
//!   nothing pending, speculation on, every job with a mean.
//!   `idle_300_trackers_failure_aware` is churn_300's idle round: the
//!   failure-aware policy holds a penalty on every site, and nothing is
//!   pending.
//! * `allocate_block/*` — one 10-replica site-aware block allocation
//!   over 10k datanodes in 32 sites, whose free space takes a few hundred
//!   values so in-site ties occur.
//!
//! Every `iter_batched` routine returns the state it consumed, so the
//! harness drops it after the clock stops and no sample times teardown.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hog_hdfs::{BlockId, HdfsConfig, Namenode};
use hog_mapreduce::{Assignment, JobSubmission, JobTracker, MrParams, SchedPolicy};
use hog_net::{FluidNet, NetParams, NodeId, SiteId, Topology};
use hog_sim_core::queue::Next;
use hog_sim_core::{EventQueue, SimDuration, SimRng, SimTime, HOG_DEAD_TIMEOUT};
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
        net.start_flow(SimTime::ZERO, src, dst, 256 << 20);
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
                    net.start_flow(SimTime::ZERO, NodeId(3), NodeId(397), 256 << 20);
                    black_box(net.next_completion());
                    black_box(net.recompute_work());
                    net
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
                    net.start_flow(SimTime::ZERO, src, dst, 64 << 20);
                }
                black_box(net.next_completion());
                black_box(net.recompute_work());
                net
            },
            BatchSize::SmallInput,
        )
    });
    for (name, query_each) in [("wake_16_query_each", true), ("wake_16_query_once", false)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || loaded_net(1000),
                |mut net| {
                    for r in 0..16u32 {
                        let dst = NodeId(r * 25 + 3);
                        for hop in 1..=2u32 {
                            let src = NodeId((dst.0 + hop * 50) % 400);
                            net.start_flow_diffuse(SimTime::ZERO, src, dst, 16 << 20);
                        }
                        if query_each {
                            black_box(net.next_completion());
                        }
                    }
                    black_box(net.next_completion());
                    black_box(net.recompute_work());
                    net
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// A namenode over `sites` × `per_site` datanodes holding `blocks`
/// blocks of `block` bytes at the config's replication, with the first
/// `dead` nodes declared dead by a priming tick, which also fills the
/// under-replication queue and dispatches its first orders.
fn loaded_nn(
    cfg: HdfsConfig,
    sites: u32,
    per_site: u32,
    blocks: u32,
    block: u64,
    dead: usize,
) -> (Namenode, Topology) {
    let mut topo = Topology::new();
    let mut nodes = Vec::new();
    for s in 0..sites {
        let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
        for _ in 0..per_site {
            nodes.push(topo.add_node(site));
        }
    }
    let mut nn = Namenode::new(cfg, SimRng::seed_from_u64(3));
    for &n in &nodes {
        nn.register_datanode(SimTime::ZERO, n, topo.site_of(n));
    }
    let f = nn.create_file_default("/in");
    for _ in 0..blocks {
        let (blk, t) = nn.allocate_block(f, block, None, &topo).unwrap();
        nn.commit_block(blk, &t);
    }
    for &n in nodes.iter().take(dead) {
        nn.mark_silent(SimTime::from_secs(1), n);
    }
    let _ = nn.tick(SimTime::from_secs(3600), &topo);
    (nn, topo)
}

fn bench_namenode_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("namenode_tick");
    group.sample_size(10);
    // 10k blocks on 200 datanodes in 10 sites at the hog preset's
    // replication 10; killing 7 nodes of one site puts thousands of
    // blocks below target, so the measured tick dispatches from a
    // four-digit priority queue (bounded by max_repl_orders_per_tick).
    group.bench_function("10k_blocks_1k_under", |b| {
        b.iter_batched(
            || {
                let (nn, topo) = loaded_nn(HdfsConfig::hog(), 10, 20, 10_000, 8 << 20, 7);
                assert!(nn.under_replicated_count() >= 1000);
                (nn, topo)
            },
            |(mut nn, topo)| {
                let out = nn.tick(SimTime::from_secs(3700), &topo);
                black_box((out.orders.len(), nn.under_replicated_count()));
                (nn, topo)
            },
            BatchSize::SmallInput,
        )
    });
    // churn_300's shape: 300 datanodes over 5 sites at replication 10,
    // 30 of them dead, so hundreds of blocks are short and the measured
    // tick makes its full budget of 64 orders.
    group.bench_function("300_datanodes_r10", |b| {
        b.iter_batched(
            || {
                let (nn, topo) = loaded_nn(HdfsConfig::hog(), 5, 60, 400, 64 << 20, 30);
                assert!(nn.under_replicated_count() >= 64);
                (nn, topo)
            },
            |(mut nn, topo)| {
                let out = nn.tick(SimTime::from_secs(3603), &topo);
                assert_eq!(out.orders.len(), 64);
                (nn, topo)
            },
            BatchSize::SmallInput,
        )
    });
    // scale_10k's pool: 10,016 datanodes over 32 sites at replication
    // 10, 80 of them dead, so the measured tick makes its full budget.
    group.bench_function("10k_datanodes_repair", |b| {
        b.iter_batched(
            || {
                let (nn, topo) = loaded_nn(HdfsConfig::hog(), 32, 313, 2_000, 64 << 20, 80);
                assert!(nn.under_replicated_count() >= 64);
                (nn, topo)
            },
            |(mut nn, topo)| {
                let out = nn.tick(SimTime::from_secs(3603), &topo);
                assert_eq!(out.orders.len(), 64);
                (nn, topo)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// How `bench_event_queue` re-arms a periodic timer.
#[derive(Clone, Copy)]
enum Rearm {
    /// Pop, then `push_periodic` onto the lane.
    Lane,
    /// Pop, then `push` into the heap.
    Heap,
    /// `pop_or_rearm`: a lane entry moves to the lane's tail without
    /// leaving the queue (a first firing, held in the heap, pops and
    /// joins the lane).
    InPlace,
}

/// Pop and re-arm 20k timers: 10k per-node periodic timers (first arms
/// staggered over one 3 s period, like the cluster's heartbeats) and 10k
/// one-shot timers spread over 30 s that re-arm at a spread later instant.
fn bench_event_queue(c: &mut Criterion) {
    const TIMERS: u64 = 10_000;
    let period = SimDuration::from_secs(3);
    let setup = || {
        let mut q = EventQueue::with_capacity(2 * TIMERS as usize);
        for n in 0..TIMERS {
            q.push(SimTime::from_millis(n * 5741 % 3000 + 1), (true, n));
            q.push(SimTime::from_millis(n * 7919 % 30_000), (false, n));
        }
        q
    };
    let mut group = c.benchmark_group("event_queue");
    for (name, rearm) in [
        ("rearm_on_lane", Rearm::Lane),
        ("rearm_on_heap", Rearm::Heap),
        ("rearm_in_place", Rearm::InPlace),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                setup,
                |mut q| {
                    for _ in 0..2 * TIMERS {
                        let next = match rearm {
                            Rearm::InPlace => q.pop_or_rearm(|_, &(periodic, _)| periodic),
                            Rearm::Lane | Rearm::Heap => {
                                q.pop().map(|(at, event)| Next::Popped(at, event))
                            }
                        };
                        let Next::Popped(at, (periodic, n)) = next.expect("timers re-arm") else {
                            continue; // re-armed in place
                        };
                        if !periodic {
                            let later = SimDuration::from_millis(n * 104_729 % 30_000 + 1);
                            q.push(at + later, (false, n));
                        } else if let Rearm::Heap = rearm {
                            q.push(at + period, (true, n));
                        } else {
                            q.push_periodic(at + period, period, (true, n));
                        }
                    }
                    black_box(q.len());
                    q
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Job `j` of a loaded queue: 50 maps whose three-replica splits are
/// scattered over `nodes` like placement would scatter them, and
/// `reduces` reduces.
fn submission(j: u32, nodes: &[NodeId], reduces: u32) -> JobSubmission {
    let maps = 50usize;
    JobSubmission {
        input_blocks: (0..maps)
            .map(|i| (BlockId((j as u64) << 20 | i as u64), 64 << 20))
            .collect(),
        split_locations: (0..maps)
            .map(|i| {
                (0..3usize)
                    .map(|r| nodes[(i * 997 + r * 131 + j as usize * 7919) % nodes.len()])
                    .collect()
            })
            .collect(),
        reduces,
        map_cpu_secs: 30.0,
        map_output_bytes: 16 << 20,
        reduce_cpu_secs: 10.0,
        reduce_output_bytes: 16 << 20,
        output_replication: 10,
    }
}

/// A JobTracker with `params`, `trackers` registered workers over
/// `trackers / 200` sites and `jobs` submitted jobs (see [`submission`]),
/// plus the matching topology.
fn loaded_jt(
    trackers: u32,
    jobs: u32,
    params: MrParams,
    reduces: u32,
) -> (JobTracker, Topology, Vec<NodeId>) {
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
    let mut jt = JobTracker::new(params, HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(11));
    for &n in &nodes {
        jt.register_tracker(SimTime::ZERO, n, topo.site_of(n), 1, 1);
    }
    for j in 0..jobs {
        jt.submit_job(SimTime::ZERO, submission(j, &nodes, reduces));
    }
    (jt, topo, nodes)
}

/// One heartbeat round: every node in turn, as the cluster dispatches
/// them. Returns the number of assignments.
fn heartbeat_round(jt: &mut JobTracker, topo: &Topology, nodes: &[NodeId], now: SimTime) -> usize {
    nodes
        .iter()
        .map(|&n| jt.heartbeat(now, n, topo).len())
        .sum()
}

/// 10k trackers, speculation on, and 20 map-only jobs whose 1,000 maps
/// all started at 3 s; three maps per job finished at 30 s, so every job
/// has a mean and nothing is pending.
fn idle_jt() -> (JobTracker, Topology, Vec<NodeId>) {
    let (mut jt, topo, nodes) = loaded_jt(10_000, 20, MrParams::hog(), 0);
    let mut started: Vec<Vec<Assignment>> = vec![Vec::new(); 20];
    for &n in &nodes {
        for a in jt.heartbeat(SimTime::from_secs(3), n, &topo) {
            started[a.attempt().task.job.0 as usize].push(a);
        }
    }
    for job in &started {
        for a in job.iter().take(3) {
            jt.map_done(SimTime::from_secs(30), a.attempt(), &topo);
        }
    }
    assert_eq!(jt.backlog().pending_maps, 0);
    (jt, topo, nodes)
}

/// churn_300's pool under the failure-aware policy: 300 trackers over 5
/// sites, speculation on. One more tracker per site died at 31 s, so
/// every site carries a penalty score. Four map-only jobs' 200 maps all
/// started at 32 s, and that round's idle slots found no job with a
/// mean, so nothing is pending and speculation is quiet.
fn idle_failure_aware_jt() -> (JobTracker, Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let (mut nodes, mut victims) = (Vec::new(), Vec::new());
    for s in 0..5 {
        let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
        victims.push(topo.add_node(site));
        for _ in 0..60 {
            nodes.push(topo.add_node(site));
        }
    }
    let params = MrParams::hog().with_scheduler(SchedPolicy::FailureAware);
    let mut jt = JobTracker::new(params, HOG_DEAD_TIMEOUT, SimRng::seed_from_u64(11));
    for &n in victims.iter().chain(&nodes) {
        jt.register_tracker(SimTime::ZERO, n, topo.site_of(n), 1, 1);
    }
    for &v in &victims {
        jt.tracker_silent(SimTime::from_secs(1), v);
    }
    assert_eq!(jt.check_dead(SimTime::from_secs(31)).0.len(), victims.len());
    for j in 0..4 {
        jt.submit_job(SimTime::from_secs(32), submission(j, &nodes, 0));
    }
    assert_eq!(
        heartbeat_round(&mut jt, &topo, &nodes, SimTime::from_secs(32)),
        200
    );
    assert_eq!(jt.backlog().pending_maps, 0);
    assert!((0..5).all(|s| jt.site_penalty(SiteId(s), SimTime::from_secs(35)) > 0.0));
    (jt, topo, nodes)
}

fn bench_jobtracker_heartbeat(c: &mut Criterion) {
    let mut group = c.benchmark_group("jobtracker_heartbeat");
    group.sample_size(10);
    // Speculation is off so these rounds are the pure assignment path
    // (no speculative rescans).
    for &(trackers, jobs) in &[(1_000u32, 10u32), (1_000, 100), (10_000, 10), (10_000, 100)] {
        let name = format!("{trackers}_trackers_{jobs}_jobs");
        group.bench_function(&name, |b| {
            b.iter_batched(
                || loaded_jt(trackers, jobs, MrParams::hog().with_speculation(false), 4),
                |(mut jt, topo, nodes)| {
                    black_box(heartbeat_round(
                        &mut jt,
                        &topo,
                        &nodes,
                        SimTime::from_secs(3),
                    ));
                    (jt, topo, nodes)
                },
                BatchSize::SmallInput,
            )
        });
    }
    // The idle round: the running maps are too young to be stragglers,
    // so the first heartbeat scans every job and the rest skip the scan
    // until the cooldown ends.
    group.bench_function("idle_10000_trackers_spec_on", |b| {
        b.iter_batched(
            idle_jt,
            |(mut jt, topo, nodes)| {
                black_box(heartbeat_round(
                    &mut jt,
                    &topo,
                    &nodes,
                    SimTime::from_secs(35),
                ));
                (jt, topo, nodes)
            },
            BatchSize::SmallInput,
        )
    });
    // churn_300's idle round: every slot is one the policy's penalty
    // test could not fill (nothing pending, speculation quiet).
    group.bench_function("idle_300_trackers_failure_aware", |b| {
        b.iter_batched(
            idle_failure_aware_jt,
            |(mut jt, topo, nodes)| {
                let assigned = heartbeat_round(&mut jt, &topo, &nodes, SimTime::from_secs(35));
                assert_eq!(assigned, 0);
                (jt, topo, nodes)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// One 10-replica block allocation on a namenode with 10,016 datanodes
/// in 32 sites (scale_10k's pool), after writes that leave free space
/// at a few hundred values so in-site ties occur.
fn bench_allocate_block(c: &mut Criterion) {
    let mut topo = Topology::new();
    let mut nn = Namenode::new(HdfsConfig::hog(), SimRng::seed_from_u64(5));
    for s in 0..32 {
        let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
        for _ in 0..313 {
            let n = topo.add_node(site);
            nn.register_datanode(SimTime::ZERO, n, site);
        }
    }
    let f = nn.create_file_default("/in");
    for i in 0..3_000u64 {
        let (blk, t) = nn
            .allocate_block(f, (64 << 20) - (i % 7) * (1 << 20), None, &topo)
            .unwrap();
        nn.commit_block(blk, &t);
    }
    let mut group = c.benchmark_group("allocate_block");
    group.bench_function("10k_datanodes_32_sites_r10", |b| {
        b.iter(|| black_box(nn.allocate_block(f, 64 << 20, None, &topo)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_fluid_recompute,
    bench_namenode_tick,
    bench_jobtracker_heartbeat,
    bench_allocate_block
);
criterion_main!(benches);
