//! Criterion microbenchmarks for the hot paths of the simulator:
//!
//! * event-queue push/pop throughput (every simulated action goes
//!   through it);
//! * fluid-network rate recomputation (runs on every flow-set change);
//! * placement-policy target selection (every block allocation and
//!   replication order);
//! * namenode death-detection + replication-dispatch tick;
//! * a full small end-to-end workload run.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hog_core::driver::run_workload;
use hog_core::ClusterConfig;
use hog_hdfs::placement::{Candidate, PlacementPolicy, SiteAwarePolicy};
use hog_net::{FluidNet, NetParams, NodeId, SiteId};
use hog_sim_core::{EventQueue, SimDuration, SimRng, SimTime};
use hog_workload::facebook::Bin;
use hog_workload::SubmissionSchedule;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        let mut rng = SimRng::seed_from_u64(1);
        let times: Vec<u64> = (0..10_000).map(|_| rng.uniform_u64(0, 1_000_000)).collect();
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_millis(t), i);
            }
            let mut sum = 0usize;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        })
    });
}

fn bench_fluid_recompute(c: &mut Criterion) {
    c.bench_function("fluid_recompute_200_flows", |b| {
        b.iter_batched(
            || {
                let mut net = FluidNet::new(NetParams::grid_default());
                for s in 0..5u16 {
                    for n in 0..40u32 {
                        net.register_node(NodeId(s as u32 * 40 + n), SiteId(s));
                    }
                }
                net
            },
            |mut net| {
                // 200 flows; flushing after each start makes every start
                // pay one recompute over the growing flow set.
                for i in 0..200u32 {
                    let src = NodeId(i % 200);
                    let dst = NodeId((i * 37 + 1) % 200);
                    net.start_flow(SimTime::ZERO, src, dst, 64 << 20);
                    net.flush();
                }
                black_box(net.active_flows());
                net
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_placement(c: &mut Criterion) {
    c.bench_function("site_aware_choose_10_of_1000", |b| {
        let candidates: Vec<Candidate> = (0..1000u32)
            .map(|i| Candidate {
                node: NodeId(i),
                site: SiteId((i % 5) as u16),
                free: 1_000_000_000 - (i as u64) * 1000,
            })
            .collect();
        let mut rng = SimRng::seed_from_u64(2);
        b.iter(|| {
            let chosen = SiteAwarePolicy.choose(None, 10, &[], &candidates, &mut rng);
            black_box(chosen.len())
        })
    });
}

fn bench_namenode_tick(c: &mut Criterion) {
    use hog_hdfs::{HdfsConfig, Namenode};
    use hog_net::Topology;
    c.bench_function("namenode_tick_after_node_death", |b| {
        b.iter_batched(
            || {
                let mut topo = Topology::new();
                let mut nodes = Vec::new();
                for s in 0..5 {
                    let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
                    for _ in 0..20 {
                        nodes.push(topo.add_node(site));
                    }
                }
                let mut nn = Namenode::new(
                    HdfsConfig::hog().with_replication(5),
                    Box::new(SiteAwarePolicy),
                    SimRng::seed_from_u64(3),
                );
                for &n in &nodes {
                    nn.register_datanode(SimTime::ZERO, n);
                }
                let f = nn.create_file_default("/in");
                for _ in 0..200 {
                    let (blk, t) = nn.allocate_block(f, 64 << 20, None, &topo).unwrap();
                    nn.commit_block(blk, &t);
                }
                nn.mark_silent(SimTime::from_secs(1), nodes[0]);
                (nn, topo)
            },
            |(mut nn, topo)| {
                let out = nn.tick(SimTime::from_secs(60), &topo);
                black_box(out.orders.len());
                (nn, topo)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("small_workload_dedicated", |b| {
        let bin = Bin {
            number: 3,
            maps_at_facebook: (10, 10),
            fraction_at_facebook: 1.0,
            maps: 10,
            jobs_in_benchmark: 4,
            reduces: 3,
        };
        let schedule = SubmissionSchedule::from_bins(&[bin], 5);
        b.iter(|| {
            let r = run_workload(
                ClusterConfig::dedicated(1),
                &schedule,
                SimDuration::from_secs(12 * 3600),
            );
            black_box(r.events)
        })
    });
    group.bench_function("small_workload_hog30", |b| {
        let bin = Bin {
            number: 3,
            maps_at_facebook: (10, 10),
            fraction_at_facebook: 1.0,
            maps: 10,
            jobs_in_benchmark: 4,
            reduces: 3,
        };
        let schedule = SubmissionSchedule::from_bins(&[bin], 5);
        b.iter(|| {
            let r = run_workload(
                ClusterConfig::hog(30, 2),
                &schedule,
                SimDuration::from_secs(12 * 3600),
            );
            black_box(r.events)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_fluid_recompute,
    bench_placement,
    bench_namenode_tick,
    bench_end_to_end
);
criterion_main!(benches);
