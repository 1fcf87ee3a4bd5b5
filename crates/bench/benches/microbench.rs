//! Criterion end-to-end benchmark: one small workload run on a
//! dedicated cluster. The same workload on a 30-node HOG pool is
//! `obs_overhead/off`. The per-path hot spots (event queue, fluid
//! recompute, placement, namenode tick, JobTracker heartbeat) are timed
//! by `scale_paths`.

use criterion::{criterion_group, criterion_main, Criterion};
use hog_core::driver::run_workload;
use hog_core::ClusterConfig;
use hog_sim_core::SimDuration;
use hog_workload::facebook::Bin;
use hog_workload::SubmissionSchedule;
use std::hint::black_box;

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
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
