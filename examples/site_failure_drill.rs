//! Site-failure drill: run the workload while whole OSG sites go down
//! (the failure domain HOG's site awareness exists for), and compare
//! site-aware placement against topology-oblivious placement.
//!
//! ```sh
//! cargo run --release --example site_failure_drill
//! ```

use hog_core::config::ResourceConfig;
use hog_repro::prelude::*;
use hog_sim_core::dist::{Exponential, UniformDuration};
use hog_workload::facebook::Bin;

fn outage_prone(mut cfg: ClusterConfig) -> ClusterConfig {
    if let ResourceConfig::Grid { sites, .. } = &mut cfg.resource {
        for s in sites.iter_mut() {
            // Every site fails for 5–15 minutes every ~90 minutes.
            s.outage_mtbf = Some(Exponential::from_mean(SimDuration::from_secs(90 * 60)));
            s.outage_duration =
                UniformDuration::new(SimDuration::from_mins(5), SimDuration::from_mins(15));
        }
    }
    cfg
}

fn main() {
    let bin = Bin {
        number: 4,
        maps_at_facebook: (50, 50),
        fraction_at_facebook: 1.0,
        maps: 50,
        jobs_in_benchmark: 8,
        reduces: 10,
    };
    let schedule = SubmissionSchedule::from_bins(&[bin], 11);
    let horizon = SimDuration::from_secs(24 * 3600);

    for placement in [PlacementKind::SiteAware, PlacementKind::RackOblivious] {
        // Replication 2 so the placement choice actually decides whether a
        // whole-site outage can eat every replica of a block. (At HOG's
        // replication 10 even random placement almost always straddles
        // sites; §III-B.1's point is that you need *both* mechanisms.)
        let cfg = outage_prone(
            ClusterConfig::hog(60, 5)
                .with_replication(2)
                .with_placement(placement.clone())
                .named(format!("{placement:?}")),
        );
        let r = run_workload(cfg, &schedule, horizon);
        let (_, outages, _) = r.grid.unwrap();
        println!(
            "{placement:?}: response={:>6}  jobs {}/{}  site outages={}  blocks lost={}  missing inputs={}",
            r.response_time
                .map(|d| format!("{:.0}s", d.as_secs_f64()))
                .unwrap_or_else(|| "DNF".into()),
            r.jobs_succeeded(),
            r.jobs.len(),
            outages,
            r.nn_counters.2,
            r.missing_input_blocks,
        );
    }
    println!(
        "\nSite-aware placement spreads every block over all five sites, so a \
         whole-site outage never takes out every replica; oblivious placement \
         can stack replicas inside one failure domain."
    );
}
