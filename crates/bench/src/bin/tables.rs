//! Regenerate Tables I, II and III of the paper.
//!
//! Usage: `tables [table1|table2|table3|all]` (no argument means `all`;
//! anything else exits 2)

use hog_core::config::{ClusterConfig, ResourceConfig};
use hog_core::report::TextTable;
use hog_workload::facebook::{truncated_bins, FACEBOOK_BINS};
use hog_workload::SubmissionSchedule;

fn table1() -> String {
    let mut t = TextTable::new(&[
        "Bin",
        "#Maps at Facebook",
        "%Jobs at Facebook",
        "#Maps in Benchmark",
        "# of jobs in Benchmark",
    ]);
    for b in FACEBOOK_BINS {
        let range = if b.maps_at_facebook.0 == b.maps_at_facebook.1 {
            format!("{}", b.maps_at_facebook.0)
        } else if b.maps_at_facebook.1 == u32::MAX {
            format!(">{}", b.maps_at_facebook.0 - 1)
        } else {
            format!("{}-{}", b.maps_at_facebook.0, b.maps_at_facebook.1)
        };
        t.row(&[
            b.number.to_string(),
            range,
            format!("{:.0}%", b.fraction_at_facebook * 100.0),
            b.maps.to_string(),
            b.jobs_in_benchmark.to_string(),
        ]);
    }
    format!("TABLE I — FACEBOOK PRODUCTION WORKLOAD\n{}", t.render())
}

fn table2() -> String {
    let mut t = TextTable::new(&["Bin", "Map Tasks", "Reduce Tasks"]);
    for b in truncated_bins() {
        t.row(&[
            b.number.to_string(),
            b.maps.to_string(),
            b.reduces.to_string(),
        ]);
    }
    // Verify against a generated schedule.
    let s = SubmissionSchedule::facebook_truncated(1);
    format!(
        "TABLE II — TRUNCATED WORKLOAD FOR THIS PAPER\n{}\n(generated schedule: {} jobs, {} maps, {} reduces, span {:.0}s ≈ 21 min)\n",
        t.render(),
        s.len(),
        s.total_maps(),
        s.total_reduces(),
        s.last_submission().as_secs_f64()
    )
}

fn table3() -> String {
    let cfg = ClusterConfig::dedicated(1);
    let mut t = TextTable::new(&["Nodes", "Quantity", "Hardware and Hadoop Configuration"]);
    t.row(&[
        "Master node".into(),
        "1".into(),
        "central server: Namenode + JobTracker".into(),
    ]);
    let ResourceConfig::Fixed { nodes, .. } = &cfg.resource else {
        unreachable!()
    };
    let quad = nodes.iter().filter(|&&(m, _)| m == 4).count();
    let dual = nodes.iter().filter(|&&(m, _)| m == 2).count();
    t.row(&[
        "Slave nodes-I".into(),
        quad.to_string(),
        "2 dual-core CPUs: 4 map and 1 reduce slots per node".into(),
    ]);
    t.row(&[
        "Slave nodes-II".into(),
        dual.to_string(),
        "2 single-core CPUs: 2 map and 1 reduce slots per node".into(),
    ]);
    let total_cores: u32 = nodes.iter().map(|&(m, _)| m as u32).sum();
    format!(
        "TABLE III — DEDICATED MAPREDUCE CLUSTER CONFIGURATION\n{}\n(total: {} worker nodes, {} cores/map slots, replication {}, {} placement)\n",
        t.render(),
        nodes.len(),
        total_cores,
        cfg.hdfs.replication,
        "rack-aware"
    )
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let out = match which.as_str() {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "all" => format!("{}\n{}\n{}", table1(), table2(), table3()),
        other => {
            eprintln!("tables: unknown table `{other}`\nusage: tables [table1|table2|table3|all]");
            std::process::exit(2);
        }
    };
    println!("{out}");
    let dir = hog_bench::results_dir();
    std::fs::write(dir.join("tables.txt"), &out).expect("write tables.txt");
    eprintln!("(written to {}/tables.txt)", dir.display());
}
