//! The loadgen cost model.
//!
//! The paper drives both clusters with `loadgen`, the Hadoop source-tree
//! load generator also used by the delay-scheduling and matchmaking
//! papers. Loadgen jobs read their input, keep a configurable fraction of
//! it as map output, shuffle, and keep a configurable fraction of the
//! shuffle as final output. These ratios plus per-byte CPU costs are the
//! free parameters we calibrate so the dedicated cluster's response time
//! lands in the paper's range (final values in DESIGN.md §5).
//!
//! The calibrated values: a map over a 64 MB block costs ~2 min of CPU
//! on a 2.2 GHz Opteron-era core, shuffle keeps half the input, output
//! keeps half the shuffle — shapes typical of the Facebook mix loadgen
//! emulates. Chosen so the dedicated 100-core cluster is *saturated* by
//! the 14 s-inter-arrival schedule (its response time is ≈3× the
//! 21-minute submission span, as in the paper's Figure 4 baseline). Each
//! map reads one HDFS block ([`BLOCK_SIZE`]); job output files take the
//! cluster's `dfs.replication`.

use hog_sim_core::units::{BLOCK_SIZE, MIB};

/// Map output bytes as a fraction of map input bytes (`-keepmap`-style
/// ratio).
pub const MAP_OUTPUT_RATIO: f64 = 0.5;

/// Reduce output bytes as a fraction of reduce (shuffle) input
/// (`-keepred`-style ratio).
pub const REDUCE_OUTPUT_RATIO: f64 = 0.5;

/// Seconds of pure CPU work a map spends per MiB of input.
pub const MAP_CPU_SECS_PER_MIB: f64 = 2.00;

/// Seconds of pure CPU work a reduce spends per MiB of shuffled input
/// (covers merge-sort plus the reduce function).
pub const REDUCE_CPU_SECS_PER_MIB: f64 = 0.80;

/// Total input bytes of a job with `maps` map tasks.
pub fn input_bytes(maps: u32) -> u64 {
    BLOCK_SIZE * maps as u64
}

/// Total intermediate (map-output/shuffle) bytes of a job.
pub fn shuffle_bytes(maps: u32) -> u64 {
    (input_bytes(maps) as f64 * MAP_OUTPUT_RATIO) as u64
}

/// Intermediate bytes produced by a single map task.
pub fn map_output_bytes() -> u64 {
    (BLOCK_SIZE as f64 * MAP_OUTPUT_RATIO) as u64
}

/// Final output bytes of a job.
pub fn output_bytes(maps: u32) -> u64 {
    (shuffle_bytes(maps) as f64 * REDUCE_OUTPUT_RATIO) as u64
}

/// CPU seconds for one map task.
pub fn map_cpu_secs() -> f64 {
    MAP_CPU_SECS_PER_MIB * (BLOCK_SIZE as f64 / MIB as f64)
}

/// CPU seconds for one reduce task of a job with `maps` maps and
/// `reduces` reduces (its shuffle share).
pub fn reduce_cpu_secs(maps: u32, reduces: u32) -> f64 {
    if reduces == 0 {
        return 0.0;
    }
    let share = shuffle_bytes(maps) as f64 / reduces as f64;
    REDUCE_CPU_SECS_PER_MIB * (share / MIB as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting_is_consistent() {
        assert_eq!(input_bytes(10), 640 * MIB);
        assert_eq!(shuffle_bytes(10), 320 * MIB);
        assert_eq!(output_bytes(10), 160 * MIB);
        assert_eq!(map_output_bytes() * 10, shuffle_bytes(10));
    }

    #[test]
    fn cpu_costs_scale() {
        assert!((map_cpu_secs() - 2.00 * 64.0).abs() < 1e-9);
        // A 10-map, 5-reduce job: each reduce handles 64 MiB of shuffle.
        let r = reduce_cpu_secs(10, 5);
        assert!((r - 0.80 * 64.0).abs() < 1e-9);
        assert_eq!(reduce_cpu_secs(10, 0), 0.0);
    }

    #[test]
    fn more_reduces_mean_less_work_each() {
        assert!(reduce_cpu_secs(100, 10) > reduce_cpu_secs(100, 20));
    }
}
