//! Byte-size and bandwidth helpers.
//!
//! Data sizes are plain `u64` bytes throughout the workspace; bandwidths
//! are `f64` bytes/second. These helpers keep magnitudes readable at call
//! sites (`64 * MIB`, `gbit_per_s(1.0)`).

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;
/// One tebibyte.
pub const TIB: u64 = 1024 * GIB;

/// The HDFS block size (64 MB in the paper). Files split into blocks of
/// this size, and each map task reads one block.
pub const BLOCK_SIZE: u64 = 64 * MIB;

/// Convert megabits/second to bytes/second.
#[inline]
pub const fn mbit_per_s(mbit: f64) -> f64 {
    mbit * 1_000_000.0 / 8.0
}

/// Convert gigabits/second to bytes/second.
#[inline]
pub const fn gbit_per_s(gbit: f64) -> f64 {
    gbit * 1_000_000_000.0 / 8.0
}

/// Convert mebibytes/second to bytes/second.
#[inline]
pub const fn mib_per_s(mib: f64) -> f64 {
    mib * MIB as f64
}

/// Seconds needed to move `bytes` at `rate` bytes/second. Returns infinity
/// for non-positive rates (caller decides how to clamp).
#[inline]
pub fn transfer_secs(bytes: u64, rate: f64) -> f64 {
    if rate <= 0.0 {
        f64::INFINITY
    } else {
        bytes as f64 / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(gbit_per_s(1.0), 125_000_000.0);
        assert_eq!(mbit_per_s(100.0), 12_500_000.0);
        assert_eq!(mib_per_s(1.0), 1_048_576.0);
    }

    #[test]
    fn transfer_time() {
        // 125 MB over 1 Gbps = 1 second.
        assert!((transfer_secs(125_000_000, gbit_per_s(1.0)) - 1.0).abs() < 1e-12);
        assert!(transfer_secs(1, 0.0).is_infinite());
    }
}
