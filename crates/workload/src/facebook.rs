//! Table I ("Facebook production workload") and Table II ("truncated
//! workload for this paper") of the HOG paper, as data.

/// One job-size bin of the Facebook workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bin {
    /// 1-based bin number as in Table I.
    pub number: u8,
    /// Map-task-count range observed at Facebook (inclusive), e.g. 3..=20.
    pub maps_at_facebook: (u32, u32),
    /// Fraction of Facebook jobs in this bin (Table I "%Jobs", 0..1).
    pub fraction_at_facebook: f64,
    /// Representative #maps used in the benchmark (Table I "#Maps in
    /// Benchmark").
    pub maps: u32,
    /// Number of jobs of this bin in the 100-job benchmark (Table I "# of
    /// jobs in Benchmark").
    pub jobs_in_benchmark: u32,
    /// Reduce tasks per job (Table II for bins 1–6; bins 7–9 are an
    /// extrapolation of the paper's "non-decreasing pattern" and are only
    /// used by the untruncated generator).
    pub reduces: u32,
}

/// All nine bins. Bins 1–6 cover ≈89 % of Facebook's jobs and form the
/// paper's truncated workload.
pub const FACEBOOK_BINS: [Bin; 9] = [
    Bin {
        number: 1,
        maps_at_facebook: (1, 1),
        fraction_at_facebook: 0.39,
        maps: 1,
        jobs_in_benchmark: 38,
        reduces: 1,
    },
    Bin {
        number: 2,
        maps_at_facebook: (2, 2),
        fraction_at_facebook: 0.16,
        maps: 2,
        jobs_in_benchmark: 16,
        reduces: 1,
    },
    Bin {
        number: 3,
        maps_at_facebook: (3, 20),
        fraction_at_facebook: 0.14,
        maps: 10,
        jobs_in_benchmark: 14,
        reduces: 5,
    },
    Bin {
        number: 4,
        maps_at_facebook: (21, 60),
        fraction_at_facebook: 0.09,
        maps: 50,
        jobs_in_benchmark: 8,
        reduces: 10,
    },
    Bin {
        number: 5,
        maps_at_facebook: (61, 150),
        fraction_at_facebook: 0.06,
        maps: 100,
        jobs_in_benchmark: 6,
        reduces: 20,
    },
    Bin {
        number: 6,
        maps_at_facebook: (151, 300),
        fraction_at_facebook: 0.06,
        maps: 200,
        jobs_in_benchmark: 6,
        reduces: 30,
    },
    Bin {
        number: 7,
        maps_at_facebook: (301, 500),
        fraction_at_facebook: 0.04,
        maps: 400,
        jobs_in_benchmark: 4,
        reduces: 40,
    },
    Bin {
        number: 8,
        maps_at_facebook: (501, 1500),
        fraction_at_facebook: 0.04,
        maps: 800,
        jobs_in_benchmark: 4,
        reduces: 60,
    },
    Bin {
        number: 9,
        maps_at_facebook: (1501, u32::MAX),
        fraction_at_facebook: 0.03,
        maps: 4800,
        jobs_in_benchmark: 4,
        reduces: 120,
    },
];

/// Number of bins in the paper's truncated workload (jobs with more than
/// 300 maps are excluded).
pub const TRUNCATED_BIN_COUNT: usize = 6;

/// The truncated bins (Table II).
pub fn truncated_bins() -> &'static [Bin] {
    &FACEBOOK_BINS[..TRUNCATED_BIN_COUNT]
}

/// Mean job inter-arrival time at Facebook, seconds (paper: "roughly
/// exponential with a mean of 14 seconds").
pub const MEAN_INTERARRIVAL_SECS: f64 = 14.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_job_counts() {
        // 100 jobs total in the full benchmark.
        let total: u32 = FACEBOOK_BINS.iter().map(|b| b.jobs_in_benchmark).sum();
        assert_eq!(total, 100);
        // 88 jobs in the truncated 6-bin workload.
        let truncated: u32 = truncated_bins().iter().map(|b| b.jobs_in_benchmark).sum();
        assert_eq!(truncated, 88);
    }

    #[test]
    fn table1_fractions() {
        let sum: f64 = FACEBOOK_BINS.iter().map(|b| b.fraction_at_facebook).sum();
        assert!((sum - 1.01).abs() < 1e-9, "Table I sums to 101% as printed");
        // First six bins cover about 89% (paper: "about 89% of the jobs").
        let six: f64 = truncated_bins()
            .iter()
            .map(|b| b.fraction_at_facebook)
            .sum();
        assert!((six - 0.90).abs() < 0.011);
    }

    #[test]
    fn table2_reduce_counts() {
        let reduces: Vec<u32> = truncated_bins().iter().map(|b| b.reduces).collect();
        assert_eq!(reduces, vec![1, 1, 5, 10, 20, 30]);
        // Non-decreasing with maps, across all bins.
        let all: Vec<u32> = FACEBOOK_BINS.iter().map(|b| b.reduces).collect();
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn truncation_respects_300_map_cutoff() {
        assert!(truncated_bins().iter().all(|b| b.maps <= 300));
        assert!(FACEBOOK_BINS[TRUNCATED_BIN_COUNT..]
            .iter()
            .all(|b| b.maps > 300));
    }

    #[test]
    fn total_map_tasks_in_truncated_workload() {
        let maps: u32 = truncated_bins()
            .iter()
            .map(|b| b.maps * b.jobs_in_benchmark)
            .sum();
        assert_eq!(maps, 38 + 32 + 140 + 400 + 600 + 1200);
    }
}
