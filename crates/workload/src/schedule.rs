//! Submission-schedule generation.
//!
//! "Our submission schedule has similar job sizes and job inter-arrival
//! times. In particular, our job size distribution follows the first six
//! bins of job sizes shown in Table I ... the distribution of inter-arrival
//! times is exponential with a mean of 14 seconds, making our total
//! submission schedule 21 minutes long."

use crate::facebook::{truncated_bins, Bin, MEAN_INTERARRIVAL_SECS};
use hog_sim_core::dist::Exponential;
use hog_sim_core::{SimDuration, SimRng, SimTime};

/// One job of the benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Dense id in submission order.
    pub id: u32,
    /// Absolute submission instant.
    pub submit_at: SimTime,
    /// Table I bin number (1-based).
    pub bin: u8,
    /// Number of map tasks (= number of 64 MB input blocks).
    pub maps: u32,
    /// Number of reduce tasks (Table II).
    pub reduces: u32,
}

/// A generated workload: jobs sorted by submission time.
#[derive(Clone, Debug)]
pub struct SubmissionSchedule {
    jobs: Vec<JobSpec>,
}

impl SubmissionSchedule {
    /// The paper's workload: 88 jobs from the first six bins, exponential
    /// inter-arrivals with mean 14 s. Deterministic in `seed`.
    pub fn facebook_truncated(seed: u64) -> Self {
        Self::from_bins(truncated_bins(), seed)
    }

    /// Generic generator: `bins[i].jobs_in_benchmark` jobs per bin, order
    /// shuffled, exponential inter-arrivals.
    pub fn from_bins(bins: &[Bin], seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        // Materialise the per-bin job mix, then shuffle the order (the
        // trace interleaves sizes randomly).
        let mut sizes: Vec<&Bin> = Vec::new();
        for b in bins {
            for _ in 0..b.jobs_in_benchmark {
                sizes.push(b);
            }
        }
        rng.shuffle(&mut sizes);
        let inter = Exponential::from_mean_secs(MEAN_INTERARRIVAL_SECS);
        let mut t = SimTime::ZERO;
        let jobs = sizes
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                let spec = JobSpec {
                    id: i as u32,
                    submit_at: t,
                    bin: b.number,
                    maps: b.maps,
                    reduces: b.reduces,
                };
                t += inter.sample(&mut rng);
                spec
            })
            .collect();
        SubmissionSchedule { jobs }
    }

    /// A day-long trace in the shape of the SWIM Facebook samples:
    /// ≈1000 jobs over 24 hours whose arrival intensity follows a
    /// diurnal curve (peak mid-afternoon, trough at night), sizes drawn
    /// from the truncated Table I bin mix. This is the long-horizon
    /// replay workload — the 88-job truncation ends after 21 minutes
    /// and never sees a diurnal preemption wave.
    pub fn facebook_day(seed: u64) -> Self {
        Self::diurnal_day(seed, 1000, 14.0, 0.5)
    }

    /// Generic day-long generator: ≈`jobs_per_day` jobs over 24 h, with
    /// instantaneous arrival rate `1 + amplitude·cos(2π(hour − peak_hour)/24)`
    /// times the daily mean. Sizes are drawn from the truncated bins
    /// weighted by their Facebook job fractions. Deterministic in `seed`.
    pub fn diurnal_day(seed: u64, jobs_per_day: usize, peak_hour: f64, amplitude: f64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let bins = truncated_bins();
        let total_frac: f64 = bins.iter().map(|b| b.fraction_at_facebook).sum();
        let base_gap = 86_400.0 / jobs_per_day.max(1) as f64;
        let amplitude = amplitude.clamp(0.0, 0.99);
        let day_end = SimTime::ZERO + SimDuration::from_secs(86_400);
        let mut t = SimTime::ZERO;
        let mut jobs = Vec::new();
        while t < day_end {
            let mut u = rng.unit() * total_frac;
            let mut bin = &bins[0];
            for b in bins {
                if u < b.fraction_at_facebook {
                    bin = b;
                    break;
                }
                u -= b.fraction_at_facebook;
            }
            jobs.push(JobSpec {
                id: jobs.len() as u32,
                submit_at: t,
                bin: bin.number,
                maps: bin.maps,
                reduces: bin.reduces,
            });
            // The cosine intensity integrates to jobs_per_day over the
            // day, so scaling the exponential mean by its reciprocal
            // compresses arrivals near the peak without changing the
            // daily total in expectation.
            let hour = (t.as_secs_f64() / 3600.0) % 24.0;
            let rate = 1.0 + amplitude * (std::f64::consts::TAU * (hour - peak_hour) / 24.0).cos();
            let gap = Exponential::from_mean_secs(base_gap / rate.max(0.01));
            t += gap.sample(&mut rng);
        }
        SubmissionSchedule { jobs }
    }

    /// Build a schedule from explicit job specs (trace import). Jobs must
    /// already be time-ordered with dense ids.
    pub fn from_jobs(jobs: Vec<JobSpec>) -> Self {
        debug_assert!(jobs.windows(2).all(|w| w[0].submit_at <= w[1].submit_at));
        SubmissionSchedule { jobs }
    }

    /// Jobs in submission order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Submission instant of the last job (schedule makespan).
    pub fn last_submission(&self) -> SimTime {
        self.jobs.last().map_or(SimTime::ZERO, |j| j.submit_at)
    }

    /// Total map tasks across all jobs.
    pub fn total_maps(&self) -> u64 {
        self.jobs.iter().map(|j| j.maps as u64).sum()
    }

    /// Total reduce tasks across all jobs.
    pub fn total_reduces(&self) -> u64 {
        self.jobs.iter().map(|j| j.reduces as u64).sum()
    }

    /// Number of jobs in a given bin (report helper).
    pub fn jobs_in_bin(&self, bin: u8) -> usize {
        self.jobs.iter().filter(|j| j.bin == bin).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hog_sim_core::SimDuration;

    #[test]
    fn truncated_schedule_matches_table_one() {
        let s = SubmissionSchedule::facebook_truncated(1);
        assert_eq!(s.len(), 88);
        assert_eq!(s.jobs_in_bin(1), 38);
        assert_eq!(s.jobs_in_bin(2), 16);
        assert_eq!(s.jobs_in_bin(3), 14);
        assert_eq!(s.jobs_in_bin(4), 8);
        assert_eq!(s.jobs_in_bin(5), 6);
        assert_eq!(s.jobs_in_bin(6), 6);
        assert_eq!(s.jobs_in_bin(7), 0, "truncated: no >300-map jobs");
        assert_eq!(s.total_maps(), 2410);
        assert_eq!(s.total_reduces(), 38 + 16 + 70 + 80 + 120 + 180);
    }

    #[test]
    fn schedule_spans_about_21_minutes() {
        // Mean of 87 exponential(14 s) gaps = 1218 s ≈ 20.3 min. Average
        // over seeds to smooth sampling noise.
        let mut total = 0.0;
        let n = 40;
        for seed in 0..n {
            total += SubmissionSchedule::facebook_truncated(seed)
                .last_submission()
                .as_secs_f64();
        }
        let mean_span = total / n as f64;
        assert!(
            (1000.0..1500.0).contains(&mean_span),
            "mean schedule span {mean_span}s should be ≈21 min"
        );
    }

    #[test]
    fn submissions_are_sorted_and_start_at_zero() {
        let s = SubmissionSchedule::facebook_truncated(7);
        assert_eq!(s.jobs()[0].submit_at, SimTime::ZERO);
        assert!(s
            .jobs()
            .windows(2)
            .all(|w| w[0].submit_at <= w[1].submit_at));
        assert!(s.jobs().iter().enumerate().all(|(i, j)| j.id == i as u32));
    }

    #[test]
    fn interarrival_mean_is_close_to_14s() {
        let mut gaps = Vec::new();
        for seed in 0..30 {
            let s = SubmissionSchedule::facebook_truncated(seed);
            for w in s.jobs().windows(2) {
                gaps.push((w[1].submit_at - w[0].submit_at).as_secs_f64());
            }
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 14.0).abs() < 1.0, "mean gap {mean}");
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = SubmissionSchedule::facebook_truncated(5);
        let b = SubmissionSchedule::facebook_truncated(5);
        let c = SubmissionSchedule::facebook_truncated(6);
        assert_eq!(a.jobs(), b.jobs());
        assert_ne!(a.jobs(), c.jobs());
    }

    #[test]
    fn day_trace_is_day_long_and_thousand_jobs() {
        let s = SubmissionSchedule::facebook_day(7);
        assert!(
            (800..1200).contains(&s.len()),
            "day trace has {} jobs, wanted ≈1000",
            s.len()
        );
        let span = s.last_submission().as_secs_f64();
        assert!(
            (80_000.0..86_400.0).contains(&span),
            "day trace spans {span}s"
        );
        assert!(s
            .jobs()
            .windows(2)
            .all(|w| w[0].submit_at <= w[1].submit_at));
        assert!(s.jobs().iter().enumerate().all(|(i, j)| j.id == i as u32));
        // Only truncated bins appear.
        assert!(s.jobs().iter().all(|j| j.bin >= 1 && j.bin <= 6));
    }

    #[test]
    fn day_trace_compresses_arrivals_at_the_peak() {
        // Count jobs in the 6 h window around the 14:00 peak vs the 6 h
        // window around the 02:00 trough, averaged over seeds.
        let mut peak = 0usize;
        let mut trough = 0usize;
        for seed in 0..8 {
            for j in SubmissionSchedule::facebook_day(seed).jobs() {
                let hour = j.submit_at.as_secs_f64() / 3600.0;
                if (11.0..17.0).contains(&hour) {
                    peak += 1;
                } else if !(5.0..23.0).contains(&hour) {
                    trough += 1;
                }
            }
        }
        assert!(
            peak as f64 > 1.5 * trough as f64,
            "peak window {peak} vs trough {trough}: diurnal shape missing"
        );
    }

    #[test]
    fn day_trace_deterministic_and_seed_sensitive() {
        let a = SubmissionSchedule::facebook_day(5);
        let b = SubmissionSchedule::facebook_day(5);
        let c = SubmissionSchedule::facebook_day(6);
        assert_eq!(a.jobs(), b.jobs());
        assert_ne!(a.jobs(), c.jobs());
    }

    #[test]
    fn flat_diurnal_day_is_roughly_uniform() {
        let s = SubmissionSchedule::diurnal_day(11, 500, 14.0, 0.0);
        let first_half = s
            .jobs()
            .iter()
            .filter(|j| j.submit_at.as_secs_f64() < 43_200.0)
            .count();
        let ratio = first_half as f64 / s.len() as f64;
        assert!((0.4..0.6).contains(&ratio), "first-half ratio {ratio}");
    }

    #[test]
    fn shuffled_order_mixes_bins() {
        // The first 10 submissions should not all be bin 1 (property of
        // the shuffle; holds for these seeds deterministically).
        let s = SubmissionSchedule::facebook_truncated(3);
        let first_bins: Vec<u8> = s.jobs().iter().take(10).map(|j| j.bin).collect();
        assert!(first_bins.iter().any(|&b| b != first_bins[0]));
        let _ = SimDuration::ZERO;
    }
}
