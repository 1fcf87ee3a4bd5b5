//! Trace-calibrated preemption (churn) models.
//!
//! The paper's evaluation — and every PR before this one — drives
//! glidein preemption from a single exponential lifetime per site. The
//! follow-up study from the same group, *Discovering Job Preemptions in
//! the Open Science Grid* (PAPERS.md), measured the real process and
//! found three things the exponential misses:
//!
//! 1. **Heavy tails** — most preempted glideins die young (a log-normal
//!    body around tens of minutes), but a power-law minority survive for
//!    many hours. A mixture of [`LogNormal`] body and [`Pareto`] tail
//!    reproduces both ends.
//! 2. **Diurnal rates** — preemption pressure follows the owning
//!    campus's working day: local users reclaim their machines in
//!    daytime waves and the pool calms overnight. A cosine rate curve
//!    ([`CalibratedChurn::diurnal_multiplier`]) modulates sampled
//!    lifetimes: at peak hours lifetimes compress, off-peak they
//!    stretch.
//! 3. **Site specificity** — shapes differ per site by an order of
//!    magnitude. [`osg_profile`] carries a per-site parameter table for
//!    the paper's five pinned OSG sites (and the synthetic `OSG_SYN_*`
//!    sites `scaled_sites` appends past the paper's scale).
//!
//! [`ChurnModel`] selects the generator per site. The default
//! ([`ChurnModel::Exponential`]) routes through the *exact* legacy
//! sampling path — one draw from [`SiteConfig::node_lifetime`] — so
//! every historical fingerprint is bit-identical; the calibrated model
//! consumes its own draw pattern from the same grid RNG stream and is
//! deterministic under a fixed seed.
//!
//! [`SiteConfig::node_lifetime`]: crate::config::SiteConfig::node_lifetime
//! [`LogNormal`]: hog_sim_core::dist::LogNormal
//! [`Pareto`]: hog_sim_core::dist::Pareto

use hog_sim_core::dist::{LogNormal, Pareto};
use hog_sim_core::{SimDuration, SimRng, SimTime};

/// Minimum (scale) of every calibrated profile's Pareto survival tail,
/// seconds: the survivors live at least two hours.
pub const TAIL_SCALE_SECS: f64 = 2.0 * 3600.0;

/// Tail index of every calibrated profile's Pareto component (smaller =
/// heavier). The sites differ in how often a lifetime lands in the tail
/// ([`CalibratedChurn::tail_weight`]), not in the tail's shape.
pub const TAIL_SHAPE: f64 = 1.3;

/// Which lifetime generator a site's preemption process uses.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ChurnModel {
    /// The legacy synthetic model: one exponential draw from the site's
    /// `node_lifetime`. The default, bit-identical to every pre-churn
    /// build.
    #[default]
    Exponential,
    /// OSG-calibrated heavy-tailed + diurnal lifetimes.
    Calibrated(CalibratedChurn),
}

impl ChurnModel {
    /// Short name for reports (`"exponential"` / `"calibrated"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ChurnModel::Exponential => "exponential",
            ChurnModel::Calibrated(_) => "calibrated",
        }
    }

    /// Typical glidein lifetime in seconds, for classifying site
    /// stability (the availability policy's lifetime bands). The
    /// exponential model's mean is the site's configured
    /// `node_lifetime`, passed in; the calibrated model answers with its
    /// log-normal body median — the tail survivors don't describe a
    /// *typical* slot.
    pub fn typical_lifetime_secs(&self, exponential_mean: SimDuration) -> f64 {
        match self {
            ChurnModel::Exponential => exponential_mean.as_secs_f64(),
            ChurnModel::Calibrated(c) => c.body_median_secs,
        }
    }

    /// Instantaneous preemption-pressure multiplier at `now` (≥ 1 means
    /// more reclaim pressure than the daily mean). The exponential model
    /// is memoryless and flat (always 1); the calibrated model exposes
    /// its diurnal rate curve.
    pub fn pressure(&self, now: SimTime) -> f64 {
        match self {
            ChurnModel::Exponential => 1.0,
            ChurnModel::Calibrated(c) => c.diurnal_multiplier(now),
        }
    }
}

/// Parameters of the calibrated per-site preemption process: a
/// log-normal body / Pareto tail lifetime mixture, compressed or
/// stretched by a diurnal rate curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CalibratedChurn {
    /// Median of the log-normal lifetime body, seconds.
    pub body_median_secs: f64,
    /// Shape (sigma) of the log-normal body.
    pub body_sigma: f64,
    /// Probability a lifetime is drawn from the Pareto tail instead of
    /// the log-normal body.
    pub tail_weight: f64,
    /// Amplitude of the diurnal preemption-rate curve in `[0, 1)`:
    /// `0.0` is a flat rate, `0.6` means peak-hour preemption pressure
    /// is 1.6× the daily mean and the quietest hour 0.4×.
    pub diurnal_amplitude: f64,
    /// Hour of the simulated day (0–24) at which preemption pressure
    /// peaks — the owning campus's working-day reclaim wave.
    pub diurnal_peak_hour: f64,
}

impl CalibratedChurn {
    /// A generic OSG-shaped profile: 25-minute median body with a fat
    /// Pareto survivor tail, moderate daytime wave peaking at 14:00.
    pub fn osg_default() -> Self {
        CalibratedChurn {
            body_median_secs: 25.0 * 60.0,
            body_sigma: 0.9,
            tail_weight: 0.25,
            diurnal_amplitude: 0.5,
            diurnal_peak_hour: 14.0,
        }
    }

    /// Re-phase the diurnal curve for a simulation whose `t = 0` is
    /// `start_hour` of the campus day rather than midnight: the peak
    /// moves to `peak_hour − start_hour` (mod 24). Short benchmarks use
    /// this to replay a sub-hour workload window at any point of the
    /// reclaim wave instead of always starting in the overnight trough.
    pub fn with_clock(mut self, start_hour: f64) -> Self {
        self.diurnal_peak_hour = (self.diurnal_peak_hour - start_hour).rem_euclid(24.0);
        self
    }

    /// Preemption-rate multiplier at `now`: `1 + A·cos(2π(h − peak)/24)`
    /// where `h` is the hour of the simulated day. Values above 1 mean
    /// more preemption pressure than the daily mean (and therefore
    /// shorter lifetimes); the curve integrates to ~1 over a day.
    pub fn diurnal_multiplier(&self, now: SimTime) -> f64 {
        let hour = (now.as_secs_f64() / 3600.0) % 24.0;
        let phase = (hour - self.diurnal_peak_hour) / 24.0 * std::f64::consts::TAU;
        1.0 + self.diurnal_amplitude.clamp(0.0, 0.99) * phase.cos()
    }

    /// Draw a lifetime starting at `now`: pick body or tail, then divide
    /// by the diurnal rate multiplier so peak-hour preemption compresses
    /// survival. Consumes 2–3 RNG draws; deterministic per seed.
    pub fn sample_lifetime(&self, now: SimTime, rng: &mut SimRng) -> SimDuration {
        let raw = if rng.chance(self.tail_weight) {
            Pareto::new(SimDuration::from_secs_f64(TAIL_SCALE_SECS), TAIL_SHAPE).sample(rng)
        } else {
            LogNormal::from_median(
                SimDuration::from_secs_f64(self.body_median_secs),
                self.body_sigma,
            )
            .sample(rng)
        };
        let m = self.diurnal_multiplier(now).max(0.05);
        SimDuration::from_secs_f64(raw.as_secs_f64() / m)
    }

    /// Mean lifetime of the mixture, ignoring the diurnal curve (the
    /// Pareto mean is finite because [`TAIL_SHAPE`] exceeds 1). Reports
    /// and tuning only — nothing samples this.
    pub fn mean_secs(&self) -> f64 {
        let body = self.body_median_secs * (self.body_sigma * self.body_sigma / 2.0).exp();
        let tail = TAIL_SCALE_SECS * TAIL_SHAPE / (TAIL_SHAPE - 1.0);
        (1.0 - self.tail_weight) * body + self.tail_weight * tail
    }
}

/// The calibrated churn profile for an OSG site, keyed by resource name.
///
/// Parameters are fit to the qualitative shapes of the OSG preemption
/// study: Fermilab's grid sites preempt rarely outside reclaim waves
/// (long body, thin tail), the university T2s churn harder with strong
/// working-day diurnality, and the synthetic `OSG_SYN_*` fleet gets the
/// generic profile. Unknown names also get the generic profile, so
/// ad-hoc test sites behave sensibly.
pub fn osg_profile(site_name: &str) -> CalibratedChurn {
    match site_name {
        // FNAL grid: large, production-managed, calm body but pronounced
        // afternoon reclaim wave when the local experiments ramp.
        "FNAL_FERMIGRID" => CalibratedChurn {
            body_median_secs: 50.0 * 60.0,
            body_sigma: 0.8,
            tail_weight: 0.35,
            diurnal_amplitude: 0.45,
            diurnal_peak_hour: 14.0,
        },
        "USCMS-FNAL-WC1" => CalibratedChurn {
            body_median_secs: 40.0 * 60.0,
            body_sigma: 0.85,
            tail_weight: 0.3,
            diurnal_amplitude: 0.5,
            diurnal_peak_hour: 15.0,
        },
        // University T2s: opportunistic slots evaporate fast when campus
        // users return; short bodies, heavy diurnality.
        "UCSDT2" => CalibratedChurn {
            body_median_secs: 18.0 * 60.0,
            body_sigma: 1.0,
            tail_weight: 0.2,
            diurnal_amplitude: 0.65,
            diurnal_peak_hour: 13.0,
        },
        "AGLT2" => CalibratedChurn {
            body_median_secs: 22.0 * 60.0,
            body_sigma: 0.95,
            tail_weight: 0.22,
            diurnal_amplitude: 0.6,
            diurnal_peak_hour: 14.0,
        },
        "MIT_CMS" => CalibratedChurn {
            body_median_secs: 15.0 * 60.0,
            body_sigma: 1.05,
            tail_weight: 0.18,
            diurnal_amplitude: 0.7,
            diurnal_peak_hour: 13.5,
        },
        _ => CalibratedChurn::osg_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_is_the_default() {
        assert_eq!(ChurnModel::default(), ChurnModel::Exponential);
        assert_eq!(ChurnModel::Exponential.as_str(), "exponential");
        assert_eq!(
            ChurnModel::Calibrated(CalibratedChurn::osg_default()).as_str(),
            "calibrated"
        );
    }

    #[test]
    fn diurnal_curve_peaks_at_peak_hour() {
        let c = CalibratedChurn::osg_default();
        let peak = SimTime::from_secs((c.diurnal_peak_hour * 3600.0) as u64);
        let trough = peak + SimDuration::from_secs(12 * 3600);
        assert!(c.diurnal_multiplier(peak) > 1.4);
        assert!(c.diurnal_multiplier(trough) < 0.6);
        // Same hour next day: periodic.
        let next_day = peak + SimDuration::from_secs(24 * 3600);
        let a = c.diurnal_multiplier(peak);
        let b = c.diurnal_multiplier(next_day);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn same_seed_replays_identical_lifetimes() {
        let c = osg_profile("UCSDT2");
        let draw = |seed: u64| -> Vec<SimDuration> {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..200)
                .map(|i| c.sample_lifetime(SimTime::from_secs(i * 300), &mut rng))
                .collect()
        };
        assert_eq!(draw(42), draw(42), "same seed must replay identically");
        assert_ne!(draw(42), draw(43), "different seeds must diverge");
    }

    #[test]
    fn peak_hour_lifetimes_are_compressed() {
        let c = CalibratedChurn::osg_default();
        let peak = SimTime::from_secs((c.diurnal_peak_hour * 3600.0) as u64);
        let trough = peak + SimDuration::from_secs(12 * 3600);
        let mean_at = |at: SimTime, seed: u64| {
            let mut rng = SimRng::seed_from_u64(seed);
            let n = 4000;
            (0..n)
                .map(|_| c.sample_lifetime(at, &mut rng).as_secs_f64())
                .sum::<f64>()
                / n as f64
        };
        assert!(
            mean_at(peak, 7) < mean_at(trough, 7) / 2.0,
            "peak-hour lifetimes must be much shorter than trough-hour"
        );
    }

    #[test]
    fn tail_mixture_is_heavy() {
        // With the tail on, the far quantiles must dwarf the body median;
        // with it off they stay log-normal-sized.
        let heavy = CalibratedChurn {
            diurnal_amplitude: 0.0,
            ..CalibratedChurn::osg_default()
        };
        let light = CalibratedChurn {
            tail_weight: 0.0,
            ..heavy
        };
        let p999 = |c: &CalibratedChurn, seed: u64| {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut s: Vec<f64> = (0..10_000)
                .map(|_| c.sample_lifetime(SimTime::ZERO, &mut rng).as_secs_f64())
                .collect();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() - s.len() / 1000]
        };
        assert!(p999(&heavy, 3) > 3.0 * p999(&light, 3));
    }

    #[test]
    fn per_site_profiles_differ_and_unknowns_default() {
        let fnal = osg_profile("FNAL_FERMIGRID");
        let mit = osg_profile("MIT_CMS");
        assert!(fnal.body_median_secs > 2.0 * mit.body_median_secs);
        assert_eq!(osg_profile("OSG_SYN_00"), CalibratedChurn::osg_default());
        assert_eq!(osg_profile("whatever"), CalibratedChurn::osg_default());
    }

    #[test]
    fn typical_lifetime_and_pressure_by_model() {
        let exp = ChurnModel::Exponential;
        let mean = SimDuration::from_secs(2100);
        assert!((exp.typical_lifetime_secs(mean) - 2100.0).abs() < 1e-9);
        assert!((exp.pressure(SimTime::from_secs(14 * 3600)) - 1.0).abs() < 1e-9);
        let cal = ChurnModel::Calibrated(osg_profile("UCSDT2"));
        assert!((cal.typical_lifetime_secs(mean) - 18.0 * 60.0).abs() < 1e-9);
        let peak = SimTime::from_secs(13 * 3600);
        let trough = peak + SimDuration::from_secs(12 * 3600);
        assert!(cal.pressure(peak) > 1.4);
        assert!(cal.pressure(trough) < 0.6);
    }
}
