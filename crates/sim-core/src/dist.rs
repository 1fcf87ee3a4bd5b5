//! Inverse-transform samplers for the distributions the models need.
//!
//! We keep the dependency footprint small by implementing the handful of
//! distributions ourselves instead of pulling in `rand_distr`:
//!
//! * [`Exponential`] — job inter-arrival times (paper: mean 14 s) and
//!   opportunistic node lifetimes.
//! * [`UniformDuration`] — batch-queue acquisition delays.
//! * [`LogNormal`] — heavy-tailed service-time jitter.
//! * [`Pareto`] — power-law tails for preemption inter-arrival and
//!   straggler slowdowns (the OSG preemption study's tail shape).
//!
//! Every sampler returns a [`SimDuration`] so call sites cannot confuse
//! seconds with milliseconds.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Exponential distribution parameterised by its mean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    mean_secs: f64,
}

impl Exponential {
    /// Exponential with the given mean. A non-positive mean yields a
    /// degenerate distribution that always samples zero.
    pub fn from_mean(mean: SimDuration) -> Self {
        Exponential {
            mean_secs: mean.as_secs_f64(),
        }
    }

    /// Exponential with mean given in seconds.
    pub fn from_mean_secs(mean_secs: f64) -> Self {
        Exponential { mean_secs }
    }

    /// The configured mean.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.mean_secs)
    }

    /// Draw a sample.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        if self.mean_secs <= 0.0 {
            return SimDuration::ZERO;
        }
        // Inverse transform: -mean * ln(U), with U in (0, 1].
        let u = 1.0 - rng.unit(); // avoid ln(0)
        SimDuration::from_secs_f64(-self.mean_secs * u.ln())
    }
}

/// Uniform distribution over a closed duration interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UniformDuration {
    lo: SimDuration,
    hi: SimDuration,
}

impl UniformDuration {
    /// Uniform over `[lo, hi]`. If `hi < lo` the bounds are swapped.
    pub const fn new(lo: SimDuration, hi: SimDuration) -> Self {
        if hi.as_millis() < lo.as_millis() {
            UniformDuration { lo: hi, hi: lo }
        } else {
            UniformDuration { lo, hi }
        }
    }

    /// A degenerate point distribution.
    pub const fn point(v: SimDuration) -> Self {
        UniformDuration { lo: v, hi: v }
    }

    /// Draw a sample.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let lo = self.lo.as_millis();
        let hi = self.hi.as_millis();
        if lo == hi {
            return self.lo;
        }
        SimDuration::from_millis(rng.uniform_u64(lo, hi + 1))
    }

    /// The distribution mean, `(lo + hi) / 2` (cost models).
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_millis((self.lo.as_millis() + self.hi.as_millis()) / 2)
    }
}

/// Log-normal distribution specified by the *linear-space* median and a
/// shape parameter sigma (the standard deviation of the underlying normal).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Construct from the median duration and sigma. `sigma <= 0` gives a
    /// point distribution at the median.
    pub fn from_median(median: SimDuration, sigma: f64) -> Self {
        let m = median.as_secs_f64().max(1e-9);
        LogNormal {
            mu: m.ln(),
            sigma: sigma.max(0.0),
        }
    }

    /// Draw a sample, using a Box–Muller standard normal under the hood.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let z = standard_normal(rng);
        SimDuration::from_secs_f64((self.mu + self.sigma * z).exp())
    }
}

/// Pareto (type I) distribution: `P(X > x) = (scale / x)^shape` for
/// `x >= scale`. The heavy tail observed for Open Science Grid preemption
/// inter-arrival times — most glideins die young, but a power-law
/// minority survive for many hours.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pareto {
    scale_secs: f64,
    shape: f64,
}

impl Pareto {
    /// Pareto with minimum value `scale` and tail index `shape`. A
    /// non-positive scale degenerates to a point at zero; shapes are
    /// clamped to at least 0.1 so the inverse transform stays finite.
    pub fn new(scale: SimDuration, shape: f64) -> Self {
        Pareto {
            scale_secs: scale.as_secs_f64(),
            shape: shape.max(0.1),
        }
    }

    /// The configured minimum (scale) value.
    pub fn scale(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.scale_secs.max(0.0))
    }

    /// The configured tail index.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Draw a sample via inverse transform: `scale * U^(-1/shape)`.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        if self.scale_secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let u = (1.0 - rng.unit()).max(f64::MIN_POSITIVE); // U in (0, 1]
        SimDuration::from_secs_f64(self.scale_secs * u.powf(-1.0 / self.shape))
    }
}

/// One standard-normal variate via Box–Muller (we discard the second to
/// keep the sampler stateless; throughput is irrelevant here).
pub fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = (1.0 - rng.unit()).max(f64::MIN_POSITIVE);
    let u2 = rng.unit();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn mean_of(samples: &[SimDuration]) -> f64 {
        samples.iter().map(|d| d.as_secs_f64()).sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let dist = Exponential::from_mean(SimDuration::from_secs(14));
        let mut rng = SimRng::seed_from_u64(123);
        let samples: Vec<_> = (0..20_000).map(|_| dist.sample(&mut rng)).collect();
        let m = mean_of(&samples);
        assert!((m - 14.0).abs() < 0.5, "sample mean {m} too far from 14");
    }

    #[test]
    fn exponential_degenerate() {
        let dist = Exponential::from_mean_secs(0.0);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(dist.sample(&mut rng), SimDuration::ZERO);
    }

    #[test]
    fn exponential_memorylessness_rough() {
        // P(X > 2m) should be about e^-2 ~= 0.135.
        let dist = Exponential::from_mean_secs(10.0);
        let mut rng = SimRng::seed_from_u64(5);
        let n = 20_000;
        let over = (0..n)
            .filter(|_| dist.sample(&mut rng).as_secs_f64() > 20.0)
            .count();
        let p = over as f64 / n as f64;
        assert!((p - 0.1353).abs() < 0.02, "tail probability {p}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let d = UniformDuration::new(SimDuration::from_secs(2), SimDuration::from_secs(5));
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..5000 {
            let s = d.sample(&mut rng);
            assert!(s >= SimDuration::from_secs(2) && s <= SimDuration::from_secs(5));
        }
    }

    #[test]
    fn uniform_swapped_bounds() {
        let d = UniformDuration::new(SimDuration::from_secs(5), SimDuration::from_secs(2));
        let mut rng = SimRng::seed_from_u64(7);
        let s = d.sample(&mut rng);
        assert!(s >= SimDuration::from_secs(2) && s <= SimDuration::from_secs(5));
    }

    #[test]
    fn uniform_point() {
        let d = UniformDuration::point(SimDuration::from_secs(3));
        let mut rng = SimRng::seed_from_u64(7);
        assert_eq!(d.sample(&mut rng), SimDuration::from_secs(3));
    }

    #[test]
    fn lognormal_median_roughly_right() {
        let d = LogNormal::from_median(SimDuration::from_secs(30), 0.5);
        let mut rng = SimRng::seed_from_u64(21);
        let mut samples: Vec<f64> = (0..10_001)
            .map(|_| d.sample(&mut rng).as_secs_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 30.0).abs() < 2.0, "median {median}");
    }

    #[test]
    fn pareto_respects_scale_and_tail() {
        let d = Pareto::new(SimDuration::from_secs(60), 1.5);
        let mut rng = SimRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng).as_secs_f64()).collect();
        assert!(
            samples.iter().all(|&s| s >= 60.0),
            "support starts at scale"
        );
        // P(X > 2*scale) = 2^-1.5 ~= 0.3536.
        let over = samples.iter().filter(|&&s| s > 120.0).count() as f64 / n as f64;
        assert!((over - 0.3536).abs() < 0.02, "tail probability {over}");
    }

    #[test]
    fn pareto_degenerate_and_clamped() {
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            Pareto::new(SimDuration::ZERO, 2.0).sample(&mut rng),
            SimDuration::ZERO
        );
        // Non-positive shapes clamp rather than explode.
        let d = Pareto::new(SimDuration::from_secs(1), -3.0);
        assert!(d.shape() >= 0.1);
        assert!(d.sample(&mut rng) >= SimDuration::from_secs(1));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::seed_from_u64(31);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
