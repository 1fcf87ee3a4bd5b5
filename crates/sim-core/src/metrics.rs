//! Measurement utilities: step-function time series (with the
//! area-beneath-curve integral used by Table IV of the paper) and
//! histograms.

use crate::time::SimTime;
use std::fmt;

/// A right-continuous step function of time, e.g. "number of available HOG
/// nodes" (Figure 5 of the paper). Samples must be recorded with
/// non-decreasing timestamps.
#[derive(Clone, Debug, Default)]
pub struct StepSeries {
    points: Vec<(SimTime, f64)>,
}

impl StepSeries {
    /// Empty series.
    pub fn new() -> Self {
        StepSeries { points: Vec::new() }
    }

    /// Record the value `v` taking effect at time `t`.
    ///
    /// Equal timestamps overwrite (last-writer-wins) so a burst of changes
    /// at one instant collapses to its final value. A regressed timestamp
    /// is clamped to the previous sample's time — the series stays a valid
    /// step function rather than silently going out of order; callers that
    /// need to detect regressions use [`StepSeries::try_record`].
    pub fn record(&mut self, t: SimTime, v: f64) {
        match self.try_record(t, v) {
            Ok(()) => {}
            Err(e) => {
                let _ = self.try_record(e.last, v);
            }
        }
    }

    /// Record the value `v` at time `t`, rejecting out-of-order samples.
    ///
    /// Returns [`TimeRegression`] (and records nothing) when `t` precedes
    /// the previous sample's timestamp.
    pub fn try_record(&mut self, t: SimTime, v: f64) -> Result<(), TimeRegression> {
        if let Some(last) = self.points.last_mut() {
            if t < last.0 {
                return Err(TimeRegression {
                    last: last.0,
                    attempted: t,
                });
            }
            if last.0 == t {
                last.1 = v;
                return Ok(());
            }
        }
        self.points.push((t, v));
        Ok(())
    }

    /// The value of the step function at time `t` (0.0 before the first
    /// sample).
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => 0.0,
            n => self.points[n - 1].1,
        }
    }

    /// The most recent recorded value (0.0 if empty).
    pub fn last_value(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, v)| v)
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Raw `(time, value)` samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Integrate the step function over `[from, to]` — the paper's "area
    /// beneath the curve" (Table IV) in value·seconds.
    pub fn area(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.points.is_empty() {
            return 0.0;
        }
        let mut area = 0.0;
        let mut cursor = from;
        let mut value = self.value_at(from);
        let start_idx = self.points.partition_point(|&(pt, _)| pt <= from);
        for &(pt, pv) in &self.points[start_idx..] {
            if pt >= to {
                break;
            }
            area += value * (pt - cursor).as_secs_f64();
            cursor = pt;
            value = pv;
        }
        area += value * (to - cursor).as_secs_f64();
        area
    }

    /// Time-weighted mean value over `[from, to]`.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.saturating_since(from).as_secs_f64();
        if span == 0.0 {
            return 0.0;
        }
        self.area(from, to) / span
    }

    /// Downsample to at most `n` evenly spaced points over `[from, to]`
    /// (used by the ASCII figure renderers).
    pub fn resample(&self, from: SimTime, to: SimTime, n: usize) -> Vec<(SimTime, f64)> {
        if n == 0 || to <= from {
            return Vec::new();
        }
        let span = (to - from).as_millis();
        (0..n)
            .map(|i| {
                let t = SimTime::from_millis(
                    from.as_millis() + span * i as u64 / (n.max(2) as u64 - 1),
                );
                (t, self.value_at(t))
            })
            .collect()
    }
}

/// A sample offered to [`StepSeries::try_record`] with a timestamp earlier
/// than the previous sample's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeRegression {
    /// Timestamp of the most recent accepted sample.
    pub last: SimTime,
    /// The (earlier) timestamp that was rejected.
    pub attempted: SimTime,
}

impl fmt::Display for TimeRegression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sample at {:?} precedes previous sample at {:?}",
            self.attempted, self.last
        )
    }
}

impl std::error::Error for TimeRegression {}

/// A fixed-bucket histogram of durations (seconds), used for task-duration
/// and queue-delay distributions in reports.
#[derive(Clone, Debug)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    overflow: u64,
}

impl Histogram {
    /// Histogram with the given ascending bucket edges. A value `x` lands in
    /// bucket `i` when `edges[i] <= x < edges[i+1]`; below the first edge it
    /// counts into bucket 0; at/above the last edge it counts as overflow.
    pub fn with_edges(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least two edges");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly ascending"
        );
        let n = edges.len() - 1;
        Histogram {
            edges,
            counts: vec![0; n],
            overflow: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        if x >= *self.edges.last().unwrap() {
            self.overflow += 1;
            return;
        }
        let idx = match self.edges.partition_point(|&e| e <= x) {
            0 => 0,
            n => n - 1,
        };
        let last = self.counts.len() - 1;
        self.counts[idx.min(last)] += 1;
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
    /// Observations at/above the final edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow
    }
    /// The configured edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Approximate `q`-quantile (`0.0 ≤ q ≤ 1.0`) assuming uniform mass
    /// within each bucket. Returns `None` when the histogram is empty or
    /// `q` lies outside `[0, 1]`. Mass in the overflow bucket resolves to
    /// the final edge (the histogram does not know how far above it the
    /// observations fell).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let total = self.total();
        if total == 0 {
            return None;
        }
        let target = q * total as f64;
        let mut acc = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && acc + c >= target {
                let lo = self.edges[i];
                let hi = self.edges[i + 1];
                let frac = ((target - acc) / c).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
            acc += c;
        }
        self.edges.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_series_value_and_area() {
        let mut s = StepSeries::new();
        s.record(SimTime::from_secs(0), 10.0);
        s.record(SimTime::from_secs(10), 20.0);
        s.record(SimTime::from_secs(20), 0.0);
        assert_eq!(s.value_at(SimTime::from_secs(5)), 10.0);
        assert_eq!(s.value_at(SimTime::from_secs(10)), 20.0);
        assert_eq!(s.value_at(SimTime::from_secs(25)), 0.0);
        // 10*10 + 20*10 + 0*10 = 300
        let a = s.area(SimTime::ZERO, SimTime::from_secs(30));
        assert!((a - 300.0).abs() < 1e-9);
    }

    #[test]
    fn step_series_partial_window_area() {
        let mut s = StepSeries::new();
        s.record(SimTime::from_secs(0), 4.0);
        s.record(SimTime::from_secs(10), 8.0);
        // window [5, 15]: 4*5 + 8*5 = 60
        let a = s.area(SimTime::from_secs(5), SimTime::from_secs(15));
        assert!((a - 60.0).abs() < 1e-9);
    }

    #[test]
    fn step_series_before_first_sample_is_zero() {
        let mut s = StepSeries::new();
        s.record(SimTime::from_secs(10), 5.0);
        assert_eq!(s.value_at(SimTime::from_secs(3)), 0.0);
        let a = s.area(SimTime::ZERO, SimTime::from_secs(20));
        assert!((a - 50.0).abs() < 1e-9);
    }

    #[test]
    fn step_series_same_timestamp_overwrites() {
        let mut s = StepSeries::new();
        s.record(SimTime::from_secs(1), 5.0);
        s.record(SimTime::from_secs(1), 7.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.last_value(), 7.0);
    }

    #[test]
    fn step_series_mean() {
        let mut s = StepSeries::new();
        s.record(SimTime::ZERO, 10.0);
        s.record(SimTime::from_secs(10), 30.0);
        let m = s.mean_over(SimTime::ZERO, SimTime::from_secs(20));
        assert!((m - 20.0).abs() < 1e-9);
    }

    #[test]
    fn step_series_resample_len() {
        let mut s = StepSeries::new();
        s.record(SimTime::ZERO, 1.0);
        let pts = s.resample(SimTime::ZERO, SimTime::from_secs(100), 11);
        assert_eq!(pts.len(), 11);
        assert!(pts.iter().all(|&(_, v)| v == 1.0));
    }

    #[test]
    fn empty_series_defaults() {
        let s = StepSeries::new();
        assert_eq!(s.value_at(SimTime::from_secs(5)), 0.0);
        assert_eq!(s.area(SimTime::ZERO, SimTime::from_secs(5)), 0.0);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::with_edges(vec![0.0, 1.0, 2.0, 4.0]);
        for x in [0.5, 1.5, 1.9, 3.0, 4.0, 100.0, -1.0] {
            h.record(x);
        }
        assert_eq!(h.counts(), &[2, 2, 1]); // -1.0 clamps into bucket 0
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_bad_edges() {
        let _ = Histogram::with_edges(vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn try_record_rejects_regression_without_recording() {
        let mut s = StepSeries::new();
        s.try_record(SimTime::from_secs(10), 1.0).unwrap();
        let err = s.try_record(SimTime::from_secs(5), 9.0).unwrap_err();
        assert_eq!(err.last, SimTime::from_secs(10));
        assert_eq!(err.attempted, SimTime::from_secs(5));
        assert!(err.to_string().contains("precedes"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.last_value(), 1.0);
    }

    #[test]
    fn record_clamps_regressed_samples_to_last_timestamp() {
        let mut s = StepSeries::new();
        s.record(SimTime::from_secs(10), 1.0);
        s.record(SimTime::from_secs(5), 9.0); // regression: clamps to t=10
        assert_eq!(s.len(), 1);
        assert_eq!(s.points(), &[(SimTime::from_secs(10), 9.0)]);
        // The series is still a valid step function and keeps accepting.
        s.record(SimTime::from_secs(20), 3.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.value_at(SimTime::from_secs(15)), 9.0);
    }

    #[test]
    fn histogram_quantile_interpolates_within_buckets() {
        let mut h = Histogram::with_edges(vec![0.0, 10.0, 20.0]);
        for _ in 0..4 {
            h.record(5.0); // bucket [0, 10)
        }
        for _ in 0..4 {
            h.record(15.0); // bucket [10, 20)
        }
        assert!((h.quantile(0.5).unwrap() - 10.0).abs() < 1e-9);
        assert!((h.quantile(0.25).unwrap() - 5.0).abs() < 1e-9);
        assert!((h.quantile(1.0).unwrap() - 20.0).abs() < 1e-9);
        // q=0 resolves to the start of the first occupied bucket.
        assert!((h.quantile(0.0).unwrap() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        let empty = Histogram::with_edges(vec![0.0, 1.0]);
        assert_eq!(empty.quantile(0.5), None);

        let mut h = Histogram::with_edges(vec![0.0, 10.0]);
        h.record(3.0);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        // Single sample: every quantile lies within its bucket.
        for q in [0.0, 0.5, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((0.0..=10.0).contains(&v), "q={q} v={v}");
        }

        // Overflow-only mass resolves to the final edge.
        let mut o = Histogram::with_edges(vec![0.0, 10.0]);
        o.record(99.0);
        assert_eq!(o.quantile(0.5), Some(10.0));
    }
}
