//! Failure-aware placement (after ATLAS, Soualhia et al. 2015).

use crate::{JobSnapshot, Scheduler, SlotKind};
use hog_net::{NodeId, SiteId};
use hog_sim_core::{SimDuration, SimTime};
use std::collections::HashMap;

/// An exponentially-decaying penalty score.
#[derive(Clone, Copy, Debug)]
struct Decayed {
    value: f64,
    at: SimTime,
}

/// FIFO order plus reliability-biased placement: every blamed attempt
/// failure and every tracker death accrues penalty on the node (and a
/// fraction on its site); a node whose effective penalty — its own score
/// plus half its site's — exceeds a per-kind threshold is quarantined.
///
/// On a glidein pool, preemption clusters by site: when a batch scheduler
/// reclaims resources it reclaims many workers of one site in a burst,
/// and the site stays risky while the competing demand persists. The site
/// component captures exactly that, steering long-lived reduces and
/// speculative copies (the expensive things to lose) toward calm sites.
///
/// Thresholds are graded by cost-of-loss: first-attempt maps are cheap to
/// re-run and quarantine last; reduces hold shuffle state and quarantine
/// earlier; speculative copies are pure insurance and are simply not
/// bought on risky nodes. Scores halve every `half_life` (default
/// 10 min), so a site that stops churning earns its way back and nothing
/// starves permanently.
#[derive(Clone, Debug)]
pub struct FailureAwareSched {
    half_life: SimDuration,
    map_threshold: f64,
    reduce_threshold: f64,
    spec_threshold: f64,
    /// When set, nodes whose effective penalty reaches this value are
    /// *predicted* to die: the JobTracker launches rescue copies of
    /// their running tasks elsewhere ([`Scheduler::predicts_failure`]).
    predict_threshold: Option<f64>,
    node_scores: HashMap<NodeId, Decayed>,
    site_scores: HashMap<SiteId, Decayed>,
    node_site: HashMap<NodeId, SiteId>,
    /// Registration instant of each live tracker (age-hazard predictor).
    node_birth: HashMap<NodeId, SimTime>,
    /// Recent observed glidein lifetimes per site (see [`SiteLifetimes`]).
    site_lifetimes: HashMap<SiteId, SiteLifetimes>,
}

/// A ring of the most recent observed glidein lifetimes at one site,
/// with its median kept current. Preemption there is roughly log-normal
/// around this median, so a worker whose *age* approaches it is entering
/// its highest-hazard band — the second signal (besides penalty bursts)
/// the failure predictor uses.
#[derive(Clone, Debug, Default)]
struct SiteLifetimes {
    samples: Vec<f64>,
    next: usize,
    median: f64,
}

/// Ring capacity: enough samples to smooth noise, few enough that the
/// median tracks the diurnal wave as it compresses lifetimes.
const LIFETIME_WINDOW: usize = 16;
/// Observed deaths needed at a site before its age hazard is trusted.
const MIN_LIFETIME_SAMPLES: usize = 4;
/// Observed site median lifetime (seconds) above which rescue copies
/// stop paying: the chance a flagged node dies inside one task length
/// falls below the cost of running the copy. Glideins at aggressive OSG
/// sites live well under this during the reclaim wave; the synthetic
/// 2 h-mean exponential model sits far above it, so prediction stays
/// dormant there.
const MEDIAN_RESCUE_CEILING: f64 = 3600.0;

/// The hazard band as fractions of the site's median lifetime: a node is
/// "due" from 90% of the median; past 1.8× it is presumed a long-lived
/// survivor of the heavy tail and no longer flagged. The band is kept
/// tight on purpose — every flagged node is a rescue-copy magnet, so
/// precision (copies that pay off) matters more than recall here; the
/// penalty-burst half of the predictor catches the rest.
const AGE_BAND: (f64, f64) = (0.9, 1.8);

impl SiteLifetimes {
    fn push(&mut self, lifetime: f64) {
        if self.samples.len() < LIFETIME_WINDOW {
            self.samples.push(lifetime);
        } else {
            self.samples[self.next] = lifetime;
        }
        self.next = (self.next + 1) % LIFETIME_WINDOW;
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        self.median = sorted[sorted.len() / 2];
    }
}

/// Default prediction threshold: below the speculation bar (1.0), so a
/// site that lost three workers inside a half-life (site score 1.5 →
/// effective 0.75 for its survivors) marks the survivors doomed — the
/// site-correlated burst pattern glidein preemption actually shows.
pub(crate) const DEFAULT_PREDICT_THRESHOLD: f64 = 0.75;

/// Penalty for one blamed attempt failure on a node.
const ATTEMPT_FAIL_PENALTY: f64 = 1.0;
/// Penalty for a tracker death (preemption) on a node.
const TRACKER_DEATH_PENALTY: f64 = 2.0;
/// Fraction of a node penalty that also accrues to its site.
const SITE_FRACTION: f64 = 0.25;
/// Weight of the site score in a node's effective penalty.
const SITE_WEIGHT: f64 = 0.5;

impl FailureAwareSched {
    /// Failure-aware placement with default tuning: 10-minute score
    /// half-life; quarantine thresholds 4.0 (maps), 1.5 (reduces), 1.0
    /// (speculation).
    pub fn new() -> Self {
        FailureAwareSched {
            half_life: SimDuration::from_secs(600),
            map_threshold: 4.0,
            reduce_threshold: 1.5,
            spec_threshold: 1.0,
            predict_threshold: None,
            node_scores: HashMap::new(),
            site_scores: HashMap::new(),
            node_site: HashMap::new(),
            node_birth: HashMap::new(),
            site_lifetimes: HashMap::new(),
        }
    }

    /// Override the score half-life (tests and ablations).
    pub fn with_half_life(mut self, half_life: SimDuration) -> Self {
        self.half_life = half_life;
        self
    }

    /// Override the quarantine thresholds for maps / reduces /
    /// speculative copies.
    pub fn with_thresholds(mut self, map: f64, reduce: f64, spec: f64) -> Self {
        self.map_threshold = map;
        self.reduce_threshold = reduce;
        self.spec_threshold = spec;
        self
    }

    /// Turn on failure prediction: nodes whose effective penalty reaches
    /// `threshold` are reported doomed via [`Scheduler::predicts_failure`],
    /// and the JobTracker pre-emptively launches rescue copies of their
    /// running tasks instead of waiting the 30 s for the loss detector.
    pub fn with_prediction(mut self, threshold: f64) -> Self {
        self.predict_threshold = Some(threshold);
        self
    }

    fn decayed(&self, d: Option<&Decayed>, now: SimTime) -> f64 {
        let Some(d) = d else { return 0.0 };
        let dt = now.saturating_since(d.at).as_secs_f64();
        d.value * 0.5f64.powf(dt / self.half_life.as_secs_f64())
    }

    fn bump_node(&mut self, node: NodeId, amount: f64, now: SimTime) {
        let value = self.decayed(self.node_scores.get(&node), now) + amount;
        self.node_scores.insert(node, Decayed { value, at: now });
        if let Some(&site) = self.node_site.get(&node) {
            let value = self.decayed(self.site_scores.get(&site), now) + amount * SITE_FRACTION;
            self.site_scores.insert(site, Decayed { value, at: now });
        }
    }

    /// Effective penalty of a node: its own score plus `SITE_WEIGHT` (0.5)
    /// of its site's.
    pub fn effective_penalty(&self, node: NodeId, site: SiteId, now: SimTime) -> f64 {
        self.decayed(self.node_scores.get(&node), now)
            + SITE_WEIGHT * self.decayed(self.site_scores.get(&site), now)
    }

    /// Age-hazard half of the failure predictor: true when the node's
    /// age has entered [`AGE_BAND`] around its site's observed median
    /// lifetime (preemption there is roughly log-normal, so that is
    /// where the death hazard concentrates). Needs
    /// [`MIN_LIFETIME_SAMPLES`] observed deaths at the site first.
    fn age_doomed(&self, node: NodeId, site: SiteId, now: SimTime) -> bool {
        let Some(&birth) = self.node_birth.get(&node) else {
            return false;
        };
        let Some(lt) = self.site_lifetimes.get(&site) else {
            return false;
        };
        if lt.samples.len() < MIN_LIFETIME_SAMPLES {
            return false;
        }
        let age = now.saturating_since(birth).as_secs_f64();
        age >= AGE_BAND.0 * lt.median && age <= AGE_BAND.1 * lt.median
    }

    /// Whether `site`'s observed lifetimes are short enough that rescue
    /// copies there pay for themselves. A copy's payoff is the chance
    /// the original dies while its attempt still runs — roughly
    /// task-length / lifetime — so on long-lived sites (observed median
    /// above [`MEDIAN_RESCUE_CEILING`]) even a "doomed" node will almost
    /// always outlive its tasks and the 30 s reactive detector is the
    /// cheaper tool. Unknown medians (fewer than
    /// [`MIN_LIFETIME_SAMPLES`] deaths) count as long-lived.
    fn rescue_worthy(&self, site: SiteId) -> bool {
        self.site_lifetimes.get(&site).is_some_and(|lt| {
            lt.samples.len() >= MIN_LIFETIME_SAMPLES && lt.median <= MEDIAN_RESCUE_CEILING
        })
    }
}

impl Default for FailureAwareSched {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for FailureAwareSched {
    fn name(&self) -> &'static str {
        if self.predict_threshold.is_some() {
            "predictive"
        } else {
            "failure_aware"
        }
    }

    // Submission-order passthrough; failure scores gate placement via
    // `admit`, not the job order.
    fn job_order(&self, jobs: &[JobSnapshot], _kind: SlotKind, out: &mut Vec<u32>) {
        out.extend(jobs.iter().map(|j| j.id));
    }

    fn admit(&mut self, node: NodeId, site: SiteId, kind: SlotKind, now: SimTime) -> bool {
        let threshold = match kind {
            SlotKind::Map => self.map_threshold,
            SlotKind::Reduce => self.reduce_threshold,
        };
        self.effective_penalty(node, site, now) < threshold
    }

    fn allow_speculation(&mut self, node: NodeId, site: SiteId, now: SimTime) -> bool {
        self.effective_penalty(node, site, now) < self.spec_threshold
    }

    fn on_attempt_failed(&mut self, _job: u32, node: NodeId, now: SimTime) {
        self.bump_node(node, ATTEMPT_FAIL_PENALTY, now);
    }

    fn on_tracker_registered(&mut self, node: NodeId, site: SiteId, now: SimTime) {
        self.node_site.insert(node, site);
        // A re-registration is a fresh glidein on the same slot: its age
        // clock restarts.
        self.node_birth.insert(node, now);
    }

    fn on_tracker_dead(&mut self, node: NodeId, now: SimTime) {
        self.bump_node(node, TRACKER_DEATH_PENALTY, now);
        if let (Some(&birth), Some(&site)) = (self.node_birth.get(&node), self.node_site.get(&node))
        {
            let lifetime = now.saturating_since(birth).as_secs_f64();
            self.site_lifetimes.entry(site).or_default().push(lifetime);
            self.node_birth.remove(&node);
        }
    }

    fn site_penalty(&self, site: SiteId, now: SimTime) -> f64 {
        self.decayed(self.site_scores.get(&site), now)
    }

    fn prediction_enabled(&self) -> bool {
        self.predict_threshold.is_some()
    }

    // Two hazard signals, either one dooms a node: a penalty burst (the
    // site just lost workers inside a half-life — correlated reclaim in
    // progress) or the age band (the node is approaching its site's
    // observed median lifetime, where the log-normal death hazard
    // concentrates).
    fn predicts_failure(&self, node: NodeId, site: SiteId, now: SimTime) -> bool {
        let Some(t) = self.predict_threshold else {
            return false;
        };
        self.effective_penalty(node, site, now) >= t || self.age_doomed(node, site, now)
    }

    // Rescue sourcing is stricter than placement avoidance. The plain
    // penalty burst is mostly site score — it flags every survivor at a
    // stricken site at once, and copying work off dozens of nodes that
    // will mostly outlive their tasks trades a few lucky hits for a
    // pool-wide load increase. Sourcing therefore needs either the
    // node-specific age signal or a *double*-threshold burst (a site
    // actively melting, not merely bruised).
    fn marks_doomed(&self, node: NodeId, site: SiteId, now: SimTime) -> bool {
        let Some(t) = self.predict_threshold else {
            return false;
        };
        self.rescue_worthy(site)
            && (self.age_doomed(node, site, now)
                || self.effective_penalty(node, site, now) >= 2.0 * t)
    }

    // Rescue placement is graded *relatively*: a node below the
    // speculation bar is always acceptable, and when a preemption wave
    // pushes the whole pool past absolute bars, any node at most half as
    // penalised as the doomed one still qualifies — moving work from the
    // melting site to the calmest one available beats leaving it to die.
    // Either way, never buy insurance on a node that is itself due to
    // die by age.
    fn allow_rescue(
        &self,
        node: NodeId,
        site: SiteId,
        doomed: NodeId,
        doomed_site: SiteId,
        now: SimTime,
    ) -> bool {
        if self.age_doomed(node, site, now) {
            return false;
        }
        let eff = self.effective_penalty(node, site, now);
        eff < self.spec_threshold || eff <= 0.5 * self.effective_penalty(doomed, doomed_site, now)
    }

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: NodeId = NodeId(1);
    const S: SiteId = SiteId(0);

    fn registered() -> FailureAwareSched {
        let mut f = FailureAwareSched::new();
        f.on_tracker_registered(N, S, SimTime::ZERO);
        f.on_tracker_registered(NodeId(2), S, SimTime::ZERO);
        f
    }

    #[test]
    fn clean_nodes_admit_everything() {
        let mut f = registered();
        let t = SimTime::from_secs(100);
        assert!(f.admit(N, S, SlotKind::Map, t));
        assert!(f.admit(N, S, SlotKind::Reduce, t));
        assert!(f.allow_speculation(N, S, t));
        assert_eq!(f.effective_penalty(N, S, t), 0.0);
    }

    #[test]
    fn graded_quarantine_spec_then_reduce_then_map() {
        let mut f = registered();
        let t = SimTime::from_secs(10);
        // One tracker death: node 2.0 + site 0.5·0.5 = 2.25.
        f.on_tracker_dead(N, t);
        assert!(f.admit(N, S, SlotKind::Map, t));
        assert!(!f.admit(N, S, SlotKind::Reduce, t));
        assert!(!f.allow_speculation(N, S, t));
        // Two more failures push past the map threshold too.
        f.on_attempt_failed(0, N, t);
        f.on_attempt_failed(0, N, t);
        assert!(!f.admit(N, S, SlotKind::Map, t));
    }

    #[test]
    fn site_penalty_taints_neighbours() {
        let mut f = registered();
        let t = SimTime::from_secs(10);
        // Heavy churn on node 1 spills onto sibling node 2 via the site
        // score: 4 deaths × 2.0 × 0.25 site fraction × 0.5 weight = 1.0+.
        for _ in 0..5 {
            f.on_tracker_dead(N, t);
        }
        assert!(f.admit(NodeId(2), S, SlotKind::Map, t));
        assert!(!f.allow_speculation(NodeId(2), S, t));
    }

    #[test]
    fn prediction_flags_survivors_of_a_site_burst() {
        let mut f = registered().with_prediction(DEFAULT_PREDICT_THRESHOLD);
        assert!(f.prediction_enabled());
        assert_eq!(f.name(), "predictive");
        let t = SimTime::from_secs(10);
        // Node 2 is clean and its site calm: no prediction.
        assert!(!f.predicts_failure(NodeId(2), S, t));
        // Three same-site deaths inside a half-life: site score 1.5,
        // survivors' effective penalty 0.75 — predicted doomed.
        for _ in 0..3 {
            f.on_tracker_dead(N, t);
        }
        assert!(f.predicts_failure(NodeId(2), S, t));
        // The site calms down: the prediction clears with decay.
        assert!(!f.predicts_failure(NodeId(2), S, SimTime::from_secs(2000)));
    }

    #[test]
    fn age_band_predicts_nodes_due_by_site_lifetime() {
        let mut f = FailureAwareSched::new().with_prediction(DEFAULT_PREDICT_THRESHOLD);
        // Four deaths spaced 2000 s apart: lifetimes 2000/4000/6000/8000,
        // median 6000, while the decayed burst penalty stays below the
        // prediction threshold throughout — isolating the age signal.
        for (i, t) in [2000u64, 4000, 6000, 8000].iter().enumerate() {
            let n = NodeId(10 + i as u32);
            f.on_tracker_registered(n, S, SimTime::ZERO);
            f.on_tracker_dead(n, SimTime::from_secs(*t));
        }
        let now = SimTime::from_secs(9000);
        f.on_tracker_registered(NodeId(1), S, SimTime::from_secs(3000));
        f.on_tracker_registered(NodeId(2), S, SimTime::from_secs(8900));
        f.on_tracker_registered(NodeId(3), S, SimTime::ZERO);
        assert!(
            f.effective_penalty(NodeId(2), S, now) < DEFAULT_PREDICT_THRESHOLD,
            "penalty must not drive this test"
        );
        // Age 6000 ≥ 0.9·median: due. Age 100: young. Age 9000 is still
        // inside 1.8× the median; a node far past it is a tail survivor.
        assert!(f.predicts_failure(NodeId(1), S, now));
        assert!(!f.predicts_failure(NodeId(2), S, now));
        assert!(f.predicts_failure(NodeId(3), S, now));
        let late = SimTime::from_secs(40_000);
        assert!(!f.age_doomed(NodeId(3), S, late));
        // A node due by age is refused as a rescue *target* even though
        // its penalty is clean.
        assert!(!f.allow_rescue(NodeId(1), S, NodeId(3), S, now));
        assert!(f.allow_rescue(NodeId(2), S, NodeId(3), S, now));
    }

    #[test]
    fn rescue_bar_is_relative_under_a_pool_wide_wave() {
        let mut f = registered().with_prediction(DEFAULT_PREDICT_THRESHOLD);
        let t = SimTime::from_secs(10);
        // Calm pool: a clean node takes rescues via the absolute bar.
        assert!(f.allow_rescue(NodeId(2), S, N, S, t));
        // A wave melts node 1: eight deaths give it effective 18 (node
        // 16 + half of site 4) and taint its site-mate node 2 up to 2.0
        // — past the speculation bar, so the absolute bar is gone.
        for _ in 0..8 {
            f.on_tracker_dead(N, t);
        }
        assert!(!f.allow_speculation(NodeId(2), S, t));
        // The relative bar keeps rescue alive: node 2 is at most half as
        // penalised as the doomed node (2.0 ≤ 18/2), while the doomed
        // node itself never qualifies as its own rescue target.
        assert!(f.allow_rescue(NodeId(2), S, N, S, t));
        assert!(!f.allow_rescue(N, S, N, S, t));
    }

    #[test]
    fn prediction_off_never_predicts() {
        let mut f = registered();
        assert!(!f.prediction_enabled());
        assert_eq!(f.name(), "failure_aware");
        let t = SimTime::from_secs(10);
        for _ in 0..10 {
            f.on_tracker_dead(N, t);
        }
        assert!(!f.predicts_failure(N, S, t));
    }

    #[test]
    fn scores_decay_back_to_service() {
        let mut f = registered().with_half_life(SimDuration::from_secs(60));
        f.on_tracker_dead(N, SimTime::ZERO);
        assert!(!f.allow_speculation(N, S, SimTime::from_secs(1)));
        // 2.25 effective halves every minute: below 1.0 within 2 minutes.
        assert!(f.allow_speculation(N, S, SimTime::from_secs(180)));
        // Monotone recovery: penalty only shrinks with time.
        let early = f.effective_penalty(N, S, SimTime::from_secs(10));
        let late = f.effective_penalty(N, S, SimTime::from_secs(120));
        assert!(late < early);
    }
}
