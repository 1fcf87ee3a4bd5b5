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
    node_scores: HashMap<NodeId, Decayed>,
    site_scores: HashMap<SiteId, Decayed>,
}

/// Penalty for one blamed attempt failure on a node.
const ATTEMPT_FAIL_PENALTY: f64 = 1.0;
/// Penalty for a tracker death (preemption) on a node.
const TRACKER_DEATH_PENALTY: f64 = 2.0;
/// Fraction of a node penalty that also accrues to its site.
const SITE_FRACTION: f64 = 0.25;
/// Weight of the site score in a node's effective penalty.
const SITE_WEIGHT: f64 = 0.5;
/// Quarantine thresholds on the effective penalty, graded by
/// cost-of-loss: first-attempt maps, reduces, speculative copies.
const MAP_THRESHOLD: f64 = 4.0;
const REDUCE_THRESHOLD: f64 = 1.5;
const SPEC_THRESHOLD: f64 = 1.0;

impl FailureAwareSched {
    /// Failure-aware placement with default tuning: 10-minute score
    /// half-life; quarantine thresholds 4.0 (maps), 1.5 (reduces), 1.0
    /// (speculation).
    pub fn new() -> Self {
        FailureAwareSched {
            half_life: SimDuration::from_secs(600),
            node_scores: HashMap::new(),
            site_scores: HashMap::new(),
        }
    }

    /// Override the score half-life.
    #[cfg(test)]
    fn with_half_life(mut self, half_life: SimDuration) -> Self {
        self.half_life = half_life;
        self
    }

    fn decayed(&self, d: Option<&Decayed>, now: SimTime) -> f64 {
        let Some(d) = d else { return 0.0 };
        let dt = now.saturating_since(d.at).as_secs_f64();
        d.value * 0.5f64.powf(dt / self.half_life.as_secs_f64())
    }

    fn bump_node(&mut self, node: NodeId, site: SiteId, amount: f64, now: SimTime) {
        let value = self.decayed(self.node_scores.get(&node), now) + amount;
        self.node_scores.insert(node, Decayed { value, at: now });
        let value = self.decayed(self.site_scores.get(&site), now) + amount * SITE_FRACTION;
        self.site_scores.insert(site, Decayed { value, at: now });
    }

    /// Effective penalty of a node: its own score plus `SITE_WEIGHT` (0.5)
    /// of its site's.
    fn effective_penalty(&self, node: NodeId, site: SiteId, now: SimTime) -> f64 {
        self.decayed(self.node_scores.get(&node), now)
            + SITE_WEIGHT * self.decayed(self.site_scores.get(&site), now)
    }
}

impl Default for FailureAwareSched {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for FailureAwareSched {
    fn name(&self) -> &'static str {
        "failure_aware"
    }

    // Submission-order passthrough; failure scores gate placement via
    // `admit`, not the job order.
    fn job_order(&self, jobs: &[JobSnapshot], _kind: SlotKind, out: &mut Vec<u32>) {
        out.extend(jobs.iter().map(|j| j.id));
    }

    fn admit(&self, node: NodeId, site: SiteId, kind: SlotKind, now: SimTime) -> bool {
        let threshold = match kind {
            SlotKind::Map => MAP_THRESHOLD,
            SlotKind::Reduce => REDUCE_THRESHOLD,
        };
        self.effective_penalty(node, site, now) < threshold
    }

    fn allow_speculation(&self, node: NodeId, site: SiteId, now: SimTime) -> bool {
        self.effective_penalty(node, site, now) < SPEC_THRESHOLD
    }

    fn on_attempt_failed(&mut self, _job: u32, node: NodeId, site: SiteId, now: SimTime) {
        self.bump_node(node, site, ATTEMPT_FAIL_PENALTY, now);
    }

    fn on_tracker_dead(&mut self, node: NodeId, site: SiteId, now: SimTime) {
        self.bump_node(node, site, TRACKER_DEATH_PENALTY, now);
    }

    fn site_penalty(&self, site: SiteId, now: SimTime) -> f64 {
        self.decayed(self.site_scores.get(&site), now)
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

    #[test]
    fn clean_nodes_admit_everything() {
        let f = FailureAwareSched::new();
        let t = SimTime::from_secs(100);
        assert!(f.admit(N, S, SlotKind::Map, t));
        assert!(f.admit(N, S, SlotKind::Reduce, t));
        assert!(f.allow_speculation(N, S, t));
        assert_eq!(f.effective_penalty(N, S, t), 0.0);
    }

    #[test]
    fn graded_quarantine_spec_then_reduce_then_map() {
        let mut f = FailureAwareSched::new();
        let t = SimTime::from_secs(10);
        // One tracker death: node 2.0 + site 0.5·0.5 = 2.25.
        f.on_tracker_dead(N, S, t);
        assert!(f.admit(N, S, SlotKind::Map, t));
        assert!(!f.admit(N, S, SlotKind::Reduce, t));
        assert!(!f.allow_speculation(N, S, t));
        // Two more failures push past the map threshold too.
        f.on_attempt_failed(0, N, S, t);
        f.on_attempt_failed(0, N, S, t);
        assert!(!f.admit(N, S, SlotKind::Map, t));
    }

    #[test]
    fn site_penalty_taints_neighbours() {
        let mut f = FailureAwareSched::new();
        let t = SimTime::from_secs(10);
        // Heavy churn on node 1 spills onto sibling node 2 via the site
        // score: 4 deaths × 2.0 × 0.25 site fraction × 0.5 weight = 1.0+.
        for _ in 0..5 {
            f.on_tracker_dead(N, S, t);
        }
        assert!(f.admit(NodeId(2), S, SlotKind::Map, t));
        assert!(!f.allow_speculation(NodeId(2), S, t));
    }

    #[test]
    fn scores_decay_back_to_service() {
        let mut f = FailureAwareSched::new().with_half_life(SimDuration::from_secs(60));
        f.on_tracker_dead(N, S, SimTime::ZERO);
        assert!(!f.allow_speculation(N, S, SimTime::from_secs(1)));
        // 2.25 effective halves every minute: below 1.0 within 2 minutes.
        assert!(f.allow_speculation(N, S, SimTime::from_secs(180)));
        // Monotone recovery: penalty only shrinks with time.
        let early = f.effective_penalty(N, S, SimTime::from_secs(10));
        let late = f.effective_penalty(N, S, SimTime::from_secs(120));
        assert!(late < early);
    }
}
