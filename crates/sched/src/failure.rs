//! Failure-aware placement (after ATLAS, Soualhia et al. 2015).

use crate::TaskKind;
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
/// bought on risky nodes. Scores halve every `HALF_LIFE` (10 min), so a
/// site that stops churning earns its way back and nothing starves
/// permanently.
#[derive(Clone, Debug, Default)]
pub struct FailureAwareSched {
    node_scores: HashMap<NodeId, Decayed>,
    site_scores: HashMap<SiteId, Decayed>,
}

/// Time for a score to halve.
const HALF_LIFE: SimDuration = SimDuration::from_secs(600);
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

/// A score's value at `now` (0.0 for no score).
fn decayed(d: Option<&Decayed>, now: SimTime) -> f64 {
    let Some(d) = d else { return 0.0 };
    let dt = now.saturating_since(d.at).as_secs_f64();
    d.value * 0.5f64.powf(dt / HALF_LIFE.as_secs_f64())
}

impl FailureAwareSched {
    fn bump_node(&mut self, node: NodeId, site: SiteId, amount: f64, now: SimTime) {
        let value = decayed(self.node_scores.get(&node), now) + amount;
        self.node_scores.insert(node, Decayed { value, at: now });
        let value = decayed(self.site_scores.get(&site), now) + amount * SITE_FRACTION;
        self.site_scores.insert(site, Decayed { value, at: now });
    }

    /// Effective penalty of a node: its own score plus `SITE_WEIGHT` (0.5)
    /// of its site's.
    fn effective_penalty(&self, node: NodeId, site: SiteId, now: SimTime) -> f64 {
        decayed(self.node_scores.get(&node), now)
            + SITE_WEIGHT * decayed(self.site_scores.get(&site), now)
    }

    pub(crate) fn admit(&self, node: NodeId, site: SiteId, kind: TaskKind, now: SimTime) -> bool {
        let threshold = match kind {
            TaskKind::Map => MAP_THRESHOLD,
            TaskKind::Reduce => REDUCE_THRESHOLD,
        };
        self.effective_penalty(node, site, now) < threshold
    }

    pub(crate) fn allow_speculation(&self, node: NodeId, site: SiteId, now: SimTime) -> bool {
        self.effective_penalty(node, site, now) < SPEC_THRESHOLD
    }

    pub(crate) fn on_attempt_failed(&mut self, node: NodeId, site: SiteId, now: SimTime) {
        self.bump_node(node, site, ATTEMPT_FAIL_PENALTY, now);
    }

    pub(crate) fn on_tracker_dead(&mut self, node: NodeId, site: SiteId, now: SimTime) {
        self.bump_node(node, site, TRACKER_DEATH_PENALTY, now);
    }

    pub(crate) fn site_penalty(&self, site: SiteId, now: SimTime) -> f64 {
        decayed(self.site_scores.get(&site), now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: NodeId = NodeId(1);
    const S: SiteId = SiteId(0);

    #[test]
    fn clean_nodes_admit_everything() {
        let f = FailureAwareSched::default();
        let t = SimTime::from_secs(100);
        assert!(f.admit(N, S, TaskKind::Map, t));
        assert!(f.admit(N, S, TaskKind::Reduce, t));
        assert!(f.allow_speculation(N, S, t));
        assert_eq!(f.effective_penalty(N, S, t), 0.0);
    }

    #[test]
    fn graded_quarantine_spec_then_reduce_then_map() {
        let mut f = FailureAwareSched::default();
        let t = SimTime::from_secs(10);
        // One tracker death: node 2.0 + site 0.5·0.5 = 2.25.
        f.on_tracker_dead(N, S, t);
        assert!(f.admit(N, S, TaskKind::Map, t));
        assert!(!f.admit(N, S, TaskKind::Reduce, t));
        assert!(!f.allow_speculation(N, S, t));
        // Two more failures push past the map threshold too.
        f.on_attempt_failed(N, S, t);
        f.on_attempt_failed(N, S, t);
        assert!(!f.admit(N, S, TaskKind::Map, t));
    }

    #[test]
    fn site_penalty_taints_neighbours() {
        let mut f = FailureAwareSched::default();
        let t = SimTime::from_secs(10);
        // Heavy churn on node 1 spills onto sibling node 2 via the site
        // score: 4 deaths × 2.0 × 0.25 site fraction × 0.5 weight = 1.0+.
        for _ in 0..5 {
            f.on_tracker_dead(N, S, t);
        }
        assert!(f.admit(NodeId(2), S, TaskKind::Map, t));
        assert!(!f.allow_speculation(NodeId(2), S, t));
    }

    #[test]
    fn scores_decay_back_to_service() {
        let mut f = FailureAwareSched::default();
        f.on_tracker_dead(N, S, SimTime::ZERO);
        assert!(!f.allow_speculation(N, S, SimTime::from_secs(10)));
        // 2.25 effective halves every 10 minutes: below 1.0 within
        // 20 minutes.
        assert!(f.allow_speculation(N, S, SimTime::from_secs(1_800)));
        // Monotone recovery: penalty only shrinks with time.
        let early = f.effective_penalty(N, S, SimTime::from_secs(100));
        let late = f.effective_penalty(N, S, SimTime::from_secs(1_200));
        assert!(late < early);
    }
}
