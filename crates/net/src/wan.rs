//! Inter-pool WAN backbone for federated deployments.
//!
//! A federation links several HOG pools (each its own campus/grid
//! deployment) over a shared long-haul backbone that is *slower* than any
//! single pool's site uplinks — the third and weakest tier of the network
//! hierarchy (node NIC > site uplink > inter-pool WAN). Cross-pool block
//! staging and remote-replica pushes ride this tier; it never carries
//! intra-pool traffic, which stays on each pool's own [`crate::FluidNet`].
//!
//! The model is a single shared pipe with equal-share (processor-sharing)
//! bandwidth allocation: `n` concurrent transfers each progress at
//! `capacity / n`. That is deliberately simpler than the max-min fair
//! fluid model inside a pool — the backbone is one bottleneck link, so
//! progressive filling degenerates to equal share anyway. A fixed one-way
//! latency is charged once per transfer. The whole tier can be *frozen*
//! (rates drop to zero) to model an inter-pool partition fault; transfers
//! resume, not restart, when the partition heals.
//!
//! Protocol (mirrors [`crate::FluidNet`]'s): on a tick call
//! [`WanTier::advance`], handle the returned [`WanDone`]s, then re-arm one
//! tick at [`WanTier::next_completion`]. Spurious ticks are harmless.

use hog_sim_core::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Identifier of an in-flight inter-pool transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WanTransferId(pub u64);

/// A finished inter-pool transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WanDone {
    /// The transfer that completed.
    pub id: WanTransferId,
    /// Caller-supplied correlation tag (opaque to the tier).
    pub tag: u64,
    /// Source pool index.
    pub from_pool: usize,
    /// Destination pool index.
    pub to_pool: usize,
    /// Bytes delivered.
    pub bytes: u64,
}

#[derive(Clone, Debug)]
struct Transfer {
    tag: u64,
    from_pool: usize,
    to_pool: usize,
    bytes: u64,
    remaining: f64,
    /// Earliest completion instant (start + one-way latency).
    not_before: SimTime,
}

/// The shared inter-pool backbone: one equal-share pipe plus a fixed
/// one-way latency, freezable for partition faults.
#[derive(Clone, Debug)]
pub struct WanTier {
    capacity: f64,
    latency: SimDuration,
    transfers: BTreeMap<WanTransferId, Transfer>,
    next_id: u64,
    frozen: bool,
    last_advance: SimTime,
    delivered_bytes: u64,
    started_transfers: u64,
}

impl WanTier {
    /// A backbone with `capacity` bytes/s total and `latency` one-way.
    pub fn new(capacity: f64, latency: SimDuration) -> Self {
        WanTier {
            capacity: capacity.max(1.0),
            latency,
            transfers: BTreeMap::new(),
            next_id: 0,
            frozen: false,
            last_advance: SimTime::ZERO,
            delivered_bytes: 0,
            started_transfers: 0,
        }
    }

    /// Begin moving `bytes` from `from_pool` to `to_pool`. The caller must
    /// have advanced the tier to `now` first (rates of ongoing transfers
    /// change the moment the flow set does).
    pub fn start_transfer(
        &mut self,
        now: SimTime,
        from_pool: usize,
        to_pool: usize,
        bytes: u64,
        tag: u64,
    ) -> WanTransferId {
        debug_assert!(self.last_advance <= now);
        self.catch_up(now);
        let id = WanTransferId(self.next_id);
        self.next_id += 1;
        self.started_transfers += 1;
        self.transfers.insert(
            id,
            Transfer {
                tag,
                from_pool,
                to_pool,
                bytes,
                remaining: bytes as f64,
                not_before: now + self.latency,
            },
        );
        id
    }

    /// Freeze (`true`) or thaw (`false`) the backbone: frozen transfers
    /// make no progress but are not lost. Advances internal time to `now`
    /// under the old state first.
    pub fn set_frozen(&mut self, now: SimTime, frozen: bool) {
        self.catch_up(now);
        self.frozen = frozen;
    }

    /// Whether the backbone is currently severed.
    pub fn frozen(&self) -> bool {
        self.frozen
    }

    /// Progress to `now`, returning transfers that finished at or before
    /// `now` (in transfer-id order — deterministic).
    pub fn advance(&mut self, now: SimTime) -> Vec<WanDone> {
        self.catch_up(now);
        let done_ids: Vec<WanTransferId> = self
            .transfers
            .iter()
            .filter(|(_, t)| t.remaining <= 0.0 && t.not_before <= now)
            .map(|(id, _)| *id)
            .collect();
        let mut out = Vec::with_capacity(done_ids.len());
        for id in done_ids {
            let t = self.transfers.remove(&id).expect("transfer vanished");
            self.delivered_bytes += t.bytes;
            out.push(WanDone {
                id,
                tag: t.tag,
                from_pool: t.from_pool,
                to_pool: t.to_pool,
                bytes: t.bytes,
            });
        }
        out
    }

    /// The instant the earliest in-flight transfer will finish, or `None`
    /// when idle or frozen (a frozen backbone never completes anything
    /// until thawed).
    pub fn next_completion(&self) -> Option<SimTime> {
        if self.transfers.is_empty() {
            return None;
        }
        // Drained transfers still waiting out their latency complete at
        // `not_before` even while frozen (their bytes are already in
        // flight past the cut).
        let mut best: Option<SimTime> = None;
        let active = self
            .transfers
            .values()
            .filter(|t| t.remaining > 0.0)
            .count();
        let rate = if active > 0 {
            self.capacity / active as f64
        } else {
            0.0
        };
        for t in self.transfers.values() {
            let eta = if t.remaining <= 0.0 {
                Some(t.not_before)
            } else if self.frozen {
                None
            } else {
                // Ceil to the millisecond clock: a rounded-*down* ETA
                // would land on `last_advance` itself once the residue is
                // sub-millisecond, and the arm-advance-rearm protocol
                // would spin at that instant forever.
                let ms = (t.remaining / rate * 1000.0).ceil().max(1.0);
                let drain = if ms >= u64::MAX as f64 {
                    SimDuration::from_millis(u64::MAX)
                } else {
                    SimDuration::from_millis(ms as u64)
                };
                Some((self.last_advance + drain).max(t.not_before))
            };
            if let Some(eta) = eta {
                best = Some(best.map_or(eta, |b: SimTime| b.min(eta)));
            }
        }
        best
    }

    /// Number of in-flight transfers.
    pub fn active_transfers(&self) -> usize {
        self.transfers.len()
    }

    /// Total bytes delivered across the backbone so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Total transfers started so far.
    pub fn started_transfers(&self) -> u64 {
        self.started_transfers
    }

    /// Step internal time forward to `now`, draining bytes at the
    /// equal-share rate and re-splitting whenever a transfer empties.
    fn catch_up(&mut self, now: SimTime) {
        while self.last_advance < now {
            if self.frozen {
                self.last_advance = now;
                return;
            }
            let active: Vec<WanTransferId> = self
                .transfers
                .iter()
                .filter(|(_, t)| t.remaining > 0.0)
                .map(|(id, _)| *id)
                .collect();
            if active.is_empty() {
                self.last_advance = now;
                return;
            }
            let rate = self.capacity / active.len() as f64;
            let min_remaining = active
                .iter()
                .map(|id| self.transfers[id].remaining)
                .fold(f64::INFINITY, f64::min);
            // First drain, rounded up to the millisecond clock.
            let drain =
                SimDuration::from_secs_f64(min_remaining / rate).max(SimDuration::from_millis(1));
            let step_end = now.min(self.last_advance + drain);
            let dt = step_end.saturating_since(self.last_advance).as_secs_f64();
            let drained = rate * dt;
            for id in &active {
                let t = self.transfers.get_mut(id).expect("active transfer");
                if t.remaining <= drained + 1e-6 {
                    t.remaining = 0.0;
                } else {
                    t.remaining -= drained;
                }
            }
            self.last_advance = step_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hog_sim_core::units::mbit_per_s;

    fn tier() -> WanTier {
        // 100 Mbps, 100 ms latency: 1 MiB takes ~84 ms of drain + latency.
        WanTier::new(mbit_per_s(100.0), SimDuration::from_millis(100))
    }

    #[test]
    fn single_transfer_completes_after_drain_plus_latency() {
        let mut w = tier();
        let bytes = 12_500_000; // 1 s at 100 Mbps
        w.start_transfer(SimTime::ZERO, 0, 1, bytes, 7);
        let eta = w.next_completion().unwrap();
        assert!(eta >= SimTime::from_millis(1000));
        assert!(eta <= SimTime::from_millis(1200));
        let just_before = SimTime::ZERO
            + eta
                .saturating_since(SimTime::ZERO)
                .saturating_sub(SimDuration::from_millis(1));
        assert!(w.advance(just_before).is_empty());
        let done = w.advance(eta);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        assert_eq!(done[0].bytes, bytes);
        assert_eq!(w.delivered_bytes(), bytes);
    }

    #[test]
    fn concurrent_transfers_share_the_pipe() {
        let mut w = tier();
        let bytes = 12_500_000;
        w.start_transfer(SimTime::ZERO, 0, 1, bytes, 1);
        w.start_transfer(SimTime::ZERO, 0, 2, bytes, 2);
        // Two equal transfers at half rate each: ~2 s.
        let eta = w.next_completion().unwrap();
        assert!(eta >= SimTime::from_millis(2000), "eta {eta:?}");
        let done = w.advance(eta + SimDuration::from_millis(2));
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn freezing_pauses_and_resumes_without_losing_bytes() {
        let mut w = tier();
        let bytes = 12_500_000; // 1 s unfrozen
        w.start_transfer(SimTime::ZERO, 0, 1, bytes, 9);
        // Freeze at 500 ms (half drained), thaw at 10 s.
        w.set_frozen(SimTime::from_millis(500), true);
        assert!(w.next_completion().is_none());
        assert!(w.advance(SimTime::from_secs(5)).is_empty());
        w.set_frozen(SimTime::from_secs(10), false);
        let eta = w.next_completion().unwrap();
        // Remaining half second of drain from t=10s.
        assert!(eta >= SimTime::from_millis(10_400), "eta {eta:?}");
        assert!(eta <= SimTime::from_millis(10_700), "eta {eta:?}");
        assert_eq!(w.advance(eta).len(), 1);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut w = tier();
            w.start_transfer(SimTime::ZERO, 0, 1, 5_000_000, 1);
            w.start_transfer(SimTime::from_millis(300), 1, 2, 9_000_000, 2);
            let mut log = Vec::new();
            let mut t = SimTime::ZERO;
            while let Some(eta) = w.next_completion() {
                t = t.max(eta);
                for d in w.advance(t) {
                    log.push((t, d.id, d.tag));
                }
            }
            (log, w.delivered_bytes())
        };
        assert_eq!(run(), run());
    }
}
