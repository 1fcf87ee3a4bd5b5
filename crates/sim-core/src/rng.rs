//! Seedable, reproducible random number generation.
//!
//! All stochastic processes in the simulation (preemption lifetimes, batch
//! queue delays, job inter-arrival times, …) draw from a [`SimRng`]. The
//! generator is `rand`'s `SmallRng` seeded explicitly; two runs with the
//! same seed produce identical traces. [`SimRng::fork`] derives independent
//! child streams (one per site, per node, …) so adding draws to one
//! component does not perturb another — this keeps experiments comparable
//! across configurations.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// The simulation's random number generator.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream identified by `stream`.
    ///
    /// The child's seed mixes the parent seed material with the stream id
    /// through SplitMix64 finalization, so `fork(a)` and `fork(b)` are
    /// decorrelated for `a != b` and deterministic for equal inputs.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.inner.next_u64();
        SimRng::seed_from_u64(splitmix64(base ^ splitmix64(stream)))
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..hi)
    }

    /// Uniform index in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        // Standard downward Fisher–Yates driven by our own index() so the
        // draw sequence is under this crate's control.
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Choose one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose() on empty slice");
        &slice[self.index(slice.len())]
    }

    /// Raw 64 random bits (for mixing / hashing purposes).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// SplitMix64 finalizer; good avalanche for seed derivation.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(
            same < 4,
            "streams should be decorrelated, {same} collisions"
        );
    }

    #[test]
    fn fork_streams_are_deterministic_and_distinct() {
        let mut parent1 = SimRng::seed_from_u64(7);
        let mut parent2 = SimRng::seed_from_u64(7);
        let mut c1 = parent1.fork(5);
        let mut c2 = parent2.fork(5);
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        let mut parent = SimRng::seed_from_u64(7);
        let mut x = parent.fork(1);
        let mut parent = SimRng::seed_from_u64(7);
        let mut y = parent.fork(2);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "astronomically unlikely identity"
        );
    }

    #[test]
    fn uniform_u64_bounds() {
        let mut r = SimRng::seed_from_u64(11);
        for _ in 0..1000 {
            let x = r.uniform_u64(10, 20);
            assert!((10..20).contains(&x));
        }
    }
}
