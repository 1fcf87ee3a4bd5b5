//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the narrow slice of `rand` it actually uses: [`rngs::SmallRng`]
//! (implemented as xoshiro256++, the same algorithm rand 0.8 uses on
//! 64-bit targets, seeded through the same SplitMix64 expansion) and the
//! [`Rng`]/[`RngCore`]/[`SeedableRng`] traits with `gen`, `gen_range` and
//! `next_u64`. Draws are uniform and deterministic per seed; the exact
//! bit-stream matches the upstream algorithm family, which is all the
//! simulation relies on (its own determinism tests compare runs against
//! runs, never against hard-coded upstream values).

/// Core low-level generator interface (subset of `rand_core::RngCore`).
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// Seedable construction (subset of `rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (SplitMix64-expanded).
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that can be sampled uniformly from their full value domain
/// (stand-in for sampling with the `Standard` distribution).
pub trait StandardSample {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 effective mantissa bits, uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Integer types usable with [`Rng::gen_range`] over half-open ranges.
pub trait SampleUniform: Copy {
    /// Uniform draw in `[lo, hi)`; panics when the range is empty.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Unbiased bounded draw in `[0, span)` via Lemire's widening-multiply
/// rejection method.
#[inline]
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        let low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            if low < threshold {
                continue;
            }
        }
        return (m >> 64) as u64;
    }
}

macro_rules! impl_sample_uniform {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            #[inline]
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range called with empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add(bounded_u64(rng, span) as $ty)
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize);

impl SampleUniform for i64 {
    #[inline]
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range called with empty range");
        let span = (hi as u64).wrapping_sub(lo as u64);
        lo.wrapping_add(bounded_u64(rng, span) as i64)
    }
}

/// High-level convenience methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Sample a value uniformly from the type's full domain.
    #[inline]
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform draw from a half-open range.
    #[inline]
    fn gen_range<T: SampleUniform>(&mut self, range: core::ops::Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range.start, range.end)
    }

    /// Bernoulli trial.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators (subset of `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic PRNG: xoshiro256++, the algorithm
    /// `rand 0.8`'s `SmallRng` resolves to on 64-bit platforms.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(&mut state);
            }
            // xoshiro forbids the all-zero state; SplitMix64 cannot emit
            // four zero words in a row, but guard anyway.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(99);
        let mut b = SmallRng::seed_from_u64(99);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.gen_range(0usize..10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let x = r.gen_range(50u64..60);
            assert!((50..60).contains(&x));
        }
    }

    #[test]
    fn mean_of_units_is_centered() {
        let mut r = SmallRng::seed_from_u64(5);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
