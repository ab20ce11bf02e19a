//! # hp-rand — self-contained deterministic random numbers
//!
//! A dependency-free replacement for the subset of the `rand` crate API the
//! HyperPlane workspace uses. The repository must build in hermetic,
//! offline environments (no crates.io access), and reproducibility is a
//! first-class requirement of the simulator — so the generator is pinned
//! here, bit-for-bit, forever, rather than floating with an external
//! crate's algorithm choices.
//!
//! The core generator is **xoshiro256++** (Blackman & Vigna), seeded by
//! expanding a `u64` through SplitMix64 — the same construction `rand`'s
//! `SmallRng` family uses on 64-bit targets. It is not cryptographically
//! secure; it is fast, equidistributed, and deterministic, which is what a
//! discrete-event simulator needs.
//!
//! ## Example
//!
//! ```
//! use hp_rand::{Rng, SeedableRng};
//! use hp_rand::rngs::SmallRng;
//!
//! let mut a = SmallRng::seed_from_u64(7);
//! let mut b = SmallRng::seed_from_u64(7);
//! assert_eq!(a.random::<u64>(), b.random::<u64>()); // same seed, same stream
//! let x: f64 = a.random();
//! assert!((0.0..1.0).contains(&x));
//! let i = a.random_range(0..10usize);
//! assert!(i < 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be sampled uniformly from an [`RngCore`].
///
/// Mirrors `rand`'s `StandardUniform` distribution for the primitive types
/// the workspace draws: integers over their full range, `f64` over
/// `[0, 1)`, and `bool` with probability 1/2.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with the standard 53-bit mantissa construction.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types that support uniform range sampling.
pub trait SampleUniform: Copy + PartialOrd {
    /// Draws uniformly from `[lo, hi)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Unbiased bounded sampling via Lemire-style rejection on the widening
/// multiply. `span` must be nonzero.
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection zone keeps the multiply-shift map exactly uniform.
    let zone = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        if (m as u64) >= zone || zone == 0 {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "cannot sample from empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add(bounded_u64(rng, span) as $t)
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize);

/// The user-facing sampling interface, blanket-implemented for every
/// [`RngCore`] so `&mut impl Rng` bounds work exactly as with `rand`.
pub trait Rng: RngCore {
    /// Draws a value of type `T` from its standard distribution.
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from the half-open `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T: SampleUniform>(&mut self, range: core::ops::Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Weyl increment used by SplitMix64 (the golden-ratio constant).
const SPLITMIX_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 output finalizer applied to a raw Weyl-sequence state word.
/// Exposed so key-derivation chains (stream seeds, per-decision hashes)
/// share the exact mixing function the generators use.
#[inline]
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 as a u64 → u64 hash: one Weyl step plus the finalizer.
/// Re-exported as `hp_sim::rng::splitmix64`.
#[inline]
pub fn splitmix64_hash(x: u64) -> u64 {
    splitmix64_mix(x.wrapping_add(SPLITMIX_GOLDEN))
}

/// SplitMix64 step: advances `*state` and returns a well-mixed output.
/// Used for seed expansion (its intended role in the xoshiro papers).
fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GOLDEN);
    splitmix64_mix(*state)
}

/// Concrete generator types.
pub mod rngs {
    use super::{
        splitmix64_hash, splitmix64_mix, splitmix64_next, RngCore, SeedableRng, SPLITMIX_GOLDEN,
    };

    /// Counter-based splittable generator: SplitMix64 with O(1) random
    /// access.
    ///
    /// The n-th output is a **pure function of `(key, n)`** — the state is
    /// just a counter, so a consumer can jump to any position, skip a
    /// foreign range of draws in O(1), or evaluate a single indexed draw
    /// without owning a stream at all. That is exactly what a partitioned
    /// simulator needs: each lane draws only the items it owns, yet every
    /// lane agrees bit-for-bit on what the n-th draw *would be*.
    ///
    /// Keys derive from a `(seed, stream, index)` triple through the same
    /// chained SplitMix64 finalizers the workspace's `RngFactory` uses, so
    /// distinct streams are decorrelated by construction. The output
    /// sequence for a given key is the canonical SplitMix64 sequence
    /// (Weyl increment + finalizer), which passes BigCrush.
    ///
    /// ```
    /// use hp_rand::rngs::CounterRng;
    /// use hp_rand::RngCore;
    ///
    /// let mut a = CounterRng::keyed(7, 1, 0);
    /// let _ = a.next_u64(); // draw #0
    /// let b = CounterRng::keyed(7, 1, 0);
    /// assert_eq!(a.next_u64(), b.at(1)); // random access == sequential
    /// ```
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CounterRng {
        key: u64,
        ctr: u64,
    }

    impl CounterRng {
        /// Builds a generator directly from a raw key, positioned at
        /// draw 0. Any key is valid (there is no forbidden state).
        pub fn from_key(key: u64) -> Self {
            CounterRng { key, ctr: 0 }
        }

        /// Derives a decorrelated generator for the `(seed, stream,
        /// index)` triple: `stream` names the purpose (arrivals, service,
        /// …) and `index` the sub-stream (a sharing group, an item id).
        /// Both levels pass through independent SplitMix64 finalizer
        /// chains, mirroring the `RngFactory::stream_seed` construction.
        pub fn keyed(seed: u64, stream: u64, index: u64) -> Self {
            let scoped =
                splitmix64_mix(seed ^ splitmix64_hash(stream.wrapping_add(SPLITMIX_GOLDEN)));
            CounterRng {
                key: scoped,
                ctr: 0,
            }
            .split(index)
        }

        /// Derives a decorrelated child stream for `index`, leaving this
        /// generator untouched. Children of distinct indices are mutually
        /// decorrelated and decorrelated from the parent — the splittable
        /// half of the splittable-counter design (per-item sub-streams
        /// whose draw counts need not be fixed).
        pub fn split(&self, index: u64) -> Self {
            let key =
                splitmix64_mix(self.key ^ splitmix64_hash(index.wrapping_add(SPLITMIX_GOLDEN)));
            CounterRng { key, ctr: 0 }
        }

        /// The `n`-th draw of this stream (0-based), without touching the
        /// cursor — O(1) random access.
        #[inline]
        pub fn at(&self, n: u64) -> u64 {
            splitmix64_mix(
                self.key
                    .wrapping_add(n.wrapping_add(1).wrapping_mul(SPLITMIX_GOLDEN)),
            )
        }
    }

    impl RngCore for CounterRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let out = self.at(self.ctr);
            self.ctr += 1;
            out
        }
    }

    /// xoshiro256++ — the workspace's small, fast, deterministic PRNG.
    ///
    /// 256 bits of state, period 2^256 − 1, passes BigCrush. The name
    /// mirrors `hp_rand::rngs::SmallRng` so call sites read identically.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Expand through SplitMix64 as the xoshiro authors prescribe;
            // guarantees a nonzero state for every seed.
            let mut sm = seed;
            let s = [
                splitmix64_next(&mut sm),
                splitmix64_next(&mut sm),
                splitmix64_next(&mut sm),
                splitmix64_next(&mut sm),
            ];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
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
    use super::rngs::{CounterRng, SmallRng};
    use super::*;

    #[test]
    fn counter_rng_random_access_matches_sequential() {
        let mut seq = CounterRng::keyed(0x5EED, 9, 3);
        let raw = CounterRng::keyed(0x5EED, 9, 3);
        for n in 0..1000u64 {
            assert_eq!(seq.next_u64(), raw.at(n), "draw {n}");
        }
    }

    #[test]
    fn counter_rng_matches_canonical_splitmix64_sequence() {
        // The keyed stream must be *the* SplitMix64 sequence for its key,
        // not a lookalike: pin it against the seed-expansion stepper.
        let key = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut state = key;
        let rng = CounterRng::from_key(key);
        for n in 0..64u64 {
            assert_eq!(rng.at(n), splitmix64_next(&mut state), "draw {n}");
        }
    }

    #[test]
    fn counter_rng_distinct_streams_and_indices_diverge() {
        let a = CounterRng::keyed(7, 1, 0);
        let b = CounterRng::keyed(7, 2, 0);
        let c = CounterRng::keyed(7, 1, 1);
        let ab = (0..64).filter(|&n| a.at(n) == b.at(n)).count();
        let ac = (0..64).filter(|&n| a.at(n) == c.at(n)).count();
        assert_eq!(ab + ac, 0);
    }

    #[test]
    fn counter_rng_uniformity_chi_square() {
        // 256-bin chi-square on the top byte, per stream and across a
        // pair of sibling streams interleaved (cross-correlation smoke).
        let n = 131_072u64;
        for (label, draws) in [
            (
                "single",
                (0..n)
                    .map(|k| CounterRng::keyed(3, 5, 0).at(k))
                    .collect::<Vec<_>>(),
            ),
            (
                "interleaved siblings",
                (0..n)
                    .map(|k| CounterRng::keyed(3, 5, k % 4).at(k / 4))
                    .collect::<Vec<_>>(),
            ),
        ] {
            let mut bins = [0u64; 256];
            for d in &draws {
                bins[(d >> 56) as usize] += 1;
            }
            let expect = n as f64 / 256.0;
            let chi2: f64 = bins
                .iter()
                .map(|&c| (c as f64 - expect).powi(2) / expect)
                .sum();
            // 255 dof: mean 255, sd ~22.6; 340 is ~ +3.8 sd.
            assert!(chi2 < 340.0, "{label}: chi2 {chi2}");
        }
    }

    #[test]
    fn counter_rng_f64_mean_and_bit_balance() {
        let mut rng = CounterRng::keyed(11, 0, 0);
        let n = 100_000;
        let mut sum = 0.0;
        let mut ones = 0u64;
        for i in 0..n {
            ones += rng.at(i).count_ones() as u64;
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let bit_frac = ones as f64 / (n as f64 * 64.0);
        assert!((bit_frac - 0.5).abs() < 0.005, "bit fraction {bit_frac}");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval_with_uniform_mean() {
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_sampling_is_in_bounds_and_covers() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let i = rng.random_range(0..10usize);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b), "all bins hit: {seen:?}");
        for _ in 0..1000 {
            let v = rng.random_range(100..200u64);
            assert!((100..200).contains(&v));
        }
    }

    #[test]
    fn range_sampling_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.random_range(0..8usize)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = n as f64 / 8.0;
            assert!(
                (c as f64 - expect).abs() < expect * 0.05,
                "bin {i}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn bool_with_probability() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((hits as f64 / 100_000.0 - 0.25).abs() < 0.01, "{hits}");
        let mut rng = SmallRng::seed_from_u64(4);
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
        let mut rng = SmallRng::seed_from_u64(4);
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = rng.random_range(5..5u32);
    }

    #[test]
    fn u8_samples_cover_high_bits() {
        // Regression guard: narrow samples must use the mixed high bits,
        // not the raw low byte of state.
        let mut rng = SmallRng::seed_from_u64(77);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            seen.insert(rng.random::<u8>());
        }
        assert!(seen.len() > 200, "u8 coverage {}", seen.len());
    }
}
