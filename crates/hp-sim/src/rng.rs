//! Deterministic random-number streams and the distributions the workload
//! models draw from.
//!
//! Reproducibility is a first-class requirement: every experiment derives all
//! of its randomness from a single root seed through [`RngFactory`], which
//! hands out independent streams keyed by a stable `u64` id (one per core,
//! per traffic source, etc.). Re-running with the same seed reproduces every
//! event in the simulation bit-for-bit.

use hp_rand::rngs::SmallRng;
use hp_rand::{Rng, SeedableRng};

/// Derives independent, deterministic RNG streams from a root seed.
///
/// # Examples
///
/// ```
/// use hp_sim::rng::RngFactory;
/// use hp_rand::Rng;
///
/// let f = RngFactory::new(42);
/// let mut a = f.stream(0);
/// let mut b = f.stream(0);
/// assert_eq!(a.random::<u64>(), b.random::<u64>()); // same id => same stream
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RngFactory {
    root_seed: u64,
}

impl RngFactory {
    /// Creates a factory rooted at `root_seed`.
    pub fn new(root_seed: u64) -> Self {
        RngFactory { root_seed }
    }

    /// Returns the deterministic stream for `stream_id`.
    ///
    /// Streams with distinct ids are decorrelated by passing the
    /// `(root_seed, stream_id)` pair through a SplitMix64 finalizer before
    /// seeding.
    pub fn stream(&self, stream_id: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.stream_seed(stream_id))
    }

    /// The derived `u64` seed behind [`stream`](Self::stream), for
    /// consumers that hash per-decision keys against a stream-scoped seed
    /// instead of drawing sequentially (e.g.
    /// [`crate::faults::FaultInjector`]).
    pub fn stream_seed(&self, stream_id: u64) -> u64 {
        splitmix64(self.root_seed ^ splitmix64(stream_id.wrapping_add(0x9E37_79B9_7F4A_7C15)))
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed u64 -> u64 hash.
pub use hp_rand::splitmix64_hash as splitmix64;

/// Samples an exponential random variable with the given `mean`.
///
/// Used for Poisson inter-arrival times (the paper's arrivals are Poisson)
/// and for exponentially distributed service times.
///
/// # Panics
///
/// Panics if `mean` is not strictly positive and finite.
pub fn sample_exp(rng: &mut impl Rng, mean: f64) -> f64 {
    assert!(
        mean.is_finite() && mean > 0.0,
        "exponential mean must be positive, got {mean}"
    );
    // Inverse CDF; guard the open interval so ln(0) cannot occur.
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    -mean * u.ln()
}

/// A service/inter-arrival time distribution with a configurable shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Always exactly `mean`.
    Constant,
    /// Exponential with the given mean (CV = 1).
    Exponential,
    /// Two-point hyperexponential calibrated to coefficient of variation
    /// `cv` (> 1): a fraction of samples are drawn from a "long" branch.
    /// Captures heavy-tailed service times that cause head-of-line blocking.
    HyperExp {
        /// Coefficient of variation; must be > 1.
        cv: f64,
    },
}

impl Distribution {
    /// Draws one sample with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive, or if a `HyperExp` shape
    /// was constructed with `cv <= 1`.
    pub fn sample(&self, rng: &mut impl Rng, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "mean must be positive, got {mean}"
        );
        match *self {
            Distribution::Constant => mean,
            Distribution::Exponential => sample_exp(rng, mean),
            Distribution::HyperExp { cv } => {
                assert!(cv > 1.0, "HyperExp requires cv > 1, got {cv}");
                // Balanced-means two-branch hyperexponential:
                // with prob p use mean m1, else mean m2, chosen so that the
                // overall mean is `mean` and the squared CV is cv^2.
                let c2 = cv * cv;
                let p = 0.5 * (1.0 + ((c2 - 1.0) / (c2 + 1.0)).sqrt());
                let m1 = mean / (2.0 * p);
                let m2 = mean / (2.0 * (1.0 - p));
                if rng.random::<f64>() < p {
                    sample_exp(rng, m1)
                } else {
                    sample_exp(rng, m2)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_is_deterministic() {
        let f = RngFactory::new(7);
        let mut a = f.stream(3);
        let mut b = f.stream(3);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn distinct_streams_differ() {
        let f = RngFactory::new(7);
        let mut a = f.stream(1);
        let mut b = f.stream(2);
        let same = (0..64)
            .filter(|_| a.random::<u64>() == b.random::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn exp_mean_converges() {
        let f = RngFactory::new(123);
        let mut rng = f.stream(0);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| sample_exp(&mut rng, 5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn hyperexp_matches_target_cv() {
        let f = RngFactory::new(99);
        let mut rng = f.stream(0);
        let d = Distribution::HyperExp { cv: 4.0 };
        let n = 400_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 2.0).abs() < 0.05, "mean was {mean}");
        assert!((cv - 4.0).abs() < 0.3, "cv was {cv}");
    }

    #[test]
    fn constant_distribution_is_exact() {
        let f = RngFactory::new(1);
        let mut rng = f.stream(0);
        assert_eq!(Distribution::Constant.sample(&mut rng, 3.25), 3.25);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn exp_rejects_nonpositive_mean() {
        let f = RngFactory::new(1);
        let mut rng = f.stream(0);
        let _ = sample_exp(&mut rng, 0.0);
    }

    #[test]
    fn splitmix_distributes_bits() {
        // Adjacent inputs should produce wildly different outputs.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 10);
    }
}
