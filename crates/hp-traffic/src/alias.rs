//! Walker's alias method for O(1) sampling from a discrete distribution.
//!
//! The traffic generator draws a destination queue for every arrival; with
//! up to 1000 queues and millions of arrivals per experiment, linear or
//! binary-search sampling would dominate simulation time. The alias table
//! gives constant-time draws after O(n) setup.

use hp_rand::Rng;

/// A preprocessed discrete distribution supporting O(1) sampling.
///
/// # Examples
///
/// ```
/// use hp_traffic::alias::AliasTable;
/// use hp_rand::SeedableRng;
///
/// let t = AliasTable::new(vec![0.5, 0.25, 0.25]).unwrap();
/// let mut rng = hp_rand::rngs::SmallRng::seed_from_u64(1);
/// let sample = t.sample(&mut rng);
/// assert!(sample < 3);
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    /// Alias category per slot, as `u32`: half the bytes of `usize` on a
    /// million-queue table (checked against the category count at build).
    alias: Vec<u32>,
}

/// Error constructing an alias table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AliasError {
    /// The weight vector was empty.
    Empty,
    /// A weight was negative, NaN, or infinite.
    BadWeight(usize),
    /// All weights were zero.
    ZeroMass,
    /// More categories than a `u32` alias index can name.
    TooManyCategories(usize),
}

impl std::fmt::Display for AliasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AliasError::Empty => write!(f, "empty weight vector"),
            AliasError::BadWeight(i) => write!(f, "weight {i} is negative or non-finite"),
            AliasError::ZeroMass => write!(f, "all weights are zero"),
            AliasError::TooManyCategories(n) => {
                write!(f, "{n} categories exceed the u32 alias index")
            }
        }
    }
}

impl std::error::Error for AliasError {}

impl AliasTable {
    /// Builds a table from non-negative `weights` (need not be normalized).
    /// The table's probability column is `weights` itself, scaled in place,
    /// so a million-category table costs no copy; its capacity is kept as
    /// given (see [`AliasTable::reserved_bytes`]).
    ///
    /// # Errors
    ///
    /// See [`AliasError`].
    pub fn new(weights: Vec<f64>) -> Result<Self, AliasError> {
        if weights.is_empty() {
            return Err(AliasError::Empty);
        }
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(AliasError::BadWeight(i));
            }
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(AliasError::ZeroMass);
        }
        let n = weights.len();
        let n32 = u32::try_from(n).map_err(|_| AliasError::TooManyCategories(n))?;
        let scale = n as f64 / total;
        let mut prob = weights;
        for p in &mut prob {
            *p *= scale;
        }
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in (0..n32).zip(&prob) {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            let (si, li) = (s as usize, l as usize);
            alias[si] = l;
            prob[li] = (prob[li] + prob[si]) - 1.0;
            if prob[li] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers: pin to 1.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        Ok(AliasTable { prob, alias })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one category index.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let n = self.prob.len();
        let i = rng.random_range(0..n);
        if rng.random::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Host bytes the table reserves (capacity × element size), for the
    /// per-queue memory accounting of million-category tables.
    pub fn reserved_bytes(&self) -> usize {
        self.prob.capacity() * std::mem::size_of::<f64>()
            + self.alias.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_rand::rngs::SmallRng;
    use hp_rand::SeedableRng;

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(AliasTable::new(vec![]), Err(AliasError::Empty)));
        assert!(matches!(
            AliasTable::new(vec![1.0, -0.5]),
            Err(AliasError::BadWeight(1))
        ));
        assert!(matches!(
            AliasTable::new(vec![0.0, 0.0]),
            Err(AliasError::ZeroMass)
        ));
        assert!(matches!(
            AliasTable::new(vec![f64::NAN]),
            Err(AliasError::BadWeight(0))
        ));
    }

    #[test]
    fn empirical_frequencies_match_weights() {
        let weights = [4.0, 1.0, 3.0, 2.0];
        let t = AliasTable::new(weights.to_vec()).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 1_000_000;
        let mut counts = [0u64; 4];
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / total;
            let got = counts[i] as f64 / n as f64;
            assert!((got - expect).abs() < 0.005, "cat {i}: {got} vs {expect}");
        }
    }

    #[test]
    fn sample_sequence_is_pinned() {
        // Captured from the `usize`-indexed table this one replaced: the
        // `u32` alias column must draw exactly the same categories.
        let t = AliasTable::new(vec![4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 0.5, 2.5]).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let drawn: Vec<usize> = (0..32).map(|_| t.sample(&mut rng)).collect();
        assert_eq!(
            drawn,
            [
                0, 5, 5, 5, 7, 0, 5, 3, 1, 0, 5, 7, 6, 0, 3, 6, 5, 2, 2, 7, 5, 0, 0, 2, 2, 0, 0, 5,
                1, 5, 0, 0
            ]
        );
        assert_eq!(t.alias, [0, 0, 0, 0, 5, 2, 7, 5]);
    }

    #[test]
    fn degenerate_single_category() {
        let t = AliasTable::new(vec![7.0]).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn zero_weight_categories_never_sampled() {
        let t = AliasTable::new(vec![1.0, 0.0, 1.0]).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }
}
