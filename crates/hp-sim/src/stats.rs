//! Statistics collection: latency histograms, running moments, and
//! time-weighted averages.
//!
//! The workhorse is [`Histogram`], an HDR-style log-linear histogram over
//! `u64` samples (cycles, typically). It offers bounded relative error
//! (controlled by the sub-bucket resolution), O(1) recording, and exact
//! count/total bookkeeping, which is what the latency-percentile and CDF
//! figures in the paper need (Figs. 3b/3c/9/10/12b).

/// Number of linear sub-buckets per power-of-two bucket (2^6 = 64 gives
/// ~1.6 % worst-case relative error — ample for percentile plots).
const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// An HDR-style log-linear histogram of `u64` samples.
///
/// # Examples
///
/// ```
/// use hp_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(50.0).unwrap();
/// assert!((490..=520).contains(&p50), "p50 was {p50}");
/// assert_eq!(Histogram::new().percentile(50.0), None);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    total: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index_of(value: u64) -> usize {
        // Values below SUB_BUCKETS map linearly (exact); above, log-linear:
        // each power-of-two range [2^m, 2^(m+1)) splits into 32 sub-buckets
        // of width 2^(m-5), bounding relative error by 1/32.
        if value < SUB_BUCKETS {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros() as u64; // >= 6
            let k = msb - (SUB_BUCKET_BITS as u64 - 1); // bucket group, >= 1
            let half = SUB_BUCKETS / 2;
            let sub = (value >> k) - half; // in [0, 32)
            (SUB_BUCKETS + (k - 1) * half + sub) as usize
        }
    }

    /// Records a single sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::index_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.count += n;
        self.total += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of recorded samples (0.0 when empty; prefer
    /// [`Histogram::try_mean`] when "no samples" must be distinguishable
    /// from "mean of zero").
    pub fn mean(&self) -> f64 {
        self.try_mean().unwrap_or(0.0)
    }

    /// Arithmetic mean, or `None` when no samples have been recorded.
    pub fn try_mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.total as f64 / self.count as f64)
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at or below which `p` percent of samples fall, or `None`
    /// for an empty histogram (a zero-sample run has no percentiles — a
    /// `0` here would be indistinguishable from a genuine zero-cycle
    /// latency).
    ///
    /// `p` is clamped to `[0, 100]`. The returned value has the
    /// histogram's bounded relative error.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper(idx).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Upper edge of a bucket (used as the reported percentile value).
    fn bucket_upper(index: usize) -> u64 {
        let half = (SUB_BUCKETS / 2) as usize;
        if index < SUB_BUCKETS as usize {
            index as u64
        } else {
            let k = ((index - SUB_BUCKETS as usize) / half + 1) as u32;
            let sub = ((index - SUB_BUCKETS as usize) % half) as u64;
            // The top bucket's edge is 2^64, one past u64::MAX — widen to
            // u128 so samples near u64::MAX don't overflow the shift.
            let edge = (((half as u64 + sub + 1) as u128) << k) - 1;
            edge.min(u64::MAX as u128) as u64
        }
    }

    /// The empirical CDF sampled at each non-empty bucket: `(value,
    /// cumulative_fraction)` pairs, suitable for plotting Fig. 3(c).
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.count == 0 {
            return out;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            out.push((
                Self::bucket_upper(idx).min(self.max),
                seen as f64 / self.count as f64,
            ));
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.count += other.count;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Welford online mean accumulator for `f64` samples.
///
/// # Examples
///
/// ```
/// use hp_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    /// Welford's running sum of squared deviations. Nothing reads it
    /// since the variance accessors went, but dropping it shrinks every
    /// per-queue map entry by 8 B, and that shift in heap layout alone
    /// raises the `par-fb64-4lane` benchmark's peak RSS by ~12 % (glibc
    /// malloc, 2-vCPU x86-64 host). See ROADMAP.md, "Peak RSS
    /// independent of heap layout".
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(63);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(100.0), Some(63));
    }

    #[test]
    fn histogram_bounded_relative_error() {
        let mut h = Histogram::new();
        let vals: Vec<u64> = (0..10_000).map(|i| 100 + i * 37).collect();
        for &v in &vals {
            h.record(v);
        }
        for p in [10.0, 50.0, 90.0, 99.0, 99.9] {
            let approx = h.percentile(p).unwrap() as f64;
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
            let exact = sorted[rank] as f64;
            let rel = (approx - exact).abs() / exact;
            assert!(rel < 0.04, "p{p}: approx {approx} exact {exact} rel {rel}");
        }
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn histogram_cdf_monotone_and_complete() {
        let mut h = Histogram::new();
        for v in 1..=500u64 {
            h.record(v * 11);
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut prev = 0.0;
        for &(_, f) in &cdf {
            assert!(f >= prev);
            prev = f;
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 3);
            } else {
                b.record(v * 3);
            }
            c.record(v * 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.mean(), c.mean());
        assert_eq!(a.percentile(99.0), c.percentile(99.0));
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.try_mean(), None);
        assert_eq!(h.percentile(99.0), None);
        assert!(h.cdf().is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_sample_histogram_reports_that_sample() {
        let mut h = Histogram::new();
        h.record(777);
        assert_eq!(h.count(), 1);
        assert_eq!(h.try_mean(), Some(777.0));
        // Every percentile of a one-sample distribution is that sample
        // (up to bucket resolution, and clamped to [min, max]).
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(777), "p{p}");
        }
        assert_eq!(h.cdf(), vec![(777, 1.0)]);
    }

    #[test]
    fn saturating_value_histogram_does_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        // total is u128, so the mean stays exact-ish even at u64::MAX.
        let expect = (2.0 * u64::MAX as f64) / 3.0;
        assert!((h.mean() - expect).abs() / expect < 1e-12);
        // p100 must clamp to the recorded max, not a bucket edge past it.
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
    }

    #[test]
    fn merge_with_disjoint_ranges() {
        let mut lo = Histogram::new();
        let mut hi = Histogram::new();
        for v in 1..=100u64 {
            lo.record(v);
            hi.record(v + 1_000_000);
        }
        lo.merge(&hi);
        assert_eq!(lo.count(), 200);
        assert_eq!(lo.min(), 1);
        assert_eq!(lo.max(), 1_000_100);
        // The median sits at the top of the low cluster.
        let p50 = lo.percentile(50.0).unwrap();
        assert!(p50 <= 101, "p50 was {p50}");
        let p75 = lo.percentile(75.0).unwrap();
        assert!(p75 >= 1_000_000, "p75 was {p75}");

        // Merging an empty histogram is a no-op.
        let before = lo.count();
        lo.merge(&Histogram::new());
        assert_eq!(lo.count(), before);

        // Merging *into* an empty histogram adopts the other's min/max.
        let mut empty = Histogram::new();
        empty.merge(&hi);
        assert_eq!(empty.min(), 1_000_001);
        assert_eq!(empty.max(), 1_000_100);
    }

    #[test]
    fn online_stats_single_sample() {
        let mut s = OnlineStats::new();
        s.record(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.count(), 1);
    }
}
