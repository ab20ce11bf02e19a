//! The ready set: ready/mask bit vectors plus a Programmable Priority
//! Arbiter (PPA) implementing the service policies (§IV-B of the paper).
//!
//! The paper gives two PPA designs that select the same QID on every
//! input and differ only in gate depth and area:
//!
//! * [`PpaKind::Ripple`] — the bit-slice ripple-priority design of the
//!   paper's Fig. 7: linear gate depth, with the wrap-around handled by
//!   scanning circularly.
//! * [`PpaKind::BrentKung`] — the modern design the paper actually builds:
//!   thermometer coding of the priority vector plus a Brent–Kung
//!   parallel-prefix network (logarithmic gate depth), eliminating the
//!   combinational loop.
//!
//! [`PpaKind`] is therefore a cost model only ([`PpaKind::gate_levels`],
//! [`PpaKind::banked_gate_levels`], [`crate::cost::estimate`]): the test suite
//! checks the two gate-level select models agree exhaustively and by
//! randomized search, and the simulated [`ReadySet::select`] computes
//! their shared function — a circular first-fit — directly over packed
//! 64-bit ready/mask words.
//!
//! # Million-queue scale-out (DESIGN.md §17)
//!
//! The packed words are capped by a pyramid of *summary words*: bit `w` of
//! summary level 0 is the OR of live word `w` (`ready & mask`), and each
//! higher level ORs 64 words of the level below, until a single root word
//! remains. Selection descends the pyramid with one `trailing_zeros` per
//! level — O(log64 N) instead of the O(N/64) word scan — and activations /
//! grants / mask flips maintain the pyramid incrementally (they touch it
//! only when a word transitions between zero and nonzero). At ≤ 64 leaf
//! words (≤ 4096 QIDs — the paper's 1024-QID Table I point is 16 words)
//! the pyramid is a single root word and the hierarchical select visits
//! exactly the words the flat scan would, returning the identical index
//! for every (ready, mask, position) input; the flat scan itself stays
//! available as [`ReadySet::flat_first_fit`], the behavioural oracle the
//! property suite pins the hierarchy against.

use hp_queues::sim::QueueId;

/// `ceil(log2(n))` for the arbiter-depth formulas; 0 for `n <= 1`.
#[inline]
fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        (n - 1).ilog2() + 1
    }
}

/// A PPA hardware design, for gate-depth and area estimates (every
/// design selects the same QID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PpaKind {
    /// Linear ripple-priority chain (Fig. 7).
    Ripple,
    /// Thermometer-coded Brent–Kung parallel-prefix network.
    #[default]
    BrentKung,
}

impl PpaKind {
    /// Estimated gate levels on the critical path for an `n`-bit arbiter.
    ///
    /// Ripple priority propagates through every bit slice (≈2 gates per
    /// slice, doubled by the wrap-around unroll); Brent–Kung needs an
    /// up-sweep and a down-sweep of `ceil(log2 n)` levels each plus the
    /// thermometer mask and grant AND. Non-power-of-two arbiters pad to
    /// the next power of two, so the depth uses the *ceiling* log — an
    /// exact match for the measured network depth at every `n` (see the
    /// exhaustive small-`n` test), including `n == 1` (no combine levels,
    /// mask and grant stages only).
    pub fn gate_levels(self, n: usize) -> u32 {
        match self {
            PpaKind::Ripple => (2 * n.max(1) * 2) as u32,
            PpaKind::BrentKung => 2 * ceil_log2(n.max(1)) + 3,
        }
    }

    /// Critical path of a *banked* PPA: `bank`-wide arbiters arranged in
    /// a tree — one per leaf word, then one per summary word of each
    /// level, mirroring the hierarchical ready set — with the stage count
    /// `ceil(log_bank(n))`. Each stage pays one `bank`-wide arbiter.
    ///
    /// Degenerates to [`Self::gate_levels`] when `n <= bank` (one stage,
    /// arbiter sized to the actual width), so the Table I point is
    /// unchanged; at a million QIDs a 64-wide banked Brent–Kung PPA pays
    /// `ceil(log64 2^20) = 4` stages of 15 levels instead of one 43-level
    /// monolith with million-bit wiring.
    ///
    /// # Panics
    ///
    /// Panics if `bank < 2` (a 1-wide arbiter tree never terminates).
    pub fn banked_gate_levels(self, n: usize, bank: usize) -> u32 {
        assert!(bank >= 2, "banked PPA needs banks at least 2 wide");
        let n = n.max(1);
        if n <= bank {
            return self.gate_levels(n);
        }
        let mut stages = 1u32;
        let mut span = bank;
        while span < n {
            span = span.saturating_mul(bank);
            stages += 1;
        }
        stages * self.gate_levels(bank)
    }
}

/// Ripple-priority circular scan: first set bit of `req` at or after
/// `priority_pos`, wrapping. Gate-level model, kept as the oracle the
/// packed-bitmap [`ReadySet::select`] is tested against.
#[cfg(test)]
fn ripple_select(req: &[bool], priority_pos: usize) -> Option<usize> {
    let n = req.len();
    (0..n).map(|i| (priority_pos + i) % n).find(|&idx| req[idx])
}

/// Exclusive prefix-OR via the Brent–Kung (Blelloch) network. Returns the
/// exclusive scan and the number of combine levels used.
#[cfg(test)]
fn brent_kung_exclusive_prefix_or(x: &[bool]) -> (Vec<bool>, u32) {
    let n = x.len().next_power_of_two().max(1);
    let mut a = vec![false; n];
    a[..x.len()].copy_from_slice(x);
    let mut levels = 0u32;
    // Up-sweep (reduce).
    let mut d = 1;
    while d < n {
        let mut i = 2 * d - 1;
        while i < n {
            a[i] |= a[i - d];
            i += 2 * d;
        }
        levels += 1;
        d *= 2;
    }
    // Down-sweep (exclusive scan with OR identity = false).
    a[n - 1] = false;
    let mut d = n / 2;
    while d >= 1 {
        let mut i = 2 * d - 1;
        while i < n {
            let t = a[i - d];
            a[i - d] = a[i];
            a[i] |= t;
            i += 2 * d;
        }
        levels += 1;
        d /= 2;
    }
    a.truncate(x.len());
    (a, levels)
}

/// Brent–Kung select: thermometer-mask the requests at/after the priority
/// position, isolate the lowest set bit with a prefix-OR network, and fall
/// back to the unmasked vector for wrap-around.
#[cfg(test)]
fn brent_kung_select(req: &[bool], priority_pos: usize) -> Option<usize> {
    let n = req.len();
    if n == 0 {
        return None;
    }
    // Thermometer code of the one-hot priority vector: t[i] = i >= pos.
    let masked: Vec<bool> = (0..n).map(|i| req[i] && i >= priority_pos).collect();
    let pick = |bits: &[bool]| -> Option<usize> {
        let (prefix, _levels) = brent_kung_exclusive_prefix_or(bits);
        (0..bits.len()).find(|&i| bits[i] && !prefix[i])
    };
    pick(&masked).or_else(|| pick(req))
}

/// Service policies supported by the ready set (§IV-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServicePolicy {
    /// Each grant rotates priority past the granted QID.
    RoundRobin,
    /// Each QID may be granted up to its weight consecutively.
    WeightedRoundRobin {
        /// Per-QID weights (must match the ready-set size; weight 0 is
        /// treated as 1).
        weights: Vec<u32>,
    },
    /// Lower-numbered QIDs always win (starvation-prone; provided for
    /// completeness as in the paper).
    StrictPriority,
}

/// Lifetime statistics of the ready set.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReadySetStats {
    /// Successful selections.
    pub grants: u64,
    /// Selections that found no ready QID.
    pub empty_polls: u64,
    /// Activations (ready-bit sets).
    pub activations: u64,
}

/// The ready set: tracks ready QIDs and arbitrates the next one to serve.
///
/// # Examples
///
/// ```
/// use hp_core::ready_set::{ReadySet, ServicePolicy};
/// use hp_queues::sim::QueueId;
///
/// let mut rs = ReadySet::new(8, ServicePolicy::RoundRobin);
/// rs.activate(QueueId(5));
/// rs.activate(QueueId(2));
/// assert_eq!(rs.select(), Some(QueueId(2)));
/// assert_eq!(rs.select(), Some(QueueId(5)));
/// assert_eq!(rs.select(), None);
/// ```
#[derive(Debug)]
pub struct ReadySet {
    n: usize,
    /// Ready bits, packed 64 per word (bit `i%64` of word `i/64`).
    /// Bits at indices `>= n` are never set, so word scans cannot grant
    /// an out-of-range QID.
    ready: Vec<u64>,
    /// Enable-mask bits, packed the same way (tail bits stay zero).
    mask: Vec<u64>,
    /// Summary pyramid over the live words (`ready & mask`): bit `w` of
    /// `summaries[0]` is set iff live word `w` is nonzero; bit `i` of
    /// `summaries[l]` iff word `i` of `summaries[l-1]` is nonzero. Built
    /// until one root word remains; empty when there is a single leaf
    /// word (the word is its own summary).
    summaries: Vec<Vec<u64>>,
    /// Population count of the live words, maintained incrementally so
    /// [`Self::ready_count`] is O(1) at any size.
    live: usize,
    policy: ServicePolicy,
    /// Next-priority position for round-robin.
    rr_next: usize,
    /// WRR state: QID currently holding priority and its remaining credit.
    wrr_qid: usize,
    wrr_credit: u32,
    stats: ReadySetStats,
}

impl ReadySet {
    /// Creates a ready set for `n` QIDs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, or if a WRR policy's weight vector length
    /// does not equal `n`.
    pub fn new(n: usize, policy: ServicePolicy) -> Self {
        assert!(n > 0, "ready set needs at least one QID");
        let mut wrr_credit = 0;
        if let ServicePolicy::WeightedRoundRobin { weights } = &policy {
            assert_eq!(weights.len(), n, "WRR weights must cover all {n} QIDs");
            // QID 0 opens holding priority with a full credit of its weight.
            wrr_credit = weights[0].max(1);
        }
        let words = n.div_ceil(64);
        let mut mask = vec![!0u64; words];
        // Clear the tail bits past `n` so word scans and popcounts never
        // see a phantom QID.
        let tail = n % 64;
        if tail != 0 {
            mask[words - 1] = (1u64 << tail) - 1;
        }
        let mut summaries = Vec::new();
        let mut len = words;
        while len > 1 {
            len = len.div_ceil(64);
            summaries.push(vec![0u64; len]);
        }
        ReadySet {
            n,
            ready: vec![0u64; words],
            mask,
            summaries,
            live: 0,
            policy,
            rr_next: 0,
            wrr_qid: 0,
            wrr_credit,
            stats: ReadySetStats::default(),
        }
    }

    /// Capacity in QIDs.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the capacity is zero (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> ReadySetStats {
        self.stats
    }

    /// Host bytes reserved for the ready and mask words, the summary
    /// pyramid, and WRR weights (capacity × element size).
    pub fn reserved_bytes(&self) -> usize {
        let words = self.ready.capacity()
            + self.mask.capacity()
            + self.summaries.iter().map(Vec::capacity).sum::<usize>();
        let weights = match &self.policy {
            ServicePolicy::WeightedRoundRobin { weights } => weights.capacity(),
            ServicePolicy::RoundRobin | ServicePolicy::StrictPriority => 0,
        };
        words * std::mem::size_of::<u64>() + weights * std::mem::size_of::<u32>()
    }

    fn check(&self, qid: QueueId) {
        assert!(
            (qid.0 as usize) < self.n,
            "{qid} out of range ({} QIDs)",
            self.n
        );
    }

    /// The live (selectable) bits of leaf word `w`.
    #[inline]
    fn live_word(&self, w: usize) -> u64 {
        self.ready[w] & self.mask[w]
    }

    /// Propagates "leaf word `idx` became nonzero" up the pyramid,
    /// stopping at the first level already aware of it.
    fn summarize_set(&mut self, mut idx: usize) {
        for level in &mut self.summaries {
            let (w, b) = (idx / 64, idx % 64);
            let word = &mut level[w];
            if *word & (1 << b) != 0 {
                return;
            }
            let was_empty = *word == 0;
            *word |= 1 << b;
            if !was_empty {
                return;
            }
            idx = w;
        }
    }

    /// Propagates "leaf word `idx` became zero" up the pyramid, stopping
    /// at the first summary word that stays nonzero.
    fn summarize_clear(&mut self, mut idx: usize) {
        for level in &mut self.summaries {
            let (w, b) = (idx / 64, idx % 64);
            let word = &mut level[w];
            *word &= !(1u64 << b);
            if *word != 0 {
                return;
            }
            idx = w;
        }
    }

    /// Sets `qid`'s ready bit (activation from the monitoring set or from
    /// `QWAIT-RECONSIDER`).
    ///
    /// # Panics
    ///
    /// Panics if `qid` is out of range.
    pub fn activate(&mut self, qid: QueueId) {
        self.check(qid);
        let (w, b) = (qid.0 as usize / 64, qid.0 as usize % 64);
        if self.ready[w] & (1 << b) == 0 {
            self.stats.activations += 1;
            let was_dead = self.live_word(w) == 0;
            self.ready[w] |= 1 << b;
            if self.mask[w] & (1 << b) != 0 {
                self.live += 1;
                if was_dead {
                    self.summarize_set(w);
                }
            }
        }
    }

    /// Whether `qid`'s ready bit is set.
    pub fn is_ready(&self, qid: QueueId) -> bool {
        self.check(qid);
        self.ready[qid.0 as usize / 64] & (1 << (qid.0 as usize % 64)) != 0
    }

    /// Number of QIDs currently ready and unmasked. O(1): the count is
    /// maintained across activations, grants, and mask flips.
    pub fn ready_count(&self) -> usize {
        self.live
    }

    /// `QWAIT-ENABLE`: allow `qid` to be selected again.
    ///
    /// # Panics
    ///
    /// Panics if `qid` is out of range.
    pub fn enable(&mut self, qid: QueueId) {
        self.check(qid);
        let (w, b) = (qid.0 as usize / 64, qid.0 as usize % 64);
        if self.mask[w] & (1 << b) == 0 {
            let was_dead = self.live_word(w) == 0;
            self.mask[w] |= 1 << b;
            if self.ready[w] & (1 << b) != 0 {
                self.live += 1;
                if was_dead {
                    self.summarize_set(w);
                }
            }
        }
    }

    /// `QWAIT-DISABLE`: temporarily inhibit `qid` (e.g. rate limiting /
    /// congestion control); its ready bit is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `qid` is out of range.
    pub fn disable(&mut self, qid: QueueId) {
        self.check(qid);
        let (w, b) = (qid.0 as usize / 64, qid.0 as usize % 64);
        if self.mask[w] & (1 << b) != 0 {
            self.mask[w] &= !(1u64 << b);
            if self.ready[w] & (1 << b) != 0 {
                self.live -= 1;
                if self.live_word(w) == 0 {
                    self.summarize_clear(w);
                }
            }
        }
    }

    /// Whether `qid` is currently enabled.
    pub fn is_enabled(&self, qid: QueueId) -> bool {
        self.check(qid);
        self.mask[qid.0 as usize / 64] & (1 << (qid.0 as usize % 64)) != 0
    }

    /// First live index at or after `pos` (no wrap): check `pos`'s own
    /// leaf word, then descend the summary pyramid to the next live word.
    fn find_from(&self, pos: usize) -> Option<usize> {
        let w0 = pos / 64;
        let v = self.live_word(w0) & (!0u64 << (pos % 64));
        if v != 0 {
            return Some(w0 * 64 + v.trailing_zeros() as usize);
        }
        let w = self.next_live_word_after(w0)?;
        Some(w * 64 + self.live_word(w).trailing_zeros() as usize)
    }

    /// Index of the first nonzero live word strictly after `w0`, found by
    /// climbing the pyramid until a summary word has a sibling bit past
    /// the current position, then descending first-fit: O(log64 N)
    /// `trailing_zeros` steps total.
    fn next_live_word_after(&self, w0: usize) -> Option<usize> {
        let mut idx = w0;
        for l in 0..self.summaries.len() {
            let (w, b) = (idx / 64, idx % 64);
            // Sibling bits strictly above `b` within this summary word.
            let v = self.summaries[l][w] & (!0u64 << b) & !(1u64 << b);
            if v != 0 {
                let mut child = w * 64 + v.trailing_zeros() as usize;
                for level in self.summaries[..l].iter().rev() {
                    child = child * 64 + level[child].trailing_zeros() as usize;
                }
                return Some(child);
            }
            idx = w;
        }
        None
    }

    /// The circular first-fit the PPA computes: first live index at or
    /// after `pos`, wrapping to `[0, pos)` — via the summary pyramid.
    fn first_fit(&self, pos: usize) -> Option<usize> {
        if let Some(idx) = self.find_from(pos) {
            return Some(idx);
        }
        if pos == 0 {
            return None;
        }
        // Wrap-around: any remaining live bit is below `pos`.
        match self.find_from(0) {
            Some(idx) if idx < pos => Some(idx),
            _ => None,
        }
    }

    /// The flat packed-word circular scan (one `trailing_zeros` per
    /// 64-QID word) — the pre-hierarchy select, kept as the behavioural
    /// oracle `first_fit`'s pyramid descent is pinned against by
    /// the property suite. At ≤ 64 leaf words the two visit the same
    /// words; beyond that only the search order differs, never the
    /// result.
    pub fn flat_first_fit(&self, pos: usize) -> Option<usize> {
        let words = self.ready.len();
        let (w0, b0) = (pos / 64, pos % 64);
        // `off == 0` keeps only bits at/after pos; `off == words` wraps
        // back into the start word for the bits below pos.
        for off in 0..=words {
            let wi = (w0 + off) % words;
            let mut v = self.ready[wi] & self.mask[wi];
            if off == 0 {
                v &= !0u64 << b0;
            } else if off == words {
                v &= (1u64 << b0).wrapping_sub(1);
            }
            if v != 0 {
                return Some(wi * 64 + v.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Arbitrates and returns the next QID per the service policy, clearing
    /// its ready bit. Returns `None` when no unmasked QID is ready (QWAIT
    /// would halt the core).
    pub fn select(&mut self) -> Option<QueueId> {
        let pos = match &self.policy {
            ServicePolicy::StrictPriority => 0,
            ServicePolicy::RoundRobin => self.rr_next,
            ServicePolicy::WeightedRoundRobin { .. } => {
                if self.wrr_credit > 0 {
                    self.wrr_qid
                } else {
                    (self.wrr_qid + 1) % self.n
                }
            }
        };
        let Some(idx) = self.first_fit(pos) else {
            self.stats.empty_polls += 1;
            return None;
        };
        let w = idx / 64;
        self.ready[w] &= !(1u64 << (idx % 64));
        self.live -= 1;
        if self.live_word(w) == 0 {
            self.summarize_clear(w);
        }
        match &self.policy {
            ServicePolicy::StrictPriority => {}
            ServicePolicy::RoundRobin => self.rr_next = (idx + 1) % self.n,
            ServicePolicy::WeightedRoundRobin { weights } => {
                if idx == self.wrr_qid && self.wrr_credit > 0 {
                    self.wrr_credit -= 1;
                } else {
                    self.wrr_qid = idx;
                    self.wrr_credit = weights[idx].max(1) - 1;
                }
            }
        }
        self.stats.grants += 1;
        Some(QueueId(idx as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_or_network_matches_naive_scan() {
        for n in [1usize, 2, 3, 7, 8, 16, 100] {
            let x: Vec<bool> = (0..n).map(|i| (i * 7919) % 3 == 0).collect();
            let (scan, levels) = brent_kung_exclusive_prefix_or(&x);
            let mut acc = false;
            for i in 0..n {
                assert_eq!(scan[i], acc, "n={n} i={i}");
                acc |= x[i];
            }
            let log = (n.next_power_of_two() as f64).log2() as u32;
            assert_eq!(levels, 2 * log, "n={n}");
        }
    }

    #[test]
    fn ripple_and_brent_kung_agree_exhaustively_small() {
        // All 2^8 request vectors x all 8 priority positions.
        for bits in 0u32..256 {
            let req: Vec<bool> = (0..8).map(|i| (bits >> i) & 1 == 1).collect();
            for pos in 0..8 {
                assert_eq!(
                    ripple_select(&req, pos),
                    brent_kung_select(&req, pos),
                    "bits={bits:#010b} pos={pos}"
                );
            }
        }
    }

    #[test]
    fn ripple_and_brent_kung_agree_randomized_large() {
        use hp_sim::rng::splitmix64;
        for trial in 0..200u64 {
            let n = 1 + (splitmix64(trial) % 1024) as usize;
            let req: Vec<bool> = (0..n)
                .map(|i| splitmix64(trial * 10_000 + i as u64).is_multiple_of(5))
                .collect();
            let pos = (splitmix64(trial + 999) % n as u64) as usize;
            assert_eq!(
                ripple_select(&req, pos),
                brent_kung_select(&req, pos),
                "n={n} pos={pos}"
            );
        }
    }

    #[test]
    fn packed_scan_matches_gate_level_oracle() {
        use hp_sim::rng::splitmix64;
        for trial in 0..200u64 {
            let n = 1 + (splitmix64(trial) % 300) as usize;
            let mut rs = ReadySet::new(n, ServicePolicy::RoundRobin);
            let req: Vec<bool> = (0..n)
                .map(|i| splitmix64(trial * 7777 + i as u64).is_multiple_of(3))
                .collect();
            for (i, &r) in req.iter().enumerate() {
                if r {
                    rs.activate(QueueId(i as u32));
                }
                // A few masked QIDs too.
                if splitmix64(trial * 31 + i as u64).is_multiple_of(7) {
                    rs.disable(QueueId(i as u32));
                }
            }
            let eff: Vec<bool> = (0..n)
                .map(|i| rs.is_ready(QueueId(i as u32)) && rs.is_enabled(QueueId(i as u32)))
                .collect();
            let pos = (splitmix64(trial + 555) % n as u64) as usize;
            assert_eq!(
                rs.flat_first_fit(pos),
                ripple_select(&eff, pos),
                "n={n} pos={pos}"
            );
            assert_eq!(
                rs.flat_first_fit(pos),
                brent_kung_select(&eff, pos),
                "n={n} pos={pos}"
            );
            assert_eq!(
                rs.first_fit(pos),
                rs.flat_first_fit(pos),
                "hier vs flat: n={n} pos={pos}"
            );
        }
    }

    /// Rebuilds the summary pyramid from scratch and compares it with the
    /// incrementally maintained one, plus the live count.
    fn assert_pyramid_consistent(rs: &ReadySet) {
        let words = rs.ready.len();
        let live: Vec<u64> = (0..words).map(|w| rs.live_word(w)).collect();
        assert_eq!(
            rs.live,
            live.iter().map(|v| v.count_ones() as usize).sum::<usize>()
        );
        let mut below: Vec<u64> = live;
        for level in &rs.summaries {
            let mut expect = vec![0u64; below.len().div_ceil(64)];
            for (i, &v) in below.iter().enumerate() {
                if v != 0 {
                    expect[i / 64] |= 1 << (i % 64);
                }
            }
            assert_eq!(level, &expect);
            below = expect;
        }
        assert!(below.len() <= 1, "pyramid must terminate at one root word");
    }

    #[test]
    fn summary_pyramid_tracks_mutation_churn() {
        use hp_sim::rng::splitmix64;
        // Sizes straddling the word and summary-level boundaries.
        for n in [1usize, 63, 64, 65, 4096, 4097, 300_000] {
            let mut rs = ReadySet::new(n, ServicePolicy::RoundRobin);
            for step in 0..600u64 {
                let r = splitmix64(n as u64 * 1_000_003 + step);
                let q = QueueId((r % n as u64) as u32);
                match (r >> 32) % 4 {
                    0 => rs.activate(q),
                    1 => rs.disable(q),
                    2 => rs.enable(q),
                    _ => {
                        let _ = rs.select();
                    }
                }
            }
            assert_pyramid_consistent(&rs);
            // Drain: every live bit must be reachable by select.
            let mut drained = 0;
            while rs.select().is_some() {
                drained += 1;
                assert!(drained <= n, "select must terminate");
            }
            assert_eq!(rs.ready_count(), 0);
            assert_pyramid_consistent(&rs);
        }
    }

    #[test]
    fn hierarchical_select_is_sublinear_in_words_touched() {
        // A million-QID set with one live bit near the end: the pyramid
        // finds it from position 0 in O(log64 N) steps. This is a
        // behavioural proxy (the structural claim is the pyramid depth).
        let n = 1 << 20;
        let mut rs = ReadySet::new(n, ServicePolicy::RoundRobin);
        assert_eq!(rs.summaries.len(), 3, "2^20 QIDs need three summary levels");
        rs.activate(QueueId((n - 2) as u32));
        assert_eq!(rs.first_fit(0), Some(n - 2));
        assert_eq!(rs.flat_first_fit(0), Some(n - 2));
        assert_eq!(rs.select(), Some(QueueId((n - 2) as u32)));
        assert_eq!(rs.select(), None);
        // Wrap-around across the root word.
        rs.activate(QueueId(3));
        assert_eq!(rs.first_fit(n - 1), Some(3));
        assert_eq!(rs.flat_first_fit(n - 1), Some(3));
    }

    #[test]
    fn ready_count_is_maintained_incrementally() {
        let mut rs = ReadySet::new(200, ServicePolicy::RoundRobin);
        rs.activate(QueueId(7));
        rs.activate(QueueId(100));
        rs.activate(QueueId(199));
        assert_eq!(rs.ready_count(), 3);
        rs.disable(QueueId(100));
        assert_eq!(rs.ready_count(), 2);
        rs.enable(QueueId(100));
        assert_eq!(rs.ready_count(), 3);
        rs.select();
        assert_eq!(rs.ready_count(), 2);
        // Re-activating an already-ready QID does not double-count.
        rs.activate(QueueId(100));
        assert_eq!(rs.ready_count(), 2);
        // Activating while masked contributes only once enabled.
        rs.disable(QueueId(50));
        rs.activate(QueueId(50));
        assert_eq!(rs.ready_count(), 2);
        rs.enable(QueueId(50));
        assert_eq!(rs.ready_count(), 3);
    }

    #[test]
    fn round_robin_is_fair() {
        let mut rs = ReadySet::new(4, ServicePolicy::RoundRobin);
        // Keep all queues always ready; grants must cycle 0,1,2,3,0,...
        let mut grants = Vec::new();
        for _ in 0..8 {
            for q in 0..4 {
                rs.activate(QueueId(q));
            }
            grants.push(rs.select().unwrap().0);
        }
        assert_eq!(grants, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn strict_priority_always_prefers_low_qid() {
        let mut rs = ReadySet::new(4, ServicePolicy::StrictPriority);
        for _ in 0..5 {
            rs.activate(QueueId(3));
            rs.activate(QueueId(1));
            assert_eq!(rs.select(), Some(QueueId(1)));
            rs.activate(QueueId(1));
        }
        // Queue 3 starves while 1 stays ready — the paper's noted hazard.
        assert!(rs.is_ready(QueueId(3)));
    }

    #[test]
    fn wrr_grants_weight_consecutive_services() {
        let mut rs = ReadySet::new(
            3,
            ServicePolicy::WeightedRoundRobin {
                weights: vec![3, 1, 1],
            },
        );
        let mut grants = Vec::new();
        for _ in 0..10 {
            for q in 0..3 {
                rs.activate(QueueId(q));
            }
            grants.push(rs.select().unwrap().0);
        }
        // Queue 0 should receive 3 of every 5 grants, in runs of 3.
        assert_eq!(grants, vec![0, 0, 0, 1, 2, 0, 0, 0, 1, 2]);
    }

    #[test]
    fn wrr_passes_priority_when_queue_goes_empty() {
        let mut rs = ReadySet::new(
            3,
            ServicePolicy::WeightedRoundRobin {
                weights: vec![10, 1, 1],
            },
        );
        rs.activate(QueueId(0));
        rs.activate(QueueId(1));
        assert_eq!(rs.select(), Some(QueueId(0)));
        // Queue 0 not re-activated (ran out of work): priority moves on
        // even though credit remains.
        assert_eq!(rs.select(), Some(QueueId(1)));
    }

    #[test]
    fn disable_masks_ready_queue() {
        let mut rs = ReadySet::new(4, ServicePolicy::RoundRobin);
        rs.activate(QueueId(2));
        rs.disable(QueueId(2));
        assert_eq!(rs.select(), None, "disabled queue must not be granted");
        assert!(rs.is_ready(QueueId(2)), "ready bit survives masking");
        rs.enable(QueueId(2));
        assert_eq!(rs.select(), Some(QueueId(2)));
    }

    #[test]
    fn empty_select_counts_and_returns_none() {
        let mut rs = ReadySet::new(2, ServicePolicy::RoundRobin);
        assert_eq!(rs.select(), None);
        assert_eq!(rs.stats().empty_polls, 1);
        assert_eq!(rs.stats().grants, 0);
    }

    #[test]
    fn gate_levels_scale_as_documented() {
        assert!(PpaKind::Ripple.gate_levels(1024) > 1000);
        let bk = PpaKind::BrentKung.gate_levels(1024);
        assert!(bk <= 25, "Brent-Kung depth for 1024 bits was {bk}");
        assert!(PpaKind::BrentKung.gate_levels(4096) > bk);
    }

    #[test]
    fn gate_levels_exact_for_all_small_n() {
        // The documented formula (up-sweep + down-sweep + mask + grant)
        // must match the *measured* combine depth of the prefix network
        // for every width, power of two or not, including n == 1.
        for n in 1..=300usize {
            let x = vec![false; n];
            let (_, measured) = brent_kung_exclusive_prefix_or(&x);
            assert_eq!(
                PpaKind::BrentKung.gate_levels(n),
                measured + 3,
                "n={n}: formula disagrees with measured network depth"
            );
            assert_eq!(measured, 2 * ceil_log2(n), "n={n}");
            assert_eq!(PpaKind::Ripple.gate_levels(n), 4 * n as u32, "n={n}");
        }
        assert_eq!(PpaKind::BrentKung.gate_levels(1), 3);
        assert_eq!(PpaKind::BrentKung.gate_levels(0), 3);
        assert_eq!(PpaKind::Ripple.gate_levels(0), 4);
    }

    #[test]
    fn banked_gate_levels_degenerate_and_scale() {
        // One bank: identical to the monolithic arbiter (Table I point).
        for n in [1usize, 7, 64, 1000, 1024] {
            assert_eq!(
                PpaKind::BrentKung.banked_gate_levels(n, 1024),
                PpaKind::BrentKung.gate_levels(n),
                "n={n}"
            );
        }
        // A million QIDs over 64-wide banks: ceil(log64 2^20) = 4 stages.
        let per_bank = PpaKind::BrentKung.gate_levels(64);
        assert_eq!(
            PpaKind::BrentKung.banked_gate_levels(1 << 20, 64),
            4 * per_bank
        );
        // Stage count grows with log, not linearly.
        assert_eq!(
            PpaKind::BrentKung.banked_gate_levels(1 << 26, 64),
            5 * per_bank
        );
        assert_eq!(PpaKind::Ripple.banked_gate_levels(4096, 64), 2 * 4 * 64);
    }

    #[test]
    #[should_panic(expected = "at least 2 wide")]
    fn banked_gate_levels_reject_degenerate_banks() {
        let _ = PpaKind::BrentKung.banked_gate_levels(64, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn activate_bounds_checked() {
        let mut rs = ReadySet::new(2, ServicePolicy::RoundRobin);
        rs.activate(QueueId(2));
    }

    #[test]
    #[should_panic(expected = "WRR weights must cover")]
    fn wrr_weight_length_checked() {
        let _ = ReadySet::new(
            3,
            ServicePolicy::WeightedRoundRobin {
                weights: vec![1, 2],
            },
        );
    }
}
