//! The monitoring set: a Cuckoo-hashed associative memory mapping doorbell
//! cache-line tags to QIDs (§IV-A of the paper).
//!
//! The paper uses a ZCache-like structure built on Cuckoo hashing to get
//! high effective associativity with few-way lookup cost. This module
//! implements exactly that: a small number of ways indexed by independent
//! hash functions (default 4), insertion by bounded relocation walk (with
//! rollback on conflict), and O(ways) lookups for snooping, arming, and
//! disarming.
//!
//! Per the paper:
//! * insertion walks happen only on `QWAIT-ADD` (tenant connect, seconds to
//!   minutes timescale);
//! * arm/disarm flips a *monitoring bit* in place — entries are never
//!   evicted by re-arming;
//! * conflict on insert returns an error so the driver can re-allocate a
//!   different doorbell address (Algorithm 1, control plane).

use hp_mem::types::LineAddr;
use hp_queues::sim::QueueId;
use hp_sim::rng::splitmix64;

/// Error returned when an insertion walk fails to place an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertConflict {
    /// The QID whose insertion failed (the driver should re-allocate its
    /// doorbell address and retry, as in Algorithm 1 lines 3–6).
    pub qid: QueueId,
}

impl std::fmt::Display for InsertConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "monitoring-set conflict inserting {}", self.qid)
    }
}

impl std::error::Error for InsertConflict {}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: LineAddr,
    qid: QueueId,
    armed: bool,
}

/// Lifetime statistics of the monitoring set.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonitoringStats {
    /// Successful insertions.
    pub inserts: u64,
    /// Insertions that failed with a conflict.
    pub conflicts: u64,
    /// Total relocation steps performed by insertion walks.
    pub relocations: u64,
    /// Snoop probes that matched an armed entry.
    pub snoop_hits: u64,
    /// Snoop probes that matched nothing (or a disarmed entry).
    pub snoop_misses: u64,
    /// Snoop misses rejected by the per-shard doorbell line-range filter
    /// before any way was probed (a subset of `snoop_misses`).
    pub snoop_filtered: u64,
    /// Reverse-index (`by_qid`) growth events past the pre-sized
    /// capacity. Zero when the driver sized the index from its config;
    /// nonzero means a QID arrived that the configuration never promised.
    pub spill_resizes: u64,
}

/// The Cuckoo-hashed monitoring set.
///
/// # Examples
///
/// ```
/// use hp_core::monitoring::MonitoringSet;
/// use hp_mem::types::LineAddr;
/// use hp_queues::sim::QueueId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ms = MonitoringSet::new(64);
/// ms.insert(QueueId(3), LineAddr(0x100))?;
/// // A producer write (GetM) to the armed line wakes QID 3 ...
/// assert_eq!(ms.snoop(LineAddr(0x100)), Some(QueueId(3)));
/// // ... and disarms the entry until it is re-armed.
/// assert_eq!(ms.snoop(LineAddr(0x100)), None);
/// ms.arm(QueueId(3));
/// assert_eq!(ms.snoop(LineAddr(0x100)), Some(QueueId(3)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MonitoringSet {
    ways: Vec<Vec<Option<Entry>>>,
    rows: usize,
    /// QID -> (way, row) reverse index (hardware would address by QID RAM;
    /// this keeps arm/disarm O(1) like the real structure). Pre-sized via
    /// [`Self::reserve_qids`]; lazy growth past that is counted as a
    /// spill-resize in the stats.
    by_qid: Vec<Option<(u8, u32)>>,
    max_kicks: usize,
    /// Watermarks of doorbell lines ever inserted: the shard's snoop-range
    /// register. Monotone (removal never shrinks them), so the filter is
    /// conservative — it can only reject lines no entry ever carried.
    line_lo: u64,
    line_hi: u64,
    stats: MonitoringStats,
}

impl MonitoringSet {
    /// Default relocation-walk bound before declaring a conflict.
    pub const DEFAULT_MAX_KICKS: usize = 500;

    /// Default way count. ZCache-style designs decouple lookup cost from
    /// effective associativity; four hash ways sustain >90 % occupancy
    /// with negligible conflicts, matching the paper's "5–10 %
    /// over-provisioning gives <0.1 % conflicts" claim.
    pub const DEFAULT_WAYS: usize = 4;

    /// Creates a monitoring set with `entries` total capacity split over
    /// [`Self::DEFAULT_WAYS`] hash ways. The paper over-provisions by
    /// 5–10 % relative to the supported doorbell count; callers do that by
    /// passing a larger `entries`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is smaller than the way count.
    pub fn new(entries: usize) -> Self {
        Self::with_ways(entries, Self::DEFAULT_WAYS)
    }

    /// Creates a monitoring set with an explicit way count (for the
    /// associativity ablation).
    ///
    /// # Panics
    ///
    /// Panics if `ways < 2` or `entries < ways`.
    pub fn with_ways(entries: usize, ways: usize) -> Self {
        assert!(ways >= 2, "cuckoo hashing needs at least 2 ways");
        assert!(
            entries >= ways,
            "monitoring set needs at least {ways} entries"
        );
        let rows = entries / ways;
        MonitoringSet {
            ways: vec![vec![None; rows]; ways],
            rows,
            by_qid: Vec::new(),
            max_kicks: Self::DEFAULT_MAX_KICKS,
            line_lo: u64::MAX,
            line_hi: 0,
            stats: MonitoringStats::default(),
        }
    }

    /// Pre-sizes the QID reverse index for `qids` queues, making its
    /// growth explicit instead of a lazy `resize` on the first touch of a
    /// high QID. Touches past this capacity still work but are counted as
    /// spill-resizes (surfaced by `trace --profile`).
    pub fn reserve_qids(&mut self, qids: usize) {
        if qids > self.by_qid.len() {
            self.by_qid.resize(qids, None);
        }
    }

    /// The shard's snoop-range register: the inclusive range of doorbell
    /// lines ever inserted, or `None` before the first insert. GetM
    /// snoops outside it are rejected without probing any way.
    pub fn snoop_line_range(&self) -> Option<(LineAddr, LineAddr)> {
        (self.line_lo <= self.line_hi).then_some((LineAddr(self.line_lo), LineAddr(self.line_hi)))
    }

    /// Number of hash ways.
    pub fn ways(&self) -> usize {
        self.ways.len()
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.rows * self.ways.len()
    }

    /// Number of entries currently occupied.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().flatten().filter(|e| e.is_some()).count()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> MonitoringStats {
        self.stats
    }

    #[inline]
    fn row(&self, way: usize, line: LineAddr) -> u32 {
        let salt = splitmix64(0xA076_1D64_78BD_642F ^ (way as u64 + 1));
        (splitmix64(line.0 ^ salt) % self.rows as u64) as u32
    }

    fn index_set(&mut self, qid: QueueId, loc: Option<(u8, u32)>) {
        let i = qid.0 as usize;
        if i >= self.by_qid.len() {
            self.by_qid.resize(i + 1, None);
            self.stats.spill_resizes += 1;
        }
        self.by_qid[i] = loc;
    }

    fn index_get(&self, qid: QueueId) -> Option<(u8, u32)> {
        self.by_qid.get(qid.0 as usize).copied().flatten()
    }

    /// `QWAIT-ADD`: associates `qid` with its doorbell `line` and arms it.
    ///
    /// Performs a Cuckoo insertion walk, relocating existing entries
    /// between their alternate ways; if the walk exceeds the kick bound,
    /// all relocations are rolled back and [`InsertConflict`] is returned
    /// so the driver can choose a different doorbell address.
    ///
    /// # Errors
    ///
    /// [`InsertConflict`] if no placement was found.
    ///
    /// # Panics
    ///
    /// Panics if `qid` is already present (driver bug: QIDs are added once
    /// per tenant connect and removed on disconnect).
    pub fn insert(&mut self, qid: QueueId, line: LineAddr) -> Result<(), InsertConflict> {
        assert!(
            self.index_get(qid).is_none(),
            "{qid} already present in monitoring set"
        );
        let mut homeless = Entry {
            line,
            qid,
            armed: true,
        };
        let w = self.ways.len();
        // Record of (way, row, displaced_entry) for rollback.
        let mut walk: Vec<(usize, u32, Entry)> = Vec::new();
        for kick in 0..=self.max_kicks {
            // d-ary Cuckoo: first probe every way for a free slot.
            let mut placed = false;
            for way in 0..w {
                let row = self.row(way, homeless.line);
                if self.ways[way][row as usize].is_none() {
                    self.ways[way][row as usize] = Some(homeless);
                    self.index_set(homeless.qid, Some((way as u8, row)));
                    placed = true;
                    break;
                }
            }
            if placed {
                self.stats.inserts += 1;
                self.stats.relocations += walk.len() as u64;
                self.line_lo = self.line_lo.min(line.0);
                self.line_hi = self.line_hi.max(line.0);
                return Ok(());
            }
            // All full: displace from a pseudo-random way (random-walk
            // insertion approaches the d-ary load threshold).
            let way =
                (splitmix64(homeless.line.0 ^ (kick as u64) << 7 ^ 0x5bd1) % w as u64) as usize;
            let row = self.row(way, homeless.line);
            let displaced = self.ways[way][row as usize]
                .take()
                .expect("all ways were full");
            self.ways[way][row as usize] = Some(homeless);
            self.index_set(homeless.qid, Some((way as u8, row)));
            walk.push((way, row, displaced));
            homeless = displaced;
        }
        // Roll back the walk so the table is exactly as before.
        for (way, row, displaced) in walk.into_iter().rev() {
            let undone = self.ways[way][row as usize]
                .take()
                .expect("walk slots are occupied");
            self.ways[way][row as usize] = Some(displaced);
            self.index_set(displaced.qid, Some((way as u8, row)));
            homeless = undone;
        }
        debug_assert_eq!(homeless.qid, qid);
        self.index_set(qid, None);
        self.stats.conflicts += 1;
        Err(InsertConflict { qid })
    }

    /// `QWAIT-REMOVE`: removes `qid`'s entry. Returns its doorbell line if
    /// it was present.
    pub fn remove(&mut self, qid: QueueId) -> Option<LineAddr> {
        let (way, row) = self.index_get(qid)?;
        let e = self.ways[way as usize][row as usize]
            .take()
            .expect("index points at occupied slot");
        self.index_set(qid, None);
        Some(e.line)
    }

    /// Sets the monitoring bit of `qid`'s entry (re-arm). Returns `false`
    /// if the QID is not present.
    pub fn arm(&mut self, qid: QueueId) -> bool {
        match self.index_get(qid) {
            Some((way, row)) => {
                self.ways[way as usize][row as usize]
                    .as_mut()
                    .expect("index points at occupied slot")
                    .armed = true;
                true
            }
            None => false,
        }
    }

    /// Clears the monitoring bit without a snoop (used when the engine
    /// knows more items remain queued). Returns `false` if absent.
    pub fn disarm(&mut self, qid: QueueId) -> bool {
        match self.index_get(qid) {
            Some((way, row)) => {
                self.ways[way as usize][row as usize]
                    .as_mut()
                    .expect("index points at occupied slot")
                    .armed = false;
                true
            }
            None => false,
        }
    }

    /// Whether `qid`'s entry is currently armed.
    pub fn is_armed(&self, qid: QueueId) -> bool {
        match self.index_get(qid) {
            Some((way, row)) => {
                self.ways[way as usize][row as usize]
                    .as_ref()
                    .expect("index points at occupied slot")
                    .armed
            }
            None => false,
        }
    }

    /// The doorbell line registered for `qid`, if present.
    pub fn line_of(&self, qid: QueueId) -> Option<LineAddr> {
        let (way, row) = self.index_get(qid)?;
        Some(
            self.ways[way as usize][row as usize]
                .as_ref()
                .expect("index points at occupied slot")
                .line,
        )
    }

    /// Snoops a GetM transaction on `line`: if it matches an **armed**
    /// entry, the entry is disarmed and its QID returned (to be activated
    /// in the ready set). An O(ways) parallel lookup, as in hardware.
    pub fn snoop(&mut self, line: LineAddr) -> Option<QueueId> {
        // Per-shard snoop-range register: lines no entry ever carried are
        // rejected before any way is probed. Behaviour-neutral (a probe
        // would miss anyway); the filter only saves the way lookups.
        if line.0 < self.line_lo || line.0 > self.line_hi {
            self.stats.snoop_filtered += 1;
            self.stats.snoop_misses += 1;
            return None;
        }
        for way in 0..self.ways.len() {
            let row = self.row(way, line);
            if let Some(e) = &mut self.ways[way][row as usize] {
                if e.line == line && e.armed {
                    e.armed = false;
                    self.stats.snoop_hits += 1;
                    return Some(e.qid);
                }
            }
        }
        self.stats.snoop_misses += 1;
        None
    }
}

/// How a doorbell line is routed to its monitoring-set bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BankAddressing {
    /// `line % banks` — directory banks are physically line-interleaved,
    /// so the co-located monitoring banks inherit that routing (§IV-A).
    #[default]
    Interleaved,
    /// `splitmix64(line) % banks` — the million-queue scale-out shards:
    /// routing by line *hash* decouples bank balance from the driver's
    /// doorbell allocation pattern (a strided or clustered layout cannot
    /// alias every doorbell into one shard, the failure mode the modulo
    /// interleave has under skewed allocations).
    Hashed,
}

/// A banked monitoring set for distributed-directory systems (§IV-A) and
/// the million-queue sharded scale-out (DESIGN.md §17).
///
/// "In the case of distributed directories, the monitoring set must also
/// be banked, attached to individual directory banks. In such cases, the
/// driver must spread doorbell addresses across banks." Banks are
/// line-interleaved by default, so the driver's natural
/// one-line-per-doorbell layout spreads QIDs evenly; the sharded variant
/// ([`Self::sharded`]) routes by line hash instead. Either way every
/// QWAIT-ADD/REMOVE and GetM snoop touches exactly one bank, and each
/// bank keeps its own ways/rows and snoop-range register
/// ([`MonitoringSet::snoop_line_range`]).
///
/// # Examples
///
/// ```
/// use hp_core::monitoring::BankedMonitoringSet;
/// use hp_mem::types::LineAddr;
/// use hp_queues::sim::QueueId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ms = BankedMonitoringSet::new(1024, 4);
/// ms.insert(QueueId(0), LineAddr(100))?;
/// assert_eq!(ms.snoop(LineAddr(100)), Some(QueueId(0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BankedMonitoringSet {
    banks: Vec<MonitoringSet>,
    addressing: BankAddressing,
    /// QID -> owning bank (driver bookkeeping; hardware routes by
    /// address). Pre-sized by [`Self::reserve_qids`]; growth past that is
    /// a counted spill, like the per-bank reverse index.
    bank_of_qid: Vec<Option<u8>>,
    spill_resizes: u64,
}

impl BankedMonitoringSet {
    /// The largest bank count a set may be built with.
    pub const MAX_BANKS: usize = 256;

    /// Creates `banks` line-interleaved banks sharing `entries` total
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero, exceeds 256, or leaves a bank with
    /// fewer entries than its way count.
    pub fn new(entries: usize, banks: usize) -> Self {
        Self::with_addressing(
            entries,
            banks,
            MonitoringSet::DEFAULT_WAYS,
            BankAddressing::Interleaved,
        )
    }

    /// Creates a hash-addressed sharded set: `banks` shards sharing
    /// `entries` total capacity, each with its own `ways` (and derived
    /// rows), routed by doorbell-line hash.
    ///
    /// # Panics
    ///
    /// Same bounds as [`Self::new`], plus `ways >= 2` per shard.
    pub fn sharded(entries: usize, banks: usize, ways: usize) -> Self {
        Self::with_addressing(entries, banks, ways, BankAddressing::Hashed)
    }

    fn with_addressing(
        entries: usize,
        banks: usize,
        ways: usize,
        addressing: BankAddressing,
    ) -> Self {
        assert!(
            (1..=Self::MAX_BANKS).contains(&banks),
            "bank count must be in 1..={}, got {banks}",
            Self::MAX_BANKS
        );
        BankedMonitoringSet {
            banks: (0..banks)
                .map(|_| MonitoringSet::with_ways(entries / banks, ways))
                .collect(),
            addressing,
            bank_of_qid: Vec::new(),
            spill_resizes: 0,
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// The bank-routing mode.
    pub fn addressing(&self) -> BankAddressing {
        self.addressing
    }

    /// Pre-sizes every reverse index (the per-bank `by_qid` RAMs and the
    /// driver's QID→bank map) for `qids` queues.
    pub fn reserve_qids(&mut self, qids: usize) {
        if qids > self.bank_of_qid.len() {
            self.bank_of_qid.resize(qids, None);
        }
        for b in &mut self.banks {
            b.reserve_qids(qids);
        }
    }

    /// The bank a doorbell line routes to. Public so the driver
    /// (Algorithm 1 and the churn re-homing path) can prefer spare lines
    /// that stay within a queue's current shard before spilling to
    /// another one.
    #[inline]
    pub fn bank_of_line(&self, line: LineAddr) -> usize {
        self.bank_index(line)
    }

    #[inline]
    fn bank_index(&self, line: LineAddr) -> usize {
        let n = self.banks.len() as u64;
        match self.addressing {
            // Line-interleaved banking, as directory banks are.
            BankAddressing::Interleaved => (line.0 % n) as usize,
            BankAddressing::Hashed => (splitmix64(line.0 ^ 0x9E37_79B9_7F4A_7C15) % n) as usize,
        }
    }

    fn qid_bank(&self, qid: QueueId) -> Option<usize> {
        self.bank_of_qid
            .get(qid.0 as usize)
            .copied()
            .flatten()
            .map(usize::from)
    }

    /// `QWAIT-ADD` routed to the owning bank.
    ///
    /// # Errors
    ///
    /// [`InsertConflict`] if the bank's insertion walk fails (the driver
    /// reallocates the doorbell — possibly landing in a different bank).
    pub fn insert(&mut self, qid: QueueId, line: LineAddr) -> Result<(), InsertConflict> {
        let b = self.bank_index(line);
        self.banks[b].insert(qid, line)?;
        let i = qid.0 as usize;
        if i >= self.bank_of_qid.len() {
            self.bank_of_qid.resize(i + 1, None);
            self.spill_resizes += 1;
        }
        self.bank_of_qid[i] = Some(b as u8);
        Ok(())
    }

    /// `QWAIT-REMOVE`.
    pub fn remove(&mut self, qid: QueueId) -> Option<LineAddr> {
        let b = self.qid_bank(qid)?;
        let line = self.banks[b].remove(qid);
        self.bank_of_qid[qid.0 as usize] = None;
        line
    }

    /// Re-arms `qid` in its bank.
    pub fn arm(&mut self, qid: QueueId) -> bool {
        match self.qid_bank(qid) {
            Some(b) => self.banks[b].arm(qid),
            None => false,
        }
    }

    /// Disarms `qid` in its bank.
    pub fn disarm(&mut self, qid: QueueId) -> bool {
        match self.qid_bank(qid) {
            Some(b) => self.banks[b].disarm(qid),
            None => false,
        }
    }

    /// Whether `qid` is armed.
    pub fn is_armed(&self, qid: QueueId) -> bool {
        self.qid_bank(qid)
            .map(|b| self.banks[b].is_armed(qid))
            .unwrap_or(false)
    }

    /// The registered doorbell line for `qid`.
    pub fn line_of(&self, qid: QueueId) -> Option<LineAddr> {
        let b = self.qid_bank(qid)?;
        self.banks[b].line_of(qid)
    }

    /// Snoops a GetM — only the owning bank is probed (the point of
    /// banking: each directory bank sees only its own transactions).
    pub fn snoop(&mut self, line: LineAddr) -> Option<QueueId> {
        let b = self.bank_index(line);
        self.banks[b].snoop(line)
    }

    /// Total occupancy across banks.
    pub fn occupancy(&self) -> usize {
        self.banks.iter().map(|b| b.occupancy()).sum()
    }

    /// Per-bank occupancy (for balance diagnostics).
    pub fn occupancy_per_bank(&self) -> Vec<usize> {
        self.banks.iter().map(|b| b.occupancy()).collect()
    }

    /// Aggregated statistics across banks (plus the wrapper's own
    /// QID→bank spill-resizes).
    pub fn stats(&self) -> MonitoringStats {
        let mut agg = MonitoringStats::default();
        for b in &self.banks {
            let s = b.stats();
            agg.inserts += s.inserts;
            agg.conflicts += s.conflicts;
            agg.relocations += s.relocations;
            agg.snoop_hits += s.snoop_hits;
            agg.snoop_misses += s.snoop_misses;
            agg.snoop_filtered += s.snoop_filtered;
            agg.spill_resizes += s.spill_resizes;
        }
        agg.spill_resizes += self.spill_resizes;
        agg
    }
}

#[cfg(test)]
mod banked_tests {
    use super::*;

    #[test]
    fn consecutive_doorbell_lines_spread_evenly() {
        let mut ms = BankedMonitoringSet::new(1024, 4);
        // The driver's layout: one line per doorbell, consecutive lines.
        for q in 0..256u32 {
            ms.insert(QueueId(q), LineAddr(0x1000 + q as u64)).unwrap();
        }
        let per_bank = ms.occupancy_per_bank();
        assert_eq!(
            per_bank,
            vec![64, 64, 64, 64],
            "line interleaving balances banks"
        );
    }

    #[test]
    fn snoop_routes_to_owning_bank_only() {
        let mut ms = BankedMonitoringSet::new(64, 4);
        ms.insert(QueueId(7), LineAddr(42)).unwrap();
        assert_eq!(ms.snoop(LineAddr(42)), Some(QueueId(7)));
        assert_eq!(ms.snoop(LineAddr(42)), None, "disarmed after wake");
        assert!(ms.arm(QueueId(7)));
        assert_eq!(ms.snoop(LineAddr(42)), Some(QueueId(7)));
    }

    #[test]
    fn remove_and_reinsert_across_banks() {
        let mut ms = BankedMonitoringSet::new(64, 2);
        ms.insert(QueueId(0), LineAddr(10)).unwrap(); // bank 0
        assert_eq!(ms.remove(QueueId(0)), Some(LineAddr(10)));
        // Reallocate to an odd line: lands in bank 1.
        ms.insert(QueueId(0), LineAddr(11)).unwrap();
        assert_eq!(ms.snoop(LineAddr(11)), Some(QueueId(0)));
        assert_eq!(ms.snoop(LineAddr(10)), None);
    }

    #[test]
    fn skewed_addresses_overload_one_bank() {
        // If the driver fails to spread doorbells (all lines ≡ 0 mod 4),
        // one bank takes every insert and conflicts early — the failure
        // mode the paper's driver guidance avoids.
        let mut ms = BankedMonitoringSet::new(64, 4); // 16 entries/bank
        let mut conflicts = 0;
        for q in 0..32u32 {
            if ms.insert(QueueId(q), LineAddr(q as u64 * 4)).is_err() {
                conflicts += 1;
            }
        }
        assert!(conflicts > 0, "a 16-entry bank cannot hold 32 QIDs");
        let per_bank = ms.occupancy_per_bank();
        assert_eq!(per_bank[1] + per_bank[2] + per_bank[3], 0);
    }

    #[test]
    fn single_bank_degenerates_to_flat_set() {
        let mut banked = BankedMonitoringSet::new(128, 1);
        let mut flat = MonitoringSet::new(128);
        for q in 0..64u32 {
            let line = LineAddr(q as u64 * 3 + 1);
            assert_eq!(
                banked.insert(QueueId(q), line).is_ok(),
                flat.insert(QueueId(q), line).is_ok()
            );
        }
        assert_eq!(banked.occupancy(), flat.occupancy());
    }

    #[test]
    fn hashed_addressing_balances_strided_lines() {
        // All lines ≡ 0 mod 4: modulo interleaving piles everything into
        // bank 0 (see `skewed_addresses_overload_one_bank`); the hashed
        // shard function must still spread them.
        let mut ms = BankedMonitoringSet::sharded(1024, 4, MonitoringSet::DEFAULT_WAYS);
        assert_eq!(ms.addressing(), BankAddressing::Hashed);
        for q in 0..256u32 {
            ms.insert(QueueId(q), LineAddr(q as u64 * 4)).unwrap();
        }
        let per_bank = ms.occupancy_per_bank();
        assert_eq!(per_bank.iter().sum::<usize>(), 256);
        for (b, &occ) in per_bank.iter().enumerate() {
            assert!(
                (32..=96).contains(&occ),
                "bank {b} holds {occ}/256 under hashed addressing"
            );
        }
    }

    #[test]
    fn sharded_trace_matches_monolithic() {
        // Same insert/snoop/remove trace against a hashed 8-bank set and a
        // single flat set: every observable must agree.
        let mut sharded = BankedMonitoringSet::sharded(2048, 8, MonitoringSet::DEFAULT_WAYS);
        let mut flat = MonitoringSet::new(2048);
        for q in 0..512u32 {
            let line = LineAddr(0x4000 + q as u64 * 64);
            assert_eq!(
                sharded.insert(QueueId(q), line).is_ok(),
                flat.insert(QueueId(q), line).is_ok()
            );
        }
        for q in (0..512u32).step_by(3) {
            let line = LineAddr(0x4000 + q as u64 * 64);
            assert_eq!(sharded.snoop(line), flat.snoop(line));
            assert_eq!(sharded.is_armed(QueueId(q)), flat.is_armed(QueueId(q)));
        }
        for q in (0..512u32).step_by(5) {
            assert_eq!(sharded.remove(QueueId(q)), flat.remove(QueueId(q)));
        }
        assert_eq!(sharded.occupancy(), flat.occupancy());
    }

    #[test]
    fn reserve_qids_preempts_spill_resizes() {
        let mut ms = BankedMonitoringSet::sharded(256, 2, MonitoringSet::DEFAULT_WAYS);
        ms.reserve_qids(128);
        for q in 0..128u32 {
            ms.insert(QueueId(q), LineAddr(q as u64 * 9 + 1)).unwrap();
        }
        assert_eq!(
            ms.stats().spill_resizes,
            0,
            "pre-sized index must not spill"
        );

        let mut lazy = BankedMonitoringSet::sharded(256, 2, MonitoringSet::DEFAULT_WAYS);
        for q in 0..128u32 {
            lazy.insert(QueueId(q), LineAddr(q as u64 * 9 + 1)).unwrap();
        }
        assert!(
            lazy.stats().spill_resizes > 0,
            "lazy growth is a counted spill"
        );
    }

    #[test]
    fn snoop_range_filter_is_behavior_neutral() {
        let mut ms = MonitoringSet::new(64);
        assert_eq!(ms.snoop_line_range(), None, "empty set has no range");
        ms.insert(QueueId(0), LineAddr(100)).unwrap();
        ms.insert(QueueId(1), LineAddr(200)).unwrap();
        assert_eq!(ms.snoop_line_range(), Some((LineAddr(100), LineAddr(200))));
        // Out-of-range snoops are filtered without probing a row, but the
        // observable result (a miss) is identical.
        assert_eq!(ms.snoop(LineAddr(50)), None);
        assert_eq!(ms.snoop(LineAddr(300)), None);
        // In-range but absent: probed, still a miss.
        assert_eq!(ms.snoop(LineAddr(150)), None);
        let s = ms.stats();
        assert_eq!(s.snoop_filtered, 2);
        assert_eq!(s.snoop_misses, 3);
        assert_eq!(ms.snoop(LineAddr(200)), Some(QueueId(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_snoop_disarm_cycle() {
        let mut ms = MonitoringSet::new(16);
        ms.insert(QueueId(1), LineAddr(100)).unwrap();
        assert!(ms.is_armed(QueueId(1)));
        assert_eq!(ms.snoop(LineAddr(100)), Some(QueueId(1)));
        assert!(!ms.is_armed(QueueId(1)));
        // Further arrivals have no effect until re-armed (paper §III-B).
        assert_eq!(ms.snoop(LineAddr(100)), None);
        assert!(ms.arm(QueueId(1)));
        assert_eq!(ms.snoop(LineAddr(100)), Some(QueueId(1)));
    }

    #[test]
    fn snoop_ignores_unknown_lines() {
        let mut ms = MonitoringSet::new(16);
        ms.insert(QueueId(0), LineAddr(5)).unwrap();
        assert_eq!(ms.snoop(LineAddr(6)), None);
        let s = ms.stats();
        assert_eq!(s.snoop_misses, 1);
    }

    #[test]
    fn high_occupancy_with_overprovisioning() {
        // 1000 doorbells into a 10%-overprovisioned table: conflicts should
        // be rare (the paper cites <0.1% with 5-10% overprovisioning).
        let mut ms = MonitoringSet::new(1100);
        let mut conflicts = 0;
        for q in 0..1000u32 {
            if ms.insert(QueueId(q), LineAddr(0x1000 + q as u64)).is_err() {
                conflicts += 1;
            }
        }
        assert!(conflicts <= 2, "{conflicts} conflicts at 91% load");
        assert_eq!(ms.occupancy(), 1000 - conflicts);
    }

    #[test]
    fn conflict_rolls_back_cleanly() {
        // A tiny table that must eventually conflict.
        let mut ms = MonitoringSet::new(4);
        let mut inserted = Vec::new();
        let mut failed = None;
        for q in 0..16u32 {
            match ms.insert(QueueId(q), LineAddr(q as u64 * 7 + 3)) {
                Ok(()) => inserted.push(q),
                Err(c) => {
                    failed = Some(c.qid);
                    break;
                }
            }
        }
        let failed = failed.expect("a 4-entry table cannot hold 16 QIDs");
        // Everything inserted before the conflict must still be present and
        // armed — rollback may not disturb the table.
        for &q in &inserted {
            assert!(ms.is_armed(QueueId(q)), "q{q} lost after rollback");
            assert_eq!(ms.snoop(LineAddr(q as u64 * 7 + 3)), Some(QueueId(q)));
        }
        assert_eq!(ms.occupancy(), inserted.len());
        assert!(ms.line_of(failed).is_none());
    }

    #[test]
    fn remove_frees_capacity() {
        let mut ms = MonitoringSet::new(8);
        for q in 0..4u32 {
            ms.insert(QueueId(q), LineAddr(q as u64)).unwrap();
        }
        assert_eq!(ms.remove(QueueId(2)), Some(LineAddr(2)));
        assert_eq!(ms.remove(QueueId(2)), None);
        assert_eq!(ms.occupancy(), 3);
        assert_eq!(ms.snoop(LineAddr(2)), None);
        // The slot is reusable.
        ms.insert(QueueId(9), LineAddr(2)).unwrap();
        assert_eq!(ms.snoop(LineAddr(2)), Some(QueueId(9)));
    }

    #[test]
    fn disarm_suppresses_snoop() {
        let mut ms = MonitoringSet::new(8);
        ms.insert(QueueId(0), LineAddr(1)).unwrap();
        assert!(ms.disarm(QueueId(0)));
        assert_eq!(ms.snoop(LineAddr(1)), None);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_insert_is_a_driver_bug() {
        let mut ms = MonitoringSet::new(8);
        ms.insert(QueueId(0), LineAddr(1)).unwrap();
        let _ = ms.insert(QueueId(0), LineAddr(2));
    }

    #[test]
    fn relocations_are_counted() {
        let mut ms = MonitoringSet::new(64);
        for q in 0..30u32 {
            ms.insert(QueueId(q), LineAddr(q as u64 * 13)).unwrap();
        }
        let s = ms.stats();
        assert_eq!(s.inserts, 30);
        assert_eq!(s.conflicts, 0);
        // relocations may be zero with a lucky hash, but must be consistent.
        assert!(s.relocations < 30 * MonitoringSet::DEFAULT_MAX_KICKS as u64);
    }
}
