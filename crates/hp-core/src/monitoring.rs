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
//!   different doorbell address (Algorithm 1, control plane);
//! * with distributed directories the set is banked beside the directory
//!   banks. Each bank is its own Cuckoo table with its own snoop-range
//!   register, and a doorbell line homes to the bank its hash selects, so
//!   every QWAIT-ADD/REMOVE, arm and GetM snoop touches one bank. Table I
//!   has one bank.

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
    /// Snoop misses rejected by the per-bank doorbell line-range filter
    /// before any way was probed (a subset of `snoop_misses`).
    pub snoop_filtered: u64,
    /// QID→doorbell map growth events past the pre-sized capacity. Zero
    /// when the driver sized the map from its config; nonzero means a QID
    /// arrived that the configuration never promised.
    pub spill_resizes: u64,
}

/// One bank: a d-ary Cuckoo table and its snoop-range register.
#[derive(Debug)]
struct Bank {
    ways: Vec<Vec<Option<Entry>>>,
    rows: usize,
    /// Watermarks of doorbell lines ever inserted: the bank's snoop-range
    /// register. Monotone (removal never shrinks them), so the filter is
    /// conservative — it can only reject lines no entry ever carried.
    line_lo: u64,
    line_hi: u64,
}

impl Bank {
    #[inline]
    fn row(&self, way: usize, line: LineAddr) -> usize {
        let salt = splitmix64(0xA076_1D64_78BD_642F ^ (way as u64 + 1));
        (splitmix64(line.0 ^ salt) % self.rows as u64) as usize
    }

    /// The `(way, row)` of the first entry on `line` that `hit` accepts,
    /// probing the ways in order: an O(ways) parallel lookup in hardware.
    fn find(&self, line: LineAddr, hit: impl Fn(&Entry) -> bool) -> Option<(usize, usize)> {
        (0..self.ways.len())
            .map(|way| (way, self.row(way, line)))
            .find(|&(way, row)| self.ways[way][row].is_some_and(|e| e.line == line && hit(&e)))
    }

    /// Cuckoo insertion walk: places `entry`, relocating residents between
    /// their alternate ways, and returns the relocation count. A walk past
    /// the kick bound is rolled back, leaving the table exactly as before,
    /// and returns `None`.
    fn place(&mut self, entry: Entry) -> Option<u64> {
        let mut homeless = entry;
        let w = self.ways.len();
        // Record of (way, row, displaced_entry) for rollback.
        let mut walk: Vec<(usize, usize, Entry)> = Vec::new();
        for kick in 0..=MonitoringSet::DEFAULT_MAX_KICKS {
            // d-ary Cuckoo: first probe every way for a free slot.
            let free = (0..w)
                .map(|way| (way, self.row(way, homeless.line)))
                .find(|&(way, row)| self.ways[way][row].is_none());
            if let Some((way, row)) = free {
                self.ways[way][row] = Some(homeless);
                self.line_lo = self.line_lo.min(entry.line.0);
                self.line_hi = self.line_hi.max(entry.line.0);
                return Some(walk.len() as u64);
            }
            // All full: displace from a pseudo-random way (random-walk
            // insertion approaches the d-ary load threshold).
            let way =
                (splitmix64(homeless.line.0 ^ (kick as u64) << 7 ^ 0x5bd1) % w as u64) as usize;
            let row = self.row(way, homeless.line);
            let displaced = self.ways[way][row]
                .replace(homeless)
                .expect("all ways were full");
            walk.push((way, row, displaced));
            homeless = displaced;
        }
        // Undo the walk newest-first, so each slot gets back its original
        // resident and `entry` is left out.
        for (way, row, displaced) in walk.into_iter().rev() {
            self.ways[way][row] = Some(displaced);
        }
        None
    }
}

/// The QID→doorbell map's mark for "no line registered". A line address
/// is a byte address divided by the line size, so no real line is all
/// ones; the sentinel keeps the map at 8 bytes per QID where an
/// `Option<LineAddr>` would take 16.
const UNREGISTERED: LineAddr = LineAddr(u64::MAX);

/// The Cuckoo-hashed monitoring set, banked for distributed directories.
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
///
/// // Four banks of 256 entries: each line homes to one bank.
/// let mut banked = MonitoringSet::with_shape(1024, 4, MonitoringSet::DEFAULT_WAYS);
/// banked.insert(QueueId(0), LineAddr(100))?;
/// assert_eq!(banked.snoop(LineAddr(100)), Some(QueueId(0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MonitoringSet {
    banks: Vec<Bank>,
    /// QID -> registered doorbell line (driver bookkeeping; hardware
    /// routes by address), [`UNREGISTERED`] where none is. Pre-sized via
    /// [`Self::reserve_qids`]; lazy growth past that is counted as a
    /// spill-resize in the stats.
    line_of_qid: Vec<LineAddr>,
    stats: MonitoringStats,
}

impl MonitoringSet {
    /// Relocation-walk bound before declaring a conflict.
    pub const DEFAULT_MAX_KICKS: usize = 500;

    /// Default way count. ZCache-style designs decouple lookup cost from
    /// effective associativity; four hash ways sustain >90 % occupancy
    /// with negligible conflicts, matching the paper's "5–10 %
    /// over-provisioning gives <0.1 % conflicts" claim.
    pub const DEFAULT_WAYS: usize = 4;

    /// The largest bank count a set may be built with.
    pub const MAX_BANKS: usize = 256;

    /// Creates a one-bank monitoring set with `entries` total capacity
    /// split over [`Self::DEFAULT_WAYS`] hash ways. The paper
    /// over-provisions by 5–10 % relative to the supported doorbell
    /// count; callers do that by passing a larger `entries`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is smaller than the way count.
    pub fn new(entries: usize) -> Self {
        Self::with_shape(entries, 1, Self::DEFAULT_WAYS)
    }

    /// Whether [`Self::with_shape`] accepts this shape: `ways >= 2`, a
    /// bank count in `1..=MAX_BANKS`, and at least `ways` entries per
    /// bank.
    pub fn is_buildable(entries: usize, banks: usize, ways: usize) -> bool {
        ways >= 2 && (1..=Self::MAX_BANKS).contains(&banks) && entries / banks >= ways
    }

    /// Creates `banks` banks sharing `entries` total capacity, each split
    /// over `ways` hash ways (an explicit way count is the associativity
    /// ablation).
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::is_buildable`] accepts the shape.
    pub fn with_shape(entries: usize, banks: usize, ways: usize) -> Self {
        assert!(
            Self::is_buildable(entries, banks, ways),
            "cannot build a monitoring set of {entries} entries in {banks} banks of {ways} ways"
        );
        let rows = entries / banks / ways;
        let bank = || Bank {
            ways: vec![vec![None; rows]; ways],
            rows,
            line_lo: u64::MAX,
            line_hi: 0,
        };
        MonitoringSet {
            banks: (0..banks).map(|_| bank()).collect(),
            line_of_qid: Vec::new(),
            stats: MonitoringStats::default(),
        }
    }

    /// Pre-sizes the QID→doorbell map for `qids` queues, making its
    /// growth explicit instead of a lazy `resize` on the first insert of a
    /// high QID. Inserts past this capacity still work but are counted as
    /// spill-resizes (surfaced by `trace --profile`).
    pub fn reserve_qids(&mut self, qids: usize) {
        if qids > self.line_of_qid.len() {
            self.line_of_qid.resize(qids, UNREGISTERED);
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// The bank a doorbell line homes to: `splitmix64(line) % banks`.
    /// Routing by line *hash* keeps banks balanced whatever the driver's
    /// doorbell layout (a strided or clustered allocation cannot alias
    /// every doorbell into one bank). Public so the driver (Algorithm 1
    /// and the churn re-homing path) can prefer spare lines that stay in a
    /// queue's current bank.
    #[inline]
    pub fn bank_of_line(&self, line: LineAddr) -> usize {
        (splitmix64(line.0 ^ 0x9E37_79B9_7F4A_7C15) % self.banks.len() as u64) as usize
    }

    /// Number of entries currently occupied.
    pub fn occupancy(&self) -> usize {
        self.occupancy_per_bank().iter().sum()
    }

    /// Per-bank occupancy (for balance diagnostics).
    fn occupancy_per_bank(&self) -> Vec<usize> {
        self.banks
            .iter()
            .map(|b| b.ways.iter().flatten().filter(|e| e.is_some()).count())
            .collect()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> MonitoringStats {
        self.stats
    }

    /// Host bytes reserved for entry slots and the QID→doorbell map
    /// (capacity × element size): the set's per-QID memory.
    pub fn reserved_bytes(&self) -> usize {
        let slots: usize = self
            .banks
            .iter()
            .flat_map(|b| &b.ways)
            .map(Vec::capacity)
            .sum();
        slots * std::mem::size_of::<Option<Entry>>()
            + self.line_of_qid.capacity() * std::mem::size_of::<LineAddr>()
    }

    /// `QWAIT-ADD`: associates `qid` with its doorbell `line` and arms it.
    ///
    /// Performs a Cuckoo insertion walk in the line's bank, relocating
    /// existing entries between their alternate ways; if the walk exceeds
    /// the kick bound, all relocations are rolled back and
    /// [`InsertConflict`] is returned so the driver can choose a different
    /// doorbell address (possibly landing in a different bank).
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
        assert_ne!(
            line, UNREGISTERED,
            "the all-ones line marks no registration"
        );
        assert!(
            self.line_of(qid).is_none(),
            "{qid} already present in monitoring set"
        );
        let b = self.bank_of_line(line);
        let Some(relocations) = self.banks[b].place(Entry {
            line,
            qid,
            armed: true,
        }) else {
            self.stats.conflicts += 1;
            return Err(InsertConflict { qid });
        };
        self.stats.inserts += 1;
        self.stats.relocations += relocations;
        let i = qid.0 as usize;
        if i >= self.line_of_qid.len() {
            self.line_of_qid.resize(i + 1, UNREGISTERED);
            self.stats.spill_resizes += 1;
        }
        self.line_of_qid[i] = line;
        Ok(())
    }

    /// Where `qid`'s entry sits, as `(bank, way, row)`: its doorbell line
    /// routes to the bank, whose ways are probed for `(line, qid)`.
    fn locate(&self, qid: QueueId) -> Option<(usize, usize, usize)> {
        let line = self.line_of(qid)?;
        let b = self.bank_of_line(line);
        let (way, row) = self.banks[b].find(line, |e| e.qid == qid)?;
        Some((b, way, row))
    }

    fn entry(&mut self, (b, way, row): (usize, usize, usize)) -> &mut Entry {
        self.banks[b].ways[way][row]
            .as_mut()
            .expect("located slots are occupied")
    }

    /// `QWAIT-REMOVE`: removes `qid`'s entry. Returns its doorbell line if
    /// it was present.
    pub fn remove(&mut self, qid: QueueId) -> Option<LineAddr> {
        let (b, way, row) = self.locate(qid)?;
        self.banks[b].ways[way][row] = None;
        Some(std::mem::replace(
            &mut self.line_of_qid[qid.0 as usize],
            UNREGISTERED,
        ))
    }

    /// Sets the monitoring bit of `qid`'s entry (re-arm). Returns `false`
    /// if the QID is not present.
    pub fn arm(&mut self, qid: QueueId) -> bool {
        self.set_armed(qid, true)
    }

    /// Clears the monitoring bit without a snoop (used when the engine
    /// knows more items remain queued). Returns `false` if absent.
    pub fn disarm(&mut self, qid: QueueId) -> bool {
        self.set_armed(qid, false)
    }

    fn set_armed(&mut self, qid: QueueId, armed: bool) -> bool {
        let Some(at) = self.locate(qid) else {
            return false;
        };
        self.entry(at).armed = armed;
        true
    }

    /// Whether `qid`'s entry is currently armed.
    pub fn is_armed(&self, qid: QueueId) -> bool {
        self.locate(qid)
            .is_some_and(|(b, way, row)| self.banks[b].ways[way][row].is_some_and(|e| e.armed))
    }

    /// The doorbell line registered for `qid`, if present.
    pub fn line_of(&self, qid: QueueId) -> Option<LineAddr> {
        self.line_of_qid
            .get(qid.0 as usize)
            .copied()
            .filter(|&line| line != UNREGISTERED)
    }

    /// Snoops a GetM transaction on `line`: if it matches an **armed**
    /// entry, the entry is disarmed and its QID returned (to be activated
    /// in the ready set). Only the line's bank is probed (the point of
    /// banking: each directory bank sees only its own transactions).
    pub fn snoop(&mut self, line: LineAddr) -> Option<QueueId> {
        let b = self.bank_of_line(line);
        let bank = &self.banks[b];
        // Per-bank snoop-range register: lines no entry ever carried are
        // rejected before any way is probed. Behaviour-neutral (a probe
        // would miss anyway); the filter only saves the way lookups.
        if line.0 < bank.line_lo || line.0 > bank.line_hi {
            self.stats.snoop_filtered += 1;
            self.stats.snoop_misses += 1;
            return None;
        }
        let Some((way, row)) = bank.find(line, |e| e.armed) else {
            self.stats.snoop_misses += 1;
            return None;
        };
        let e = self.entry((b, way, row));
        e.armed = false;
        let qid = e.qid;
        self.stats.snoop_hits += 1;
        Some(qid)
    }
}

#[cfg(test)]
mod banked_tests {
    use super::*;

    #[test]
    fn snoop_routes_to_owning_bank_only() {
        let mut ms = MonitoringSet::with_shape(64, 4, MonitoringSet::DEFAULT_WAYS);
        ms.insert(QueueId(7), LineAddr(42)).unwrap();
        assert_eq!(ms.snoop(LineAddr(42)), Some(QueueId(7)));
        assert_eq!(ms.snoop(LineAddr(42)), None, "disarmed after wake");
        assert!(ms.arm(QueueId(7)));
        assert_eq!(ms.snoop(LineAddr(42)), Some(QueueId(7)));
    }

    #[test]
    fn remove_and_reinsert_across_banks() {
        let mut ms = MonitoringSet::with_shape(64, 2, MonitoringSet::DEFAULT_WAYS);
        ms.insert(QueueId(0), LineAddr(10)).unwrap();
        assert_eq!(ms.remove(QueueId(0)), Some(LineAddr(10)));
        // Reallocate to a line homing to the other bank.
        let other = (11..)
            .map(LineAddr)
            .find(|&l| ms.bank_of_line(l) != ms.bank_of_line(LineAddr(10)))
            .unwrap();
        ms.insert(QueueId(0), other).unwrap();
        assert_eq!(ms.line_of(QueueId(0)), Some(other));
        assert_eq!(ms.snoop(other), Some(QueueId(0)));
        assert_eq!(ms.snoop(LineAddr(10)), None);
    }

    #[test]
    fn hashed_addressing_balances_strided_lines() {
        // All lines ≡ 0 mod 4: a modulo interleave would pile everything
        // into one bank; routing by line hash must still spread them.
        let mut ms = MonitoringSet::with_shape(1024, 4, MonitoringSet::DEFAULT_WAYS);
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
        // one-bank set: every observable must agree.
        let mut sharded = MonitoringSet::with_shape(2048, 8, MonitoringSet::DEFAULT_WAYS);
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
        let mut ms = MonitoringSet::with_shape(256, 2, MonitoringSet::DEFAULT_WAYS);
        ms.reserve_qids(128);
        for q in 0..128u32 {
            ms.insert(QueueId(q), LineAddr(q as u64 * 9 + 1)).unwrap();
        }
        assert_eq!(ms.stats().spill_resizes, 0, "pre-sized map must not spill");

        let mut lazy = MonitoringSet::with_shape(256, 2, MonitoringSet::DEFAULT_WAYS);
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
        // An empty set's range register is empty: every snoop is filtered.
        assert_eq!(ms.snoop(LineAddr(100)), None);
        assert_eq!(ms.stats().snoop_filtered, 1);
        ms.insert(QueueId(0), LineAddr(100)).unwrap();
        ms.insert(QueueId(1), LineAddr(200)).unwrap();
        // Out-of-range snoops are filtered without probing a row, but the
        // observable result (a miss) is identical.
        assert_eq!(ms.snoop(LineAddr(50)), None);
        assert_eq!(ms.snoop(LineAddr(300)), None);
        // In-range but absent: probed, still a miss.
        assert_eq!(ms.snoop(LineAddr(150)), None);
        let s = ms.stats();
        assert_eq!(s.snoop_filtered, 3);
        assert_eq!(s.snoop_misses, 4);
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
