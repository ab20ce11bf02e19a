//! A set-associative tag array with true-LRU replacement.
//!
//! This models only what the timing/coherence simulation needs: presence,
//! per-line coherence state, and LRU victims. Data contents are never
//! modeled — the simulation operates on semantic state (queues, doorbells)
//! held elsewhere.
//!
//! ## Layout
//!
//! The array is one flat vector of 16-byte per-slot records, indexed by
//! *slot* = `set * ways + way`: a packed valid-bit + tag word, and a
//! `meta` word holding the LRU tick and the MESI state
//! (`(tick << 2) | state`). A probe of an N-way set is N strided `u64`
//! compares over one or two host cache lines, and — the hot case for the
//! spin-polling data plane — a hint-directed touch of a known slot
//! (tag check + LRU/state update) reads and writes a *single* host cache
//! line, where split tag/state/LRU vectors cost three. Slots are stable
//! handles: a line's slot never changes while the line is resident, which
//! is what lets [`MemSystem`]'s directory keep each line's LLC slot as a
//! self-validating hint and skip re-probing the LLC (see `crate::system`).
//!
//! The tick is strictly monotonic and every assignment of a slot's `meta`
//! uses a fresh tick, so two valid slots never share a tick and comparing
//! packed `meta` words orders slots exactly like comparing raw LRU ticks.
//!
//! [`MemSystem`]: crate::system::MemSystem

use crate::types::{LineAddr, LINE_BYTES};

/// MESI coherence state of a line in a private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MesiState {
    /// Modified: owned, dirty, only copy.
    Modified,
    /// Exclusive: owned, clean, only copy.
    Exclusive,
    /// Shared: read-only copy, possibly one of many.
    Shared,
}

#[inline]
fn code_of(state: MesiState) -> u64 {
    match state {
        MesiState::Modified => 0,
        MesiState::Exclusive => 1,
        MesiState::Shared => 2,
    }
}

#[inline]
fn state_of(meta: u64) -> MesiState {
    match meta & 3 {
        0 => MesiState::Modified,
        1 => MesiState::Exclusive,
        _ => MesiState::Shared,
    }
}

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// A 32 KB 4-way private L1 (Table I).
    pub fn l1() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
        }
    }

    /// A shared LLC sized at 1 MB per core (Table I), 16-way.
    pub fn llc(cores: usize) -> Self {
        CacheConfig {
            size_bytes: cores as u64 * 1024 * 1024,
            ways: 16,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a whole power-of-two
    /// number of sets.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / LINE_BYTES;
        let sets = lines / self.ways as u64;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "cache sets must be a positive power of two, got {sets}"
        );
        sets as usize
    }
}

/// Outcome of inserting a line into a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// Inserted into an empty way.
    Placed,
    /// Inserted by evicting the returned line (with its state at eviction).
    Evicted(LineAddr, MesiState),
}

/// Sentinel slot index meaning "no such way" in the placement scans.
const NO_SLOT: usize = usize::MAX;

/// A placement decision captured during a [`lookup_or_plan`] miss scan,
/// to be applied by [`fill_planned`] once the rest of the transaction
/// (directory + LLC bookkeeping) has run.
///
/// The plan is valid only while the set is untouched between the scan
/// and the fill. `MemSystem` guarantees that on LLC-hit load paths (a
/// core's own L1 set is never mutated mid-transaction there); paths
/// that can back-invalidate (an LLC fill) must discard the plan and
/// fall back to [`insert_slot_missed`](SetAssocCache::insert_slot_missed).
///
/// [`lookup_or_plan`]: SetAssocCache::lookup_or_plan
/// [`fill_planned`]: SetAssocCache::fill_planned
#[derive(Debug, Clone, Copy)]
pub struct PlacePlan {
    /// Slot the fill will land in (first invalid way, else LRU victim).
    slot: u32,
    /// Set index, carried so the fill needs no division by `ways`.
    set: u32,
    /// Whether `slot` was invalid at scan time (fill without eviction).
    invalid: bool,
}

/// One cache way: packed valid-bit + tag, and packed LRU tick + state.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// `(tag << 1) | 1`, or 0 for an invalid way. Packing the valid bit
    /// into the tag word makes a probe a single compare per way.
    key: u64,
    /// `(last_used_tick << 2) | mesi_code`.
    meta: u64,
}

/// A set-associative tag array with true-LRU replacement.
///
/// # Examples
///
/// ```
/// use hp_mem::cache::{CacheConfig, MesiState, SetAssocCache};
/// use hp_mem::types::LineAddr;
///
/// let mut c = SetAssocCache::new(CacheConfig { size_bytes: 4096, ways: 2 });
/// c.insert(LineAddr(1), MesiState::Shared);
/// assert_eq!(c.state(LineAddr(1)), Some(MesiState::Shared));
/// assert!(c.state(LineAddr(2)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    slots: Vec<Slot>,
    ways: usize,
    set_mask: u64,
    /// `log2(sets)`: shift that strips the set index off a line address.
    tag_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SetAssocCache {
    /// Builds an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(config.ways > 0, "cache needs at least one way");
        let slots = sets * config.ways;
        SetAssocCache {
            slots: vec![
                Slot {
                    key: 0,
                    meta: code_of(MesiState::Shared),
                };
                slots
            ],
            ways: config.ways,
            set_mask: sets as u64 - 1,
            tag_shift: (sets as u64 - 1).trailing_ones(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Packed probe key for `line`: valid bit in bit 0, tag above it.
    #[inline]
    fn key_of(&self, line: LineAddr) -> u64 {
        ((line.0 >> self.tag_shift) << 1) | 1
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    /// Slot holding `line`, if resident. No LRU or counter side effects.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_of(line) * self.ways;
        let needle = self.key_of(line);
        (base..base + self.ways).find(|&i| self.slots[i].key == needle)
    }

    /// Whether the `u32` slot hint `slot` still holds `line`. The hint may
    /// be the "unknown" sentinel (`u32::MAX`) or stale; it must have been
    /// recorded while *this* line was resident at that slot (slots are
    /// per-set, and a line maps to exactly one set, so a stale slot from
    /// the right set can only match if the same line was re-inserted
    /// there).
    #[inline]
    pub fn hint_holds(&self, slot: u32, line: LineAddr) -> bool {
        (slot as usize) < self.slots.len() && self.slots[slot as usize].key == self.key_of(line)
    }

    /// Looks up `line`, updating LRU and hit/miss counters. Returns its
    /// state if present.
    pub fn lookup(&mut self, line: LineAddr) -> Option<MesiState> {
        self.tick += 1;
        match self.probe(line) {
            Some(i) => {
                let s = &mut self.slots[i];
                s.meta = (self.tick << 2) | (s.meta & 3);
                self.hits += 1;
                Some(state_of(s.meta))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Fused [`lookup`](Self::lookup) + miss-placement scan:
    /// one pass over the set that either hits (identical bookkeeping to
    /// `lookup`) or returns the [`PlacePlan`] a subsequent
    /// [`place_absent`](Self::insert_slot_missed) scan would compute —
    /// first invalid way, else the LRU victim, same way-order
    /// tie-breaking. Halves the set scans on the miss→fill path.
    #[inline]
    pub fn lookup_or_plan(&mut self, line: LineAddr) -> Result<(MesiState, usize), PlacePlan> {
        self.tick += 1;
        let set = self.set_of(line);
        let base = set * self.ways;
        let needle = self.key_of(line);
        let mut invalid = NO_SLOT;
        let mut victim = base;
        for i in base..base + self.ways {
            let s = self.slots[i];
            if s.key == needle {
                let sm = &mut self.slots[i];
                sm.meta = (self.tick << 2) | (sm.meta & 3);
                self.hits += 1;
                return Ok((state_of(sm.meta), i));
            }
            if s.key == 0 {
                if invalid == NO_SLOT {
                    invalid = i;
                }
            } else if s.meta < self.slots[victim].meta {
                victim = i;
            }
        }
        self.misses += 1;
        let (slot, inv) = if invalid != NO_SLOT {
            (invalid, true)
        } else {
            (victim, false)
        };
        Err(PlacePlan {
            slot: slot as u32,
            set: set as u32,
            invalid: inv,
        })
    }

    /// Applies a [`PlacePlan`] from [`lookup_or_plan`](Self::lookup_or_plan):
    /// byte-identical bookkeeping to
    /// [`insert_slot_missed`](Self::insert_slot_missed) — same tick
    /// advance, same slot choice, same counters — minus the second set
    /// scan. Caller must guarantee the set is untouched since the scan
    /// (checked in debug builds by recomputing the decision).
    #[inline]
    pub fn fill_planned(&mut self, line: LineAddr, state: MesiState, plan: PlacePlan) -> Insert {
        debug_assert!(self.probe(line).is_none(), "line is resident: {line}");
        #[cfg(debug_assertions)]
        {
            // The plan must still be what a fresh scan would decide.
            let base = plan.set as usize * self.ways;
            let mut invalid = NO_SLOT;
            let mut victim = base;
            for i in base..base + self.ways {
                let s = self.slots[i];
                if s.key == 0 {
                    if invalid == NO_SLOT {
                        invalid = i;
                    }
                } else if s.meta < self.slots[victim].meta {
                    victim = i;
                }
            }
            if invalid != NO_SLOT {
                debug_assert!(plan.invalid && plan.slot as usize == invalid, "stale plan");
            } else {
                debug_assert!(!plan.invalid && plan.slot as usize == victim, "stale plan");
            }
        }
        self.tick += 1;
        let i = plan.slot as usize;
        let fresh = Slot {
            key: self.key_of(line),
            meta: (self.tick << 2) | code_of(state),
        };
        if plan.invalid {
            self.slots[i] = fresh;
            return Insert::Placed;
        }
        let evicted_line = LineAddr(((self.slots[i].key >> 1) << self.tag_shift) | plan.set as u64);
        let evicted_state = state_of(self.slots[i].meta);
        self.slots[i] = fresh;
        self.evictions += 1;
        Insert::Evicted(evicted_line, evicted_state)
    }

    /// Slot a [`PlacePlan`] will fill (for MRU seeding without re-probe).
    #[inline]
    pub fn plan_slot(plan: &PlacePlan) -> usize {
        plan.slot as usize
    }

    /// Re-touches a known-resident `slot` exactly as a
    /// [`lookup`](Self::lookup) hit would: bumps the tick, refreshes LRU,
    /// and counts a hit. Returns the line's state.
    ///
    /// The O(1) touch of an LLC line whose slot hint validated:
    /// byte-identical bookkeeping to a full set probe that hits.
    #[inline]
    pub fn hit_at(&mut self, slot: usize) -> MesiState {
        self.tick += 1;
        let s = &mut self.slots[slot];
        s.meta = (self.tick << 2) | (s.meta & 3);
        self.hits += 1;
        state_of(s.meta)
    }

    /// Fused [`hit_at`](Self::hit_at) + [`refresh_at`](Self::refresh_at)
    /// on the same slot: advances the tick twice, counts one hit, and
    /// leaves the slot's LRU stamp and state exactly as the two separate
    /// calls would. One read-modify-write of one slot record instead of
    /// two — the hint-directed LLC touch in `MemSystem`'s load path.
    #[inline]
    pub fn hit_refresh_at(&mut self, slot: usize, state: MesiState) {
        self.tick += 2;
        self.slots[slot].meta = (self.tick << 2) | code_of(state);
        self.hits += 1;
    }

    /// Sets the state of a resident slot directly (no probe, no LRU).
    #[inline]
    pub fn set_state_at(&mut self, slot: usize, state: MesiState) {
        let s = &mut self.slots[slot];
        s.meta = (s.meta & !3) | code_of(state);
    }

    /// Re-inserts a known-resident slot: equivalent to
    /// [`insert`](Self::insert) when the line is already present (state
    /// update + LRU refresh, reported as `Placed`), minus the probe.
    #[inline]
    pub fn refresh_at(&mut self, slot: usize, state: MesiState) {
        self.tick += 1;
        self.slots[slot].meta = (self.tick << 2) | code_of(state);
    }

    /// Returns the state of `line` without touching LRU or counters.
    pub fn state(&self, line: LineAddr) -> Option<MesiState> {
        self.probe(line).map(|i| state_of(self.slots[i].meta))
    }

    /// Sets the coherence state of a resident line.
    ///
    /// Returns `false` if the line is not resident (caller decides whether
    /// that is an error).
    pub fn set_state(&mut self, line: LineAddr, state: MesiState) -> bool {
        match self.probe(line) {
            Some(i) => {
                self.set_state_at(i, state);
                true
            }
            None => false,
        }
    }

    /// Inserts `line` with `state`, evicting the LRU way if the set is full.
    ///
    /// If the line is already resident, its state is updated in place and
    /// the call reports [`Insert::Placed`].
    pub fn insert(&mut self, line: LineAddr, state: MesiState) -> Insert {
        self.insert_slot(line, state).0
    }

    /// [`insert`](Self::insert) that also returns the slot the line landed
    /// in, so callers can seed an MRU filter without re-probing.
    pub fn insert_slot(&mut self, line: LineAddr, state: MesiState) -> (Insert, usize) {
        self.tick += 1;
        let base = self.set_of(line) * self.ways;
        let needle = self.key_of(line);

        // Resident: update in place. Then first invalid way, then LRU
        // victim — the same precedence (and tie-breaking by way order) as
        // the per-set representation this replaced.
        for i in base..base + self.ways {
            if self.slots[i].key == needle {
                self.slots[i].meta = (self.tick << 2) | code_of(state);
                return (Insert::Placed, i);
            }
        }
        self.place_absent(base, self.set_of(line), needle, state)
    }

    /// [`insert_slot`](Self::insert_slot) for a line the caller has just
    /// proven absent (a `lookup`/`probe` miss on this line with no
    /// intervening mutation): skips the resident scan, otherwise
    /// byte-identical bookkeeping — same tick advance, same first-invalid
    /// way / LRU-victim precedence, same counters.
    pub fn insert_slot_missed(&mut self, line: LineAddr, state: MesiState) -> (Insert, usize) {
        debug_assert!(self.probe(line).is_none(), "line is resident: {line}");
        self.tick += 1;
        let set = self.set_of(line);
        let needle = self.key_of(line);
        self.place_absent(set * self.ways, set, needle, state)
    }

    /// Places a known-absent `needle` into the set at `base`: first
    /// invalid way wins, otherwise the LRU victim is evicted. Single pass:
    /// the victim scan runs ahead of the invalid-way check, but an invalid
    /// way always returns before the victim is used, preserving the
    /// two-pass precedence exactly.
    #[inline]
    fn place_absent(
        &mut self,
        base: usize,
        set_idx: usize,
        needle: u64,
        state: MesiState,
    ) -> (Insert, usize) {
        let tick = self.tick;
        let mut victim = base;
        for i in base..base + self.ways {
            let s = self.slots[i];
            if s.key == 0 {
                self.slots[i] = Slot {
                    key: needle,
                    meta: (tick << 2) | code_of(state),
                };
                return (Insert::Placed, i);
            }
            // Valid slots never share a tick, so comparing packed meta
            // words orders them exactly like comparing LRU ticks.
            if s.meta < self.slots[victim].meta {
                victim = i;
            }
        }
        let evicted_line =
            LineAddr(((self.slots[victim].key >> 1) << self.tag_shift) | set_idx as u64);
        let evicted_state = state_of(self.slots[victim].meta);
        self.slots[victim] = Slot {
            key: needle,
            meta: (tick << 2) | code_of(state),
        };
        self.evictions += 1;
        (Insert::Evicted(evicted_line, evicted_state), victim)
    }

    /// Invalidates `line` if resident; returns its state at invalidation.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<MesiState> {
        match self.probe(line) {
            Some(i) => {
                self.slots[i].key = 0;
                Some(state_of(self.slots[i].meta))
            }
            None => None,
        }
    }

    /// `(hits, misses, evictions)` since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.key != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways.
        SetAssocCache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
        })
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        c.insert(LineAddr(4), MesiState::Exclusive);
        assert_eq!(c.lookup(LineAddr(4)), Some(MesiState::Exclusive));
        let (h, m, _) = c.counters();
        assert_eq!((h, m), (1, 0));
    }

    #[test]
    fn miss_on_absent() {
        let mut c = tiny();
        assert_eq!(c.lookup(LineAddr(9)), None);
        let (h, m, _) = c.counters();
        assert_eq!((h, m), (0, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets => even lines to set 0).
        c.insert(LineAddr(0), MesiState::Shared);
        c.insert(LineAddr(2), MesiState::Shared);
        // Touch line 0 so line 2 is LRU.
        c.lookup(LineAddr(0));
        match c.insert(LineAddr(4), MesiState::Shared) {
            Insert::Evicted(line, _) => assert_eq!(line, LineAddr(2)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.state(LineAddr(0)).is_some());
        assert!(c.state(LineAddr(2)).is_none());
    }

    #[test]
    fn evicted_line_address_reconstruction() {
        let mut c = tiny();
        c.insert(LineAddr(1), MesiState::Modified);
        c.insert(LineAddr(3), MesiState::Shared);
        match c.insert(LineAddr(5), MesiState::Shared) {
            Insert::Evicted(line, state) => {
                assert_eq!(line, LineAddr(1));
                assert_eq!(state, MesiState::Modified);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn reinsert_updates_state_in_place() {
        let mut c = tiny();
        c.insert(LineAddr(0), MesiState::Shared);
        assert_eq!(c.insert(LineAddr(0), MesiState::Modified), Insert::Placed);
        assert_eq!(c.state(LineAddr(0)), Some(MesiState::Modified));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(LineAddr(0), MesiState::Modified);
        assert_eq!(c.invalidate(LineAddr(0)), Some(MesiState::Modified));
        assert_eq!(c.invalidate(LineAddr(0)), None);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn set_state_on_missing_line_returns_false() {
        let mut c = tiny();
        assert!(!c.set_state(LineAddr(7), MesiState::Shared));
        c.insert(LineAddr(7), MesiState::Exclusive);
        assert!(c.set_state(LineAddr(7), MesiState::Shared));
        assert_eq!(c.state(LineAddr(7)), Some(MesiState::Shared));
    }

    #[test]
    fn l1_geometry() {
        let cfg = CacheConfig::l1();
        assert_eq!(cfg.sets(), 128); // 32 KB / 64 B / 4 ways
        let cfg = CacheConfig::llc(16);
        assert_eq!(cfg.sets(), 16384); // 16 MB / 64 B / 16 ways
    }

    #[test]
    fn capacity_is_respected() {
        let cfg = CacheConfig {
            size_bytes: 4096,
            ways: 4,
        }; // 64 lines
        let mut c = SetAssocCache::new(cfg);
        for i in 0..1000 {
            c.insert(LineAddr(i), MesiState::Shared);
        }
        assert!(c.occupancy() <= 64);
    }

    #[test]
    fn slot_handles_track_residency() {
        let mut c = tiny();
        let (_, slot) = c.insert_slot(LineAddr(4), MesiState::Exclusive);
        assert!(c.hint_holds(slot as u32, LineAddr(4)));
        assert!(!c.hint_holds(u32::MAX, LineAddr(4)));
        c.set_state_at(slot, MesiState::Modified);
        assert_eq!(c.state(LineAddr(4)), Some(MesiState::Modified));
        c.invalidate(LineAddr(4));
        assert!(!c.hint_holds(slot as u32, LineAddr(4)));
    }

    #[test]
    fn hit_at_matches_lookup_bookkeeping() {
        // Two caches, same geometry: one re-touches via the slot fast
        // path, the other via full lookups. All counters and the next LRU
        // eviction decision must be identical.
        let mut fast = tiny();
        let mut slow = tiny();
        for c in [&mut fast, &mut slow] {
            c.insert(LineAddr(0), MesiState::Shared);
            c.insert(LineAddr(2), MesiState::Shared);
        }
        let slot = fast.probe(LineAddr(2)).unwrap();
        assert_eq!(fast.hit_at(slot), MesiState::Shared);
        assert_eq!(slow.lookup(LineAddr(2)), Some(MesiState::Shared));
        assert_eq!(fast.counters(), slow.counters());
        // Line 0 is now LRU in both: the next insert must evict it.
        assert_eq!(
            fast.insert(LineAddr(4), MesiState::Shared),
            slow.insert(LineAddr(4), MesiState::Shared)
        );
        assert_eq!(fast.state(LineAddr(0)), None);
    }

    #[test]
    fn hit_refresh_matches_separate_calls() {
        // hit_refresh_at must leave counters, LRU order, and state exactly
        // as hit_at followed by refresh_at would.
        let mut fused = tiny();
        let mut split = tiny();
        for c in [&mut fused, &mut split] {
            c.insert(LineAddr(0), MesiState::Exclusive);
            c.insert(LineAddr(2), MesiState::Shared);
        }
        let slot = fused.probe(LineAddr(0)).unwrap();
        fused.hit_refresh_at(slot, MesiState::Shared);
        split.hit_at(slot);
        split.refresh_at(slot, MesiState::Shared);
        assert_eq!(fused.counters(), split.counters());
        assert_eq!(fused.state(LineAddr(0)), split.state(LineAddr(0)));
        // Same LRU decision next.
        assert_eq!(
            fused.insert(LineAddr(4), MesiState::Shared),
            split.insert(LineAddr(4), MesiState::Shared)
        );
    }

    #[test]
    fn planned_fill_matches_lookup_then_insert() {
        // The fused miss scan + planned fill (the LLC miss-fill path)
        // must book identically to a separate lookup followed by a full
        // insert: same counters, same slot choices, same LRU decisions.
        let mut a = tiny();
        let mut b = tiny();
        let mut x = 0xfeed_beef_u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let line = LineAddr((x >> 33) % 16);
            match a.lookup_or_plan(line) {
                Ok((state, _slot)) => {
                    assert_eq!(b.lookup(line), Some(state));
                }
                Err(plan) => {
                    assert_eq!(b.lookup(line), None);
                    let ins = a.fill_planned(line, MesiState::Shared, plan);
                    let (ins_b, slot_b) = b.insert_slot(line, MesiState::Shared);
                    assert_eq!(ins, ins_b);
                    assert_eq!(SetAssocCache::plan_slot(&plan), slot_b);
                }
            }
            assert_eq!(a.counters(), b.counters());
        }
        assert_eq!(a.occupancy(), b.occupancy());
    }

    #[test]
    fn insert_slot_missed_matches_insert_slot() {
        // Drive two caches through the same mixed trace; inserts of
        // known-absent lines go through the missed variant on one side.
        let mut a = tiny();
        let mut b = tiny();
        let mut x = 0x1234_5678_u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let line = LineAddr((x >> 33) % 16);
            if a.lookup(line).is_none() {
                b.lookup(line);
                assert_eq!(
                    a.insert_slot_missed(line, MesiState::Shared),
                    b.insert_slot(line, MesiState::Shared)
                );
            } else {
                b.lookup(line);
            }
            assert_eq!(a.counters(), b.counters());
        }
        assert_eq!(a.occupancy(), b.occupancy());
    }
}
