//! A set-associative tag array with true-LRU replacement.
//!
//! This models only what the timing/coherence simulation needs: presence,
//! per-line coherence state, and LRU victims. Data contents are never
//! modeled — the simulation operates on semantic state (queues, doorbells)
//! held elsewhere.
//!
//! ## Layout
//!
//! The array is one flat vector of 16-byte per-slot records: a packed
//! valid-bit + tag word, and a `meta` word holding the LRU tick and the
//! MESI state (`(tick << 2) | state`). Slots are stored *group-major*: the
//! ways of a set come in groups of 4, and group `g` of every set is one
//! contiguous block, so way `g * 4 + k` of set `s` is slot
//! `g * sets * 4 + s * 4 + k`. (An associativity 4 does not divide pads
//! its last group with ways that never hold a line.) A group is
//! allocated, for every set at once, only when a fill first lands in it.
//! A fill takes the first invalid way, so a set never uses a way of group
//! `g + 1` before every way of group `g` is valid: the allocated groups
//! are always a prefix, a probe scans only those, and the first way of
//! the next group ranks as an invalid way. A run pays host memory only
//! for the ways it uses: the 16-way LLC of a run that never holds more
//! than 4 lines in a set is one quarter of its full size.
//!
//! A probe of a group reads one host cache line and builds a 4-bit hit
//! mask from its keys; the hit way is the mask's `trailing_zeros`. A miss
//! scan picks its victim with a running minimum of per-way ranks kept
//! with `select_unpredictable`, so neither the hit test nor the LRU order
//! of the ways costs a data-dependent branch. The hot case for the
//! spin-polling data plane — a hint-directed touch of a known slot (tag
//! check + LRU/state update) — reads and writes a *single* host cache
//! line, where split tag/state/LRU vectors cost three. Slots are stable
//! handles: a line's slot never changes while the line is resident, and
//! growth only appends groups, which is what lets [`MemSystem`] keep the
//! coherence directory beside the LLC tags (one holder word per LLC slot,
//! in a vector grown with the tag store), link each L1 slot to its line's
//! LLC slot, and record an owner's L1 slot in the holder word (see
//! `crate::system`). A cache has at most [`MAX_SLOTS`] slots, so a slot
//! handle fits a `u32` below the "unknown" sentinel `u32::MAX`.
//!
//! The tick is strictly monotonic and every assignment of a slot's `meta`
//! uses a fresh tick, so two valid slots never share a tick and comparing
//! packed `meta` words orders slots exactly like comparing raw LRU ticks.
//!
//! [`MemSystem`]: crate::system::MemSystem

use crate::types::{LineAddr, LINE_BYTES};
use std::hint::select_unpredictable;

/// Most slots a cache may have (ways padded to a multiple of 4, times
/// sets): every slot handle is a `u32` below `u32::MAX`, which callers
/// keep as the "unknown slot" sentinel.
pub const MAX_SLOTS: usize = u32::MAX as usize;

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

/// Placement rank bit of a valid way in [`SetAssocCache::probe_or_plan`]:
/// an invalid way ranks below every valid way, and a valid way ranks by
/// its `meta` word (LRU tick), so one running minimum picks the first
/// invalid way, else the LRU victim.
const VALID_RANK: u64 = 1 << 63;

/// A placement decision captured during a [`probe_or_plan`] miss scan,
/// to be applied by [`fill_planned`] once the rest of the transaction
/// (directory + LLC bookkeeping) has run.
///
/// The plan is valid only while the set is untouched between the scan
/// and the fill. `MemSystem` guarantees that on LLC-hit paths (a core's
/// own L1 set is never mutated mid-transaction there); paths that can
/// back-invalidate (an LLC fill that evicts) must discard the plan and
/// scan again.
///
/// One `u64`: the slot in bits 0..32, the set in bits 32..63 and the
/// invalid flag in bit 63, so a `Result<usize, PlacePlan>` is two words
/// and comes back in registers. A slot is below [`MAX_SLOTS`], and a set
/// is at most a quarter of that, so both fields always fit.
///
/// [`probe_or_plan`]: SetAssocCache::probe_or_plan
/// [`fill_planned`]: SetAssocCache::fill_planned
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacePlan(u64);

/// [`PlacePlan`] bit set when its slot was invalid at scan time.
const PLAN_INVALID: u64 = 1 << 63;

impl PlacePlan {
    #[inline]
    fn new(slot: usize, set: usize, invalid: bool) -> Self {
        debug_assert!(
            slot < MAX_SLOTS && set < 1 << 31,
            "plan ({slot}, {set}) overflows"
        );
        PlacePlan(slot as u64 | (set as u64) << 32 | u64::from(invalid) << 63)
    }

    /// Slot the fill will land in (first invalid way, else LRU victim).
    #[inline]
    pub fn slot(self) -> usize {
        self.0 as u32 as usize
    }

    /// Set index, carried so the fill needs no division by `ways`.
    #[inline]
    fn set(self) -> u64 {
        (self.0 & !PLAN_INVALID) >> 32
    }

    /// Whether the slot was invalid at scan time (fill without eviction).
    #[inline]
    fn invalid(self) -> bool {
        self.0 & PLAN_INVALID != 0
    }
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

/// Ways per group: a set's ways are stored and allocated this many at a
/// time (see the module docs).
const GROUP_WAYS: usize = 4;

/// An invalid way.
const EMPTY: Slot = Slot { key: 0, meta: 0 };

/// A padding way: one of the last group's ways past the associativity.
/// Its key never equals a probe key (bit 0 clear) and its rank is above
/// every real way's, so no probe finds it and no fill picks it.
const PAD: Slot = Slot {
    key: 2,
    meta: u64::MAX,
};

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
    /// The allocated way groups, group-major (see the module docs).
    slots: Vec<Slot>,
    ways: usize,
    /// Slots per group (`sets * GROUP_WAYS`).
    group_slots: usize,
    /// Groups allocated so far (`slots.len() / group_slots`).
    groups: usize,
    /// Groups a set has (`ways / GROUP_WAYS`, rounded up).
    max_groups: usize,
    set_mask: u64,
    /// `log2(sets)`: shift that strips the set index off a line address.
    tag_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SetAssocCache {
    /// Builds an empty cache with the given geometry. No way group is
    /// allocated until a fill lands in it.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no way, does not divide into a
    /// power-of-two number of sets, or needs more than [`MAX_SLOTS`]
    /// slots.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(config.ways > 0, "cache needs at least one way");
        assert!(
            sets.checked_mul(config.ways.next_multiple_of(GROUP_WAYS))
                .is_some_and(|slots| slots <= MAX_SLOTS),
            "cache of {sets} sets x {} ways exceeds {MAX_SLOTS} slots",
            config.ways
        );
        SetAssocCache {
            slots: Vec::new(),
            ways: config.ways,
            group_slots: sets * GROUP_WAYS,
            groups: 0,
            max_groups: config.ways.div_ceil(GROUP_WAYS),
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

    /// The group of ways starting at slot `base`. A fixed-size array, so
    /// a scan of it is unrolled and unchecked.
    #[inline]
    fn group(&self, base: usize) -> &[Slot; GROUP_WAYS] {
        self.slots[base..base + GROUP_WAYS]
            .try_into()
            .expect("the range is GROUP_WAYS long")
    }

    /// Bit `k` set when way `k` of the group at `base` holds `needle`
    /// (at most one bit: a line is resident in one way).
    #[inline]
    fn hit_mask(&self, base: usize, needle: u64) -> u32 {
        let g = self.group(base);
        u32::from(g[0].key == needle)
            | u32::from(g[1].key == needle) << 1
            | u32::from(g[2].key == needle) << 2
            | u32::from(g[3].key == needle) << 3
    }

    /// Slot holding `line`, if resident. No LRU or counter side effects.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> Option<usize> {
        let needle = self.key_of(line);
        let mut base = self.set_of(line) * GROUP_WAYS;
        for _ in 0..self.groups {
            let hits = self.hit_mask(base, needle);
            if hits != 0 {
                return Some(base + hits.trailing_zeros() as usize);
            }
            base += self.group_slots;
        }
        None
    }

    /// Slots allocated so far: the allocated way groups times
    /// `sets * 4`. Every slot handle is below it.
    #[inline]
    pub(crate) fn allocated_slots(&self) -> usize {
        self.slots.len()
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

    /// One pass over `line`'s set with no side effects: the slot holding
    /// `line`, or the [`PlacePlan`] a fill would use — first invalid way,
    /// else the LRU victim, ties broken by way order. Only allocated
    /// groups are scanned; the first way of the next group, if the set
    /// has one, ranks as invalid after every allocated way. Each group is
    /// one hit-mask test, and the placement choice is branch-free: one
    /// running minimum of a per-way rank kept with selects.
    #[inline]
    pub fn probe_or_plan(&self, line: LineAddr) -> Result<usize, PlacePlan> {
        let set = self.set_of(line);
        let needle = self.key_of(line);
        let mut base = set * GROUP_WAYS;
        // An invalid way ranks 0, below every valid way, and the strict
        // `<` below keeps the first one met; the next group's first way
        // ranks just above that, so it wins only when no allocated way
        // is invalid. A padding way ranks `u64::MAX` and never wins.
        let mut pick = base + self.groups * self.group_slots;
        let mut best = if self.groups < self.max_groups {
            VALID_RANK - 1
        } else {
            u64::MAX
        };
        for _ in 0..self.groups {
            let hits = self.hit_mask(base, needle);
            if hits != 0 {
                return Ok(base + hits.trailing_zeros() as usize);
            }
            for (k, s) in self.group(base).iter().enumerate() {
                // Valid slots never share a tick, so comparing packed meta
                // words orders them exactly like comparing LRU ticks.
                let rank = select_unpredictable(s.key == 0, 0, s.meta | VALID_RANK);
                let lower = rank < best;
                best = select_unpredictable(lower, rank, best);
                pick = select_unpredictable(lower, base + k, pick);
            }
            base += self.group_slots;
        }
        Err(PlacePlan::new(pick, set, best < VALID_RANK))
    }

    /// [`probe_or_plan`](Self::probe_or_plan) with [`lookup`](Self::lookup)'s
    /// bookkeeping: a hit refreshes LRU and counts a hit, a miss counts a
    /// miss and returns the plan. One set scan on the miss→fill path.
    #[inline]
    pub fn lookup_or_plan(&mut self, line: LineAddr) -> Result<(MesiState, usize), PlacePlan> {
        self.tick += 1;
        match self.probe_or_plan(line) {
            Ok(i) => {
                let s = &mut self.slots[i];
                s.meta = (self.tick << 2) | (s.meta & 3);
                self.hits += 1;
                Ok((state_of(s.meta), i))
            }
            Err(plan) => {
                self.misses += 1;
                Err(plan)
            }
        }
    }

    /// Applies a [`PlacePlan`] from [`probe_or_plan`](Self::probe_or_plan):
    /// advances the tick and fills the planned way, evicting its line if
    /// it was valid. Caller must guarantee the set is untouched since the
    /// scan (checked in debug builds by scanning again).
    #[inline]
    pub fn fill_planned(&mut self, line: LineAddr, state: MesiState, plan: PlacePlan) -> Insert {
        debug_assert_eq!(self.probe_or_plan(line), Err(plan), "stale plan for {line}");
        self.tick += 1;
        let i = plan.slot();
        if i >= self.slots.len() {
            self.grow();
            debug_assert!(i < self.slots.len(), "plan beyond the next way group");
        }
        let fresh = Slot {
            key: self.key_of(line),
            meta: (self.tick << 2) | code_of(state),
        };
        if plan.invalid() {
            self.slots[i] = fresh;
            return Insert::Placed;
        }
        let evicted_line = LineAddr(((self.slots[i].key >> 1) << self.tag_shift) | plan.set());
        let evicted_state = state_of(self.slots[i].meta);
        self.slots[i] = fresh;
        self.evictions += 1;
        Insert::Evicted(evicted_line, evicted_state)
    }

    /// Allocates the next way group of every set: the first fill that
    /// lands in it.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let first_way = self.groups * GROUP_WAYS;
        let group: [Slot; GROUP_WAYS] = std::array::from_fn(|k| {
            if first_way + k < self.ways {
                EMPTY
            } else {
                PAD
            }
        });
        self.slots.reserve_exact(self.group_slots);
        for _ in 0..self.group_slots / GROUP_WAYS {
            self.slots.extend_from_slice(&group);
        }
        self.groups += 1;
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

    /// Inserts `line` with `state`, evicting the LRU way if the set is full.
    ///
    /// If the line is already resident, its state is updated in place and
    /// the call reports [`Insert::Placed`].
    pub fn insert(&mut self, line: LineAddr, state: MesiState) -> Insert {
        match self.probe_or_plan(line) {
            Ok(i) => {
                self.refresh_at(i, state);
                Insert::Placed
            }
            Err(plan) => self.fill_planned(line, state, plan),
        }
    }

    /// Invalidates `line` if resident; returns its state at invalidation.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<MesiState> {
        self.probe(line).map(|i| self.invalidate_at(i))
    }

    /// Invalidates the line resident in `slot`; returns its state.
    #[inline]
    pub fn invalidate_at(&mut self, slot: usize) -> MesiState {
        self.slots[slot].key = 0;
        state_of(self.slots[slot].meta)
    }

    /// The line resident in `slot`, if any.
    #[cfg(test)]
    pub(crate) fn line_at(&self, slot: usize) -> Option<LineAddr> {
        let key = self.slots[slot].key;
        let set = (slot % self.group_slots / GROUP_WAYS) as u64;
        (key & 1 != 0).then_some(LineAddr(((key >> 1) << self.tag_shift) | set))
    }

    /// `(hits, misses, evictions)` since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.key & 1 != 0).count()
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
    fn slot_directed_updates_touch_only_their_slot() {
        let mut c = tiny();
        c.insert(LineAddr(7), MesiState::Exclusive);
        c.insert(LineAddr(5), MesiState::Modified);
        let slot = c.probe(LineAddr(7)).unwrap();
        c.set_state_at(slot, MesiState::Shared);
        assert_eq!(c.state(LineAddr(7)), Some(MesiState::Shared));
        assert_eq!(c.invalidate_at(slot), MesiState::Shared);
        assert_eq!(c.state(LineAddr(7)), None);
        assert_eq!(c.state(LineAddr(5)), Some(MesiState::Modified));
        assert_eq!(c.occupancy(), 1);
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
        c.insert(LineAddr(4), MesiState::Exclusive);
        let slot = c.probe(LineAddr(4)).unwrap();
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
                    assert_eq!(ins, b.insert(line, MesiState::Shared));
                    assert_eq!(Some(plan.slot()), b.probe(line));
                }
            }
            assert_eq!(a.counters(), b.counters());
        }
        assert_eq!(a.occupancy(), b.occupancy());
    }

    #[test]
    fn probe_or_plan_matches_two_pass_scan() {
        // The branch-free scan must pick what the plain two-pass rule
        // picks over all of a set's ways, an unallocated way counting as
        // invalid: the resident way, else the first invalid way, else the
        // way with the oldest tick. Random invalidations leave holes in
        // any way position. A 16-way, 4-set cache runs two traces: one
        // with at most 12 tags per set, so group 3 stays unallocated in
        // every set, and one that overfills set 3 alone, so it evicts
        // while the other sets' later groups are allocated but empty.
        for (seed, tags_per_set) in [(0x1234_5678_u64, [12, 12, 12, 12]), (0x9abc, [6, 2, 9, 24])] {
            let mut c = SetAssocCache::new(CacheConfig {
                size_bytes: 4 * 16 * LINE_BYTES,
                ways: 16,
            });
            let (mut unallocated, mut victims) = (0, 0);
            let mut x = seed;
            for _ in 0..4000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let set = (x >> 40) % 4;
                let line = LineAddr(set + 4 * ((x >> 33) % tags_per_set[set as usize]));
                let slot_of = |w: usize| {
                    w / GROUP_WAYS * c.group_slots + set as usize * GROUP_WAYS + w % GROUP_WAYS
                };
                let ways: Vec<(usize, Option<Slot>)> = (0..16)
                    .map(|w| (slot_of(w), c.slots.get(slot_of(w)).copied()))
                    .collect();
                let key = |s: &Option<Slot>| s.map_or(0, |s| s.key);
                let want = match ways.iter().find(|(_, s)| key(s) == c.key_of(line)) {
                    Some(&(slot, _)) => Ok(slot),
                    None => match ways.iter().find(|(_, s)| key(s) == 0) {
                        Some(&(slot, s)) => {
                            unallocated += usize::from(s.is_none());
                            Err((slot, true))
                        }
                        None => {
                            victims += 1;
                            let &(slot, _) = ways
                                .iter()
                                .min_by_key(|(_, s)| s.unwrap().meta >> 2)
                                .unwrap();
                            Err((slot, false))
                        }
                    },
                };
                let got = c.probe_or_plan(line).map_err(|p| (p.slot(), p.invalid()));
                assert_eq!(got, want, "line {line}");
                if (x >> 20).is_multiple_of(5) {
                    c.invalidate(line);
                } else {
                    c.insert(line, MesiState::Shared);
                }
            }
            assert!(unallocated > 0, "no plan reached an unallocated group");
            let groups = c.allocated_slots() / c.group_slots;
            if tags_per_set[3] == 24 {
                assert!(victims > 0, "set 3 never evicted");
                assert_eq!(groups, 4);
            } else {
                assert_eq!(groups, 3, "a set held more than 12 lines");
            }
        }
    }

    #[test]
    fn place_plans_round_trip_at_the_largest_geometries() {
        // The two extremes of the geometries `new` accepts: the most sets
        // (2^29 sets of 4 ways, 2^31 slots) and the highest slot handle (one
        // set of the most ways that pad to at most MAX_SLOTS). Neither
        // allocates a way group here.
        let most_sets = CacheConfig {
            size_bytes: (1 << 31) * LINE_BYTES,
            ways: 4,
        };
        let ways = MAX_SLOTS / GROUP_WAYS * GROUP_WAYS;
        let most_slots = CacheConfig {
            size_bytes: ways as u64 * LINE_BYTES,
            ways,
        };
        for cfg in [most_sets, most_slots] {
            let c = SetAssocCache::new(cfg);
            let (sets, slots) = (cfg.sets(), cfg.sets() * cfg.ways);
            for (slot, set) in [(0, 0), (slots - 1, sets - 1), (slots - 1, 0), (0, sets - 1)] {
                for invalid in [false, true] {
                    let plan = PlacePlan::new(slot, set, invalid);
                    assert_eq!(
                        (plan.slot(), plan.set(), plan.invalid()),
                        (slot, set as u64, invalid)
                    );
                }
            }
            // An empty cache plans the first way of the line's set.
            let plan = c.probe_or_plan(LineAddr(sets as u64 - 1)).unwrap_err();
            assert_eq!(
                (plan.slot(), plan.set(), plan.invalid()),
                ((sets - 1) * GROUP_WAYS, sets as u64 - 1, true)
            );
        }
        // One set more and the slot handles would reach the sentinel.
        let too_big = CacheConfig {
            size_bytes: (1 << 32) * LINE_BYTES,
            ways: 4,
        };
        assert!(std::panic::catch_unwind(|| SetAssocCache::new(too_big)).is_err());
    }

    #[test]
    fn a_cache_never_holding_five_lines_in_a_set_allocates_one_group() {
        let cfg = CacheConfig::llc(1);
        let sets = cfg.sets() as u64;
        let mut c = SetAssocCache::new(cfg);
        assert_eq!(c.allocated_slots(), 0, "no group before the first fill");
        // Four lines in every set, three times over; each round frees a
        // way that the next refills: a hole, not a fifth way.
        for round in 0..3 {
            for set in 0..sets {
                for tag in 0..4 {
                    c.insert(LineAddr(set + tag * sets), MesiState::Shared);
                }
                c.invalidate(LineAddr(set + round * sets));
            }
        }
        assert_eq!(c.allocated_slots(), cfg.sets() * GROUP_WAYS);
        assert_eq!(c.occupancy(), 3 * cfg.sets());
    }

    #[test]
    fn padded_associativities_hold_exactly_their_ways() {
        // A set of a cache whose associativity 4 does not divide holds
        // exactly that many lines, the most recent ones: no fill lands in
        // a padding way and none is lost.
        for ways in [1, 2, 3, 5, 6, 7] {
            let mut c = SetAssocCache::new(CacheConfig {
                size_bytes: 2 * ways as u64 * LINE_BYTES,
                ways,
            });
            for tag in 0..10 * ways as u64 {
                c.insert(LineAddr(2 * tag), MesiState::Shared);
            }
            assert_eq!(c.occupancy(), ways, "{ways} ways");
            for tag in 9 * ways as u64..10 * ways as u64 {
                assert!(c.state(LineAddr(2 * tag)).is_some(), "{ways} ways");
            }
            assert_eq!(
                c.allocated_slots(),
                ways.div_ceil(GROUP_WAYS) * 2 * GROUP_WAYS
            );
        }
    }
}
