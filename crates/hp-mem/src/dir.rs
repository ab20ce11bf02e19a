//! An open-addressed hash table keyed by `u64` line addresses.
//!
//! [`DirTable`] replaces `std::collections::HashMap` on the coherence
//! directory's hot path. The std map is general-purpose: SipHash-1-3 keyed
//! hashing (DoS resistance the simulator does not need) and a
//! control-byte probe scheme sized for arbitrary key types. The directory
//! is the single hottest associative structure in the simulator — every
//! L1 miss, GetM, probe, and eviction touches it — and its keys are
//! already well-distributed line addresses, so a multiply-only mixer and
//! linear probing win on constant factors.
//!
//! Design:
//!
//! * **Mixer**: one widening-free multiply by an odd 64-bit constant
//!   (the FxHash rotation constant `0x51_7c_c1_b7_27_22_0a_95`), then the
//!   top `log2(capacity)` bits select the slot. Multiply-shift hashing is
//!   universal enough for line addresses, whose entropy lives in the low
//!   bits that the multiply smears across the word.
//! * **Probing**: linear, with backward-shift deletion (no tombstones),
//!   so probe sequences never degrade as entries churn.
//! * **Growth**: capacity is a power of two, doubled at 70 % load.
//!
//! Behavioural note for determinism: nothing in the simulator iterates
//! the directory, so swapping the map implementation cannot change any
//! simulation result — only wall-clock speed. The equivalence tests in
//! `tests/properties_kernels.rs` pin this against a `HashMap` model.

use std::fmt;

/// The FxHash multiplier: a random-looking odd constant whose product
/// smears key entropy into the high bits used for slot selection.
const FX_MULT: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Initial capacity (power of two). 1024 slots covers small experiments
/// without rehashing; saturation workloads grow it a handful of times.
const INITIAL_CAPACITY: usize = 1024;

#[derive(Clone, Copy, Debug)]
enum Slot<V> {
    Empty,
    Full(u64, V),
}

/// An open-addressed `u64 -> V` map tuned for the coherence directory.
///
/// The API mirrors the slice of `HashMap` the memory system uses:
/// [`get`](DirTable::get), [`get_mut`](DirTable::get_mut),
/// [`entry_or_default`](DirTable::entry_or_default),
/// [`remove`](DirTable::remove).
///
/// # Examples
///
/// ```
/// use hp_mem::dir::DirTable;
///
/// let mut t: DirTable<u32> = DirTable::new();
/// *t.entry_or_default(7) += 1;
/// assert_eq!(t.get(7), Some(&1));
/// assert_eq!(t.remove(7), Some(1));
/// assert_eq!(t.get(7), None);
/// ```
#[derive(Clone)]
pub struct DirTable<V> {
    slots: Vec<Slot<V>>,
    /// Number of `Full` slots.
    len: usize,
    /// `64 - log2(capacity)`: right-shift that maps a mixed hash to a slot.
    shift: u32,
}

impl<V> fmt::Debug for DirTable<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirTable")
            .field("len", &self.len)
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl<V> Default for DirTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> DirTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        DirTable {
            slots: (0..INITIAL_CAPACITY).map(|_| Slot::Empty).collect(),
            len: 0,
            shift: 64 - INITIAL_CAPACITY.trailing_zeros(),
        }
    }

    /// Whether `slot` currently holds `key` (cheap validation for a
    /// cached slot handle).
    #[inline]
    pub fn slot_holds(&self, slot: usize, key: u64) -> bool {
        matches!(self.slots.get(slot), Some(Slot::Full(k, _)) if *k == key)
    }

    /// Index of the slot holding `key`, if present. Subject to the same
    /// staleness rules as [`entry_slot`](DirTable::entry_slot).
    #[inline]
    pub fn find_slot(&self, key: u64) -> Option<usize> {
        match self.probe(key) {
            (i, true) => Some(i),
            _ => None,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FX_MULT) >> self.shift) as usize
    }

    /// Index of the slot holding `key`, or of the first empty slot in its
    /// probe sequence. The load-factor cap guarantees an empty slot exists.
    #[inline]
    fn probe(&self, key: u64) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                Slot::Empty => return (i, false),
                Slot::Full(k, _) if k == key => return (i, true),
                Slot::Full(..) => i = (i + 1) & mask,
            }
        }
    }

    /// Borrows the value for `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        match self.probe(key) {
            (i, true) => match &self.slots[i] {
                Slot::Full(_, v) => Some(v),
                Slot::Empty => unreachable!(),
            },
            _ => None,
        }
    }

    /// Mutably borrows the value for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        match self.probe(key) {
            (i, true) => match &mut self.slots[i] {
                Slot::Full(_, v) => Some(v),
                Slot::Empty => unreachable!(),
            },
            _ => None,
        }
    }

    /// Removes `key`, returning its value if it was present.
    ///
    /// Uses backward-shift deletion: subsequent entries whose probe
    /// sequence passed through the vacated slot are slid back, so no
    /// tombstones accumulate.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let (mut hole, found) = self.probe(key);
        if !found {
            return None;
        }
        let out = match std::mem::replace(&mut self.slots[hole], Slot::Empty) {
            Slot::Full(_, v) => v,
            Slot::Empty => unreachable!(),
        };
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut i = (hole + 1) & mask;
        loop {
            match self.slots[i] {
                Slot::Empty => break,
                Slot::Full(k, _) => {
                    // Shift back iff the hole lies cyclically within
                    // [home(k), i): otherwise k is reachable without it.
                    let home = self.home(k);
                    let dist_hole = (hole.wrapping_sub(home)) & mask;
                    let dist_i = (i.wrapping_sub(home)) & mask;
                    if dist_hole <= dist_i {
                        self.slots[hole] = std::mem::replace(&mut self.slots[i], Slot::Empty);
                        hole = i;
                    }
                    i = (i + 1) & mask;
                }
            }
        }
        Some(out)
    }
}

impl<V: Default> DirTable<V> {
    /// Mutably borrows the value for `key`, inserting `V::default()` first
    /// if absent — the `HashMap::entry(k).or_default()` idiom.
    #[inline]
    pub fn entry_or_default(&mut self, key: u64) -> &mut V {
        let i = self.entry_slot(key);
        match &mut self.slots[i] {
            Slot::Full(_, v) => v,
            Slot::Empty => unreachable!(),
        }
    }

    /// Like [`entry_or_default`](DirTable::entry_or_default), but returns
    /// the slot *index* instead of a borrow, so a read-modify-write
    /// transaction can probe once and then use
    /// [`at`](DirTable::at)/[`at_mut`](DirTable::at_mut) for the write-back.
    ///
    /// The returned index is invalidated by any subsequent insertion or
    /// removal (growth and backward-shift deletion both move entries);
    /// callers must not hold it across such calls.
    #[inline]
    pub fn entry_slot(&mut self, key: u64) -> usize {
        let (i, found) = self.probe(key);
        if found {
            i
        } else if (self.len + 1) * 10 > self.slots.len() * 7 {
            self.grow();
            let (j, _) = self.probe(key);
            self.slots[j] = Slot::Full(key, V::default());
            self.len += 1;
            j
        } else {
            self.slots[i] = Slot::Full(key, V::default());
            self.len += 1;
            i
        }
    }

    /// Borrows the value in a slot returned by
    /// [`entry_slot`](DirTable::entry_slot).
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (i.e. the handle is stale).
    #[inline]
    pub fn at(&self, slot: usize) -> &V {
        match &self.slots[slot] {
            Slot::Full(_, v) => v,
            Slot::Empty => panic!("stale DirTable slot handle"),
        }
    }

    /// Mutably borrows the value in a slot returned by
    /// [`entry_slot`](DirTable::entry_slot).
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (i.e. the handle is stale).
    #[inline]
    pub fn at_mut(&mut self, slot: usize) -> &mut V {
        match &mut self.slots[slot] {
            Slot::Full(_, v) => v,
            Slot::Empty => panic!("stale DirTable slot handle"),
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| Slot::Empty).collect());
        self.shift = 64 - new_cap.trailing_zeros();
        for slot in old {
            if let Slot::Full(k, v) = slot {
                let (i, found) = self.probe(k);
                debug_assert!(!found, "duplicate key during rehash");
                self.slots[i] = Slot::Full(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t: DirTable<u64> = DirTable::new();
        assert!(t.is_empty());
        for k in 0..100u64 {
            *t.entry_or_default(k * 64) = k;
        }
        assert_eq!(t.len(), 100);
        for k in 0..100u64 {
            assert_eq!(t.get(k * 64), Some(&k));
        }
        assert_eq!(t.get(99), None);
        for k in 0..100u64 {
            assert_eq!(t.remove(k * 64), Some(k));
            assert_eq!(t.remove(k * 64), None);
        }
        assert!(t.is_empty());
    }

    #[test]
    fn key_zero_is_a_valid_key() {
        // Line address 0 occurs in real traces; no sentinel confusion.
        let mut t: DirTable<i32> = DirTable::new();
        *t.entry_or_default(0) = -5;
        assert_eq!(t.get(0), Some(&-5));
        assert_eq!(t.remove(0), Some(-5));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t: DirTable<u64> = DirTable::new();
        let n = (INITIAL_CAPACITY * 4) as u64;
        for k in 0..n {
            *t.entry_or_default(k) = k * 3;
        }
        assert_eq!(t.len(), n as usize);
        for k in 0..n {
            assert_eq!(t.get(k), Some(&(k * 3)), "key {k}");
        }
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut t: DirTable<u64> = DirTable::new();
        *t.entry_or_default(42) = 1;
        *t.get_mut(42).unwrap() += 9;
        assert_eq!(t.get(42), Some(&10));
        assert!(t.get_mut(43).is_none());
    }

    #[test]
    fn entry_slot_round_trips_through_at() {
        let mut t: DirTable<u64> = DirTable::new();
        let s = t.entry_slot(640);
        assert_eq!(*t.at(s), 0, "fresh entry defaults");
        *t.at_mut(s) = 99;
        assert_eq!(t.get(640), Some(&99));
        // Re-probing the same key without intervening inserts/removes
        // yields the same slot.
        assert_eq!(t.entry_slot(640), s);
    }

    #[test]
    fn matches_hashmap_under_random_churn() {
        // Deterministic LCG-driven mixed workload vs a HashMap model.
        let mut t: DirTable<u64> = DirTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Key space of 512 distinct "lines" so churn revisits keys.
            let key = (x >> 32) % 512 * 64;
            match x % 4 {
                0 => {
                    *t.entry_or_default(key) += step;
                    *model.entry(key).or_default() += step;
                }
                1 => {
                    assert_eq!(t.get(key), model.get(&key), "step {step}");
                }
                2 => {
                    if let (Some(a), Some(b)) = (t.get_mut(key), model.get_mut(&key)) {
                        *a ^= step;
                        *b ^= step;
                    }
                }
                _ => {
                    assert_eq!(t.remove(key), model.remove(&key), "step {step}");
                }
            }
            assert_eq!(t.len(), model.len(), "step {step}");
        }
        for (&k, v) in &model {
            assert_eq!(t.get(k), Some(v));
        }
    }

    #[test]
    fn backward_shift_preserves_colliding_probe_chains() {
        // Force collisions by exceeding what any mixer can separate:
        // insert many keys, delete every other one, then verify the rest.
        let mut t: DirTable<u64> = DirTable::new();
        for k in 0..3000u64 {
            *t.entry_or_default(k) = !k;
        }
        for k in (0..3000u64).step_by(2) {
            assert_eq!(t.remove(k), Some(!k));
        }
        for k in (1..3000u64).step_by(2) {
            assert_eq!(t.get(k), Some(&!k), "survivor {k} lost after deletions");
        }
    }
}
