//! The multicore memory system: private L1s, a shared inclusive LLC, and a
//! directory-based MESI coherence protocol.
//!
//! This is the substrate standing in for gem5's classic memory system. It is
//! a *timing and transaction* model: every [`MemSystem::access`] returns the
//! latency the access costs and whether a **GetM** (write-ownership)
//! transaction crossed the interconnect — the signal HyperPlane's monitoring
//! set snoops (§III-B of the paper).
//!
//! Fidelity notes (documented simplifications):
//! * The directory lives in the inclusive LLC: one holder word per LLC
//!   slot (a sharer mask, or one owner and its L1 slot of the line), like
//!   the core-valid bits of inclusive-LLC hardware. Inclusion makes it
//!   exact in coverage — a line has a directory entry exactly while it is
//!   LLC-resident, and an LLC eviction back-invalidates every private
//!   copy — so the directory never evicts on its own. The paper's
//!   monitoring set is explicitly *not* subject to directory conflict
//!   evictions, so this does not change the observable behaviour being
//!   studied.
//! * Sharer bitmasks may be stale after silent L1 evictions of Shared lines;
//!   invalidations sent to non-holders are harmless, as in real imprecise
//!   directories.
//! * An owned word records the owner's L1 slot, so a downgrade or
//!   invalidation of a remote owner's copy is a tag check at that slot,
//!   not a search of the owner's set. Real directories send the message
//!   and let the owner's cache look the line up; the slot changes the
//!   host cost of that lookup, never its outcome. After a silent E
//!   eviction the recorded slot may hold another line, which reads as "no
//!   copy", exactly what a search would find.
//!
//! # Fast path (DESIGN.md §12)
//!
//! The overwhelming majority of simulated accesses hit a line already held
//! locally in a stable MESI state and cannot generate coherence traffic.
//! Two mechanisms exploit this without changing any observable result:
//!
//! * **Stable-state short-circuit** — a load to a locally resident line, or
//!   a store to a line in M/E, completes inside the L1 without constructing
//!   a directory transaction. Stores to Shared lines and all misses (the
//!   only accesses that can produce GetM traffic, including doorbell-range
//!   snoops) always take the slow path.
//! * **Shared-line LLC route and hinted loads** (DESIGN.md §13) — an L1
//!   load miss on an unowned, LLC-resident line resolves in one directory
//!   word, and [`MemSystem::load_hinted`] skips the LLC set probe with a
//!   caller-owned, self-validating [`LoadHint`]. Both are gated by
//!   [`MemSystemConfig::fast_path`].
//!
//! Every path replicates the general transaction's side effects exactly
//! (LRU ticks, hit counters, telemetry), which is what keeps same-seed runs
//! bit-identical — enforced by the `shadow-check` feature, which embeds a
//! [`crate::reference::RefMemSystem`] and asserts equal results on every
//! access.

use crate::cache::{CacheConfig, Insert, MesiState, PlacePlan, SetAssocCache};
use crate::types::{AccessKind, Addr, CoreId, HitLevel, LineAddr};
use hp_sim::time::Cycles;

#[cfg(feature = "shadow-check")]
use crate::reference::RefMemSystem;

/// Access latencies for each level of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Private L1 hit.
    pub l1_hit: Cycles,
    /// Shared LLC hit (also the directory access cost for upgrades).
    pub llc_hit: Cycles,
    /// Cache-to-cache transfer from a remote L1.
    pub remote_l1: Cycles,
    /// DRAM access.
    pub dram: Cycles,
}

impl Default for LatencyModel {
    /// Latencies for a contemporary server part at 2 GHz: 4 / 40 / 60 / 200
    /// cycles.
    fn default() -> Self {
        LatencyModel {
            l1_hit: Cycles(4),
            llc_hit: Cycles(40),
            remote_l1: Cycles(60),
            dram: Cycles(200),
        }
    }
}

impl LatencyModel {
    /// Latency charged for an access satisfied at `level`.
    #[inline]
    pub fn of_level(&self, level: HitLevel) -> Cycles {
        match level {
            HitLevel::L1 => self.l1_hit,
            HitLevel::Llc => self.llc_hit,
            HitLevel::RemoteL1 => self.remote_l1,
            HitLevel::Memory => self.dram,
        }
    }
}

/// Result of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycles the access costs the issuing core.
    pub latency: Cycles,
    /// Where the access was satisfied.
    pub level: HitLevel,
    /// Set when a GetM transaction crossed the interconnect for this access
    /// — the write-ownership event HyperPlane's monitoring set snoops.
    pub getm: Option<LineAddr>,
}

/// Most cores a [`MemSystem`] models: a holder word's sharer mask uses
/// bits 0..63, and bit 63 flags a word that names one owner instead.
pub const MAX_CORES: usize = 63;

/// Holder-word flag: the word is `OWNED | l1_slot << OWNER_SLOT_SHIFT |
/// core`, naming the one core holding the line in M or E and the slot of
/// that core's L1 the line was filled into (or upgraded in). Without it,
/// the word is the mask of cores that may hold the line in S.
const OWNED: u64 = 1 << 63;

/// Bits below an owned word's L1 slot: the owner's core index, which is
/// below [`MAX_CORES`].
const OWNER_SLOT_SHIFT: u32 = 8;

/// The holder word naming `core` as the line's owner, holding it in L1
/// slot `slot`.
#[inline]
fn owned_by(core: CoreId, slot: usize) -> u64 {
    OWNED | (slot as u64) << OWNER_SLOT_SHIFT | core.0 as u64
}

/// The owning core a holder word names, if any.
#[inline]
fn owner_of(word: u64) -> Option<usize> {
    (word & OWNED != 0).then_some((word & ((1 << OWNER_SLOT_SHIFT) - 1)) as usize)
}

/// Per-core access telemetry.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreMemStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// Cache-to-cache transfers.
    pub remote_hits: u64,
    /// DRAM fetches.
    pub dram_fetches: u64,
}

impl CoreMemStats {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.l1_hits + self.llc_hits + self.remote_hits + self.dram_fetches
    }

    /// Fraction of accesses that missed in the L1 (0.0 when no accesses).
    pub fn l1_miss_ratio(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (t - self.l1_hits) as f64 / t as f64
        }
    }
}

/// Counters for the memory-system fast paths (wall-clock observability
/// only — none of these feed back into simulated behaviour).
///
/// The four `mru_hits`/`seq_*` fields always read 0: no MRU line filter
/// or sequence memo exists. They stay so the artifacts that print them —
/// the attribution snapshot (`SNAPSHOT_LABELS`), `profile_json` and the
/// benchmark report — keep their layout and pinned hashes until a
/// benchmark change drops them.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastPathStats {
    /// Always 0: there is no MRU line filter. An access to a line the core
    /// last touched counts in `stable_hits` like any other L1 short-circuit.
    pub mru_hits: u64,
    /// Accesses that short-circuited in the L1 (stable local state, no
    /// directory transaction constructed). Counts whether or not
    /// [`MemSystemConfig::fast_path`] is on.
    pub stable_hits: u64,
    /// Always 0: there is no sequence memo.
    pub seq_replays: u64,
    /// Always 0: there is no sequence memo.
    pub seq_replay_attempts: u64,
    /// Always 0: there is no sequence memo.
    pub seq_replayed_accesses: u64,
    /// Loads on a stably-shared LLC line resolved by the read-only
    /// directory peek: the write-back would have been an identity write,
    /// so no directory state is touched at all (DESIGN.md §13).
    pub s_state_peeks: u64,
    /// Loads re-taking an unowned line the core was sole holder of
    /// (post-eviction reload in E): one directory word written, no
    /// transition logic walked.
    pub stable_reloads: u64,
    /// Loads joining the sharer set of an unowned line: one directory
    /// word written (sharer bit added), no transition logic walked.
    pub shared_joins: u64,
    /// L1 evictions whose victim's directory word was reached through
    /// the L1 slot's link to its LLC slot: every visible L1 eviction (and,
    /// in silent-eviction mode, every M write-back), since inclusion keeps
    /// the link valid. Counts whether or not [`MemSystemConfig::fast_path`]
    /// is on.
    pub dir_hint_hits: u64,
}

/// A caller-owned, self-validating cache of one line's LLC slot, for
/// callers that re-access the same line periodically (the spin-poll
/// sweep). Pass to [`MemSystem::load_hinted`]: a hint whose LLC slot
/// still holds the line skips the LLC set probe, and with it the search
/// for the line's directory word. The validation is sound on its own — a
/// line maps to one set, so a slot of that set tagged with the line *is*
/// the line's slot — and a stale or default hint just falls back to the
/// probe: the hint can never change an access's outcome, only its
/// wall-clock cost.
#[derive(Debug, Clone, Copy)]
pub struct LoadHint {
    llc_slot: u32,
}

impl Default for LoadHint {
    fn default() -> Self {
        LoadHint { llc_slot: u32::MAX }
    }
}

/// The modeled multicore memory hierarchy.
///
/// # Examples
///
/// ```
/// use hp_mem::system::{MemSystem, MemSystemConfig};
/// use hp_mem::types::{AccessKind, Addr, CoreId, HitLevel};
///
/// let mut mem = MemSystem::new(MemSystemConfig::cmp(4));
/// // Cold store: fetched from memory, and a GetM is visible on the
/// // interconnect (this is what the monitoring set watches).
/// let r = mem.access(CoreId(0), Addr(0x1000), AccessKind::Store);
/// assert_eq!(r.level, HitLevel::Memory);
/// assert!(r.getm.is_some());
/// // Subsequent store by the owner hits in L1 silently.
/// let r = mem.access(CoreId(0), Addr(0x1000), AccessKind::Store);
/// assert_eq!(r.level, HitLevel::L1);
/// assert!(r.getm.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct MemSystem {
    l1s: Vec<SetAssocCache>,
    llc: SetAssocCache,
    /// The directory: one holder word per LLC slot (see [`OWNED`]),
    /// indexed by the slot and grown with the LLC's tag store a way group
    /// at a time, so a run pays only for the ways it uses. A line's word
    /// is found by the LLC set probe its transaction already needs, and an
    /// owned word leads to the owner's L1 slot with no probe.
    holders: Vec<u64>,
    latency: LatencyModel,
    stats: Vec<CoreMemStats>,
    getm_count: u64,
    invalidations: u64,
    prefetch_degree: usize,
    /// Last line loaded per core (stride detection).
    last_load: Vec<Option<u64>>,
    prefetch_fills: u64,
    /// Whether the shared-line LLC route and load hints are consulted
    /// (see [`MemSystemConfig::fast_path`]). Results are identical either
    /// way, which the digest-equality tests in `tests/observability.rs`
    /// pin.
    fast_path: bool,
    /// Slots per L1 (`sets * ways`; stride of `l1_links` per core).
    l1_slots: usize,
    /// Per-`(core, L1 slot)` LLC slot of the line in that L1 slot,
    /// flat-indexed `core * l1_slots + slot` and recorded at fill time.
    /// Inclusion keeps it valid while the line is L1-resident (an LLC
    /// eviction kills every private copy first), so the S→M upgrade and
    /// the victim path on the *next* fill of that slot reach the line's
    /// directory word with no probe. Debug builds check the link.
    l1_links: Vec<u32>,
    fastpath: FastPathStats,
    /// Silent-eviction mode (see [`MemSystemConfig::silent_evictions`]).
    silent_evictions: bool,
    /// Invalidation messages addressed to a directory-listed holder whose
    /// copy was already gone (silently evicted): pure stale-sharer cost.
    /// Always zero in visible-eviction mode, where the directory is exact.
    stale_invalidations: u64,
    #[cfg(feature = "shadow-check")]
    shadow: Box<RefMemSystem>,
}

/// Configuration for [`MemSystem`].
#[derive(Debug, Clone, Copy)]
pub struct MemSystemConfig {
    /// Number of cores (each gets a private L1).
    pub cores: usize,
    /// Private L1 geometry.
    pub l1: CacheConfig,
    /// Shared LLC geometry.
    pub llc: CacheConfig,
    /// Latency model.
    pub latency: LatencyModel,
    /// Next-line stride prefetcher degree per core (0 disables). On a
    /// detected +1-line load stride, the next `degree` lines are filled
    /// into the L1 off the critical path (conservatively skipping lines
    /// owned by another core).
    pub prefetch_degree: usize,
    /// Whether the wall-clock fast paths (the shared-line LLC route and
    /// [`MemSystem::load_hinted`]'s directory hint) are enabled. Simulated
    /// results are identical either way; disabling is for A/B equivalence
    /// tests and debugging.
    pub fast_path: bool,
    /// Silent-eviction mode (DESIGN.md §14): S/E victims leave the L1
    /// with *no* directory message, as on real hardware. The directory's
    /// sharer/owner view decays into a strict superset of actual holders;
    /// stale bits are priced where they are next consulted (invalidation
    /// fan-out, stale-owner probes). Off (the default), evictions are
    /// fully visible and the directory stays exact — the configuration
    /// the `shadow-check` reference oracle models. Unlike `fast_path`,
    /// this knob *changes simulated behaviour*: it is protocol fidelity,
    /// not a wall-clock optimization.
    pub silent_evictions: bool,
}

impl MemSystemConfig {
    /// The Table I CMP: `cores` cores, 32 KB 4-way L1s, 1 MB/core 16-way
    /// LLC, default latencies.
    pub fn cmp(cores: usize) -> Self {
        assert!(
            (1..=MAX_CORES).contains(&cores),
            "cores must be in 1..={MAX_CORES}, got {cores}"
        );
        MemSystemConfig {
            cores,
            l1: CacheConfig::l1(),
            llc: CacheConfig::llc(cores),
            latency: LatencyModel::default(),
            prefetch_degree: 0,
            fast_path: true,
            silent_evictions: false,
        }
    }
}

impl MemSystem {
    /// Builds the hierarchy described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is outside `1..=`[`MAX_CORES`].
    pub fn new(config: MemSystemConfig) -> Self {
        assert!(
            (1..=MAX_CORES).contains(&config.cores),
            "cores must be in 1..={MAX_CORES}, got {}",
            config.cores
        );
        let l1_slots = config.l1.sets() * config.l1.ways;
        MemSystem {
            l1s: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l1))
                .collect(),
            llc: SetAssocCache::new(config.llc),
            holders: Vec::new(),
            latency: config.latency,
            stats: vec![CoreMemStats::default(); config.cores],
            getm_count: 0,
            invalidations: 0,
            prefetch_degree: config.prefetch_degree,
            last_load: vec![None; config.cores],
            prefetch_fills: 0,
            fast_path: config.fast_path,
            l1_slots,
            l1_links: vec![0; config.cores * l1_slots],
            fastpath: FastPathStats::default(),
            silent_evictions: config.silent_evictions,
            stale_invalidations: 0,
            #[cfg(feature = "shadow-check")]
            shadow: Box::new(RefMemSystem::new(config)),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.l1s.len()
    }

    /// Per-core telemetry.
    pub fn core_stats(&self, core: CoreId) -> CoreMemStats {
        self.stats[core.0]
    }

    /// Total GetM transactions observed on the interconnect.
    pub fn getm_total(&self) -> u64 {
        self.getm_count
    }

    /// Total invalidation messages sent.
    pub fn invalidation_total(&self) -> u64 {
        self.invalidations
    }

    /// Invalidation messages that found no copy to kill (stale sharer or
    /// owner bits left by silent evictions). Zero in visible-eviction
    /// mode.
    pub fn stale_invalidation_total(&self) -> u64 {
        self.stale_invalidations
    }

    /// Whether silent-eviction mode is on.
    pub fn silent_evictions(&self) -> bool {
        self.silent_evictions
    }

    /// Fast-path hit counters (wall-clock observability only).
    pub fn fastpath_stats(&self) -> FastPathStats {
        self.fastpath
    }

    /// MESI state of `line` in `core`'s L1, if resident (introspection for
    /// tests comparing against the reference implementation).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for this system.
    pub fn l1_state(&self, core: CoreId, line: LineAddr) -> Option<MesiState> {
        self.l1s[core.0].state(line)
    }

    fn record(&mut self, core: CoreId, level: HitLevel) {
        let s = &mut self.stats[core.0];
        match level {
            HitLevel::L1 => s.l1_hits += 1,
            HitLevel::Llc => s.llc_hits += 1,
            HitLevel::RemoteL1 => s.remote_hits += 1,
            HitLevel::Memory => s.dram_fetches += 1,
        }
    }

    /// Performs one load or store by `core` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for this system.
    pub fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind) -> AccessResult {
        assert!(core.0 < self.l1s.len(), "unknown {core}");
        // The reference system models visible evictions only; under
        // silent-eviction mode it is not a valid oracle (the directories
        // legitimately diverge), so the shadow is bypassed entirely.
        #[cfg(feature = "shadow-check")]
        let expected = (!self.silent_evictions).then(|| self.shadow.access(core, addr, kind));
        let r = self.access_inner(core, addr, kind);
        #[cfg(feature = "shadow-check")]
        if let Some(expected) = expected {
            assert_eq!(
                r, expected,
                "fast path diverged from reference at {addr} ({kind:?} by {core})"
            );
            debug_assert_eq!(self.getm_count, self.shadow.getm_total());
            debug_assert_eq!(self.invalidations, self.shadow.invalidation_total());
        }
        r
    }

    /// [`access`](Self::access) for a load, with a caller-owned
    /// [`LoadHint`] that skips the LLC set probe while the line provably
    /// has not moved. Byte-identical outcomes to
    /// `access(core, addr, AccessKind::Load)` — same shadow-check, same
    /// prefetcher interaction (the hint is simply not consulted while the
    /// prefetcher is on, or with [`MemSystemConfig::fast_path`] off).
    pub fn load_hinted(&mut self, core: CoreId, addr: Addr, hint: &mut LoadHint) -> AccessResult {
        assert!(core.0 < self.l1s.len(), "unknown {core}");
        #[cfg(feature = "shadow-check")]
        let expected =
            (!self.silent_evictions).then(|| self.shadow.access(core, addr, AccessKind::Load));
        let r = if self.fast_path && self.prefetch_degree == 0 {
            self.load_with(core, addr.line(), Some(hint))
        } else {
            self.access_inner(core, addr, AccessKind::Load)
        };
        #[cfg(feature = "shadow-check")]
        if let Some(expected) = expected {
            assert_eq!(
                r, expected,
                "fast path diverged from reference at {addr} (hinted load by {core})"
            );
            debug_assert_eq!(self.getm_count, self.shadow.getm_total());
            debug_assert_eq!(self.invalidations, self.shadow.invalidation_total());
        }
        r
    }

    #[inline]
    fn access_inner(&mut self, core: CoreId, addr: Addr, kind: AccessKind) -> AccessResult {
        let line = addr.line();
        match kind {
            AccessKind::Load => {
                let r = self.load(core, line);
                if self.prefetch_degree > 0 {
                    let stride_hit = self.last_load[core.0] == Some(line.0.wrapping_sub(1));
                    self.last_load[core.0] = Some(line.0);
                    if stride_hit {
                        for d in 1..=self.prefetch_degree as u64 {
                            self.prefetch_fill(core, LineAddr(line.0 + d));
                        }
                    }
                }
                r
            }
            AccessKind::Store => self.store(core, line),
        }
    }

    /// Off-critical-path fill of `line` into `core`'s L1 (next-line
    /// prefetch). Conservative: never disturbs a line owned elsewhere.
    fn prefetch_fill(&mut self, core: CoreId, line: LineAddr) {
        if self.l1s[core.0].state(line).is_some() {
            return;
        }
        let me = 1u64 << core.0;
        let ls = match self.llc.probe_or_plan(line) {
            Ok(ls) => {
                let word = self.holders[ls];
                if owner_of(word).is_some() {
                    return;
                }
                self.holders[ls] = word | me;
                self.llc.refresh_at(ls, MesiState::Shared);
                ls
            }
            Err(plan) => self.fill_llc(line, plan, me),
        };
        self.fill_l1(core, line, MesiState::Shared, ls, None);
        self.prefetch_fills += 1;
    }

    /// Total prefetch fills issued.
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    fn load(&mut self, core: CoreId, line: LineAddr) -> AccessResult {
        self.load_with(core, line, None)
    }

    fn load_with(
        &mut self,
        core: CoreId,
        line: LineAddr,
        hint: Option<&mut LoadHint>,
    ) -> AccessResult {
        // One pass over the L1 set: either a hit, or the placement plan
        // the post-transaction fill will use (valid because nothing below
        // touches this core's set on the LLC-hit paths).
        let plan = match self.l1s[core.0].lookup_or_plan(line) {
            Ok(_) => {
                // Stable-state short-circuit: resident in M/E/S, nothing
                // to tell the directory.
                self.fastpath.stable_hits += 1;
                self.record(core, HitLevel::L1);
                return AccessResult {
                    latency: self.latency.l1_hit,
                    level: HitLevel::L1,
                    getm: None,
                };
            }
            Err(plan) => plan,
        };

        // One LLC set probe for the whole transaction: it finds the line's
        // slot, and with it the line's directory word, or the placement
        // plan a miss fills. A caller hint that still holds the line
        // replaces the probe with a tag check.
        let llc_at = match &hint {
            Some(h) if self.llc.hint_holds(h.llc_slot, line) => Ok(h.llc_slot as usize),
            _ => self.llc.probe_or_plan(line),
        };
        let me = 1u64 << core.0;

        let (level, state, ls, fill_plan) = match llc_at {
            Ok(ls) => {
                let word = self.holders[ls];
                // Spinning-path fast route (DESIGN.md §13): a load of an
                // unowned LLC-resident line is an LLC hit whose entire
                // directory transition is known up front — at most one
                // word written back, and for a stably-shared line (our
                // sharer bit already set) the write-back is an identity
                // write, so the directory is only *read*. The general walk
                // below computes the same outcome; this route just skips
                // constructing it. Invariant argument: with no owner there
                // is no copy to downgrade or invalidate, so no coherence
                // transition can be missed; the LLC touch and L1 fill
                // below are the exact bookkeeping the general path
                // performs (fused hit+refresh, fill after a proven miss).
                if self.fast_path && owner_of(word).is_none() {
                    let state = if word | me == me {
                        // Sole holder re-takes the line in E (the usual
                        // reload of a line this core's L1 evicted); the
                        // fill writes the owner word.
                        self.fastpath.stable_reloads += 1;
                        MesiState::Exclusive
                    } else if word & me != 0 {
                        // Stably shared: nothing written.
                        self.fastpath.s_state_peeks += 1;
                        MesiState::Shared
                    } else {
                        // Join the sharer set: one word written.
                        self.holders[ls] = word | me;
                        self.fastpath.shared_joins += 1;
                        MesiState::Shared
                    };
                    self.llc.hit_refresh_at(ls, MesiState::Shared);
                    self.fill_l1(core, line, state, ls, Some(plan));
                    self.record(core, HitLevel::Llc);
                    if let Some(h) = hint {
                        h.llc_slot = ls as u32;
                    }
                    return AccessResult {
                        latency: self.latency.llc_hit,
                        level: HitLevel::Llc,
                        getm: None,
                    };
                }
                let (level, sharers) = match owner_of(word) {
                    // Directory thought we owned it but the L1 evicted it
                    // silently (E); treat as LLC hit.
                    Some(o) if o == core.0 => (HitLevel::Llc, me),
                    // Downgrade the remote owner to Shared; cache-to-cache
                    // fill.
                    Some(o) => {
                        if let Some(slot) = self.owner_copy(word, line) {
                            self.l1s[o].set_state_at(slot, MesiState::Shared);
                        }
                        (HitLevel::RemoteL1, (1 << o) | me)
                    }
                    None => {
                        self.llc.hit_at(ls);
                        (HitLevel::Llc, word | me)
                    }
                };
                // Take exclusive (E) if we are the only holder (the fill
                // writes the owner word); the silent E->M upgrade this
                // enables is exactly why QWAIT's re-arm must issue a GetS
                // probe (modeled by `probe_shared`).
                let state = if sharers == me {
                    MesiState::Exclusive
                } else {
                    self.holders[ls] = sharers;
                    MesiState::Shared
                };
                // Already resident: refresh in place. The L1 set is
                // untouched, so the lookup's plan still holds.
                self.llc.refresh_at(ls, MesiState::Shared);
                (level, state, ls, Some(plan))
            }
            // LLC miss: by inclusion no L1 holds the line, so this core
            // takes it in E from memory (the L1 fill writes the owner
            // word). The fill's back-invalidation can free a way in this
            // core's target set, so the plan is stale.
            Err(llc_plan) => {
                let ls = self.fill_llc(line, llc_plan, 0);
                (HitLevel::Memory, MesiState::Exclusive, ls, None)
            }
        };
        self.fill_l1(core, line, state, ls, fill_plan);
        if let Some(h) = hint {
            h.llc_slot = ls as u32;
        }
        self.record(core, level);
        AccessResult {
            latency: self.latency.of_level(level),
            level,
            getm: None,
        }
    }

    fn store(&mut self, core: CoreId, line: LineAddr) -> AccessResult {
        let plan = match self.l1s[core.0].lookup_or_plan(line) {
            Ok((hit, slot)) => match hit {
                MesiState::Modified | MesiState::Exclusive => {
                    // Stable-state short-circuit; E->M is a silent upgrade
                    // with no interconnect transaction.
                    if hit == MesiState::Exclusive {
                        self.l1s[core.0].set_state_at(slot, MesiState::Modified);
                    }
                    self.fastpath.stable_hits += 1;
                    self.record(core, HitLevel::L1);
                    return AccessResult {
                        latency: self.latency.l1_hit,
                        level: HitLevel::L1,
                        getm: None,
                    };
                }
                MesiState::Shared => {
                    // Upgrade: GetM invalidating other sharers; the L1
                    // slot's link leads to the directory word.
                    self.getm_count += 1;
                    let ls = self.linked_llc_slot(core, slot, line);
                    let stale = self.invalidate_holders(core, line, self.holders[ls]);
                    self.holders[ls] = owned_by(core, slot);
                    self.l1s[core.0].set_state_at(slot, MesiState::Modified);
                    self.record(core, HitLevel::Llc);
                    // Stale-sharer pricing (silent-eviction mode): the
                    // GetM cannot complete until every *listed* sharer
                    // acks, including ones whose copy silently vanished —
                    // the doorbell write pays a remote round-trip for
                    // directory staleness. `stale` is always 0 in
                    // visible-eviction mode, keeping that path
                    // bit-identical.
                    let latency = if stale > 0 {
                        self.latency.llc_hit.max(self.latency.remote_l1)
                    } else {
                        self.latency.llc_hit
                    };
                    return AccessResult {
                        latency,
                        level: HitLevel::Llc,
                        getm: Some(line),
                    };
                }
            },
            Err(plan) => plan,
        };

        // Write miss: GetM. Same single-probe shape as `load`.
        self.getm_count += 1;
        let mut stale = 0u64;
        let (level, ls, fill_plan) = match self.llc.probe_or_plan(line) {
            Ok(ls) => {
                let word = self.holders[ls];
                let level = match owner_of(word) {
                    // The owner's copy may already be gone (silent E-state
                    // eviction); the invalidation message is sent
                    // regardless, and the RemoteL1 level already prices
                    // the round-trip.
                    Some(owner) if owner != core.0 => {
                        match self.owner_copy(word, line) {
                            Some(slot) => {
                                self.l1s[owner].invalidate_at(slot);
                            }
                            None => self.stale_invalidations += 1,
                        }
                        self.invalidations += 1;
                        HitLevel::RemoteL1
                    }
                    // A word naming this core as owner (its E copy left
                    // silently) lists no other holder.
                    owner => {
                        self.llc.hit_at(ls);
                        if owner.is_none() {
                            stale = self.invalidate_holders(core, line, word);
                        }
                        HitLevel::Llc
                    }
                };
                self.llc.refresh_at(ls, MesiState::Shared);
                (level, ls, Some(plan))
            }
            // LLC miss: no other holder. The fill may back-invalidate into
            // this core's target set: drop the stale plan.
            Err(llc_plan) => {
                let ls = self.fill_llc(line, llc_plan, 0);
                (HitLevel::Memory, ls, None)
            }
        };
        self.fill_l1(core, line, MesiState::Modified, ls, fill_plan);
        self.record(core, level);
        // Stale-sharer pricing: a GetM that had to message a vanished
        // sharer waits on that ack like any remote round-trip (no-op in
        // visible-eviction mode, where `stale` is always 0).
        let mut latency = self.latency.of_level(level);
        if stale > 0 {
            latency = latency.max(self.latency.remote_l1);
        }
        AccessResult {
            latency,
            level,
            getm: Some(line),
        }
    }

    /// Issues a GetS probe on `line` without filling any L1 — downgrades any
    /// current owner to Shared so that the *next* store must issue a visible
    /// GetM.
    ///
    /// This models the coherence read the paper's QWAIT re-arm performs
    /// ("a coherence read transaction (i.e., GetS) is issued to ensure the
    /// line has no owner and the writes cannot be performed locally",
    /// §III-B).
    pub fn probe_shared(&mut self, line: LineAddr) -> Cycles {
        #[cfg(feature = "shadow-check")]
        let expected = (!self.silent_evictions).then(|| self.shadow.probe_shared(line));
        let r = self.probe_shared_inner(line);
        #[cfg(feature = "shadow-check")]
        if let Some(expected) = expected {
            assert_eq!(
                r, expected,
                "probe_shared diverged from reference at {line}"
            );
        }
        r
    }

    fn probe_shared_inner(&mut self, line: LineAddr) -> Cycles {
        if let Some(ls) = self.llc.probe(line) {
            let word = self.holders[ls];
            if let Some(owner) = owner_of(word) {
                if let Some(slot) = self.owner_copy(word, line) {
                    self.l1s[owner].set_state_at(slot, MesiState::Shared);
                }
                self.holders[ls] = 1 << owner;
                self.llc.refresh_at(ls, MesiState::Shared);
                return self.latency.remote_l1;
            }
        }
        self.latency.llc_hit
    }

    /// LLC slot of `line`, resident in `core`'s L1 at `l1_slot`, read
    /// from the slot's link.
    #[inline]
    fn linked_llc_slot(&self, core: CoreId, l1_slot: usize, line: LineAddr) -> usize {
        let ls = self.l1_links[core.0 * self.l1_slots + l1_slot];
        debug_assert!(
            self.llc.hint_holds(ls, line),
            "inclusion broken: {line} in {core}'s L1 but not at its linked LLC slot"
        );
        ls as usize
    }

    /// The slot of `owner`'s L1 that holds `line`, per the owned holder
    /// word `word` that names `owner`: the recorded slot while it still
    /// holds the line, `None` once the copy is gone. Only a silent E
    /// eviction leaves an owned word whose slot lost the line, and a
    /// reload rewrites the word, so `None` means the owner's whole set
    /// holds no copy (checked in debug builds).
    #[inline]
    fn owner_copy(&self, word: u64, line: LineAddr) -> Option<usize> {
        let owner = owner_of(word)?;
        let slot = (word & !OWNED) >> OWNER_SLOT_SHIFT;
        let l1 = &self.l1s[owner];
        let held = l1.hint_holds(slot as u32, line);
        debug_assert!(
            held || (self.silent_evictions && l1.probe(line).is_none()),
            "core {owner} owns {line} at L1 slot {slot}, which does not hold it \
             (copy at {:?})",
            l1.probe(line)
        );
        held.then_some(slot as usize)
    }

    /// Invalidates every L1 copy of `line` held by a core other than
    /// `core`, per the directory word `holders` — a sharer mask, possibly
    /// stale, always a superset. Walks only the set bits instead of every
    /// core.
    ///
    /// Returns the number of *stale* messages sent — directory-listed
    /// holders whose copy was already (silently) gone. Always zero in
    /// visible-eviction mode; in silent mode callers price the fan-out
    /// wait on the store path with it.
    fn invalidate_holders(&mut self, core: CoreId, line: LineAddr, holders: u64) -> u64 {
        debug_assert!(owner_of(holders).is_none(), "{line} is owned: {holders:#x}");
        let mut mask = holders & !(1u64 << core.0);
        let mut stale = 0u64;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.l1s[i].invalidate(line).is_some() {
                self.invalidations += 1;
            } else {
                stale += 1;
            }
        }
        self.stale_invalidations += stale;
        stale
    }

    /// Fills `line` into `core`'s L1 and links the L1 slot to the line's
    /// LLC slot `llc_slot`; an M or E fill also writes the line's holder
    /// word, naming `core` and the slot as owner. `plan` is the placement
    /// decision captured by the lookup-miss scan, valid only when nothing
    /// touched the core's L1 set since (callers that ran an LLC fill —
    /// which can back-invalidate — pass `None`, and the set is scanned
    /// again).
    fn fill_l1(
        &mut self,
        core: CoreId,
        line: LineAddr,
        state: MesiState,
        llc_slot: usize,
        plan: Option<PlacePlan>,
    ) {
        let l1 = &mut self.l1s[core.0];
        let plan = plan.unwrap_or_else(|| l1.probe_or_plan(line).expect_err("line is resident"));
        let insert = l1.fill_planned(line, state, plan);
        let slot = plan.slot();
        if let Insert::Evicted(victim, victim_state) = insert {
            // Silent-eviction mode: clean (S/E) victims drop with no
            // directory message, exactly as real L1s do. The victim's
            // sharer bit — or, for E, its owner claim — goes stale, and
            // the directory's view becomes a strict superset of actual
            // holders. Soundness rests on the superset only ever being
            // consulted conservatively: invalidations to absent copies
            // are no-op messages (counted and priced as
            // `stale_invalidations`), a stale owner is downgraded or
            // probed at remote-L1 cost, and an unowned word still proves
            // no writable copy exists because silent eviction never
            // *clears* an owner claim. M victims always write back
            // visibly — dropping dirty data would break the data model,
            // not just timing.
            if !self.silent_evictions || victim_state == MesiState::Modified {
                // The directory forgets the private copy; a write-back of
                // M data lands in the victim's LLC slot.
                let ls = self.linked_llc_slot(core, slot, victim);
                let word = self.holders[ls];
                self.holders[ls] = match owner_of(word) {
                    Some(o) if o == core.0 => 0,
                    Some(_) => word,
                    None => word & !(1 << core.0),
                };
                self.fastpath.dir_hint_hits += 1;
                if victim_state == MesiState::Modified {
                    self.llc.refresh_at(ls, MesiState::Shared);
                }
            }
        }
        self.l1_links[core.0 * self.l1_slots + slot] = llc_slot as u32;
        if state != MesiState::Shared {
            self.holders[llc_slot] = owned_by(core, slot);
        }
    }

    /// Fills `line`, proven absent by the `probe_or_plan` scan that
    /// captured `plan`, into the LLC with directory word `holders` (0 for
    /// a fill whose L1 fill then writes the owner word), and returns the
    /// slot it landed in. An evicted line is back-invalidated with the
    /// holders read from the word being overwritten.
    fn fill_llc(&mut self, line: LineAddr, plan: PlacePlan, holders: u64) -> usize {
        let insert = self.llc.fill_planned(line, MesiState::Shared, plan);
        let ls = plan.slot();
        if ls >= self.holders.len() {
            self.grow_holders();
        }
        let victim_holders = std::mem::replace(&mut self.holders[ls], holders);
        if let Insert::Evicted(victim, _) = insert {
            self.back_invalidate(victim, victim_holders);
        }
        ls
    }

    /// Grows the directory to the LLC's allocated slots, after a fill
    /// opened the next way group in every set.
    #[cold]
    #[inline(never)]
    fn grow_holders(&mut self) {
        let slots = self.llc.allocated_slots();
        self.holders.reserve_exact(slots - self.holders.len());
        self.holders.resize(slots, 0);
    }

    /// Inclusive back-invalidation of an LLC `victim`: kill all private
    /// copies. An owned word leads to the owner's copy, if any; a sharer
    /// mask is a superset of actual holders (silent evictions leave stale
    /// bits, never missing ones), so walking its bits reaches every copy.
    fn back_invalidate(&mut self, victim: LineAddr, holders: u64) {
        if let Some(owner) = owner_of(holders) {
            if let Some(slot) = self.owner_copy(holders, victim) {
                self.l1s[owner].invalidate_at(slot);
                self.invalidations += 1;
            }
            return;
        }
        let mut mask = holders;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.l1s[i].invalidate(victim).is_some() {
                self.invalidations += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize) -> MemSystem {
        MemSystem::new(MemSystemConfig::cmp(cores))
    }

    #[test]
    fn cold_load_misses_to_memory_then_hits() {
        let mut m = sys(2);
        let r = m.access(CoreId(0), Addr(0x4000), AccessKind::Load);
        assert_eq!(r.level, HitLevel::Memory);
        assert_eq!(r.getm, None);
        let r = m.access(CoreId(0), Addr(0x4000), AccessKind::Load);
        assert_eq!(r.level, HitLevel::L1);
        assert_eq!(r.latency, Cycles(4));
    }

    #[test]
    fn store_then_remote_load_transfers_cache_to_cache() {
        let mut m = sys(2);
        m.access(CoreId(0), Addr(0x4000), AccessKind::Store);
        let r = m.access(CoreId(1), Addr(0x4000), AccessKind::Load);
        assert_eq!(r.level, HitLevel::RemoteL1);
        // Both now share; a store by core 0 must issue a visible GetM.
        let r = m.access(CoreId(0), Addr(0x4000), AccessKind::Store);
        assert!(r.getm.is_some(), "S->M upgrade must be a visible GetM");
    }

    #[test]
    fn exclusive_upgrade_is_silent() {
        let mut m = sys(2);
        // Load first (takes E), then store: silent upgrade, no GetM.
        m.access(CoreId(0), Addr(0x8000), AccessKind::Load);
        let r = m.access(CoreId(0), Addr(0x8000), AccessKind::Store);
        assert_eq!(r.level, HitLevel::L1);
        assert_eq!(
            r.getm, None,
            "E->M must be silent (motivates GetS re-arm probe)"
        );
    }

    #[test]
    fn probe_shared_makes_next_store_visible() {
        let mut m = sys(2);
        m.access(CoreId(0), Addr(0x8000), AccessKind::Store); // owner in M
        m.probe_shared(Addr(0x8000).line()); // monitoring-set re-arm
        let r = m.access(CoreId(0), Addr(0x8000), AccessKind::Store);
        assert!(r.getm.is_some(), "store after GetS probe must issue GetM");
    }

    #[test]
    fn store_invalidates_sharers() {
        let mut m = sys(4);
        for c in 0..4 {
            m.access(CoreId(c), Addr(0xC000), AccessKind::Load);
        }
        let r = m.access(CoreId(0), Addr(0xC000), AccessKind::Store);
        assert!(r.getm.is_some());
        // Other cores now miss.
        let r = m.access(CoreId(1), Addr(0xC000), AccessKind::Load);
        assert_ne!(r.level, HitLevel::L1);
    }

    #[test]
    fn write_miss_to_owned_line_is_remote() {
        let mut m = sys(2);
        m.access(CoreId(0), Addr(0x4000), AccessKind::Store);
        let r = m.access(CoreId(1), Addr(0x4000), AccessKind::Store);
        assert_eq!(r.level, HitLevel::RemoteL1);
        assert!(r.getm.is_some());
        // Ping-pong: core 0 stores again, remote again.
        let r = m.access(CoreId(0), Addr(0x4000), AccessKind::Store);
        assert_eq!(r.level, HitLevel::RemoteL1);
    }

    #[test]
    fn l1_capacity_causes_misses() {
        let mut m = sys(1);
        // Touch 2x the L1 line capacity (32KB / 64B = 512 lines).
        for i in 0..1024u64 {
            m.access(CoreId(0), Addr(i * 64), AccessKind::Load);
        }
        // Re-touch the first lines: they must have been evicted.
        let r = m.access(CoreId(0), Addr(0), AccessKind::Load);
        assert_ne!(r.level, HitLevel::L1);
        // But they should still be in the (much larger) LLC.
        assert_eq!(r.level, HitLevel::Llc);
    }

    #[test]
    fn llc_capacity_causes_dram_fetches() {
        let mut m = sys(1); // 1 MB LLC = 16384 lines
        for i in 0..40_000u64 {
            m.access(CoreId(0), Addr(i * 64), AccessKind::Load);
        }
        let r = m.access(CoreId(0), Addr(0), AccessKind::Load);
        assert_eq!(r.level, HitLevel::Memory);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = sys(2);
        m.access(CoreId(0), Addr(0), AccessKind::Load);
        m.access(CoreId(0), Addr(0), AccessKind::Load);
        let s = m.core_stats(CoreId(0));
        assert_eq!(s.total(), 2);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.dram_fetches, 1);
        assert_eq!(s.l1_miss_ratio(), 0.5);
        assert_eq!(m.core_stats(CoreId(1)).total(), 0);
    }

    #[test]
    fn getm_counter_tracks_ownership_traffic() {
        let mut m = sys(2);
        m.access(CoreId(0), Addr(0x100), AccessKind::Store);
        m.access(CoreId(1), Addr(0x100), AccessKind::Store);
        m.access(CoreId(1), Addr(0x100), AccessKind::Store); // M hit, silent
        assert_eq!(m.getm_total(), 2);
    }

    #[test]
    fn prefetcher_turns_streams_into_l1_hits() {
        let mut cfg = MemSystemConfig::cmp(1);
        cfg.prefetch_degree = 4;
        let mut m = MemSystem::new(cfg);
        // Stream 64 sequential lines: after the stride is detected, most
        // loads should hit prefetched lines.
        for i in 0..64u64 {
            m.access(CoreId(0), Addr(0x10_0000 + i * 64), AccessKind::Load);
        }
        let s = m.core_stats(CoreId(0));
        assert!(
            s.l1_hits > 40,
            "expected most stream loads to hit prefetched lines, got {} hits of {}",
            s.l1_hits,
            s.total()
        );
        assert!(m.prefetch_fills() > 30);

        // Baseline without prefetch: all misses.
        let mut base = MemSystem::new(MemSystemConfig::cmp(1));
        for i in 0..64u64 {
            base.access(CoreId(0), Addr(0x10_0000 + i * 64), AccessKind::Load);
        }
        assert_eq!(base.core_stats(CoreId(0)).l1_hits, 0);
    }

    #[test]
    fn prefetcher_never_steals_owned_lines() {
        let mut cfg = MemSystemConfig::cmp(2);
        cfg.prefetch_degree = 2;
        let mut m = MemSystem::new(cfg);
        // Core 1 owns line at 0x20_0040 in M state.
        m.access(CoreId(1), Addr(0x20_0040), AccessKind::Store);
        // Core 0 streams into it: the prefetcher must skip the owned line.
        m.access(CoreId(0), Addr(0x20_0000 - 64), AccessKind::Load);
        m.access(CoreId(0), Addr(0x20_0000), AccessKind::Load); // stride detected
                                                                // Core 1 still owns it: a store remains a silent M hit.
        let r = m.access(CoreId(1), Addr(0x20_0040), AccessKind::Store);
        assert_eq!(r.level, HitLevel::L1);
        assert_eq!(r.getm, None, "ownership must not have been disturbed");
    }

    #[test]
    fn random_access_does_not_trigger_prefetch() {
        let mut cfg = MemSystemConfig::cmp(1);
        cfg.prefetch_degree = 4;
        let mut m = MemSystem::new(cfg);
        for i in 0..64u64 {
            // Stride of 3 lines: never +1, so no prefetches.
            m.access(CoreId(0), Addr(0x30_0000 + i * 3 * 64), AccessKind::Load);
        }
        assert_eq!(m.prefetch_fills(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown core")]
    fn rejects_out_of_range_core() {
        let mut m = sys(1);
        m.access(CoreId(5), Addr(0), AccessKind::Load);
    }

    // ---- Fast-path specific tests --------------------------------------

    /// A short deterministic trace mixing hits, misses, upgrades, and
    /// cross-core traffic, used by the on/off equivalence tests below.
    fn mixed_trace(m: &mut MemSystem) -> Vec<AccessResult> {
        let mut out = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let core = CoreId(((x >> 8) % 4) as usize);
            let addr = Addr((x >> 16) % 128 * 64);
            let kind = if x.is_multiple_of(3) {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            out.push(m.access(core, addr, kind));
            if x.is_multiple_of(17) {
                m.probe_shared(addr.line());
            }
        }
        out
    }

    #[test]
    fn fast_path_off_is_bit_identical() {
        let mut fast = MemSystem::new(MemSystemConfig::cmp(4));
        let mut slow_cfg = MemSystemConfig::cmp(4);
        slow_cfg.fast_path = false;
        let mut slow = MemSystem::new(slow_cfg);
        assert_eq!(mixed_trace(&mut fast), mixed_trace(&mut slow));
        for c in 0..4 {
            let (a, b) = (fast.core_stats(CoreId(c)), slow.core_stats(CoreId(c)));
            assert_eq!(a.l1_hits, b.l1_hits, "core {c}");
            assert_eq!(a.llc_hits, b.llc_hits, "core {c}");
            assert_eq!(a.remote_hits, b.remote_hits, "core {c}");
            assert_eq!(a.dram_fetches, b.dram_fetches, "core {c}");
        }
        assert_eq!(fast.getm_total(), slow.getm_total());
        assert_eq!(fast.invalidation_total(), slow.invalidation_total());
        // The knob gates the shared-line LLC route; off, no arm of it
        // may fire, and on, this trace must reach it.
        let route = |m: &MemSystem| {
            let f = m.fastpath_stats();
            f.stable_reloads + f.shared_joins + f.s_state_peeks
        };
        assert!(route(&fast) > 0, "the trace should reach the LLC route");
        assert_eq!(route(&slow), 0);
    }

    #[test]
    fn l1_links_name_the_llc_slot_and_holder_under_evictions() {
        // Random multi-core traces over lines packed onto a few LLC sets,
        // so the LLC evicts and back-invalidates, with evictions visible
        // and silent. Afterwards every L1-resident line's linked LLC slot
        // must still hold that line, and the slot's holder word must name
        // the core (as owner at this L1 slot, or as a sharer). Every owned
        // word's recorded L1 slot must hold its line; in silent mode it may
        // instead have lost it, and then the owner's set holds no copy.
        for silent in [false, true] {
            let mut x = 0x1D_5EEDu64;
            let mut next = move |n: u64| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % n
            };
            let (mut llc_evictions, mut stale_owners) = (0, 0);
            for _case in 0..40 {
                let cores = 1usize << next(3);
                let mut cfg = MemSystemConfig::cmp(cores);
                cfg.silent_evictions = silent;
                let mut m = MemSystem::new(cfg);
                let llc_sets = CacheConfig::llc(cores).sets() as u64;
                let sets: Vec<u64> = (0..1 + next(3)).map(|_| next(llc_sets)).collect();
                for _ in 0..2000 {
                    let set = sets[next(sets.len() as u64) as usize];
                    let line = LineAddr(set + next(40) * llc_sets);
                    let core = CoreId(next(cores as u64) as usize);
                    let addr = Addr(line.0 * crate::types::LINE_BYTES);
                    match next(10) {
                        0 => {
                            m.probe_shared(line);
                        }
                        1..=3 => {
                            m.access(core, addr, AccessKind::Store);
                        }
                        _ => {
                            m.access(core, addr, AccessKind::Load);
                        }
                    }
                }
                llc_evictions += m.llc.counters().2;
                for c in 0..cores {
                    for slot in 0..m.l1_slots {
                        let Some(line) = m.l1s[c].line_at(slot) else {
                            continue;
                        };
                        let ls = m.l1_links[c * m.l1_slots + slot];
                        assert!(
                            m.llc.hint_holds(ls, line),
                            "core {c}: {line} links to LLC slot {ls}, which holds another line"
                        );
                        let word = m.holders[ls as usize];
                        let named = match owner_of(word) {
                            Some(_) => word == owned_by(CoreId(c), slot),
                            None => word & (1 << c) != 0,
                        };
                        assert!(
                            named,
                            "core {c} holds {line} at L1 slot {slot} but its holder word {word:#x} \
                             does not name it"
                        );
                    }
                }
                for (ls, &word) in m.holders.iter().enumerate() {
                    let Some(owner) = owner_of(word) else {
                        continue;
                    };
                    let line = m
                        .llc
                        .line_at(ls)
                        .expect("an owned word's LLC slot is valid");
                    let slot = (word & !OWNED) >> OWNER_SLOT_SHIFT;
                    if !m.l1s[owner].hint_holds(slot as u32, line) {
                        assert!(silent, "core {owner} lost owned {line} from L1 slot {slot}");
                        assert_eq!(
                            m.l1s[owner].probe(line),
                            None,
                            "{line} moved in core {owner}"
                        );
                        stale_owners += 1;
                    }
                }
            }
            assert!(llc_evictions > 0, "the traces never evicted from the LLC");
            assert_eq!(
                stale_owners > 0,
                silent,
                "stale owner words: {stale_owners}"
            );
        }
    }

    #[test]
    fn a_fifth_way_grows_the_llc_and_directory_by_one_group() {
        // Four lines in one LLC set fit its first way group; the fifth
        // opens the second group in every set, for the tag store and the
        // directory alike, and L1 traffic never grows either.
        let mut m = sys(2);
        let sets = CacheConfig::llc(2).sets();
        let group = sets * 4;
        let line = |tag: usize| Addr((7 + tag * sets) as u64 * crate::types::LINE_BYTES);
        assert_eq!((m.llc.allocated_slots(), m.holders.len()), (0, 0));
        for tag in 0..4 {
            m.access(CoreId(tag % 2), line(tag), AccessKind::Store);
            m.access(CoreId(0), line(tag), AccessKind::Load);
        }
        assert_eq!((m.llc.allocated_slots(), m.holders.len()), (group, group));
        m.access(CoreId(1), line(4), AccessKind::Load);
        assert_eq!(
            (m.llc.allocated_slots(), m.holders.len()),
            (2 * group, 2 * group)
        );
        for l1 in &m.l1s {
            assert_eq!(l1.allocated_slots(), m.l1_slots, "a 4-way L1 is one group");
        }
    }

    #[test]
    fn shared_store_upgrade_is_a_visible_getm() {
        let mut m = sys(2);
        m.access(CoreId(0), Addr(0x4000), AccessKind::Load);
        m.access(CoreId(1), Addr(0x4000), AccessKind::Load); // both Shared
        m.access(CoreId(0), Addr(0x4000), AccessKind::Load); // L1 hit in S
        let r = m.access(CoreId(0), Addr(0x4000), AccessKind::Store);
        assert!(
            r.getm.is_some(),
            "S->M after a stable S hit must remain a visible GetM"
        );
        let r = m.access(CoreId(1), Addr(0x4000), AccessKind::Load);
        assert_ne!(r.level, HitLevel::L1, "core 1's copy was invalidated");
    }
}
