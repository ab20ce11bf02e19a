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
//! * The directory is unbounded and keyed by line address. The paper's
//!   monitoring set is explicitly *not* subject to directory conflict
//!   evictions, so an unbounded directory does not change the observable
//!   behaviour being studied.
//! * Sharer bitmasks may be stale after silent L1 evictions of Shared lines;
//!   invalidations sent to non-holders are harmless, as in real imprecise
//!   directories.
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
//!   word, and [`MemSystem::load_hinted`] skips the directory hash probe
//!   with a caller-owned, self-validating [`LoadHint`]. Both are gated by
//!   [`MemSystemConfig::fast_path`].
//!
//! Every path replicates the general transaction's side effects exactly
//! (LRU ticks, hit counters, telemetry), which is what keeps same-seed runs
//! bit-identical — enforced by the `shadow-check` feature, which embeds a
//! [`crate::reference::RefMemSystem`] and asserts equal results on every
//! access.

use crate::cache::{CacheConfig, Insert, MesiState, PlacePlan, SetAssocCache};
use crate::dir::DirTable;
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

/// Sentinel for [`DirEntry::owner`]: no owning core.
const NO_OWNER: u8 = u8::MAX;
/// Sentinel for [`DirEntry::llc_slot`]: hint unknown.
const NO_HINT: u32 = u32::MAX;
/// Sentinel for `MemSystem::dir_hints`: no directory slot recorded.
const NO_DIR_SLOT: u32 = u32::MAX;

/// One directory entry, packed to 16 bytes (the directory is the hottest
/// associative structure in the simulator; see `crate::dir`).
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    /// Bitmask of cores that may hold the line in S.
    sharers: u64,
    /// LLC slot the line occupied when last filled — a self-validating
    /// hint (checked with `hint_holds` before use) that turns the common
    /// LLC touch into an O(1) slot refresh instead of a 16-way probe.
    llc_slot: u32,
    /// Core holding the line in M or E ([`NO_OWNER`] if none).
    owner: u8,
}

impl Default for DirEntry {
    fn default() -> Self {
        DirEntry {
            sharers: 0,
            llc_slot: NO_HINT,
            owner: NO_OWNER,
        }
    }
}

impl DirEntry {
    #[inline]
    fn owner(&self) -> Option<CoreId> {
        if self.owner == NO_OWNER {
            None
        } else {
            Some(CoreId(self.owner as usize))
        }
    }
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
    /// L1 evictions whose victim's directory entry was found via the
    /// per-slot hint (generation-validated), skipping the hash probe.
    /// Counts whether or not [`MemSystemConfig::fast_path`] is on.
    pub dir_hint_hits: u64,
}

/// A caller-owned, self-validating cache of one line's directory slot,
/// for callers that re-access the same line periodically (the spin-poll
/// sweep). Pass to [`MemSystem::load_hinted`]: a hint whose directory
/// slot still holds the line's entry skips the directory hash probe
/// entirely. The validation is sound on its own — keys are unique, so a
/// slot holding the key *is* the key's entry, wherever churn may have
/// moved things — and a stale or default hint just falls back to the
/// probe: the hint can never change an access's outcome, only its
/// wall-clock cost.
#[derive(Debug, Clone, Copy)]
pub struct LoadHint {
    dir_slot: u32,
}

impl Default for LoadHint {
    fn default() -> Self {
        LoadHint {
            dir_slot: NO_DIR_SLOT,
        }
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
    directory: DirTable<DirEntry>,
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
    /// Slots per L1 (`sets * ways`; stride of `dir_hints` per core).
    l1_slots: usize,
    /// Per-`(core, L1 slot)` directory-slot hints, flat-indexed
    /// `core * l1_slots + slot`: the directory slot of the entry for the
    /// line currently filling that L1 slot, recorded at fill time. Lets
    /// the victim path on the *next* fill of that slot update the
    /// victim's directory entry without a hash probe; validated by
    /// `slot_holds` (sound on its own — a slot holding the key *is* the
    /// key's unique entry), with any stale hint falling back to the probe.
    dir_hints: Vec<u32>,
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
            cores > 0 && cores <= 64,
            "cores must be in 1..=64, got {cores}"
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
    pub fn new(config: MemSystemConfig) -> Self {
        MemSystem {
            l1s: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l1))
                .collect(),
            llc: SetAssocCache::new(config.llc),
            directory: DirTable::new(),
            latency: config.latency,
            stats: vec![CoreMemStats::default(); config.cores],
            getm_count: 0,
            invalidations: 0,
            prefetch_degree: config.prefetch_degree,
            last_load: vec![None; config.cores],
            prefetch_fills: 0,
            fast_path: config.fast_path,
            l1_slots: config.l1.sets() * config.l1.ways,
            dir_hints: vec![NO_DIR_SLOT; config.cores * config.l1.sets() * config.l1.ways],
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
    /// [`LoadHint`] that skips the directory hash probe while the
    /// line's entry provably has not moved. Byte-identical outcomes to
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
        if let Some(entry) = self.directory.get(line.0) {
            if entry.owner != NO_OWNER {
                return;
            }
        }
        let entry = self.directory.entry_or_default(line.0);
        entry.sharers |= 1 << core.0;
        let hint = entry.llc_slot;
        // Already LLC-resident (valid hint): refresh in place — the same
        // tick advance and meta update `insert_slot`'s resident path would
        // perform, minus the set scan.
        let ls = if self.llc.hint_holds(hint, line) {
            self.llc.refresh_at(hint as usize, MesiState::Shared);
            hint
        } else {
            self.fill_llc_slot(line)
        };
        if let Some(entry) = self.directory.get_mut(line.0) {
            entry.llc_slot = ls;
        }
        self.fill_l1(core, line, MesiState::Shared, NO_DIR_SLOT, None);
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

        // One directory probe for the whole transaction: read the entry,
        // compute the outcome, write it back before any fill can move
        // table slots. `llc_at` is the LLC slot the line is known to
        // occupy (hint or probe); `None` means a full fill must run. A
        // valid caller hint replaces the probe with a direct index.
        let dslot = match &hint {
            Some(h) if self.directory.slot_holds(h.dir_slot as usize, line.0) => {
                h.dir_slot as usize
            }
            _ => self.directory.entry_slot(line.0),
        };
        let e = *self.directory.at(dslot);
        let me = 1u64 << core.0;

        // Spinning-path fast route (DESIGN.md §13): a load of an unowned
        // line whose LLC slot hint validates is an LLC hit whose entire
        // directory transition is known up front — at most one word
        // written back, and for a stably-shared line (our sharer bit
        // already set) the write-back is an identity write, so the
        // directory is only *read*. The general walk below computes the
        // same outcome; this route just skips constructing it. Invariant
        // argument: with no owner there is no copy to downgrade or
        // invalidate, so no coherence transition can be missed; the LLC
        // touch and L1 fill below are the exact bookkeeping the general
        // path performs (fused hit+refresh, fill after a proven miss).
        if self.fast_path && e.owner == NO_OWNER && self.llc.hint_holds(e.llc_slot, line) {
            let ls = e.llc_slot as usize;
            let state = if e.sharers | me == me {
                // Sole holder re-takes the line in E (the usual reload of
                // a line this core's L1 evicted).
                *self.directory.at_mut(dslot) = DirEntry {
                    sharers: 0,
                    llc_slot: e.llc_slot,
                    owner: core.0 as u8,
                };
                self.fastpath.stable_reloads += 1;
                MesiState::Exclusive
            } else if e.sharers & me != 0 {
                // Stably shared: sharers, owner, and hint all unchanged —
                // read-only peek, nothing written.
                self.fastpath.s_state_peeks += 1;
                MesiState::Shared
            } else {
                // Join the sharer set: one word written.
                *self.directory.at_mut(dslot) = DirEntry {
                    sharers: e.sharers | me,
                    llc_slot: e.llc_slot,
                    owner: NO_OWNER,
                };
                self.fastpath.shared_joins += 1;
                MesiState::Shared
            };
            self.llc.hit_refresh_at(ls, MesiState::Shared);
            self.fill_l1(core, line, state, dslot as u32, Some(plan));
            self.record(core, HitLevel::Llc);
            if let Some(h) = hint {
                h.dir_slot = dslot as u32;
            }
            return AccessResult {
                latency: self.latency.llc_hit,
                level: HitLevel::Llc,
                getm: None,
            };
        }

        let mut llc_at = None;
        let mut llc_plan = None;
        if self.llc.hint_holds(e.llc_slot, line) {
            llc_at = Some(e.llc_slot);
        }
        let mut sharers;
        let level = if let Some(owner) = e.owner() {
            if owner == core {
                // Directory thought we owned it but the L1 evicted it
                // silently (E) or wrote it back; treat as LLC hit.
                sharers = e.sharers | me;
                HitLevel::Llc
            } else {
                // Downgrade the remote owner to Shared; cache-to-cache fill.
                sharers = e.sharers | (1 << owner.0) | me;
                self.l1s[owner.0].set_state(line, MesiState::Shared);
                HitLevel::RemoteL1
            }
        } else {
            sharers = e.sharers | me;
            match llc_at {
                // Known-resident: replicate the lookup hit in place.
                Some(ls) => {
                    self.llc.hit_at(ls as usize);
                    HitLevel::Llc
                }
                // Fused probe + placement scan (the LLC twin of the L1's
                // `lookup_or_plan`): a hit books identically to
                // `lookup`; a miss captures the placement plan the
                // fill below applies, saving the second set scan.
                None => match self.llc.lookup_or_plan(line) {
                    Ok((_state, ls)) => {
                        llc_at = Some(ls as u32);
                        HitLevel::Llc
                    }
                    Err(plan) => {
                        llc_plan = Some(plan);
                        HitLevel::Memory
                    }
                },
            }
        };

        // Take exclusive (E) if we are the only holder; the silent E->M
        // upgrade this enables is exactly why QWAIT's re-arm must issue a
        // GetS probe (modeled by `probe_shared`).
        let mut owner = NO_OWNER;
        let state = if sharers == me {
            owner = core.0 as u8;
            sharers = 0;
            MesiState::Exclusive
        } else {
            MesiState::Shared
        };
        *self.directory.at_mut(dslot) = DirEntry {
            sharers,
            llc_slot: llc_at.unwrap_or(NO_HINT),
            owner,
        };
        let (fill_dslot, fill_plan) = match llc_at {
            // Already resident: refresh in place instead of re-probing.
            // The L1 set is untouched, so the lookup's plan still holds.
            Some(ls) => {
                self.llc.refresh_at(ls as usize, MesiState::Shared);
                (dslot as u32, Some(plan))
            }
            None => {
                // The LLC fill may delete an entry (inclusive
                // back-invalidation), moving others; re-find the slot.
                // The back-invalidation can also free a way in this
                // core's target set, so the placement plan is stale.
                let ls = match llc_plan {
                    // Proven absent by the fused scan, set untouched
                    // since: apply the captured plan.
                    Some(plan) => self.fill_llc_planned(line, plan),
                    None => self.fill_llc_slot(line),
                };
                let j = self
                    .directory
                    .find_slot(line.0)
                    .expect("entry written this transaction");
                self.directory.at_mut(j).llc_slot = ls;
                (j as u32, None)
            }
        };
        self.fill_l1(core, line, state, fill_dslot, fill_plan);
        if let Some(h) = hint {
            h.dir_slot = fill_dslot;
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
                    // Upgrade: GetM invalidating other sharers; directory
                    // access.
                    self.getm_count += 1;
                    let dslot = self.directory.entry_slot(line.0);
                    let e = *self.directory.at(dslot);
                    let stale = self.invalidate_holders(core, line, e.sharers, e.owner());
                    *self.directory.at_mut(dslot) = DirEntry {
                        sharers: 0,
                        llc_slot: e.llc_slot,
                        owner: core.0 as u8,
                    };
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

        // Write miss: GetM. Same single-probe read/write-back shape as
        // `load`.
        self.getm_count += 1;
        let dslot = self.directory.entry_slot(line.0);
        let e = *self.directory.at(dslot);
        let remote_owner = e.owner().filter(|&o| o != core);
        let mut llc_at = None;
        let mut llc_plan = None;
        if self.llc.hint_holds(e.llc_slot, line) {
            llc_at = Some(e.llc_slot);
        }
        let mut stale = 0u64;
        let level = if let Some(owner) = remote_owner {
            // The owner's copy may already be gone (silent E-state
            // eviction); the invalidation message is sent regardless,
            // and the RemoteL1 level already prices the round-trip.
            if self.l1s[owner.0].invalidate(line).is_none() {
                self.stale_invalidations += 1;
            }
            self.invalidations += 1;
            HitLevel::RemoteL1
        } else {
            let lvl = match llc_at {
                Some(ls) => {
                    self.llc.hit_at(ls as usize);
                    HitLevel::Llc
                }
                // Fused probe + placement scan, as on the load path.
                None => match self.llc.lookup_or_plan(line) {
                    Ok((_state, ls)) => {
                        llc_at = Some(ls as u32);
                        HitLevel::Llc
                    }
                    Err(plan) => {
                        llc_plan = Some(plan);
                        HitLevel::Memory
                    }
                },
            };
            stale = self.invalidate_holders(core, line, e.sharers, e.owner());
            lvl
        };

        *self.directory.at_mut(dslot) = DirEntry {
            sharers: 0,
            llc_slot: llc_at.unwrap_or(NO_HINT),
            owner: core.0 as u8,
        };
        let (fill_dslot, fill_plan) = match llc_at {
            Some(ls) => {
                self.llc.refresh_at(ls as usize, MesiState::Shared);
                (dslot as u32, Some(plan))
            }
            None => {
                // LLC fill may back-invalidate into this core's target
                // set: re-find the directory slot, drop the stale plan.
                let ls = match llc_plan {
                    Some(plan) => self.fill_llc_planned(line, plan),
                    None => self.fill_llc_slot(line),
                };
                let j = self
                    .directory
                    .find_slot(line.0)
                    .expect("entry written this transaction");
                self.directory.at_mut(j).llc_slot = ls;
                (j as u32, None)
            }
        };
        self.fill_l1(core, line, MesiState::Modified, fill_dslot, fill_plan);
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
        if let Some(entry) = self.directory.get_mut(line.0) {
            if entry.owner != NO_OWNER {
                let owner = entry.owner as usize;
                entry.sharers |= 1 << owner;
                entry.owner = NO_OWNER;
                let hint = entry.llc_slot;
                self.l1s[owner].set_state(line, MesiState::Shared);
                if self.llc.hint_holds(hint, line) {
                    self.llc.refresh_at(hint as usize, MesiState::Shared);
                } else {
                    let ls = self.fill_llc_slot(line);
                    if let Some(entry) = self.directory.get_mut(line.0) {
                        entry.llc_slot = ls;
                    }
                }
                return self.latency.remote_l1;
            }
        }
        self.latency.llc_hit
    }

    /// Invalidates every L1 copy of `line` held by a core other than
    /// `core`, per the directory's (possibly stale, always superset)
    /// sharer/owner view. Walks only the set bits instead of every core.
    ///
    /// Returns the number of *stale* messages sent — directory-listed
    /// holders whose copy was already (silently) gone. Always zero in
    /// visible-eviction mode; in silent mode callers price the fan-out
    /// wait on the store path with it.
    fn invalidate_holders(
        &mut self,
        core: CoreId,
        line: LineAddr,
        sharers: u64,
        owner: Option<CoreId>,
    ) -> u64 {
        let mut mask = sharers;
        if let Some(o) = owner {
            mask |= 1 << o.0;
        }
        mask &= !(1u64 << core.0);
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

    /// `dslot` is the directory slot of `line`'s entry if the caller
    /// holds a still-valid handle (else [`NO_DIR_SLOT`]); it is cached
    /// per L1 slot so the *next* eviction from that slot can update the
    /// victim's directory entry probe-free.
    /// `plan` is the placement decision captured by the lookup-miss scan,
    /// valid only when nothing touched the core's L1 set since (callers
    /// that ran an LLC fill — which can back-invalidate — pass `None`).
    fn fill_l1(
        &mut self,
        core: CoreId,
        line: LineAddr,
        state: MesiState,
        dslot: u32,
        plan: Option<PlacePlan>,
    ) {
        let (insert, slot) = match plan {
            Some(p) => (
                self.l1s[core.0].fill_planned(line, state, p),
                SetAssocCache::plan_slot(&p),
            ),
            None => self.l1s[core.0].insert_slot_missed(line, state),
        };
        let hi = core.0 * self.l1_slots + slot;
        let victim_dslot = self.dir_hints[hi];
        self.dir_hints[hi] = dslot;
        if let Insert::Evicted(victim, victim_state) = insert {
            // Silent-eviction mode: clean (S/E) victims drop with no
            // directory message, exactly as real L1s do. The victim's
            // sharer bit — or, for E, its owner claim — goes stale, and
            // the directory's view becomes a strict superset of actual
            // holders. Soundness rests on the superset only ever being
            // consulted conservatively: invalidations to absent copies
            // are no-op messages (counted and priced as
            // `stale_invalidations`), a stale owner is downgraded or
            // probed at remote-L1 cost, and `owner == NO_OWNER` still
            // proves no writable copy exists because silent eviction
            // never *clears* an owner claim. M victims always write back
            // visibly — dropping dirty data would break the data model,
            // not just timing.
            if self.silent_evictions && victim_state != MesiState::Modified {
                return;
            }
            // Writeback of M lines lands in the LLC; directory forgets the
            // private copy either way. The victim's entry is found via the
            // slot hint recorded when the victim was filled; `slot_holds`
            // is the full validity proof (unique keys), so the hash probe
            // is skipped on the steady-state eviction path.
            let mut victim_hint = NO_HINT;
            let entry = if self.directory.slot_holds(victim_dslot as usize, victim.0) {
                self.fastpath.dir_hint_hits += 1;
                Some(self.directory.at_mut(victim_dslot as usize))
            } else {
                self.directory.get_mut(victim.0)
            };
            if let Some(entry) = entry {
                if entry.owner == core.0 as u8 {
                    entry.owner = NO_OWNER;
                }
                entry.sharers &= !(1 << core.0);
                victim_hint = entry.llc_slot;
            }
            if victim_state == MesiState::Modified {
                if self.llc.hint_holds(victim_hint, victim) {
                    self.llc.refresh_at(victim_hint as usize, MesiState::Shared);
                } else {
                    let ls = self.fill_llc_slot(victim);
                    if let Some(entry) = self.directory.get_mut(victim.0) {
                        entry.llc_slot = ls;
                    }
                }
            }
        }
    }

    /// `fill_llc` of the original transaction model: inserts `line` into
    /// the LLC (inclusive back-invalidation on eviction) and returns the
    /// slot it landed in, which callers cache as the directory's
    /// `llc_slot` hint.
    fn fill_llc_slot(&mut self, line: LineAddr) -> u32 {
        let (insert, slot) = self.llc.insert_slot(line, MesiState::Shared);
        if let Insert::Evicted(victim, _) = insert {
            self.back_invalidate(victim);
        }
        slot as u32
    }

    /// [`fill_llc_slot`](Self::fill_llc_slot) for a line the caller's
    /// fused `lookup_or_plan` scan just proved absent from the LLC, with
    /// the placement plan that scan captured (nothing touches the LLC
    /// between the scan and this fill, so the plan is still valid —
    /// checked in debug builds by `fill_planned` recomputing it). One set
    /// scan per LLC miss-fill, the same fusion PR 5 applied to the L1.
    fn fill_llc_planned(&mut self, line: LineAddr, plan: PlacePlan) -> u32 {
        let insert = self.llc.fill_planned(line, MesiState::Shared, plan);
        let slot = SetAssocCache::plan_slot(&plan);
        if let Insert::Evicted(victim, _) = insert {
            self.back_invalidate(victim);
        }
        slot as u32
    }

    /// Inclusive back-invalidation of an LLC `victim`: kill all private
    /// copies. The directory's sharer/owner view is a superset of actual
    /// holders (silent evictions leave stale bits, never missing ones),
    /// so walking its bits reaches every copy.
    fn back_invalidate(&mut self, victim: LineAddr) {
        let holders = match self.directory.remove(victim.0) {
            Some(e) => {
                e.sharers
                    | if e.owner != NO_OWNER {
                        1u64 << e.owner
                    } else {
                        0
                    }
            }
            None => 0,
        };
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
