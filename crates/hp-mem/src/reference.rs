//! Reference (slow-path) memory system used to validate the fast path.
//!
//! This module preserves the pre-fast-path implementation of the memory
//! hierarchy as an executable specification: an array-of-structs per-set
//! cache and a `std::collections::HashMap` directory keyed by line
//! address, with every access walking the full L1 → directory → LLC MESI
//! transaction. It is deliberately implemented with *different* data
//! structures than [`crate::system::MemSystem`] (nested `Vec<Vec<Way>>`
//! sets instead of flat tag arrays, a map instead of holder words kept
//! beside the LLC tags, a full sweep of every L1 on back-invalidation
//! instead of a walk of the holder bits) so that a shared bug in a clever
//! layout cannot hide a divergence. What it checks is every shortcut
//! `MemSystem` takes: the stable-state short-circuit, the shared-line LLC
//! route, the L1-to-LLC slot links, the caller-owned
//! [`crate::system::LoadHint`], and the fused L1/LLC lookup-and-placement
//! scans.
//!
//! Uses:
//!
//! * The `shadow-check` cargo feature embeds a [`RefMemSystem`] inside
//!   every `MemSystem` and asserts, on each access, that fast and
//!   reference paths produce identical [`AccessResult`]s and interconnect
//!   counters.
//! * `tests/properties_kernels.rs` drives randomized access traces through
//!   both systems standalone and compares results, per-core telemetry, and
//!   probe outcomes.
//!
//! This module is compiled unconditionally (tests use it without the
//! feature); only the embedded shadow instance is feature-gated.

use std::collections::HashMap;

use crate::cache::{CacheConfig, Insert, MesiState};
use crate::system::{AccessResult, CoreMemStats, MemSystemConfig};
use crate::types::{AccessKind, Addr, CoreId, HitLevel, LineAddr};
use hp_sim::time::Cycles;

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    state: MesiState,
    last_used: u64,
    valid: bool,
}

/// The original array-of-structs set-associative cache.
#[derive(Debug, Clone)]
struct RefCache {
    sets: Vec<Vec<Way>>,
    set_mask: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        RefCache {
            sets: (0..sets)
                .map(|_| {
                    vec![
                        Way {
                            tag: 0,
                            state: MesiState::Shared,
                            last_used: 0,
                            valid: false,
                        };
                        config.ways
                    ]
                })
                .collect(),
            set_mask: sets as u64 - 1,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    fn tag_of(&self, line: LineAddr) -> u64 {
        line.0 >> self.set_mask.trailing_ones()
    }

    fn lookup(&mut self, line: LineAddr) -> Option<MesiState> {
        self.tick += 1;
        let tick = self.tick;
        let tag = self.tag_of(line);
        let set = self.set_of(line);
        for way in &mut self.sets[set] {
            if way.valid && way.tag == tag {
                way.last_used = tick;
                self.hits += 1;
                return Some(way.state);
            }
        }
        self.misses += 1;
        None
    }

    fn state(&self, line: LineAddr) -> Option<MesiState> {
        let tag = self.tag_of(line);
        self.sets[self.set_of(line)]
            .iter()
            .find(|w| w.valid && w.tag == tag)
            .map(|w| w.state)
    }

    fn set_state(&mut self, line: LineAddr, state: MesiState) -> bool {
        let tag = self.tag_of(line);
        let set = self.set_of(line);
        for way in &mut self.sets[set] {
            if way.valid && way.tag == tag {
                way.state = state;
                return true;
            }
        }
        false
    }

    fn insert(&mut self, line: LineAddr, state: MesiState) -> Insert {
        self.tick += 1;
        let tick = self.tick;
        let tag = self.tag_of(line);
        let set_idx = self.set_of(line);
        let shift = self.set_mask.trailing_ones();
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.state = state;
            way.last_used = tick;
            return Insert::Placed;
        }
        if let Some(way) = set.iter_mut().find(|w| !w.valid) {
            *way = Way {
                tag,
                state,
                last_used: tick,
                valid: true,
            };
            return Insert::Placed;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| w.last_used)
            .expect("non-empty set");
        let evicted_line = LineAddr((victim.tag << shift) | set_idx as u64);
        let evicted_state = victim.state;
        *victim = Way {
            tag,
            state,
            last_used: tick,
            valid: true,
        };
        self.evictions += 1;
        Insert::Evicted(evicted_line, evicted_state)
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<MesiState> {
        let tag = self.tag_of(line);
        let set = self.set_of(line);
        for way in &mut self.sets[set] {
            if way.valid && way.tag == tag {
                way.valid = false;
                return Some(way.state);
            }
        }
        None
    }

    fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct RefDirEntry {
    owner: Option<CoreId>,
    sharers: u64,
}

/// Reference multicore memory hierarchy — the executable specification
/// that [`crate::system::MemSystem`]'s fast paths are validated against.
///
/// Same observable API surface as `MemSystem` (access results, telemetry,
/// interconnect counters), implemented as full per-access transactions
/// with no slot hints, no fused directory probes, and no shortcut routes.
#[derive(Debug, Clone)]
pub struct RefMemSystem {
    l1s: Vec<RefCache>,
    llc: RefCache,
    directory: HashMap<u64, RefDirEntry>,
    latency: crate::system::LatencyModel,
    stats: Vec<CoreMemStats>,
    getm_count: u64,
    invalidations: u64,
    prefetch_degree: usize,
    last_load: Vec<Option<u64>>,
    prefetch_fills: u64,
}

impl RefMemSystem {
    /// Builds the reference hierarchy described by `config`.
    pub fn new(config: MemSystemConfig) -> Self {
        RefMemSystem {
            l1s: (0..config.cores)
                .map(|_| RefCache::new(config.l1))
                .collect(),
            llc: RefCache::new(config.llc),
            directory: HashMap::new(),
            latency: config.latency,
            stats: vec![CoreMemStats::default(); config.cores],
            getm_count: 0,
            invalidations: 0,
            prefetch_degree: config.prefetch_degree,
            last_load: vec![None; config.cores],
            prefetch_fills: 0,
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

    /// Total prefetch fills issued.
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// `(hits, misses, evictions)` of the LLC tag array.
    pub fn llc_counters(&self) -> (u64, u64, u64) {
        self.llc.counters()
    }

    /// L1 MESI state of `line` in `core`'s cache, if resident.
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

    /// Performs one load or store by `core` at `addr` as a full MESI
    /// transaction.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for this system.
    pub fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind) -> AccessResult {
        assert!(core.0 < self.l1s.len(), "unknown {core}");
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

    fn prefetch_fill(&mut self, core: CoreId, line: LineAddr) {
        if self.l1s[core.0].state(line).is_some() {
            return;
        }
        if let Some(entry) = self.directory.get(&line.0) {
            if entry.owner.is_some() {
                return;
            }
        }
        self.directory.entry(line.0).or_default().sharers |= 1 << core.0;
        self.fill_llc(line);
        self.fill_l1(core, line, MesiState::Shared);
        self.prefetch_fills += 1;
    }

    fn load(&mut self, core: CoreId, line: LineAddr) -> AccessResult {
        if self.l1s[core.0].lookup(line).is_some() {
            self.record(core, HitLevel::L1);
            return AccessResult {
                latency: self.latency.l1_hit,
                level: HitLevel::L1,
                getm: None,
            };
        }

        let entry = self.directory.entry(line.0).or_default();
        let level = if let Some(owner) = entry.owner {
            if owner == core {
                entry.owner = None;
                entry.sharers |= 1 << core.0;
                HitLevel::Llc
            } else {
                entry.owner = None;
                entry.sharers |= (1 << owner.0) | (1 << core.0);
                self.l1s[owner.0].set_state(line, MesiState::Shared);
                HitLevel::RemoteL1
            }
        } else if self.llc.lookup(line).is_some() {
            entry.sharers |= 1 << core.0;
            HitLevel::Llc
        } else {
            entry.sharers |= 1 << core.0;
            HitLevel::Memory
        };

        let sole = {
            let entry = self.directory.get(&line.0).expect("just inserted");
            entry.sharers == (1 << core.0) && entry.owner.is_none()
        };
        let state = if sole {
            MesiState::Exclusive
        } else {
            MesiState::Shared
        };
        if sole {
            let entry = self.directory.get_mut(&line.0).expect("present");
            entry.owner = Some(core);
            entry.sharers = 0;
        }
        self.fill_llc(line);
        self.fill_l1(core, line, state);
        self.record(core, level);
        AccessResult {
            latency: self.latency.of_level(level),
            level,
            getm: None,
        }
    }

    fn store(&mut self, core: CoreId, line: LineAddr) -> AccessResult {
        match self.l1s[core.0].lookup(line) {
            Some(MesiState::Modified) => {
                self.record(core, HitLevel::L1);
                return AccessResult {
                    latency: self.latency.l1_hit,
                    level: HitLevel::L1,
                    getm: None,
                };
            }
            Some(MesiState::Exclusive) => {
                self.l1s[core.0].set_state(line, MesiState::Modified);
                self.record(core, HitLevel::L1);
                return AccessResult {
                    latency: self.latency.l1_hit,
                    level: HitLevel::L1,
                    getm: None,
                };
            }
            Some(MesiState::Shared) => {
                self.getm_count += 1;
                self.invalidate_others(core, line);
                let entry = self.directory.entry(line.0).or_default();
                entry.owner = Some(core);
                entry.sharers = 0;
                self.l1s[core.0].set_state(line, MesiState::Modified);
                self.record(core, HitLevel::Llc);
                return AccessResult {
                    latency: self.latency.llc_hit,
                    level: HitLevel::Llc,
                    getm: Some(line),
                };
            }
            None => {}
        }

        self.getm_count += 1;
        let remote_owner = self
            .directory
            .get(&line.0)
            .and_then(|e| e.owner)
            .filter(|&o| o != core);
        let level = if let Some(owner) = remote_owner {
            let _ = self.l1s[owner.0].invalidate(line);
            self.invalidations += 1;
            HitLevel::RemoteL1
        } else if self.llc.lookup(line).is_some() {
            self.invalidate_others(core, line);
            HitLevel::Llc
        } else {
            self.invalidate_others(core, line);
            HitLevel::Memory
        };

        let entry = self.directory.entry(line.0).or_default();
        entry.owner = Some(core);
        entry.sharers = 0;
        self.fill_llc(line);
        self.fill_l1(core, line, MesiState::Modified);
        self.record(core, level);
        AccessResult {
            latency: self.latency.of_level(level),
            level,
            getm: Some(line),
        }
    }

    /// GetS probe on `line` (see `MemSystem::probe_shared`).
    pub fn probe_shared(&mut self, line: LineAddr) -> Cycles {
        if let Some(entry) = self.directory.get_mut(&line.0) {
            if let Some(owner) = entry.owner.take() {
                entry.sharers |= 1 << owner.0;
                self.l1s[owner.0].set_state(line, MesiState::Shared);
                self.fill_llc(line);
                return self.latency.remote_l1;
            }
        }
        self.latency.llc_hit
    }

    fn invalidate_others(&mut self, core: CoreId, line: LineAddr) {
        let sharers = self.directory.get(&line.0).map(|e| e.sharers).unwrap_or(0);
        let owner = self.directory.get(&line.0).and_then(|e| e.owner);
        for i in 0..self.l1s.len() {
            let holds = (sharers >> i) & 1 == 1 || owner == Some(CoreId(i));
            if i != core.0 && holds && self.l1s[i].invalidate(line).is_some() {
                self.invalidations += 1;
            }
        }
    }

    fn fill_l1(&mut self, core: CoreId, line: LineAddr, state: MesiState) {
        if let Insert::Evicted(victim, victim_state) = self.l1s[core.0].insert(line, state) {
            if let Some(entry) = self.directory.get_mut(&victim.0) {
                if entry.owner == Some(core) {
                    entry.owner = None;
                }
                entry.sharers &= !(1 << core.0);
            }
            if victim_state == MesiState::Modified {
                self.fill_llc(victim);
            }
        }
    }

    fn fill_llc(&mut self, line: LineAddr) {
        if let Insert::Evicted(victim, _) = self.llc.insert(line, MesiState::Shared) {
            for i in 0..self.l1s.len() {
                if self.l1s[i].invalidate(victim).is_some() {
                    self.invalidations += 1;
                }
            }
            self.directory.remove(&victim.0);
        }
    }
}
