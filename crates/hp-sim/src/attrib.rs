//! Streaming latency attribution: per-notification causal span chains
//! decomposed into additive phase components.
//!
//! The [`Attributor`] is a *streaming* consumer of the lifecycle record
//! taxonomy in [`crate::trace`]: the engine feeds it every record at emit
//! time, before the record enters (or is rejected by) the ring buffer, so
//! ring truncation can never bias the attribution. From that stream it
//! reconstructs each notification's causal chain —
//!
//! ```text
//! enqueue ──► ready (delivery / recovery) ──► core resume ──► dequeue ──► done
//! ```
//!
//! — and decomposes the measured enqueue→service latency into phase
//! components that **telescope**: each phase is the difference of two
//! adjacent chain anchors, so the components sum *exactly* to the
//! end-to-end total by construction. The invariant is still asserted on
//! every completion (`debug_assert` plus a released-build violation
//! counter) because the anchors come from independent record streams.
//!
//! Like the [`crate::trace::Tracer`] and [`crate::audit::Auditor`], the
//! attributor is a pure observer: it draws no randomness, schedules no
//! events, and costs one branch per record when disabled, so a run with
//! attribution on is bit-identical to the same seed with it off.

use crate::stats::Histogram;
use crate::time::SimTime;
use crate::trace::TraceKind;
use std::collections::HashMap;

/// One additive component of a notification's end-to-end latency.
///
/// The phases partition the enqueue→service-done interval; their order
/// here is the causal order along the chain. `Delivery` and `Recovery`
/// are mutually exclusive: a notification whose doorbell was lost or
/// whose monitoring entry was evicted has its doorbell→ready interval
/// attributed to `Recovery` (the fault-plane dark time until a sweep,
/// churn sync, or a later doorbell re-announced the queue) instead of
/// `Delivery`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Doorbell write → ready-set insertion: monitoring-set snoop plus
    /// any injected in-flight delay. Zero for spinning/interrupt runs
    /// (no ready set) and for doorbells landing on an already-ready
    /// queue.
    Delivery = 0,
    /// Doorbell write → ready-set insertion for a *faulted*
    /// notification: the dark time of a dropped doorbell or evicted
    /// monitoring entry until recovery re-announced the queue.
    Recovery = 1,
    /// Ready-set insertion → serving-core resume: the activation waiting
    /// for a core (includes in-flight wake latency). Zero when the
    /// serving core never halted (spin discovery time lands in
    /// `Dispatch`).
    ReadyWait = 2,
    /// Core resume → dequeue: QWAIT select/verify, descriptor read, and
    /// batch position; for spinning cores, the poll-loop discovery time.
    Dispatch = 3,
    /// Dequeue → service done: payload streaming, transport processing,
    /// and tenant notification.
    Service = 4,
}

impl Phase {
    /// Number of phases (length of [`Phase::ALL`]).
    pub const COUNT: usize = 5;

    /// All phases in causal order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Delivery,
        Phase::Recovery,
        Phase::ReadyWait,
        Phase::Dispatch,
        Phase::Service,
    ];

    /// Stable snake_case name (used in the JSON schema and diff tool).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Delivery => "delivery",
            Phase::Recovery => "recovery",
            Phase::ReadyWait => "ready_wait",
            Phase::Dispatch => "dispatch",
            Phase::Service => "service",
        }
    }
}

/// Number of counters in an exemplar's fast-path snapshot.
pub const SNAPSHOT_COUNTERS: usize = 8;

/// Labels for the exemplar fast-path counter snapshot, in array order.
/// These mirror the memory-system fast-path counters the engine samples
/// when an exemplar is captured. `mru_hits`, `seq_replays` and
/// `seq_replayed_accesses` name retired fast paths and always read 0;
/// they keep their slots so the artifact layout does not move.
pub const SNAPSHOT_LABELS: [&str; SNAPSHOT_COUNTERS] = [
    "mru_hits",
    "stable_hits",
    "seq_replays",
    "seq_replayed_accesses",
    "s_state_peeks",
    "stable_reloads",
    "shared_joins",
    "dir_hint_hits",
];

/// Default bound on retained tail exemplars.
pub const DEFAULT_EXEMPLARS: usize = 8;

/// One retained worst-case notification: the full span breakdown plus
/// the fast-path counter snapshot taken at capture time.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// Work-item id.
    pub item: u64,
    /// Queue the item arrived on.
    pub queue: u32,
    /// DP core that served it.
    pub core: u32,
    /// Enqueue instant, cycles since run start.
    pub enqueued_at: u64,
    /// End-to-end enqueue→service latency, cycles.
    pub latency: u64,
    /// Whether the fault plane darkened this notification (its
    /// doorbell→ready interval is attributed to [`Phase::Recovery`]).
    pub faulted: bool,
    /// Additive phase components, indexed by [`Phase`]; sums to
    /// `latency` exactly.
    pub phases: [u64; Phase::COUNT],
    /// Cumulative memory-system fast-path counters at capture time,
    /// in [`SNAPSHOT_LABELS`] order.
    pub counters: [u64; SNAPSHOT_COUNTERS],
}

/// Phase totals for one aggregation key (a queue or a core).
#[derive(Debug, Clone, Copy)]
pub struct GroupAttrib {
    /// The queue or core id.
    pub id: u32,
    /// Completions attributed under this key.
    pub count: u64,
    /// Summed phase cycles, indexed by [`Phase`].
    pub phase_cycles: [u64; Phase::COUNT],
}

/// The finished attribution: conservation accounting, phase-wise
/// percentile histograms, per-queue/per-core aggregation, and the
/// retained tail exemplars. Produced by [`Attributor::finalize`].
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// Notifications whose full chain completed (serviced).
    pub completed: u64,
    /// Notifications still in flight at run end (never serviced; their
    /// partial chains are discarded, not mis-attributed).
    pub incomplete: u64,
    /// Completions whose phase components did *not* sum to the measured
    /// end-to-end latency. Zero by construction; anything else is a bug
    /// in the chain reconstruction.
    pub violations: u64,
    /// Sum of end-to-end latency over all completions, cycles.
    pub total_cycles: u64,
    /// Summed cycles per phase; `phase_totals` sums to `total_cycles`.
    pub phase_totals: [u64; Phase::COUNT],
    /// Per-phase latency histograms (cycles), indexed by [`Phase`].
    pub phase_hists: [Histogram; Phase::COUNT],
    /// End-to-end latency histogram (cycles) over attributed
    /// completions.
    pub end_to_end: Histogram,
    /// Phase totals keyed by queue (queues with completions only,
    /// ascending id).
    pub per_queue: Vec<GroupAttrib>,
    /// Phase totals keyed by serving DP core (ascending id).
    pub per_core: Vec<GroupAttrib>,
    /// The K worst notifications by end-to-end latency, worst first.
    pub exemplars: Vec<Exemplar>,
}

impl AttributionReport {
    /// Whether every completion's phase components summed exactly to
    /// its measured end-to-end latency.
    pub fn conserved(&self) -> bool {
        self.violations == 0 && self.phase_totals.iter().sum::<u64>() == self.total_cycles
    }

    /// Summed cycles attributed to `phase`.
    pub fn phase_total(&self, phase: Phase) -> u64 {
        self.phase_totals[phase as usize]
    }

    /// Fraction of all attributed cycles spent in `phase` (0 when
    /// nothing completed).
    pub fn phase_share(&self, phase: Phase) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.phase_total(phase) as f64 / self.total_cycles as f64
        }
    }
}

/// A notification's chain anchors accumulated from the record stream.
#[derive(Debug, Clone, Copy)]
struct PendingChain {
    queue: u32,
    core: u32,
    enq: u64,
    ready: Option<u64>,
    resume: Option<u64>,
    deq: Option<u64>,
    faulted: bool,
}

/// Per-aggregation-key accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    count: u64,
    phases: [u64; Phase::COUNT],
}

/// The streaming attribution engine. Feed it every lifecycle record via
/// [`Attributor::observe`] as it is emitted; call
/// [`Attributor::finalize`] at run end.
#[derive(Debug)]
pub struct Attributor {
    enabled: bool,
    exemplar_cap: usize,
    // Open chains by item id.
    chains: HashMap<u64, PendingChain>,
    // Per-queue stream state, grown on demand. `last_ready` is the most
    // recent ready-set insertion; `last_enq` binds a same-instant
    // doorbell-drop record to the item it belongs to; `dark` marks a
    // queue whose pending notifications may be unannounced (set by
    // drop/evict, cleared by any activation); `live` lists pending item
    // ids so an eviction can fault-mark the whole queue.
    q_last_ready: Vec<Option<u64>>,
    q_last_enq: Vec<Option<u64>>,
    q_dark: Vec<bool>,
    q_live: Vec<Vec<u64>>,
    // Most recent resume instant (Wake or Recovery) per DP core.
    core_resume: Vec<Option<u64>>,
    // Aggregates.
    completed: u64,
    violations: u64,
    total_cycles: u64,
    phase_totals: [u64; Phase::COUNT],
    phase_hists: [Histogram; Phase::COUNT],
    end_to_end: Histogram,
    per_queue: Vec<Agg>,
    per_core: Vec<Agg>,
    exemplars: Vec<Exemplar>,
    // Set when the last observed completion entered the exemplar set;
    // the engine then attaches the fast-path counter snapshot.
    snapshot_slot: Option<usize>,
}

impl Attributor {
    /// A disabled attributor: every call is a single-branch no-op.
    pub fn disabled() -> Self {
        Self::build(false, 0)
    }

    /// An enabled attributor retaining at most `exemplars` worst-case
    /// notifications ([`DEFAULT_EXEMPLARS`] is the conventional bound).
    pub fn enabled(exemplars: usize) -> Self {
        Self::build(true, exemplars)
    }

    fn build(enabled: bool, exemplar_cap: usize) -> Self {
        Attributor {
            enabled,
            exemplar_cap,
            chains: HashMap::new(),
            q_last_ready: Vec::new(),
            q_last_enq: Vec::new(),
            q_dark: Vec::new(),
            q_live: Vec::new(),
            core_resume: Vec::new(),
            completed: 0,
            violations: 0,
            total_cycles: 0,
            phase_totals: [0; Phase::COUNT],
            phase_hists: std::array::from_fn(|_| Histogram::new()),
            end_to_end: Histogram::new(),
            per_queue: Vec::new(),
            per_core: Vec::new(),
            exemplars: Vec::new(),
            snapshot_slot: None,
        }
    }

    /// Whether attribution is being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn grow_queue(&mut self, q: u32) {
        let need = q as usize + 1;
        if self.q_last_ready.len() < need {
            self.q_last_ready.resize(need, None);
            self.q_last_enq.resize(need, None);
            self.q_dark.resize(need, false);
            self.q_live.resize_with(need, Vec::new);
            self.per_queue.resize(need, Agg::default());
        }
    }

    fn grow_core(&mut self, c: u32) {
        let need = c as usize + 1;
        if self.core_resume.len() < need {
            self.core_resume.resize(need, None);
            self.per_core.resize(need, Agg::default());
        }
    }

    /// Consumes one lifecycle record at emit time. Records irrelevant to
    /// the causal chain (halts, spans, stalls…) are ignored.
    pub fn observe(&mut self, at: SimTime, kind: &TraceKind) {
        if !self.enabled {
            return;
        }
        let t = at.since_start().count();
        match *kind {
            TraceKind::Enqueue { queue, item } => {
                self.grow_queue(queue);
                let qi = queue as usize;
                // A queue darkened by a drop/evict strands its backlog:
                // an item arriving before the next activation shares the
                // recovery fate of the items already waiting.
                let faulted = self.q_dark[qi];
                self.chains.insert(
                    item,
                    PendingChain {
                        queue,
                        core: 0,
                        enq: t,
                        ready: None,
                        resume: None,
                        deq: None,
                        faulted,
                    },
                );
                self.q_last_enq[qi] = Some(item);
                self.q_live[qi].push(item);
            }
            // Any ready-set insertion announces the queue: real snoop
            // hits, delayed deliveries, churn migration syncs, recovery
            // sweeps, and spurious activations all make pending work
            // discoverable.
            TraceKind::ReadyInsert { queue } | TraceKind::FaultSpurious { queue } => {
                self.grow_queue(queue);
                self.q_last_ready[queue as usize] = Some(t);
                self.q_dark[queue as usize] = false;
            }
            TraceKind::FaultDropped { queue } => {
                self.grow_queue(queue);
                let qi = queue as usize;
                // The drop record follows its Enqueue at the same
                // instant: fault-mark exactly that item.
                if let Some(item) = self.q_last_enq[qi] {
                    if let Some(p) = self.chains.get_mut(&item) {
                        p.faulted = true;
                    }
                }
                self.q_dark[qi] = true;
            }
            TraceKind::FaultEvicted { queue } => {
                self.grow_queue(queue);
                let qi = queue as usize;
                // An evicted monitoring entry darkens every pending
                // notification of the queue, not just the newest.
                for &item in &self.q_live[qi] {
                    if let Some(p) = self.chains.get_mut(&item) {
                        p.faulted = true;
                    }
                }
                self.q_dark[qi] = true;
            }
            TraceKind::Wake { core } | TraceKind::Recovery { core } => {
                self.grow_core(core);
                self.core_resume[core as usize] = Some(t);
            }
            TraceKind::Dequeue { queue, core, item } => {
                self.grow_queue(queue);
                self.grow_core(core);
                let ready = self.q_last_ready[queue as usize];
                let resume = self.core_resume[core as usize];
                if let Some(p) = self.chains.get_mut(&item) {
                    p.deq = Some(t);
                    p.core = core;
                    p.ready = ready.filter(|&r| r >= p.enq);
                    p.resume = resume;
                }
            }
            TraceKind::ServiceDone { item, .. } => {
                if let Some(chain) = self.chains.remove(&item) {
                    let qi = chain.queue as usize;
                    if let Some(pos) = self.q_live[qi].iter().position(|&x| x == item) {
                        self.q_live[qi].swap_remove(pos);
                    }
                    self.complete(item, chain, t);
                }
            }
            _ => {}
        }
    }

    /// Resolves a completed chain into telescoping phase components and
    /// folds it into the aggregates.
    fn complete(&mut self, item: u64, chain: PendingChain, done: u64) {
        let enq = chain.enq;
        let done = done.max(enq);
        let deq = chain.deq.unwrap_or(done).clamp(enq, done);
        // Chain anchors, clamped monotone. A missing ready anchor means
        // the queue was never (re)announced for this item: a faulted
        // chain falls back to the serving core's resume instant (the
        // recovery sweep), a clean one to the enqueue instant (spin
        // discovery — the wait lands downstream).
        let ready_raw = if chain.faulted {
            chain.ready.or(chain.resume)
        } else {
            chain.ready
        };
        let ready = ready_raw.unwrap_or(enq).clamp(enq, deq);
        // The serving core's resume is on this chain only if it happened
        // after the activation; otherwise the core was already running
        // and the wake phase is empty.
        let resume = match chain.resume {
            Some(r) if r >= ready => r.min(deq),
            _ => deq,
        };
        let mut phases = [0u64; Phase::COUNT];
        let announce = ready - enq;
        if chain.faulted {
            phases[Phase::Recovery as usize] = announce;
        } else {
            phases[Phase::Delivery as usize] = announce;
        }
        phases[Phase::ReadyWait as usize] = resume - ready;
        phases[Phase::Dispatch as usize] = deq - resume;
        phases[Phase::Service as usize] = done - deq;

        let latency = done - enq;
        let sum: u64 = phases.iter().sum();
        debug_assert_eq!(
            sum, latency,
            "phase components must telescope to the end-to-end latency"
        );
        if sum != latency {
            self.violations += 1;
        }

        self.completed += 1;
        self.total_cycles += latency;
        self.end_to_end.record(latency);
        for (i, &v) in phases.iter().enumerate() {
            self.phase_totals[i] += v;
            self.phase_hists[i].record(v);
        }
        for agg in [
            &mut self.per_queue[chain.queue as usize],
            &mut self.per_core[chain.core as usize],
        ] {
            agg.count += 1;
            for (i, &v) in phases.iter().enumerate() {
                agg.phases[i] += v;
            }
        }

        self.consider_exemplar(Exemplar {
            item,
            queue: chain.queue,
            core: chain.core,
            enqueued_at: enq,
            latency,
            faulted: chain.faulted,
            phases,
            counters: [0; SNAPSHOT_COUNTERS],
        });
    }

    /// Bounded K-worst capture, deterministic tie-break on item id.
    fn consider_exemplar(&mut self, ex: Exemplar) {
        if self.exemplar_cap == 0 {
            return;
        }
        if self.exemplars.len() < self.exemplar_cap {
            self.exemplars.push(ex);
            self.snapshot_slot = Some(self.exemplars.len() - 1);
            return;
        }
        let (min_slot, min_ex) = self
            .exemplars
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.latency, e.item))
            .expect("exemplar set is non-empty");
        if (ex.latency, ex.item) > (min_ex.latency, min_ex.item) {
            self.exemplars[min_slot] = ex;
            self.snapshot_slot = Some(min_slot);
        }
    }

    /// Whether the last observed completion entered the exemplar set and
    /// is waiting for its fast-path counter snapshot.
    pub fn wants_snapshot(&self) -> bool {
        self.snapshot_slot.is_some()
    }

    /// Attaches the fast-path counter snapshot (in [`SNAPSHOT_LABELS`]
    /// order) to the exemplar captured by the last completion.
    pub fn attach_snapshot(&mut self, counters: [u64; SNAPSHOT_COUNTERS]) {
        if let Some(slot) = self.snapshot_slot.take() {
            self.exemplars[slot].counters = counters;
        }
    }

    /// Closes the stream and produces the report. Chains still pending
    /// (never serviced) are counted, not attributed.
    pub fn finalize(self) -> AttributionReport {
        let mut exemplars = self.exemplars;
        exemplars.sort_by_key(|e| (std::cmp::Reverse(e.latency), e.item));
        let keyed = |aggs: Vec<Agg>| {
            aggs.into_iter()
                .enumerate()
                .filter(|(_, a)| a.count > 0)
                .map(|(id, a)| GroupAttrib {
                    id: id as u32,
                    count: a.count,
                    phase_cycles: a.phases,
                })
                .collect()
        };
        AttributionReport {
            completed: self.completed,
            incomplete: self.chains.len() as u64,
            violations: self.violations,
            total_cycles: self.total_cycles,
            phase_totals: self.phase_totals,
            phase_hists: self.phase_hists,
            end_to_end: self.end_to_end,
            per_queue: keyed(self.per_queue),
            per_core: keyed(self.per_core),
            exemplars,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t: u64) -> SimTime {
        SimTime(t)
    }

    /// Feeds one clean chain and checks the exact phase split.
    #[test]
    fn clean_chain_telescopes_exactly() {
        let mut a = Attributor::enabled(4);
        a.observe(at(100), &TraceKind::Enqueue { queue: 3, item: 7 });
        a.observe(at(100), &TraceKind::DoorbellWrite { queue: 3 });
        a.observe(at(100), &TraceKind::ReadyInsert { queue: 3 });
        a.observe(at(160), &TraceKind::Wake { core: 1 });
        a.observe(
            at(200),
            &TraceKind::Dequeue {
                queue: 3,
                core: 1,
                item: 7,
            },
        );
        a.observe(
            at(900),
            &TraceKind::ServiceDone {
                queue: 3,
                core: 1,
                item: 7,
            },
        );
        let r = a.finalize();
        assert_eq!(r.completed, 1);
        assert!(r.conserved());
        assert_eq!(r.phase_total(Phase::Delivery), 0); // ready at enqueue instant
        assert_eq!(r.phase_total(Phase::Recovery), 0);
        assert_eq!(r.phase_total(Phase::ReadyWait), 60); // 100 -> 160
        assert_eq!(r.phase_total(Phase::Dispatch), 40); // 160 -> 200
        assert_eq!(r.phase_total(Phase::Service), 700); // 200 -> 900
        assert_eq!(r.total_cycles, 800);
        assert_eq!(r.exemplars.len(), 1);
        assert_eq!(r.exemplars[0].phases.iter().sum::<u64>(), 800);
    }

    /// A dropped doorbell's dark time lands in `Recovery`, and the
    /// components still sum exactly.
    #[test]
    fn dropped_doorbell_attributes_recovery() {
        let mut a = Attributor::enabled(4);
        a.observe(at(0), &TraceKind::Enqueue { queue: 0, item: 1 });
        a.observe(at(0), &TraceKind::FaultDropped { queue: 0 });
        // Recovery sweep announces the queue much later.
        a.observe(at(5_000), &TraceKind::ReadyInsert { queue: 0 });
        a.observe(at(5_000), &TraceKind::Recovery { core: 0 });
        a.observe(
            at(5_200),
            &TraceKind::Dequeue {
                queue: 0,
                core: 0,
                item: 1,
            },
        );
        a.observe(
            at(5_700),
            &TraceKind::ServiceDone {
                queue: 0,
                core: 0,
                item: 1,
            },
        );
        let r = a.finalize();
        assert!(r.conserved());
        assert_eq!(r.phase_total(Phase::Delivery), 0);
        assert_eq!(r.phase_total(Phase::Recovery), 5_000);
        assert_eq!(r.phase_total(Phase::Dispatch), 200);
        assert_eq!(r.phase_total(Phase::Service), 500);
        assert!(r.exemplars[0].faulted);
    }

    /// An eviction darkens the whole backlog: both pending items recover.
    #[test]
    fn eviction_faults_all_pending_items() {
        let mut a = Attributor::enabled(4);
        a.observe(at(0), &TraceKind::Enqueue { queue: 2, item: 10 });
        a.observe(at(50), &TraceKind::Enqueue { queue: 2, item: 11 });
        a.observe(at(60), &TraceKind::FaultEvicted { queue: 2 });
        a.observe(at(900), &TraceKind::ReadyInsert { queue: 2 });
        for (deq, done, item) in [(1000, 1100, 10), (1000, 1200, 11)] {
            a.observe(
                at(deq),
                &TraceKind::Dequeue {
                    queue: 2,
                    core: 0,
                    item,
                },
            );
            a.observe(
                at(done),
                &TraceKind::ServiceDone {
                    queue: 2,
                    core: 0,
                    item,
                },
            );
        }
        let r = a.finalize();
        assert!(r.conserved());
        assert_eq!(r.completed, 2);
        // Item 10: 0->900 recovery; item 11: 50->900 recovery.
        assert_eq!(r.phase_total(Phase::Recovery), 900 + 850);
        assert!(r.exemplars.iter().all(|e| e.faulted));
    }

    /// The exemplar set is bounded and keeps the worst chains.
    #[test]
    fn exemplars_are_bounded_worst_k() {
        let mut a = Attributor::enabled(2);
        for i in 0..10u64 {
            a.observe(at(0), &TraceKind::Enqueue { queue: 0, item: i });
            a.observe(
                at(10),
                &TraceKind::Dequeue {
                    queue: 0,
                    core: 0,
                    item: i,
                },
            );
            a.observe(
                at(100 * (i + 1)),
                &TraceKind::ServiceDone {
                    queue: 0,
                    core: 0,
                    item: i,
                },
            );
        }
        let r = a.finalize();
        assert_eq!(r.completed, 10);
        assert_eq!(r.exemplars.len(), 2);
        assert_eq!(r.exemplars[0].latency, 1000);
        assert_eq!(r.exemplars[1].latency, 900);
        assert!(r.conserved());
    }

    /// Disabled: pure no-op, nothing accumulates.
    #[test]
    fn disabled_attributor_accumulates_nothing() {
        let mut a = Attributor::disabled();
        a.observe(at(0), &TraceKind::Enqueue { queue: 0, item: 1 });
        assert!(!a.is_enabled());
        let r = a.finalize();
        assert_eq!(r.completed, 0);
        assert_eq!(r.incomplete, 0);
        assert!(r.conserved());
    }

    /// Incomplete chains are counted but never attributed.
    #[test]
    fn incomplete_chains_are_counted_not_attributed() {
        let mut a = Attributor::enabled(4);
        a.observe(at(0), &TraceKind::Enqueue { queue: 0, item: 1 });
        a.observe(at(5), &TraceKind::Enqueue { queue: 0, item: 2 });
        a.observe(
            at(10),
            &TraceKind::Dequeue {
                queue: 0,
                core: 0,
                item: 1,
            },
        );
        a.observe(
            at(20),
            &TraceKind::ServiceDone {
                queue: 0,
                core: 0,
                item: 1,
            },
        );
        let r = a.finalize();
        assert_eq!(r.completed, 1);
        assert_eq!(r.incomplete, 1);
        assert_eq!(r.total_cycles, 20);
    }

    /// Snapshot plumbing: only a captured exemplar wants one.
    #[test]
    fn snapshot_attaches_to_captured_exemplar() {
        let mut a = Attributor::enabled(1);
        for (item, done) in [(1u64, 500u64), (2, 100)] {
            a.observe(at(0), &TraceKind::Enqueue { queue: 0, item });
            a.observe(
                at(10),
                &TraceKind::Dequeue {
                    queue: 0,
                    core: 0,
                    item,
                },
            );
            a.observe(
                at(done),
                &TraceKind::ServiceDone {
                    queue: 0,
                    core: 0,
                    item,
                },
            );
            if item == 1 {
                assert!(a.wants_snapshot());
                a.attach_snapshot([9; SNAPSHOT_COUNTERS]);
            } else {
                // Item 2 is faster than the retained worst: no capture.
                assert!(!a.wants_snapshot());
            }
        }
        let r = a.finalize();
        assert_eq!(r.exemplars.len(), 1);
        assert_eq!(r.exemplars[0].item, 1);
        assert_eq!(r.exemplars[0].counters, [9; SNAPSHOT_COUNTERS]);
    }
}
