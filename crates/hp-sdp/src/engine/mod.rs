//! The data-plane simulation engine: executes one experiment configuration
//! against the memory-system model and produces latency/throughput/power
//! telemetry.
//!
//! The engine models the full receive path of Fig. 2: emulated I/O
//! producers enqueue work items and ring doorbells (coherence-visible
//! stores), data-plane cores discover work — by spin-polling or through
//! the HyperPlane device — dequeue, perform transport processing (service
//! time drawn from the workload model, buffer lines streamed through the
//! cache hierarchy), and notify the tenant.
//!
//! ## Layout
//!
//! This module holds the engine's state, its events, and the lane surface
//! the fabric drives. Each child module adds one `impl Engine` block for
//! one layer of a run: `build`, `stimulus`, `discovery`, `service`,
//! `recovery` and `teardown` (DESIGN.md §2 maps them).
//!
//! ## Timing model
//!
//! Every action a DP core takes is charged cycles: memory accesses at the
//! modeled hierarchy latencies, fixed software overheads (poll loop body,
//! dequeue bookkeeping), device instruction latencies (QWAIT 50 cycles),
//! and the sampled service demand. Buffer-stream loads are divided by an
//! MLP factor (modern cores sustain several outstanding misses).
//!
//! ## Fast-forward and inline empty polls
//!
//! At low load a spinning core sweeps its whole partition finding nothing,
//! millions of times. Once a core has observed a full empty sweep, the
//! engine advances it directly to the next traffic arrival, bulk-accounting
//! the skipped polls at the measured average poll cost. This is exact in
//! distribution: the pointer phase advances by the number of skipped
//! polls, and only an arrival can add work to a spinning partition. The
//! target is tracked locally per sharing group (`group_next_arrival`)
//! rather than peeked from the event queue so a partitioned lane — which
//! does not see other lanes' events — fast-forwards identically to the
//! serial engine.
//!
//! Before a full sweep, a spinning core's empty polls take a second
//! shortcut: a poll whose instant falls strictly before every pending
//! event, the pump window's end and the next metrics and chaos boundaries
//! runs inline, with no schedule and no pop, since no other handler can
//! run first (`Engine::on_core_step`, DESIGN.md §13). Both shortcuts keep
//! every per-poll count; the inline one also keeps the kernel profile's.
//!
//! ## Lanes
//!
//! Every engine is a *lane* of the fabric ([`crate::par_engine`]): built
//! with [`Engine::try_new`] it owns every sharing group (the one-lane
//! fabric of a serial run); built with `Engine::try_new_lane` it owns a
//! single sharing group and materializes only that group's work. Every
//! stimulus draw is a pure function of `(seed, stream, item index)`
//! through counter-based sub-streams ([`hp_rand::rngs::CounterRng`])
//! (DESIGN.md §18), so each lane generates *only its own groups' arrivals
//! and churn ticks* and its event count scales with owned load, not total
//! load.
//!
//! Run control (warmup, stop, watchdog, `max_cycles`) is evaluated by the
//! fabric at synchronization-window boundaries, and teardown is always
//! `into_lane_output` followed by the fabric merge, so a serial run is
//! exactly a one-lane fabric: there is no serial-only driver or teardown.

mod build;
mod discovery;
mod recovery;
mod service;
mod stimulus;
mod teardown;

pub(crate) use teardown::LaneOutput;

use crate::config::ExperimentConfig;
use crate::metrics::WindowedMetrics;
use crate::result::ExperimentResult;
use crate::telemetry::{CoreTelemetry, HaltTracker};
use hp_core::qwait::HyperPlaneDevice;
use hp_mem::system::{LoadHint, MemSystem};
use hp_mem::types::{Addr, LineAddr};
use hp_queues::sim::{QueueId, QueueLayout, WorkItem};
use hp_rand::rngs::CounterRng;
use hp_sim::attrib::Attributor;
use hp_sim::audit::Auditor;
use hp_sim::event::EventQueue;
use hp_sim::faults::FaultInjector;
use hp_sim::profile::KernelProfile;
use hp_sim::stats::{Histogram, OnlineStats};
use hp_sim::time::SimTime;
use hp_sim::trace::{SpanId, TraceKind, Tracer};
use hp_traffic::generator::KeyedArrivals;
use hp_workloads::service::ServiceModel;
use std::collections::VecDeque;

/// Instructions retired per poll-loop iteration (read doorbell, compare,
/// advance index, branch — a tight but real loop body).
const POLL_INSTR: u64 = 40;
/// NAPI-style per-interrupt drain budget.
const IRQ_NAPI_BUDGET: usize = 64;

/// Profile labels, indexed in [`Ev`] declaration order (see
/// [`Ev::profile_idx`]).
const EV_LABELS: &[&str] = &[
    "arrival",
    "core-step",
    "core-wake",
    "reconsider",
    "delayed-snoop",
    "qwait-timeout",
    "watchdog",
    "churn",
];

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A data-plane core's next action completes/begins.
    CoreStep(usize),
    /// A halted core resumes after wake latency.
    CoreWake(usize),
    /// Deferred `QWAIT-RECONSIDER` (in-order mode): the device-state
    /// change fires when the item's processing actually completes in
    /// simulated time, keeping the queue serialized until then.
    Reconsider {
        /// Core that owns the grant.
        core: usize,
        /// Device group serving the queue.
        group: usize,
        /// The queue being reconsidered.
        qid: u32,
    },
    /// A doorbell GetM snoop the fault plane delayed: deliver it now.
    DelayedSnoop {
        /// Device group whose monitoring set observes the snoop.
        group: usize,
        /// The doorbell line (raw, to keep the event `Copy`).
        line: u64,
    },
    /// A halted core's QWAIT re-poll timeout expired (resilience to lost
    /// wake-ups). Stale epochs are ignored.
    QwaitTimeout {
        /// The halted core.
        core: usize,
        /// Halt-episode epoch the timeout was armed for.
        epoch: u64,
    },
    /// Arrival: the next item of one sharing group's partition stream. A
    /// lane schedules these only for groups it owns.
    GroupArrival(u32),
    /// Chaos-plane doorbell churn: tick `tick` of the global churn
    /// schedule, which re-homes one queue's doorbell through Algorithm 1
    /// while traffic is live. The victim is a pure function of the tick
    /// index, so the tick is known at schedule time to belong to `group`.
    GroupChurn {
        /// Sharing group owning the victim queue.
        group: u32,
        /// Global churn tick index (fires at `(tick + 1) * period`).
        tick: u64,
    },
}

impl Ev {
    /// Index into [`EV_LABELS`] for the kernel profile.
    fn profile_idx(&self) -> usize {
        match self {
            Ev::GroupArrival(_) => 0,
            Ev::CoreStep(_) => 1,
            Ev::CoreWake(_) => 2,
            Ev::Reconsider { .. } => 3,
            Ev::DelayedSnoop { .. } => 4,
            Ev::QwaitTimeout { .. } => 5,
            // Index 6 ("watchdog") is retired: the no-progress watchdog is
            // evaluated at window boundaries, not as an event. The label
            // stays so profile indices remain stable across artifacts.
            Ev::GroupChurn { .. } => 7,
        }
    }
}

/// One queue: its FIFO of pending items plus the per-qid scalars the
/// engine touches on an arrival, poll, dequeue, or completion, packed into
/// one row so an event touches one allocation instead of scattered `Vec`s
/// (the SoA→row repack of DESIGN.md §13). At 2^20 queues every byte here
/// is a MiB of host memory, so the row keeps only what cannot be derived:
/// the descriptor address is `layout.descriptor(q)`, the doorbell is a
/// `u32` line index, and state that only some runs or some queues need
/// lives beside the rows — spinning-only load hints, and a sparse
/// per-queue latency map filled by measured completions.
#[derive(Debug, Clone)]
struct QRow {
    /// Pending items, oldest first. Its length is what the paper's
    /// semaphore-style doorbell counter reads (§III, Fig. 2).
    items: VecDeque<WorkItem>,
    /// Resolved doorbell as a line index into the layout's doorbell region
    /// ([`QueueLayout::doorbell_at`]): the primary `q`, or `queues + i` for
    /// conflict or churn spare `i`.
    doorbell: u32,
    /// Sharing group serving this queue.
    group: u32,
    /// Producer-side buffer entry, already reduced modulo
    /// [`BUFFER_ENTRIES`].
    enq_slot: u8,
    /// Consumer-side buffer entry, reduced the same way.
    deq_slot: u8,
    /// Producer core (`CoreId` index; the memory system caps cores at 64).
    producer: u8,
    /// Interrupt baseline: raise an IRQ on the next arrival.
    irq_armed: bool,
}

// Per-queue memory is linear in the queue count (2^20 rows in a flash
// crowd); DESIGN.md §17's host-memory log records what each byte buys.
const _: () = assert!(std::mem::size_of::<QRow>() <= 48);

/// Data-buffer entries per queue: each queue's buffer pool cycles through
/// this many entries, so a row's slot cursors fit a `u8`.
const BUFFER_ENTRIES: u8 = 4;

/// Advances a buffer-entry cursor, wrapping at [`BUFFER_ENTRIES`].
fn next_slot(slot: u8) -> u8 {
    (slot + 1) % BUFFER_ENTRIES
}

/// The experiment engine. Construct with [`Engine::new`], drive with
/// [`Engine::run`].
#[derive(Debug)]
pub struct Engine {
    cfg: ExperimentConfig,
    mem: MemSystem,
    layout: QueueLayout,
    /// One row per queue, indexed by qid (see [`QRow`]).
    qrows: Vec<QRow>,
    devices: Vec<HyperPlaneDevice>,
    queues_of_group: Vec<Vec<QueueId>>,
    /// Sharing groups this engine materializes work for: all of them in a
    /// one-lane run, exactly one in a multi-lane run
    /// ([`Engine::try_new_lane`]). Non-owned groups draw no stimulus and
    /// touch no queue, device, or core state.
    owned_groups: Vec<bool>,
    core_group: Vec<usize>,
    core_ptr: Vec<usize>,
    empty_streak: Vec<usize>,
    /// Each group's halted cores, most recent last (the wake-up order).
    /// Whether a core is halted is its tracker's open episode
    /// ([`Engine::is_halted`]).
    halted_by_group: Vec<Vec<usize>>,
    /// Interrupt baseline: queues whose IRQ is armed (raise on next
    /// arrival) and the per-group pending-IRQ FIFO.
    irq_pending: Vec<VecDeque<u32>>,
    trackers: Vec<HaltTracker>,
    telem: Vec<CoreTelemetry>,
    service: ServiceModel,
    /// Per-group partition arrival streams. `None` for non-owned groups
    /// (never drawn from) and for partitions with zero offered mass (no
    /// arrival can ever target them).
    keyed_arrivals: Vec<Option<KeyedArrivals>>,
    /// Arrivals drawn so far per group — the next arrival index `k`, and
    /// the per-group half of the item id `g + k * groups`.
    group_arrival_count: Vec<u64>,
    /// Timestamp of each group's next scheduled arrival (`u64::MAX` for a
    /// group with no stream) — the per-group spinning fast-forward target.
    group_next_arrival: Vec<u64>,
    /// Counter-based service stream: item `id`'s demand is drawn from
    /// `service_keyed.split(id)` — a pure function of the id, so lanes
    /// never share or replay service-stream state.
    service_keyed: CounterRng,
    /// The lane's events. Only [`Engine::pump_window`] pops them, and only
    /// strictly before its boundary, so `ev.now()` is always the time of
    /// the last event processed.
    ev: EventQueue<Ev>,
    latency: Histogram,
    notify_latency: Histogram,
    /// Post-warmup latency per queue, only for queues that completed
    /// measured work: a flash crowd's cold tail costs nothing here.
    /// Drained into a qid-sorted list at teardown, so hash order never
    /// reaches a result.
    queue_latency: std::collections::HashMap<u32, OnlineStats>,
    /// Per-core average poll cost (feeds the fast-forward skip count;
    /// per-core so one core's estimate is a function of its own schedule
    /// only, independent of how other cores' steps interleave).
    poll_cost_ewma: Vec<f64>,
    drops: u64,
    /// Total residual backlog (`Σ qrows[q].items.len()`), maintained at the two
    /// depth-mutation sites so window-boundary reports are O(1) instead of
    /// an O(N) row sweep — at 1M queues that sweep would dominate every
    /// sync window (DESIGN.md §17).
    backlog: u64,
    /// Reusable dequeue buffer: filled by `dequeue_batch`, borrowed by
    /// `process_items`, retained across steps so the hot loop never
    /// allocates.
    deq_scratch: Vec<WorkItem>,
    /// Per-queue cached LLC slots for the two poll lines (doorbell,
    /// descriptor), fed back by [`MemSystem::load_hinted`] so the
    /// steady-state sweep skips the LLC set probe (self-validating; never
    /// affects outcomes). Built only for
    /// [`Notifier::Spinning`](crate::config::Notifier::Spinning): only
    /// `spin_step` reads it.
    poll_hints: Vec<[LoadHint; 2]>,
    /// When the measurement phase opened, if it has. Set by
    /// [`Engine::begin_measure`] at a window boundary once *fabric-wide*
    /// completions reach the warmup target — never by a lane-local count,
    /// so every lane starts measuring at the same instant.
    measure_start: Option<SimTime>,
    /// Fault-decision stream (stream 3; inert when the plan is empty).
    faults: FaultInjector,
    /// Per-core step counter keying straggler draws: each core's stall
    /// sequence depends only on its own step index, never on how other
    /// cores' events interleave.
    straggler_step: Vec<u64>,
    /// Per-core halt-episode epoch; a `QwaitTimeout` event whose epoch
    /// does not match is stale (the core was woken since) and ignored.
    qwait_epoch: Vec<u64>,
    /// Per-core current re-poll timeout (exponential backoff state).
    qwait_backoff: Vec<u64>,
    /// Per-fault-class recovery latency: sweeps that had to re-register
    /// an evicted monitoring entry vs. sweeps that only found backlog a
    /// lost doorbell never announced. Each class's recovery count is its
    /// sample count.
    eviction_recovery_latency: Histogram,
    doorbell_recovery_latency: Histogram,
    /// Chaos plane: next instant the effective fault plan can change
    /// (`u64::MAX` when the schedule is inert) and completed churn
    /// reallocations.
    chaos_next: u64,
    /// First spare-doorbell index not consumed by Algorithm-1 conflict
    /// resolution at build time; runtime churn draws from the remainder.
    spare_base: u64,
    /// Per-group churn spare cursor: group `g`'s `k`-th re-homing takes
    /// spare `spare_base + g + k * groups` (a strided partition of the
    /// remaining pool), so each group's spare sequence is a function of
    /// its own churn history only — independent of how churn events in
    /// other groups interleave.
    next_spare: Vec<u64>,
    /// Per-group, per-bank pools of deferred churn spares: stride draws
    /// that homed to a different monitoring bank than the one being
    /// re-homed wait here until that bank needs one (same-bank-first rule,
    /// DESIGN.md §17). Lane-deterministic: fed and drained only by the
    /// owning group's churn events. Always empty with one bank.
    churn_spare_pool: Vec<Vec<VecDeque<u64>>>,
    churn_reallocations: u64,
    /// Conservation auditor (pure observer; inert unless `cfg.audit`).
    audit: Auditor,
    /// Observability plane: lifecycle tracer, windowed sampler, and the
    /// sim-kernel profile. All three are pure observers — they never
    /// draw randomness or schedule events, so enabling them leaves the
    /// run bit-identical (pinned by `tests/observability.rs`).
    tracer: Tracer,
    /// Streaming latency attribution (pure observer; inert unless
    /// `cfg.attrib`). Fed every lifecycle record at emit time via
    /// [`Engine::note`], before the ring buffer can truncate it.
    attrib: Attributor,
    metrics: Option<WindowedMetrics>,
    /// Mirror of `metrics.next_boundary()` (`u64::MAX` when sampling is
    /// off) so the hot loop's boundary check is one compare, no `Option`.
    metrics_next: u64,
    profile: KernelProfile,
    /// Warmup/measure phase spans (tracing only).
    warmup_span: Option<SpanId>,
    measure_span: Option<SpanId>,
}

impl Engine {
    /// Queue `qi`'s resolved doorbell address.
    fn doorbell(&self, qi: usize) -> Addr {
        self.layout.doorbell_at(self.qrows[qi].doorbell)
    }

    /// Whether core `c` is halted: it has an open halt episode.
    fn is_halted(&self, c: usize) -> bool {
        self.trackers[c].halted_since().is_some()
    }

    /// Runs the experiment to completion and returns the results.
    ///
    /// Delegates to the fabric ([`crate::par_engine`]): with
    /// `par_workers <= 1` (the default) this engine is the one lane,
    /// pumped on the calling thread; with more workers the fabric rebuilds
    /// one lane per sharing group. Either way the same window loop and the
    /// same merge run. Same seed, same config ⇒ digest-identical results
    /// for any worker count.
    pub fn run(self) -> ExperimentResult {
        crate::par_engine::run(self)
    }

    /// Seeds the event queue for a run: each owned group's first arrival,
    /// core steps for *owned* cores only, and each owned group's churn
    /// chain. The no-progress watchdog is not an event — it is evaluated
    /// at window boundaries by the fabric controller.
    pub(crate) fn seed_events(&mut self) {
        for g in 0..self.keyed_arrivals.len() {
            if self.keyed_arrivals[g].is_some() {
                self.ev
                    .schedule_at(SimTime::ZERO, Ev::GroupArrival(g as u32));
            }
        }
        for c in 0..self.cfg.dp_cores {
            if self.owned_groups[self.core_group[c]] {
                self.ev.schedule_at(SimTime::ZERO, Ev::CoreStep(c));
            }
        }
        if let Some(churn) = self.cfg.chaos.churn {
            if !self.devices.is_empty() {
                for g in 0..self.queues_of_group.len() {
                    if self.owned_groups[g] {
                        self.schedule_next_group_churn(g, 0, churn.period);
                    }
                }
            }
        }
        self.warmup_span = Some(self.tracer.begin_span(SimTime::ZERO, "warmup"));
    }

    /// Pumps every event strictly before `boundary` (cycles), then stops.
    /// Events at or past the boundary stay queued for the next window,
    /// and no inline empty poll runs at or past it.
    /// Run control (stop, warmup, watchdog, `max_cycles`) lives with the
    /// fabric controller between windows, never inside the pump, so a
    /// lane's event processing is a pure function of its own event stream.
    pub(crate) fn pump_window(&mut self, boundary: u64) {
        let boundary = SimTime(boundary);
        while let Some((now, ev)) = self.ev.pop_before(boundary) {
            self.profile.tally(ev.profile_idx(), now);
            // Close any metrics windows whose boundary this event crossed
            // *before* handling it, so its effects land in the right
            // window. State cannot change between events, so the snapshot
            // taken now is exact at the boundary.
            if now.since_start().count() >= self.metrics_next {
                self.close_metrics_windows(now.since_start().count(), true);
            }
            // Chaos regime change: swap the effective fault plan at the
            // boundary, before handling the event, mirroring the metrics
            // windows. `set_plan` never touches the fault stream, so the
            // swap itself is invisible to the draw sequence.
            if now.since_start().count() >= self.chaos_next {
                let t = now.since_start().count();
                self.faults
                    .set_plan(self.cfg.chaos.effective_plan(&self.cfg.faults, t));
                self.chaos_next = self.cfg.chaos.next_boundary(t).unwrap_or(u64::MAX);
            }
            match ev {
                Ev::CoreStep(c) => self.on_core_step(now, c, boundary),
                Ev::CoreWake(c) => self.on_core_wake(now, c, boundary),
                Ev::Reconsider { core, group, qid } => {
                    let _cost = self.reconsider(core, group, QueueId(qid), now);
                }
                Ev::DelayedSnoop { group, line } => self.deliver_snoop(now, group, LineAddr(line)),
                Ev::QwaitTimeout { core, epoch } => self.on_qwait_timeout(now, core, epoch),
                Ev::GroupArrival(g) => self.on_group_arrival(now, g as usize),
                Ev::GroupChurn { group, tick } => self.on_group_churn(now, group as usize, tick),
            }
        }
    }

    /// The lane's window-boundary report to the fabric controller:
    /// completions so far (each one some owned core's), residual backlog,
    /// whether every *owned* DP core is halted, and the lane-local end
    /// time.
    pub(crate) fn lane_report(&self) -> crate::par_engine::LaneReport {
        debug_assert_eq!(
            self.backlog,
            self.qrows.iter().map(|r| r.items.len() as u64).sum::<u64>()
        );
        crate::par_engine::LaneReport {
            completions: self.telem.iter().map(|t| t.completions).sum(),
            backlog: self.backlog,
            all_halted: (0..self.cfg.dp_cores)
                .all(|c| !self.owned_groups[self.core_group[c]] || self.is_halted(c)),
            last_processed: self.ev.now().since_start().count(),
        }
    }

    /// Opens the measurement phase at `at` (a window boundary chosen by
    /// the fabric controller from fabric-wide completions).
    pub(crate) fn begin_measure(&mut self, at: SimTime) {
        self.measure_start = Some(at);
        if let Some(span) = self.warmup_span.take() {
            self.tracer.end_span(at, span);
        }
        self.measure_span = Some(self.tracer.begin_span(at, "measure"));
    }

    /// Records a watchdog-detected stall in the lifecycle trace (the
    /// fabric controller detects stalls; lane 0 carries the record).
    pub(crate) fn note_stall(&mut self, at: SimTime) {
        self.note(at, TraceKind::Stall);
    }

    /// The experiment configuration (the fabric reads knobs from it).
    pub(crate) fn cfg(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// Emits one lifecycle record to both observers: the streaming
    /// attributor first (it must see every record — ring truncation in
    /// the tracer cannot be allowed to bias the attribution), then the
    /// ring-buffer tracer. One branch each when disabled.
    #[inline]
    fn note(&mut self, at: SimTime, kind: TraceKind) {
        self.attrib.observe(at, &kind);
        self.tracer.emit(at, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Load, Notifier};
    use hp_sim::rng::Distribution;
    use hp_traffic::shape::TrafficShape;
    use hp_workloads::service::WorkloadKind;

    /// One-core PacketEncap run of 2,000 exponential-service completions.
    pub(super) fn quick(
        notifier: Notifier,
        shape: TrafficShape,
        queues: u32,
        load: Load,
    ) -> ExperimentResult {
        let mut cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, shape, queues)
            .with_notifier(notifier)
            .with_load(load);
        cfg.target_completions = 2_000;
        cfg.service_dist = Distribution::Exponential;
        Engine::new(cfg).run()
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick(
            Notifier::hyperplane(),
            TrafficShape::ProportionallyConcentrated,
            50,
            Load::Saturation,
        );
        let b = quick(
            Notifier::hyperplane(),
            TrafficShape::ProportionallyConcentrated,
            50,
            Load::Saturation,
        );
        assert_eq!(a.throughput_tps, b.throughput_tps);
        assert_eq!(a.p99_latency_us(), b.p99_latency_us());
        assert_eq!(a.completions, b.completions);
    }
}
