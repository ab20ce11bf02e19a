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
//! ## Timing model
//!
//! Every action a DP core takes is charged cycles: memory accesses at the
//! modeled hierarchy latencies, fixed software overheads (poll loop body,
//! dequeue bookkeeping), device instruction latencies (QWAIT 50 cycles),
//! and the sampled service demand. Buffer-stream loads are divided by an
//! MLP factor (modern cores sustain several outstanding misses).
//!
//! ## Fast-forward
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
//! load. Flow-structured traffic is the one sequential source; validation
//! restricts it to a single sharing group, so no lane ever shares it.
//!
//! Run control (warmup, stop, watchdog, `max_cycles`) is evaluated by the
//! fabric at synchronization-window boundaries, and teardown is always
//! `into_lane_output` followed by the fabric merge, so a serial run is
//! exactly a one-lane fabric: there is no serial-only driver or teardown.

use crate::config::{ConfigError, ExperimentConfig, Load, Notifier, TrafficSource};
use crate::metrics::{WindowObservation, WindowSample, WindowedMetrics};
use crate::result::{DeviceStats, ExperimentResult};
use crate::telemetry::{CoreTelemetry, HaltState, HaltTracker};
use hp_core::qwait::{HyperPlaneDevice, RearmAction};
use hp_mem::system::{LoadHint, MemSystem};
use hp_mem::types::{AccessKind, Addr, CoreId, LineAddr};
use hp_queues::sim::{QueueId, QueueLayout, WorkItem};
use hp_rand::rngs::{CounterRng, SmallRng};
use hp_sim::attrib::{AttributionReport, Attributor, DEFAULT_EXEMPLARS};
use hp_sim::audit::{AuditReport, Auditor};
use hp_sim::event::EventQueue;
use hp_sim::faults::{DoorbellFate, FaultCounters, FaultInjector};
use hp_sim::profile::KernelProfile;
use hp_sim::rng::RngFactory;
use hp_sim::stats::{Histogram, OnlineStats};
use hp_sim::time::{Cycles, SimTime};
use hp_sim::trace::{SpanId, TraceKind, TraceRecord, Tracer};
use hp_traffic::flows::FlowTrafficGenerator;
use hp_traffic::generator::KeyedArrivals;
use hp_traffic::partition_queues;
use hp_workloads::service::ServiceModel;

/// Instructions retired per poll-loop iteration (read doorbell, compare,
/// advance index, branch — a tight but real loop body).
const POLL_INSTR: u64 = 40;
/// Instructions for the QWAIT/VERIFY/RECONSIDER machinery per grant.
const QWAIT_INSTR: u64 = 20;
/// Instructions for dequeue + descriptor bookkeeping per item.
const DEQ_INSTR: u64 = 80;
/// Instructions to notify the tenant (enqueue + doorbell).
const NOTIFY_INSTR: u64 = 30;
/// Extra cycles for the CAS-based synchronized dequeue spinning scale-up
/// needs (HyperPlane needs none: the device serializes grants).
const CAS_CYCLES: u64 = 24;
/// Memory-level parallelism divisor for streaming buffer loads.
const MLP: u64 = 4;
/// Software ready-set iterator: fixed cycles plus per-ready-QID scan cost
/// (Fig. 13's software implementation).
const SW_READY_BASE_CYCLES: u64 = 30;
const SW_READY_PER_QID_CYCLES: u64 = 4;
/// Lock cycles for a software ready set shared by a multi-core cluster.
const SW_READY_LOCK_CYCLES: u64 = 40;
/// Cycles of background work run per non-blocking-QWAIT iteration when
/// `background_task` is enabled (§III-A's first alternative).
const BACKGROUND_CHUNK_CYCLES: u64 = 250;
/// IPC the background task sustains (compute-bound batch work).
const BACKGROUND_IPC: f64 = 2.0;
/// Softirq dispatch + driver entry cost per serviced interrupt, cycles
/// (the kernel *delivery* cost is charged at wake-up via
/// [`IRQ_DELIVERY_US`]).
const IRQ_DISPATCH_CYCLES: u64 = 600;
/// Kernel interrupt delivery + scheduling cost for the
/// [`Notifier::Interrupt`] baseline, microseconds.
const IRQ_DELIVERY_US: f64 = 2.0;
/// NAPI-style per-interrupt drain budget.
const IRQ_NAPI_BUDGET: usize = 64;
/// C1 wake-up latency of a power-optimized HyperPlane core, microseconds
/// (paper: ≈0.5 µs).
const C1_WAKE_US: f64 = 0.5;
/// Inter-socket/inter-group access penalty (a QPI/UPI-class hop) charged
/// per remote device operation on stolen work, cycles.
const INTER_GROUP_CYCLES: u64 = 120;
/// Ceiling for the QWAIT re-poll timeout's exponential backoff, cycles:
/// fruitless expiries double the next timeout up to this bound, so an
/// idle fault-free core converges to cheap, infrequent re-polls.
const QWAIT_BACKOFF_MAX_CYCLES: u64 = 2_000_000;

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
    /// Next flow-traffic arrival (the sequential single-group source).
    Arrival,
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
    /// Shape-traffic arrival: the next item of one sharing group's
    /// partition stream. A lane schedules these only for groups it owns.
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
            Ev::Arrival | Ev::GroupArrival(_) => 0,
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

/// Arrivals drawn per buffer refill. Blocks amortize the per-arrival
/// generator dispatch; the draws themselves are the same calls in the
/// same order, so every gap/queue pair — and therefore every simulated
/// timestamp — is bit-identical to unbuffered generation.
const ARRIVAL_BLOCK: usize = 64;

/// Flow traffic's sequential stimulus: the flow generator and the
/// service stream, each behind a block-refilled prebuffer, and the item
/// counter.
#[derive(Debug)]
struct FlowStimulus {
    gen: FlowTrafficGenerator,
    arrivals: std::collections::VecDeque<(Cycles, QueueId)>,
    service_rng: SmallRng,
    services: std::collections::VecDeque<Cycles>,
    next_id: u64,
}

impl FlowStimulus {
    fn new(gen: FlowTrafficGenerator, service_rng: SmallRng) -> Self {
        FlowStimulus {
            gen,
            arrivals: std::collections::VecDeque::with_capacity(ARRIVAL_BLOCK),
            service_rng,
            services: std::collections::VecDeque::with_capacity(ARRIVAL_BLOCK),
            next_id: 0,
        }
    }

    /// The next arrival: `(gap to the following one, queue, item id,
    /// service demand)`.
    fn next(&mut self, service: &ServiceModel) -> (Cycles, QueueId, u64, Cycles) {
        if self.arrivals.is_empty() {
            self.gen.fill_arrivals(&mut self.arrivals, ARRIVAL_BLOCK);
        }
        let (gap, q) = self
            .arrivals
            .pop_front()
            .expect("block refill produced arrivals");
        if self.services.is_empty() {
            service.fill_samples(&mut self.service_rng, &mut self.services, ARRIVAL_BLOCK);
        }
        let demand = self
            .services
            .pop_front()
            .expect("block refill produced samples");
        let id = self.next_id;
        self.next_id += 1;
        (gap, q, id, demand)
    }
}

/// Bank-aware spare-doorbell selection (Algorithm 1 with the DESIGN.md
/// §17 homing rule), shared by build-time conflict reallocation and churn.
/// Preference order: (1) a previously deferred spare already known to
/// home to `want`; (2) fresh draws from `fresh` (which advances the
/// caller's cursor over its spare range and returns `None` once it is
/// used up), deferring each other-bank draw into its home bank's pool;
/// (3) once the range is exhausted, spill across banks from the
/// lowest-numbered non-empty pool. Returns `None` only when every spare
/// is consumed.
fn take_spare(
    want: usize,
    pool: &mut [std::collections::VecDeque<u64>],
    mut fresh: impl FnMut() -> Option<u64>,
    bank_of: impl Fn(u64) -> usize,
) -> Option<u64> {
    if let Some(i) = pool[want].pop_front() {
        return Some(i);
    }
    while let Some(i) = fresh() {
        let b = bank_of(i);
        if b == want {
            return Some(i);
        }
        pool[b].push_back(i);
    }
    pool.iter_mut().find_map(|p| p.pop_front())
}

/// The doorbell-region line index of spare `i`
/// ([`QueueLayout::doorbell_at`]).
fn spare_index(queues: u32, i: u64) -> u32 {
    u32::try_from(u64::from(queues) + i).expect("doorbell region indices fit a u32")
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
    items: std::collections::VecDeque<WorkItem>,
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
    halted: Vec<bool>,
    halted_by_group: Vec<Vec<usize>>,
    /// Interrupt baseline: queues whose IRQ is armed (raise on next
    /// arrival) and the per-group pending-IRQ FIFO.
    irq_pending: Vec<std::collections::VecDeque<u32>>,
    trackers: Vec<HaltTracker>,
    telem: Vec<CoreTelemetry>,
    /// Flow-traffic stimulus (`None` for shape traffic, which draws from
    /// `keyed_arrivals` and `service_keyed`).
    flows: Option<FlowStimulus>,
    service: ServiceModel,
    /// Shape traffic's per-group partition arrival streams. `None` for
    /// non-owned groups (never drawn from), for partitions with zero
    /// offered mass (no arrival can ever target them), and under flow
    /// traffic.
    keyed_arrivals: Vec<Option<KeyedArrivals>>,
    /// Arrivals drawn so far per group — the next arrival index `k`, and
    /// the per-group half of the item id `g + k * groups`.
    group_arrival_count: Vec<u64>,
    /// Timestamp of each group's next scheduled arrival (`u64::MAX` for a
    /// group with no stream) — the per-group spinning fast-forward target.
    group_next_arrival: Vec<u64>,
    /// Counter-based service stream for shape traffic; item `id`'s demand
    /// is drawn from `service_keyed.split(id)` — a pure function of the
    /// id, so lanes never share or replay service-stream state.
    service_keyed: CounterRng,
    /// Arrivals this engine generated for its own groups, so lane sums
    /// equal the serial count.
    generated_arrivals: u64,
    ev: EventQueue<Ev>,
    /// Tail of the same-instant event run `pop_batch` drained: the main
    /// loop consumes from here first, so per-event processing order is
    /// exactly single-pop order.
    pending: std::collections::VecDeque<Ev>,
    /// An event popped by [`Engine::pump_window`] that lies at or past the
    /// window boundary: held here (not re-inserted, which would perturb
    /// insertion order) and consumed first by the next window's pump.
    carry: Option<(SimTime, Ev)>,
    /// Timestamp of the last event actually processed (the lane-local run
    /// end; `ev.now()` may already sit at a carried future event).
    last_processed: u64,
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
    completions: u64,
    completions_measured: u64,
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
    /// Per-queue cached directory slots for the two poll lines (doorbell,
    /// descriptor), fed back by [`MemSystem::load_hinted`] so the
    /// steady-state sweep skips the directory hash probe (self-validating;
    /// never affects outcomes). Built only for [`Notifier::Spinning`]:
    /// only `spin_step` reads it.
    poll_hints: Vec<[LoadHint; 2]>,
    warmup_completions: u64,
    measure_start: Option<SimTime>,
    /// Whether the measurement phase is open. Flipped by
    /// [`Engine::begin_measure`] at a window boundary once *fabric-wide*
    /// completions reach the warmup target — never by a lane-local count,
    /// so every lane starts measuring at the same instant.
    measuring: bool,
    saturation_rate: f64,
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
    /// Per-fault-class recovery accounting: sweeps that had to re-register
    /// an evicted monitoring entry vs. sweeps that only found backlog a
    /// lost doorbell never announced.
    eviction_recoveries: u64,
    doorbell_recoveries: u64,
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
    churn_spare_pool: Vec<Vec<std::collections::VecDeque<u64>>>,
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
    /// Builds an engine for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics where [`Engine::try_new`] returns an error. Library callers
    /// that want the error instead should use [`Engine::try_new`].
    pub fn new(cfg: ExperimentConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(engine) => engine,
            Err(e) => panic!("invalid experiment configuration: {e}"),
        }
    }

    /// Builds an engine for `cfg`, refusing invalid configurations.
    ///
    /// # Errors
    ///
    /// The [`ConfigError`] from [`ExperimentConfig::validate`], or one
    /// the build itself finds: a queue partition that leaves a sharing
    /// group empty ([`ConfigError::EmptyGroup`]), or monitoring-set
    /// conflicts that use up the spare doorbell addresses
    /// ([`ConfigError::SpareDoorbellsExhausted`]).
    pub fn try_new(cfg: ExperimentConfig) -> Result<Self, ConfigError> {
        Self::try_new_lane(cfg, None)
    }

    /// Builds an engine owning all sharing groups (`lane == None`, the
    /// one-lane fabric) or exactly one (`lane == Some(g)`, one lane of a
    /// multi-lane fabric). Every lane performs the *identical* build —
    /// including device registration and conflict-spare consumption for
    /// groups it does not own — so lane-local state is bit-identical to
    /// the one-lane engine's view of that group.
    pub(crate) fn try_new_lane(
        cfg: ExperimentConfig,
        lane: Option<usize>,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let rngs = RngFactory::new(cfg.seed);
        let clock = cfg.machine.clock;

        let mut mem_cfg = cfg.machine.mem_config();
        mem_cfg.prefetch_degree = cfg.prefetch_degree;
        mem_cfg.fast_path = cfg.mem_fast_path;
        mem_cfg.silent_evictions = cfg.silent_evictions;
        let mem = MemSystem::new(mem_cfg);
        let layout = QueueLayout::new(
            cfg.queues,
            cfg.workload.buffer_lines(),
            BUFFER_ENTRIES.into(),
        );

        // Partition queues into sharing groups.
        let groups = cfg.groups();
        let group_of_queue: Vec<usize> = if groups == 1 {
            vec![0; cfg.queues as usize]
        } else {
            partition_queues(cfg.shape, cfg.queues, groups, cfg.imbalance)
        };
        let mut queues_of_group: Vec<Vec<QueueId>> = vec![Vec::new(); groups];
        for (q, &g) in group_of_queue.iter().enumerate() {
            queues_of_group[g].push(QueueId(q as u32));
        }
        if let Some(group) = queues_of_group.iter().position(Vec::is_empty) {
            return Err(ConfigError::EmptyGroup { group });
        }

        // Partition producer cores by sharing group: group `g`'s `i`-th
        // queue (in qid order) stripes over producers
        // `g*share .. (g+1)*share`. With `producers >= groups` the slices
        // are disjoint, so no producer core ever writes into two groups —
        // the property that lets each lane model its producers' caches
        // privately. (With fewer producers than groups the fabric falls
        // back to a single lane; see `par_engine::run`.)
        let producers = cfg.machine.cores - cfg.dp_cores;
        let share = (producers / groups).max(1);
        let mut qrows: Vec<QRow> = (0..cfg.queues)
            .map(|q| QRow {
                items: std::collections::VecDeque::new(),
                doorbell: q,
                group: group_of_queue[q as usize] as u32,
                enq_slot: 0,
                deq_slot: 0,
                producer: 0,
                irq_armed: true,
            })
            .collect();
        for (g, group_queues) in queues_of_group.iter().enumerate() {
            for (i, &q) in group_queues.iter().enumerate() {
                let p = (g * share + i % share) % producers;
                qrows[q.0 as usize].producer =
                    u8::try_from(cfg.dp_cores + p).expect("the memory system caps cores at 64");
            }
        }

        // Per-queue doorbell lines. Algorithm 1's control plane: on a
        // monitoring-set insertion conflict, the driver reallocates the
        // queue's doorbell to a spare line in the reserved range and
        // retries (lines 3-6 of the paper's pseudocode).
        //
        // One HyperPlane device per group (the scale-out/up-2 partitioned
        // ready-set variants of Fig. 10); unused for spinning.
        //
        // Conflict reallocation is bank-aware (DESIGN.md §17): the driver
        // prefers a spare line homing to the *same* monitoring bank as the
        // conflicted doorbell, deferring other-bank spares into per-bank
        // pools and spilling across banks only once the stride is dry.
        // With one bank (every ≤1024-queue config) the pools never fill
        // and the consumption order is exactly the historical one.
        let mut devices = Vec::new();
        let mut next_spare = 0u64;
        let spares = QueueLayout::spare_doorbells(cfg.queues);
        let build_banks = cfg.hp.monitoring_banks.max(1);
        let mut spare_pool: Vec<std::collections::VecDeque<u64>> =
            vec![std::collections::VecDeque::new(); build_banks];
        if matches!(cfg.notifier, Notifier::HyperPlane { .. }) {
            for group_queues in queues_of_group.iter().take(groups) {
                let mut dev = HyperPlaneDevice::new(cfg.hp.clone(), layout.doorbell_range());
                for &q in group_queues {
                    let row = &mut qrows[q.0 as usize];
                    loop {
                        let line = layout.doorbell_at(row.doorbell).line();
                        match dev.qwait_add(q, line) {
                            Ok(()) => break,
                            Err(hp_core::qwait::QwaitError::Conflict(_)) => {
                                let want = dev.monitoring_bank_of(line);
                                let idx = take_spare(
                                    want,
                                    &mut spare_pool,
                                    || {
                                        let i = next_spare;
                                        (i < spares).then(|| {
                                            next_spare += 1;
                                            i
                                        })
                                    },
                                    |i| dev.monitoring_bank_of(layout.spare_doorbell(i).line()),
                                )
                                .ok_or(
                                    ConfigError::SpareDoorbellsExhausted { queues: cfg.queues },
                                )?;
                                row.doorbell = spare_index(cfg.queues, idx);
                            }
                            Err(e) => panic!("doorbell registration failed: {e}"),
                        }
                    }
                }
                devices.push(dev);
            }
        }

        let core_group: Vec<usize> = (0..cfg.dp_cores).map(|c| c / cfg.cluster).collect();
        let owned_groups: Vec<bool> = match lane {
            None => vec![true; groups],
            Some(g) => (0..groups).map(|i| i == g).collect(),
        };

        let rate = match cfg.load {
            Load::RatePerSec(r) => r,
            Load::Saturation => {
                // Drive well past capacity; drops bound the backlog.
                cfg.capacity_estimate_per_core() * cfg.dp_cores as f64 * 3.0
            }
        };
        // Stimulus streams: 1 = traffic, 2 = service, 3 = faults. Shape
        // traffic splits per-group arrival sub-streams off stream 1 and
        // the per-item service demand off stream 2 by item id; only
        // *owned* groups get an arrival stream, so a lane draws nothing
        // for foreign groups. Flow traffic (one group by validation) draws
        // both sequentially, and its one group's first arrival is at t=0.
        let mut keyed_arrivals: Vec<Option<KeyedArrivals>> = Vec::with_capacity(groups);
        let mut group_next_arrival: Vec<u64> = Vec::with_capacity(groups);
        let flows = match cfg.traffic {
            TrafficSource::Flows { flows, zipf_s } => {
                keyed_arrivals.push(None);
                group_next_arrival.push(0);
                Some(FlowStimulus::new(
                    FlowTrafficGenerator::new(
                        flows,
                        zipf_s,
                        cfg.queues,
                        rate,
                        clock,
                        rngs.stream(1),
                    ),
                    rngs.stream(2),
                ))
            }
            TrafficSource::Shape => {
                let base = CounterRng::from_key(rngs.stream_seed(1));
                for (g, &owned) in owned_groups.iter().enumerate() {
                    let stream = if owned {
                        KeyedArrivals::for_partition(
                            cfg.shape,
                            cfg.queues,
                            rate,
                            clock,
                            &group_of_queue,
                            g,
                            base.split(g as u64),
                        )
                        .expect("validated configuration")
                    } else {
                        None
                    };
                    group_next_arrival.push(if stream.is_some() { 0 } else { u64::MAX });
                    keyed_arrivals.push(stream);
                }
                None
            }
        };
        let service_keyed = CounterRng::from_key(rngs.stream_seed(2));

        let service = ServiceModel::new(cfg.workload, cfg.service_dist, clock);
        let n_queues = cfg.queues as usize;
        let warmup_completions = (cfg.target_completions / 5).max(1);
        // Faults draw from their own stream (3): the same seed produces
        // byte-identical arrival/service sequences with or without faults.
        let mut faults = FaultInjector::new(cfg.faults.clone(), rngs.stream_seed(3));
        // Chaos plane: install whatever plan the schedule dictates at t=0
        // (a phase or burst may open the run) and note the first instant
        // it can change. Swapping plans never touches the fault stream.
        if cfg.chaos.is_active() {
            faults.set_plan(cfg.chaos.effective_plan(&cfg.faults, 0));
        }
        let chaos_next = cfg.chaos.next_boundary(0).unwrap_or(u64::MAX);
        let timeout_base = cfg.qwait_timeout_cycles.unwrap_or(0);
        let audit = if cfg.audit {
            Auditor::enabled((cfg.target_completions + warmup_completions) as usize)
        } else {
            Auditor::disabled()
        };

        // Spin-loop state: only `spin_step` reads it, so every other
        // notifier keeps it empty (a stray read panics on the index).
        let poll_hints = if matches!(cfg.notifier, Notifier::Spinning) {
            vec![[LoadHint::default(); 2]; n_queues]
        } else {
            Vec::new()
        };

        Ok(Engine {
            mem,
            layout,
            qrows,
            devices,
            queues_of_group,
            owned_groups,
            core_group,
            core_ptr: vec![0; cfg.dp_cores],
            empty_streak: vec![0; cfg.dp_cores],
            halted: vec![false; cfg.dp_cores],
            halted_by_group: vec![Vec::new(); groups],
            irq_pending: vec![std::collections::VecDeque::new(); groups],
            trackers: vec![HaltTracker::new(); cfg.dp_cores],
            telem: vec![CoreTelemetry::default(); cfg.dp_cores],
            flows,
            service,
            keyed_arrivals,
            group_arrival_count: vec![0; groups],
            group_next_arrival,
            service_keyed,
            generated_arrivals: 0,
            ev: EventQueue::new(),
            pending: std::collections::VecDeque::new(),
            carry: None,
            last_processed: 0,
            latency: Histogram::new(),
            notify_latency: Histogram::new(),
            queue_latency: std::collections::HashMap::new(),
            poll_cost_ewma: vec![20.0; cfg.dp_cores],
            completions: 0,
            completions_measured: 0,
            drops: 0,
            backlog: 0,
            deq_scratch: Vec::with_capacity(cfg.batch.max(IRQ_NAPI_BUDGET)),
            poll_hints,
            warmup_completions,
            measure_start: None,
            measuring: false,
            saturation_rate: rate,
            faults,
            straggler_step: vec![0; cfg.dp_cores],
            qwait_epoch: vec![0; cfg.dp_cores],
            qwait_backoff: vec![timeout_base; cfg.dp_cores],
            eviction_recoveries: 0,
            doorbell_recoveries: 0,
            eviction_recovery_latency: Histogram::new(),
            doorbell_recovery_latency: Histogram::new(),
            chaos_next,
            spare_base: next_spare,
            next_spare: vec![0; groups],
            churn_spare_pool: vec![vec![std::collections::VecDeque::new(); build_banks]; groups],
            churn_reallocations: 0,
            audit,
            tracer: match cfg.trace_capacity {
                Some(cap) => Tracer::with_capacity(cap),
                None => Tracer::disabled(),
            },
            attrib: if cfg.attrib {
                Attributor::enabled(DEFAULT_EXEMPLARS)
            } else {
                Attributor::disabled()
            },
            metrics: cfg
                .metrics_window_cycles
                .map(|w| WindowedMetrics::new(w, clock, cfg.dp_cores)),
            metrics_next: cfg.metrics_window_cycles.unwrap_or(u64::MAX),
            profile: KernelProfile::new(EV_LABELS),
            warmup_span: None,
            measure_span: None,
            cfg,
        })
    }

    /// Host bytes of the per-queue structures this lane built (capacity ×
    /// element size): rows, group lists, spin-loop state, HyperPlane
    /// devices, and arrival alias tables. FIFO buffers grow with backlog,
    /// not with the queue count, and are not counted. Deterministic for a
    /// config, so the scale harness can gate on it where RSS is noise.
    fn queue_state_bytes(&self) -> u64 {
        use std::mem::size_of;
        let rows = self.qrows.capacity() * size_of::<QRow>();
        let groups: usize = self.queues_of_group.iter().map(Vec::capacity).sum();
        let spin = self.poll_hints.capacity() * size_of::<[LoadHint; 2]>();
        let devices: usize = self
            .devices
            .iter()
            .map(HyperPlaneDevice::reserved_bytes)
            .sum();
        let arrivals: usize = self
            .keyed_arrivals
            .iter()
            .flatten()
            .map(KeyedArrivals::reserved_bytes)
            .sum();
        (rows + groups * size_of::<QueueId>() + spin + devices + arrivals) as u64
    }

    /// Queue `qi`'s resolved doorbell address.
    fn doorbell(&self, qi: usize) -> Addr {
        self.layout.doorbell_at(self.qrows[qi].doorbell)
    }

    fn wake_cycles(&self) -> Cycles {
        match self.cfg.notifier {
            Notifier::HyperPlane {
                power_optimized: true,
                ..
            } => self.cfg.machine.clock.micros_to_cycles(C1_WAKE_US),
            _ => Cycles::ZERO,
        }
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
        if self.flows.is_some() {
            self.ev.schedule_at(SimTime::ZERO, Ev::Arrival);
        }
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
    /// The first event at or past the boundary is parked in `carry` —
    /// popped but unprocessed — and consumed first by the next window.
    /// Run control (stop, warmup, watchdog, `max_cycles`) lives with the
    /// fabric controller between windows, never inside the pump, so a
    /// lane's event processing is a pure function of its own event stream.
    pub(crate) fn pump_window(&mut self, boundary: u64) {
        loop {
            // Take the next event: the carried boundary-crosser first,
            // then the pending same-instant run, then the wheel.
            let (now, ev) = match self.carry.take() {
                Some(pair) => pair,
                None => match self.pending.pop_front() {
                    Some(ev) => (self.ev.now(), ev),
                    None => {
                        let Some(pair) = self.ev.pop_batch(&mut self.pending) else {
                            break; // cannot happen: arrivals self-perpetuate
                        };
                        pair
                    }
                },
            };
            if now.since_start().count() >= boundary {
                self.carry = Some((now, ev));
                break;
            }
            self.last_processed = now.since_start().count();
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
                Ev::Arrival => self.on_arrival(now),
                Ev::CoreStep(c) => self.on_core_step(now, c),
                Ev::CoreWake(c) => self.on_core_wake(now, c),
                Ev::Reconsider { core, group, qid } => {
                    let _cost = self.reconsider(core, group, QueueId(qid), now);
                }
                Ev::DelayedSnoop { group, line } => {
                    if let Some(dev) = self.devices.get_mut(group) {
                        let hit = dev.snoop_getm(LineAddr(line));
                        self.note(
                            now,
                            TraceKind::GetmSnoop {
                                group: group as u32,
                                hit: hit.is_some(),
                            },
                        );
                        if let Some(qid) = hit {
                            self.note(now, TraceKind::ReadyInsert { queue: qid.0 });
                            self.wake_one(now, group);
                        }
                    }
                }
                Ev::QwaitTimeout { core, epoch } => self.on_qwait_timeout(now, core, epoch),
                Ev::GroupArrival(g) => self.on_group_arrival(now, g as usize),
                Ev::GroupChurn { group, tick } => self.on_group_churn(now, group as usize, tick),
            }
        }
    }

    /// The lane's window-boundary report to the fabric controller:
    /// completions so far, residual backlog, whether every *owned* DP core
    /// is halted, and the lane-local end time.
    pub(crate) fn lane_report(&self) -> crate::par_engine::LaneReport {
        debug_assert_eq!(
            self.backlog,
            self.qrows.iter().map(|r| r.items.len() as u64).sum::<u64>()
        );
        crate::par_engine::LaneReport {
            completions: self.completions,
            backlog: self.backlog,
            all_halted: (0..self.cfg.dp_cores)
                .all(|c| !self.owned_groups[self.core_group[c]] || self.halted[c]),
            last_processed: self.last_processed,
        }
    }

    /// Opens the measurement phase at `at` (a window boundary chosen by
    /// the fabric controller from fabric-wide completions).
    pub(crate) fn begin_measure(&mut self, at: SimTime) {
        self.measuring = true;
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

    /// Completions required before measurement may begin (derived from
    /// `target_completions` at construction; the fabric controller applies
    /// it to *fabric-wide* completions).
    pub(crate) fn warmup_completions(&self) -> u64 {
        self.warmup_completions
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

    /// Closes every metrics window whose nominal boundary is at or before
    /// `now_cycles` (lazy closing — see [`crate::metrics`]).
    /// `in_flight` marks a popped-but-unhandled trigger event (the pump
    /// closes windows lazily, mid-event): counting it keeps the depth
    /// sample worker-count-invariant — every engine crossing a window
    /// boundary has exactly one such event, so serial (one crossing)
    /// and N lanes (N crossings) observe the same outstanding-event set.
    fn close_metrics_windows(&mut self, now_cycles: u64, in_flight: bool) {
        while self.metrics_next <= now_cycles {
            let obs = self.window_observation(self.metrics_next, in_flight);
            let m = self
                .metrics
                .as_mut()
                .expect("metrics_next is finite only when sampling");
            m.close(&obs);
            self.metrics_next = m.next_boundary();
        }
    }

    /// Boundary snapshot for the windowed sampler: instantaneous queue /
    /// event-queue / halt state, plus cumulative counters up to
    /// `boundary`. In-progress halt episodes (credited only at resume)
    /// are counted up to the boundary explicitly.
    fn window_observation(&self, boundary: u64, in_flight: bool) -> WindowObservation {
        let halt_cycles = (0..self.cfg.dp_cores)
            .map(|c| {
                let credited = self.telem[c].halt_c0_cycles + self.telem[c].halt_c1_cycles;
                let in_progress = self.trackers[c]
                    .halted_since()
                    .map(|s| boundary.saturating_sub(s.since_start().count()))
                    .unwrap_or(0);
                credited + in_progress
            })
            .collect();
        WindowObservation {
            backlog: self.backlog,
            event_queue_depth: (self.ev.len()
                + self.pending.len()
                + usize::from(self.carry.is_some())
                + usize::from(in_flight)) as u64,
            cores_halted: self.halted.iter().filter(|&&h| h).count() as u64,
            halt_cycles,
            spin_instructions: self.telem.iter().map(|t| t.spin_instructions).sum(),
            drops: self.drops,
        }
    }

    /// Aggregates device-plane counters over this engine's *owned*
    /// devices. Each sharing group is owned by exactly one lane, so
    /// summing lane aggregates reassembles the one-lane totals (build-time
    /// registration runs in every lane but is counted only by the owner).
    fn device_stats(&self) -> Option<DeviceStats> {
        if self.devices.is_empty() {
            return None;
        }
        let mut d = DeviceStats {
            monitoring_banks: self.devices[0].monitoring_banks() as u64,
            ..DeviceStats::default()
        };
        for (g, dev) in self.devices.iter().enumerate() {
            if self.owned_groups[g] {
                d.absorb(dev.monitoring_stats(), dev.spurious_wakeups());
            }
        }
        Some(d)
    }

    // ---------------------------------------------------------------- //
    // Arrivals (emulated I/O producers)
    // ---------------------------------------------------------------- //

    /// Flow-traffic arrival: the next item of the one sequential stream.
    fn on_arrival(&mut self, now: SimTime) {
        // The item's identity and service demand are drawn *before* the
        // cap check: a dropped arrival still burns both, so what the n-th
        // arrival consumes is a pure function of n — never of the backlog
        // at delivery time — and every fault decision can be keyed by
        // item id.
        let (gap, q, id, service) = self
            .flows
            .as_mut()
            .expect("scheduled only under flow traffic")
            .next(&self.service);
        // `gap` is to the *next* arrival; this one is delivered now.
        self.ev.schedule_after(gap, Ev::Arrival);
        // Mirror the next arrival's timestamp for the spinning
        // fast-forward (see `on_group_arrival`; flow traffic has one
        // group).
        self.group_next_arrival[0] = (now + gap).since_start().count();
        self.deliver_arrival(now, q, id, service);
    }

    /// Shape-traffic arrival: the `k`-th item of group `g`'s partition
    /// stream. The gap/queue pair is a pure function of `(seed, g, k)`
    /// and the service demand a pure function of the item id
    /// `g + k * groups` (a dense, collision-free renumbering of the
    /// per-group sequences), so a lane that never sees other groups'
    /// arrivals still produces bit-identical items for its own.
    fn on_group_arrival(&mut self, now: SimTime, g: usize) {
        let k = self.group_arrival_count[g];
        self.group_arrival_count[g] = k + 1;
        let a = self.keyed_arrivals[g]
            .as_ref()
            .expect("scheduled only for groups with a live partition stream")
            .arrival(k);
        self.ev.schedule_after(a.gap, Ev::GroupArrival(g as u32));
        // Mirror the next arrival's timestamp for the spinning
        // fast-forward: it must not peek the event queue (a lane's queue
        // lacks other lanes' events; the wheel's `peek` would also see
        // unrelated event types).
        self.group_next_arrival[g] = (now + a.gap).since_start().count();
        let groups = self.queues_of_group.len() as u64;
        let id = g as u64 + k * groups;
        let service = {
            let mut rng = self.service_keyed.split(id);
            self.service.sample(&mut rng)
        };
        self.deliver_arrival(now, a.queue, id, service);
    }

    /// Materializes one arrival on its (owned) queue: everything
    /// downstream of the stimulus draws — cap check and drop accounting,
    /// enqueue, producer stores and doorbell ring, interrupt arming,
    /// fault injection, and the monitoring-set snoop. Shared verbatim by
    /// both traffic sources, which differ only in how `(q, id, service)`
    /// and the next arrival's schedule are derived.
    fn deliver_arrival(&mut self, now: SimTime, q: QueueId, id: u64, service: Cycles) {
        let qi = q.0 as usize;
        let g = self.qrows[qi].group as usize;
        debug_assert!(self.owned_groups[g]);
        self.generated_arrivals += 1;
        // The fault plan may narrow the cap to force overflow drops. Read
        // the injector's *current* plan, not the base config, so chaos
        // phases that carry a cap take effect inside their windows.
        let cap = match self.faults.plan().queue_cap {
            Some(c) => c.min(self.cfg.queue_cap),
            None => self.cfg.queue_cap,
        };
        if self.qrows[qi].items.len() >= cap {
            self.drops += 1;
            return;
        }

        // The owning group's partition is no longer provably empty: its
        // spinning cores must complete a fresh full sweep before they may
        // fast-forward again.
        for c in 0..self.cfg.dp_cores {
            if self.core_group[c] == g {
                self.empty_streak[c] = 0;
            }
        }
        let item = WorkItem {
            id,
            arrival: now,
            service,
        };
        self.qrows[qi].items.push_back(item);
        self.backlog += 1;
        self.note(
            now,
            TraceKind::Enqueue {
                queue: q.0,
                item: item.id,
            },
        );
        self.audit.on_enqueue(item.id, now.since_start().count());

        // Producer writes the payload buffers then rings the doorbell.
        let row = &mut self.qrows[qi];
        let (prod, slot) = (CoreId(row.producer as usize), row.enq_slot);
        row.enq_slot = next_slot(slot);
        {
            // Split borrow: the line iterator borrows `layout` while the
            // accesses mutate `mem` — no per-arrival Vec needed.
            let Self { layout, mem, .. } = self;
            for a in layout.buffer_lines(q, slot.into()) {
                mem.access(prod, a, AccessKind::Store);
            }
        }
        let ring = self.mem.access(prod, self.doorbell(qi), AccessKind::Store);
        self.note(now, TraceKind::DoorbellWrite { queue: q.0 });

        // Interrupt baseline: a doorbell write to an armed queue raises a
        // per-queue interrupt; delivery pays the kernel path cost.
        if matches!(self.cfg.notifier, Notifier::Interrupt) && self.qrows[qi].irq_armed {
            self.qrows[qi].irq_armed = false;
            self.irq_pending[g].push_back(q.0);
            if let Some(core) = self.halted_by_group[g].pop() {
                debug_assert!(self.halted[core]);
                let cost = self.cfg.machine.clock.micros_to_cycles(IRQ_DELIVERY_US);
                self.ev.schedule_at(now + cost, Ev::CoreWake(core));
            }
        }

        // Fault: evict the arriving queue's monitoring entry just before
        // the doorbell rings (capacity conflict / firmware shootdown).
        // The queue's notifications go dark until the recovery sweep
        // re-registers it.
        if !self.devices.is_empty() && self.faults.evict_now(id) {
            if let Some(dev) = self.devices.get_mut(g) {
                if dev.qwait_remove(q).is_some() {
                    self.faults.record_eviction();
                    self.note(now, TraceKind::FaultEvicted { queue: q.0 });
                }
            }
        }

        // Fault: a spurious activation (false sharing on a doorbell line)
        // for a random queue of this group; QWAIT-VERIFY must filter it.
        if !self.devices.is_empty() && self.faults.spurious_now(id) {
            let victims = &self.queues_of_group[g];
            let victim = victims[self.faults.pick(id, victims.len())];
            self.devices[g].force_activate(victim);
            self.note(now, TraceKind::FaultSpurious { queue: victim.0 });
            self.wake_one(now, g);
        }

        // HyperPlane: the monitoring set snoops the GetM — unless the
        // fault plane loses or delays the notification in flight.
        if let Some(line) = ring.getm {
            if let Some(dev) = self.devices.get_mut(g) {
                match self.faults.doorbell_fate(id) {
                    DoorbellFate::Deliver => {
                        let hit = dev.snoop_getm(line);
                        self.note(
                            now,
                            TraceKind::GetmSnoop {
                                group: g as u32,
                                hit: hit.is_some(),
                            },
                        );
                        if let Some(qid) = hit {
                            self.note(now, TraceKind::ReadyInsert { queue: qid.0 });
                            self.wake_one(now, g);
                        }
                    }
                    // The wake-up is simply lost.
                    DoorbellFate::Drop => {
                        self.note(now, TraceKind::FaultDropped { queue: q.0 });
                    }
                    DoorbellFate::Delay(d) => {
                        self.note(
                            now,
                            TraceKind::FaultDelayed {
                                queue: q.0,
                                cycles: d.count(),
                            },
                        );
                        self.ev.schedule_at(
                            now + d,
                            Ev::DelayedSnoop {
                                group: g,
                                line: line.0,
                            },
                        );
                    }
                }
            }
        }
    }

    fn wake_one(&mut self, now: SimTime, group: usize) {
        let lookup = self.devices[group].timing().monitor_lookup;
        if let Some(core) = self.halted_by_group[group].pop() {
            debug_assert!(self.halted[core]);
            // The wake is in flight: stale any armed re-poll timeout so
            // it cannot double-resume the core mid-transit.
            self.qwait_epoch[core] += 1;
            let delay = Cycles(lookup.count() + self.wake_cycles().count());
            self.ev.schedule_at(now + delay, Ev::CoreWake(core));
            return;
        }
        // Work stealing (§III-B future work): an activation with no local
        // sleeper may wake an idle core of another group, which will steal
        // the ready QID across the socket boundary.
        if self.cfg.work_stealing {
            for g in 0..self.halted_by_group.len() {
                if g != group {
                    if let Some(core) = self.halted_by_group[g].pop() {
                        debug_assert!(self.halted[core]);
                        self.qwait_epoch[core] += 1;
                        let delay = Cycles(
                            lookup.count() + self.wake_cycles().count() + INTER_GROUP_CYCLES,
                        );
                        self.ev.schedule_at(now + delay, Ev::CoreWake(core));
                        return;
                    }
                }
            }
        }
    }

    fn on_core_wake(&mut self, now: SimTime, c: usize) {
        debug_assert!(self.halted[c]);
        self.halted[c] = false;
        self.note(now, TraceKind::Wake { core: c as u32 });
        self.trackers[c].resume(now, &mut self.telem[c]);
        // A real wake-up invalidates any armed re-poll timeout and
        // resets its backoff: the notification path is working.
        self.qwait_epoch[c] += 1;
        self.qwait_backoff[c] = self.cfg.qwait_timeout_cycles.unwrap_or(0);
        self.on_core_step(now, c);
    }

    // ---------------------------------------------------------------- //
    // Data-plane cores
    // ---------------------------------------------------------------- //

    fn on_core_step(&mut self, now: SimTime, c: usize) {
        // Fault: the core straggles (SMI / frequency dip / noisy
        // neighbor) — it burns the stall actively, then retries the step.
        let step = self.straggler_step[c];
        self.straggler_step[c] += 1;
        if let Some(stall) = self
            .faults
            .straggler_stall(((c as u64) << 32).wrapping_add(step))
        {
            self.telem[c].active_cycles += stall.count();
            self.ev.schedule_at(now + stall, Ev::CoreStep(c));
            return;
        }
        match self.cfg.notifier {
            Notifier::Spinning => self.spin_step(now, c),
            Notifier::Interrupt => self.irq_step(now, c),
            Notifier::HyperPlane { .. } => self.hp_step(now, c),
        }
    }

    /// One spin-poll iteration: interrogate the queue under the pointer;
    /// process it if non-empty, else advance.
    fn spin_step(&mut self, now: SimTime, c: usize) {
        let group = self.core_group[c];
        let core = CoreId(c);
        let qlist_len = self.queues_of_group[group].len();
        // `core_ptr` is kept in-range by every writer; the sweep advance
        // below wraps by compare instead of `%` (an integer divide on the
        // hottest line in the simulator).
        let ptr = self.core_ptr[c];
        debug_assert!(ptr < qlist_len);
        let q = self.queues_of_group[group][ptr];
        let qi = q.0 as usize;

        // Poll: read the doorbell line and the queue-head descriptor line
        // (a poll-mode driver interrogates the ring head, not just a
        // counter — two lines per queue is what thrashes the L1 at high
        // queue counts). The per-queue hints skip the directory probe;
        // with `mem_fast_path` off, `load_hinted` ignores them.
        let (db, desc_addr) = (self.doorbell(qi), self.layout.descriptor(q));
        let [db_hint, desc_hint] = &mut self.poll_hints[qi];
        let poll = self.mem.load_hinted(core, db, db_hint);
        let desc = self.mem.load_hinted(core, desc_addr, desc_hint);
        let mem_lat = poll.latency.count() + desc.latency.count();
        let poll_cost = self.cfg.poll_overhead_cycles + mem_lat;
        self.poll_cost_ewma[c] = 0.98 * self.poll_cost_ewma[c] + 0.02 * poll_cost as f64;

        if self.qrows[qi].items.is_empty() {
            self.telem[c].spin_instructions += POLL_INSTR;
            self.telem[c].active_cycles += poll_cost;
            self.telem[c].empty_polls += 1;
            self.core_ptr[c] = if ptr + 1 == qlist_len { 0 } else { ptr + 1 };
            self.empty_streak[c] += 1;

            // Fast-forward: a full sweep found nothing; only the next
            // traffic arrival can add work to this partition (siblings
            // only remove work, and a spinning run schedules no device
            // events), so jump straight to it. At the arrival instant the
            // Arrival event was inserted earlier and therefore pops first,
            // resetting the streak before this core's step runs.
            if self.empty_streak[c] >= qlist_len {
                // Only this group's stream can feed this partition.
                let target = self.group_next_arrival[group];
                if target == u64::MAX {
                    // Zero-mass partition: no arrival can ever add
                    // work here, so the core quiesces instead of spinning
                    // to the end of time. Identical in serial and lane
                    // runs (the stream map is build-deterministic).
                    return;
                }
                let t_next = SimTime(target);
                let resume_at = now + Cycles(poll_cost);
                if t_next > resume_at {
                    let dt = t_next.since(resume_at).count();
                    let skipped = dt / self.poll_cost_ewma[c].max(1.0) as u64;
                    self.telem[c].spin_instructions += skipped * POLL_INSTR;
                    self.telem[c].active_cycles += dt;
                    self.telem[c].empty_polls += skipped;
                    self.core_ptr[c] = (ptr + 1 + skipped as usize) % qlist_len;
                    self.ev.schedule_at(t_next, Ev::CoreStep(c));
                    return;
                }
            }
            self.ev.schedule_after(Cycles(poll_cost), Ev::CoreStep(c));
            return;
        }

        // Found work.
        self.empty_streak[c] = 0;
        self.telem[c].useful_instructions += POLL_INSTR;
        let mut total = poll_cost;

        let sync = if self.cfg.cluster > 1 { CAS_CYCLES } else { 0 };
        total += sync;
        let batch = self.cfg.batch.min(self.qrows[qi].items.len());
        total += self.dequeue_batch(c, q, batch);
        let deq_instant = now + Cycles(total);
        let items = std::mem::take(&mut self.deq_scratch);
        total += self.process_items(now, c, q, &items, total, deq_instant);
        self.deq_scratch = items;
        self.core_ptr[c] = if ptr + 1 == qlist_len { 0 } else { ptr + 1 };
        self.telem[c].active_cycles += total;
        self.ev.schedule_after(Cycles(total), Ev::CoreStep(c));
    }

    /// One interrupt-baseline iteration: take the next pending IRQ, drain
    /// its queue NAPI-style (bounded budget), re-arm, and sleep when no
    /// IRQs are pending. Each IRQ delivery already paid the kernel entry
    /// cost at wake-up; per-queue servicing pays a softirq dispatch cost.
    fn irq_step(&mut self, now: SimTime, c: usize) {
        let group = self.core_group[c];
        let Some(q) = self.irq_pending[group].pop_front() else {
            // Idle: block in the kernel until the next interrupt.
            self.halted[c] = true;
            self.halted_by_group[group].push(c);
            self.note(now, TraceKind::Halt { core: c as u32 });
            self.trackers[c].halt(now, HaltState::C0Halt);
            return;
        };
        let q = QueueId(q);
        let qi = q.0 as usize;

        // Softirq dispatch + driver entry for this queue.
        let mut total = IRQ_DISPATCH_CYCLES;
        self.telem[c].useful_instructions += IRQ_DISPATCH_CYCLES; // ~1 instr/cycle kernel path

        // NAPI budget: drain up to IRQ_NAPI_BUDGET items, then either
        // re-arm (drained) or reschedule ourselves (still backlogged).
        let batch = IRQ_NAPI_BUDGET.min(self.qrows[qi].items.len());
        if batch > 0 {
            total += self.dequeue_batch(c, q, batch);
            let deq_instant = now + Cycles(total);
            let items = std::mem::take(&mut self.deq_scratch);
            total += self.process_items(now, c, q, &items, total, deq_instant);
            self.deq_scratch = items;
        }
        if self.qrows[qi].items.is_empty() {
            self.qrows[qi].irq_armed = true;
        } else {
            self.irq_pending[group].push_back(q.0);
        }
        self.telem[c].active_cycles += total;
        self.ev.schedule_after(Cycles(total), Ev::CoreStep(c));
    }

    /// One HyperPlane iteration: QWAIT → VERIFY → dequeue → RECONSIDER →
    /// process (Algorithm 1's data-plane loop).
    fn hp_step(&mut self, now: SimTime, c: usize) {
        let group = self.core_group[c];
        let core = CoreId(c);
        let (power_optimized, software_ready_set) = match self.cfg.notifier {
            Notifier::HyperPlane {
                power_optimized,
                software_ready_set,
            } => (power_optimized, software_ready_set),
            Notifier::Spinning | Notifier::Interrupt => {
                unreachable!("hp_step on non-HyperPlane config")
            }
        };

        let mut total: u64;
        if software_ready_set {
            let ready = self.devices[group].ready_count() as u64;
            total = SW_READY_BASE_CYCLES + SW_READY_PER_QID_CYCLES * ready;
            if self.cfg.cluster > 1 {
                total += SW_READY_LOCK_CYCLES;
            }
            self.telem[c].useful_instructions += SW_READY_BASE_CYCLES + 2 * ready;
        } else {
            total = self.devices[group].timing().qwait.count();
            self.telem[c].useful_instructions += QWAIT_INSTR;
        }

        // Work stealing: a core with an empty local ready set may fetch a
        // ready QID from a remote group's ready set (§III-B future work),
        // paying the inter-socket penalty on every stolen device operation.
        let mut serve_group = group;
        let mut selected = self.devices[group].qwait_select();
        if selected.is_none() && self.cfg.work_stealing {
            let n_groups = self.devices.len();
            for off in 1..n_groups {
                let g2 = (group + off) % n_groups;
                if let Some(q) = self.devices[g2].qwait_select() {
                    serve_group = g2;
                    selected = Some(q);
                    total += 2 * INTER_GROUP_CYCLES;
                    break;
                }
            }
        }
        let group = serve_group;
        let Some(qid) = selected else {
            self.telem[c].empty_polls += 1;
            // Non-blocking QWAIT variant (§III-A): instead of halting, run
            // a chunk of a latency-insensitive background task, then poll
            // the entire ready set again with a single QWAIT.
            if self.cfg.background_task {
                total += BACKGROUND_CHUNK_CYCLES;
                self.telem[c].background_instructions +=
                    (BACKGROUND_CHUNK_CYCLES as f64 * BACKGROUND_IPC) as u64;
                self.telem[c].active_cycles += total;
                self.ev.schedule_after(Cycles(total), Ev::CoreStep(c));
                return;
            }
            // Halt until an activation wakes us.
            self.telem[c].active_cycles += total;
            self.halted[c] = true;
            self.halted_by_group[group].push(c);
            let state = if power_optimized {
                HaltState::C1
            } else {
                HaltState::C0Halt
            };
            self.note(now + Cycles(total), TraceKind::Halt { core: c as u32 });
            self.trackers[c].halt(now + Cycles(total), state);
            self.arm_qwait_timeout(now + Cycles(total), c);
            return;
        };

        // QWAIT-VERIFY: read the doorbell count.
        let qi = qid.0 as usize;
        let verify_mem = self.mem.access(core, self.doorbell(qi), AccessKind::Load);
        total += verify_mem.latency.count() + self.devices[group].timing().verify.count();
        self.telem[c].useful_instructions += QWAIT_INSTR / 2;

        let depth = self.qrows[qi].items.len() as u64;
        let (ready, action) = self.devices[group].qwait_verify(qid, depth);
        if let RearmAction::ProbeShared(line) = action {
            total += self.mem.probe_shared(line).count();
        }
        if !ready {
            self.telem[c].spurious += 1;
            self.telem[c].active_cycles += total;
            self.ev.schedule_after(Cycles(total), Ev::CoreStep(c));
            return;
        }

        let batch = self.cfg.batch.min(self.qrows[qi].items.len());
        total += self.dequeue_batch(c, qid, batch);
        let deq_instant = now + Cycles(total);
        let items = std::mem::take(&mut self.deq_scratch);

        // QWAIT-RECONSIDER placement (paper §III-B): Algorithm 1's default
        // reconsiders *between* dequeue and process, allowing a sibling
        // core to drain the queue's next item concurrently (maximum
        // intra-queue concurrency, no HoL blocking). Flow-stateful
        // applications swap lines 18/19 — reconsider only after
        // processing — to force in-order delivery; the state change is
        // deferred to the simulated completion instant so no sibling can
        // be granted the queue mid-service.
        if !self.cfg.in_order {
            total += self.reconsider(c, group, qid, now);
        }
        total += self.process_items(now, c, qid, &items, total, deq_instant);
        self.deq_scratch = items;
        if self.cfg.in_order {
            // Charge the instruction cost now; fire the device-state
            // change when processing completes in simulated time.
            total += self.devices[group].timing().verify.count();
            self.ev.schedule_after(
                Cycles(total),
                Ev::Reconsider {
                    core: c,
                    group,
                    qid: qid.0,
                },
            );
        }

        self.telem[c].active_cycles += total;
        self.ev.schedule_after(Cycles(total), Ev::CoreStep(c));
    }

    /// `QWAIT-RECONSIDER` with its coherence action and sibling wake-up;
    /// returns cycles charged.
    fn reconsider(&mut self, c: usize, group: usize, qid: QueueId, now: SimTime) -> u64 {
        let mut cost = self.devices[group].timing().verify.count();
        self.telem[c].useful_instructions += QWAIT_INSTR / 2;
        let depth_after = self.qrows[qid.0 as usize].items.len() as u64;
        let action = self.devices[group].qwait_reconsider(qid, depth_after);
        if let RearmAction::ProbeShared(line) = action {
            cost += self.mem.probe_shared(line).count();
        }
        // A re-activated backlogged queue may be picked up by a halted
        // sibling core in the cluster.
        if depth_after > 0 {
            self.wake_one(now, group);
        }
        cost
    }

    // ---------------------------------------------------------------- //
    // Resilience: QWAIT timeout, recovery sweep, watchdog
    // ---------------------------------------------------------------- //

    /// Arms the bounded-backoff re-poll timeout for a core that just
    /// halted in the QWAIT path (no-op unless `qwait_timeout_cycles` is
    /// configured). The interrupt baseline never arms one: its kernel
    /// delivery path is modeled as reliable.
    fn arm_qwait_timeout(&mut self, halt_at: SimTime, c: usize) {
        if self.cfg.qwait_timeout_cycles.is_none() {
            return;
        }
        self.qwait_epoch[c] += 1;
        let epoch = self.qwait_epoch[c];
        self.ev.schedule_at(
            halt_at + Cycles(self.qwait_backoff[c]),
            Ev::QwaitTimeout { core: c, epoch },
        );
    }

    /// A halted core's re-poll timeout expired: sweep the group's queues
    /// for missed work. On a hit the core resumes (and the miss-to-recovery
    /// latency is recorded); on a miss it re-halts with doubled, bounded
    /// backoff so an idle fault-free system converges to rare re-polls.
    fn on_qwait_timeout(&mut self, now: SimTime, c: usize, epoch: u64) {
        if !self.halted[c] || epoch != self.qwait_epoch[c] {
            return; // stale: the core was woken since this was armed
        }
        let base = self.cfg.qwait_timeout_cycles.unwrap_or(0);
        self.telem[c].qwait_timeouts += 1;
        self.note(now, TraceKind::WakeTimeout { core: c as u32 });
        let group = self.core_group[c];
        let halted_at = self.trackers[c].halted_since();
        let (found, sweep_cost, reregistered) = self.recovery_sweep(now, c, group);
        // The sweep runs on the briefly-resumed core: its cycles are
        // active, not halted.
        self.trackers[c].resume(now, &mut self.telem[c]);
        self.telem[c].active_cycles += sweep_cost;
        if found {
            // Missed wake-up recovered: how long did work sit unnoticed?
            // Attribute it per fault class: a sweep that had to re-insert
            // an evicted monitoring entry recovered from an eviction; one
            // that only found unannounced backlog recovered from a lost
            // (or not-yet-delivered) doorbell.
            if let Some(since) = halted_at {
                let lat = now.saturating_since(since).count();
                if reregistered {
                    self.eviction_recovery_latency.record(lat);
                } else {
                    self.doorbell_recovery_latency.record(lat);
                }
            }
            if reregistered {
                self.eviction_recoveries += 1;
            } else {
                self.doorbell_recoveries += 1;
            }
            self.telem[c].recoveries += 1;
            self.note(now, TraceKind::Recovery { core: c as u32 });
            self.qwait_backoff[c] = base;
            self.qwait_epoch[c] += 1;
            self.halted[c] = false;
            self.halted_by_group[group].retain(|&x| x != c);
            self.ev
                .schedule_at(now + Cycles(sweep_cost), Ev::CoreStep(c));
        } else {
            let state = match self.cfg.notifier {
                Notifier::HyperPlane {
                    power_optimized: true,
                    ..
                } => HaltState::C1,
                _ => HaltState::C0Halt,
            };
            self.note(now + Cycles(sweep_cost), TraceKind::Halt { core: c as u32 });
            self.trackers[c].halt(now + Cycles(sweep_cost), state);
            self.qwait_backoff[c] = self.qwait_backoff[c]
                .saturating_mul(2)
                .clamp(base, QWAIT_BACKOFF_MAX_CYCLES.max(base));
            self.arm_qwait_timeout(now + Cycles(sweep_cost), c);
        }
    }

    /// Walks every queue of `group` like a software poll loop: reads each
    /// doorbell (charged at memory latency plus poll overhead),
    /// re-registers entries lost to monitoring-set eviction (Algorithm 1's
    /// `QWAIT-ADD` retry; a Cuckoo conflict just leaves the queue for the
    /// next sweep), and forces backlogged queues into the ready set.
    /// Returns whether any backlog was found, the cycles charged, and
    /// whether the sweep had to re-register an evicted monitoring entry
    /// (the eviction fault class, as opposed to a lost doorbell).
    fn recovery_sweep(&mut self, now: SimTime, c: usize, group: usize) -> (bool, u64, bool) {
        let core = CoreId(c);
        let mut cost = 0u64;
        let mut found = false;
        let mut reregistered = false;
        for i in 0..self.queues_of_group[group].len() {
            let q = self.queues_of_group[group][i];
            let qi = q.0 as usize;
            let db = self.doorbell(qi);
            cost += self.cfg.poll_overhead_cycles;
            cost += self.mem.access(core, db, AccessKind::Load).latency.count();
            self.telem[c].useful_instructions += POLL_INSTR;
            if self.devices[group].line_of(q).is_none() {
                cost += self.devices[group].timing().monitor_lookup.count();
                let _ = self.devices[group].qwait_add(q, db.line());
                reregistered = true;
            }
            if !self.qrows[qi].items.is_empty() {
                self.devices[group].force_activate(q);
                // The forced activation is a ready-set insertion like any
                // other; announcing it keeps the trace faithful and ends
                // the queue's attribution dark time at the sweep instant.
                self.note(now, TraceKind::ReadyInsert { queue: q.0 });
                found = true;
            }
        }
        (found, cost, reregistered)
    }

    /// Chaos-plane doorbell churn: the control plane re-homes one live
    /// queue's doorbell to a fresh spare line through Algorithm 1's
    /// QWAIT-ADD retry — tear-down, reallocate, re-register — while
    /// traffic is in flight. Wake-ups snooped on the old line between
    /// tear-down and the producer's next ring are genuinely lost; a
    /// careful driver therefore finishes the migration by syncing the
    /// queue's backlog into the device (the re-check in Algorithm 1),
    /// so churn alone never strands work.
    ///
    /// Processes tick `tick` (group `g`'s turn in the global schedule —
    /// the victim pick is re-derived and asserted) and schedules the
    /// group's next owned tick.
    fn on_group_churn(&mut self, now: SimTime, g: usize, tick: u64) {
        let Some(churn) = self.cfg.chaos.churn else {
            return;
        };
        let qi = self.faults.pick(tick, self.qrows.len());
        debug_assert_eq!(
            self.qrows[qi].group as usize, g,
            "churn tick scheduled for the wrong group"
        );
        self.churn_rehome(now, qi);
        // Per-lane the counter counts *owned* re-homings only; the fabric
        // merge sums lanes into the global count.
        self.churn_reallocations += 1;
        self.schedule_next_group_churn(g, tick + 1, churn.period);
    }

    /// Schedules group `g`'s next churn tick at or after `from_tick`.
    /// Tick `j` fires at `(j + 1) * period` and victimizes
    /// `pick(j, queues)` — a pure, stateless function of the tick index —
    /// so the owner scans forward to its next owned tick and schedules
    /// exactly that one. Foreign ticks are skipped in O(1) each, without
    /// replaying any chain event; the scan is bounded by `max_cycles`
    /// (ticks past it can never be processed).
    fn schedule_next_group_churn(&mut self, g: usize, from_tick: u64, period: u64) {
        let n = self.qrows.len();
        let mut j = from_tick;
        loop {
            let at = match (j + 1).checked_mul(period) {
                Some(at) if at <= self.cfg.max_cycles => at,
                _ => return,
            };
            if self.qrows[self.faults.pick(j, n)].group as usize == g {
                self.ev.schedule_at(
                    SimTime(at),
                    Ev::GroupChurn {
                        group: g as u32,
                        tick: j,
                    },
                );
                return;
            }
            j += 1;
        }
    }

    /// Re-homes queue `qi`'s doorbell through Algorithm 1 (the body of a
    /// churn tick — spare selection is strided per group, so it depends
    /// only on the group's own churn history).
    fn churn_rehome(&mut self, now: SimTime, qi: usize) {
        let q = QueueId(qi as u32);
        let g = self.qrows[qi].group as usize;
        // Tear down the current registration (it may already be gone if
        // the fault plane evicted it; the re-add below repairs that too).
        let _ = self.devices[g].qwait_remove(q);
        // Re-home to the next spare line, retrying past Cuckoo conflicts.
        // Spares are a finite reserved range, strided per group so one
        // group's consumption depends only on its own churn history; once
        // the driver has burned a group's share, churn degrades to
        // re-registering the current line. Sharded monitoring re-homes
        // within the old line's bank first (same rule as build-time
        // conflict resolution; see `take_spare`).
        let spares = QueueLayout::spare_doorbells(self.cfg.queues);
        let groups = self.queues_of_group.len() as u64;
        let want = self.devices[g].monitoring_bank_of(self.doorbell(qi).line());
        let mut rehomed = false;
        loop {
            let (next, base) = (&mut self.next_spare[g], self.spare_base + g as u64);
            let (dev, layout) = (&self.devices[g], &self.layout);
            let Some(idx) = take_spare(
                want,
                &mut self.churn_spare_pool[g],
                || {
                    let i = base + *next * groups;
                    (i < spares).then(|| {
                        *next += 1;
                        i
                    })
                },
                |i| dev.monitoring_bank_of(layout.spare_doorbell(i).line()),
            ) else {
                break;
            };
            let addr = self.layout.spare_doorbell(idx);
            match self.devices[g].qwait_add(q, addr.line()) {
                Ok(()) => {
                    // Churn needs HyperPlane devices, and only the spin
                    // loop reads the load hints, so nothing cached needs
                    // a refresh here.
                    self.qrows[qi].doorbell = spare_index(self.cfg.queues, idx);
                    rehomed = true;
                    break;
                }
                Err(hp_core::qwait::QwaitError::Conflict(_)) => continue,
                Err(e) => panic!("churn re-registration failed: {e}"),
            }
        }
        if !rehomed {
            let line = self.doorbell(qi).line();
            let _ = self.devices[g].qwait_add(q, line);
        }
        self.note(now, TraceKind::FaultEvicted { queue: q.0 });
        // Driver-side migration sync: backlog enqueued before the move
        // announced itself on the old line, so activate the new entry.
        if !self.qrows[qi].items.is_empty() {
            self.devices[g].force_activate(q);
            self.note(now, TraceKind::ReadyInsert { queue: q.0 });
            self.wake_one(now, g);
        }
    }

    /// Dequeues up to `batch` items from `q`: descriptor read + doorbell
    /// decrement (a consumer store, issued while the entry is disarmed so
    /// it cannot self-wake — §III-B). Returns the cycles charged.
    /// The dequeued items land in `self.deq_scratch` (cleared first) so the
    /// per-step buffer is reused instead of reallocated; callers
    /// `mem::take` it around `process_items` and put it back.
    fn dequeue_batch(&mut self, c: usize, q: QueueId, batch: usize) -> u64 {
        let core = CoreId(c);
        let qi = q.0 as usize;
        let (desc_addr, db) = (self.layout.descriptor(q), self.doorbell(qi));
        let mut cost = 0u64;
        cost += self
            .mem
            .access(core, desc_addr, AccessKind::Load)
            .latency
            .count();
        cost += self.mem.access(core, db, AccessKind::Store).latency.count();
        let items = &mut self.qrows[qi].items;
        let n = batch.min(items.len());
        self.deq_scratch.clear();
        self.deq_scratch.extend(items.drain(..n));
        for item in &self.deq_scratch {
            self.audit.on_dequeue(item.id);
        }
        self.telem[c].useful_instructions += DEQ_INSTR * n as u64;
        self.backlog -= n as u64;
        cost
    }

    /// Transport-processes `items` from `q`: buffer streaming, service
    /// time, tenant notification, completion accounting. `base` is the
    /// cycles already charged this step; `deq_instant` is when the items
    /// left the queue (for the notification-latency breakdown).
    fn process_items(
        &mut self,
        now: SimTime,
        c: usize,
        q: QueueId,
        items: &[WorkItem],
        base: u64,
        deq_instant: SimTime,
    ) -> u64 {
        let core = CoreId(c);
        let qi = q.0 as usize;
        let desc_addr = self.layout.descriptor(q);
        let mut total = 0u64;
        for item in items {
            // Stream the payload buffer lines (MLP-overlapped).
            let slot = self.qrows[qi].deq_slot;
            self.qrows[qi].deq_slot = next_slot(slot);
            let mut buf_lat = 0u64;
            {
                let Self { layout, mem, .. } = self;
                for a in layout.buffer_lines(q, slot.into()) {
                    buf_lat += mem.access(core, a, AccessKind::Load).latency.count();
                }
            }
            total += buf_lat / MLP;

            // Transport processing.
            total += item.service.count();
            self.telem[c].useful_instructions +=
                (item.service.count() as f64 * self.cfg.workload.useful_ipc()) as u64;

            // Notify the tenant: write the tenant-side queue + doorbell
            // (modeled as a store to the descriptor line).
            total += self
                .mem
                .access(core, desc_addr, AccessKind::Store)
                .latency
                .count();
            self.telem[c].useful_instructions += NOTIFY_INSTR;

            // Completion + latency breakdown.
            let done_at = now + Cycles(base + total);
            self.note(
                deq_instant,
                TraceKind::Dequeue {
                    queue: q.0,
                    core: c as u32,
                    item: item.id,
                },
            );
            self.note(
                done_at,
                TraceKind::ServiceDone {
                    queue: q.0,
                    core: c as u32,
                    item: item.id,
                },
            );
            // A completion that just entered the attribution exemplar set
            // gets the fast-path counter snapshot attached (pure reads).
            if self.attrib.wants_snapshot() {
                let f = self.mem.fastpath_stats();
                self.attrib.attach_snapshot([
                    f.mru_hits,
                    f.stable_hits,
                    f.seq_replays,
                    f.seq_replayed_accesses,
                    f.s_state_peeks,
                    f.stable_reloads,
                    f.shared_joins,
                    f.dir_hint_hits,
                ]);
            }
            self.notify_latency
                .record(deq_instant.saturating_since(item.arrival).count());
            self.record_completion(done_at, *item, q);
            self.telem[c].completions += 1;
        }
        total
    }

    fn record_completion(&mut self, done_at: SimTime, item: WorkItem, q: QueueId) {
        self.completions += 1;
        self.audit
            .on_service(item.id, done_at.since_start().count());
        let lat = done_at.saturating_since(item.arrival).count();
        // The windowed series covers the whole run — warmup included —
        // precisely so the warmup transient is visible in the time series.
        if let Some(m) = self.metrics.as_mut() {
            m.record_completion(lat);
        }
        // The warmup→measure transition is a fabric-wide decision taken at
        // a window boundary ([`Engine::begin_measure`]): a lane-local
        // completion count would open measurement at different instants in
        // different lanes and break serial/parallel digest equality.
        if self.measuring {
            self.completions_measured += 1;
            self.latency.record(lat);
            self.queue_latency
                .entry(q.0)
                .or_default()
                .record(lat as f64);
        }
    }

    /// Tears the lane down into its mergeable outputs — the only teardown
    /// an engine has. `end` is the *fabric-wide* end (the maximum
    /// lane-local end, clamped by a watchdog abort), so every lane
    /// closes its final metrics window and outstanding halt episodes at
    /// the same instant and the merged window series line up one-for-one.
    pub(crate) fn into_lane_output(mut self, end: SimTime) -> LaneOutput {
        let end_cycles = end.since_start().count();
        if self.metrics.is_some() {
            self.close_metrics_windows(end_cycles, false);
            let obs = self.window_observation(end_cycles, false);
            self.metrics.as_mut().unwrap().close_final(end_cycles, &obs);
        }
        if let Some(span) = self.measure_span.take() {
            self.tracer.end_span(end, span);
        }
        if let Some(span) = self.warmup_span.take() {
            self.tracer.end_span(end, span);
        }
        for c in 0..self.cfg.dp_cores {
            self.trackers[c].resume(end, &mut self.telem[c]);
        }
        let mut mem_stats = hp_mem::system::CoreMemStats::default();
        for c in 0..self.cfg.dp_cores {
            let s = self.mem.core_stats(CoreId(c));
            mem_stats.l1_hits += s.l1_hits;
            mem_stats.llc_hits += s.llc_hits;
            mem_stats.remote_hits += s.remote_hits;
            mem_stats.dram_fetches += s.dram_fetches;
        }
        let residual_backlog: u64 = self.backlog;
        let queue_state_bytes = self.queue_state_bytes();
        let mut per_queue: Vec<(u32, OnlineStats)> = self.queue_latency.drain().collect();
        per_queue.sort_unstable_by_key(|&(q, _)| q);
        let core_owned: Vec<bool> = (0..self.cfg.dp_cores)
            .map(|c| self.owned_groups[self.core_group[c]])
            .collect();
        let device = self.device_stats();
        let attrib = self.attrib.is_enabled().then(|| self.attrib.finalize());
        let audit = self
            .audit
            .is_enabled()
            .then(|| self.audit.finalize(residual_backlog));
        LaneOutput {
            completions: self.completions,
            completions_measured: self.completions_measured,
            drops: self.drops,
            latency: self.latency,
            notify_latency: self.notify_latency,
            per_queue,
            queue_state_bytes,
            telem: self.telem,
            core_owned,
            mem_stats,
            fastpath: self.mem.fastpath_stats(),
            fault_counters: self.faults.counters(),
            eviction_recoveries: self.eviction_recoveries,
            doorbell_recoveries: self.doorbell_recoveries,
            eviction_recovery_latency: self.eviction_recovery_latency,
            doorbell_recovery_latency: self.doorbell_recovery_latency,
            churn_reallocations: self.churn_reallocations,
            generated_arrivals: self.generated_arrivals,
            trace_enabled: self.tracer.is_enabled(),
            trace_records: self.tracer.records(),
            trace_dropped: self.tracer.dropped(),
            trace_emitted: self.tracer.emitted(),
            attrib,
            windows: self.metrics.map(|m| m.into_samples()),
            audit,
            profile: self.profile,
            device,
            measure_start: self.measure_start,
            saturation_rate: self.saturation_rate,
        }
    }
}

/// One lane's mergeable outputs ([`Engine::into_lane_output`]): everything
/// the fabric needs to reassemble a whole-machine [`ExperimentResult`].
/// Lane-disjoint collections come keyed by what the lane owns (per-queue
/// stats by qid, per-core telemetry with a core mask);
/// cross-lane aggregates (histograms, counters, the profile) merge by
/// summation.
#[derive(Debug)]
pub(crate) struct LaneOutput {
    pub(crate) completions: u64,
    pub(crate) completions_measured: u64,
    pub(crate) drops: u64,
    pub(crate) latency: Histogram,
    pub(crate) notify_latency: Histogram,
    /// Measured latency of the queues this lane completed work on,
    /// qid-sorted.
    pub(crate) per_queue: Vec<(u32, OnlineStats)>,
    pub(crate) queue_state_bytes: u64,
    pub(crate) telem: Vec<CoreTelemetry>,
    pub(crate) core_owned: Vec<bool>,
    pub(crate) mem_stats: hp_mem::system::CoreMemStats,
    pub(crate) fastpath: hp_mem::system::FastPathStats,
    pub(crate) fault_counters: FaultCounters,
    pub(crate) eviction_recoveries: u64,
    pub(crate) doorbell_recoveries: u64,
    pub(crate) eviction_recovery_latency: Histogram,
    pub(crate) doorbell_recovery_latency: Histogram,
    pub(crate) churn_reallocations: u64,
    pub(crate) generated_arrivals: u64,
    pub(crate) trace_enabled: bool,
    pub(crate) trace_records: Vec<TraceRecord>,
    pub(crate) trace_dropped: u64,
    pub(crate) trace_emitted: u64,
    pub(crate) attrib: Option<AttributionReport>,
    pub(crate) windows: Option<Vec<WindowSample>>,
    pub(crate) audit: Option<AuditReport>,
    pub(crate) profile: KernelProfile,
    pub(crate) device: Option<DeviceStats>,
    pub(crate) measure_start: Option<SimTime>,
    pub(crate) saturation_rate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, Load, Notifier};
    use hp_sim::rng::Distribution;
    use hp_traffic::shape::TrafficShape;
    use hp_workloads::service::WorkloadKind;

    fn quick(notifier: Notifier, shape: TrafficShape, queues: u32, load: Load) -> ExperimentResult {
        let mut cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, shape, queues)
            .with_notifier(notifier)
            .with_load(load);
        cfg.target_completions = 2_000;
        cfg.service_dist = Distribution::Exponential;
        Engine::new(cfg).run()
    }

    #[test]
    fn spinning_single_queue_saturates_near_capacity() {
        let r = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            1,
            Load::Saturation,
        );
        // 1.4 us/task => ~714k; overheads shave some off.
        assert!(
            r.throughput_tps > 350_000.0 && r.throughput_tps < 750_000.0,
            "throughput {}",
            r.throughput_tps
        );
        assert!(r.completions >= 2_000);
    }

    #[test]
    fn hyperplane_beats_spinning_at_many_queues_sq() {
        let spin = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            500,
            Load::Saturation,
        );
        let hp = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            500,
            Load::Saturation,
        );
        assert!(
            hp.throughput_tps > 2.0 * spin.throughput_tps,
            "hp {} vs spin {}",
            hp.throughput_tps,
            spin.throughput_tps
        );
    }

    #[test]
    fn hyperplane_throughput_flat_in_queue_count_sq() {
        let q1 = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            1,
            Load::Saturation,
        );
        let q500 = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            500,
            Load::Saturation,
        );
        let ratio = q500.throughput_tps / q1.throughput_tps;
        assert!(
            ratio > 0.85,
            "HyperPlane SQ throughput should be queue-scalable, ratio {ratio}"
        );
    }

    #[test]
    fn light_load_latency_grows_with_queues_for_spinning() {
        let small = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            4,
            Load::RatePerSec(5_000.0),
        );
        let large = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            800,
            Load::RatePerSec(5_000.0),
        );
        assert!(
            large.mean_latency_us() > 2.0 * small.mean_latency_us(),
            "small {} us vs large {} us",
            small.mean_latency_us(),
            large.mean_latency_us()
        );
    }

    #[test]
    fn light_load_latency_flat_for_hyperplane() {
        let small = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            4,
            Load::RatePerSec(5_000.0),
        );
        let large = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            800,
            Load::RatePerSec(5_000.0),
        );
        let ratio = large.mean_latency_us() / small.mean_latency_us();
        assert!(
            ratio < 1.5,
            "HyperPlane latency must not scale with queues, ratio {ratio}"
        );
        assert!(
            large.mean_latency_us() < 10.0,
            "zero-load latency {} us",
            large.mean_latency_us()
        );
    }

    #[test]
    fn hyperplane_halts_at_low_load() {
        let r = quick(
            Notifier::hyperplane(),
            TrafficShape::FullyBalanced,
            64,
            Load::RatePerSec(10_000.0),
        );
        let t = r.aggregate_telemetry();
        assert!(
            t.halt_fraction() > 0.8,
            "core should be mostly halted at ~1.4% load, got {}",
            t.halt_fraction()
        );
    }

    #[test]
    fn spinning_never_halts() {
        let r = quick(
            Notifier::Spinning,
            TrafficShape::FullyBalanced,
            64,
            Load::RatePerSec(10_000.0),
        );
        let t = r.aggregate_telemetry();
        assert_eq!(t.halt_fraction(), 0.0);
        assert!(t.spin_instructions > t.useful_instructions);
    }

    #[test]
    fn power_optimized_wake_adds_latency() {
        let plain = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            4,
            Load::RatePerSec(5_000.0),
        );
        let c1 = quick(
            Notifier::hyperplane_power_opt(),
            TrafficShape::SingleQueue,
            4,
            Load::RatePerSec(5_000.0),
        );
        assert!(
            c1.mean_latency_us() > plain.mean_latency_us() + 0.3,
            "C1 {} vs plain {}",
            c1.mean_latency_us(),
            plain.mean_latency_us()
        );
    }

    #[test]
    fn multicore_scale_up_shares_all_queues() {
        let mut cfg =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 64)
                .with_notifier(Notifier::hyperplane())
                .with_cores(4, 4)
                .with_load(Load::Saturation);
        cfg.target_completions = 4_000;
        let r = Engine::new(cfg).run();
        // All four cores should complete work.
        for (i, t) in r.per_core.iter().enumerate() {
            assert!(
                t.completions > 100,
                "core {i} completed only {}",
                t.completions
            );
        }
        // Aggregate throughput should clearly exceed one core's capacity.
        assert!(
            r.throughput_tps > 1_000_000.0,
            "4-core throughput {}",
            r.throughput_tps
        );
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

    #[test]
    fn saturation_drive_counts_drops() {
        let r = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            200,
            Load::Saturation,
        );
        assert!(r.drops > 0, "saturation should overflow the queue cap");

        // Two sharing groups, serial and as two lanes, under a `cap=` fault
        // plan: a refused arrival never enters the FIFO, and the fault
        // report's queue drops are the engine's drops.
        for notifier in [Notifier::Spinning, Notifier::hyperplane()] {
            for workers in [1, 2] {
                let mut cfg = ExperimentConfig::new(
                    WorkloadKind::PacketEncap,
                    TrafficShape::FullyBalanced,
                    64,
                )
                .with_cores(4, 2)
                .with_notifier(notifier)
                .with_load(Load::Saturation)
                .with_faults(hp_sim::faults::FaultPlan::parse("cap=4").unwrap())
                .with_audit()
                .with_par_workers(workers);
                cfg.target_completions = 2_000;
                let r = Engine::new(cfg).run();
                let case = format!("{notifier:?} x{workers}");
                assert!(r.drops > 0, "{case}: no drops");
                let audit = r.audit_report().expect("audit on");
                assert_eq!(r.lane_generated_arrivals().len(), workers, "{case}");
                let generated: u64 = r.lane_generated_arrivals().iter().sum();
                assert_eq!(audit.enqueued + r.drops, generated, "{case}");
                assert_eq!(r.fault_report().unwrap().queue_drops, r.drops, "{case}");
            }
        }
    }

    #[test]
    fn interrupt_baseline_works_but_pays_kernel_costs() {
        // Zero-load latency: interrupts add the ~2us kernel path on every
        // wake; HyperPlane stays far below (the paper's Fig. 1 argument).
        let irq = quick(
            Notifier::Interrupt,
            TrafficShape::SingleQueue,
            64,
            Load::RatePerSec(5_000.0),
        );
        let hp = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            64,
            Load::RatePerSec(5_000.0),
        );
        assert!(
            irq.mean_latency_us() > hp.mean_latency_us() + 1.5,
            "interrupt {} us vs hyperplane {} us",
            irq.mean_latency_us(),
            hp.mean_latency_us()
        );
        // But unlike spinning, the interrupt core sleeps when idle.
        let t = irq.aggregate_telemetry();
        assert!(
            t.halt_fraction() > 0.8,
            "halt fraction {}",
            t.halt_fraction()
        );
    }

    #[test]
    fn interrupt_baseline_is_queue_scalable_but_slower_than_hyperplane() {
        // Interrupts do not iterate empty queues, so they scale with queue
        // count; their weakness is per-wake cost, not queue count.
        let q1 = quick(
            Notifier::Interrupt,
            TrafficShape::SingleQueue,
            1,
            Load::Saturation,
        );
        let q500 = quick(
            Notifier::Interrupt,
            TrafficShape::SingleQueue,
            500,
            Load::Saturation,
        );
        assert!(
            q500.throughput_tps > 0.85 * q1.throughput_tps,
            "interrupt throughput should not collapse with queues: {} vs {}",
            q500.throughput_tps,
            q1.throughput_tps
        );
        // NAPI batching (64 items/IRQ) amortizes the kernel cost at
        // saturation; at *equal* batch size HyperPlane matches or beats
        // the interrupt path (no kernel dispatch per grant).
        let mut hp_cfg =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::SingleQueue, 500)
                .with_notifier(Notifier::hyperplane());
        hp_cfg.batch = 64;
        hp_cfg.target_completions = 2_000;
        let hp = Engine::new(hp_cfg).run();
        assert!(
            q500.throughput_tps < 1.05 * hp.throughput_tps,
            "interrupt {} should not beat equally-batched hyperplane {}",
            q500.throughput_tps,
            hp.throughput_tps
        );
    }

    #[test]
    fn background_task_replaces_halting() {
        let mut cfg =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 32)
                .with_notifier(Notifier::hyperplane())
                .with_load(Load::RatePerSec(10_000.0));
        cfg.target_completions = 1_500;
        cfg.background_task = true;
        let r = Engine::new(cfg).run();
        let t = r.aggregate_telemetry();
        assert_eq!(t.halt_fraction(), 0.0, "non-blocking QWAIT never halts");
        assert!(t.background_instructions > 0, "background work must run");
        // At ~1.4% load the core is mostly doing background work.
        assert!(
            t.background_ipc() > t.useful_ipc(),
            "background IPC {} should dominate at light load ({} useful)",
            t.background_ipc(),
            t.useful_ipc()
        );
        // And the data plane still reacts promptly (bounded by the chunk).
        assert!(
            r.mean_latency_us() < 4.0,
            "latency {} us",
            r.mean_latency_us()
        );
    }

    #[test]
    fn in_order_mode_serializes_queues_under_sharing() {
        // 4 cores scale-up on ONE queue with high-variance service. With
        // intra-queue concurrency (default) multiple cores drain the queue
        // in parallel; in-order mode serializes it, capping throughput
        // near a single core's.
        let mk = |in_order: bool| {
            let mut cfg =
                ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::SingleQueue, 4)
                    .with_cores(4, 4)
                    .with_notifier(Notifier::hyperplane())
                    .with_load(Load::Saturation);
            cfg.in_order = in_order;
            cfg.target_completions = 3_000;
            cfg
        };
        let concurrent = Engine::new(mk(false)).run();
        let serial = Engine::new(mk(true)).run();
        assert!(
            concurrent.throughput_tps > 1.8 * serial.throughput_tps,
            "concurrent {} vs in-order {}",
            concurrent.throughput_tps,
            serial.throughput_tps
        );
        // In-order: at most one core can be serving the queue at a time, so
        // single-core-equivalent throughput.
        assert!(
            serial.throughput_tps < 1.3 * 714_000.0,
            "in-order throughput {} should be near one core's capacity",
            serial.throughput_tps
        );
    }

    #[test]
    fn notification_latency_breakdown_is_exposed() {
        let r = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            64,
            Load::RatePerSec(5_000.0),
        );
        // Notification latency must be a small part of total latency at
        // zero load (service dominates), and strictly positive.
        assert!(r.mean_notification_us() > 0.0);
        assert!(
            r.mean_notification_us() < r.mean_latency_us(),
            "notify {} vs total {}",
            r.mean_notification_us(),
            r.mean_latency_us()
        );
    }

    #[test]
    fn spinning_l1_misses_grow_with_queue_count() {
        let small = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            8,
            Load::Saturation,
        );
        let large = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            800,
            Load::Saturation,
        );
        // Buffer streaming dominates both; the queue-count effect shows as
        // a solid additive increase in miss ratio (doorbell/descriptor
        // polls falling out of the L1).
        assert!(
            large.mem_stats().l1_miss_ratio() > small.mem_stats().l1_miss_ratio() + 0.15,
            "small {} vs large {}",
            small.mem_stats().l1_miss_ratio(),
            large.mem_stats().l1_miss_ratio()
        );
    }

    #[test]
    fn flow_traffic_skew_gives_hyperplane_an_edge() {
        // Zipf flows through RSS leave many queues cold — the organic
        // version of the concentrated shapes; HyperPlane must win at high
        // queue counts under it too.
        let mk = |notifier: Notifier| {
            let mut cfg = ExperimentConfig::new(
                WorkloadKind::PacketEncap,
                TrafficShape::FullyBalanced, // ignored by the flow source
                512,
            )
            .with_notifier(notifier)
            .with_load(Load::Saturation);
            cfg.traffic = crate::config::TrafficSource::Flows {
                flows: 400,
                zipf_s: 1.2,
            };
            cfg.target_completions = 2_500;
            cfg
        };
        let spin = Engine::new(mk(Notifier::Spinning)).run();
        let hp = Engine::new(mk(Notifier::hyperplane())).run();
        // With ~120 of 512 queues receiving flow traffic, spinning pays a
        // moderate empty-poll tax; HyperPlane's edge is real but smaller
        // than under the synthetic SQ extreme.
        assert!(
            hp.throughput_tps > 1.08 * spin.throughput_tps,
            "hp {} vs spin {} under flow traffic",
            hp.throughput_tps,
            spin.throughput_tps
        );
        // Only RETA-mapped queues (<= 128 of 512) may see traffic.
        let lat = hp.per_queue_latency_us();
        assert!(
            !lat.is_empty() && lat.len() <= 128,
            "RETA should confine traffic to <=128 queues, got {}",
            lat.len()
        );
    }

    #[test]
    fn work_stealing_recovers_imbalance_losses() {
        // Two 2-core sockets (groups); traffic heavily skewed toward
        // group 0's queues. Without stealing group 1 idles; with stealing
        // its cores drain group 0's ready set across the socket boundary.
        let mk = |steal: bool| {
            let mut cfg = ExperimentConfig::new(
                WorkloadKind::CryptoForward,
                TrafficShape::SingleQueue, // everything lands in queue 0
                16,
            )
            .with_cores(4, 2)
            .with_notifier(Notifier::hyperplane())
            .with_load(Load::Saturation);
            cfg.work_stealing = steal;
            cfg.target_completions = 3_000;
            cfg
        };
        let no_steal = Engine::new(mk(false)).run();
        let steal = Engine::new(mk(true)).run();
        assert!(
            steal.throughput_tps > 1.5 * no_steal.throughput_tps,
            "stealing {} vs partitioned {}",
            steal.throughput_tps,
            no_steal.throughput_tps
        );
        // With stealing, remote cores actually complete work.
        let busy_cores = steal
            .per_core
            .iter()
            .filter(|t| t.completions > 100)
            .count();
        assert!(busy_cores >= 3, "only {busy_cores} cores participated");
    }

    #[test]
    fn software_ready_set_is_slower_at_fb_saturation() {
        let mut hw_cfg = ExperimentConfig::new(
            WorkloadKind::RequestDispatch,
            TrafficShape::FullyBalanced,
            512,
        )
        .with_notifier(Notifier::hyperplane())
        .with_load(Load::Saturation);
        hw_cfg.target_completions = 3_000;
        let mut sw_cfg = hw_cfg.clone().with_notifier(Notifier::HyperPlane {
            power_optimized: false,
            software_ready_set: true,
        });
        sw_cfg.target_completions = 3_000;
        let hw = Engine::new(hw_cfg).run();
        let sw = Engine::new(sw_cfg).run();
        assert!(
            sw.throughput_tps < 0.97 * hw.throughput_tps,
            "sw {} vs hw {}",
            sw.throughput_tps,
            hw.throughput_tps
        );
    }

    #[test]
    fn queue_state_bytes_are_linear_in_the_queue_count() {
        let per_queue = |queues: u32, notifier: Notifier| {
            let cfg = ExperimentConfig::new(
                WorkloadKind::PacketEncap,
                TrafficShape::NonproportionallyConcentrated,
                queues,
            )
            .with_notifier(notifier);
            let e = Engine::try_new(cfg).expect("valid config");
            let bytes = e.queue_state_bytes() as f64 / f64::from(queues);
            assert!(bytes >= std::mem::size_of::<QRow>() as f64);
            bytes
        };
        // Above Table I's 1024 QIDs the device scales with the queue
        // count, so every structure is per-queue and the ratio is flat.
        let (small, large) = (
            per_queue(1 << 12, Notifier::hyperplane()),
            per_queue(1 << 16, Notifier::hyperplane()),
        );
        assert!(
            (large / small - 1.0).abs() < 0.01,
            "{small:.2} vs {large:.2} bytes per queue"
        );
        // Spin-loop state is counted, and only spinning runs build it:
        // interrupt runs build neither devices nor spin state, so the two
        // differ by exactly the pair of load hints per queue.
        assert_eq!(
            per_queue(1 << 12, Notifier::Spinning) - per_queue(1 << 12, Notifier::Interrupt),
            (2 * std::mem::size_of::<LoadHint>()) as f64
        );
    }

    #[test]
    fn spin_state_is_spinning_only() {
        const QUEUES: u32 = 320;
        let spin = ExperimentConfig::new(
            WorkloadKind::PacketEncap,
            TrafficShape::FullyBalanced,
            QUEUES,
        )
        .with_cores(2, 1);
        let e = Engine::try_new(spin).expect("valid spinning config");
        assert_eq!(e.poll_hints.len(), QUEUES as usize);

        // HyperPlane runs never read spin-loop state (and churn moves
        // doorbells), so none is built.
        let hp = ExperimentConfig::new(
            WorkloadKind::PacketEncap,
            TrafficShape::FullyBalanced,
            QUEUES,
        )
        .with_notifier(Notifier::hyperplane())
        .with_chaos(hp_sim::chaos::ChaosSchedule::none().with_churn(10_000));
        let e = Engine::try_new(hp).expect("valid HyperPlane config");
        assert!(e.poll_hints.is_empty());
    }
}
