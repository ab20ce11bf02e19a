//! Build: validation, the queue partition, device registration with
//! Algorithm 1's spare-doorbell reallocation (lines 3–6), and the lane's
//! stimulus streams.

use super::{Engine, QRow, BUFFER_ENTRIES, EV_LABELS, IRQ_NAPI_BUDGET};
use crate::config::{ConfigError, ExperimentConfig, Notifier};
use crate::metrics::WindowedMetrics;
use crate::telemetry::{CoreTelemetry, HaltTracker};
use hp_core::qwait::HyperPlaneDevice;
use hp_mem::system::{LoadHint, MemSystem};
use hp_queues::sim::{QueueId, QueueLayout};
use hp_rand::rngs::CounterRng;
use hp_sim::attrib::{Attributor, DEFAULT_EXEMPLARS};
use hp_sim::audit::Auditor;
use hp_sim::event::EventQueue;
use hp_sim::faults::FaultInjector;
use hp_sim::profile::KernelProfile;
use hp_sim::rng::RngFactory;
use hp_sim::stats::Histogram;
use hp_sim::trace::Tracer;
use hp_traffic::generator::KeyedArrivals;
use hp_traffic::partition_queues;
use hp_workloads::service::ServiceModel;
use std::collections::VecDeque;

/// Bank-aware spare-doorbell selection (Algorithm 1 with the DESIGN.md
/// §17 homing rule), shared by build-time conflict reallocation and churn.
/// Preference order: (1) a previously deferred spare already known to
/// home to `want`; (2) fresh draws from `fresh` (which advances the
/// caller's cursor over its spare range and returns `None` once it is
/// used up), deferring each other-bank draw into its home bank's pool;
/// (3) once the range is exhausted, spill across banks from the
/// lowest-numbered non-empty pool. Returns `None` only when every spare
/// is consumed.
pub(super) fn take_spare(
    want: usize,
    pool: &mut [VecDeque<u64>],
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

/// `queues` regrouped by `bank_of`, lowest bank first, each bank's queues
/// in their given order: a stable counting sort.
fn bank_major(
    queues: &[QueueId],
    banks: usize,
    bank_of: impl Fn(QueueId) -> usize,
) -> Vec<QueueId> {
    let mut next = vec![0usize; banks];
    for &q in queues {
        next[bank_of(q)] += 1;
    }
    let mut start = 0;
    for n in &mut next {
        (start, *n) = (start + *n, start);
    }
    let mut order = vec![QueueId(0); queues.len()];
    for &q in queues {
        let slot = &mut next[bank_of(q)];
        order[*slot] = q;
        *slot += 1;
    }
    order
}

/// The doorbell-region line index of spare `i`
/// ([`QueueLayout::doorbell_at`]).
pub(super) fn spare_index(queues: u32, i: u64) -> u32 {
    u32::try_from(u64::from(queues) + i).expect("doorbell region indices fit a u32")
}

/// Builds of at least this many queues register doorbells on a helper
/// thread while the calling thread builds the rows and arrival streams
/// (given two or more CPUs). Spawning and joining the helper costs
/// ~55–70 µs in a warm process and more in a fresh one, and the overlapped
/// half is only ~1 ms at 2^14 queues, so the threshold is where the split
/// measured faster (DESIGN.md §17): at 2^16 queues it won 14 of 15
/// fresh-process builds on a 2-vCPU host, at 2^14 it lost all 15.
const PARALLEL_BUILD_QUEUES: u32 = 1 << 16;

/// Algorithm-1 registration of every group's queues into its device, in
/// the group's `orders` (bank-major, [`bank_major`]). A queue's primary
/// doorbell is its own index; on a monitoring-set insertion conflict the
/// driver reallocates the doorbell to a spare line in the reserved range
/// and retries (lines 3–6 of the paper's pseudocode). Each queue whose
/// doorbell moved is pushed onto `moved` with its final doorbell index.
/// Returns the spare cursor: how many spares the build consumed.
///
/// Conflict reallocation is bank-aware (DESIGN.md §17): the driver
/// prefers a spare line homing to the *same* monitoring bank as the
/// conflicted doorbell, deferring other-bank spares into per-bank pools
/// and spilling across banks only once the stride is dry. With one bank
/// (every ≤1024-queue config) the pools never fill and the consumption
/// order is exactly the historical one.
///
/// Each group registers one bank at a time (qid order within a bank), so
/// the bank being filled stays in the host cache. A bank's inserts and
/// spares do not depend on the order between banks; only a cross-bank
/// spill does (DESIGN.md §17).
fn register(
    devices: &mut [HyperPlaneDevice],
    orders: Vec<Vec<QueueId>>,
    layout: &QueueLayout,
    banks: usize,
    moved: &mut Vec<(QueueId, u32)>,
) -> Result<u64, ConfigError> {
    let queues = layout.queues();
    let spares = QueueLayout::spare_doorbells(queues);
    let mut next_spare = 0u64;
    let mut spare_pool: Vec<VecDeque<u64>> = vec![VecDeque::new(); banks];
    for (dev, order) in devices.iter_mut().zip(orders) {
        for q in order {
            let mut doorbell = q.0;
            loop {
                let line = layout.doorbell_at(doorbell).line();
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
                        .ok_or(ConfigError::SpareDoorbellsExhausted { queues })?;
                        doorbell = spare_index(queues, idx);
                    }
                    Err(e) => panic!("doorbell registration failed: {e}"),
                }
            }
            if doorbell != q.0 {
                moved.push((q, doorbell));
            }
        }
    }
    Ok(next_spare)
}

/// One row per queue at its primary doorbell, with producer striping:
/// group `g`'s `i`-th queue (in qid order) stripes over producers
/// `g*share .. (g+1)*share`. With `producers >= groups` the slices are
/// disjoint, so no producer core ever writes into two groups — the
/// property that lets each lane model its producers' caches privately.
/// (With fewer producers than groups the fabric falls back to a single
/// lane; see `par_engine::run`.)
fn queue_rows(
    cfg: &ExperimentConfig,
    group_of_queue: &[usize],
    queues_of_group: &[Vec<QueueId>],
) -> Vec<QRow> {
    let producers = cfg.machine.cores - cfg.dp_cores;
    let share = (producers / queues_of_group.len()).max(1);
    let mut qrows: Vec<QRow> = (0..cfg.queues)
        .map(|q| QRow {
            items: VecDeque::new(),
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
    qrows
}

/// Each owned group's keyed arrival stream and the time of its first
/// arrival (`u64::MAX` where there is none). Stimulus streams: 1 =
/// traffic, 2 = service, 3 = faults. Each group's arrival sub-stream
/// splits off stream 1 by group; only *owned* groups get an arrival
/// stream, so a lane draws nothing for foreign groups.
fn arrival_streams(
    cfg: &ExperimentConfig,
    rngs: &RngFactory,
    group_of_queue: &[usize],
    owned_groups: &[bool],
) -> (Vec<Option<KeyedArrivals>>, Vec<u64>) {
    let rate = cfg.offered_rate();
    let base = CounterRng::from_key(rngs.stream_seed(1));
    owned_groups
        .iter()
        .enumerate()
        .map(|(g, &owned)| {
            let stream = if owned {
                KeyedArrivals::for_partition(
                    cfg.shape,
                    cfg.queues,
                    rate,
                    cfg.machine.clock,
                    group_of_queue,
                    g,
                    base.split(g as u64),
                )
                .expect("validated configuration")
            } else {
                None
            };
            let next = if stream.is_some() { 0 } else { u64::MAX };
            (stream, next)
        })
        .unzip()
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
        let parallel = cfg.queues >= PARALLEL_BUILD_QUEUES && hp_par::available_parallelism() >= 2;
        Self::build(cfg, lane, parallel)
    }

    /// [`Engine::try_new_lane`] with the two-thread split chosen by the
    /// caller: with `parallel`, doorbell registration runs on a helper
    /// thread while the calling thread builds the rows and arrival
    /// streams. The halves share no output, so the engine is the same
    /// either way.
    fn build(
        cfg: ExperimentConfig,
        lane: Option<usize>,
        parallel: bool,
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
        let mut group_sizes = vec![0usize; groups];
        for &g in &group_of_queue {
            group_sizes[g] += 1;
        }
        let mut queues_of_group: Vec<Vec<QueueId>> =
            group_sizes.into_iter().map(Vec::with_capacity).collect();
        for (q, &g) in group_of_queue.iter().enumerate() {
            queues_of_group[g].push(QueueId(q as u32));
        }
        if let Some(group) = queues_of_group.iter().position(Vec::is_empty) {
            return Err(ConfigError::EmptyGroup { group });
        }
        let owned_groups: Vec<bool> = match lane {
            None => vec![true; groups],
            Some(g) => (0..groups).map(|i| i == g).collect(),
        };

        // One HyperPlane device per group (the scale-out/up-2 partitioned
        // ready-set variants of Fig. 10); unused for spinning. The devices
        // and registration orders are allocated here, so a helper thread
        // running the registration allocates almost nothing.
        let build_banks = cfg.hp.monitoring_banks.max(1);
        let mut devices: Vec<HyperPlaneDevice> =
            if matches!(cfg.notifier, Notifier::HyperPlane { .. }) {
                (0..groups)
                    .map(|_| HyperPlaneDevice::new(cfg.hp.clone(), layout.doorbell_range()))
                    .collect()
            } else {
                Vec::new()
            };
        let orders: Vec<Vec<QueueId>> = devices
            .iter()
            .zip(&queues_of_group)
            .map(|(dev, group_queues)| {
                bank_major(group_queues, build_banks, |q| {
                    dev.monitoring_bank_of(layout.doorbell(q).line())
                })
            })
            .collect();
        // Conflicts are rare in an over-provisioned set (none at 2^20
        // queues), so the moved list starts empty: sizing it for the worst
        // case kept 2 MiB resident at 2^20 queues.
        let mut moved = Vec::new();
        let (registered, (mut qrows, (keyed_arrivals, group_next_arrival))) = hp_par::join(
            parallel,
            || register(&mut devices, orders, &layout, build_banks, &mut moved),
            || {
                let streams = arrival_streams(&cfg, &rngs, &group_of_queue, &owned_groups);
                (queue_rows(&cfg, &group_of_queue, &queues_of_group), streams)
            },
        );
        let next_spare = registered?;
        for (q, doorbell) in moved {
            qrows[q.0 as usize].doorbell = doorbell;
        }

        let core_group: Vec<usize> = (0..cfg.dp_cores).map(|c| c / cfg.cluster).collect();
        // Each item's service demand splits off stream 2 by item id.
        let service_keyed = CounterRng::from_key(rngs.stream_seed(2));

        let service = ServiceModel::new(cfg.workload, cfg.service_dist, clock);
        let n_queues = cfg.queues as usize;
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
            Auditor::enabled((cfg.target_completions + cfg.warmup_completions()) as usize)
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
            halted_by_group: vec![Vec::new(); groups],
            irq_pending: vec![VecDeque::new(); groups],
            trackers: vec![HaltTracker::new(); cfg.dp_cores],
            telem: vec![CoreTelemetry::default(); cfg.dp_cores],
            service,
            keyed_arrivals,
            group_arrival_count: vec![0; groups],
            group_next_arrival,
            service_keyed,
            ev: EventQueue::new(),
            latency: Histogram::new(),
            notify_latency: Histogram::new(),
            queue_latency: std::collections::HashMap::new(),
            poll_cost_ewma: vec![20.0; cfg.dp_cores],
            drops: 0,
            backlog: 0,
            deq_scratch: Vec::with_capacity(cfg.batch.max(IRQ_NAPI_BUDGET)),
            poll_hints,
            measure_start: None,
            faults,
            straggler_step: vec![0; cfg.dp_cores],
            qwait_epoch: vec![0; cfg.dp_cores],
            qwait_backoff: vec![timeout_base; cfg.dp_cores],
            eviction_recovery_latency: Histogram::new(),
            doorbell_recovery_latency: Histogram::new(),
            chaos_next,
            spare_base: next_spare,
            next_spare: vec![0; groups],
            churn_spare_pool: vec![vec![VecDeque::new(); build_banks]; groups],
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
    pub(super) fn queue_state_bytes(&self) -> u64 {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_traffic::shape::TrafficShape;
    use hp_workloads::service::WorkloadKind;

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

    /// A HyperPlane config of `groups` one-core groups whose devices have
    /// `banks` monitoring banks sharing `entries` entries.
    fn registration_config(
        queues: u32,
        banks: usize,
        entries: usize,
        groups: usize,
    ) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(
            WorkloadKind::PacketEncap,
            TrafficShape::FullyBalanced,
            queues,
        )
        .with_notifier(Notifier::hyperplane())
        .with_cores(groups, 1);
        cfg.hp.monitoring_banks = banks;
        cfg.hp.monitoring_entries = entries;
        cfg
    }

    /// Algorithm-1 registration as a build leaves it: monitoring-set
    /// conflicts, queues whose final doorbell homes to another bank than
    /// their primary (cross-bank spills), and a hash over every row's
    /// doorbell, the spare cursor and the relocation count.
    fn registration(queues: u32, banks: usize, entries: usize, groups: usize) -> (u64, usize, u64) {
        let cfg = registration_config(queues, banks, entries, groups);
        let e = Engine::try_new(cfg).expect("valid config");
        let dev = &e.devices[0];
        let bank = |i: u32| dev.monitoring_bank_of(e.layout.doorbell_at(i).line());
        let spills = (0..queues)
            .filter(|&q| bank(q) != bank(e.qrows[q as usize].doorbell))
            .count();
        let stats = e.devices.iter().map(HyperPlaneDevice::monitoring_stats);
        let conflicts = stats.clone().map(|s| s.conflicts).sum();
        let hash = e
            .qrows
            .iter()
            .map(|r| u64::from(r.doorbell))
            .chain(stats.map(|s| s.relocations))
            .chain([e.spare_base])
            .fold(0, |h, w| hp_sim::rng::splitmix64(h ^ w));
        (conflicts, spills, hash)
    }

    /// Bank-at-a-time registration hands every bank the same inserts and
    /// spares as qid order, so spill-free builds keep the values they had
    /// when queues registered in qid order: one group at 8 and 16 banks,
    /// and four groups drawing on one spare range.
    #[test]
    fn spill_free_registration_is_order_independent() {
        assert_eq!(
            registration(8192, 8, 8192 + 8192 / 16, 1),
            (33, 0, 0x3496_002b_53c9_cd09)
        );
        assert_eq!(
            registration(16384, 16, 16384 + 16384 / 16, 1),
            (6, 0, 0xce52_b01f_4688_1e75)
        );
        assert_eq!(
            registration(8192, 8, 2048 + 2048 / 9, 4),
            (85, 0, 0xb3f0_5d43_94b3_6b6e)
        );
    }

    /// Once the spare range runs dry, a conflict spills to the lowest
    /// non-empty bank pool, which depends on the registration order; this
    /// pins the bank-at-a-time outcome (qid order gave 357 conflicts and a
    /// hash of 0xe431_6014_3a07_00d9).
    #[test]
    fn cross_bank_spills_follow_bank_order() {
        assert_eq!(
            registration(8192, 8, 8192 + 8192 / 24, 1),
            (366, 6, 0xb32d_db75_588f_c44d)
        );
    }

    /// Registering on a helper thread builds the same engine as the
    /// inline build: the same row doorbells, device counters, spare
    /// cursor and queue-state bytes, and the same short run. Covers four
    /// conflict-heavy groups sharing one spare range (whole engine and
    /// one lane) and the cross-bank spill build.
    #[test]
    fn two_thread_build_matches_inline() {
        let builds = [
            (registration_config(8192, 8, 2048 + 2048 / 9, 4), None),
            (registration_config(8192, 8, 2048 + 2048 / 9, 4), Some(2)),
            (registration_config(8192, 8, 8192 + 8192 / 24, 1), None),
        ];
        for (mut cfg, lane) in builds {
            cfg.target_completions = 2_000;
            let [inline, helper] = [false, true]
                .map(|parallel| Engine::build(cfg.clone(), lane, parallel).expect("valid config"));
            let doorbells = |e: &Engine| e.qrows.iter().map(|r| r.doorbell).collect::<Vec<_>>();
            let stats = |e: &Engine| {
                e.devices
                    .iter()
                    .map(HyperPlaneDevice::monitoring_stats)
                    .collect::<Vec<_>>()
            };
            let case = format!("{} groups, lane {lane:?}", cfg.groups());
            assert!(stats(&inline).iter().any(|s| s.conflicts > 0), "{case}");
            assert_eq!(doorbells(&inline), doorbells(&helper), "{case}");
            assert_eq!(stats(&inline), stats(&helper), "{case}");
            assert_eq!(inline.spare_base, helper.spare_base, "{case}");
            assert_eq!(
                inline.queue_state_bytes(),
                helper.queue_state_bytes(),
                "{case}"
            );
            if lane.is_none() {
                assert_eq!(inline.run().digest(), helper.run().digest(), "{case}");
            }
        }
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
