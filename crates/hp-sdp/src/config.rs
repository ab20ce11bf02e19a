//! Experiment configuration: the Table I machine and the values the
//! evaluation figures, benchmarks and tests vary.
//!
//! A value the paper fixes as a design point, and no caller varies, is a
//! named constant beside the code that reads it rather than a field here:
//! the C1 wake latency, the interrupt delivery cost, the inter-group hop
//! and the QWAIT backoff ceiling live in the engine, the tail-exemplar
//! bound is [`hp_sim::attrib::DEFAULT_EXEMPLARS`], and the parallel
//! engine's lookahead window schedule lives in its fabric controller.

use hp_core::monitoring::MonitoringSet;
use hp_core::qwait::HyperPlaneConfig;
use hp_mem::system::{MemSystemConfig, MAX_CORES};
use hp_sim::chaos::{ChaosError, ChaosSchedule};
use hp_sim::faults::{FaultPlan, FaultPlanError};
use hp_sim::rng::Distribution;
use hp_sim::time::Clock;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

/// A rejected [`ExperimentConfig`]: which cross-field invariant failed.
///
/// Configurations are research inputs; the runner refuses them up front
/// with a typed error instead of simulating garbage (or panicking deep in
/// the engine).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `queues` was zero.
    NoQueues,
    /// `dp_cores` was zero.
    NoDataPlaneCores,
    /// The machine has more cores than the memory model's directory word
    /// can name ([`hp_mem::system::MAX_CORES`]).
    TooManyCores {
        /// Requested machine cores.
        cores: usize,
        /// The cap.
        max: usize,
    },
    /// The machine's core count is not a power of two: the LLC's 1 MB
    /// per core must split into a power-of-two number of sets.
    CoresNotPowerOfTwo {
        /// Requested machine cores.
        cores: usize,
    },
    /// Every core was assigned to the data plane; producers need one.
    NoProducerCore {
        /// Requested data-plane cores.
        dp_cores: usize,
        /// Total cores on the machine.
        total: usize,
    },
    /// `cluster` does not evenly divide `dp_cores`.
    ClusterMismatch {
        /// Requested cluster size.
        cluster: usize,
        /// Requested data-plane cores.
        dp_cores: usize,
    },
    /// Fewer queues than sharing groups — a group would own nothing.
    TooFewQueues {
        /// Requested queues.
        queues: u32,
        /// Number of sharing groups.
        groups: usize,
    },
    /// `batch` was zero.
    ZeroBatch,
    /// More queues than ready-set entries.
    ReadySetOverflow {
        /// Requested queues.
        queues: u32,
        /// Ready-set capacity.
        ready_qids: usize,
    },
    /// `imbalance` outside `[0, 1)`.
    BadImbalance(f64),
    /// The fault plan has an out-of-range probability.
    BadFaultPlan(FaultPlanError),
    /// The chaos schedule is malformed (zero-period burst, inverted or
    /// overlapping phase window, invalid phase plan, zero churn period).
    BadChaos(ChaosError),
    /// `target_completions` was zero — the run would end before the
    /// warmup finishes and every measured metric would be vacuous.
    ZeroTargetCompletions,
    /// The QWAIT re-poll timeout is shorter than the device's own QWAIT
    /// instruction latency — it would expire before the halt it guards
    /// even takes effect.
    QwaitTimeoutTooShort {
        /// Requested timeout, cycles.
        timeout: u64,
        /// Minimum sensible timeout: the QWAIT instruction latency.
        min: u64,
    },
    /// `watchdog_period_cycles` was `Some(0)`.
    ZeroWatchdogPeriod,
    /// `trace_capacity` was `Some(0)` — an enabled tracer that can hold
    /// nothing is always a configuration mistake.
    ZeroTraceCapacity,
    /// `metrics_window_cycles` was `Some(0)`.
    ZeroMetricsWindow,
    /// `par_workers > 1` with work stealing across more than one sharing
    /// group: stolen wake-ups couple partitions mid-window, which the
    /// lane decomposition cannot represent.
    ParallelWorkStealing,
    /// The queue partition left a sharing group without queues (the
    /// imbalance is too extreme for the queue count and shape).
    EmptyGroup {
        /// The group left empty.
        group: usize,
    },
    /// Monitoring-set conflicts consumed every spare doorbell address
    /// before all queues were registered (Algorithm 1 had nowhere left
    /// to reallocate).
    SpareDoorbellsExhausted {
        /// Requested queues.
        queues: u32,
    },
    /// A HyperPlane run's monitoring set cannot be built: the bank count
    /// is outside `1..=256`, or a bank would hold fewer entries than its
    /// Cuckoo ways.
    BadMonitoringSet {
        /// Total monitoring-set entries.
        entries: usize,
        /// Monitoring banks.
        banks: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoQueues => write!(f, "need at least one queue"),
            ConfigError::NoDataPlaneCores => write!(f, "need at least one data-plane core"),
            ConfigError::TooManyCores { cores, max } => {
                write!(f, "{cores} machine cores exceed the memory model's {max}")
            }
            ConfigError::CoresNotPowerOfTwo { cores } => write!(
                f,
                "{cores} machine cores is not a power of two (the LLC needs a power-of-two set count)"
            ),
            ConfigError::NoProducerCore { dp_cores, total } => write!(
                f,
                "need at least one non-DP core for producers ({dp_cores} DP of {total} total)"
            ),
            ConfigError::ClusterMismatch { cluster, dp_cores } => {
                write!(f, "cluster size {cluster} must divide dp_cores {dp_cores}")
            }
            ConfigError::TooFewQueues { queues, groups } => {
                write!(f, "{queues} queues cannot cover {groups} cluster groups")
            }
            ConfigError::ZeroBatch => write!(f, "batch must be at least 1"),
            ConfigError::ReadySetOverflow { queues, ready_qids } => {
                write!(f, "{queues} queues exceed the {ready_qids}-entry ready set")
            }
            ConfigError::BadImbalance(x) => write!(f, "imbalance {x} outside [0,1)"),
            ConfigError::BadFaultPlan(e) => write!(f, "fault plan: {e}"),
            ConfigError::BadChaos(e) => write!(f, "chaos schedule: {e}"),
            ConfigError::ZeroTargetCompletions => {
                write!(f, "target_completions must be at least 1")
            }
            ConfigError::QwaitTimeoutTooShort { timeout, min } => write!(
                f,
                "qwait timeout of {timeout} cycles is below the {min}-cycle QWAIT latency"
            ),
            ConfigError::ZeroWatchdogPeriod => write!(f, "watchdog period must be nonzero"),
            ConfigError::ZeroTraceCapacity => write!(f, "trace capacity must be nonzero"),
            ConfigError::ZeroMetricsWindow => write!(f, "metrics window must be nonzero"),
            ConfigError::ParallelWorkStealing => write!(
                f,
                "par_workers > 1 is incompatible with work stealing across sharing groups"
            ),
            ConfigError::EmptyGroup { group } => write!(
                f,
                "queue partition left sharing group {group} without queues (imbalance too extreme)"
            ),
            ConfigError::SpareDoorbellsExhausted { queues } => write!(
                f,
                "monitoring-set conflicts exhausted the spare doorbell addresses for {queues} queues"
            ),
            ConfigError::BadMonitoringSet { entries, banks } => write!(
                f,
                "a monitoring set of {entries} entries cannot be split into {banks} banks"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<FaultPlanError> for ConfigError {
    fn from(e: FaultPlanError) -> Self {
        ConfigError::BadFaultPlan(e)
    }
}

impl From<ChaosError> for ConfigError {
    fn from(e: ChaosError) -> Self {
        ConfigError::BadChaos(e)
    }
}

/// The modeled chip (paper Table I).
#[derive(Debug, Clone, Copy)]
pub struct MicroarchConfig {
    /// Total cores on the CMP (Table I: 16).
    pub cores: usize,
    /// Core clock (2 GHz class).
    pub clock: Clock,
}

impl Default for MicroarchConfig {
    fn default() -> Self {
        MicroarchConfig {
            cores: 16,
            clock: Clock::default(),
        }
    }
}

impl MicroarchConfig {
    /// Memory-system configuration for this machine.
    pub fn mem_config(&self) -> MemSystemConfig {
        MemSystemConfig::cmp(self.cores)
    }
}

/// Which notification mechanism the data plane uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notifier {
    /// Spin-polling baseline (state-of-the-art SDP).
    Spinning,
    /// Kernel interrupt-driven baseline (the Fig. 1(a) conventional path
    /// the paper's introduction argues against): per-queue MSI-X-style
    /// interrupts with NAPI-like drain-then-re-arm, each delivery paying
    /// the kernel entry/scheduling cost.
    Interrupt,
    /// HyperPlane with the hardware ready set.
    HyperPlane {
        /// Enter the C1 power-optimized state when halted (≈0.5 µs wake).
        power_optimized: bool,
        /// Use the software ready-set iterator instead of the PPA
        /// (Fig. 13's comparison).
        software_ready_set: bool,
    },
}

impl Notifier {
    /// The default hardware HyperPlane configuration.
    pub const fn hyperplane() -> Self {
        Notifier::HyperPlane {
            power_optimized: false,
            software_ready_set: false,
        }
    }

    /// HyperPlane with C1 power optimization.
    pub const fn hyperplane_power_opt() -> Self {
        Notifier::HyperPlane {
            power_optimized: true,
            software_ready_set: false,
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Notifier::Spinning => "spinning",
            Notifier::Interrupt => "interrupt",
            Notifier::HyperPlane {
                power_optimized: true,
                ..
            } => "hyperplane-c1",
            Notifier::HyperPlane {
                software_ready_set: true,
                ..
            } => "hyperplane-sw",
            Notifier::HyperPlane { .. } => "hyperplane",
        }
    }
}

/// Offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Open-loop Poisson arrivals at this rate (tasks/second).
    RatePerSec(f64),
    /// Drive far past capacity to measure peak throughput.
    Saturation,
}

/// One experiment's full parameterization.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The machine.
    pub machine: MicroarchConfig,
    /// Which task the data plane runs.
    pub workload: WorkloadKind,
    /// Traffic shape.
    pub shape: TrafficShape,
    /// Total I/O queues.
    pub queues: u32,
    /// Data-plane cores (paper: 1–4).
    pub dp_cores: usize,
    /// Cores per sharing cluster: 1 = scale-out, `dp_cores` = full
    /// scale-up, 2 = scale-up-2 pairs (Fig. 10 configurations).
    pub cluster: usize,
    /// Static load imbalance for scale-out partitions (Fig. 10b).
    pub imbalance: f64,
    /// Notification mechanism.
    pub notifier: Notifier,
    /// Service-time distribution shape.
    pub service_dist: Distribution,
    /// Offered load.
    pub load: Load,
    /// Max work items dequeued per doorbell grant.
    pub batch: usize,
    /// Root RNG seed.
    pub seed: u64,
    /// Stop after this many completions (post-warmup measurement continues
    /// to the horizon).
    pub target_completions: u64,
    /// Hard simulated-cycle ceiling.
    pub max_cycles: u64,
    /// Per-queue backlog cap; arrivals beyond it are dropped (saturation
    /// drives only ever approach this).
    pub queue_cap: usize,
    /// HyperPlane device configuration.
    pub hp: HyperPlaneConfig,
    /// Extra per-poll software overhead in cycles. ~10 models the tight
    /// in-house SDP loop of §V-A; ~100 models a DPDK-class poll-mode
    /// driver iteration (Fig. 3 case study).
    pub poll_overhead_cycles: u64,
    /// Work stealing across sharing groups (the paper's §III-B NUMA
    /// future-work proposal): a HyperPlane core whose local ready set is
    /// empty fetches ready QIDs from remote ready sets, paying an
    /// inter-socket hop per remote operation.
    pub work_stealing: bool,
    /// In-order (flow-stateful) processing: `QWAIT-RECONSIDER` is issued
    /// only after the dequeued item finishes processing (the paper's
    /// "swap lines 18 and 19" variant, §III-B), serializing each queue.
    pub in_order: bool,
    /// Non-blocking QWAIT with a background task (§III-A): when no queue
    /// is ready the core runs latency-insensitive background work instead
    /// of halting, polling the ready set between chunks.
    pub background_task: bool,
    /// Next-line prefetcher degree for DP cores (0 = Table I baseline,
    /// none). Ablation: accelerates the sequential buffer-streaming loads.
    pub prefetch_degree: usize,
    /// Memory-system fast path (DESIGN.md §13): the shared-line LLC route
    /// and the spin loop's directory load hints
    /// ([`hp_mem::system::MemSystemConfig::fast_path`]). Bit-identical to
    /// the slow path by construction (pinned by the shadow-check feature
    /// and the observability digests); the knob exists for A/B
    /// measurement and as a belt-and-braces escape hatch.
    pub mem_fast_path: bool,
    /// Fault-injection plan (default: inject nothing). Fault decisions
    /// draw from a dedicated RNG stream, so the same seed produces
    /// byte-identical traffic with or without faults.
    pub faults: FaultPlan,
    /// Chaos schedule layered over `faults` (default: inert): correlated
    /// fault bursts, phase-windowed campaigns, and Algorithm-1
    /// doorbell-reallocation churn. Pure configuration — a chaos run
    /// replays bit-identically from its seed.
    pub chaos: ChaosSchedule,
    /// Silent-eviction mode in the memory system (DESIGN.md §14): clean
    /// S/E victims leave L1s with no directory message, so sharer bits
    /// decay stale and are priced on the notification path. Protocol
    /// fidelity, not an optimization: simulated results *change* when
    /// this is on, and the shadow-check oracle is bypassed (it models
    /// visible evictions only).
    pub silent_evictions: bool,
    /// Conservation audit (DESIGN.md §14): track every item's
    /// enqueue/dequeue/service lifecycle and prove exactly-once service
    /// at the end of the run. Pure observation — an audited run is
    /// bit-identical to a bare one; off (the default) it costs nothing.
    pub audit: bool,
    /// Resilience: a halted HyperPlane core re-polls its ready set after
    /// this many cycles even without a wake-up (guards against lost
    /// doorbell notifications). `None` disables the timeout — a missed
    /// wake-up then stalls until the watchdog notices.
    pub qwait_timeout_cycles: Option<u64>,
    /// Simulation-level no-progress watchdog period. Every period the
    /// engine checks for a livelock/missed-wakeup stall (backlog present,
    /// no completions since the last tick, every DP core halted) and
    /// records it in the result's fault report. `None` disables the
    /// watchdog entirely (no extra events are scheduled).
    pub watchdog_period_cycles: Option<u64>,
    /// Stop the run at the first watchdog-detected stall instead of
    /// running out the clock (the fault report marks the abort).
    pub watchdog_abort: bool,
    /// Lifecycle tracing: keep the newest this-many trace records in a
    /// ring buffer and attach them to the result. `None` disables tracing
    /// entirely (zero cost). Tracing is pure observation — a traced run
    /// is bit-identical to an untraced one.
    pub trace_capacity: Option<usize>,
    /// Latency attribution (DESIGN.md §15): stream every lifecycle
    /// record through the [`hp_sim::attrib::Attributor`] and attach the
    /// phase-decomposition report to the result. Independent of
    /// `trace_capacity` — attribution consumes records at emit time, so
    /// it needs no ring buffer and ring truncation cannot bias it. Pure
    /// observation: an attributed run is bit-identical to a bare one.
    pub attrib: bool,
    /// Windowed-metrics cadence in cycles: close a
    /// [`crate::metrics::WindowSample`] every this-many cycles. `None`
    /// disables the sampler. Like tracing, sampling never schedules
    /// events or draws randomness.
    pub metrics_window_cycles: Option<u64>,
    /// Worker threads for the partitioned parallel engine (DESIGN.md §16).
    /// `1` (the default) runs the whole machine on the calling thread;
    /// `> 1` partitions the sharing groups into per-group lanes pumped by
    /// this many workers in bounded time windows. Same-seed results are
    /// digest-identical for any worker count. A run with one group, fewer
    /// producer cores than groups, or `prefetch_degree > 0` keeps one
    /// lane whatever this says.
    pub par_workers: usize,
}

impl ExperimentConfig {
    /// A baseline configuration: 1 DP core, packet encapsulation, FB
    /// traffic, spinning, saturation drive.
    pub fn new(workload: WorkloadKind, shape: TrafficShape, queues: u32) -> Self {
        ExperimentConfig {
            machine: MicroarchConfig::default(),
            workload,
            shape,
            queues,
            dp_cores: 1,
            cluster: 1,
            imbalance: 0.0,
            notifier: Notifier::Spinning,
            service_dist: Distribution::Exponential,
            load: Load::Saturation,
            batch: 1,
            seed: 0x5EED,
            target_completions: 30_000,
            max_cycles: 4_000_000_000,
            queue_cap: 256,
            // Table I exactly at ≤1024 queues; above that the device
            // scales with the queue count (hierarchical ready set +
            // hashed monitoring shards, DESIGN.md §17). A config may
            // still shrink `hp.ready_qids` by hand, in which case
            // `validate` reports `ReadySetOverflow`.
            hp: HyperPlaneConfig::scaled(queues as usize),
            poll_overhead_cycles: 10,
            work_stealing: false,
            in_order: false,
            background_task: false,
            prefetch_degree: 0,
            mem_fast_path: true,
            faults: FaultPlan::none(),
            chaos: ChaosSchedule::none(),
            silent_evictions: false,
            audit: false,
            qwait_timeout_cycles: None,
            watchdog_period_cycles: None,
            watchdog_abort: false,
            trace_capacity: None,
            attrib: false,
            metrics_window_cycles: None,
            par_workers: 1,
        }
    }

    /// Builder-style: set the notifier.
    pub fn with_notifier(mut self, notifier: Notifier) -> Self {
        self.notifier = notifier;
        self
    }

    /// Builder-style: set DP cores and cluster size.
    pub fn with_cores(mut self, dp_cores: usize, cluster: usize) -> Self {
        self.dp_cores = dp_cores;
        self.cluster = cluster;
        self
    }

    /// Builder-style: set the offered load.
    pub fn with_load(mut self, load: Load) -> Self {
        self.load = load;
        self
    }

    /// Builder-style: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: set the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style: layer a chaos schedule over the fault plan.
    pub fn with_chaos(mut self, chaos: ChaosSchedule) -> Self {
        self.chaos = chaos;
        self
    }

    /// Builder-style: enable silent-eviction mode in the memory system.
    pub fn with_silent_evictions(mut self) -> Self {
        self.silent_evictions = true;
        self
    }

    /// Builder-style: enable the conservation audit.
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Builder-style: enable the QWAIT re-poll timeout (resilience to
    /// lost wake-ups).
    pub fn with_qwait_timeout(mut self, cycles: u64) -> Self {
        self.qwait_timeout_cycles = Some(cycles);
        self
    }

    /// Builder-style: enable the no-progress watchdog.
    pub fn with_watchdog(mut self, period_cycles: u64) -> Self {
        self.watchdog_period_cycles = Some(period_cycles);
        self
    }

    /// Builder-style: enable lifecycle tracing with a ring buffer of
    /// `capacity` records.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Builder-style: enable streaming latency attribution.
    pub fn with_attrib(mut self) -> Self {
        self.attrib = true;
        self
    }

    /// Builder-style: enable the windowed-metrics sampler at a cadence of
    /// `cycles` per window.
    pub fn with_metrics_window(mut self, cycles: u64) -> Self {
        self.metrics_window_cycles = Some(cycles);
        self
    }

    /// Builder-style: set the parallel-engine worker count.
    pub fn with_par_workers(mut self, workers: usize) -> Self {
        self.par_workers = workers;
        self
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the violated invariant (more DP cores
    /// than cores, cluster not dividing DP cores, zero queues, an
    /// out-of-range fault probability, etc.). Configurations are research
    /// inputs; refusing them up front beats simulating garbage.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.queues == 0 {
            return Err(ConfigError::NoQueues);
        }
        if self.dp_cores < 1 {
            return Err(ConfigError::NoDataPlaneCores);
        }
        if self.machine.cores > MAX_CORES {
            return Err(ConfigError::TooManyCores {
                cores: self.machine.cores,
                max: MAX_CORES,
            });
        }
        if !self.machine.cores.is_power_of_two() {
            return Err(ConfigError::CoresNotPowerOfTwo {
                cores: self.machine.cores,
            });
        }
        if self.dp_cores >= self.machine.cores {
            return Err(ConfigError::NoProducerCore {
                dp_cores: self.dp_cores,
                total: self.machine.cores,
            });
        }
        if self.cluster < 1 || !self.dp_cores.is_multiple_of(self.cluster) {
            return Err(ConfigError::ClusterMismatch {
                cluster: self.cluster,
                dp_cores: self.dp_cores,
            });
        }
        if (self.queues as usize) < self.groups() {
            return Err(ConfigError::TooFewQueues {
                queues: self.queues,
                groups: self.groups(),
            });
        }
        if self.batch < 1 {
            return Err(ConfigError::ZeroBatch);
        }
        if matches!(self.notifier, Notifier::HyperPlane { .. }) {
            let (entries, banks) = (self.hp.monitoring_entries, self.hp.monitoring_banks);
            if !MonitoringSet::is_buildable(entries, banks, MonitoringSet::DEFAULT_WAYS) {
                return Err(ConfigError::BadMonitoringSet { entries, banks });
            }
        }
        if self.queues as usize > self.hp.ready_qids {
            return Err(ConfigError::ReadySetOverflow {
                queues: self.queues,
                ready_qids: self.hp.ready_qids,
            });
        }
        if !(0.0..1.0).contains(&self.imbalance) {
            return Err(ConfigError::BadImbalance(self.imbalance));
        }
        if self.target_completions == 0 {
            return Err(ConfigError::ZeroTargetCompletions);
        }
        self.faults.validate()?;
        self.chaos.validate()?;
        if let Some(t) = self.qwait_timeout_cycles {
            if t < self.hp.timing.qwait.0 {
                return Err(ConfigError::QwaitTimeoutTooShort {
                    timeout: t,
                    min: self.hp.timing.qwait.0,
                });
            }
        }
        if self.watchdog_period_cycles == Some(0) {
            return Err(ConfigError::ZeroWatchdogPeriod);
        }
        if self.trace_capacity == Some(0) {
            return Err(ConfigError::ZeroTraceCapacity);
        }
        if self.metrics_window_cycles == Some(0) {
            return Err(ConfigError::ZeroMetricsWindow);
        }
        if self.par_workers > 1 && self.work_stealing && self.groups() > 1 {
            return Err(ConfigError::ParallelWorkStealing);
        }
        Ok(())
    }

    /// Number of sharing groups (devices / partitions).
    pub fn groups(&self) -> usize {
        self.dp_cores / self.cluster
    }

    /// Completions run before measurement opens: a fifth of the target,
    /// at least one. The fabric controller applies it to *fabric-wide*
    /// completions.
    pub(crate) fn warmup_completions(&self) -> u64 {
        (self.target_completions / 5).max(1)
    }

    /// Offered arrival rate, tasks/second: the configured rate, or a
    /// saturation drive well past capacity (drops bound the backlog).
    pub(crate) fn offered_rate(&self) -> f64 {
        match self.load {
            Load::RatePerSec(r) => r,
            Load::Saturation => self.capacity_estimate_per_core() * self.dp_cores as f64 * 3.0,
        }
    }

    /// Rough single-core capacity estimate, tasks/second (used to pick the
    /// saturation drive rate).
    pub fn capacity_estimate_per_core(&self) -> f64 {
        1e6 / self.workload.mean_service_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_machine_matches_table1() {
        let m = MicroarchConfig::default();
        assert_eq!(m.cores, 16);
        assert_eq!(m.clock.ghz(), 2.0);
        let mem = m.mem_config();
        assert_eq!(mem.cores, 16);
    }

    #[test]
    fn baseline_config_validates() {
        let c = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 100);
        c.validate().unwrap();
        assert_eq!(c.groups(), 1);
    }

    #[test]
    fn builder_chain() {
        let c = ExperimentConfig::new(WorkloadKind::CryptoForward, TrafficShape::SingleQueue, 8)
            .with_cores(4, 2)
            .with_notifier(Notifier::hyperplane())
            .with_load(Load::RatePerSec(1000.0))
            .with_seed(9);
        c.validate().unwrap();
        assert_eq!(c.groups(), 2);
        assert_eq!(c.seed, 9);
        assert_eq!(c.notifier.label(), "hyperplane");
    }

    #[test]
    fn cluster_must_divide_cores() {
        let c = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 100)
            .with_cores(4, 3);
        assert_eq!(
            c.validate(),
            Err(ConfigError::ClusterMismatch {
                cluster: 3,
                dp_cores: 4
            })
        );
    }

    #[test]
    fn queue_count_bounded_by_ready_set() {
        let mut c =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 2000);
        c.hp.ready_qids = 1024;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ReadySetOverflow {
                queues: 2000,
                ready_qids: 1024
            })
        );
    }

    #[test]
    fn unbuildable_monitoring_set_is_refused_for_hyperplane_only() {
        let mut c =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 64)
                .with_notifier(Notifier::hyperplane());
        for (entries, banks) in [(1024, 0), (1024, 257), (1024, 512), (12, 4)] {
            c.hp.monitoring_entries = entries;
            c.hp.monitoring_banks = banks;
            assert_eq!(
                c.validate(),
                Err(ConfigError::BadMonitoringSet { entries, banks })
            );
        }
        c.hp.monitoring_entries = 16;
        c.validate().unwrap();
        // Spinning never builds a device, so its `hp` settings are inert.
        c.hp.monitoring_banks = 0;
        c.with_notifier(Notifier::Spinning).validate().unwrap();
    }

    #[test]
    fn scaled_queue_counts_validate_without_manual_hp_tuning() {
        // The fixed 1024 ceiling is gone: a million-queue config derives
        // its ready set and monitoring shards from `queues`.
        let c = ExperimentConfig::new(
            WorkloadKind::PacketEncap,
            TrafficShape::FullyBalanced,
            1_048_576,
        );
        c.validate().unwrap();
        assert_eq!(c.hp.ready_qids, 1_048_576);
        assert_eq!(c.hp.monitoring_banks, 32);
        // At or below the paper's design point nothing changes.
        let c = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 1024);
        assert_eq!(c.hp.ready_qids, 1024);
        assert_eq!(c.hp.monitoring_banks, 1);
    }

    #[test]
    fn fault_and_resilience_knobs_validate() {
        let base =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 100);
        let mut bad_plan = FaultPlan::none();
        bad_plan.doorbell_drop = 2.0;
        assert!(matches!(
            base.clone().with_faults(bad_plan).validate(),
            Err(ConfigError::BadFaultPlan(_))
        ));
        assert_eq!(
            base.clone().with_qwait_timeout(10).validate(),
            Err(ConfigError::QwaitTimeoutTooShort {
                timeout: 10,
                min: 50
            })
        );
        let mut no_work = base.clone();
        no_work.target_completions = 0;
        assert_eq!(no_work.validate(), Err(ConfigError::ZeroTargetCompletions));
        assert_eq!(
            base.clone().with_watchdog(0).validate(),
            Err(ConfigError::ZeroWatchdogPeriod)
        );
        let good = base
            .with_faults(FaultPlan {
                doorbell_drop: 0.5,
                ..FaultPlan::none()
            })
            .with_qwait_timeout(10_000)
            .with_watchdog(100_000);
        good.validate().unwrap();
    }

    #[test]
    fn chaos_and_silent_eviction_knobs_validate() {
        use hp_sim::chaos::ChaosSchedule;
        let base =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 100);
        // A malformed schedule is rejected through the config layer.
        assert!(matches!(
            base.clone()
                .with_chaos(ChaosSchedule::none().with_churn(0))
                .validate(),
            Err(ConfigError::BadChaos(_))
        ));
        let mut bad_phase = FaultPlan::none();
        bad_phase.spurious = -0.5;
        assert!(matches!(
            base.clone()
                .with_chaos(ChaosSchedule::none().with_phase(0, 100, bad_phase))
                .validate(),
            Err(ConfigError::BadChaos(_))
        ));
        // The full robustness stack validates together.
        base.with_chaos(
            ChaosSchedule::none()
                .with_burst(1_000_000, 250_000, 3.0)
                .with_phase(
                    2_000_000,
                    4_000_000,
                    FaultPlan {
                        doorbell_drop: 0.9,
                        ..FaultPlan::none()
                    },
                )
                .with_churn(500_000),
        )
        .with_silent_evictions()
        .with_audit()
        .with_faults(FaultPlan {
            doorbell_drop: 0.25,
            eviction: 0.01,
            ..FaultPlan::none()
        })
        .with_qwait_timeout(10_000)
        .with_watchdog(100_000)
        .validate()
        .unwrap();
    }

    #[test]
    fn observability_knobs_validate() {
        let base =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 100);
        assert_eq!(
            base.clone().with_trace(0).validate(),
            Err(ConfigError::ZeroTraceCapacity)
        );
        assert_eq!(
            base.clone().with_metrics_window(0).validate(),
            Err(ConfigError::ZeroMetricsWindow)
        );
        base.with_trace(4096)
            .with_metrics_window(100_000)
            .with_attrib()
            .validate()
            .unwrap();
    }

    #[test]
    fn parallel_knobs_validate() {
        let base =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 100);
        let mut stealing = base.clone().with_cores(4, 1).with_par_workers(2);
        stealing.work_stealing = true;
        assert_eq!(stealing.validate(), Err(ConfigError::ParallelWorkStealing));
        // Stealing within a single group is fine — there is nothing to steal
        // across, so the lane decomposition is unaffected.
        let mut one_group = base.clone().with_cores(4, 4).with_par_workers(2);
        one_group.work_stealing = true;
        one_group.validate().unwrap();
        base.with_cores(4, 1)
            .with_par_workers(4)
            .validate()
            .unwrap();
    }

    #[test]
    fn config_errors_display_their_cause() {
        let msg = ConfigError::ClusterMismatch {
            cluster: 3,
            dp_cores: 4,
        }
        .to_string();
        assert!(msg.contains("must divide"), "{msg}");
        let msg = ConfigError::ReadySetOverflow {
            queues: 2000,
            ready_qids: 1024,
        }
        .to_string();
        assert!(msg.contains("exceed"), "{msg}");
    }

    #[test]
    fn notifier_labels() {
        assert_eq!(Notifier::Spinning.label(), "spinning");
        assert_eq!(Notifier::hyperplane_power_opt().label(), "hyperplane-c1");
        assert_eq!(
            Notifier::HyperPlane {
                power_optimized: false,
                software_ready_set: true
            }
            .label(),
            "hyperplane-sw"
        );
    }

    #[test]
    fn capacity_estimate_is_sane() {
        let c = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 10);
        // 1.4 us/task => ~714k tasks/s.
        assert!((c.capacity_estimate_per_core() - 714_285.0).abs() < 1000.0);
    }
}
