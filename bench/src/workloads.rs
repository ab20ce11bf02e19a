//! The four benchmark workloads, the run digest that pins their
//! simulated outcome, and the per-round correctness check.
//!
//! Each workload stresses a different simulator layer, and each layer
//! has a workload that bypasses it, so a change to one layer should move
//! one workload and leave another flat (see `README.md`).

use hp_sdp::config::{ExperimentConfig, Load, Notifier};
use hp_sdp::result::ExperimentResult;
use hp_sdp::Engine;
use hp_sim::chaos::ChaosSchedule;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The seed whose digests are pinned in [`Workload::pinned_digest`].
pub const DEFAULT_SEED: u64 = 0x5EED;

/// No-progress watchdog period (4 ms simulated): long enough never to
/// fire on a healthy run, short enough that a stalled round is caught.
const WATCHDOG_PERIOD: u64 = 8_000_000;

/// Algorithm-1 churn period of the flash crowd (the `scale` binary's).
const CHURN_PERIOD: u64 = 200_000;

/// One named benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// One-line rationale: which layer it stresses and which it bypasses.
    pub why: &'static str,
    /// Nominal host seconds of one timed round (set-up plus run) on the
    /// calibration host. Converts `--seconds` into a round count that is
    /// a pure function of the argument, so a parent commit and a change
    /// always run the same work.
    pub round_s: f64,
    /// Extra set-up-only repetitions per run, on top of one per timed
    /// round. Sub-millisecond set-ups need many samples for a steady
    /// median.
    pub extra_setups: usize,
    /// Digest of a full-length run at [`DEFAULT_SEED`].
    pub pinned_digest: u64,
    build: fn() -> ExperimentConfig,
}

/// Every workload, in presentation order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "spin-sq500",
        why: "spinning poll loop over 500 queues: event-queue and LLC-hit loads dominate; device and fabric never run",
        round_s: 1.8,
        extra_setups: 100,
        pinned_digest: 0x5e3d_84f8_d32c_f98b,
        build: spin_sq500,
    },
    Workload {
        name: "hp-pc512-4c",
        why: "HyperPlane notification path at 4 sharing cores: doorbell stores, GetM snoops, ready-set select, QWAIT halt/wake",
        round_s: 1.0,
        extra_setups: 100,
        pinned_digest: 0xd256_afb8_7688_dc6b,
        build: hp_pc512_4c,
    },
    Workload {
        name: "par-fb64-4lane",
        why: "four one-core lanes on two workers: the only workload that runs the parallel fabric, its barriers and merge",
        round_s: 0.9,
        extra_setups: 100,
        pinned_digest: 0x39e7_f034_d889_2d70,
        build: par_fb64_4lane,
    },
    Workload {
        name: "flash-1m",
        why: "flash crowd over 2^20 queues with churn and audit: set-up and host memory dominate (1M Cuckoo inserts)",
        round_s: 1.1,
        extra_setups: 0,
        pinned_digest: 0xf47c_82fb_7430_5b7a,
        build: flash_1m,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's configuration at `seed`, every observer off except
    /// those that are part of the workload itself.
    pub fn config(&self, seed: u64) -> ExperimentConfig {
        (self.build)()
            .with_seed(seed)
            .with_watchdog(WATCHDOG_PERIOD)
    }

    /// Timed rounds for a run of `seconds` host seconds (at least three,
    /// so quartiles exist).
    pub fn rounds_for(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.round_s).round() as usize).max(3)
    }
}

/// `cfg` with every observer on: lifecycle trace ring, latency
/// attribution, windowed metrics and the conservation audit. Observers
/// never change a simulated outcome, so the digest must not move.
pub fn traced(cfg: &ExperimentConfig) -> ExperimentConfig {
    cfg.clone()
        .with_trace(1 << 16)
        .with_attrib()
        .with_metrics_window(1_000_000)
        .with_audit()
}

fn spin_sq500() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::SingleQueue, 500);
    cfg.target_completions = 24_000;
    cfg
}

fn hp_pc512_4c() -> ExperimentConfig {
    // 512 queues, not 1024: at Table I sizing a single 1024-queue group
    // fills the monitoring set and conflict resolution runs out of spare
    // doorbells during set-up.
    let mut cfg = ExperimentConfig::new(
        WorkloadKind::RequestDispatch,
        TrafficShape::ProportionallyConcentrated,
        512,
    )
    .with_notifier(Notifier::hyperplane())
    .with_cores(4, 4);
    let rate = cfg.capacity_estimate_per_core() * 4.0 * 0.7;
    cfg = cfg.with_load(Load::RatePerSec(rate));
    cfg.target_completions = 360_000;
    cfg
}

fn par_fb64_4lane() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 64)
        .with_notifier(Notifier::hyperplane())
        .with_cores(4, 1)
        .with_par_workers(2);
    let rate = cfg.capacity_estimate_per_core() * 4.0 * 0.8;
    cfg = cfg.with_load(Load::RatePerSec(rate));
    cfg.target_completions = 360_000;
    cfg
}

fn flash_1m() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(
        WorkloadKind::PacketEncap,
        TrafficShape::NonproportionallyConcentrated,
        1 << 20,
    )
    .with_notifier(Notifier::hyperplane())
    .with_audit()
    .with_chaos(ChaosSchedule::none().with_churn(CHURN_PERIOD));
    let rate = cfg.capacity_estimate_per_core() * 0.6;
    cfg = cfg.with_load(Load::RatePerSec(rate));
    cfg.target_completions = 18_000;
    cfg
}

/// Everything deterministic a run computes, folded into one word:
/// throughput and latency bits, completions, drops, end cycle, sync
/// rounds, per-core counters, kernel-profile event counts and device
/// counters. No host-time term enters, so the digest repeats exactly for
/// a seed, and no lane-local term either (the profile's attributed
/// cycles are per-lane clock advances), so it is the same for any
/// fabric worker count.
pub fn digest(r: &ExperimentResult) -> u64 {
    let mut words = vec![
        r.throughput_tps.to_bits(),
        r.completions,
        r.drops,
        r.end.since_start().count(),
        r.mean_latency_us().to_bits(),
        r.latency_percentile_us(50.0).to_bits(),
        r.latency_percentile_us(99.0).to_bits(),
        r.mean_notification_us().to_bits(),
        r.sync_rounds(),
    ];
    for c in &r.per_core {
        words.extend([
            c.useful_instructions,
            c.spin_instructions,
            c.active_cycles,
            c.halt_c0_cycles,
            c.halt_c1_cycles,
            c.completions,
            c.empty_polls,
            c.spurious,
            c.qwait_timeouts,
            c.recoveries,
        ]);
    }
    if let Some(p) = r.kernel_profile() {
        words.push(p.total_events());
        words.extend(p.rows().into_iter().map(|(_, count, _)| count));
    }
    if let Some(d) = r.device_stats() {
        let m = d.monitoring;
        words.extend([
            d.monitoring_banks,
            m.inserts,
            m.conflicts,
            m.relocations,
            m.snoop_hits,
            m.snoop_misses,
            m.snoop_filtered,
            m.spill_resizes,
            d.spurious_wakeups,
        ]);
    }
    // FNV-1a over the little-endian bytes of every word.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One round: `Engine::try_new` and `Engine::run`, timed separately.
#[derive(Debug)]
pub struct Round {
    /// When `Engine::try_new` was called.
    pub start: Instant,
    /// When it returned and `Engine::run` was called.
    pub setup_end: Instant,
    /// When `Engine::run` returned, result teardown included.
    pub end: Instant,
    /// The result, or why the round failed before producing one.
    pub result: Result<ExperimentResult, String>,
}

impl Round {
    /// Host seconds of `Engine::try_new`.
    pub fn setup_s(&self) -> f64 {
        (self.setup_end - self.start).as_secs_f64()
    }

    /// Host seconds of `Engine::run`.
    pub fn run_s(&self) -> f64 {
        (self.end - self.setup_end).as_secs_f64()
    }
}

/// Builds and runs `cfg` once. A panic in set-up or run is caught and
/// reported as the round's failure.
pub fn run_round(cfg: &ExperimentConfig) -> Round {
    let start = Instant::now();
    let engine = catch_unwind(AssertUnwindSafe(|| Engine::try_new(cfg.clone())));
    let setup_end = Instant::now();
    let result = match engine {
        Ok(Ok(engine)) => catch_unwind(AssertUnwindSafe(|| engine.run()))
            .map_err(|p| format!("run panicked: {}", panic_text(&p))),
        Ok(Err(e)) => Err(format!("invalid configuration: {e}")),
        Err(p) => Err(format!("set-up panicked: {}", panic_text(&p))),
    };
    Round {
        start,
        setup_end,
        end: Instant::now(),
        result,
    }
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Times `Engine::try_new(cfg)` alone, dropping the engine untimed;
/// returns the call's start and end.
pub fn time_setup(cfg: &ExperimentConfig) -> (Instant, Instant) {
    let start = Instant::now();
    let engine = Engine::try_new(cfg.clone());
    let end = Instant::now();
    drop(std::hint::black_box(engine));
    (start, end)
}

/// Checks a round's result against the expected digest and the run's
/// own invariants: the conservation audit (when on) and the no-progress
/// watchdog. Returns the digest, or why the round failed.
pub fn check(round: &Round, expected: Option<u64>) -> Result<u64, String> {
    let r = round.result.as_ref().map_err(Clone::clone)?;
    if let Some(a) = r.audit_report() {
        if !a.ok() {
            return Err(format!(
                "conservation audit: {} violation(s)",
                a.violations()
            ));
        }
    }
    if r.stalled() {
        return Err("watchdog detected a stall".to_string());
    }
    let d = digest(r);
    match expected {
        Some(e) if e != d => Err(format!("digest {d:016x} != expected {e:016x}")),
        _ => Ok(d),
    }
}
