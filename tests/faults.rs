//! Fault-plane acceptance tests: deterministic injection, missed-wakeup
//! stall detection, timeout-driven recovery, and graceful degradation.
//!
//! Everything here runs on fixed seeds and bounded simulated horizons —
//! no wall-clock, no randomness outside the engine's own seeded streams.

use hp_sdp::config::{ExperimentConfig, Load, Notifier};
use hp_sdp::runner;
use hp_sim::faults::FaultPlan;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

/// A small HyperPlane experiment at a moderate open-loop drive: enough
/// headroom that recovery work, not queueing collapse, dominates the
/// fault response.
fn base(load_fraction: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::SingleQueue, 16)
        .with_notifier(Notifier::hyperplane());
    let rate = cfg.capacity_estimate_per_core() * load_fraction;
    cfg = cfg.with_load(Load::RatePerSec(rate));
    cfg.target_completions = 2_000;
    cfg
}

fn full_drop() -> FaultPlan {
    FaultPlan {
        doorbell_drop: 1.0,
        ..FaultPlan::none()
    }
}

#[test]
fn watchdog_reports_missed_wakeup_stall_without_timeout() {
    // 100 % doorbell drop, no QWAIT timeout: the first halt after the
    // queue backlogs is unrecoverable. The watchdog must say so.
    let mut cfg = base(0.5).with_faults(full_drop()).with_watchdog(1_000_000);
    cfg.watchdog_abort = true;
    cfg.max_cycles = 500_000_000;
    let r = runner::run(cfg);
    assert!(r.stalled(), "watchdog missed the stall");
    let f = r.fault_report().expect("faulty run carries a report");
    assert!(f.first_stall.is_some());
    assert!(f.aborted_on_stall, "watchdog_abort should stop the run");
    assert!(f.injected.doorbells_dropped > 0);
    // The data plane cannot have finished its work.
    assert!(
        r.completions < 2_000,
        "completed {} despite total drop",
        r.completions
    );
}

#[test]
fn qwait_timeout_recovers_the_same_seed_to_completion() {
    // Identical seed and fault stream as the stall test — but with the
    // re-poll timeout armed, every missed wake-up is recovered and all
    // work completes.
    let cfg = base(0.5)
        .with_faults(full_drop())
        .with_qwait_timeout(20_000)
        .with_watchdog(4_000_000);
    let r = runner::run(cfg);
    assert!(
        r.completions >= 2_000,
        "only {} completions under total drop with timeout",
        r.completions
    );
    let f = r.fault_report().unwrap();
    assert!(f.qwait_timeouts > 0);
    assert!(f.recoveries > 0, "no timeout expiry ever found missed work");
    assert!(!f.recovery_latency_cycles.is_empty());
}

#[test]
fn same_seed_same_faulty_result() {
    // The fault plane draws from its own RNG stream, so a faulty run is
    // as reproducible as a clean one: bit-identical results.
    let mk = || {
        base(0.5)
            .with_faults(FaultPlan {
                doorbell_drop: 0.4,
                doorbell_delay: 0.3,
                spurious: 0.05,
                ..FaultPlan::none()
            })
            .with_qwait_timeout(20_000)
            .with_watchdog(4_000_000)
            .with_seed(0xFA17)
    };
    let a = runner::run(mk());
    let b = runner::run(mk());
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.drops, b.drops);
    assert_eq!(a.throughput_tps.to_bits(), b.throughput_tps.to_bits());
    assert_eq!(
        a.latency_cycles.percentile(99.0),
        b.latency_cycles.percentile(99.0)
    );
    let (fa, fb) = (a.fault_report().unwrap(), b.fault_report().unwrap());
    assert_eq!(fa.injected, fb.injected);
    assert_eq!(fa.qwait_timeouts, fb.qwait_timeouts);
    assert_eq!(fa.recoveries, fb.recoveries);
}

#[test]
fn no_deadlock_under_total_drop_across_seeds() {
    // Property: with the timeout armed, QWAIT never deadlocks — across
    // seeds, 100 % doorbell drop still drains the offered work within a
    // bounded simulated horizon.
    for seed in [1u64, 7, 0xDEAD, 0x5EED_5EED] {
        let mut cfg = base(0.5)
            .with_faults(full_drop())
            .with_qwait_timeout(20_000)
            .with_watchdog(4_000_000)
            .with_seed(seed);
        cfg.target_completions = 1_000;
        cfg.max_cycles = 2_000_000_000;
        let r = runner::run(cfg);
        assert!(
            r.completions >= 1_000,
            "seed {seed:#x}: stalled at {} completions",
            r.completions
        );
        assert!(r.end.0 < 2_000_000_000, "seed {seed:#x}: ran out the clock");
    }
}

#[test]
fn degradation_is_graceful_and_monotone() {
    // Mean latency rises with the doorbell-drop rate (more recoveries
    // ride the timeout instead of the snoop), but throughput holds: the
    // offered load keeps being served at every drop rate.
    let mut means = Vec::new();
    for drop in [0.0f64, 0.5, 0.9] {
        let mut plan = FaultPlan::none();
        plan.doorbell_drop = drop;
        let cfg = base(0.3)
            .with_faults(plan)
            .with_qwait_timeout(20_000)
            .with_watchdog(4_000_000);
        let r = runner::run(cfg);
        assert!(
            r.completions >= 2_000,
            "drop {drop}: only {} completions",
            r.completions
        );
        means.push(r.mean_latency_us());
    }
    assert!(
        means[0] <= means[1] && means[1] <= means[2],
        "degradation curve not monotone: {means:?}"
    );
    // And the degradation is real — total drop costs visible latency.
    assert!(
        means[2] > means[0],
        "drop=0.9 should cost latency: {means:?}"
    );
}

#[test]
fn watchdog_detects_stall_within_one_period() {
    // The watchdog fires on period ticks; with abort armed the run ends
    // at the very tick that first observed the stall, so the detection
    // bound is the period itself.
    let period = 1_000_000;
    let mut cfg = base(0.5).with_faults(full_drop()).with_watchdog(period);
    cfg.watchdog_abort = true;
    cfg.max_cycles = 500_000_000;
    let r = runner::run(cfg);
    let f = r.fault_report().expect("faulty run carries a report");
    let first = f.first_stall.expect("total drop must stall").0;
    assert_eq!(first % period, 0, "watchdog fired off its tick grid");
    assert!(r.end.0 >= first);
    assert!(
        r.end.0 - first <= period,
        "abort did not stop within one period of detection: first={} end={}",
        first,
        r.end.0
    );
}

#[test]
fn spurious_wakeups_never_double_service() {
    // QWAIT-VERIFY must filter spurious activations, and timeout sweeps
    // racing real doorbells must not double-drain a queue: the auditor
    // demands exactly-once service, across seeds.
    for seed in [3u64, 0xABCD] {
        let cfg = base(0.6)
            .with_faults(FaultPlan {
                spurious: 0.3,
                doorbell_drop: 0.3,
                ..FaultPlan::none()
            })
            .with_qwait_timeout(20_000)
            .with_watchdog(4_000_000)
            .with_audit()
            .with_seed(seed);
        let r = runner::run(cfg);
        let a = r.audit_report().expect("auditor was enabled");
        assert!(a.ok(), "seed {seed:#x}: conservation violated: {a:?}");
        assert_eq!(a.double_services, 0);
        assert_eq!(a.double_dequeues, 0);
        assert_eq!(a.phantoms, 0);
        // Every engine completion is an audited exactly-once service.
        assert_eq!(a.serviced, r.completions);
    }
}

#[test]
fn conservation_holds_under_silent_evictions_and_chaos() {
    // The harshest shipped configuration: silent evictions, a correlated
    // burst, a storm phase, and live doorbell churn. Conservation must
    // hold, churn must actually fire, and the run must be reproducible.
    use hp_sim::chaos::ChaosSchedule;
    let storm = FaultPlan {
        doorbell_drop: 0.5,
        doorbell_delay: 0.2,
        eviction: 0.01,
        spurious: 0.05,
        ..FaultPlan::none()
    };
    let mk = || {
        base(0.5)
            .with_faults(storm.scaled(0.5))
            .with_chaos(
                ChaosSchedule::none()
                    .with_burst(2_000_000, 500_000, 2.0)
                    .with_phase(3_000_000, 6_000_000, storm.clone())
                    .with_churn(2_500_000),
            )
            .with_silent_evictions()
            .with_audit()
            .with_qwait_timeout(20_000)
            .with_watchdog(4_000_000)
            .with_seed(0xC4A0_5C4A)
    };
    let r = runner::run(mk());
    let a = r.audit_report().expect("auditor was enabled");
    assert!(a.ok(), "conservation violated under full chaos: {a:?}");
    assert_eq!(a.lost, 0);
    assert!(r.completions >= 2_000, "chaos run did not finish its work");
    let f = r.fault_report().unwrap();
    assert!(f.churn_reallocations > 0, "doorbell churn never fired");
    // Chaos plan swaps happen at schedule boundaries only, never touching
    // the fault stream: the whole run replays bit-identically.
    let r2 = runner::run(mk());
    assert_eq!(r.completions, r2.completions);
    assert_eq!(r.throughput_tps.to_bits(), r2.throughput_tps.to_bits());
    assert_eq!(f.injected, r2.fault_report().unwrap().injected);
    assert_eq!(r.audit_report(), r2.audit_report());
}

#[test]
fn recoveries_are_attributed_to_their_fault_class() {
    // Pure doorbell drop: every recovery is lost-doorbell class (no
    // monitoring entry was ever evicted, so no sweep re-registers one).
    let cfg = base(0.5)
        .with_faults(full_drop())
        .with_qwait_timeout(20_000)
        .with_watchdog(4_000_000);
    let r = runner::run(cfg);
    let f = r.fault_report().unwrap();
    assert!(f.doorbell_recoveries > 0);
    assert_eq!(f.eviction_recoveries, 0, "no evictions were injected");
    assert_eq!(f.recoveries, f.doorbell_recoveries + f.eviction_recoveries);
    assert_eq!(
        f.recovery_latency_cycles.count(),
        f.doorbell_recovery_latency.count() + f.eviction_recovery_latency.count()
    );

    // Pure eviction: recoveries must re-register entries — eviction class.
    let cfg = base(0.5)
        .with_faults(FaultPlan {
            eviction: 0.05,
            ..FaultPlan::none()
        })
        .with_qwait_timeout(20_000)
        .with_watchdog(4_000_000);
    let r = runner::run(cfg);
    let f = r.fault_report().unwrap();
    assert!(f.injected.evictions > 0, "eviction plan never fired");
    assert!(f.eviction_recoveries > 0, "evictions never classed");
    assert_eq!(f.recoveries, f.doorbell_recoveries + f.eviction_recoveries);
}
