//! The parallel-fabric determinism pins: a same-seed run must be
//! digest-identical to the serial engine for any worker count, across
//! notifier styles, the Fig. 10 imbalanced multicore shape, and full
//! chaos with every observer attached — plus the windowed event-queue
//! merge primitive checked against a single-queue oracle.

use hyperplane::prelude::*;
use hyperplane::sdp::runner;
use hyperplane::sim::chaos::ChaosSchedule;
use hyperplane::sim::event::EventQueue;
use hyperplane::sim::faults::FaultPlan;

/// Four DP cores in single-core clusters: four sharing groups, so the
/// multi-lane fabric actually engages (one group would fall back to the
/// single-lane path and the test would be vacuous).
fn base(notifier: Notifier) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 64)
        .with_cores(4, 1)
        .with_notifier(notifier)
        .with_seed(0x0B5E_41E5);
    cfg.target_completions = 2_000;
    cfg
}

/// The Fig. 10-style imbalanced variant: concentrated traffic over 400
/// queues, 10% imbalance across the four groups.
fn fig10() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(
        WorkloadKind::PacketEncap,
        TrafficShape::ProportionallyConcentrated,
        400,
    )
    .with_cores(4, 1)
    .with_notifier(Notifier::hyperplane())
    .with_seed(0x0B5E_41E5);
    cfg.imbalance = 0.10;
    cfg.target_completions = 2_000;
    cfg
}

/// Attaches every observer the engine supports.
fn observed(cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.with_trace(16_384)
        .with_attrib()
        .with_audit()
        .with_metrics_window(500_000)
}

/// Digest and per-queue latency equal at 1, 2 and 4 workers. The
/// per-queue list is outside the digest: each lane reports only its own
/// queues, so a merge that lost a lane's entries would show only here.
fn assert_worker_invariant(label: &str, mk: impl Fn() -> ExperimentConfig) {
    let serial = runner::run(mk().with_par_workers(1));
    let d0 = serial.digest();
    let q0 = serial.per_queue_latency_us();
    assert!(q0.len() > 1, "{label}: per-queue latency is vacuous");
    for workers in [2, 4] {
        let par = runner::run(mk().with_par_workers(workers));
        assert_eq!(
            d0,
            par.digest(),
            "{label}: digest diverged at {workers} workers"
        );
        assert_eq!(
            q0,
            par.per_queue_latency_us(),
            "{label}: per-queue latency diverged at {workers} workers"
        );
    }
}

/// Clean runs (no faults) with tracing, attribution, audit, and windowed
/// metrics attached: spinning, interrupts, HyperPlane in its plain,
/// power-optimized and software-ready-set forms, the Fig. 10 imbalance,
/// in-order mode on two-core groups, and the non-blocking QWAIT with a
/// background task; plus HyperPlane with no observer, the lookahead
/// window schedule alone.
#[test]
fn parallel_digest_matches_serial_across_configs() {
    assert_worker_invariant("spinning", || observed(base(Notifier::Spinning)));
    assert_worker_invariant("interrupt", || observed(base(Notifier::Interrupt)));
    assert_worker_invariant("hyperplane", || observed(base(Notifier::hyperplane())));
    assert_worker_invariant("hyperplane-c1", || {
        observed(base(Notifier::hyperplane_power_opt()))
    });
    assert_worker_invariant("software-ready-set", || {
        observed(base(Notifier::HyperPlane {
            power_optimized: false,
            software_ready_set: true,
        }))
    });
    assert_worker_invariant("hyperplane-bare", || base(Notifier::hyperplane()));
    assert_worker_invariant("fig10-imbalance", || observed(fig10()));
    assert_worker_invariant("in-order", || {
        let mut cfg = observed(base(Notifier::hyperplane()).with_cores(4, 2));
        cfg.in_order = true;
        cfg
    });
    assert_worker_invariant("background-task", || {
        let mut cfg = observed(base(Notifier::hyperplane()));
        cfg.background_task = true;
        cfg
    });
}

/// Full chaos — correlated bursts, a storm phase, live doorbell churn,
/// silent evictions, timeouts, a watchdog — with every observer attached:
/// still digest-identical for any worker count.
#[test]
fn parallel_digest_matches_serial_under_chaos() {
    let storm = FaultPlan {
        doorbell_drop: 0.5,
        doorbell_delay: 0.2,
        eviction: 0.01,
        spurious: 0.05,
        ..FaultPlan::none()
    };
    let mk = || {
        observed(base(Notifier::hyperplane()))
            .with_faults(storm.scaled(0.5))
            .with_chaos(
                ChaosSchedule::none()
                    .with_burst(2_000_000, 500_000, 2.0)
                    .with_phase(3_000_000, 6_000_000, storm.clone())
                    .with_churn(2_500_000),
            )
            .with_silent_evictions()
            .with_qwait_timeout(20_000)
            .with_watchdog(4_000_000)
            .with_seed(0xC4A0_5C4A)
    };
    assert_worker_invariant("chaos", mk);

    // Attribution conservation and the audit must also survive the merge.
    let par = runner::run(mk().with_par_workers(4));
    let a = par.attrib_report().expect("attribution enabled");
    assert!(a.conserved(), "merged attribution violated conservation");
    assert!(par.audit_report().expect("audit enabled").ok());
}

/// Spinning on two two-core sharing groups at half capacity with every
/// observer, 100k-cycle metrics windows and a straggler phase (the
/// `spinning` row of `tests/observability.rs`): the two-lane run's
/// digest is pinned to its value from before empty polls ran inline
/// ahead of the event queue, and equals the serial digest at any worker
/// count. Each lane's window boundary is one more limit on an inline run.
#[test]
fn spinning_inline_polls_match_serial_and_are_pinned() {
    let mk = || {
        let straggle = FaultPlan {
            straggler: 0.01,
            stall_cycles: 3_000,
            ..FaultPlan::none()
        };
        let cfg = base(Notifier::Spinning).with_cores(4, 2);
        let rate = cfg.capacity_estimate_per_core() * 4.0 * 0.5;
        cfg.with_load(Load::RatePerSec(rate))
            .with_trace(16_384)
            .with_attrib()
            .with_audit()
            .with_metrics_window(100_000)
            .with_chaos(ChaosSchedule::none().with_phase(1_000_000, 2_000_000, straggle))
    };
    assert_worker_invariant("spinning-straggler", mk);
    let par = runner::run(mk().with_par_workers(2));
    let fnv = format!("{:?}", par.digest())
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    assert_eq!(fnv, 9200733764483705820, "two-lane spinning digest drifted");
}

/// The next-line prefetcher can fetch the first line of another group's
/// region, whose owner only the whole machine models; such runs keep one
/// lane, so any worker count reproduces the serial digest.
#[test]
fn prefetcher_runs_match_serial_at_any_worker_count() {
    assert_worker_invariant("prefetch", || {
        let mut cfg =
            ExperimentConfig::new(WorkloadKind::ErasureCoding, TrafficShape::FullyBalanced, 64)
                .with_cores(4, 2);
        cfg.prefetch_degree = 1;
        let rate = cfg.capacity_estimate_per_core() * 4.0 * 0.5;
        cfg = cfg.with_load(Load::RatePerSec(rate));
        cfg.target_completions = 4_000;
        cfg
    });
}

/// The worker count maps lanes onto threads and nothing else: worker
/// counts that exceed the lane count, or don't divide it, change nothing.
#[test]
fn worker_count_beyond_lane_count_is_inert() {
    let d0 = runner::run(base(Notifier::hyperplane()).with_par_workers(1)).digest();
    for workers in [3, 5, 64] {
        let d = runner::run(base(Notifier::hyperplane()).with_par_workers(workers)).digest();
        assert_eq!(d0, d, "digest diverged at {workers} workers");
    }
}

/// Keyed streams make every simulated event group-local, so no lane
/// replays another lane's stimulus chain: the merged kernel profile's
/// per-event counts, the window `event_queue_depth` series, and the total
/// event count are all worker-count-invariant.
#[test]
fn keyed_mode_kills_the_replicated_chain_tax() {
    let mk = || observed(base(Notifier::hyperplane()));
    let serial = runner::run(mk().with_par_workers(1));
    let par = runner::run(mk().with_par_workers(4));

    // The digest carries the kernel profile's per-event counts and total.
    // (Attributed cycles are per-lane clock advance — concurrent lanes each
    // span the full run, so they scale with lane count by construction.)
    assert_eq!(serial.digest(), par.digest());

    // The event_queue_depth window series merges to the serial series.
    let depths = |r: &ExperimentResult| -> Vec<u64> {
        r.windows().iter().map(|w| w.event_queue_depth).collect()
    };
    assert_eq!(
        depths(&serial),
        depths(&par),
        "event_queue_depth series diverged across worker counts"
    );

    // Lane generation sums conserve.
    assert_eq!(
        serial.lane_generated_arrivals().iter().sum::<u64>(),
        par.lane_generated_arrivals().iter().sum::<u64>(),
        "per-lane generation counters must sum to the serial count"
    );
    assert_eq!(par.lane_generated_arrivals().len(), 4);
}

/// Property test for the fabric's merge primitive: merging N per-lane
/// timestamped streams must reproduce a single event queue's pop order
/// exactly, when the oracle queue is fed in lane-major insertion order
/// (the serial engine's tie-break is insertion order; the merge's is
/// `(time, lane, within-lane order)` — identical under that feeding).
#[test]
fn windowed_stream_merge_matches_single_queue_oracle() {
    // Deterministic pseudo-random workload: times cluster heavily so
    // same-instant tie-breaks are exercised, not just hit by luck.
    let mut state = 0x9E37_79B9_97F4_A7C5u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for lanes in [1usize, 2, 3, 8] {
        let mut streams: Vec<Vec<(u64, u64)>> = vec![Vec::new(); lanes];
        for i in 0..2_000u64 {
            let t = next() % 97; // dense collisions
            streams[(next() % lanes as u64) as usize].push((t, i));
        }
        // Per-lane streams must be time-sorted here (a real lane pops in
        // time order); keep each lane's relative emission order for ties.
        for s in &mut streams {
            s.sort_by_key(|&(t, _)| t);
        }
        // Oracle: one event queue, fed lane-major.
        let mut oracle: EventQueue<u64> = EventQueue::new();
        for s in &streams {
            for &(t, id) in s {
                oracle.schedule_at(SimTime(t), id);
            }
        }
        let mut expect = Vec::new();
        while let Some((at, id)) = oracle.pop() {
            expect.push((at.since_start().count(), id));
        }
        let merged: Vec<(u64, u64)> = hp_par::merge_timestamped(streams)
            .into_iter()
            .map(|(t, _, id)| (t, id))
            .collect();
        assert_eq!(merged, expect, "{lanes} lanes diverged from the oracle");
    }
}
