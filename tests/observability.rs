//! Cross-crate tests of the observability plane: tracing, windowed
//! metrics, and latency attribution must be pure observers (bit-identical
//! results with them on or off), the Chrome export must carry complete
//! lifecycle spans, window timestamps must be monotonic, zero-sample runs
//! must report honest sentinels instead of fabricated zeros, and
//! attributed phase components must sum exactly to end-to-end latency —
//! including under fault recovery and full chaos.

use hyperplane::prelude::*;
use hyperplane::sdp::runner;
use hyperplane::sim::faults::FaultPlan;
use hyperplane::sim::trace::TraceKind;
use std::collections::HashSet;

fn base(notifier: Notifier) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 64)
        .with_notifier(notifier)
        .with_seed(0x0B5E_41E5);
    cfg.target_completions = 2_000;
    cfg
}

/// The determinism pin: tracing and windowed metrics consume no RNG draws
/// and schedule no events, so a traced run is bit-identical to a bare one.
#[test]
fn tracing_does_not_perturb_results() {
    for notifier in [Notifier::hyperplane(), Notifier::Spinning] {
        let bare = runner::run(base(notifier));
        let traced = runner::run(
            base(notifier)
                .with_trace(16_384)
                .with_metrics_window(100_000),
        );
        assert_eq!(
            bare.digest(),
            traced.digest(),
            "observability perturbed the {} simulation",
            notifier.label()
        );
        assert!(traced.trace_records().is_some_and(|t| !t.is_empty()));
        assert!(!traced.windows().is_empty());
        assert!(bare.trace_records().is_none());
        assert!(bare.windows().is_empty());
    }
}

/// The Chrome export parses and contains at least one complete
/// enqueue→service lifecycle span (a `ph:"b"`/`ph:"e"` pair with the same
/// id) and the top-level structure chrome://tracing and Perfetto expect.
#[test]
fn chrome_export_has_complete_lifecycle_spans() {
    // Drive well below capacity so nearly every enqueued item is serviced
    // within the run (at saturation most lifecycle spans stay open).
    let mut cfg = base(Notifier::hyperplane()).with_trace(16_384);
    let rate = cfg.capacity_estimate_per_core() * cfg.dp_cores as f64 * 0.3;
    cfg = cfg.with_load(Load::RatePerSec(rate));
    let r = runner::run(cfg);
    let json = r.chrome_trace_json().expect("tracing enabled");
    assert!(
        json.starts_with("{\"traceEvents\":["),
        "bad envelope: {}",
        &json[..40]
    );
    assert!(json.contains("\"displayTimeUnit\""));
    let doc = hp_bytes::json::parse(&json).expect("the trace must parse");
    let events = doc.get("traceEvents").and_then(|e| e.as_array());
    assert!(
        events.is_some_and(|e| !e.is_empty()),
        "no traceEvents array"
    );

    // Find an item with both an enqueue and a service-done in the kept
    // records — a complete lifecycle — and check both async edges made it
    // into the export.
    let records = r.trace_records().expect("records kept");
    let enqueued: HashSet<u64> = records
        .iter()
        .filter_map(|rec| match rec.kind {
            TraceKind::Enqueue { item, .. } => Some(item),
            _ => None,
        })
        .collect();
    let complete = records
        .iter()
        .filter_map(|rec| match rec.kind {
            TraceKind::ServiceDone { item, .. } if enqueued.contains(&item) => Some(item),
            _ => None,
        })
        .next()
        .expect("at least one complete enqueue->service lifecycle");
    assert!(json.contains(&format!("\"ph\":\"b\",\"id\":{complete},")));
    assert!(json.contains(&format!("\"ph\":\"e\",\"id\":{complete},")));

    // Instant events carry the event taxonomy.
    for name in ["enqueue", "doorbell-write", "dequeue", "service-done"] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "missing {name} events"
        );
    }
}

/// Per-window metrics have strictly increasing end timestamps and
/// contiguous nominal boundaries, and the JSONL sink emits one JSON
/// object per window, in window order.
#[test]
fn metrics_windows_are_monotonic_and_contiguous() {
    let r = runner::run(base(Notifier::hyperplane()).with_metrics_window(50_000));
    let windows = r.windows();
    assert!(
        windows.len() >= 2,
        "expected several windows, got {}",
        windows.len()
    );
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(w.index as usize, i);
        assert!(w.end > w.start, "window {i} is empty-range");
        if i > 0 {
            assert_eq!(w.start, windows[i - 1].end, "window {i} not contiguous");
        }
    }
    let total: u64 = windows.iter().map(|w| w.completions).sum();
    assert!(
        total >= r.completions,
        "windows lost completions: {total} < {}",
        r.completions
    );

    let jsonl = r.metrics_jsonl();
    assert_eq!(jsonl.lines().count(), windows.len());
    for (i, line) in jsonl.lines().enumerate() {
        let doc = hp_bytes::json::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}"));
        let index = doc.get("window").and_then(|w| w.as_u64());
        assert_eq!(index, Some(i as u64), "line {i}: {line}");
    }
}

/// A run that completes nothing (every doorbell dropped, no recovery
/// timeout) reports NaN/None rather than a misleading zero latency.
#[test]
fn zero_sample_run_reports_sentinels() {
    let mut cfg = base(Notifier::hyperplane()).with_faults(FaultPlan {
        doorbell_drop: 1.0,
        ..FaultPlan::none()
    });
    cfg.target_completions = 100;
    cfg.max_cycles = 2_000_000;
    let r = runner::run(cfg);
    assert_eq!(r.completions, 0, "drops should have starved the run");
    assert!(r.mean_latency_us().is_nan());
    assert!(r.latency_percentile_us(99.0).is_nan());
    assert!(r.mean_notification_us().is_nan());
    assert_eq!(r.try_mean_latency_us(), None);
    assert_eq!(r.try_latency_percentile_us(99.0), None);
    assert_eq!(r.try_mean_notification_us(), None);
}

/// The memory-system fast path (DESIGN.md §13: the shared-line LLC route
/// and the spin loop's load hints) is bit-invisible at the experiment
/// level. Same seed, fast path on vs off, across the notifier styles and
/// a Fig. 10-style multicore imbalanced variant: every digest bit must
/// agree.
#[test]
fn mem_fast_path_is_bit_identical_across_configs() {
    let mut fig10 = ExperimentConfig::new(
        WorkloadKind::PacketEncap,
        TrafficShape::ProportionallyConcentrated,
        400,
    )
    .with_cores(4, 1)
    .with_notifier(Notifier::hyperplane())
    .with_seed(0x0B5E_41E5);
    fig10.imbalance = 0.10;
    fig10.target_completions = 2_000;

    // The knob gates the shared-line LLC route: off, none of its arms may
    // fire; on, they must fire on at least one config.
    let route = |r: &ExperimentResult| {
        let f = r.fastpath_stats();
        f.stable_reloads + f.shared_joins + f.s_state_peeks
    };
    let mut fired = 0;
    for cfg in [
        base(Notifier::Spinning),
        base(Notifier::hyperplane()),
        fig10,
    ] {
        let fast = runner::run(cfg.clone());
        let mut slow_cfg = cfg.clone();
        slow_cfg.mem_fast_path = false;
        let slow = runner::run(slow_cfg);
        assert_eq!(
            fast.digest(),
            slow.digest(),
            "fast path perturbed the {} / {} simulation",
            cfg.notifier.label(),
            cfg.shape.label()
        );
        assert_eq!(
            route(&slow),
            0,
            "disabled fast path still fired on {}",
            cfg.notifier.label()
        );
        fired += route(&fast);
    }
    assert!(fired > 0, "enabled fast path never fired");
}

/// The pinned slice of a run: completions, end cycle, throughput bits,
/// per-core `(empty_polls, spin_instructions)`, and the churn re-homing
/// count.
fn run_pin(r: &ExperimentResult) -> (u64, u64, u64, Vec<(u64, u64)>, u64) {
    (
        r.completions,
        r.end.since_start().count(),
        r.throughput_tps.to_bits(),
        r.per_core
            .iter()
            .map(|c| (c.empty_polls, c.spin_instructions))
            .collect(),
        r.fault_report().map_or(0, |f| f.churn_reallocations),
    )
}

/// Pins two FB runs by value, one for each of two engine paths: the
/// spinning fast-forward (a spinning core at ~30 % load whose empty sweeps
/// jump straight to its group's next arrival) and chaos churn re-homing
/// doorbells from the per-group churn schedule.
#[test]
fn fast_forward_and_churn_runs_are_pinned() {
    let mut spin = base(Notifier::Spinning);
    let rate = spin.capacity_estimate_per_core() * spin.dp_cores as f64 * 0.3;
    spin = spin.with_load(Load::RatePerSec(rate));
    let r = runner::run(spin);
    // The fast-forward fired: more empty polls were accounted than
    // core steps were ever simulated.
    let profile = r.kernel_profile().expect("profiled");
    let core_step = profile.labels().iter().position(|&l| l == "core-step");
    let steps = profile.count(core_step.expect("core-step events are profiled"));
    assert!(
        r.per_core[0].empty_polls > steps,
        "fast-forward never fired"
    );
    assert_eq!(
        run_pin(&r),
        (
            2_401,
            22_575_673,
            4_686_534_736_091_977_003,
            vec![(811_906, 32_476_240)],
            0
        ),
        "spinning fast-forward run drifted"
    );

    let churn = base(Notifier::hyperplane())
        .with_cores(2, 2)
        .with_chaos(hyperplane::sim::chaos::ChaosSchedule::none().with_churn(200_000));
    let r = runner::run(churn);
    assert_eq!(
        run_pin(&r),
        (
            2_402,
            4_068_924,
            4_697_870_847_546_085_135,
            vec![(0, 0), (1, 0)],
            20
        ),
        "churned run drifted"
    );
}

/// The attribution pin: the streaming attributor consumes no RNG draws
/// and schedules no events, so a same-seed run is bit-identical with
/// attribution on or off — and with it on, every completed chain's phase
/// components sum exactly to the measured end-to-end total.
#[test]
fn attribution_is_a_pure_observer_and_conserves() {
    use hyperplane::sim::attrib::Phase;
    for notifier in [Notifier::hyperplane(), Notifier::Spinning] {
        let bare = runner::run(base(notifier));
        let attributed = runner::run(base(notifier).with_attrib());
        assert_eq!(
            bare.digest(),
            attributed.digest(),
            "attribution perturbed the {} simulation",
            notifier.label()
        );
        assert!(bare.attrib_report().is_none());
        let a = attributed.attrib_report().expect("attribution enabled");
        assert!(a.completed > 0);
        assert!(
            a.conserved(),
            "{}: phase totals do not sum to total cycles ({} violations)",
            notifier.label(),
            a.violations
        );
        let phase_sum: u64 = Phase::ALL.iter().map(|&p| a.phase_total(p)).sum();
        assert_eq!(phase_sum, a.total_cycles);
        // Every captured tail exemplar carries its own exact breakdown.
        assert!(!a.exemplars.is_empty());
        for e in &a.exemplars {
            assert_eq!(
                e.phases.iter().sum::<u64>(),
                e.latency,
                "exemplar {} phase sum != latency",
                e.item
            );
        }
        // Exemplars are the worst K, sorted worst-first.
        for pair in a.exemplars.windows(2) {
            assert!(pair[0].latency >= pair[1].latency);
        }
    }
}

/// Under a 100 % doorbell-drop plan with the QWAIT timeout armed, the
/// additivity invariant must survive fault recovery — and the recovery
/// cycles must land in the distinct `Recovery` phase, not be smeared
/// into `Delivery`.
#[test]
fn attribution_conserves_under_fault_recovery() {
    use hyperplane::sim::attrib::Phase;
    let cfg = base(Notifier::hyperplane())
        .with_attrib()
        .with_faults(FaultPlan {
            doorbell_drop: 1.0,
            ..FaultPlan::none()
        })
        .with_qwait_timeout(20_000)
        .with_watchdog(4_000_000);
    let r = runner::run(cfg);
    assert!(r.completions >= 2_000, "fault run did not finish its work");
    let f = r.fault_report().expect("faulty run carries a report");
    assert!(f.recoveries > 0, "no recovery ever happened");
    let a = r.attrib_report().expect("attribution enabled");
    assert!(
        a.conserved(),
        "conservation violated under fault recovery ({} violations)",
        a.violations
    );
    // Every doorbell was dropped: announce latency is recovery, and the
    // clean delivery phase never observed anything.
    assert!(
        a.phase_total(Phase::Recovery) > 0,
        "recovered items attributed no recovery cycles"
    );
    assert_eq!(
        a.phase_total(Phase::Delivery),
        0,
        "dropped doorbells must not count as clean delivery"
    );
    // Recovery dominated by the timeout period: its p99 should be on the
    // order of the 20k-cycle QWAIT timeout, far above clean delivery.
    let p99 = a.phase_hists[Phase::Recovery as usize]
        .percentile(99.0)
        .expect("recovery histogram has samples");
    assert!(p99 >= 1_000, "recovery p99 implausibly small: {p99}");
}

/// Full chaos — correlated bursts, a storm phase, live doorbell churn,
/// silent evictions — with attribution, audit, and tracing all attached:
/// phases still sum exactly, the run replays bit-identically, and the
/// attribution artifact is byte-stable.
#[test]
fn attribution_conserves_under_chaos() {
    use hyperplane::sim::chaos::ChaosSchedule;
    let storm = FaultPlan {
        doorbell_drop: 0.5,
        doorbell_delay: 0.2,
        eviction: 0.01,
        spurious: 0.05,
        ..FaultPlan::none()
    };
    let mk = || {
        base(Notifier::hyperplane())
            .with_attrib()
            .with_trace(16_384)
            .with_audit()
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
    let r = runner::run(mk());
    assert!(r.audit_report().expect("audit enabled").ok());
    let a = r.attrib_report().expect("attribution enabled");
    assert!(
        a.conserved(),
        "conservation violated under chaos ({} violations)",
        a.violations
    );
    assert!(a.completed > 0);
    for e in &a.exemplars {
        assert_eq!(e.phases.iter().sum::<u64>(), e.latency);
    }
    // The JSON artifact replays byte-identically with the same seed.
    let r2 = runner::run(mk());
    assert_eq!(r.attrib_json(), r2.attrib_json());
}

/// The `hp-attrib-v1` artifact round-trips through the hp-bytes parser:
/// it is well-formed JSON whose headline fields match the in-memory
/// report (the contract `attrib-diff` depends on), its exemplars
/// telescope, and the `--profile` artifact parses too.
#[test]
fn attrib_json_parses_and_matches_report() {
    use hp_bytes::json::{parse, JsonValue};
    let r = runner::run(base(Notifier::hyperplane()).with_attrib());
    let a = r.attrib_report().expect("attribution enabled");
    let json = r.attrib_json().expect("attribution enabled");
    let doc = parse(&json).expect("artifact must parse");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("hp-attrib-v1")
    );
    assert_eq!(
        doc.get("completed").and_then(JsonValue::as_u64),
        Some(a.completed)
    );
    assert_eq!(
        doc.get("conserved").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(doc.get("violations").and_then(JsonValue::as_u64), Some(0));
    let phases = doc.get("phases").and_then(JsonValue::as_array).unwrap();
    assert_eq!(phases.len(), hyperplane::sim::attrib::Phase::COUNT);
    let total: u64 = phases
        .iter()
        .map(|p| p.get("total_cycles").and_then(JsonValue::as_u64).unwrap())
        .sum();
    assert_eq!(
        doc.get("end_to_end")
            .and_then(|e| e.get("total_cycles"))
            .and_then(JsonValue::as_u64),
        Some(total),
        "serialized phase totals must sum to the serialized total"
    );
    // Exemplars telescope: their phase cycles sum to their latency. And
    // they carry the full fast-path counter snapshot.
    let ex = doc.get("exemplars").and_then(JsonValue::as_array).unwrap();
    assert!(!ex.is_empty());
    for e in ex {
        let phases = e.get("phase_cycles").and_then(JsonValue::as_array).unwrap();
        let sum: u64 = phases.iter().map(|c| c.as_u64().unwrap()).sum();
        let latency = e.get("latency_cycles").and_then(JsonValue::as_u64);
        assert_eq!(Some(sum), latency, "exemplar does not telescope: {e:?}");
        let fp = e.get("fast_path").expect("snapshot attached");
        for label in hyperplane::sim::attrib::SNAPSHOT_LABELS {
            assert!(fp.get(label).is_some(), "missing counter {label}");
        }
    }

    // The profile artifact `trace --profile` writes parses too.
    let profile = parse(&r.profile_json().expect("profiled")).expect("profile must parse");
    assert_eq!(
        profile.get("total_events").and_then(JsonValue::as_u64),
        r.kernel_profile().map(|p| p.total_events())
    );
}

/// FNV-1a over an artifact's bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One hash per artifact that `digest()` does not cover: the window
/// series, the Chrome trace (with the ring's drop and emit counts),
/// attribution, the profile minus its wall-clock fields, the fault and
/// audit reports, per-queue latency, and the memory counters.
fn artifact_hashes(r: &ExperimentResult) -> Vec<(&'static str, u64)> {
    let profile = r.profile_json().expect("profiled");
    let (head, rest) = profile.split_at(profile.find(",\"wall_secs\":").unwrap());
    let host_free = format!("{head}{}", &rest[rest.find(",\"sync_rounds\":").unwrap()..]);
    let trace = format!(
        "{}|{}|{}",
        r.chrome_trace_json().unwrap_or_default(),
        r.trace_dropped(),
        r.trace_emitted()
    );
    vec![
        ("digest", fnv(format!("{:?}", r.digest()).as_bytes())),
        ("windows", fnv(r.metrics_jsonl().as_bytes())),
        ("trace", fnv(trace.as_bytes())),
        (
            "attrib",
            fnv(r.attrib_json().unwrap_or_default().as_bytes()),
        ),
        ("profile", fnv(host_free.as_bytes())),
        ("faults", fnv(format!("{:?}", r.fault_report()).as_bytes())),
        ("audit", fnv(format!("{:?}", r.audit_report()).as_bytes())),
        (
            "per_queue",
            fnv(format!("{:?}", r.per_queue_latency_us()).as_bytes()),
        ),
        (
            "mem",
            fnv(format!("{:?}{:?}", r.mem_stats(), r.fastpath_stats()).as_bytes()),
        ),
    ]
}

/// Spinning on two two-core sharing groups at half capacity, with every
/// observer attached and a straggler phase from 1M to 2M cycles: sibling
/// steps, arrivals, metrics windows, the phase edges and the stalls all
/// cut a core's run of empty polls short, and the fast-forward runs
/// between bursts.
fn spinning_observed() -> ExperimentConfig {
    let straggle = FaultPlan {
        straggler: 0.01,
        stall_cycles: 3_000,
        ..FaultPlan::none()
    };
    let cfg = base(Notifier::Spinning).with_cores(4, 2);
    let rate = cfg.capacity_estimate_per_core() * 4.0 * 0.5;
    cfg.with_load(Load::RatePerSec(rate))
        .with_trace(1 << 16)
        .with_attrib()
        .with_audit()
        .with_metrics_window(100_000)
        .with_chaos(
            hyperplane::sim::chaos::ChaosSchedule::none()
                .with_phase(1_000_000, 2_000_000, straggle),
        )
}

/// Pins every serial (`par_workers = 1`) artifact to values recorded
/// before serial teardown moved onto the fabric merge: HyperPlane on two
/// two-core sharing groups with every observer attached, the same run
/// with a 512-record trace ring that wraps, the full-chaos config of
/// `tests/par_digest.rs`, and the observed run in in-order mode with a
/// background task. The `spinning` row ([`spinning_observed`]) was
/// recorded before empty polls ran inline ahead of the event queue, so
/// its profile and windows pin that the shortcut counts every poll at
/// its own instant. The `attrib`, `profile` and `mem` hashes also cover
/// the host-side `FastPathStats` counters, so a change to what those
/// count moves these three with every simulated value unchanged.
#[test]
fn serial_artifacts_are_pinned() {
    let observed = || {
        base(Notifier::hyperplane())
            .with_cores(4, 2)
            .with_trace(1 << 16)
            .with_attrib()
            .with_audit()
            .with_metrics_window(100_000)
            .with_par_workers(1)
    };
    let storm = FaultPlan {
        doorbell_drop: 0.5,
        doorbell_delay: 0.2,
        eviction: 0.01,
        spurious: 0.05,
        ..FaultPlan::none()
    };
    let chaos = base(Notifier::hyperplane())
        .with_cores(4, 1)
        .with_trace(16_384)
        .with_attrib()
        .with_audit()
        .with_metrics_window(500_000)
        .with_faults(storm.scaled(0.5))
        .with_chaos(
            hyperplane::sim::chaos::ChaosSchedule::none()
                .with_burst(2_000_000, 500_000, 2.0)
                .with_phase(3_000_000, 6_000_000, storm.clone())
                .with_churn(2_500_000),
        )
        .with_silent_evictions()
        .with_qwait_timeout(20_000)
        .with_watchdog(4_000_000)
        .with_seed(0xC4A0_5C4A)
        .with_par_workers(1);
    let spinning = spinning_observed().with_par_workers(1);
    // Deferred RECONSIDER events and the non-blocking QWAIT branch: no
    // golden or other digest pin runs either path.
    let variants = {
        let mut cfg = observed().with_load(Load::RatePerSec(400_000.0));
        cfg.in_order = true;
        cfg.background_task = true;
        cfg
    };
    let runs: [(&str, ExperimentConfig, [u64; 9]); 5] = [
        (
            "observed",
            observed(),
            [
                2084057706353135620,
                537814675362797866,
                389719217158130612,
                3314226562625845576,
                3334515346066503008,
                7393530455478880603,
                8259935728730405075,
                9760610683641484179,
                17550321923941798725,
            ],
        ),
        (
            "ring-512",
            observed().with_trace(512),
            [
                2084057706353135620,
                537814675362797866,
                2369343183570773714,
                3314226562625845576,
                3334515346066503008,
                7393530455478880603,
                8259935728730405075,
                9760610683641484179,
                17550321923941798725,
            ],
        ),
        (
            "chaos",
            chaos,
            [
                2585752038055270930,
                3391890984310795090,
                2127610778893462706,
                3185457587663251453,
                13361267767940678365,
                11821217872972980691,
                5292677708214914814,
                7579024494089439556,
                1617478584124922276,
            ],
        ),
        (
            "variants",
            variants,
            [
                11774522647683210163,
                18262031469000474518,
                3723643605523153717,
                2349099874098692605,
                18183913439296199070,
                7393530455478880603,
                18384094352174761531,
                7815563706197793261,
                1885121789217859705,
            ],
        ),
        (
            "spinning",
            spinning,
            [
                9200733764483705820,
                15990089173600319624,
                849996320531048019,
                17206619190177555655,
                6791798465754802484,
                8961511833255634629,
                8871136328539128648,
                4898880818997137940,
                8484820059690897199,
            ],
        ),
    ];
    for (label, cfg, want) in runs {
        let r = runner::run(cfg);
        let got = artifact_hashes(&r);
        let want: Vec<(&str, u64)> = got.iter().map(|&(k, _)| k).zip(want).collect();
        assert_eq!(got, want, "{label}: serial artifacts drifted");
        if label == "variants" {
            let p = r.kernel_profile().expect("profiled");
            let reconsider = p.labels().iter().position(|&l| l == "reconsider");
            assert!(p.count(reconsider.expect("labelled")) > 0, "{label}");
            assert!(
                r.aggregate_telemetry().background_instructions > 0,
                "{label}"
            );
        }
    }
}
