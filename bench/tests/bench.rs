//! Integration tests of the benchmark: run determinism and digest pins,
//! the command line, the output formats, the metric tables and the
//! ledger arithmetic. Run with
//! `cargo test --release --manifest-path bench/Cargo.toml`.

use hp_bytes::json::{self, JsonValue};
use hp_perfbench::cli::DEFAULT_SECONDS;
use hp_perfbench::compare::parse_artifact;
use hp_perfbench::report::{
    per_layer, Counts, Ledger, Probes, Report, Timings, END_TO_END, UNDECLARED_LAYER,
};
use hp_perfbench::spans::Spans;
use hp_perfbench::stats::Summary;
use hp_perfbench::workloads::{digest, find, run_round, traced, DEFAULT_SEED, WORKLOADS};
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the simulation tests: the flash crowd holds ~0.8 GiB, and
/// two of them at once would double that.
static HEAVY: Mutex<()> = Mutex::new(());

fn digest_of(cfg: &hp_sdp::ExperimentConfig) -> u64 {
    let r = run_round(cfg);
    digest(r.result.as_ref().expect("round succeeds"))
}

/// At 1/20 of its length, a workload repeats its digest exactly, and
/// neither the observers nor the fabric worker count move it.
fn short_run_is_invariant(name: &str) {
    let _g = HEAVY.lock().unwrap_or_else(|e| e.into_inner());
    let wl = find(name).expect("workload exists");
    let mut cfg = wl.config(DEFAULT_SEED);
    cfg.target_completions /= 20;
    let base = digest_of(&cfg);
    assert_eq!(digest_of(&cfg), base, "{name}: two runs differ");
    assert_eq!(digest_of(&traced(&cfg)), base, "{name}: traced differs");
    assert_eq!(
        digest_of(&cfg.clone().with_par_workers(1)),
        base,
        "{name}: 1 worker differs"
    );
    assert_eq!(
        digest_of(&cfg.clone().with_par_workers(2)),
        base,
        "{name}: 2 workers differ"
    );
}

#[test]
fn spin_sq500_short_run_is_invariant() {
    short_run_is_invariant("spin-sq500");
}

#[test]
fn hp_pc512_4c_short_run_is_invariant() {
    short_run_is_invariant("hp-pc512-4c");
}

#[test]
fn par_fb64_4lane_short_run_is_invariant() {
    short_run_is_invariant("par-fb64-4lane");
}

#[test]
fn flash_1m_short_run_is_invariant() {
    short_run_is_invariant("flash-1m");
}

#[test]
fn pinned_digests_hold_at_full_length() {
    let _g = HEAVY.lock().unwrap_or_else(|e| e.into_inner());
    for wl in &WORKLOADS {
        assert_eq!(
            digest_of(&wl.config(DEFAULT_SEED)),
            wl.pinned_digest,
            "{}: pinned digest moved",
            wl.name
        );
    }
}

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn binary_rejects_bad_arguments_with_usage() {
    for bad in [
        &["run", "--workload", "spin-sq500", "--quick"][..],
        &["run", "--workload", "spin-sq50"],
        &["bench"],
        &[],
    ] {
        let out = perfbench(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
        assert!(out.stdout.is_empty(), "{bad:?} printed a result");
    }
    let out = perfbench(&["--list"]);
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
        .collect();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed, names);
}

fn sample_report() -> Report {
    let counts = Counts {
        pops: 1_000,
        completions: 100,
        lanes: 1,
        ..Counts::default()
    };
    let timings = Timings {
        run_s: 0.5,
        loop_s: 0.4,
        teardown_s: 0.1,
        traced_run_s: 0.6,
        emit_s: 0.01,
    };
    let probes = Probes {
        event_ns: 20.0,
        ..Probes::default()
    };
    Report {
        workload: "hp-pc512-4c",
        seed: 3,
        seconds: 10,
        rounds: 9,
        attempted: 11,
        failed: 0,
        failures: Vec::new(),
        digest: Some(0xdead_beef_0123_4567),
        pinned: None,
        end_to_end: vec![
            Summary::of(&[0.5, 0.52, 0.49]),
            Summary::of(&[2.0e6, 2.1e6, 1.9e6]),
            Summary::of(&[2.5e-4, 2.6e-4]),
            Summary::of(&[37.25]),
            Summary::of(&[0.0]),
        ],
        per_layer: per_layer(&counts, &timings, &probes),
    }
}

#[test]
fn artifact_and_result_line_round_trip_through_the_parser() {
    let report = sample_report();
    let doc = json::parse(&report.to_json()).expect("artifact parses");
    assert_eq!(
        doc.get("digest").and_then(JsonValue::as_str),
        Some("deadbeef01234567")
    );
    let layer = doc.get("per_layer").expect("per_layer present");
    for m in &report.per_layer {
        let v = layer.get(m.name).expect("metric present");
        assert_eq!(v.get("value").and_then(JsonValue::as_f64), Some(m.value));
        assert_eq!(v.get("unit").and_then(JsonValue::as_str), Some(m.unit));
    }
    let art = parse_artifact(&report.to_json()).expect("compare reads it");
    assert_eq!(art.workload, "hp-pc512-4c");
    assert!(art.correct);
    assert_eq!(art.rounds, report.end_to_end);
    let values: Vec<f64> = END_TO_END
        .iter()
        .zip(&report.end_to_end)
        .map(|(m, s)| m.value(s))
        .collect();
    assert_eq!(art.values, values);
    assert_eq!(values[0], 0.49, "run_s is the fastest round");
    assert_eq!(values[1], 2.1e6, "events_per_s is the fastest round");

    for trace in [false, true] {
        let line = json::parse(&report.result_line(trace)).expect("result line parses");
        let keys: Vec<&str> = match &line {
            JsonValue::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("result line is not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("attempted").and_then(JsonValue::as_u64), Some(11));
        let JsonValue::Obj(metrics) = line.get("metrics").expect("metrics") else {
            panic!("metrics is not an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = if trace {
            declared_layer().iter().map(|(n, _, _)| *n).collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.declared)
                .map(|m| m.name)
                .collect()
        };
        assert_eq!(names, want);
    }
}

#[test]
fn spans_round_trip_as_chrome_trace() {
    let mut spans = Spans::default();
    let t0 = Instant::now();
    let t1 = t0 + Duration::from_millis(3);
    let t2 = t0 + Duration::from_millis(5);
    let round = spans.add("round", None, t0, t2);
    spans.add("setup", Some(round), t0, t1);
    spans.add("run", Some(round), t1, t2);
    spans.time("probe.event", || ());
    let doc = json::parse(&spans.chrome_json()).expect("spans parse");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), 4);
    let names: Vec<&str> = events
        .iter()
        .map(|e| e.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    assert_eq!(names, ["round", "setup", "run", "probe.event"]);
    for e in events {
        assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert!(e
            .get("dur")
            .and_then(JsonValue::as_f64)
            .is_some_and(|d| d >= 0.0));
    }
    let run = &events[2];
    assert_eq!(
        run.get("args")
            .and_then(|a| a.get("parent"))
            .and_then(JsonValue::as_u64),
        Some(round as u64)
    );
    assert_eq!(run.get("dur").and_then(JsonValue::as_f64), Some(2000.0));
}

/// `(name, unit, better)` of every per-layer metric on the result line.
fn declared_layer() -> Vec<(&'static str, &'static str, &'static str)> {
    per_layer(&Counts::default(), &Timings::default(), &Probes::default())
        .into_iter()
        .filter(|m| !UNDECLARED_LAYER.contains(&m.name))
        .map(|m| (m.name, m.unit, m.better.name()))
        .collect()
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let layer = per_layer(&Counts::default(), &Timings::default(), &Probes::default());
    let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let mut units: Vec<&str> = END_TO_END.iter().map(|m| m.unit).collect();
    names.extend(layer.iter().map(|m| m.name));
    units.extend(layer.iter().map(|m| m.unit));
    for n in &names {
        assert!(
            (1..=64).contains(&n.len())
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name `{n}`"
        );
    }
    for u in &units {
        assert!(
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit `{u}`"
        );
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "metric names repeat");
    for n in UNDECLARED_LAYER {
        assert!(layer.iter().any(|m| m.name == n), "{n} is not a metric");
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json parses");
    let list = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("array")
            .to_vec()
    };
    let s = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).expect(k).to_string();
    assert_eq!(
        doc.get("run_seconds").and_then(JsonValue::as_u64),
        Some(DEFAULT_SECONDS)
    );

    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (s(w, "name"), s(w, "why")))
        .collect();
    let want: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, want);

    let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(JsonValue::as_f64).expect("bound");
            (s(m, "name"), s(m, "unit"), s(m, "better"), bound)
        })
        .collect();
    let want: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .filter(|m| m.declared)
        .map(|m| {
            (
                m.name.into(),
                m.unit.into(),
                m.better.name().into(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(e2e, want);

    let layer: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
        .collect();
    let want: Vec<(String, String, String)> = declared_layer()
        .into_iter()
        .map(|(n, u, b)| (n.into(), u.into(), b.into()))
        .collect();
    assert_eq!(layer, want);
}

#[test]
fn ledger_arithmetic_on_a_fixed_input() {
    let counts = Counts {
        pops: 1_000_000,
        mem: [1_000_000, 1_000_000, 500_000, 1_000],
        has_device: true,
        snoops: [90_000, 10_000, 4_000],
        completions: 80_000,
        spurious: 20_000,
        arrivals: 1_000_000,
        lanes: 4,
        sync_rounds: 1_000,
        ..Counts::default()
    };
    let probes = Probes {
        event_ns: 20.0,
        mem_ns: [10.0, 30.0, 40.0, 100.0],
        snoop_ns: 50.0,
        select_ns: 50.0,
        traffic_ns: 10.0,
        rendezvous_ns: 1_000.0,
    };
    let l = Ledger::new(&counts, &probes, 0.125);
    let close = |a: f64, b: f64| assert!((a - b).abs() < 1e-12, "{a} != {b}");
    close(l.event_s, 0.02);
    // 0.01 + 0.03 + 0.02 + 0.0001
    close(l.mem_s, 0.0601);
    // (90k + 10k) snoops + (80k + 20k) selects, 50 ns each
    close(l.device_s, 0.01);
    close(l.traffic_s, 0.01);
    close(l.fabric_s, 0.001);
    close(l.residual_frac, 1.0 - 0.1011 / 0.125);

    // A spinning one-lane run has no device and no barriers.
    let spin = Counts {
        has_device: false,
        lanes: 1,
        ..counts
    };
    let l = Ledger::new(&spin, &probes, 0.125);
    close(l.device_s, 0.0);
    close(l.fabric_s, 0.0);
    close(l.residual_frac, 1.0 - 0.0901 / 0.125);
}
