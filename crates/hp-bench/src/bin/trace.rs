//! Traced run: execute one experiment with the observability plane on and
//! write machine-readable artifacts —
//!
//! * a Chrome `trace_event` / Perfetto-compatible JSON trace of the full
//!   notification lifecycle (load it in `ui.perfetto.dev` or
//!   `chrome://tracing`);
//! * a windowed-metrics JSONL time series (one JSON object per window);
//! * optionally a small benchmark summary JSON (`--bench`) with the
//!   headline throughput/latency numbers of the quickstart configuration;
//! * optionally the sim-kernel profile as JSON (`--profile`): per-event
//!   counts and attributed cycles plus the memory-system fast-path
//!   counters, so the hot-path cycle share is measurable from the CLI;
//! * optionally the latency-attribution artifact (`--attrib`, schema
//!   `hp-attrib-v1`): end-to-end latency decomposed into additive phase
//!   components per queue / per core, with tail exemplars — the input
//!   format of the `attrib-diff` comparison tool (DESIGN.md §15).
//!
//! ```sh
//! cargo run --release -p hp-bench --bin trace -- \
//!     --quick --trace out.json --metrics out.jsonl --attrib attrib.json
//! ```

use hp_bench::{cli, HarnessOpts, Table};
use hp_bytes::json::JsonWriter;
use hp_sdp::config::{ExperimentConfig, Load, Notifier};
use hp_sdp::runner;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

/// Benchmark summary from the quickstart configuration (README Part 2):
/// spinning vs HyperPlane peak throughput plus HyperPlane p99 latency.
fn bench_summary(opts: &HarnessOpts) -> String {
    let mut cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::SingleQueue, 500);
    cfg.target_completions = opts.completions(10_000);
    // The spinning and HyperPlane peak searches are independent: fan them
    // out as a two-point sweep.
    let mut results = hp_par::par_map(
        opts.threads,
        vec![
            cfg.clone(),
            cfg.clone().with_notifier(Notifier::hyperplane()),
        ],
        |cfg| runner::peak_throughput(&cfg),
    );
    let hp = results.pop().expect("two sweep results");
    let spin = results.pop().expect("two sweep results");

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "quickstart");
    w.field_str("workload", "packet-encap");
    w.field_str("shape", "sq");
    w.field_u64("queues", 500);
    w.field_f64("spinning_mtps", spin.throughput_mtps());
    w.field_f64("hyperplane_mtps", hp.throughput_mtps());
    w.field_f64("speedup", hp.throughput_tps / spin.throughput_tps);
    w.field_opt_f64("spinning_p99_us", spin.try_latency_percentile_us(99.0));
    w.field_opt_f64("hyperplane_p99_us", hp.try_latency_percentile_us(99.0));
    w.field_u64("completions", hp.completions);
    // Wall-clock simulation-kernel speed of the HyperPlane peak run; CI's
    // perf-smoke gate parses this and fails on a non-numeric/zero value.
    w.field_f64("events_per_sec", hp.events_per_sec_wall());
    w.field_u64("threads", opts.threads as u64);
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

/// Intra-run worker scaling of the parallel engine (`--par-bench`): one
/// four-group experiment run at 1, 2, and 4 workers, digests compared
/// bit-for-bit, wall-clock speedups reported against the 1-worker run.
///
/// Every lane generates only its own groups' stimulus (keyed RNG
/// streams, DESIGN.md §18), so total kernel events are worker-count-invariant
/// (the 4-lane/serial ratio is gated at ≤ 1.1 here and in CI) and the
/// `events_per_sec` figures compare directly across worker counts. The
/// lookahead window schedule is part of the experiment definition, so the
/// rendezvous count must be the same at every worker count, and at most
/// the count the schedule took when it became the only one.
fn par_bench(opts: &HarnessOpts, path: &str) {
    let mk = || {
        let mut cfg =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 64)
                .with_cores(4, 1)
                .with_notifier(Notifier::hyperplane());
        cfg.target_completions = opts.completions(30_000);
        cfg
    };
    println!(
        "par-bench: packet-encap / fb / 64 queues / hyperplane, 4 lanes, host_cpus={}",
        hp_par::available_parallelism()
    );
    struct Row {
        workers: usize,
        wall: f64,
        eps: f64,
        kernel_events: u64,
        sync_rounds: u64,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut digests: Vec<Vec<u64>> = Vec::new();
    for workers in [1usize, 2, 4] {
        let r = runner::run(mk().with_par_workers(workers));
        digests.push(r.digest());
        rows.push(Row {
            workers,
            wall: r.wall_secs(),
            eps: r.events_per_sec_wall(),
            kernel_events: r.kernel_profile().expect("profiling is on").total_events(),
            sync_rounds: r.sync_rounds(),
        });
    }
    let identical = digests.iter().all(|d| d == &digests[0]);
    let base_wall = rows[0].wall;
    let event_ratio = rows[2].kernel_events as f64 / rows[0].kernel_events as f64;

    let rounds = rows[0].sync_rounds;
    let rounds_invariant = rows.iter().all(|r| r.sync_rounds == rounds);
    // Rendezvous rounds the lookahead schedule takes on this config
    // (quick / full); more means the schedule regressed.
    let max_rounds = if opts.quick { 7 } else { 30 };

    let mut t = Table::new(
        "Parallel engine scaling",
        &[
            "workers",
            "wall_s",
            "speedup",
            "events/s",
            "kernel_ev",
            "rounds",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.workers.to_string(),
            format!("{:.3}", r.wall),
            format!("{:.2}x", base_wall / r.wall),
            format!("{:.0}", r.eps),
            r.kernel_events.to_string(),
            r.sync_rounds.to_string(),
        ]);
    }
    print!("{t}");
    println!("digest identical across worker counts: {identical}");
    println!("kernel events at 4 lanes vs serial: {event_ratio:.3}x");
    println!("rendezvous rounds: {rounds} at every worker count: {rounds_invariant}");

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "par-engine-scaling");
    w.field_str(
        "config",
        "packet-encap/fb/64q/hyperplane, 4 lanes (dp_cores=4, cluster=1)",
    );
    w.field_u64("host_cpus", hp_par::available_parallelism() as u64);
    w.field_bool("digest_identical", identical);
    w.field_f64("kernel_event_ratio_4_vs_1", event_ratio);
    w.field_u64("sync_rounds_lookahead", rounds);
    w.key("workers");
    w.begin_array();
    for r in &rows {
        w.begin_object();
        w.field_u64("workers", r.workers as u64);
        w.field_f64("wall_secs", r.wall);
        w.field_f64("speedup_vs_1", base_wall / r.wall);
        w.field_f64("events_per_sec", r.eps);
        w.field_u64("kernel_events", r.kernel_events);
        w.field_u64("sync_rounds", r.sync_rounds);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    std::fs::write(path, &out).expect("write par-bench JSON");
    println!("par-bench summary -> {path}");
    assert!(
        identical,
        "parallel engine digests diverged across worker counts"
    );
    assert!(
        event_ratio <= 1.1,
        "lane stimulus generation regressed: 4-lane kernel events {event_ratio:.3}x serial"
    );
    assert!(
        rounds_invariant,
        "rendezvous rounds differ across worker counts"
    );
    assert!(
        rounds <= max_rounds,
        "lookahead windows regressed: {rounds} rendezvous rounds > {max_rounds}"
    );
}

fn main() {
    let (opts, args) = cli::from_env(cli::TRACE, Ok);
    if let Some(path) = args.get("--par-bench") {
        par_bench(&opts, path);
        return;
    }
    let trace_path = args.get("--trace").unwrap_or("trace.json");
    let metrics_path = args.get("--metrics").unwrap_or("metrics.jsonl");
    let bench_path = args.get("--bench");
    let profile_path = args.get("--profile");
    let attrib_path = args.get("--attrib");

    // A moderate-load run gives a readable trace: lifecycle spans with
    // visible queueing, periodic halts, and non-degenerate windows.
    let mut cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 64)
        .with_notifier(Notifier::hyperplane())
        .with_trace(65_536)
        .with_metrics_window(200_000);
    cfg.target_completions = opts.completions(12_000);
    let rate = cfg.capacity_estimate_per_core() * cfg.dp_cores as f64 * 0.30;
    let mut cfg = cfg.with_load(Load::RatePerSec(rate));
    if attrib_path.is_some() {
        cfg = cfg.with_attrib();
    }

    println!(
        "trace: {} / {} / {} queues / {} @ {:.2} Mtasks/s offered",
        cfg.workload,
        cfg.shape.label(),
        cfg.queues,
        cfg.notifier.label(),
        rate / 1e6
    );

    let r = runner::run(cfg);

    let chrome = r.chrome_trace_json().expect("tracing was enabled");
    std::fs::write(trace_path, &chrome).expect("write trace JSON");
    let jsonl = r.metrics_jsonl();
    std::fs::write(metrics_path, &jsonl).expect("write metrics JSONL");

    println!(
        "\nthroughput: {:.3} Mtasks/s   p99 latency: {:.2} us   drops: {}",
        r.throughput_mtps(),
        r.latency_percentile_us(99.0),
        r.drops
    );
    println!(
        "trace: {} records -> {} ({} bytes)",
        r.trace_records().map(<[_]>::len).unwrap_or(0),
        trace_path,
        chrome.len()
    );
    if r.trace_dropped() > 0 {
        println!(
            "WARNING: trace ring dropped {} of {} records — the trace file \
             is truncated (raise trace capacity); attribution is unaffected",
            r.trace_dropped(),
            r.trace_emitted()
        );
    }
    println!("metrics: {} windows -> {}", r.windows().len(), metrics_path);

    if let Some(path) = attrib_path {
        let json = r.attrib_json().expect("attribution was enabled");
        std::fs::write(path, &json).expect("write attribution JSON");
        let a = r.attrib_report().expect("attribution was enabled");
        println!(
            "attribution: {} chains ({} incomplete), conserved: {} -> {path}",
            a.completed,
            a.incomplete,
            a.conserved()
        );
        let mut t = Table::new("Latency attribution", &["phase", "cycles", "share", "p99"]);
        for ph in hp_sim::attrib::Phase::ALL {
            let h = &a.phase_hists[ph as usize];
            t.row(vec![
                ph.name().to_string(),
                a.phase_total(ph).to_string(),
                format!("{:.1}%", a.phase_share(ph) * 100.0),
                h.percentile(99.0).unwrap_or(0).to_string(),
            ]);
        }
        print!("{t}");
    }

    if let Some(profile) = r.kernel_profile() {
        let mut t = Table::new("Sim-kernel profile", &["event", "count", "cycles"]);
        for (label, count, cycles) in profile.rows() {
            t.row(vec![
                label.to_string(),
                count.to_string(),
                cycles.to_string(),
            ]);
        }
        print!("{t}");
        println!(
            "\nkernel: {} events in {:.3} s wall ({:.0} events/s)",
            profile.total_events(),
            r.wall_secs(),
            r.events_per_sec_wall()
        );
        println!(
            "sync rounds: {}   generated arrivals/lane: {:?}",
            r.sync_rounds(),
            r.lane_generated_arrivals()
        );
    }

    if let Some(path) = profile_path {
        let json = r.profile_json().expect("profiling is always collected");
        std::fs::write(path, &json).expect("write profile JSON");
        println!("kernel profile -> {path}");
    }

    if let Some(path) = bench_path {
        let summary = bench_summary(&opts);
        std::fs::write(path, &summary).expect("write bench summary");
        println!("bench summary -> {path}");
    }
}
