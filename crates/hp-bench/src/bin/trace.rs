//! Traced run: execute one experiment with the observability plane on and
//! write the machine-readable artifacts whose flags name a path —
//!
//! * `--trace`: a Chrome `trace_event` / Perfetto-compatible JSON trace of
//!   the full notification lifecycle (load it in `ui.perfetto.dev` or
//!   `chrome://tracing`);
//! * `--metrics`: a windowed-metrics JSONL time series (one JSON object
//!   per window);
//! * `--profile`: the sim-kernel profile as JSON — per-event counts and
//!   attributed cycles plus the memory-system fast-path counters, so the
//!   hot-path cycle share is measurable from the CLI;
//! * `--attrib`: the latency-attribution artifact (schema
//!   `hp-attrib-v1`): end-to-end latency decomposed into additive phase
//!   components per queue / per core, with tail exemplars — the input
//!   format of the `attrib-diff` comparison tool (DESIGN.md §15).
//!
//! With no artifact flag the run only prints its report.
//!
//! ```sh
//! cargo run --release -p hp-bench --bin trace -- \
//!     --quick --trace out.json --metrics out.jsonl --attrib attrib.json
//! ```

use hp_bench::{cli, Table};
use hp_sdp::config::{ExperimentConfig, Load, Notifier};
use hp_sdp::runner;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

fn main() {
    let (opts, args) = cli::from_env(cli::TRACE, |_, args| Ok(args));
    let trace_path = args.get("--trace");
    let metrics_path = args.get("--metrics");
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

    println!(
        "\nthroughput: {:.3} Mtasks/s   p99 latency: {:.2} us   drops: {}",
        r.throughput_mtps(),
        r.latency_percentile_us(99.0),
        r.drops
    );
    if let Some(path) = trace_path {
        let chrome = r.chrome_trace_json().expect("tracing was enabled");
        std::fs::write(path, &chrome).expect("write trace JSON");
        println!(
            "trace: {} records -> {path} ({} bytes)",
            r.trace_records().map(<[_]>::len).unwrap_or(0),
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
    }
    if let Some(path) = metrics_path {
        std::fs::write(path, r.metrics_jsonl()).expect("write metrics JSONL");
        println!("metrics: {} windows -> {path}", r.windows().len());
    }

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
}
