//! Deep-dive report for a single configuration: run one experiment and
//! print everything the telemetry knows — throughput, latency percentiles
//! and CDF, notification-latency breakdown, per-core IPC/halt residency,
//! power, co-runner IPC, and cache behaviour.
//!
//! ```sh
//! cargo run --release -p hp-bench --bin inspect -- \
//!     --workload crypto --shape sq --queues 500 --notifier hyperplane --load 60
//! ```

use hp_bench::cli::{self, CliError};
use hp_bench::plot::{AsciiChart, Series};
use hp_bench::Table;
use hp_sdp::config::{ExperimentConfig, Notifier};
use hp_sdp::power::PowerModel;
use hp_sdp::runner;
use hp_sdp::telemetry::SmtCoRunner;
use hp_sdp::Engine;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

const WORKLOADS: &[(&str, WorkloadKind)] = &[
    ("encap", WorkloadKind::PacketEncap),
    ("packet", WorkloadKind::PacketEncap),
    ("crypto", WorkloadKind::CryptoForward),
    ("steering", WorkloadKind::PacketSteering),
    ("erasure", WorkloadKind::ErasureCoding),
    ("raid", WorkloadKind::RaidProtection),
    ("dispatch", WorkloadKind::RequestDispatch),
];

const SHAPES: &[(&str, TrafficShape)] = &[
    ("fb", TrafficShape::FullyBalanced),
    ("pc", TrafficShape::ProportionallyConcentrated),
    ("nc", TrafficShape::NonproportionallyConcentrated),
    ("sq", TrafficShape::SingleQueue),
];

const NOTIFIERS: &[(&str, Notifier)] = &[
    ("spinning", Notifier::Spinning),
    ("spin", Notifier::Spinning),
    ("interrupt", Notifier::Interrupt),
    ("irq", Notifier::Interrupt),
    ("hyperplane", Notifier::hyperplane()),
    ("hp", Notifier::hyperplane()),
    ("hyperplane-c1", Notifier::hyperplane_power_opt()),
    ("c1", Notifier::hyperplane_power_opt()),
];

/// The configuration and load percentage the flags describe.
fn config(a: cli::Args) -> Result<(ExperimentConfig, f64), CliError> {
    let workload = a.choice("--workload", WORKLOADS)?;
    let shape = a.choice("--shape", SHAPES)?;
    let queues = a.parsed("--queues", "an integer")?;
    let notifier = a.choice("--notifier", NOTIFIERS)?;
    let load_pct: f64 = a.parsed("--load", "a percentage")?.unwrap_or(60.0);
    if !(load_pct > 0.0 && load_pct <= 100.0) {
        let given = a.get("--load").unwrap_or_default();
        return Err(cli::bad("--load", given, "a percentage in (0, 100]"));
    }
    let cores = a.parsed("--cores", "an integer")?.unwrap_or(1);
    let cluster = a.parsed("--cluster", "an integer")?.unwrap_or(cores);
    let cfg = ExperimentConfig::new(
        workload.unwrap_or(WorkloadKind::PacketEncap),
        shape.unwrap_or(TrafficShape::SingleQueue),
        queues.unwrap_or(500),
    )
    .with_notifier(notifier.unwrap_or(Notifier::hyperplane()))
    .with_cores(cores, cluster);
    // A trial build, not just `validate()`: the build itself refuses some
    // configs (an empty sharing group, exhausted spare doorbells), and
    // those must exit 2 here rather than panic mid-report.
    Engine::try_new(cfg.clone()).map_err(|e| CliError(e.to_string()))?;
    Ok((cfg, load_pct))
}

fn main() {
    let (opts, (mut cfg, load_pct)) = cli::from_env(cli::INSPECT, config);
    cfg.target_completions = opts.completions(20_000);

    println!(
        "inspect: {} / {} / {} queues / {} / {} core(s), cluster {} / {:.0}% load",
        cfg.workload,
        cfg.shape.label(),
        cfg.queues,
        cfg.notifier.label(),
        cfg.dp_cores,
        cfg.cluster,
        load_pct
    );

    let peak = runner::peak_throughput(&cfg);
    println!(
        "\npeak sustainable throughput: {:.3} Mtasks/s",
        peak.throughput_mtps()
    );

    let r = runner::run_at_load(&cfg, peak.throughput_tps, (load_pct / 100.0).max(0.01));

    let mut t = Table::new("Latency (us)", &["metric", "value"]);
    t.row(vec!["mean".into(), format!("{:.2}", r.mean_latency_us())]);
    for p in [50.0, 90.0, 99.0, 99.9] {
        t.row(vec![
            format!("p{p}"),
            format!("{:.2}", r.latency_percentile_us(p)),
        ]);
    }
    t.row(vec![
        "mean notification (arrival->dequeue)".into(),
        format!("{:.2}", r.mean_notification_us()),
    ]);
    t.row(vec![
        "p99 notification".into(),
        format!("{:.2}", r.notification_percentile_us(99.0)),
    ]);
    print!("{t}");

    let mut t = Table::new(
        "Per-core telemetry",
        &[
            "core",
            "IPC",
            "useful",
            "spin",
            "background",
            "halt%",
            "completions",
            "spurious",
        ],
    );
    for (i, c) in r.per_core.iter().enumerate() {
        t.row(vec![
            i.to_string(),
            format!("{:.3}", c.ipc()),
            format!("{:.3}", c.useful_ipc()),
            format!("{:.3}", c.spin_ipc()),
            format!("{:.3}", c.background_ipc()),
            format!("{:.1}", c.halt_fraction() * 100.0),
            c.completions.to_string(),
            c.spurious.to_string(),
        ]);
    }
    print!("{t}");

    let mem = r.mem_stats();
    let mut t = Table::new("Memory system (DP cores)", &["metric", "value"]);
    t.row(vec!["accesses".into(), mem.total().to_string()]);
    t.row(vec![
        "L1 hit %".into(),
        format!("{:.1}", (1.0 - mem.l1_miss_ratio()) * 100.0),
    ]);
    t.row(vec!["LLC hits".into(), mem.llc_hits.to_string()]);
    t.row(vec![
        "remote-L1 transfers".into(),
        mem.remote_hits.to_string(),
    ]);
    t.row(vec!["DRAM fetches".into(), mem.dram_fetches.to_string()]);
    print!("{t}");

    println!(
        "\npower: {:.1}% of peak core   co-runner IPC: {:.2}   drops: {}",
        r.average_power_fraction(&PowerModel::default()) * 100.0,
        r.co_runner_ipc(&SmtCoRunner::default()),
        r.drops
    );

    let cdf: Vec<(f64, f64)> = r.latency_cdf_us();
    print!(
        "{}",
        AsciiChart::new("latency CDF (us -> fraction)")
            .series(Series::new("cdf", cdf))
            .render()
    );
}
