//! NUMA work stealing (the paper's §III-B future-work proposal,
//! implemented): two 2-core sockets, each with its own HyperPlane device
//! over its queue partition; under skewed traffic the idle socket's cores
//! fetch ready QIDs from the loaded socket's ready set, paying an
//! inter-socket penalty per stolen operation.

use hp_bench::{experiment, f2, f3, HarnessOpts, Table};
use hp_sdp::config::{ExperimentConfig, Notifier};
use hp_sdp::runner;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

fn cfg(opts: &HarnessOpts, shape: TrafficShape, steal: bool) -> ExperimentConfig {
    let mut cfg = experiment(opts, WorkloadKind::CryptoForward, shape, 64)
        .with_cores(4, 2) // two sockets of two cores
        .with_notifier(Notifier::hyperplane());
    cfg.work_stealing = steal;
    cfg.target_completions = opts.completions(12_000);
    cfg
}

fn main() {
    let opts = HarnessOpts::from_args();
    let shapes = [
        TrafficShape::SingleQueue, // extreme skew: all load on socket 0
        TrafficShape::ProportionallyConcentrated,
        TrafficShape::FullyBalanced,
    ];

    // Common load reference per shape so latency cells are comparable.
    let refs = hp_par::par_map(opts.threads, shapes.to_vec(), |shape| {
        runner::peak_throughput(&cfg(&opts, shape, true)).throughput_tps
    });

    let mut points = Vec::new();
    for (shape, &ref_tps) in shapes.iter().zip(&refs) {
        for steal in [false, true] {
            points.push((*shape, steal, ref_tps));
        }
    }
    let results = hp_par::par_map(opts.threads, points.clone(), |(shape, steal, ref_tps)| {
        let c = cfg(&opts, shape, steal);
        let sat = runner::peak_throughput(&c);
        let loaded = runner::run_at_load(&c, ref_tps, 0.6);
        (sat, loaded)
    });

    let mut table = Table::new(
        "NUMA work stealing: 2 sockets x 2 cores, crypto forwarding",
        &[
            "traffic",
            "stealing",
            "Mtasks/s",
            "p99_us@60%",
            "busy_cores",
        ],
    );
    for ((shape, steal, _), (sat, loaded)) in points.iter().zip(&results) {
        let busy = sat.per_core.iter().filter(|t| t.completions > 50).count();
        table.row(vec![
            shape.label().to_string(),
            if *steal { "yes" } else { "no" }.to_string(),
            f3(sat.throughput_mtps()),
            f2(loaded.p99_latency_us()),
            busy.to_string(),
        ]);
    }
    table.print();

    println!("\nExpected shape: under SQ/PC skew, stealing activates the idle socket's");
    println!("cores and recovers throughput; under FB it changes little (already balanced).");
}
