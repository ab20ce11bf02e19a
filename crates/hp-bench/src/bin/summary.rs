//! Headline-claim check (§I / §VII): HyperPlane improves peak throughput
//! by 4.1x and tail latency by 16.4x, on average, over a spinning SDP
//! across varying queue counts (up to 1000).
//!
//! Runs a representative subset of the Fig. 8 / Fig. 9 sweeps and reports
//! the measured geometric-mean improvements side by side with the paper's.

use hp_bench::{experiment, ratio, HarnessOpts, Table};
use hp_sdp::config::Notifier;
use hp_sdp::runner;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

fn main() {
    let opts = HarnessOpts::from_args();
    let queue_sweep = opts.thin(&[100u32, 500, 1000]);
    let workloads = if opts.quick {
        vec![WorkloadKind::PacketEncap]
    } else {
        vec![
            WorkloadKind::PacketEncap,
            WorkloadKind::PacketSteering,
            WorkloadKind::RequestDispatch,
        ]
    };
    let shapes = [
        TrafficShape::SingleQueue,
        TrafficShape::NonproportionallyConcentrated,
    ];

    let mut points = Vec::new();
    for workload in &workloads {
        for shape in shapes {
            for &q in &queue_sweep {
                points.push((*workload, shape, q));
            }
        }
    }
    let results = hp_par::par_map(opts.threads, points.clone(), |(workload, shape, q)| {
        let cfg = experiment(&opts, workload, shape, q);
        let hp_cfg = cfg.clone().with_notifier(Notifier::hyperplane());
        let ts = runner::peak_throughput(&cfg).throughput_tps;
        let th = runner::peak_throughput(&hp_cfg).throughput_tps;
        let ls = runner::run_zero_load(&cfg).p99_latency_us();
        let lh = runner::run_zero_load(&hp_cfg).p99_latency_us();
        (th / ts, ls / lh)
    });

    let mut tput = Vec::new();
    let mut tail = Vec::new();
    let mut table = Table::new(
        "Headline sample points",
        &[
            "workload",
            "shape",
            "queues",
            "tput_speedup",
            "p99_improvement",
        ],
    );
    for ((workload, shape, q), &(t, l)) in points.iter().zip(&results) {
        tput.push(t);
        tail.push(l);
        table.row(vec![
            workload.name().into(),
            shape.label().into(),
            q.to_string(),
            ratio(t),
            ratio(l),
        ]);
    }
    table.print();

    let geo = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    println!("\n=== Headline comparison ===");
    println!(
        "peak throughput improvement: measured {:.1}x   (paper: 4.1x)",
        geo(&tput)
    );
    println!(
        "p99 tail latency improvement: measured {:.1}x   (paper: 16.4x)",
        geo(&tail)
    );
}
