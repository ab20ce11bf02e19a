//! Figure 8 — peak throughput of the spinning data plane vs HyperPlane,
//! across all six workloads, four traffic shapes, and queue counts (§V-B).

use hp_bench::{experiment, f3, ratio, HarnessOpts, Table};
use hp_sdp::config::Notifier;
use hp_sdp::runner;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

fn main() {
    let opts = HarnessOpts::from_args();
    let queue_sweep = opts.thin(&[1u32, 250, 500, 750, 1000]);
    let shapes = if opts.quick {
        vec![TrafficShape::FullyBalanced, TrafficShape::SingleQueue]
    } else {
        TrafficShape::ALL.to_vec()
    };
    let workloads = if opts.quick {
        vec![WorkloadKind::PacketEncap, WorkloadKind::ErasureCoding]
    } else {
        WorkloadKind::ALL.to_vec()
    };

    // The full grid is one flat point list so `par_map` can keep
    // every worker busy across workload/shape boundaries; rows are grouped
    // back into per-workload tables afterwards (results come back in point
    // order).
    let mut points = Vec::new();
    for workload in &workloads {
        for shape in &shapes {
            for &q in &queue_sweep {
                points.push((*workload, *shape, q));
            }
        }
    }
    let results = hp_par::par_map(opts.threads, points.clone(), |(workload, shape, q)| {
        let cfg = experiment(&opts, workload, shape, q);
        let spin = runner::peak_throughput(&cfg);
        let hp = runner::peak_throughput(&cfg.clone().with_notifier(Notifier::hyperplane()));
        (spin, hp)
    });

    let mut improvements: Vec<f64> = Vec::new();
    let mut it = points.iter().zip(&results).peekable();
    for workload in &workloads {
        let mut table = Table::new(
            &format!("Fig 8: peak throughput (Mtasks/s) — {workload}"),
            &["shape", "queues", "spinning", "hyperplane", "speedup"],
        );
        while let Some(((_, shape, q), (spin, hp))) = it.next_if(|((w, _, _), _)| w == workload) {
            let speedup = hp.throughput_tps / spin.throughput_tps;
            // The paper's 4.1x average is over configurations where
            // queue scalability matters (multi-queue points).
            if *q > 1 {
                improvements.push(speedup);
            }
            table.row(vec![
                shape.label().to_string(),
                q.to_string(),
                f3(spin.throughput_mtps()),
                f3(hp.throughput_mtps()),
                ratio(speedup),
            ]);
        }
        table.print();
    }

    let geo = geometric_mean(&improvements);
    let arith = improvements.iter().sum::<f64>() / improvements.len() as f64;
    println!("\nAverage peak-throughput improvement over spinning (multi-queue points):");
    println!(
        "  geometric mean: {:.2}x   arithmetic mean: {:.2}x   (paper: 4.1x)",
        geo, arith
    );
}

fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
