//! The paper's Fig. 1 motivation, quantified: kernel interrupts vs
//! user-level spin-polling vs HyperPlane, across queue counts.
//!
//! Interrupts (Fig. 1a) are queue-scalable but pay the kernel path on
//! every wake; spinning (Fig. 1b/c) reacts fast at small queue counts but
//! collapses as queues grow; HyperPlane gets both properties.

use hp_bench::{experiment, f2, f3, HarnessOpts, Table};
use hp_sdp::config::Notifier;
use hp_sdp::runner;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

fn main() {
    let opts = HarnessOpts::from_args();
    let queue_sweep = opts.thin(&[1u32, 64, 250, 1000]);
    let notifiers = [
        ("interrupt", Notifier::Interrupt),
        ("spinning", Notifier::Spinning),
        ("hyperplane", Notifier::hyperplane()),
    ];

    let mut points = Vec::new();
    for &q in &queue_sweep {
        for (_, notifier) in notifiers {
            points.push((q, notifier));
        }
    }
    let results = hp_par::par_map(opts.threads, points, |(q, notifier)| {
        let cfg = experiment(
            &opts,
            WorkloadKind::PacketEncap,
            TrafficShape::SingleQueue,
            q,
        )
        .with_notifier(notifier);
        (
            runner::peak_throughput(&cfg).throughput_mtps(),
            runner::run_zero_load(&cfg).mean_latency_us(),
        )
    });

    let mut tput = Table::new(
        "Peak throughput (Mtasks/s) — packet encapsulation, SQ traffic, 1 core",
        &["queues", "interrupt", "spinning", "hyperplane"],
    );
    let mut lat = Table::new(
        "Zero-load mean latency (us)",
        &["queues", "interrupt", "spinning", "hyperplane"],
    );
    for (qi, &q) in queue_sweep.iter().enumerate() {
        let mut t_cells = vec![q.to_string()];
        let mut l_cells = vec![q.to_string()];
        for ni in 0..notifiers.len() {
            let (mtps, us) = results[qi * notifiers.len() + ni];
            t_cells.push(f3(mtps));
            l_cells.push(f2(us));
        }
        tput.row(t_cells);
        lat.row(l_cells);
    }
    tput.print();
    lat.print();

    println!("\nExpected shape (paper §I/II): interrupts scale with queue count but");
    println!("carry the kernel cost on every wake (highest zero-load latency);");
    println!("spinning is fast at 1 queue but collapses with many; HyperPlane");
    println!("combines interrupt-like scalability with sub-spinning latency.");
}
