//! Serial/parallel determinism of the figure pipeline end to end: the
//! JSONL a figure binary emits must be byte-identical whether its sweep
//! ran on one thread or many. This pins the full path — `par_map`
//! ordering, the simulations themselves, float formatting, and
//! `Table::to_jsonl` — not just the in-memory result vectors.

use hp_bench::{experiment, f2, f3, HarnessOpts, Table};
use hp_sdp::config::Notifier;
use hp_sdp::runner;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

fn opts(threads: usize) -> HarnessOpts {
    HarnessOpts {
        quick: true,
        csv: false,
        json: true,
        threads,
        par_workers: 1,
        bin: "sweep_jsonl_test".into(),
    }
}

/// A miniature figure binary: sweep a (queues, notifier) grid, render the
/// table, return the JSONL bytes.
fn render(threads: usize) -> String {
    let opts = opts(threads);
    let mut points = Vec::new();
    for q in [1u32, 64] {
        for notifier in [Notifier::Spinning, Notifier::hyperplane()] {
            points.push((q, notifier));
        }
    }
    let results = hp_par::par_map(opts.threads, points.clone(), |(q, notifier)| {
        let mut cfg = experiment(
            &opts,
            WorkloadKind::PacketEncap,
            TrafficShape::SingleQueue,
            q,
        )
        .with_notifier(notifier);
        cfg.target_completions = 1_500;
        let r = runner::run_zero_load(&cfg);
        (r.throughput_mtps(), r.mean_latency_us())
    });
    let mut table = Table::new("sweep determinism probe", &["queues", "Mtps", "mean_us"]);
    for ((q, _), &(mtps, us)) in points.iter().zip(&results) {
        table.row(vec![q.to_string(), f3(mtps), f2(us)]);
    }
    table.to_jsonl()
}

#[test]
fn parallel_jsonl_is_byte_identical_to_serial() {
    let serial = render(1);
    let parallel = render(4);
    assert!(!serial.is_empty());
    assert_eq!(serial.as_bytes(), parallel.as_bytes());
}
