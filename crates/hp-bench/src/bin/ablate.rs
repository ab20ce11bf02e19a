//! Ablations of the design choices DESIGN.md §7 calls out:
//!
//! 1. QWAIT latency sensitivity (10 / 50 / 200 cycles);
//! 2. dequeue batch size (1 / 4 / 16);
//! 3. service-time variability (CV 0 / 1 / 4) and its effect on
//!    head-of-line blocking in scale-out vs scale-up.
//!
//! (The monitoring-set associativity ablation is the `hp-core` unit test
//! `monitoring::tests::associativity_ablation_placed_counts`; the
//! ripple-vs-Brent–Kung PPA comparison is gate depth and area, in the
//! `hwcost` binary.)

use hp_bench::{experiment, f2, f3, HarnessOpts, Table};
use hp_sdp::config::Notifier;
use hp_sdp::runner;
use hp_sim::rng::Distribution;
use hp_sim::time::Cycles;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

fn main() {
    let opts = HarnessOpts::from_args();

    // 1. QWAIT latency sensitivity: how conservative is the 50-cycle pick?
    let qwaits = [10u64, 50, 200];
    let qwait_results = hp_par::par_map(opts.threads, qwaits.to_vec(), |qwait| {
        let mut cfg = experiment(
            &opts,
            WorkloadKind::RequestDispatch,
            TrafficShape::SingleQueue,
            500,
        )
        .with_notifier(Notifier::hyperplane());
        cfg.hp.timing.qwait = Cycles(qwait);
        let sat = runner::peak_throughput(&cfg);
        let zl = runner::run_zero_load(&cfg);
        (sat.throughput_mtps(), zl.mean_latency_us())
    });
    let mut table = Table::new(
        "Ablation 1: QWAIT latency sensitivity (request dispatch, 500 queues, SQ)",
        &["qwait_cycles", "Mtasks/s", "zero_load_avg_us"],
    );
    for (qwait, &(mtps, us)) in qwaits.iter().zip(&qwait_results) {
        table.row(vec![qwait.to_string(), f3(mtps), f2(us)]);
    }
    table.print();

    // 2. Batch size under backlog.
    let batches = [1usize, 4, 16];
    let batch_results = hp_par::par_map(opts.threads, batches.to_vec(), |batch| {
        let mut cfg = experiment(
            &opts,
            WorkloadKind::RequestDispatch,
            TrafficShape::SingleQueue,
            200,
        );
        cfg.batch = batch;
        let spin = runner::peak_throughput(&cfg);
        let hp = runner::peak_throughput(&cfg.clone().with_notifier(Notifier::hyperplane()));
        (spin.throughput_mtps(), hp.throughput_mtps())
    });
    let mut table = Table::new(
        "Ablation 2: dequeue batch size (request dispatch, 200 queues, SQ, saturation)",
        &["batch", "spinning_Mtps", "hyperplane_Mtps"],
    );
    for (batch, &(spin, hp)) in batches.iter().zip(&batch_results) {
        table.row(vec![batch.to_string(), f3(spin), f3(hp)]);
    }
    table.print();

    // 3. Service-time CV: HoL blocking in scale-out vs scale-up.
    let dists = [
        ("0", Distribution::Constant),
        ("1", Distribution::Exponential),
        ("4", Distribution::HyperExp { cv: 4.0 }),
    ];
    let cv_results = hp_par::par_map(opts.threads, dists.to_vec(), |(_, dist)| {
        let mk = |cluster: usize| {
            let mut cfg = experiment(
                &opts,
                WorkloadKind::PacketEncap,
                TrafficShape::FullyBalanced,
                64,
            )
            .with_cores(4, cluster)
            .with_notifier(Notifier::hyperplane());
            cfg.service_dist = dist;
            cfg.target_completions = opts.completions(16_000);
            cfg
        };
        let ref_tps = runner::peak_throughput(&mk(4)).throughput_tps;
        let so = runner::run_at_load(&mk(1), ref_tps, 0.55);
        let su = runner::run_at_load(&mk(4), ref_tps, 0.55);
        (so.p99_latency_us(), su.p99_latency_us())
    });
    let mut table = Table::new(
        "Ablation 3: service CV vs organization (packet encap, 4 cores, 64 queues, p99 us @55%)",
        &["cv", "hp_scale_out", "hp_scale_up4", "tail_ratio"],
    );
    for ((label, _), &(so, su)) in dists.iter().zip(&cv_results) {
        table.row(vec![label.to_string(), f2(so), f2(su), f2(so / su)]);
    }
    table.print();

    // 4. Prefetcher degree: accelerates the sequential buffer streams of
    // the storage workloads (64-line blocks).
    let degrees = [0usize, 2, 4];
    let degree_results = hp_par::par_map(opts.threads, degrees.to_vec(), |degree| {
        let mut cfg = experiment(
            &opts,
            WorkloadKind::ErasureCoding,
            TrafficShape::FullyBalanced,
            64,
        );
        cfg.prefetch_degree = degree;
        let spin = runner::peak_throughput(&cfg);
        let hp = runner::peak_throughput(&cfg.clone().with_notifier(Notifier::hyperplane()));
        (spin.throughput_mtps(), hp.throughput_mtps())
    });
    let mut table = Table::new(
        "Ablation 4: stride-prefetch degree (erasure coding, 64 queues, FB, saturation)",
        &["degree", "spinning_Mtps", "hyperplane_Mtps"],
    );
    for (degree, &(spin, hp)) in degrees.iter().zip(&degree_results) {
        table.row(vec![degree.to_string(), f3(spin), f3(hp)]);
    }
    table.print();

    println!("\nExpected shapes: throughput is insensitive to QWAIT latency (it is off");
    println!("the critical path at load) but zero-load latency tracks it; batching");
    println!("amortizes notification overheads; higher CV widens the scale-out/scale-up");
    println!("tail gap (HoL blocking).");
}
