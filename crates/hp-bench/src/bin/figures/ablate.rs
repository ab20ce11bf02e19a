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
//! `hwcost` table.)

use super::*;
use hp_sim::time::Cycles;

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    // 1. QWAIT latency sensitivity: how conservative is the 50-cycle pick?
    let qwaits = [10u64, 50, 200];
    let qwait_results = hp_par::par_map(opts.threads, qwaits.to_vec(), |qwait| {
        let mut cfg = experiment(opts, RequestDispatch, SingleQueue, 500)
            .with_notifier(Notifier::hyperplane());
        cfg.hp.timing.qwait = Cycles(qwait);
        let sat = runs.peak_throughput(&cfg);
        let zl = runs.run_zero_load(&cfg);
        (sat.throughput_mtps(), zl.mean_latency_us())
    });
    let mut table = Table::new(
        "Ablation 1: QWAIT latency sensitivity (request dispatch, 500 queues, SQ)",
        &["qwait_cycles", "Mtasks/s", "zero_load_avg_us"],
    );
    for (qwait, &(mtps, us)) in qwaits.iter().zip(&qwait_results) {
        table.row(vec![qwait.to_string(), f3(mtps), f2(us)]);
    }
    write!(out, "{table}")?;

    // 2. Batch size under backlog.
    let batches = [1usize, 4, 16];
    let batch_results = hp_par::par_map(opts.threads, batches.to_vec(), |batch| {
        let mut cfg = experiment(opts, RequestDispatch, SingleQueue, 200);
        cfg.batch = batch;
        let spin = runs.peak_throughput(&cfg);
        let hp = runs.peak_throughput(&cfg.clone().with_notifier(Notifier::hyperplane()));
        (spin.throughput_mtps(), hp.throughput_mtps())
    });
    let mut table = Table::new(
        "Ablation 2: dequeue batch size (request dispatch, 200 queues, SQ, saturation)",
        &["batch", "spinning_Mtps", "hyperplane_Mtps"],
    );
    for (batch, &(spin, hp)) in batches.iter().zip(&batch_results) {
        table.row(vec![batch.to_string(), f3(spin), f3(hp)]);
    }
    write!(out, "{table}")?;

    // 3. Service-time CV: HoL blocking in scale-out vs scale-up.
    let dists = [
        ("0", Distribution::Constant),
        ("1", Distribution::Exponential),
        ("4", Distribution::HyperExp { cv: 4.0 }),
    ];
    let cv_results = hp_par::par_map(opts.threads, dists.to_vec(), |(_, dist)| {
        let mk = |cluster: usize| {
            let mut cfg = experiment(opts, PacketEncap, FullyBalanced, 64)
                .with_cores(4, cluster)
                .with_notifier(Notifier::hyperplane());
            cfg.service_dist = dist;
            cfg.target_completions = opts.completions(16_000);
            cfg
        };
        let ref_tps = runs.peak_throughput(&mk(4)).throughput_tps;
        let so = runs.run_at_load(&mk(1), ref_tps, 0.55);
        let su = runs.run_at_load(&mk(4), ref_tps, 0.55);
        (so.p99_latency_us(), su.p99_latency_us())
    });
    let mut table = Table::new(
        "Ablation 3: service CV vs organization (packet encap, 4 cores, 64 queues, p99 us @55%)",
        &["cv", "hp_scale_out", "hp_scale_up4", "tail_ratio"],
    );
    for ((label, _), &(so, su)) in dists.iter().zip(&cv_results) {
        table.row(vec![label.to_string(), f2(so), f2(su), f2(so / su)]);
    }
    write!(out, "{table}")?;

    // 4. Prefetcher degree: accelerates the sequential buffer streams of
    // the storage workloads (64-line blocks).
    let degrees = [0usize, 2, 4];
    let degree_results = hp_par::par_map(opts.threads, degrees.to_vec(), |degree| {
        let mut cfg = experiment(opts, ErasureCoding, FullyBalanced, 64);
        cfg.prefetch_degree = degree;
        let spin = runs.peak_throughput(&cfg);
        let hp = runs.peak_throughput(&cfg.clone().with_notifier(Notifier::hyperplane()));
        (spin.throughput_mtps(), hp.throughput_mtps())
    });
    let mut table = Table::new(
        "Ablation 4: stride-prefetch degree (erasure coding, 64 queues, FB, saturation)",
        &["degree", "spinning_Mtps", "hyperplane_Mtps"],
    );
    for (degree, &(spin, hp)) in degrees.iter().zip(&degree_results) {
        table.row(vec![degree.to_string(), f3(spin), f3(hp)]);
    }
    write!(out, "{table}")?;

    writeln!(
        out,
        "\nExpected shapes: throughput is insensitive to QWAIT latency (it is off"
    )?;
    writeln!(
        out,
        "the critical path at load) but zero-load latency tracks it; batching"
    )?;
    writeln!(
        out,
        "amortizes notification overheads; higher CV widens the scale-out/scale-up"
    )?;
    writeln!(out, "tail gap (HoL blocking).")?;
    Ok(())
}
