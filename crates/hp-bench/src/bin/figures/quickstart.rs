//! Quickstart comparison (§I): peak throughput and tail latency of a
//! spinning data plane vs HyperPlane, packet encapsulation over 500
//! queues with all traffic on one of them — the README's quickstart
//! configuration and the paper's headline shape.
//!
//! Every value prints with `{}`, the shortest string that reads back as
//! the same `f64`, so the golden pins the simulated results exactly.

use super::*;

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let mut cfg = ExperimentConfig::new(PacketEncap, SingleQueue, 500);
    cfg.target_completions = opts.completions(10_000);
    // The spinning and HyperPlane peak searches are independent: fan them
    // out as a two-point sweep.
    let notifiers = [Notifier::Spinning, Notifier::hyperplane()];
    let peaks = hp_par::par_map(opts.threads, notifiers.to_vec(), |notifier| {
        runs.peak_throughput(&cfg.clone().with_notifier(notifier))
    });
    let (spin, hp) = (&peaks[0], &peaks[1]);

    let mut table = Table::new(
        "Quickstart: packet-encap / sq / 500 queues, peak throughput",
        &["notifier", "tput_mtps", "p99_us"],
    );
    for (notifier, r) in notifiers.iter().zip(&peaks) {
        table.row(vec![
            notifier.label().to_string(),
            r.throughput_mtps().to_string(),
            r.p99_latency_us().to_string(),
        ]);
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\nspeedup: {}  (HyperPlane / spinning peak throughput)",
        hp.throughput_tps / spin.throughput_tps
    )?;
    writeln!(
        out,
        "completions: {}  (HyperPlane peak run)",
        hp.completions
    )?;
    Ok(())
}
