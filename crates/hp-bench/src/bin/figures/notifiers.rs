//! The paper's Fig. 1 motivation, quantified: kernel interrupts vs
//! user-level spin-polling vs HyperPlane, across queue counts.
//!
//! Interrupts (Fig. 1a) are queue-scalable but pay the kernel path on
//! every wake; spinning (Fig. 1b/c) reacts fast at small queue counts but
//! collapses as queues grow; HyperPlane gets both properties.

use super::*;

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let queue_sweep = opts.thin(&[1u32, 64, 250, 1000]);
    let notifiers = [
        ("interrupt", Notifier::Interrupt),
        ("spinning", Notifier::Spinning),
        ("hyperplane", Notifier::hyperplane()),
    ];

    let points = grid(&queue_sweep, &notifiers.map(|(_, notifier)| notifier));
    let results = hp_par::par_map(opts.threads, points, |(q, notifier)| {
        let cfg = experiment(opts, PacketEncap, SingleQueue, q).with_notifier(notifier);
        (
            runs.peak_throughput(&cfg).throughput_mtps(),
            runs.run_zero_load(&cfg).mean_latency_us(),
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
    write!(out, "{tput}")?;
    write!(out, "{lat}")?;

    writeln!(
        out,
        "\nExpected shape (paper §I/II): interrupts scale with queue count but"
    )?;
    writeln!(
        out,
        "carry the kernel cost on every wake (highest zero-load latency);"
    )?;
    writeln!(
        out,
        "spinning is fast at 1 queue but collapses with many; HyperPlane"
    )?;
    writeln!(
        out,
        "combines interrupt-like scalability with sub-spinning latency."
    )?;
    Ok(())
}
