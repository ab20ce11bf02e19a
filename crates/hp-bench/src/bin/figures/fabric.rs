//! Parallel-fabric determinism: one four-lane experiment (packet
//! encapsulation, fully balanced, 64 queues, HyperPlane, four one-core
//! sharing groups) run at 1, 2 and 4 intra-run workers.
//!
//! Every lane generates only its own groups' stimulus (keyed RNG
//! streams, DESIGN.md §18), so total kernel events are
//! worker-count-invariant, and the lookahead window schedule is part of
//! the experiment definition, so the rendezvous count is too. The verdict
//! is an error unless the digests are identical at every worker count,
//! the 4-lane kernel events stay within 1.1x of serial, and the rounds are
//! equal at every worker count and no more than the schedule took when it
//! became the only one. perfbench's `par-fb64-4lane` workload is the
//! fabric's host-speed record.

use super::*;

const WORKERS: [usize; 3] = [1, 2, 4];

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let mut cfg = ExperimentConfig::new(PacketEncap, FullyBalanced, 64)
        .with_cores(4, 1)
        .with_notifier(Notifier::hyperplane());
    cfg.target_completions = opts.completions(30_000);
    let results = hp_par::par_map(opts.threads, WORKERS.to_vec(), |workers| {
        runs.run(cfg.clone().with_par_workers(workers))
    });
    let events = |r: &hp_sdp::result::ExperimentResult| {
        r.kernel_profile().expect("profiling is on").total_events()
    };
    let serial = &results[0];
    let identical = results.iter().all(|r| r.digest() == serial.digest());
    let event_ratio = events(&results[2]) as f64 / events(serial) as f64;
    let rounds = serial.sync_rounds();
    let rounds_invariant = results.iter().all(|r| r.sync_rounds() == rounds);
    // Rendezvous rounds the lookahead schedule takes on this config
    // (quick / full); more means the schedule regressed.
    let max_rounds = if opts.quick { 7 } else { 30 };

    let mut table = Table::new(
        "Parallel fabric: packet-encap / fb / 64 queues / hyperplane, 4 lanes",
        &["workers", "kernel_ev", "rounds", "digest_eq"],
    );
    for (workers, r) in WORKERS.iter().zip(&results) {
        table.row(vec![
            workers.to_string(),
            events(r).to_string(),
            r.sync_rounds().to_string(),
            (r.digest() == serial.digest()).to_string(),
        ]);
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\nkernel events at 4 lanes vs serial: {event_ratio:.3}x"
    )?;

    if !identical {
        return Err("parallel engine digests diverged across worker counts".into());
    }
    if event_ratio > 1.1 {
        return Err(format!(
            "lane stimulus generation regressed: 4-lane kernel events {event_ratio:.3}x serial"
        )
        .into());
    }
    if !rounds_invariant {
        return Err("rendezvous rounds differ across worker counts".into());
    }
    if rounds > max_rounds {
        return Err(format!(
            "lookahead windows regressed: {rounds} rendezvous rounds > {max_rounds}"
        )
        .into());
    }
    Ok(())
}
