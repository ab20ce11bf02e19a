//! Figure 11 — work proportionality (§V-D).
//!
//! (a) IPC of a packet-encapsulation data-plane core vs load, split into
//!     useful work and useless spinning for the spinning baseline, against
//!     HyperPlane's load-proportional IPC.
//! (b) IPC of an SMT co-runner (matrix multiply) sharing the core with the
//!     data plane, vs load.

use super::*;
use hp_sdp::telemetry::SmtCoRunner;

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let loads = opts.thin(&[0.02, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 0.95]);

    let base = {
        let mut cfg = experiment(opts, PacketEncap, FullyBalanced, 100);
        cfg.target_completions = opts.completions(10_000);
        cfg
    };
    // 100% load = the spinning data plane's own saturation (the paper's
    // x-axis is load on the data plane). Probe concurrently: the outer
    // sweep has nothing to run yet.
    let spin_peak = runs
        .peak_throughput_with(&base, opts.threads)
        .throughput_tps;
    let smt = SmtCoRunner::default();

    // Each load level runs the spinning and HyperPlane experiments in one
    // job; the load ladder itself fans across the pool.
    let results = hp_par::par_map(opts.threads, loads.clone(), |load| {
        let spin = runs.run_at_load(&base, spin_peak, load);
        let hp = runs.run_at_load(
            &base.clone().with_notifier(Notifier::hyperplane()),
            spin_peak,
            load,
        );
        (spin, hp)
    });

    let mut table = Table::new(
        "Fig 11(a): IPC breakdown vs load — packet encapsulation, 1 core",
        &[
            "load%",
            "spin_useful",
            "spin_spin",
            "spin_total",
            "hp_total",
        ],
    );
    let mut co_table = Table::new(
        "Fig 11(b): SMT co-runner IPC vs data-plane load",
        &["load%", "with_spinning", "with_hyperplane"],
    );

    for (&load, (spin, hp)) in loads.iter().zip(&results) {
        let st = spin.aggregate_telemetry();
        let ht = hp.aggregate_telemetry();
        table.row(vec![
            format!("{:.1}", load * 100.0),
            f3(st.useful_ipc()),
            f3(st.spin_ipc()),
            f3(st.ipc()),
            f3(ht.ipc()),
        ]);
        co_table.row(vec![
            format!("{:.1}", load * 100.0),
            f2(spin.co_runner_ipc(&smt)),
            f2(hp.co_runner_ipc(&smt)),
        ]);
    }
    write!(out, "{table}")?;
    write!(out, "{co_table}")?;

    writeln!(
        out,
        "\nExpected shape (paper): spinning IPC is highest at 0% load (all useless)"
    )?;
    writeln!(
        out,
        "and decreases with load; HyperPlane IPC grows ~linearly with load."
    )?;
    writeln!(
        out,
        "Co-runner IPC rises with load under spinning, falls under HyperPlane."
    )?;
    Ok(())
}
