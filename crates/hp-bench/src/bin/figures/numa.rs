//! NUMA work stealing (the paper's §III-B future-work proposal,
//! implemented): two 2-core sockets, each with its own HyperPlane device
//! over its queue partition; under skewed traffic the idle socket's cores
//! fetch ready QIDs from the loaded socket's ready set, paying an
//! inter-socket penalty per stolen operation.

use super::*;

fn cfg(opts: &HarnessOpts, shape: TrafficShape, steal: bool) -> ExperimentConfig {
    let mut cfg = experiment(opts, CryptoForward, shape, 64)
        .with_cores(4, 2) // two sockets of two cores
        .with_notifier(Notifier::hyperplane());
    cfg.work_stealing = steal;
    cfg.target_completions = opts.completions(12_000);
    cfg
}

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let shapes = [
        SingleQueue, // extreme skew: all load on socket 0
        ProportionallyConcentrated,
        FullyBalanced,
    ];

    // Common load reference per shape so latency cells are comparable.
    let refs = hp_par::par_map(opts.threads, shapes.to_vec(), |shape| {
        runs.peak_throughput(&cfg(opts, shape, true)).throughput_tps
    });

    let shape_refs: Vec<_> = shapes.into_iter().zip(refs).collect();
    let points = grid(&shape_refs, &[false, true]);
    let results = hp_par::par_map(opts.threads, points.clone(), |((shape, ref_tps), steal)| {
        let c = cfg(opts, shape, steal);
        let sat = runs.peak_throughput(&c);
        let loaded = runs.run_at_load(&c, ref_tps, 0.6);
        (sat, loaded)
    });

    let mut table = Table::new(
        "NUMA work stealing: 2 sockets x 2 cores, crypto forwarding",
        &[
            "traffic",
            "stealing",
            "Mtasks/s",
            "p99_us@60%",
            "busy_cores",
        ],
    );
    for (((shape, _), steal), (sat, loaded)) in points.iter().zip(&results) {
        let busy = sat.per_core.iter().filter(|t| t.completions > 50).count();
        table.row(vec![
            shape.label().to_string(),
            if *steal { "yes" } else { "no" }.to_string(),
            f3(sat.throughput_mtps()),
            f2(loaded.p99_latency_us()),
            busy.to_string(),
        ]);
    }
    write!(out, "{table}")?;

    writeln!(
        out,
        "\nExpected shape: under SQ/PC skew, stealing activates the idle socket's"
    )?;
    writeln!(
        out,
        "cores and recovers throughput; under FB it changes little (already balanced)."
    )?;
    Ok(())
}
