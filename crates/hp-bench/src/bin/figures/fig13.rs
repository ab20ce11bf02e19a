//! Figure 13 — software vs hardware ready set (§V-E).
//!
//! Peak throughput of one HyperPlane core monitoring 1000 queues with the
//! ready set implemented in software (QWAIT iterates the ready list) vs
//! the PPA hardware, for all six workloads under PC and FB traffic.

use super::*;

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let queues = 1000;
    let workloads = if opts.quick {
        vec![PacketEncap, RequestDispatch]
    } else {
        WorkloadKind::ALL.to_vec()
    };

    let shapes = [ProportionallyConcentrated, FullyBalanced];
    let points = grid(&workloads, &shapes);
    let results = hp_par::par_map(opts.threads, points.clone(), |(workload, shape)| {
        let cfg = experiment(opts, workload, shape, queues);
        let hw = runs.peak_throughput(&cfg.clone().with_notifier(Notifier::hyperplane()));
        let sw = runs.peak_throughput(&cfg.clone().with_notifier(Notifier::HyperPlane {
            power_optimized: false,
            software_ready_set: true,
        }));
        (hw, sw)
    });

    let mut table = Table::new(
        "Fig 13: software ready set throughput relative to hardware (%), 1000 queues",
        &["workload", "shape", "hw_Mtps", "sw_Mtps", "sw_relative_%"],
    );
    let mut fb_rel = Vec::new();
    let mut pc_rel = Vec::new();
    for ((workload, shape), (hw, sw)) in points.iter().zip(&results) {
        let rel = sw.throughput_tps / hw.throughput_tps * 100.0;
        match shape {
            FullyBalanced => fb_rel.push(rel),
            _ => pc_rel.push(rel),
        }
        table.row(vec![
            workload.name().to_string(),
            shape.label().to_string(),
            f3(hw.throughput_mtps()),
            f3(sw.throughput_mtps()),
            format!("{rel:.1}"),
        ]);
    }
    write!(out, "{table}")?;

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    writeln!(out, "\nAverage software-ready-set relative throughput:")?;
    writeln!(out, "  PC: {:.1}%   FB: {:.1}%", avg(&pc_rel), avg(&fb_rel))?;
    writeln!(
        out,
        "Expected shape (paper): software is considerably slower; the FB drop is"
    )?;
    writeln!(
        out,
        "more severe (down to ~50%) because the iterator scans a larger ready set."
    )?;
    Ok(())
}
