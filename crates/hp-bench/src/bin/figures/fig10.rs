//! Figure 10 — multicore tail latency vs load (§V-C).
//!
//! Packet encapsulation, 4 DP cores, 400 queues. (a) Fully balanced
//! traffic: scale-out / scale-up-2 / scale-up-4 for both spinning and
//! HyperPlane. (b) Proportionally concentrated traffic: scale-out with 0 %
//! and 10 % static imbalance vs scale-up-2.

use super::*;

const QUEUES: u32 = 400;
const CORES: usize = 4;

fn multicore(
    opts: &HarnessOpts,
    shape: TrafficShape,
    notifier: Notifier,
    cluster: usize,
    imbalance: f64,
) -> ExperimentConfig {
    let mut cfg = experiment(opts, PacketEncap, shape, QUEUES)
        .with_cores(CORES, cluster)
        .with_notifier(notifier);
    cfg.imbalance = imbalance;
    cfg.target_completions = opts.completions(16_000);
    cfg
}

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let loads = opts.thin(&[0.2, 0.35, 0.5, 0.65, 0.8, 0.9]);
    let (fb, pc) = (FullyBalanced, ProportionallyConcentrated);
    let (spin, hp) = (Notifier::Spinning, Notifier::hyperplane());

    // Reference rates for "100% load": the best configuration's saturation
    // (scale-up-4 HyperPlane) per shape, so all curves share an x-axis.
    // Both reference peaks are independent — one two-point sweep.
    let refs = hp_par::par_map(opts.threads, vec![fb, pc], |shape| {
        runs.peak_throughput(&multicore(opts, shape, hp, 4, 0.0))
            .throughput_tps
    });
    let (ref_tps, pc_ref) = (refs[0], refs[1]);
    writeln!(
        out,
        "Reference saturation (HyperPlane scale-up-4, FB): {:.3} Mtasks/s",
        ref_tps / 1e6
    )?;

    // (a) FB: 6 curves, fanned as one (load × config) grid.
    let fb_configs = [(spin, 1), (spin, 2), (spin, 4), (hp, 1), (hp, 2), (hp, 4)];
    let fb_points = grid(&loads, &fb_configs);
    let fb_results = hp_par::par_map(opts.threads, fb_points, |(load, (notifier, cluster))| {
        let cfg = multicore(opts, fb, notifier, cluster, 0.0);
        runs.run_at_load(&cfg, ref_tps, load).p99_latency_us()
    });
    let mut table = Table::new(
        "Fig 10(a): p99 latency (us) vs load — fully balanced, 4 cores, 400 queues",
        &[
            "load%", "spin_so", "spin_su2", "spin_su4", "hp_so", "hp_su2", "hp_su4",
        ],
    );
    for (li, &load) in loads.iter().enumerate() {
        let mut cells = vec![format!("{:.0}", load * 100.0)];
        for ci in 0..fb_configs.len() {
            cells.push(f2(fb_results[li * fb_configs.len() + ci]));
        }
        table.row(cells);
    }
    write!(out, "{table}")?;

    // (b) PC: scale-out (0%, 10% imbalance) and scale-up-2, both systems.
    let pc_configs = [
        (spin, 1, 0.0),
        (spin, 1, 0.10),
        (spin, 2, 0.0),
        (hp, 1, 0.0),
        (hp, 1, 0.10),
        (hp, 2, 0.0),
    ];
    let pc_points = grid(&loads, &pc_configs);
    let pc_results = hp_par::par_map(
        opts.threads,
        pc_points,
        |(load, (notifier, cluster, imb))| {
            let cfg = multicore(opts, pc, notifier, cluster, imb);
            runs.run_at_load(&cfg, pc_ref, load).p99_latency_us()
        },
    );
    let mut table = Table::new(
        "Fig 10(b): p99 latency (us) vs load — proportionally concentrated",
        &[
            "load%",
            "spin_so",
            "spin_so_imb10",
            "spin_su2",
            "hp_so",
            "hp_so_imb10",
            "hp_su2",
        ],
    );
    for (li, &load) in loads.iter().enumerate() {
        let mut cells = vec![format!("{:.0}", load * 100.0)];
        for ci in 0..pc_configs.len() {
            cells.push(f2(pc_results[li * pc_configs.len() + ci]));
        }
        table.row(cells);
    }
    write!(out, "{table}")?;

    // Saturation-throughput comparison the paper's §V-C text calls out.
    let aux_configs = vec![
        (pc, "spin scale-out imb10", spin, 1, 0.10),
        (pc, "spin scale-up-2", spin, 2, 0.0),
        (pc, "hp scale-out imb10", hp, 1, 0.10),
        (pc, "hp scale-up-2", hp, 2, 0.0),
        (fb, "spin scale-out", spin, 1, 0.0),
        (fb, "hp scale-up-4", hp, 4, 0.0),
    ];
    let aux_results = hp_par::par_map(
        opts.threads,
        aux_configs.clone(),
        |(shape, _, notifier, cluster, imb)| {
            runs.peak_throughput(&multicore(opts, shape, notifier, cluster, imb))
        },
    );
    let mut table = Table::new(
        "Fig 10 aux: saturation throughput (Mtasks/s) per organization",
        &["shape", "config", "Mtasks/s"],
    );
    for ((shape, label, ..), r) in aux_configs.iter().zip(&aux_results) {
        table.row(vec![
            shape.label().into(),
            (*label).into(),
            f2(r.throughput_mtps()),
        ]);
    }
    write!(out, "{table}")?;

    writeln!(
        out,
        "\nExpected shape (paper): HyperPlane scale-up dominates; spinning scale-up"
    )?;
    writeln!(
        out,
        "collapses from synchronization; 10% imbalance hurts scale-out but not scale-up."
    )?;
    Ok(())
}
