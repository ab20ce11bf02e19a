//! Figure 10 — multicore tail latency vs load (§V-C).
//!
//! Packet encapsulation, 4 DP cores, 400 queues. (a) Fully balanced
//! traffic: scale-out / scale-up-2 / scale-up-4 for both spinning and
//! HyperPlane. (b) Proportionally concentrated traffic: scale-out with 0 %
//! and 10 % static imbalance vs scale-up-2.

use hp_bench::{experiment, f2, HarnessOpts, Table};
use hp_sdp::config::{ExperimentConfig, Notifier};
use hp_sdp::runner;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

const QUEUES: u32 = 400;
const CORES: usize = 4;

fn multicore(
    opts: &HarnessOpts,
    shape: TrafficShape,
    notifier: Notifier,
    cluster: usize,
    imbalance: f64,
) -> ExperimentConfig {
    let mut cfg = experiment(opts, WorkloadKind::PacketEncap, shape, QUEUES)
        .with_cores(CORES, cluster)
        .with_notifier(notifier);
    cfg.imbalance = imbalance;
    cfg.target_completions = opts.completions(16_000);
    cfg
}

fn main() {
    let opts = HarnessOpts::from_args();
    let loads = opts.thin(&[0.2, 0.35, 0.5, 0.65, 0.8, 0.9]);

    // Reference rates for "100% load": the best configuration's saturation
    // (scale-up-4 HyperPlane) per shape, so all curves share an x-axis.
    // Both reference peaks are independent — one two-point sweep.
    let refs = hp_par::par_map(
        opts.threads,
        vec![
            TrafficShape::FullyBalanced,
            TrafficShape::ProportionallyConcentrated,
        ],
        |shape| {
            runner::peak_throughput(&multicore(&opts, shape, Notifier::hyperplane(), 4, 0.0))
                .throughput_tps
        },
    );
    let (ref_tps, pc_ref) = (refs[0], refs[1]);
    println!(
        "Reference saturation (HyperPlane scale-up-4, FB): {:.3} Mtasks/s",
        ref_tps / 1e6
    );

    // (a) FB: 6 curves, fanned as one (load × config) grid.
    let fb_configs: Vec<(Notifier, usize)> = vec![
        (Notifier::Spinning, 1),
        (Notifier::Spinning, 2),
        (Notifier::Spinning, 4),
        (Notifier::hyperplane(), 1),
        (Notifier::hyperplane(), 2),
        (Notifier::hyperplane(), 4),
    ];
    let mut fb_points = Vec::new();
    for &load in &loads {
        for &(notifier, cluster) in &fb_configs {
            fb_points.push((load, notifier, cluster));
        }
    }
    let fb_results = hp_par::par_map(opts.threads, fb_points, |(load, notifier, cluster)| {
        let cfg = multicore(&opts, TrafficShape::FullyBalanced, notifier, cluster, 0.0);
        runner::run_at_load(&cfg, ref_tps, load).p99_latency_us()
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
    table.print();

    // (b) PC: scale-out (0%, 10% imbalance) and scale-up-2, both systems.
    let pc_configs: Vec<(Notifier, usize, f64)> = vec![
        (Notifier::Spinning, 1, 0.0),
        (Notifier::Spinning, 1, 0.10),
        (Notifier::Spinning, 2, 0.0),
        (Notifier::hyperplane(), 1, 0.0),
        (Notifier::hyperplane(), 1, 0.10),
        (Notifier::hyperplane(), 2, 0.0),
    ];
    let mut pc_points = Vec::new();
    for &load in &loads {
        for &(notifier, cluster, imb) in &pc_configs {
            pc_points.push((load, notifier, cluster, imb));
        }
    }
    let pc_results = hp_par::par_map(opts.threads, pc_points, |(load, notifier, cluster, imb)| {
        let cfg = multicore(
            &opts,
            TrafficShape::ProportionallyConcentrated,
            notifier,
            cluster,
            imb,
        );
        runner::run_at_load(&cfg, pc_ref, load).p99_latency_us()
    });
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
    table.print();

    // Saturation-throughput comparison the paper's §V-C text calls out.
    let aux_configs: Vec<(TrafficShape, &str, Notifier, usize, f64)> = vec![
        (
            TrafficShape::ProportionallyConcentrated,
            "spin scale-out imb10",
            Notifier::Spinning,
            1,
            0.10,
        ),
        (
            TrafficShape::ProportionallyConcentrated,
            "spin scale-up-2",
            Notifier::Spinning,
            2,
            0.0,
        ),
        (
            TrafficShape::ProportionallyConcentrated,
            "hp scale-out imb10",
            Notifier::hyperplane(),
            1,
            0.10,
        ),
        (
            TrafficShape::ProportionallyConcentrated,
            "hp scale-up-2",
            Notifier::hyperplane(),
            2,
            0.0,
        ),
        (
            TrafficShape::FullyBalanced,
            "spin scale-out",
            Notifier::Spinning,
            1,
            0.0,
        ),
        (
            TrafficShape::FullyBalanced,
            "hp scale-up-4",
            Notifier::hyperplane(),
            4,
            0.0,
        ),
    ];
    let aux_results = hp_par::par_map(
        opts.threads,
        aux_configs.clone(),
        |(shape, _, notifier, cluster, imb)| {
            runner::peak_throughput(&multicore(&opts, shape, notifier, cluster, imb))
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
    table.print();

    println!("\nExpected shape (paper): HyperPlane scale-up dominates; spinning scale-up");
    println!("collapses from synchronization; 10% imbalance hurts scale-out but not scale-up.");
}
