//! Figure 9 — zero-load latency vs queue count (§V-B).
//!
//! (a) The spinning data plane's average and 99 % tail latency grow with
//!     the queue count; (b) HyperPlane's latency is flat, in both regular
//!     and power-optimized (C1, ~0.5 µs wake) modes. Also reports the
//!     small-queue-count crossover where spinning beats power-optimized
//!     HyperPlane (paper: up to ~6 queues on average).

use super::*;
use hp_bench::plot::{AsciiChart, Series};

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let queue_sweep = opts.thin(&[1u32, 2, 4, 8, 16, 64, 250, 500, 1000]);
    let workloads = if opts.quick {
        vec![PacketEncap]
    } else {
        WorkloadKind::ALL.to_vec()
    };

    // All (workload, queues) points fan out together; the three notifier
    // variants of one point stay inside one job (they share nothing).
    let points = grid(&workloads, &queue_sweep);
    let results = hp_par::par_map(opts.threads, points, |(workload, q)| {
        // Arrivals concentrated in one queue; the rest are empty — the
        // zero-load sweep isolates the cost of checking empty queues.
        let cfg = experiment(opts, workload, SingleQueue, q);
        let spin = runs.run_zero_load(&cfg);
        let hp = runs.run_zero_load(&cfg.clone().with_notifier(Notifier::hyperplane()));
        let c1 = runs.run_zero_load(&cfg.clone().with_notifier(Notifier::hyperplane_power_opt()));
        (spin, hp, c1)
    });

    let mut ratios_avg = Vec::new();
    let mut ratios_tail = Vec::new();
    let mut crossovers = Vec::new();
    let mut it = results.iter();

    for workload in &workloads {
        let mut table = Table::new(
            &format!("Fig 9: zero-load latency (us) — {workload}"),
            &[
                "queues",
                "spin_avg",
                "spin_p99",
                "hp_avg",
                "hp_p99",
                "hp_c1_avg",
            ],
        );
        let mut crossover: Option<u32> = None;
        let mut spin_pts = Vec::new();
        let mut hp_pts = Vec::new();
        let mut spin_tail_pts = Vec::new();
        for &q in &queue_sweep {
            let (spin, hp, c1) = it.next().expect("one result per sweep point");
            ratios_avg.push(spin.mean_latency_us() / hp.mean_latency_us());
            ratios_tail.push(spin.p99_latency_us() / hp.p99_latency_us());
            if crossover.is_none() && c1.mean_latency_us() <= spin.mean_latency_us() {
                crossover = Some(q);
            }
            spin_pts.push((q as f64, spin.mean_latency_us()));
            spin_tail_pts.push((q as f64, spin.p99_latency_us()));
            hp_pts.push((q as f64, hp.mean_latency_us()));
            table.row(vec![
                q.to_string(),
                f2(spin.mean_latency_us()),
                f2(spin.p99_latency_us()),
                f2(hp.mean_latency_us()),
                f2(hp.p99_latency_us()),
                f2(c1.mean_latency_us()),
            ]);
        }
        if let Some(q) = crossover {
            crossovers.push(q);
            writeln!(
                out,
                "  -> power-optimized HyperPlane overtakes spinning at ~{q} queues"
            )?;
        }
        write!(out, "{table}")?;
        write!(
            out,
            "{}",
            AsciiChart::new(&format!("zero-load latency vs queues (us) — {workload}"))
                .series(Series::new("spinning avg", spin_pts))
                .series(Series::new("spinning p99", spin_tail_pts))
                .series(Series::new("hyperplane avg", hp_pts))
                .render()
        )?;
    }

    let n = ratios_avg.len() as f64;
    writeln!(
        out,
        "\nAverage latency improvement over spinning across sweep points:"
    )?;
    writeln!(
        out,
        "  avg: {:.1}x (paper: 9.1x)   p99: {:.1}x (paper: 16.4x)",
        ratios_avg.iter().sum::<f64>() / n,
        ratios_tail.iter().sum::<f64>() / n,
    )?;
    if !crossovers.is_empty() {
        let avg = crossovers.iter().map(|&q| q as f64).sum::<f64>() / crossovers.len() as f64;
        writeln!(
            out,
            "  spinning wins below ~{avg:.0} queues vs power-optimized HyperPlane (paper: ~6)"
        )?;
    }
    Ok(())
}
