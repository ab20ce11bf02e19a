//! Figure 8 — peak throughput of the spinning data plane vs HyperPlane,
//! across all six workloads, four traffic shapes, and queue counts (§V-B).

use super::*;

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let queue_sweep = opts.thin(&[1u32, 250, 500, 750, 1000]);
    let shapes = if opts.quick {
        vec![FullyBalanced, SingleQueue]
    } else {
        TrafficShape::ALL.to_vec()
    };
    let workloads = if opts.quick {
        vec![PacketEncap, ErasureCoding]
    } else {
        WorkloadKind::ALL.to_vec()
    };

    // The full grid is one flat point list so `par_map` can keep
    // every worker busy across workload/shape boundaries; rows are grouped
    // back into per-workload tables afterwards (results come back in point
    // order).
    let points = grid(&grid(&workloads, &shapes), &queue_sweep);
    let results = hp_par::par_map(opts.threads, points.clone(), |((workload, shape), q)| {
        let cfg = experiment(opts, workload, shape, q);
        let spin = runs.peak_throughput(&cfg);
        let hp = runs.peak_throughput(&cfg.clone().with_notifier(Notifier::hyperplane()));
        (spin, hp)
    });

    let mut improvements: Vec<f64> = Vec::new();
    let mut it = points.iter().zip(&results).peekable();
    for workload in &workloads {
        let mut table = Table::new(
            &format!("Fig 8: peak throughput (Mtasks/s) — {workload}"),
            &["shape", "queues", "spinning", "hyperplane", "speedup"],
        );
        while let Some((((_, shape), q), (spin, hp))) = it.next_if(|(((w, _), _), _)| w == workload)
        {
            let speedup = hp.throughput_tps / spin.throughput_tps;
            // The paper's 4.1x average is over configurations where
            // queue scalability matters (multi-queue points).
            if *q > 1 {
                improvements.push(speedup);
            }
            table.row(vec![
                shape.label().to_string(),
                q.to_string(),
                f3(spin.throughput_mtps()),
                f3(hp.throughput_mtps()),
                ratio(speedup),
            ]);
        }
        write!(out, "{table}")?;
    }

    let geo = geometric_mean(&improvements);
    let arith = improvements.iter().sum::<f64>() / improvements.len() as f64;
    writeln!(
        out,
        "\nAverage peak-throughput improvement over spinning (multi-queue points):"
    )?;
    writeln!(
        out,
        "  geometric mean: {:.2}x   arithmetic mean: {:.2}x   (paper: 4.1x)",
        geo, arith
    )?;
    Ok(())
}
