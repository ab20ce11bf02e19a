//! Headline-claim check (§I / §VII): HyperPlane improves peak throughput
//! by 4.1x and tail latency by 16.4x, on average, over a spinning SDP
//! across varying queue counts (up to 1000).
//!
//! Runs a representative subset of the Fig. 8 / Fig. 9 sweeps and reports
//! the measured geometric-mean improvements side by side with the paper's.

use super::*;

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let queue_sweep = opts.thin(&[100u32, 500, 1000]);
    let workloads = if opts.quick {
        vec![PacketEncap]
    } else {
        vec![PacketEncap, PacketSteering, RequestDispatch]
    };
    let shapes = [SingleQueue, NonproportionallyConcentrated];

    let points = grid(&grid(&workloads, &shapes), &queue_sweep);
    let results = hp_par::par_map(opts.threads, points.clone(), |((workload, shape), q)| {
        let cfg = experiment(opts, workload, shape, q);
        let hp_cfg = cfg.clone().with_notifier(Notifier::hyperplane());
        let ts = runs.peak_throughput(&cfg).throughput_tps;
        let th = runs.peak_throughput(&hp_cfg).throughput_tps;
        let ls = runs.run_zero_load(&cfg).p99_latency_us();
        let lh = runs.run_zero_load(&hp_cfg).p99_latency_us();
        (th / ts, ls / lh)
    });

    let mut tput = Vec::new();
    let mut tail = Vec::new();
    let mut table = Table::new(
        "Headline sample points",
        &[
            "workload",
            "shape",
            "queues",
            "tput_speedup",
            "p99_improvement",
        ],
    );
    for (((workload, shape), q), &(t, l)) in points.iter().zip(&results) {
        tput.push(t);
        tail.push(l);
        table.row(vec![
            workload.name().into(),
            shape.label().into(),
            q.to_string(),
            ratio(t),
            ratio(l),
        ]);
    }
    write!(out, "{table}")?;

    writeln!(out, "\n=== Headline comparison ===")?;
    writeln!(
        out,
        "peak throughput improvement: measured {:.1}x   (paper: 4.1x)",
        geometric_mean(&tput)
    )?;
    writeln!(
        out,
        "p99 tail latency improvement: measured {:.1}x   (paper: 16.4x)",
        geometric_mean(&tail)
    )?;
    Ok(())
}
