//! Figure 3 — the DPDK queue-scalability case study (§II-C).
//!
//! Reproduces, on the simulated substrate with DPDK-class poll overheads:
//! (a) packet-encapsulation throughput vs queue count for FB/PC/NC/SQ;
//! (b) round-trip latency (avg + p99) under light traffic vs queue count;
//! (c) the latency CDF at 1 / 256 / 512 queues.

use super::*;

/// DPDK-class per-poll software overhead (a poll-mode-driver iteration is
/// far heavier than the in-house SDP's tight loop).
const DPDK_POLL_CYCLES: u64 = 100;

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    // (a) Throughput vs queues, four shapes — one sweep point per
    // (queue count, shape) cell, fanned across the worker pool.
    let queue_sweep = opts.thin(&[1u32, 100, 200, 400, 600, 800, 1000]);
    let points = grid(&queue_sweep, &TrafficShape::ALL);
    let peaks = hp_par::par_map(opts.threads, points, |(q, shape)| {
        let mut cfg = experiment(opts, PacketEncap, shape, q);
        cfg.poll_overhead_cycles = DPDK_POLL_CYCLES;
        runs.peak_throughput(&cfg)
    });
    let mut table = Table::new(
        "Fig 3(a): DPDK-class throughput (Mtasks/s), packet encapsulation, 1 core",
        &["queues", "FB", "PC", "NC", "SQ"],
    );
    for (qi, &q) in queue_sweep.iter().enumerate() {
        let mut cells = vec![q.to_string()];
        for si in 0..TrafficShape::ALL.len() {
            cells.push(f3(
                peaks[qi * TrafficShape::ALL.len() + si].throughput_mtps()
            ));
        }
        table.row(cells);
    }
    write!(out, "{table}")?;

    // (b) Light-traffic latency vs queues (~0.01 MPPS offered).
    let lat_sweep = opts.thin(&[1u32, 64, 128, 256, 384, 512]);
    let light = hp_par::par_map(opts.threads, lat_sweep.clone(), |q| {
        let mut cfg = experiment(opts, PacketEncap, SingleQueue, q);
        cfg.poll_overhead_cycles = DPDK_POLL_CYCLES;
        cfg.target_completions = opts.completions(6_000);
        runs.run(cfg.with_load(Load::RatePerSec(10_000.0)))
    });
    let mut table = Table::new(
        "Fig 3(b): round-trip latency under light traffic (~0.01 MPPS)",
        &["queues", "avg_us", "p99_us"],
    );
    let mut cdf_rows: Vec<(u32, Vec<(f64, f64)>)> = Vec::new();
    for (&q, r) in lat_sweep.iter().zip(&light) {
        table.row(vec![
            q.to_string(),
            f2(r.mean_latency_us()),
            f2(r.p99_latency_us()),
        ]);
        if matches!(q, 1 | 256 | 512) {
            cdf_rows.push((q, r.latency_cdf_us()));
        }
    }
    write!(out, "{table}")?;

    // (c) CDF at selected queue counts: report latency at fixed CDF levels.
    let mut table = Table::new(
        "Fig 3(c): latency CDF (us at given percentile)",
        &["percentile", "q=1", "q=256", "q=512"],
    );
    for pct in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
        let mut cells = vec![format!("{pct}%")];
        for (_, cdf) in &cdf_rows {
            let v = cdf
                .iter()
                .find(|&&(_, f)| f >= pct / 100.0)
                .map(|&(us, _)| us)
                .unwrap_or_else(|| cdf.last().map(|&(us, _)| us).unwrap_or(0.0));
            cells.push(f2(v));
        }
        // Pad if quick mode skipped some queue counts.
        while cells.len() < 4 {
            cells.push("-".into());
        }
        table.row(cells);
    }
    write!(out, "{table}")?;

    writeln!(
        out,
        "\nExpected shape (paper): SQ collapses hardest, NC milder, FB/PC flatten;"
    )?;
    writeln!(
        out,
        "latency grows ~linearly with queues; CDF widens with queue count."
    )?;
    Ok(())
}
