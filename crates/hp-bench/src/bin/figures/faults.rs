//! Fault-injection sweep — graceful degradation under lost doorbells.
//!
//! HyperPlane's wake-ups ride on GetM coherence snoops; the fault plane
//! (`hp_sim::faults`) lets us drop or delay them and watch the QWAIT
//! timeout + recovery sweep keep the data plane live. This table:
//!
//! 1. demonstrates the failure mode — 100 % doorbell drop with the
//!    timeout disabled stalls the data plane (the watchdog reports it);
//! 2. sweeps doorbell-drop rates with the timeout enabled and reports
//!    the graceful-degradation curve: throughput holds, mean latency
//!    rises smoothly with the recovery work.

use super::*;
use hp_sim::faults::FaultPlan;

/// QWAIT re-poll timeout for the resilient runs (20 µs at 2 GHz —
/// comfortably above the device's own notification latency, far below
/// the watchdog horizon).
const TIMEOUT_CYCLES: u64 = 40_000;

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let base = |queues: u32| {
        let mut cfg = experiment(opts, PacketEncap, SingleQueue, queues)
            .with_notifier(Notifier::hyperplane());
        // Moderate open-loop drive: headroom for recovery work, so the
        // sweep isolates the notification fault cost (not queueing
        // collapse at saturation).
        let rate = cfg.capacity_estimate_per_core() * 0.5;
        cfg = cfg.with_load(Load::RatePerSec(rate));
        cfg.target_completions = opts.completions(8_000);
        cfg
    };

    // --- Part 1: the failure mode the resilience machinery exists for.
    let mut stall_cfg = base(16)
        .with_faults(FaultPlan {
            doorbell_drop: 1.0,
            ..FaultPlan::none()
        })
        .with_watchdog(1_000_000);
    stall_cfg.watchdog_abort = true;
    stall_cfg.max_cycles = 400_000_000;
    let stalled = runs.run(stall_cfg);
    let report = stalled
        .fault_report()
        .expect("faulty run always carries a report");
    writeln!(
        out,
        "== Missed-wakeup stall (drop=1.0, QWAIT timeout disabled) =="
    )?;
    writeln!(
        out,
        "  watchdog: stalled={} first_stall={:?} completions={}",
        report.stalled(),
        report.first_stall.map(|t| t.0),
        stalled.completions,
    )?;

    // --- Part 2: graceful degradation with the timeout enabled.
    let drops = opts.thin(&[0.0f64, 0.1, 0.25, 0.5, 0.75, 0.9]);
    let mut table = Table::new(
        "Fault sweep: doorbell drop rate vs delivered service (QWAIT timeout on)",
        &[
            "drop",
            "tput_mtps",
            "mean_us",
            "p99_us",
            "timeouts",
            "recoveries",
            "rec_mean_us",
        ],
    );
    let results = hp_par::par_map(opts.threads, drops.clone(), |drop| {
        let mut plan = FaultPlan::none();
        plan.doorbell_drop = drop;
        let cfg = base(16)
            .with_faults(plan)
            .with_qwait_timeout(TIMEOUT_CYCLES)
            .with_watchdog(4_000_000);
        runs.run(cfg)
    });
    let cycles_per_us = base(16).machine.clock.ghz() * 1000.0;
    for (&drop, r) in drops.iter().zip(&results) {
        let (timeouts, recoveries, rec_mean_us) = match r.fault_report() {
            Some(f) => (
                f.qwait_timeouts,
                f.recoveries,
                f.recovery_latency_cycles.mean() / cycles_per_us,
            ),
            None => (0, 0, 0.0),
        };
        table.row(vec![
            f2(drop),
            f2(r.throughput_mtps()),
            f2(r.mean_latency_us()),
            f2(r.p99_latency_us()),
            timeouts.to_string(),
            recoveries.to_string(),
            f2(rec_mean_us),
        ]);
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\nWith the QWAIT timeout armed the data plane survives every drop rate;\n\
         latency degrades with the re-poll interval instead of deadlocking."
    )?;
    Ok(())
}
