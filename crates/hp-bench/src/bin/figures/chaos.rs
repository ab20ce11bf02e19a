//! Chaos table — notification conservation under correlated faults.
//!
//! The fault sweep (`faults`) measures steady-state degradation under
//! independent per-event coins. This table turns every screw at once and
//! *proves* the end-to-end invariant instead of inferring it:
//!
//! * **Silent evictions** — S/E lines vanish from L1 without a directory
//!   message, so sharer bits go stale and the notification path pays for
//!   them (the protocol-fidelity mode of `hp_mem`).
//! * **A chaos schedule** — a periodic correlated drop/evict burst, a
//!   mid-run storm phase that replaces the base plan, and Algorithm-1
//!   doorbell churn re-homing live queues through the Cuckoo-conflict
//!   path.
//! * **The conservation auditor** — an exactly-once check over every
//!   work item: nothing lost, nothing double-serviced, nothing phantom,
//!   and the auditor's residual view reconciled against the real backlog.
//!
//! For each of the six workloads the table sweeps a chaos intensity knob
//! and emits the degradation surface (throughput, p99, per-fault-class
//! recoveries) and its CSV block. At the harshest intensity it also
//! re-runs each workload with the auditor detached and checks the results
//! are bit-identical — the auditor is a pure observer, not a participant.
//!
//! The verdict is an error if any cell of the surface violates
//! conservation or any auditor-on/off pair diverges.

use super::*;
use hp_sim::chaos::ChaosSchedule;
use hp_sim::faults::FaultPlan;

/// QWAIT re-poll timeout (20 µs at 2 GHz): the recovery backstop the
/// auditor holds to account.
const TIMEOUT_CYCLES: u64 = 40_000;
/// Watchdog period — coarse no-progress detection, never aborting.
const WATCHDOG_CYCLES: u64 = 4_000_000;

/// The full-intensity base plan; the sweep scales it by `intensity`.
fn storm_plan() -> FaultPlan {
    let mut p = FaultPlan::none();
    p.doorbell_drop = 0.4;
    p.doorbell_delay = 0.2;
    p.eviction = 0.01;
    p.spurious = 0.05;
    p
}

/// The chaos schedule at `intensity`: correlated bursts every millisecond,
/// a storm phase mid-run, doorbell churn throughout.
fn schedule(intensity: f64) -> ChaosSchedule {
    ChaosSchedule::none()
        // 250 µs burst per 1 ms period, tripling the in-force plan.
        .with_burst(2_000_000, 500_000, 3.0)
        // Mid-run campaign phase: the storm plan at double intensity
        // replaces the base plan outright for 2 ms.
        .with_phase(
            4_000_000,
            8_000_000,
            storm_plan().scaled((2.0 * intensity).min(1.0)),
        )
        // Re-home one live queue's doorbell every 1.5 ms (Algorithm 1
        // under load).
        .with_churn(3_000_000)
}

fn cell_config(opts: &HarnessOpts, kind: WorkloadKind, intensity: f64) -> ExperimentConfig {
    let mut cfg = experiment(opts, kind, SingleQueue, 16)
        .with_notifier(Notifier::hyperplane())
        .with_silent_evictions()
        .with_audit()
        .with_faults(storm_plan().scaled(intensity))
        .with_chaos(schedule(intensity))
        .with_qwait_timeout(TIMEOUT_CYCLES)
        .with_watchdog(WATCHDOG_CYCLES);
    // Moderate open-loop drive: enough headroom that the surface shows
    // notification-path degradation, not queueing collapse.
    let rate = cfg.capacity_estimate_per_core() * 0.5;
    cfg = cfg.with_load(Load::RatePerSec(rate));
    cfg.target_completions = opts.completions(6_000);
    cfg
}

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let mut failures = Vec::new();

    let intensities = opts.thin(&[0.0f64, 0.25, 0.5, 0.75, 1.0]);
    let mut table = Table::new(
        "Chaos surface: silent evictions + correlated faults + churn (auditor on)",
        &[
            "workload",
            "intensity",
            "tput_mtps",
            "p99_us",
            "timeouts",
            "evict_rec",
            "db_rec",
            "churn",
            "lost",
            "dbl_svc",
            "audit",
        ],
    );

    let cells = grid(&WorkloadKind::ALL, &intensities);
    let results = hp_par::par_map(opts.threads, cells.clone(), |(kind, i)| {
        runs.run(cell_config(opts, kind, i))
    });

    for ((kind, intensity), r) in cells.iter().zip(&results) {
        let f = r.fault_report().expect("chaos run always carries a report");
        let a = r.audit_report().expect("auditor was enabled");
        if !a.ok() {
            failures.push(format!(
                "CONSERVATION VIOLATION: {} @ intensity {intensity}: {a:?}",
                kind.name()
            ));
        }
        table.row(vec![
            kind.name().to_string(),
            f2(*intensity),
            f2(r.throughput_mtps()),
            f2(r.p99_latency_us()),
            f.qwait_timeouts.to_string(),
            f.eviction_recoveries.to_string(),
            f.doorbell_recoveries.to_string(),
            f.churn_reallocations.to_string(),
            a.lost.to_string(),
            a.double_services.to_string(),
            if a.ok() { "ok".into() } else { "FAIL".into() },
        ]);
    }
    write!(out, "{table}")?;

    // Recovery SLO at full intensity, per class, for the last workload.
    if let Some(r) = results.last() {
        if let Some(f) = r.fault_report() {
            writeln!(
                out,
                "\nRecovery SLO at full intensity ({}):",
                cells.last().expect("non-empty sweep").0.name()
            )?;
            for (class, count, p99) in f.recovery_slo() {
                match p99 {
                    Some(p) => writeln!(out, "  {class:>13}: {count} recoveries, p99 {p} cycles")?,
                    None => writeln!(out, "  {class:>13}: {count} recoveries")?,
                }
            }
        }
    }

    // The auditor must be a pure observer: at the harshest intensity,
    // re-run every workload with it detached and demand bit-identity.
    // The auditor-on half is the sweep's own last cell, a memo hit.
    writeln!(
        out,
        "\n== Auditor purity (harshest intensity, auditor on vs off) =="
    )?;
    let harshest = *intensities.last().expect("non-empty sweep");
    let pairs = hp_par::par_map(opts.threads, WorkloadKind::ALL.to_vec(), |kind| {
        let on = runs.run(cell_config(opts, kind, harshest));
        let mut cfg_off = cell_config(opts, kind, harshest);
        cfg_off.audit = false;
        let off = runs.run(cfg_off);
        (on, off)
    });
    for (kind, (on, off)) in WorkloadKind::ALL.iter().zip(&pairs) {
        let same = on.digest() == off.digest();
        if !same {
            failures.push(format!("auditor purity: {} DIVERGED", kind.name()));
        }
        writeln!(
            out,
            "  {:>16}: {}",
            kind.name(),
            if same { "bit-identical" } else { "DIVERGED" }
        )?;
    }

    if !failures.is_empty() {
        failures.push(format!("chaos harness: {} failure(s)", failures.len()));
        return Err(failures.join("\n").into());
    }
    writeln!(
        out,
        "\nConservation held at every cell: with silent evictions, correlated\n\
         bursts, a storm phase, and live doorbell churn, every notification\n\
         was serviced exactly once and the auditor perturbed nothing."
    )?;
    Ok(())
}
