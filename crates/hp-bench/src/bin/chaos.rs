//! Chaos harness — notification conservation under correlated faults.
//!
//! The fault sweep (`faults.rs`) measures steady-state degradation under
//! independent per-event coins. This binary turns every screw at once and
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
//! For each of the six workload kernels the harness sweeps a chaos
//! intensity knob and emits the degradation surface (throughput, p99,
//! per-fault-class recoveries) as a table and its CSV block. At the
//! harshest intensity it also re-runs each kernel with the auditor
//! detached and checks the results are bit-identical — the auditor is a
//! pure observer, not a participant.
//!
//! Exit status is non-zero if any cell of the surface violates
//! conservation or any auditor-on/off pair diverges.
//!
//! Flags: `--quick` (thin the sweep), `--threads N`, `--par-workers N`.

use hp_bench::{experiment, f2, HarnessOpts, Table};
use hp_sdp::config::{ExperimentConfig, Load, Notifier};
use hp_sdp::runner;
use hp_sim::chaos::ChaosSchedule;
use hp_sim::faults::FaultPlan;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

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
    let mut cfg = experiment(opts, kind, TrafficShape::SingleQueue, 16)
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

fn main() {
    let opts = HarnessOpts::from_args();
    let mut failures = 0u32;

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

    let cells: Vec<(WorkloadKind, f64)> = WorkloadKind::ALL
        .iter()
        .flat_map(|&k| intensities.iter().map(move |&i| (k, i)))
        .collect();
    let results = hp_par::par_map(opts.threads, cells.clone(), |(kind, i)| {
        runner::run(cell_config(&opts, kind, i))
    });

    for ((kind, intensity), r) in cells.iter().zip(&results) {
        let f = r.fault_report().expect("chaos run always carries a report");
        let a = r.audit_report().expect("auditor was enabled");
        if !a.ok() {
            failures += 1;
            eprintln!(
                "CONSERVATION VIOLATION: {} @ intensity {intensity}: {a:?}",
                kind.name()
            );
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
    print!("{table}");

    // Recovery SLO at full intensity, per class, for the first kernel.
    if let Some(r) = results.last() {
        if let Some(f) = r.fault_report() {
            println!(
                "\nRecovery SLO at full intensity ({}):",
                cells.last().unwrap().0.name()
            );
            for (class, count, p99) in f.recovery_slo() {
                match p99 {
                    Some(p) => println!("  {class:>13}: {count} recoveries, p99 {p} cycles"),
                    None => println!("  {class:>13}: {count} recoveries"),
                }
            }
        }
    }

    // The auditor must be a pure observer: at the harshest intensity,
    // re-run every kernel with it detached and demand bit-identity.
    println!("\n== Auditor purity (harshest intensity, auditor on vs off) ==");
    let harshest = *intensities.last().expect("non-empty sweep");
    let pairs = hp_par::par_map(opts.threads, WorkloadKind::ALL.to_vec(), |kind| {
        let on = runner::run(cell_config(&opts, kind, harshest));
        let mut cfg_off = cell_config(&opts, kind, harshest);
        cfg_off.audit = false;
        let off = runner::run(cfg_off);
        (on, off)
    });
    for (kind, (on, off)) in WorkloadKind::ALL.iter().zip(&pairs) {
        let same = on.digest() == off.digest();
        if !same {
            failures += 1;
        }
        println!(
            "  {:>16}: {}",
            kind.name(),
            if same { "bit-identical" } else { "DIVERGED" }
        );
    }

    if failures > 0 {
        eprintln!("\nchaos harness: {failures} failure(s)");
        std::process::exit(1);
    }
    println!(
        "\nConservation held at every cell: with silent evictions, correlated\n\
         bursts, a storm phase, and live doorbell churn, every notification\n\
         was serviced exactly once and the auditor perturbed nothing."
    );
}
