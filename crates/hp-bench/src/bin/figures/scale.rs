//! Scale-out table — a multi-tenant flash crowd over up to a million
//! queues.
//!
//! The paper sizes HyperPlane for 1024 queues; this table drives the
//! million-queue scale-out path end to end: the hierarchical ready set
//! (summary pyramid over leaf bitmaps, DESIGN.md §17), the hashed-bank
//! sharded monitoring set, and the `HyperPlaneConfig::scaled` derivation
//! that sizes both from the queue count.
//!
//! The scenario is a multi-tenant flash crowd: the nonproportionally
//! concentrated shape keeps a fixed 100-queue hot set (the crowd) while
//! the cold tail — everything else, up to ~1M tenants — soaks up the
//! alias-sampled remainder, and a chaos schedule re-homes live doorbells
//! throughout (Algorithm-1 churn against the sharded set). Because the
//! hot set is fixed, per-queue hot load is equivalent across universe
//! sizes, so the sweep isolates what scale itself costs.
//!
//! Every column is deterministic: simulated cycles per event and per
//! completion, the host bytes each queue's structures reserve
//! (`ExperimentResult::queue_state_bytes` per queue), the device counters
//! (insert conflicts, relocation walks, snoop filter hits, QID→doorbell
//! map spill resizes) so shard sizing regressions are attributable, and a
//! digest of the run and its per-kernel cycles. Host speed is perfbench's
//! `flash-1m` workload (`bench/README.md`), this scenario at 2^20 queues.
//!
//! The verdict is an error if any point breaks conservation (the auditor
//! rides along at every point) or spill-resizes the monitoring set, or if
//! the largest point's per-event cost or bytes per queue exceeds 1.5x the
//! 1024-queue baseline's.

use super::*;
use hp_sdp::result::ExperimentResult;
use hp_sim::chaos::ChaosSchedule;

/// Re-home one live doorbell every 100 µs (2 GHz cycles) — steady churn
/// pressure on the sharded monitoring set without dominating the run.
const CHURN_PERIOD: u64 = 200_000;

/// Per-event slowdown budget for the largest point vs the 1024-queue
/// baseline.
const MAX_PER_EVENT_RATIO: f64 = 1.5;

/// Per-queue host-bytes budget for the largest point vs the 1024-queue
/// baseline: host memory must stay linear in the queue count.
const MAX_BYTES_PER_QUEUE_RATIO: f64 = 1.5;

fn cell_config(opts: &HarnessOpts, queues: u32) -> ExperimentConfig {
    let mut cfg = experiment(opts, PacketEncap, NonproportionallyConcentrated, queues)
        .with_notifier(Notifier::hyperplane())
        .with_audit()
        .with_chaos(ChaosSchedule::none().with_churn(CHURN_PERIOD));
    // Uniform provisioning across the curve: every point gets the same
    // 12.5 % monitoring-set slack that `HyperPlaneConfig::scaled` applies
    // above the 1024-QID ceiling. Table 1 sizes the set at exactly 1024
    // entries — full occupancy for a single-group 1024-queue run, where
    // Cuckoo insertion cannot terminate — so the baseline point borrows
    // the scale-out slack rule; occupancy, not table pressure, is then
    // constant across universe sizes and the curve isolates structure
    // cost.
    let q = queues as usize;
    cfg.hp.monitoring_entries = q + q / 8;
    cfg.hp.ready_qids = cfg.hp.ready_qids.max(q);
    // Fixed fraction of estimated capacity: the flash crowd saturates
    // neither cores nor queues, so the curve measures structure cost,
    // not queueing collapse.
    let rate = cfg.capacity_estimate_per_core() * 0.6;
    cfg = cfg.with_load(Load::RatePerSec(rate));
    cfg.target_completions = opts.completions(6_000);
    cfg
}

/// FNV-1a over the little-endian bytes of the run digest and the
/// per-kernel profile cycles: every scale run is one lane, so its cycles
/// are as deterministic as its counts.
fn digest(r: &ExperimentResult) -> u64 {
    let mut words = r.digest();
    if let Some(p) = r.kernel_profile() {
        words.extend(p.rows().into_iter().map(|(_, _, cycles)| cycles));
    }
    let bytes = words.iter().flat_map(|w| w.to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Simulated cycles per processed event — the deterministic cost metric.
fn cycles_per_event(r: &ExperimentResult) -> f64 {
    let events = r
        .kernel_profile()
        .map(|p| p.total_events())
        .unwrap_or_default();
    if events == 0 {
        return 0.0;
    }
    r.end.since_start().count() as f64 / events as f64
}

/// Host bytes the per-queue structures reserve, per queue.
fn bytes_per_queue(r: &ExperimentResult, queues: u32) -> f64 {
    r.queue_state_bytes() as f64 / f64::from(queues)
}

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let sweep: &[u32] = if opts.quick {
        &[1_024, 65_536, 262_144, 1_048_576]
    } else {
        &[1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576]
    };
    let mut failures = Vec::new();
    let mut table = Table::new(
        "Flash-crowd scale-out: queues vs simulated cost",
        &[
            "queues",
            "banks",
            "cyc_per_ev",
            "cyc_per_compl",
            "bytes_per_q",
            "p99_us",
            "churn",
            "conflicts",
            "reloc",
            "filtered",
            "spills",
            "audit",
            "digest",
        ],
    );

    let results = hp_par::par_map(opts.threads, sweep.to_vec(), |q| {
        runs.run(cell_config(opts, q))
    });

    for (&q, r) in sweep.iter().zip(&results) {
        let a = r.audit_report().expect("auditor was enabled");
        if !a.ok() {
            failures.push(format!("CONSERVATION VIOLATION at {q} queues: {a:?}"));
        }
        let dev = r
            .device_stats()
            .expect("HyperPlane runs carry device stats");
        if dev.monitoring.spill_resizes != 0 {
            failures.push(format!(
                "SPILL RESIZE at {q} queues: the QID->doorbell map was not pre-sized ({} growths)",
                dev.monitoring.spill_resizes
            ));
        }
        let churn = r
            .fault_report()
            .map(|f| f.churn_reallocations)
            .unwrap_or_default();
        table.row(vec![
            q.to_string(),
            dev.monitoring_banks.to_string(),
            f3(cycles_per_event(r)),
            f2(r.end.since_start().count() as f64 / r.completions.max(1) as f64),
            f2(bytes_per_queue(r, q)),
            f2(r.p99_latency_us()),
            churn.to_string(),
            dev.monitoring.conflicts.to_string(),
            dev.monitoring.relocations.to_string(),
            dev.monitoring.snoop_filtered.to_string(),
            dev.monitoring.spill_resizes.to_string(),
            if a.ok() { "ok".into() } else { "FAIL".into() },
            format!("{:016x}", digest(r)),
        ]);
    }
    write!(out, "{table}")?;

    // The hot set is fixed, so any super-budget growth of the largest
    // point over the 1024-queue baseline is structure cost — exactly what
    // the hierarchy and sharding exist to bound. Bytes per queue catch a
    // structure sized by something other than the queue count (or a row
    // that grows) deterministically, where peak RSS is host noise.
    let (base, last) = (&results[0], &results[results.len() - 1]);
    let (base_q, last_q) = (sweep[0], sweep[sweep.len() - 1]);
    let (base_cpe, last_cpe) = (cycles_per_event(base), cycles_per_event(last));
    let cpe_ratio = last_cpe / base_cpe;
    writeln!(
        out,
        "\nPer-event cost {last_q} queues vs {base_q}: {last_cpe:.3} / {base_cpe:.3} cycles = \
         {cpe_ratio:.2}x (budget {MAX_PER_EVENT_RATIO}x)"
    )?;
    if cpe_ratio > MAX_PER_EVENT_RATIO {
        failures.push(format!(
            "SCALE REGRESSION: per-event cost ratio {cpe_ratio:.2}x exceeds budget"
        ));
    }
    let (base_bpq, last_bpq) = (bytes_per_queue(base, base_q), bytes_per_queue(last, last_q));
    let bpq_ratio = last_bpq / base_bpq;
    writeln!(
        out,
        "Bytes per queue {last_q} queues vs {base_q}: {last_bpq:.2} / {base_bpq:.2} = \
         {bpq_ratio:.2}x (budget {MAX_BYTES_PER_QUEUE_RATIO}x)"
    )?;
    if bpq_ratio > MAX_BYTES_PER_QUEUE_RATIO {
        failures.push(format!(
            "BYTES-PER-QUEUE GATE: {bpq_ratio:.2}x exceeds the {MAX_BYTES_PER_QUEUE_RATIO}x budget"
        ));
    }

    if !failures.is_empty() {
        failures.push(format!("scale harness: {} failure(s)", failures.len()));
        return Err(failures.join("\n").into());
    }
    writeln!(
        out,
        "\nScale-out held: the flash crowd cleared conservation at every\n\
         universe size, the monitoring set never spill-resized, and the\n\
         per-event simulated cost and per-queue host bytes stayed within\n\
         budget of the paper-scale baseline."
    )?;
    Ok(())
}
