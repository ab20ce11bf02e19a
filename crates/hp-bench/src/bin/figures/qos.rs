//! Service-policy QoS study (extension of §IV-B): weighted round-robin
//! weights translate into differentiated per-tenant latency under load,
//! which scale-out spinning cannot provide (each core only sees its own
//! queues — the paper's §II-B argument for scale-up priority support).

use super::*;
use hp_core::qwait::HyperPlaneConfig;
use hp_core::ready_set::ServicePolicy;

const QUEUES: u32 = 8;

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let mut base =
        experiment(opts, PacketEncap, FullyBalanced, QUEUES).with_notifier(Notifier::hyperplane());
    base.target_completions = opts.completions(24_000);

    let peak = runs
        .peak_throughput_with(&base, opts.threads)
        .throughput_tps;

    // Premium tenant on queue 0 (weight 8); best-effort tenants elsewhere.
    let mut weighted = base.clone();
    let mut weights = vec![1u32; base.hp.ready_qids];
    weights[0] = 8;
    weighted.hp = HyperPlaneConfig {
        policy: ServicePolicy::WeightedRoundRobin { weights },
        ..base.hp.clone()
    };

    let mut table = Table::new(
        "QoS: per-queue mean latency (us) at 80% load, RR vs WRR[q0=8]",
        &["queue", "round_robin", "wrr_8_1", "speedup_q0"],
    );
    // The RR and WRR drives are independent: run them as a two-point sweep.
    let mut results = hp_par::par_map(opts.threads, vec![base, weighted], |cfg| {
        runs.run_at_load(&cfg, peak, 0.8)
    });
    let wrr = results.pop().expect("two sweep results");
    let rr = results.pop().expect("two sweep results");
    let rr_lat = rr.per_queue_latency_us();
    let wrr_lat = wrr.per_queue_latency_us();
    for q in 0..QUEUES {
        let r = rr_lat
            .iter()
            .find(|&&(x, _, _)| x == q)
            .map(|&(_, _, us)| us);
        let w = wrr_lat
            .iter()
            .find(|&&(x, _, _)| x == q)
            .map(|&(_, _, us)| us);
        let (Some(r), Some(w)) = (r, w) else { continue };
        let speedup = if q == 0 {
            format!("{:.2}x", r / w)
        } else {
            "-".into()
        };
        table.row(vec![q.to_string(), f2(r), f2(w), speedup]);
    }
    write!(out, "{table}")?;

    writeln!(
        out,
        "\nExpected shape: under WRR the premium queue's latency drops well below"
    )?;
    writeln!(
        out,
        "the best-effort queues'; under RR all queues see the same latency."
    )?;
    Ok(())
}
