//! Simulator-vs-theory cross-validation: in regimes with a closed-form
//! answer (single bottleneck queue, notification overhead ≪ service time),
//! the discrete-event engine must converge to M/M/1, M/G/1
//! (Pollaczek–Khinchine), and M/M/c predictions.
//!
//! This is the reproduction's strongest internal-soundness evidence: the
//! queueing behaviour the paper's claims rest on is not assumed, it
//! emerges from the event-level model and matches textbook results.

use super::*;
use hp_sdp::analytic;

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    // Use crypto forwarding: its 7 us mean service dwarfs the ~0.2 us of
    // notification overhead, so the engine is a near-ideal queueing
    // system. The closed forms use the *effective* service time (nominal
    // draw + charged overheads), measured at zero load.
    let workload = CryptoForward;
    let es_us = {
        let cfg = experiment(opts, workload, SingleQueue, 1).with_notifier(Notifier::hyperplane());
        runs.run_zero_load(&cfg).mean_latency_us()
    };
    writeln!(
        out,
        "effective service time: {es_us:.2} us (nominal {:.2} us)",
        workload.mean_service_us()
    )?;

    let mut table = Table::new(
        "Simulator vs closed-form queueing theory (mean sojourn, us)",
        &["model", "load", "theory", "simulated", "delta_%"],
    );

    // M/M/1 and M/G/1: one HyperPlane core, one queue.
    let models = [
        (Distribution::Exponential, 1.0, "M/M/1"),
        (Distribution::Constant, 0.0, "M/D/1"),
        (Distribution::HyperExp { cv: 2.0 }, 4.0, "M/H2/1 (cv=2)"),
    ];
    let mg1_points = grid(&models, &[0.3, 0.6, 0.8]);
    let mg1_sims = hp_par::par_map(opts.threads, mg1_points.clone(), |((dist, ..), rho)| {
        let mut cfg =
            experiment(opts, workload, SingleQueue, 1).with_notifier(Notifier::hyperplane());
        cfg.service_dist = dist;
        cfg.target_completions = opts.completions(40_000);
        cfg.queue_cap = 100_000; // theory assumes no drops
        let lambda_per_us = rho / es_us;
        let cfg = cfg.with_load(Load::RatePerSec(lambda_per_us * 1e6));
        runs.run(cfg).mean_latency_us()
    });
    for (((_, scv, name), rho), &sim) in mg1_points.iter().zip(&mg1_sims) {
        let theory = analytic::mg1_sojourn(rho / es_us, es_us, *scv);
        let delta = (sim - theory) / theory * 100.0;
        table.row(vec![
            name.to_string(),
            format!("{:.0}%", rho * 100.0),
            f2(theory),
            f2(sim),
            format!("{delta:+.1}"),
        ]);
    }

    // M/M/c: four cores scale-up sharing one hot queue class. Use FB over
    // 4 queues so all cores can serve concurrently.
    let rhos = [0.3, 0.6, 0.8];
    let mmc_sims = hp_par::par_map(opts.threads, rhos.to_vec(), |rho| {
        let mut cfg = experiment(opts, workload, FullyBalanced, 4)
            .with_cores(4, 4)
            .with_notifier(Notifier::hyperplane());
        cfg.service_dist = Distribution::Exponential;
        cfg.target_completions = opts.completions(40_000);
        cfg.queue_cap = 100_000;
        let lambda_per_us = 4.0 * rho / es_us;
        let cfg = cfg.with_load(Load::RatePerSec(lambda_per_us * 1e6));
        runs.run(cfg).mean_latency_us()
    });
    for (&rho, &sim) in rhos.iter().zip(&mmc_sims) {
        let theory = analytic::mmc_sojourn(4.0 * rho / es_us, 1.0 / es_us, 4);
        let delta = (sim - theory) / theory * 100.0;
        table.row(vec![
            "M/M/4 (scale-up)".to_string(),
            format!("{:.0}%", rho * 100.0),
            f2(theory),
            f2(sim),
            format!("{delta:+.1}"),
        ]);
    }
    write!(out, "{table}")?;

    writeln!(
        out,
        "\nThe scale-up advantage the paper appeals to (M/M/4 vs 4x M/M/1) at 80% load:"
    )?;
    writeln!(
        out,
        "  theory predicts {:.2}x lower mean sojourn",
        analytic::scale_up_advantage(4.0 * 0.8 / es_us, 1.0 / es_us, 4)
    )?;

    // A long-run M/M/1 gate at 60% load (`figures` exits non-zero on
    // breach). Sojourn times are strongly autocorrelated at this load, so
    // the sample count stays at 40k even under `--quick` — smaller runs
    // make the mean too noisy to gate meaningfully.
    let tol = 0.15;
    let mut cfg = experiment(opts, workload, SingleQueue, 1).with_notifier(Notifier::hyperplane());
    cfg.service_dist = Distribution::Exponential;
    cfg.target_completions = 40_000;
    cfg.queue_cap = 100_000;
    let lambda_per_us = 0.6 / es_us;
    let sim = runs
        .run(cfg.with_load(Load::RatePerSec(lambda_per_us * 1e6)))
        .mean_latency_us();
    let theory = analytic::mg1_sojourn(lambda_per_us, es_us, 1.0);
    let delta = (sim - theory).abs() / theory;
    writeln!(
        out,
        "\nM/M/1 at 60% load, 40k samples: theory {theory:.2} us, simulated {sim:.2} us \
         (tolerance {:.0}%)",
        tol * 100.0
    )?;
    if delta.is_nan() || delta >= tol {
        return Err(format!(
            "simulator diverged from M/M/1 theory: {sim:.2} us vs {theory:.2} us \
             ({:.1}% > {:.0}%)",
            delta * 100.0,
            tol * 100.0
        )
        .into());
    }
    Ok(())
}
