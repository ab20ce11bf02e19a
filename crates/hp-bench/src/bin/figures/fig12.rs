//! Figure 12 — energy proportionality (§V-D).
//!
//! (a) Normalized core power at zero load and saturation for the spinning
//!     data plane and HyperPlane with/without the C1 power-optimized mode.
//! (b) p99 latency vs load for power-optimized HyperPlane against regular
//!     HyperPlane and spinning (the Fig. 10(a) scale-up-4 scenario).

use super::*;
use hp_sdp::power::PowerModel;

pub fn render(opts: &HarnessOpts, runs: &Runs, out: &mut String) -> Verdict {
    let model = PowerModel::default();

    // (a) Zero-load vs saturation power — six independent runs (three
    // notifiers × two operating points) fanned as one sweep.
    let base = {
        let mut cfg = experiment(opts, PacketEncap, FullyBalanced, 100);
        cfg.target_completions = opts.completions(8_000);
        cfg
    };
    let systems = [
        ("spinning", Notifier::Spinning),
        ("hyperplane", Notifier::hyperplane()),
        ("hyperplane-C1", Notifier::hyperplane_power_opt()),
    ];
    let power = hp_par::par_map(opts.threads, systems.to_vec(), |(_, notifier)| {
        let cfg = base.clone().with_notifier(notifier);
        let zero = runs.run_zero_load(&cfg);
        let sat = runs.peak_throughput(&cfg);
        (zero, sat)
    });
    let mut table = Table::new(
        "Fig 12(a): normalized core power (% of peak)",
        &["system", "zero_load", "saturation"],
    );
    for ((label, _), (zero, sat)) in systems.iter().zip(&power) {
        table.row(vec![
            label.to_string(),
            f2(zero.average_power_fraction(&model) * 100.0),
            f2(sat.average_power_fraction(&model) * 100.0),
        ]);
    }
    write!(out, "{table}")?;

    // (b) Tail latency vs load, the multicore scale-up scenario.
    let mc = {
        let mut cfg = experiment(opts, PacketEncap, FullyBalanced, 400).with_cores(4, 4);
        cfg.target_completions = opts.completions(16_000);
        cfg
    };
    let ref_tps = runs
        .peak_throughput_with(
            &mc.clone().with_notifier(Notifier::hyperplane()),
            opts.threads,
        )
        .throughput_tps;
    let loads = opts.thin(&[0.05, 0.2, 0.35, 0.5, 0.65, 0.8]);
    let lat = hp_par::par_map(opts.threads, loads.clone(), |load| {
        let spin = runs.run_at_load(&mc.clone().with_notifier(Notifier::Spinning), ref_tps, load);
        let hp = runs.run_at_load(
            &mc.clone().with_notifier(Notifier::hyperplane()),
            ref_tps,
            load,
        );
        let c1 = runs.run_at_load(
            &mc.clone().with_notifier(Notifier::hyperplane_power_opt()),
            ref_tps,
            load,
        );
        (spin, hp, c1)
    });
    let mut table = Table::new(
        "Fig 12(b): p99 latency (us) vs load — power-optimized HyperPlane",
        &[
            "load%",
            "spinning",
            "hyperplane",
            "hyperplane_C1",
            "C1_vs_hp",
        ],
    );
    let mut zero_gap: Option<(f64, f64, f64)> = None;
    for (&load, (spin, hp, c1)) in loads.iter().zip(&lat) {
        if zero_gap.is_none() {
            zero_gap = Some((
                spin.p99_latency_us(),
                hp.p99_latency_us(),
                c1.p99_latency_us(),
            ));
        }
        table.row(vec![
            format!("{:.0}", load * 100.0),
            f2(spin.p99_latency_us()),
            f2(hp.p99_latency_us()),
            f2(c1.p99_latency_us()),
            format!(
                "+{:.0}%",
                (c1.p99_latency_us() / hp.p99_latency_us() - 1.0) * 100.0
            ),
        ]);
    }
    write!(out, "{table}")?;

    if let Some((spin, hp, c1)) = zero_gap {
        writeln!(
            out,
            "\nAt the lightest load: C1 is {:.0}% above regular HyperPlane (paper: +38%),",
            (c1 / hp - 1.0) * 100.0
        )?;
        writeln!(
            out,
            "and still {:.1}x below spinning (paper: 8.9x).",
            spin / c1
        )?;
    }
    writeln!(
        out,
        "Expected shape (paper): C1 gap shrinks rapidly as load grows (cores sleep less)."
    )?;
    Ok(())
}
