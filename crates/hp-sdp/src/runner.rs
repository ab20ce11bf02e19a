//! High-level experiment drivers: peak-throughput search and load sweeps.
//!
//! The evaluation figures are built from two primitives:
//! * [`peak_throughput`] — drive a configuration at saturation and report
//!   the sustained completion rate (Figs. 3a, 8, 13);
//! * [`run_at_load`] — run an open-loop drive at a fraction of a measured
//!   peak and report the latency distribution (Figs. 3b/3c, 9, 10, 12b).

use crate::config::{ExperimentConfig, Load};
use crate::engine::Engine;
use crate::result::ExperimentResult;

/// Runs `cfg` as configured.
///
/// # Panics
///
/// Panics on an invalid configuration; use [`Engine::try_new`] to get
/// the [`ConfigError`](crate::config::ConfigError) instead.
pub fn run(cfg: ExperimentConfig) -> ExperimentResult {
    Engine::new(cfg).run()
}

/// Measures peak *sustainable* throughput (tasks/second).
///
/// Methodology: an overdrive run (3× estimated capacity) gives an
/// optimistic upper bound — but under unbalanced shapes (PC/NC) the
/// overload transient backlogs even rarely-used queues, hiding the
/// empty-poll cost that limits a spinning data plane in equilibrium. So
/// the peak is then refined by a short binary search for the highest
/// offered rate the system sustains without shedding load (throughput
/// tracks the offered rate and drops stay negligible), which is the
/// paper's "maximum achievable throughput" operating point.
pub fn peak_throughput(cfg: &ExperimentConfig) -> ExperimentResult {
    peak_throughput_with(cfg, 1)
}

/// [`peak_throughput`] with up to `threads` binary-search probes of one
/// refinement round running concurrently (via `hp_par`).
///
/// The candidate rates probed in each round are a fixed function of the
/// current bracket — never of `threads` — and every probe is a pure
/// function of its seeded config, so the returned result is **bit-identical
/// for any thread count**. `threads` only changes wall-clock time.
pub fn peak_throughput_with(cfg: &ExperimentConfig, threads: usize) -> ExperimentResult {
    // Upper bound from overdrive (3× estimated capacity, half-length run).
    let mut probe_cfg = cfg.clone().with_load(Load::Saturation);
    probe_cfg.target_completions = (cfg.target_completions / 2).max(1_000);
    let overdrive = Engine::new(probe_cfg.clone()).run();
    let mut hi = overdrive.throughput_tps;

    let sustainable = |r: &ExperimentResult, offered: f64| {
        r.throughput_tps >= 0.95 * offered
            && (r.drops as f64) < 0.02 * (r.completions as f64 + r.drops as f64)
    };

    // Is the overdrive bound itself sustainable as an offered rate? Probe
    // it at full length: when it holds — the common case for balanced
    // shapes — this run *is* the final measurement, where the previous
    // implementation re-ran an identical configuration from scratch.
    let first = Engine::new(cfg.clone().with_load(Load::RatePerSec(hi))).run();
    if sustainable(&first, hi) {
        return first;
    }

    // Refine the bracket. Each round probes the three interior quartile
    // rates of (lo, hi) concurrently, then keeps the tightest bracket they
    // establish — the parallel analogue of two sequential bisection steps.
    let mut lo = 0.0;
    for _ in 0..2 {
        let candidates: Vec<f64> = (1..=3).map(|k| lo + (hi - lo) * k as f64 / 4.0).collect();
        let results = hp_par::par_map(threads, candidates.clone(), |rate| {
            Engine::new(probe_cfg.clone().with_load(Load::RatePerSec(rate))).run()
        });
        for (&rate, res) in candidates.iter().zip(&results) {
            if sustainable(res, rate) {
                lo = lo.max(rate);
            }
        }
        // Only unsustainable rates *above* the sustained floor tighten the
        // ceiling: sustainability need not be perfectly monotone in the
        // offered rate, and the bracket must stay well-ordered.
        for (&rate, res) in candidates.iter().zip(&results) {
            if !sustainable(res, rate) && rate > lo {
                hi = hi.min(rate);
            }
        }
        if (hi - lo) / hi < 0.07 {
            break;
        }
    }
    let peak_rate = if lo > 0.0 { lo } else { hi };

    // Final full-length measurement at the sustainable rate.
    let final_cfg = cfg.clone().with_load(Load::RatePerSec(peak_rate));
    Engine::new(final_cfg).run()
}

/// Runs at `fraction` of the given peak rate (open-loop Poisson) and
/// returns the result (latency distribution is the interesting part).
///
/// # Panics
///
/// Panics if `fraction` is not in `(0, 1]` or `peak_tps` is not positive.
pub fn run_at_load(cfg: &ExperimentConfig, peak_tps: f64, fraction: f64) -> ExperimentResult {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "load fraction must be in (0,1], got {fraction}"
    );
    assert!(peak_tps > 0.0, "peak rate must be positive");
    let cfg = cfg.clone().with_load(Load::RatePerSec(peak_tps * fraction));
    Engine::new(cfg).run()
}

/// Runs a very light drive (<1 % of estimated capacity) for zero-load
/// latency measurements (Fig. 9): queuing delay is negligible, so the
/// measured latency is notification + service time.
pub fn run_zero_load(cfg: &ExperimentConfig) -> ExperimentResult {
    let rate = cfg.capacity_estimate_per_core() * cfg.dp_cores as f64 * 0.008;
    let mut cfg = cfg.clone().with_load(Load::RatePerSec(rate));
    // Light loads need fewer samples to characterize (no queueing noise).
    cfg.target_completions = cfg.target_completions.min(6_000);
    // Constant service isolates the *notification* latency distribution —
    // the quantity Figs. 3(b,c) and 9 plot; with exponential service the
    // tail would be dominated by service-time draws for both systems.
    cfg.service_dist = hp_sim::rng::Distribution::Constant;
    Engine::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Notifier;
    use hp_traffic::shape::TrafficShape;
    use hp_workloads::service::WorkloadKind;

    fn base() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(
            WorkloadKind::RequestDispatch,
            TrafficShape::ProportionallyConcentrated,
            40,
        );
        cfg.target_completions = 1_500;
        cfg
    }

    #[test]
    fn peak_then_load_sweep_is_stable() {
        let cfg = base().with_notifier(Notifier::hyperplane());
        let peak = peak_throughput(&cfg);
        assert!(peak.throughput_tps > 100_000.0);
        let half = run_at_load(&cfg, peak.throughput_tps, 0.5);
        // At half load the system keeps up: throughput ~= offered.
        let ratio = half.throughput_tps / (peak.throughput_tps * 0.5);
        assert!((0.85..1.15).contains(&ratio), "ratio {ratio}");
        // And latency is lower than at saturation.
        assert!(half.p99_latency_us() < peak.p99_latency_us());
    }

    #[test]
    fn zero_load_latency_close_to_service_time() {
        let cfg = base().with_notifier(Notifier::hyperplane());
        let r = run_zero_load(&cfg);
        // Request dispatch: 1.6 us service; notification adds < 1.5 us.
        assert!(
            r.mean_latency_us() > 1.2 && r.mean_latency_us() < 4.0,
            "zero-load mean {} us",
            r.mean_latency_us()
        );
    }

    #[test]
    #[should_panic(expected = "load fraction")]
    fn rejects_bad_fraction() {
        let _ = run_at_load(&base(), 1000.0, 1.5);
    }

    #[test]
    fn peak_search_is_thread_count_invariant() {
        // PC shape forces the unsustainable-bound path, so the concurrent
        // refinement rounds actually execute; spinning at 40 queues keeps
        // the overdrive bound above what empty polls sustain.
        let cfg = base();
        let serial = peak_throughput_with(&cfg, 1);
        let parallel = peak_throughput_with(&cfg, 4);
        assert_eq!(
            serial.throughput_tps.to_bits(),
            parallel.throughput_tps.to_bits(),
            "probe concurrency must not change the measured peak"
        );
        assert_eq!(serial.completions, parallel.completions);
        assert_eq!(
            serial.mean_latency_us().to_bits(),
            parallel.mean_latency_us().to_bits()
        );
    }

    #[test]
    fn try_new_surfaces_config_errors() {
        let mut cfg = base();
        cfg.queues = 0;
        assert_eq!(
            Engine::try_new(cfg).err(),
            Some(crate::config::ConfigError::NoQueues)
        );
    }
}
