//! # hp-bench — figure-regeneration harness
//!
//! The `figures` binary renders every deterministic table of the harness
//! in one process: the paper's evaluation (see DESIGN.md §5 for the
//! experiment index), the quickstart comparison, the parallel fabric's
//! determinism gates, the fault and chaos sweeps, and the million-queue
//! scale-out sweep. `trace`, `inspect` and `attrib-diff` are separate
//! binaries with artifacts or gates of their own.
//!
//! The common flags, parsed by [`cli`]; each binary's [`cli::Spec`] lists
//! the ones it reads, and the others keep their defaults:
//! * `--quick` — cut sample counts and sweep points for a fast smoke run;
//! * `--threads N` — worker threads for independent sweep points (default:
//!   all hardware threads). Every simulation is a pure function of its
//!   seeded config, so any `N` — including `--threads 1` — produces
//!   byte-identical tables.
//! * `--par-workers N` — intra-run parallel-fabric lanes (default 1);
//!   digest-identical to the serial engine for any `N`.
//!
//! Parsing is strict: any bad command line exits with status 2 before a
//! simulation starts (see [`cli`]).
//!
//! The shared helpers here keep the tables small: table rendering (an
//! aligned table followed by its CSV block), the harness-wide experiment
//! defaults and [`Runs`], the memo that simulates each distinct
//! configuration of a process once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod plot;

use hp_sdp::config::ExperimentConfig;
use hp_sdp::result::ExperimentResult;
use hp_sdp::runner::Simulate;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The common command-line options; a binary that does not read one
/// keeps its default.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Reduced sweep for smoke testing.
    pub quick: bool,
    /// Worker threads for fanning out independent sweep points.
    pub threads: usize,
    /// Intra-run engine workers (`ExperimentConfig::par_workers`): the
    /// parallel-fabric lane-to-thread mapping inside each single run.
    /// Orthogonal to `threads`. Defaults to 1 (serial engine path).
    pub par_workers: usize,
}

impl HarnessOpts {
    /// Target completions per run for this option set.
    pub fn completions(&self, full: u64) -> u64 {
        if self.quick {
            (full / 8).max(800)
        } else {
            full
        }
    }

    /// Thins a sweep vector when quick.
    pub fn thin<T: Clone>(&self, full: &[T]) -> Vec<T> {
        if self.quick && full.len() > 3 {
            vec![
                full[0].clone(),
                full[full.len() / 2].clone(),
                full[full.len() - 1].clone(),
            ]
        } else {
            full.to_vec()
        }
    }
}

/// Builds the harness-default experiment configuration.
pub fn experiment(
    opts: &HarnessOpts,
    workload: WorkloadKind,
    shape: TrafficShape,
    queues: u32,
) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(workload, shape, queues).with_par_workers(opts.par_workers);
    cfg.target_completions = opts.completions(12_000);
    cfg
}

/// A run memo: the [`runner`](hp_sdp::runner) primitives, with every
/// engine run answered from this memo's earlier results when the
/// configuration repeats.
///
/// The key is the configuration's derived `Debug` text, which names every
/// field, nested ones included. A simulation is a pure function of its
/// configuration, so a remembered result is the one a fresh run would
/// give. Two threads that miss on the same key may both simulate it.
#[derive(Default)]
pub struct Runs {
    done: Mutex<HashMap<String, ExperimentResult>>,
    requests: AtomicU64,
    engine_runs: AtomicU64,
}

impl Runs {
    /// Runs asked for, engine runs made and distinct configurations seen.
    pub fn counts(&self) -> (u64, u64, usize) {
        (
            self.requests.load(Ordering::Relaxed),
            self.engine_runs.load(Ordering::Relaxed),
            self.done.lock().expect("memo lock poisoned").len(),
        )
    }
}

impl Simulate for Runs {
    fn run(&self, cfg: ExperimentConfig) -> ExperimentResult {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let key = format!("{cfg:?}");
        if let Some(hit) = self.done.lock().expect("memo lock poisoned").get(&key) {
            return hit.clone();
        }
        let result = hp_sdp::runner::run(cfg);
        self.engine_runs.fetch_add(1, Ordering::Relaxed);
        let mut done = self.done.lock().expect("memo lock poisoned");
        done.entry(key).or_insert_with(|| result.clone());
        result
    }
}

/// A simple aligned text table, displayed with its CSV block.
#[derive(Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }
}

/// The aligned table, then the same rows as a `# CSV:` block.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", line(&self.headers))?;
        let rules: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "{}", rules.join("  "))?;
        for row in &self.rows {
            writeln!(f, "{}", line(row))?;
        }
        writeln!(f, "\n# CSV: {}", self.title)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }
}

/// Every `(x, y)` pair, `x`-major: the point order of a two-level sweep.
pub fn grid<X: Copy, Y: Copy>(xs: &[X], ys: &[Y]) -> Vec<(X, Y)> {
    xs.iter()
        .flat_map(|&x| ys.iter().map(move |&y| (x, y)))
        .collect()
}

/// The geometric mean of `xs`; `0.0` when `xs` is empty.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as `N.NNx`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(quick: bool) -> HarnessOpts {
        HarnessOpts {
            quick,
            threads: 1,
            par_workers: 1,
        }
    }

    #[test]
    fn quick_reduces_completions_with_floor() {
        assert_eq!(opts(true).completions(12_000), 1_500);
        assert_eq!(opts(true).completions(4_000), 800);
        assert_eq!(opts(false).completions(12_000), 12_000);
    }

    #[test]
    fn thin_keeps_endpoints() {
        let full = vec![1, 2, 3, 4, 5];
        assert_eq!(opts(true).thin(&full), vec![1, 3, 5]);
        assert_eq!(opts(false).thin(&full), full);
        assert_eq!(opts(true).thin(&[1, 2]), vec![1, 2]);
    }

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["1".into()]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn experiment_defaults_are_sane() {
        let cfg = experiment(
            &opts(false),
            WorkloadKind::PacketEncap,
            TrafficShape::FullyBalanced,
            64,
        );
        cfg.validate().unwrap();
        assert_eq!(cfg.target_completions, 12_000);
    }

    #[test]
    fn memo_simulates_each_distinct_config_once() {
        let runs = Runs::default();
        let calls = || runs.counts().1;
        // A run that takes milliseconds: 16 queues, 300 completions.
        let mut base = experiment(
            &opts(true),
            WorkloadKind::PacketEncap,
            TrafficShape::FullyBalanced,
            16,
        )
        .with_notifier(hp_sdp::config::Notifier::hyperplane());
        base.target_completions = 300;

        let first = runs.run(base.clone());
        let again = runs.run(base.clone());
        assert_eq!(calls(), 1, "a repeated config is simulated once");
        assert_eq!(format!("{first:?}"), format!("{again:?}"));

        // Configs that differ in one nested field are distinct entries.
        let mut qwait = base.clone();
        qwait.hp.timing.qwait = hp_sim::time::Cycles(60);
        let faulty = base.clone().with_faults(hp_sim::faults::FaultPlan {
            spurious: 0.01,
            ..hp_sim::faults::FaultPlan::none()
        });
        let reseeded = base.clone().with_seed(base.seed + 1);
        let lanes = base.clone().with_par_workers(2);
        for cfg in [qwait, faulty, reseeded, lanes] {
            runs.run(cfg.clone());
            runs.run(cfg);
        }
        assert_eq!(runs.counts(), (10, 5, 5));

        // A peak search asked twice probes the engine only the first time.
        let peak = runs.peak_throughput(&base);
        let probes = calls();
        let repeat = runs.peak_throughput_with(&base, 2);
        assert_eq!(calls(), probes);
        assert_eq!(format!("{peak:?}"), format!("{repeat:?}"));
    }

    #[test]
    fn sweep_helpers() {
        assert_eq!(
            grid(&[1, 2], &['a', 'b']),
            [(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]
        );
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(ratio(4.115), "4.12x");
    }
}
