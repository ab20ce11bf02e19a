//! # hp-bench — figure-regeneration harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md §5
//! for the experiment index).
//!
//! All binaries accept these flags, parsed by [`cli`]:
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
//! The shared helpers here keep the binaries small: table printing (an
//! aligned table followed by its CSV block) and the harness-wide
//! experiment defaults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod plot;

use hp_sdp::config::ExperimentConfig;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;

/// Command-line options shared by all harness binaries.
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
    /// Parses the process arguments of a binary that takes only the
    /// common flags; a bad command line exits 2 (see [`cli`]).
    pub fn from_args() -> Self {
        cli::from_env(cli::PLAIN, |_| Ok(())).0
    }

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

/// A simple aligned text table, printed with its CSV block.
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

    /// Prints the aligned table, then the same rows as a `# CSV:` block.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
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
        println!("{}", line(&self.headers));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            println!("{}", line(row));
        }
        println!("\n# CSV: {}", self.title);
        println!("{}", self.headers.join(","));
        for row in &self.rows {
            println!("{}", row.join(","));
        }
    }
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
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(ratio(4.115), "4.12x");
    }
}
