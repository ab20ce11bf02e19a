//! # hp-bench — figure-regeneration harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md §5
//! for the experiment index).
//!
//! All binaries accept these flags, parsed by [`cli`]:
//! * `--quick` — cut sample counts and sweep points for a fast smoke run;
//! * `--csv` — emit machine-readable CSV after the human-readable table;
//! * `--json` — additionally append every table row as a JSON object to
//!   `results/<binary>.jsonl` (one line per row, ready for `jq`/pandas);
//! * `--threads N` — worker threads for independent sweep points (default:
//!   all hardware threads). Every simulation is a pure function of its
//!   seeded config, so any `N` — including `--threads 1` — produces
//!   byte-identical tables and JSONL.
//! * `--par-workers N` — intra-run parallel-fabric lanes (default 1);
//!   digest-identical to the serial engine for any `N`.
//!
//! Parsing is strict: any bad command line exits with status 2 before a
//! simulation starts (see [`cli`]).
//!
//! The shared helpers here keep the binaries small: aligned table
//! printing, CSV/JSONL emission, and the harness-wide experiment defaults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod plot;

use hp_bytes::json::JsonWriter;
use hp_sdp::config::ExperimentConfig;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;
use std::path::PathBuf;

/// Command-line options shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Reduced sweep for smoke testing.
    pub quick: bool,
    /// Emit CSV alongside the table.
    pub csv: bool,
    /// Append table rows as JSONL under `results/<bin>.jsonl`.
    pub json: bool,
    /// Worker threads for fanning out independent sweep points.
    pub threads: usize,
    /// Intra-run engine workers (`ExperimentConfig::par_workers`): the
    /// parallel-fabric lane-to-thread mapping inside each single run.
    /// Orthogonal to `threads`. Defaults to 1 (serial engine path).
    pub par_workers: usize,
    /// Binary name (file stem of `argv[0]`), used for the JSONL path.
    pub bin: String,
}

impl HarnessOpts {
    /// Parses the process arguments of a binary that takes only the
    /// common flags; a bad command line exits 2 (see [`cli`]).
    pub fn from_args() -> Self {
        cli::from_env(cli::PLAIN, |_| Ok(())).0
    }

    /// Path of the JSONL sink for this binary (`results/<bin>.jsonl`).
    fn jsonl_path(&self) -> PathBuf {
        PathBuf::from("results").join(format!("{}.jsonl", self.bin))
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

/// A simple aligned text table with optional CSV output.
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

    /// Prints the aligned table, and CSV when requested.
    pub fn print(&self, opts: &HarnessOpts) {
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
        if opts.csv {
            println!("\n# CSV: {}", self.title);
            println!("{}", self.headers.join(","));
            for row in &self.rows {
                println!("{}", row.join(","));
            }
        }
        if opts.json {
            let path = opts.jsonl_path();
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            use std::io::Write as _;
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                Ok(mut f) => {
                    if let Err(e) = f.write_all(self.to_jsonl().as_bytes()) {
                        eprintln!("warning: could not append to {}: {e}", path.display());
                    }
                }
                Err(e) => eprintln!("warning: could not open {}: {e}", path.display()),
            }
        }
    }

    /// Renders the table rows as JSONL: one object per row, keyed by the
    /// column headers, with the table title under `"table"`. Cells that
    /// parse as numbers are emitted as JSON numbers; everything else stays
    /// a string.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_str("table", &self.title);
            for (h, c) in self.headers.iter().zip(row) {
                w.key(h);
                // Prefer numeric JSON for numeric-looking cells so the
                // sink is directly plottable, but keep e.g. "4.12x" or
                // bare queue names as strings.
                if let Ok(v) = c.parse::<i64>() {
                    w.i64(v);
                } else if let Ok(v) = c.parse::<f64>() {
                    w.f64(v);
                } else {
                    w.string(c);
                }
            }
            w.end_object();
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
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
            csv: false,
            json: false,
            threads: 1,
            par_workers: 1,
            bin: "test".to_string(),
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
    fn jsonl_rows_carry_title_and_typed_cells() {
        let mut t = Table::new("fig_demo", &["queues", "mtps", "note"]);
        t.row(vec!["64".into(), "1.250".into(), "4.12x".into()]);
        t.row(vec!["128".into(), "2.500".into(), "-".into()]);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"table":"fig_demo","queues":64,"mtps":1.25,"note":"4.12x"}"#
        );
        assert!(lines[1].contains(r#""queues":128"#));
    }

    #[test]
    fn jsonl_path_is_per_binary() {
        let mut o = opts(false);
        o.bin = "fig08_breakdown".into();
        assert_eq!(
            o.jsonl_path(),
            PathBuf::from("results/fig08_breakdown.jsonl")
        );
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(ratio(4.115), "4.12x");
    }
}
