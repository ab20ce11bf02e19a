//! `figures [--quick] [--threads N] [--par-workers N] [NAME...]` renders the
//! named tables, all of them by default, in [`TABLES`] order: the paper's
//! evaluation, then the quickstart comparison, the parallel fabric's
//! determinism gates and the fault and chaos sweeps, to stdout and to `results/<name>.txt` (or
//! `results/quick/<name>.txt` under `--quick`). Run it from the repository
//! root: where that directory is missing, it exits 2 before any table runs.
//! All runs go through one [`Runs`] memo, so a configuration that several
//! tables share is simulated once; stderr reports the counts. A table whose
//! gate fails (`validate`'s M/M/1 check, `fabric`'s serial-equals-parallel
//! checks, `chaos`'s conservation audit) still writes its text, and the
//! process then exits 1.

mod ablate;
mod chaos;
mod fabric;
mod faults;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig3;
mod fig8;
mod fig9;
mod hwcost;
mod notifiers;
mod numa;
mod qos;
mod quickstart;
mod summary;
mod table1;
mod validate;

// The tables' shared imports; each table module takes them by `use super::*`.
use hp_bench::cli::{self, CliError};
use hp_bench::{experiment, f2, f3, geometric_mean, grid, ratio, HarnessOpts, Runs, Table};
use hp_sdp::config::{ExperimentConfig, Load, Notifier};
use hp_sdp::runner::Simulate;
use hp_sim::rng::Distribution;
use hp_traffic::shape::TrafficShape::{
    self, FullyBalanced, NonproportionallyConcentrated, ProportionallyConcentrated, SingleQueue,
};
use hp_workloads::service::WorkloadKind::{
    self, CryptoForward, ErasureCoding, PacketEncap, PacketSteering, RequestDispatch,
};
use std::fmt::Write;
use std::time::Instant;

/// What a table returns: `Err` when its own gate fails.
type Verdict = Result<(), Box<dyn std::error::Error>>;

/// A table: renders its text into the string, running through the memo.
type Render = fn(&HarnessOpts, &Runs, &mut String) -> Verdict;

/// Every table, in the order `figures` renders them.
const TABLES: [(&str, Render); 19] = [
    ("table1", table1::render),
    ("hwcost", hwcost::render),
    ("validate", validate::render),
    ("notifiers", notifiers::render),
    ("fig3", fig3::render),
    ("fig8", fig8::render),
    ("fig9", fig9::render),
    ("fig10", fig10::render),
    ("fig11", fig11::render),
    ("fig12", fig12::render),
    ("fig13", fig13::render),
    ("qos", qos::render),
    ("numa", numa::render),
    ("ablate", ablate::render),
    ("summary", summary::render),
    ("quickstart", quickstart::render),
    ("fabric", fabric::render),
    ("faults", faults::render),
    ("chaos", chaos::render),
];

/// The tables `names` picks, in [`TABLES`] order; all of them for none.
fn pick(names: &[String]) -> Result<Vec<(&'static str, Render)>, CliError> {
    for (i, name) in names.iter().enumerate() {
        if !TABLES.iter().any(|(table, _)| table == name) {
            let all: Vec<&str> = TABLES.iter().map(|(table, _)| *table).collect();
            let all = all.join(" ");
            return Err(CliError(format!("unknown table {name:?} (tables: {all})")));
        }
        if names[..i].contains(name) {
            return Err(CliError(format!("table {name} given more than once")));
        }
    }
    let picked = |table: &&(&str, Render)| names.is_empty() || names.iter().any(|n| n == table.0);
    Ok(TABLES.iter().filter(picked).copied().collect())
}

fn main() {
    let (opts, tables) = cli::from_env(cli::FIGURES, |_, args| pick(&args.positionals));
    let dir = if opts.quick {
        "results/quick"
    } else {
        "results"
    };
    if !std::path::Path::new(dir).is_dir() {
        eprintln!("error: no {dir}/ directory here; run figures from the repository root");
        std::process::exit(2);
    }
    let runs = Runs::default();
    let mut failed = false;
    for (name, render) in tables {
        let start = Instant::now();
        let mut out = String::new();
        let verdict = render(&opts, &runs, &mut out);
        print!("{out}");
        let path = format!("{dir}/{name}.txt");
        if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("figures: {name} in {:.1} s", start.elapsed().as_secs_f64());
        if let Err(e) = verdict {
            eprintln!("error: {name}: {e}");
            failed = true;
        }
    }
    let (requested, engine_runs, distinct) = runs.counts();
    eprintln!(
        "figures: {engine_runs} engine runs for {requested} requested runs \
         of {distinct} distinct configs"
    );
    if failed {
        std::process::exit(1);
    }
}
