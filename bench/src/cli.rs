//! Strict command-line parsing: an unknown subcommand, flag, or
//! workload, a repeated flag, or a malformed value is an error, never
//! silently ignored.

use crate::workloads::{self, Workload, DEFAULT_SEED};
use std::path::PathBuf;

/// Host seconds one run measures when `--seconds` is not given.
pub const DEFAULT_SECONDS: u64 = 15;

/// Usage text, printed with every parse error.
pub const USAGE: &str = "\
usage: perfbench run --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--out DIR]
       perfbench compare A B
       perfbench --list
       perfbench --help

run       Runs one workload: a warm-up round, timed rounds with every
          observer off, then (with --trace 1, the default) one traced
          round and the layer probes. Prints every metric as
          `name value unit`, writes DIR/<workload>.json and
          DIR/<workload>.spans.json (DIR defaults to bench/out), and ends
          with a one-line JSON result: end-to-end metrics with --trace 0,
          per-layer metrics with --trace 1. --seed takes decimal or 0x
          hex (default 0x5EED); --seconds (1..=3600, default 15) sets the
          timed-round count.
compare   Compares two run artifacts or two directory trees of them,
          metric by metric and workload by workload; exits 1 on any
          regression beyond a bound or any failed run.
--list    Prints each workload with its rationale.";

/// Options of the `run` subcommand.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to measure.
    pub seconds: u64,
    /// Whether to run the traced round and the layer probes.
    pub trace: bool,
    /// Output directory.
    pub out: PathBuf,
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub enum Command {
    /// Run one workload.
    Run(RunOpts),
    /// Compare two artifacts or directories.
    Compare(PathBuf, PathBuf),
    /// List the workloads.
    List,
    /// Print usage.
    Help,
}

/// Parses `args` (without the program name).
///
/// # Errors
///
/// A one-line description of the first problem found.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("missing subcommand".to_string());
    };
    match sub.as_str() {
        "run" => parse_run(rest).map(Command::Run),
        "compare" => match rest {
            [a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("compare takes exactly two paths".to_string()),
        },
        "--list" if rest.is_empty() => Ok(Command::List),
        "--help" | "-h" if rest.is_empty() => Ok(Command::Help),
        "--list" | "--help" | "-h" => Err(format!("{sub} takes no arguments")),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let fresh = |set: bool| {
            if set {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                fresh(workload.is_some())?;
                let name = value(&mut it)?;
                workload = Some(
                    workloads::find(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                fresh(seed.is_some())?;
                seed = Some(parse_u64(&value(&mut it)?).ok_or("--seed takes an integer")?);
            }
            "--seconds" => {
                fresh(seconds.is_some())?;
                seconds = Some(
                    parse_u64(&value(&mut it)?)
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or("--seconds takes an integer in 1..=3600")?,
                );
            }
            "--trace" => {
                fresh(trace.is_some())?;
                trace = Some(match value(&mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--out" => {
                fresh(out.is_some())?;
                out = Some(PathBuf::from(value(&mut it)?));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(RunOpts {
        workload: workload.ok_or("run needs --workload")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        trace: trace.unwrap_or(true),
        out: out.unwrap_or_else(|| PathBuf::from("bench/out")),
    })
}

/// Decimal, or hexadecimal with a `0x` prefix.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn accepts_the_driver_invocation() {
        let Ok(Command::Run(o)) = parse(&args(
            "run --workload hp-pc512-4c --seed 7 --seconds 12 --trace 0",
        )) else {
            panic!("valid invocation rejected");
        };
        assert_eq!(
            (o.workload.name, o.seed, o.seconds, o.trace),
            ("hp-pc512-4c", 7, 12, false)
        );
        let Ok(Command::Run(o)) = parse(&args("run --workload flash-1m --seed 0x5eed")) else {
            panic!("hex seed rejected");
        };
        assert_eq!(
            (o.seed, o.seconds, o.trace),
            (0x5EED, DEFAULT_SECONDS, true)
        );
        assert!(matches!(parse(&args("--list")), Ok(Command::List)));
        let Ok(Command::Compare(a, b)) = parse(&args("compare a.json b")) else {
            panic!("compare rejected");
        };
        assert_eq!((a, b), ("a.json".into(), "b".into()));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "bench",
            "run",
            "run --workload",
            "run --workload nope",
            "run --workload spin-sq500 --quick",
            "run --workload spin-sq500 --workload spin-sq500",
            "run --workload spin-sq500 --seed x",
            "run --workload spin-sq500 --seed -1",
            "run --workload spin-sq500 --seconds 0",
            "run --workload spin-sq500 --seconds 3601",
            "run --workload spin-sq500 --trace 2",
            "run --workload spin-sq500 --trace",
            "run --workload spin-sq500 extra",
            "compare a",
            "compare a b c",
            "--list extra",
            "--lst",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
