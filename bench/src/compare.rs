//! `compare A B`: the end-to-end metrics of two sets of runs, workload
//! by workload, each judged against the benchmark's own bound.
//!
//! A side is one artifact or a directory tree of them. With two or more
//! runs of a workload on a side, that side's value is the median of the
//! runs' values and its spread their interquartile range; with a single
//! run, the spread is the interquartile range of that run's rounds.

use crate::report::{Better, EndToEnd, END_TO_END};
use crate::stats::Summary;
use hp_bytes::json::{self, JsonValue};
use std::path::{Path, PathBuf};

/// The parts of one run artifact that `compare` reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Workload name.
    pub workload: String,
    /// Whether every round passed its check.
    pub correct: bool,
    /// Per-run value of each end-to-end metric, in [`END_TO_END`] order.
    pub values: Vec<f64>,
    /// Round summary of each end-to-end metric, in [`END_TO_END`] order.
    pub rounds: Vec<Summary>,
}

/// Parses a `<workload>.json` artifact.
///
/// # Errors
///
/// What is malformed or missing.
pub fn parse_artifact(text: &str) -> Result<Artifact, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some("hp-perfbench-v1") {
        return Err("not an hp-perfbench-v1 artifact".to_string());
    }
    let workload = doc
        .get("workload")
        .and_then(JsonValue::as_str)
        .ok_or("missing workload")?
        .to_string();
    let correct = doc
        .get("correct")
        .and_then(JsonValue::as_bool)
        .ok_or("missing correct")?;
    let e2e = doc.get("end_to_end").ok_or("missing end_to_end")?;
    let mut values = Vec::new();
    let mut rounds = Vec::new();
    for m in &END_TO_END {
        let s = e2e
            .get(m.name)
            .ok_or_else(|| format!("missing end_to_end.{}", m.name))?;
        let num = |k: &str| {
            s.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("end_to_end.{}.{k} is not a number", m.name))
        };
        values.push(num("value")?);
        rounds.push(Summary {
            min: num("min")?,
            q1: num("q1")?,
            median: num("median")?,
            q3: num("q3")?,
            max: num("max")?,
            n: num("n")? as usize,
        });
    }
    Ok(Artifact {
        workload,
        correct,
        values,
        rounds,
    })
}

/// Every artifact file under `path` (files ending in `.json` but not
/// `.spans.json`), or `path` itself when it is a file.
fn artifact_files(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !path.is_dir() {
        out.push(path.to_path_buf());
        return Ok(());
    }
    let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for entry in entries {
        let p = entry
            .map_err(|e| format!("{}: {e}", path.display()))?
            .path();
        let name = p.to_string_lossy();
        if p.is_dir() {
            artifact_files(&p, out)?;
        } else if name.ends_with(".json") && !name.ends_with(".spans.json") {
            out.push(p);
        }
    }
    Ok(())
}

/// Loads one artifact, or every artifact in a directory tree, in path
/// order.
///
/// # Errors
///
/// An unreadable path or a malformed artifact, naming the file.
pub fn load(path: &Path) -> Result<Vec<Artifact>, String> {
    let mut files = Vec::new();
    artifact_files(path, &mut files)?;
    files.sort();
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            parse_artifact(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// One side's view of one metric: its value and its spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median of the runs' values (the value itself for one run).
    pub value: f64,
    /// Interquartile range of the runs' values, or of the rounds of a
    /// single run.
    pub spread: f64,
}

impl Side {
    /// Metric `i` of the runs in `runs` (at least one).
    fn of(runs: &[&Artifact], i: usize) -> Side {
        match runs {
            [one] => Side {
                value: one.values[i],
                spread: one.rounds[i].iqr(),
            },
            _ => {
                let s = Summary::of(&runs.iter().map(|a| a.values[i]).collect::<Vec<_>>());
                Side {
                    value: s.median,
                    spread: s.iqr(),
                }
            }
        }
    }
}

/// How one metric of `B` compares with `A`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// The spread of either side exceeds what the bound allows: the
    /// comparison cannot tell.
    Unresolved,
    /// Worse than the bound allows.
    Regressed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// Judges `b` against baseline `a`: the tolerated worsening is the
/// metric's bound times `a`'s value, and never below its floor. A spread
/// on either side wider than that makes the metric unresolved; otherwise
/// it regressed when its value worsened by more.
pub fn verdict(m: &EndToEnd, a: Side, b: Side) -> Verdict {
    let allowed = (m.bound * a.value.abs()).max(m.floor);
    let worse = match m.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    if a.spread.max(b.spread) > allowed {
        Verdict::Unresolved
    } else if worse > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compares every workload found in `a` with the same workload in `b`.
/// Returns the printed table and whether anything regressed, failed its
/// correctness check, or is missing from `b`.
pub fn compare(a: &[Artifact], b: &[Artifact]) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<14} {:>5} {:>14} {:>14} {:>7} {:>6}  verdict\n",
        "workload", "metric", "runs", "A", "B", "B/A", "bound"
    );
    let mut violation = false;
    let mut names: Vec<&str> = Vec::new();
    for x in a {
        if !names.contains(&x.workload.as_str()) {
            names.push(&x.workload);
        }
    }
    for name in names {
        let xs: Vec<&Artifact> = a.iter().filter(|x| x.workload == name).collect();
        let ys: Vec<&Artifact> = b.iter().filter(|y| y.workload == name).collect();
        if ys.is_empty() {
            out.push_str(&format!("{name:<16} missing from B\n"));
            violation = true;
            continue;
        }
        let failed = xs.iter().chain(&ys).filter(|r| !r.correct).count();
        if failed > 0 {
            out.push_str(&format!(
                "{name:<16} {failed} run(s) failed their correctness check\n"
            ));
            violation = true;
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let (sa, sb) = (Side::of(&xs, i), Side::of(&ys, i));
            let v = verdict(m, sa, sb);
            violation |= v == Verdict::Regressed;
            let ratio = if sa.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:.3}", sb.value / sa.value)
            };
            out.push_str(&format!(
                "{:<16} {:<14} {:>5} {:>14.6} {:>14.6} {:>7} {:>6.2}  {}\n",
                name,
                m.name,
                format!("{}/{}", xs.len(), ys.len()),
                sa.value,
                sb.value,
                ratio,
                m.bound,
                v.name()
            ));
        }
    }
    (out, violation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn verdicts_follow_bound_floor_and_spread() {
        let [run_s, eps, setup, _, failed] = &END_TO_END;
        let b = run_s.bound;
        // Within the bound: fine; beyond it: regressed.
        assert_eq!(
            verdict(run_s, s(1.0, 0.02), s(1.0 + b / 2.0, 0.02)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(run_s, s(1.0, 0.02), s(1.0 + 2.0 * b, 0.02)),
            Verdict::Regressed
        );
        // A spread wider than the bound leaves it unresolved.
        assert_eq!(
            verdict(run_s, s(1.0, 2.0 * b), s(1.0, 0.0)),
            Verdict::Unresolved
        );
        // Higher is better: a drop beyond the bound regresses, a rise never does.
        assert_eq!(
            verdict(eps, s(100.0, 1.0), s(100.0 * (1.0 - 2.0 * b), 1.0)),
            Verdict::Regressed
        );
        assert_eq!(verdict(eps, s(100.0, 1.0), s(150.0, 1.0)), Verdict::Ok);
        // Sub-millisecond set-up doubling stays under the 1 ms floor.
        assert_eq!(verdict(setup, s(2e-4, 2e-5), s(4e-4, 2e-5)), Verdict::Ok);
        // Any failure regresses failed_frac (bound 0).
        assert_eq!(verdict(failed, s(0.0, 0.0), s(0.0, 0.0)), Verdict::Ok);
        assert_eq!(
            verdict(failed, s(0.0, 0.0), s(0.1, 0.0)),
            Verdict::Regressed
        );
    }
}
