//! Attribution run-diff: compare two `hp-attrib-v1` latency-attribution
//! artifacts (written by `trace --attrib`) and report *which phase*
//! regressed — so a perf-gate trip names the guilty phase instead of just
//! a throughput ratio.
//!
//! ```sh
//! cargo run --release -p hp-bench --bin attrib-diff -- \
//!     baseline.json candidate.json [--gate 10]
//! ```
//!
//! Prints a per-phase table (mean / p99 / total-cycle share in both runs
//! and the deltas) plus an end-to-end summary, and names the phase with
//! the largest mean-cycles regression. With `--gate PCT` the process
//! exits nonzero when end-to-end mean latency regressed by more than
//! `PCT` percent — the message names the guilty phase. The table is
//! followed by its CSV block, like every harness table.

use hp_bench::cli::{self, CliError};
use hp_bench::Table;
use hp_bytes::json::{parse, JsonValue};
use hp_sim::attrib::Phase;

/// The per-phase numbers pulled out of one artifact.
struct PhaseRow {
    name: String,
    share: f64,
    mean_cycles: f64,
    p99_cycles: u64,
}

/// The comparable surface of one `hp-attrib-v1` artifact.
struct Artifact {
    completed: u64,
    e2e_mean: f64,
    e2e_p99: u64,
    phases: Vec<PhaseRow>,
}

/// Loads and validates one artifact: a diff against a malformed or
/// unconserved artifact is meaningless, so either is a bad input. A
/// missing number is malformed, not zero, and the phases must be the
/// schema's, in order, since the diff pairs them by position.
fn load(path: &str) -> Result<Artifact, CliError> {
    let fail = |msg: String| CliError(format!("{path}: {msg}"));
    let text = std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read: {e}")))?;
    let doc = parse(&text).map_err(|e| fail(e.to_string()))?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| fail(format!("missing key \"{key}\"")))
    };
    let num = |obj: &JsonValue, key: &str| {
        let v = obj.get(key).and_then(JsonValue::as_f64);
        v.ok_or_else(|| fail(format!("missing number \"{key}\"")))
    };
    let int = |obj: &JsonValue, key: &str| {
        let v = obj.get(key).and_then(JsonValue::as_u64);
        v.ok_or_else(|| fail(format!("missing integer \"{key}\"")))
    };
    match field("schema")?.as_str() {
        Some("hp-attrib-v1") => {}
        other => return Err(fail(format!("unsupported schema {other:?}"))),
    }
    let e2e = field("end_to_end")?;
    let phases = field("phases")?
        .as_array()
        .ok_or_else(|| fail("\"phases\" is not an array".into()))?
        .iter()
        .map(|p| {
            Ok(PhaseRow {
                name: p
                    .get("phase")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string(),
                share: num(p, "share")?,
                mean_cycles: num(p, "mean_cycles")?,
                p99_cycles: int(p, "p99_cycles")?,
            })
        })
        .collect::<Result<Vec<_>, CliError>>()?;
    let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
    let want: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    if names != want {
        return Err(fail(format!("phases {names:?}, expected {want:?}")));
    }
    if field("conserved")?.as_bool() != Some(true) {
        return Err(fail(
            "attribution not conserved — artifact untrustworthy".into(),
        ));
    }
    Ok(Artifact {
        completed: int(&doc, "completed")?,
        e2e_mean: num(e2e, "mean_cycles")?,
        e2e_p99: int(e2e, "p99_cycles")?,
        phases,
    })
}

/// Signed percentage change from `base` to `cand` (0 when base is 0).
fn pct(base: f64, cand: f64) -> f64 {
    if base > 0.0 {
        (cand - base) / base * 100.0
    } else {
        0.0
    }
}

fn main() {
    // The artifacts are inputs too: a bad one is refused like a bad flag.
    let (_, (paths, gate, base, cand)) = cli::from_env(cli::ATTRIB_DIFF, |_, a| {
        let gate: Option<f64> = a.parsed("--gate", "a percentage")?;
        let (base, cand) = (load(&a.positionals[0])?, load(&a.positionals[1])?);
        Ok((a.positionals, gate, base, cand))
    });

    println!(
        "attrib-diff: {} ({} chains) vs {} ({} chains)",
        paths[0], base.completed, paths[1], cand.completed
    );

    let mut t = Table::new(
        "Phase diff (cycles)",
        &[
            "phase",
            "base mean",
            "cand mean",
            "mean %",
            "base p99",
            "cand p99",
            "base share",
            "cand share",
        ],
    );
    // The guilty phase is the one contributing the most additional mean
    // cycles — additivity makes per-phase mean deltas directly
    // comparable across phases.
    let mut guilty: Option<(&str, f64)> = None;
    for (b, c) in base.phases.iter().zip(&cand.phases) {
        let d_mean = c.mean_cycles - b.mean_cycles;
        if guilty.is_none_or(|(_, worst)| d_mean > worst) {
            guilty = Some((&b.name, d_mean));
        }
        t.row(vec![
            b.name.clone(),
            format!("{:.0}", b.mean_cycles),
            format!("{:.0}", c.mean_cycles),
            format!("{:+.1}%", pct(b.mean_cycles, c.mean_cycles)),
            b.p99_cycles.to_string(),
            c.p99_cycles.to_string(),
            format!("{:.1}%", b.share * 100.0),
            format!("{:.1}%", c.share * 100.0),
        ]);
    }
    print!("{t}");

    let e2e_pct = pct(base.e2e_mean, cand.e2e_mean);
    println!(
        "\nend-to-end: mean {:.0} -> {:.0} cycles ({:+.1}%), p99 {} -> {}",
        base.e2e_mean, cand.e2e_mean, e2e_pct, base.e2e_p99, cand.e2e_p99
    );
    match guilty {
        Some((name, delta)) if delta > 0.0 => {
            println!("largest regression: {name} ({delta:+.0} mean cycles)");
        }
        _ => println!("no phase regressed"),
    }

    if let Some(limit) = gate {
        if e2e_pct > limit {
            let (name, delta) = guilty.unwrap_or(("?", 0.0));
            eprintln!(
                "GATE FAILED: end-to-end mean regressed {e2e_pct:+.1}% (limit {limit}%) — \
                 guilty phase: {name} ({delta:+.0} mean cycles)"
            );
            std::process::exit(1);
        }
        println!("gate ok: {e2e_pct:+.1}% within {limit}%");
    }
}
