//! The one strict argument parser of the harness binaries. [`parse`] is a
//! pure function of argv and the binary's [`Spec`]: it rejects unknown and
//! repeated flags, a value flag with no value (nothing or another `--flag`
//! after it), a non-positive `--threads`/`--par-workers`, and a wrong
//! positional count. [`from_env`] prints any [`CliError`], from the parse
//! or from the binary's typed reading of its values, as `error: …` plus a
//! one-line usage on stderr and exits 2 before any simulation starts.

use crate::HarnessOpts;
use std::path::Path;
use std::str::FromStr;

/// A binary's arguments beyond the common flags, written as the tail of its
/// usage line: `[--flag VALUE]` per value flag, then one bare word per
/// required positional, or `[WORD...]` for any number of them. The usage
/// line thus always matches the parser.
#[derive(Debug, Clone, Copy)]
pub struct Spec(pub &'static str);

/// `figures`: the tables to render, all of them when none is named.
pub const FIGURES: Spec = Spec("[NAME...]");
/// `trace`: where each artifact is written.
pub const TRACE: Spec = Spec("[--trace PATH] [--metrics PATH] [--profile PATH] [--attrib PATH]");
/// `scale`: an explicit queue-count list and the digest path.
pub const SCALE: Spec = Spec("[--queues N,N,...] [--digest PATH]");
/// `inspect`: the one configuration to report on.
pub const INSPECT: Spec = Spec(
    "[--workload NAME] [--shape NAME] [--queues N] [--notifier NAME] [--load PCT] [--cores N] \
     [--cluster N]",
);
/// `attrib-diff`: two artifacts and an optional regression gate.
pub const ATTRIB_DIFF: Spec = Spec("[--gate PCT] BASELINE.json CANDIDATE.json");

/// A rejected command line; the message says what is wrong with it.
#[derive(Debug, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The error for a `flag` whose `value` is not `want`.
pub fn bad(flag: &str, value: &str, want: &str) -> CliError {
    CliError(format!("{flag} takes {want}, got {value:?}"))
}

/// A binary's extra flag values and positionals, as given.
#[derive(Debug, Default)]
pub struct Args {
    values: Vec<(String, String)>,
    /// The positionals, in order.
    pub positionals: Vec<String>,
}

impl Args {
    /// The value of `flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        let given = self.values.iter().find(|(f, _)| f == flag);
        given.map(|(_, v)| v.as_str())
    }

    /// The value of `flag` parsed as `T`, which `want` names in the error.
    pub fn parsed<T: FromStr>(&self, flag: &str, want: &str) -> Result<Option<T>, CliError> {
        let parse = |v: &str| v.parse().map_err(|_| bad(flag, v, want));
        self.get(flag).map(parse).transpose()
    }

    /// The value of `flag` looked up by name in `table`.
    pub fn choice<T: Copy>(&self, flag: &str, table: &[(&str, T)]) -> Result<Option<T>, CliError> {
        let names: Vec<&str> = table.iter().map(|&(name, _)| name).collect();
        let find = |v: &str| table.iter().find(|e| e.0 == v).map(|e| e.1);
        let pick = |v: &str| find(v).ok_or_else(|| bad(flag, v, &names.join("|")));
        self.get(flag).map(pick).transpose()
    }
}

/// Parses `argv` (program name first) against `spec`.
///
/// # Errors
///
/// The first bad token in argv order; the positional count is checked last.
pub fn parse(argv: &[String], spec: Spec) -> Result<(HarnessOpts, Args), CliError> {
    let words = || spec.0.split_whitespace();
    let mut opts = HarnessOpts {
        quick: false,
        threads: hp_par::available_parallelism(),
        par_workers: 1,
    };
    let mut args = Args::default();
    let mut seen: Vec<&String> = Vec::new();
    let mut tokens = argv.iter().skip(1).peekable();
    while let Some(tok) = tokens.next() {
        if !tok.starts_with("--") {
            args.positionals.push(tok.clone());
            continue;
        }
        if seen.contains(&tok) {
            return Err(CliError(format!("{tok} given more than once")));
        }
        seen.push(tok);
        let flag = tok.as_str();
        match flag {
            "--quick" => opts.quick = true,
            _ if flag == "--threads"
                || flag == "--par-workers"
                || words().any(|w| w.strip_prefix('[') == Some(flag)) =>
            {
                let Some(value) = tokens.next_if(|v| !v.starts_with("--")) else {
                    return Err(CliError(format!("{flag} needs a value")));
                };
                let positive = || {
                    let n = value.parse().ok().filter(|&n: &usize| n >= 1);
                    n.ok_or_else(|| bad(flag, value, "a positive integer"))
                };
                match flag {
                    "--threads" => opts.threads = positive()?,
                    "--par-workers" => opts.par_workers = positive()?,
                    _ => args.values.push((tok.clone(), value.clone())),
                }
            }
            _ => return Err(CliError(format!("unknown flag {flag}"))),
        }
    }
    let want = words().filter(|w| !w.starts_with('[') && !w.ends_with(']'));
    let (want, got) = (want.count(), args.positionals.len());
    // `[NAME...]`, not a value's `N,N,...]`.
    let variadic = words().any(|w| w.starts_with('[') && w.ends_with("...]"));
    if got < want || (got > want && !variadic) {
        return Err(CliError(format!(
            "expected {want} positional argument(s), got {got}"
        )));
    }
    Ok((opts, args))
}

/// File stem of `argv[0]`: the binary name the usage line shows.
fn bin_name(argv: &[String]) -> String {
    let stem = argv.first().and_then(|p| Path::new(p).file_stem());
    stem.map_or_else(|| "bench".into(), |s| s.to_string_lossy().into_owned())
}

/// The one-line usage for `bin` under `spec`.
fn usage(bin: &str, spec: Spec) -> String {
    let common = "[--quick] [--threads N] [--par-workers N]";
    format!("usage: {bin} {common} {}", spec.0)
        .trim_end()
        .to_string()
}

/// Parses the process arguments against `spec` and hands the common
/// options and the extras to `build`, which reads them into what the
/// binary needs. An error from either step prints `error: …` and the usage
/// line, then exits 2.
pub fn from_env<T>(
    spec: Spec,
    build: impl FnOnce(&HarnessOpts, Args) -> Result<T, CliError>,
) -> (HarnessOpts, T) {
    let argv: Vec<String> = std::env::args().collect();
    let parsed = parse(&argv, spec).and_then(|(opts, args)| {
        let built = build(&opts, args)?;
        Ok((opts, built))
    });
    match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage(&bin_name(&argv), spec));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn ok(line: &str, spec: Spec) -> (HarnessOpts, Args) {
        parse(&argv(line), spec).unwrap_or_else(|e| panic!("`{line}` rejected: {e}"))
    }

    fn err(line: &str, spec: Spec) -> String {
        match parse(&argv(line), spec) {
            Ok(_) => panic!("`{line}` accepted"),
            Err(e) => e.0,
        }
    }

    /// Every invocation in CI, the scripts, the README and the binaries'
    /// own docs parses.
    #[test]
    fn accepts_every_invocation_the_repo_uses() {
        for line in [
            "figures",
            "figures --quick --threads 1",
            "figures --quick --threads 2",
            "figures --threads 2",
            "figures --quick --threads 1 --par-workers 2 fig10",
            "figures --quick --threads 2 validate",
            "figures --quick fig8 summary",
            "figures --quick chaos",
            "figures --quick quickstart fabric",
        ] {
            ok(&format!("./target/release/{line}"), FIGURES);
        }
        for line in [
            "trace --quick --trace trace.json --metrics metrics.jsonl --profile profile.json",
            "trace --quick --threads 1 --trace attrib-trace.json \
             --metrics attrib-metrics.jsonl --attrib attrib-t1.json",
            "trace --trace trace.json --metrics metrics.jsonl",
            "trace --attrib attrib.json",
            "trace --quick --trace out.json --metrics out.jsonl --attrib attrib.json",
        ] {
            ok(line, TRACE);
        }
        for line in [
            "scale",
            "scale --quick --queues 1024,65536 --par-workers 1 --digest scale-w1.txt",
            "scale --quick --queues 1024,65536 --par-workers 2 --digest scale-w2.txt",
            "scale --queues 1024,65536 --digest out.txt",
        ] {
            ok(line, SCALE);
        }
        ok(
            "inspect --workload crypto --shape sq --queues 500 --notifier hyperplane --load 60",
            INSPECT,
        );
        for line in [
            "attrib-diff attrib-t1.json attrib-t2.json --gate 5",
            "attrib-diff baseline.json candidate.json --gate 10",
            "attrib-diff --par-workers 2 a.json b.json",
        ] {
            let (_, args) = ok(line, ATTRIB_DIFF);
            assert_eq!(args.positionals.len(), 2);
        }
    }

    #[test]
    fn reads_common_flags_and_extra_values() {
        let (opts, args) = ok(
            "/x/trace --quick --threads 3 --par-workers 2 --attrib a.json",
            TRACE,
        );
        assert!(opts.quick);
        assert_eq!((opts.threads, opts.par_workers), (3, 2));
        assert_eq!(args.get("--attrib"), Some("a.json"));
        assert_eq!(args.get("--trace"), None);

        let (opts, args) = ok("attrib-diff a.json --gate -5 b.json", ATTRIB_DIFF);
        assert_eq!(opts.par_workers, 1);
        assert_eq!(args.positionals, ["a.json", "b.json"]);
        assert_eq!(args.parsed::<f64>("--gate", "a percentage"), Ok(Some(-5.0)));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for (line, spec, msg) in [
            ("figures --quik", FIGURES, "unknown flag --quik"),
            ("figures --help", FIGURES, "unknown flag --help"),
            ("figures --threads=2", FIGURES, "unknown flag --threads=2"),
            ("figures --trace t.json", FIGURES, "unknown flag --trace"),
            ("trace --PATH x", TRACE, "unknown flag --PATH"),
            // The quickstart and fabric gates are `figures` tables now.
            ("trace --bench x", TRACE, "unknown flag --bench"),
            ("trace --par-bench x", TRACE, "unknown flag --par-bench"),
            // Every table prints its CSV block; there is no other format.
            ("figures --csv", FIGURES, "unknown flag --csv"),
            ("figures --json", FIGURES, "unknown flag --json"),
            (
                "figures --quick --threads 2 --quick",
                FIGURES,
                "--quick given more than once",
            ),
            (
                "trace --attrib a --attrib b",
                TRACE,
                "--attrib given more than once",
            ),
            ("trace --quick --attrib", TRACE, "--attrib needs a value"),
            ("trace --attrib --quick", TRACE, "--attrib needs a value"),
            ("figures --threads", FIGURES, "--threads needs a value"),
            (
                "trace stray",
                TRACE,
                "expected 0 positional argument(s), got 1",
            ),
            (
                "scale --queues 1024,65536 stray",
                SCALE,
                "expected 0 positional argument(s), got 1",
            ),
            (
                "attrib-diff a.json",
                ATTRIB_DIFF,
                "expected 2 positional argument(s), got 1",
            ),
            (
                "attrib-diff a b c",
                ATTRIB_DIFF,
                "expected 2 positional argument(s), got 3",
            ),
            // Flag errors come before the positional count.
            ("attrib-diff --nope", ATTRIB_DIFF, "unknown flag --nope"),
        ] {
            assert_eq!(err(line, spec), msg, "{line}");
        }
        for bad in ["0", "-1", "two", "1.5"] {
            for flag in ["--threads", "--par-workers"] {
                assert_eq!(
                    err(&format!("figures {flag} {bad}"), FIGURES),
                    format!("{flag} takes a positive integer, got {bad:?}")
                );
            }
        }
    }

    #[test]
    fn typed_values_fail_through_the_error_path() {
        let (_, args) = ok("inspect --queues abc --shape xx --load 60", INSPECT);
        assert_eq!(
            args.parsed::<u32>("--queues", "an integer"),
            Err(bad("--queues", "abc", "an integer"))
        );
        assert_eq!(args.parsed::<f64>("--load", "a percentage"), Ok(Some(60.0)));
        assert_eq!(args.parsed::<u32>("--cores", "an integer"), Ok(None));
        let shapes = [("fb", 1), ("sq", 2)];
        assert_eq!(
            args.choice("--shape", &shapes),
            Err(bad("--shape", "xx", "fb|sq"))
        );
        assert_eq!(args.choice("--workload", &shapes), Ok(None));
    }

    #[test]
    fn usage_is_the_spec() {
        assert_eq!(
            usage("attrib-diff", ATTRIB_DIFF),
            "usage: attrib-diff [--quick] [--threads N] [--par-workers N] [--gate PCT] \
             BASELINE.json CANDIDATE.json"
        );
        assert_eq!(
            usage("figures", FIGURES),
            "usage: figures [--quick] [--threads N] [--par-workers N] [NAME...]"
        );
        // Every bracketed group of a spec is exactly one `[--flag VALUE]`.
        for spec in [TRACE, SCALE, INSPECT, ATTRIB_DIFF] {
            let words: Vec<&str> = spec.0.split_whitespace().collect();
            for (i, w) in words.iter().enumerate().filter(|(_, w)| w.starts_with('[')) {
                let value = words[i + 1];
                assert!(w.starts_with("[--") && !w.ends_with(']'), "{}", spec.0);
                assert!(
                    value.ends_with(']') && !value.starts_with('['),
                    "{}",
                    spec.0
                );
            }
        }
    }

    /// `parse` is total over random argv: it never panics, and every
    /// command line it accepts has positive `threads` and `par_workers`,
    /// the spec's positional count (at least that many for a `[NAME...]`
    /// spec), and only the spec's value flags.
    #[test]
    fn parse_is_total_and_sound_on_random_argv() {
        use hp_rand::rngs::SmallRng;
        use hp_rand::{Rng, SeedableRng};
        const COMMON: [&str; 3] = ["--quick", "--threads", "--par-workers"];
        const VALUES: [&str; 12] = [
            "0",
            "1",
            "2",
            "-1",
            "1.5",
            "18446744073709551616",
            "a.json",
            "1024,65536",
            "hyperplane",
            "",
            "-",
            "=",
        ];
        const JUNK: [&str; 6] = ["--", "---", "--help", "--x", "--threads=2", "--QUICK"];
        const TEXT: [char; 8] = ['-', '-', 'a', '1', '0', ',', ' ', 'é'];
        let pick =
            |rng: &mut SmallRng, from: &[&str]| from[rng.random_range(0..from.len())].to_string();
        let mut rng = SmallRng::seed_from_u64(0xC11_A26F);
        let (mut accepted, mut rejected) = (0, 0);
        for spec in [FIGURES, TRACE, SCALE, INSPECT, ATTRIB_DIFF] {
            let words: Vec<&str> = spec.0.split_whitespace().collect();
            let variadic = words
                .iter()
                .any(|w| w.starts_with('[') && w.ends_with("...]"));
            let flags: Vec<&str> = words
                .iter()
                .filter_map(|w| w.strip_prefix('['))
                .filter(|w| w.starts_with("--"))
                .collect();
            let want = words
                .iter()
                .filter(|w| !w.starts_with('[') && !w.ends_with(']'))
                .count();
            for _ in 0..4_000 {
                let mut argv = vec!["bin".to_string()];
                for _ in 0..rng.random_range(0..7usize) {
                    argv.push(match rng.random_range(0..8u8) {
                        0 | 1 => pick(&mut rng, &COMMON),
                        2 if !flags.is_empty() => pick(&mut rng, &flags),
                        3 => pick(&mut rng, &JUNK),
                        4 => (0..rng.random_range(0..6usize))
                            .map(|_| TEXT[rng.random_range(0..TEXT.len())])
                            .collect(),
                        _ => pick(&mut rng, &VALUES),
                    });
                }
                let Ok((opts, args)) = parse(&argv, spec) else {
                    rejected += 1;
                    continue;
                };
                accepted += 1;
                assert!(opts.threads >= 1 && opts.par_workers >= 1, "{argv:?}");
                if variadic {
                    assert!(args.positionals.len() >= want, "{argv:?}");
                } else {
                    assert_eq!(args.positionals.len(), want, "{argv:?}");
                }
                for (flag, _) in &args.values {
                    assert!(flags.contains(&flag.as_str()), "{argv:?}");
                }
            }
        }
        assert!(
            accepted > 1_000 && rejected > 1_000,
            "{accepted} / {rejected}"
        );
    }
}
