//! Minimal micro-benchmark harness with a criterion-shaped API.
//!
//! The workspace must build hermetically offline, so the benches run on
//! this small in-tree harness instead of the external `criterion` crate.
//! It keeps the same call shape (`Criterion::benchmark_group`,
//! `bench_function`, `Bencher::iter`, [`crate::criterion_group!`] /
//! [`crate::criterion_main!`]) so bench sources read identically, but does
//! plain calibrated timing: warm up, pick an iteration count that fills a
//! sample window, take several samples, report the fastest (least-noise)
//! sample in ns/iter.
//!
//! Passing `--quick` (or setting `HP_BENCH_QUICK=1`) shrinks windows and
//! sample counts so a full run finishes in seconds — used by CI smoke runs.
//! Any other argument except the `--bench` that `cargo bench` adds prints
//! `error: …` plus a usage line and exits 2 (see `parse_args`).

use std::time::{Duration, Instant};

/// Identifies one benchmark inside a group, optionally parameterised.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter` id (e.g. `"Ripple/256"`).
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }

    /// Id that is just the parameter (e.g. `"8"`).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// Top-level harness handle; hands out named benchmark groups.
#[derive(Debug)]
pub struct Criterion {
    quick: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let quick = match parse_args(std::env::args().skip(1)) {
            Ok(quick) => quick,
            Err(e) => {
                eprintln!("error: {e}\nusage: cargo bench -p hp-bench [--bench NAME] -- [--quick]");
                std::process::exit(2);
            }
        };
        Criterion {
            quick: quick || std::env::var_os("HP_BENCH_QUICK").is_some(),
        }
    }
}

/// Reads a bench target's arguments (without `argv[0]`): `--bench`, which
/// `cargo bench` passes to every harness-less target, and `--quick`.
/// Returns whether `--quick` was given; any other argument is an error.
fn parse_args<S: AsRef<str>>(args: impl IntoIterator<Item = S>) -> Result<bool, String> {
    let mut quick = false;
    for arg in args {
        match arg.as_ref() {
            "--bench" => {}
            "--quick" => quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(quick)
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n{name}");
        BenchmarkGroup {
            _c: self,
            samples: 7,
            quick: self.quick,
        }
    }
}

/// A named group of benchmarks sharing sample configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _c: &'a Criterion,
    samples: usize,
    quick: bool,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(2);
        self
    }

    /// Runs one benchmark closure and prints its timing line.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(name, &mut f);
        self
    }

    /// Runs one parameterised benchmark (the input is passed by reference).
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.label, &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Ends the group (symmetry with criterion; nothing to flush).
    pub fn finish(self) {}

    fn run(&mut self, name: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let window = if self.quick {
            Duration::from_millis(2)
        } else {
            Duration::from_millis(20)
        };
        let samples = if self.quick { 3 } else { self.samples };
        let mut b = Bencher {
            window,
            iters_hint: 1,
            best_ns_per_iter: f64::INFINITY,
        };
        // Warm-up + calibration pass, then timed samples.
        for _ in 0..=samples {
            f(&mut b);
        }
        println!("  {name:<40} {:>12} ns/iter", format_ns(b.best_ns_per_iter));
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 100.0 {
        format!("{ns:.0}")
    } else if ns >= 1.0 {
        format!("{ns:.1}")
    } else {
        format!("{ns:.3}")
    }
}

/// Timer handle passed to each benchmark closure; call [`Bencher::iter`].
#[derive(Debug)]
pub struct Bencher {
    window: Duration,
    iters_hint: u64,
    best_ns_per_iter: f64,
}

impl Bencher {
    /// Times `f` in a tight loop for one sample window and records the
    /// best observed ns/iter across samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let iters = self.iters_hint.max(1);
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        let ns = elapsed.as_nanos() as f64 / iters as f64;
        if ns < self.best_ns_per_iter {
            self.best_ns_per_iter = ns;
        }
        // Re-calibrate so the next sample roughly fills the window.
        let target_ns = self.window.as_nanos() as f64;
        let next = if ns > 0.0 {
            (target_ns / ns).clamp(1.0, 1e9) as u64
        } else {
            1 << 20
        };
        self.iters_hint = next.max(1);
    }
}

/// Collects benchmark functions into a single runner function, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($f:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::microbench::Criterion::default();
            $( $f(&mut c); )+
        }
    };
}

/// Declares `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("Ripple", 256).label, "Ripple/256");
        assert_eq!(BenchmarkId::from_parameter(8).label, "8");
    }

    #[test]
    fn args_accept_only_bench_and_quick() {
        let none: [&str; 0] = [];
        assert_eq!(parse_args(none), Ok(false));
        assert_eq!(parse_args(["--bench"]), Ok(false));
        assert_eq!(parse_args(["--quick"]), Ok(true));
        assert_eq!(parse_args(["--bench", "--quick"]), Ok(true));
        assert_eq!(parse_args(["--quick", "--bench"]), Ok(true));
        for bad in ["--quik", "quick", "-q", "--", "", "--bench=1", "kernels"] {
            assert_eq!(
                parse_args(["--bench", bad]),
                Err(format!("unknown argument `{bad}`")),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn bencher_records_a_finite_time() {
        let mut b = Bencher {
            window: Duration::from_micros(100),
            iters_hint: 1,
            best_ns_per_iter: f64::INFINITY,
        };
        for _ in 0..3 {
            b.iter(|| std::hint::black_box(1u64 + 1));
        }
        assert!(b.best_ns_per_iter.is_finite());
        assert!(b.iters_hint >= 1);
    }
}
