//! Every harness binary rejects a bad command line the same way: exit
//! status 2, `error: …` plus a usage line on stderr, and nothing on
//! stdout (no simulation started).

use std::process::Command;

/// Each binary with one of its value flags (for the missing-value case).
const BINS: [(&str, &str, &str); 7] = [
    ("attrib-diff", env!("CARGO_BIN_EXE_attrib-diff"), "--gate"),
    ("chaos", env!("CARGO_BIN_EXE_chaos"), "--threads"),
    ("faults", env!("CARGO_BIN_EXE_faults"), "--threads"),
    ("figures", env!("CARGO_BIN_EXE_figures"), "--par-workers"),
    ("inspect", env!("CARGO_BIN_EXE_inspect"), "--workload"),
    ("scale", env!("CARGO_BIN_EXE_scale"), "--digest"),
    ("trace", env!("CARGO_BIN_EXE_trace"), "--attrib"),
];

/// Runs `exe args` and checks the rejection contract.
fn assert_rejected(name: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name} {args:?} should exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.starts_with("error: ") && stderr.contains("usage"),
        "{name} {args:?}: no error and usage on stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{name} {args:?} started work before rejecting: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn every_binary_rejects_bad_command_lines() {
    for (name, exe, value_flag) in BINS {
        for args in [
            &["--no-such-flag"][..],
            &["--quick", "--quick"],
            &["--threads", "0"],
            &["--quick", value_flag],
            &[value_flag, "--quick"],
        ] {
            assert_rejected(name, exe, args);
        }
    }
}

#[test]
fn binary_specific_values_are_checked_before_running() {
    let exe = |name: &str| BINS.iter().find(|b| b.0 == name).expect("known binary").1;
    for (name, args) in [
        ("figures", &["--quik"][..]),
        ("figures", &["--help"]),
        ("faults", &["stray"]),
        // Table names are checked before the first table runs.
        ("figures", &["fig99"]),
        ("figures", &["--quick", "table1", "fig8", "fig8"]),
        ("inspect", &["--workload", "foo"]),
        ("inspect", &["--queues", "abc"]),
        ("inspect", &["--load", "0"]),
        ("inspect", &["--load", "101"]),
        ("inspect", &["--cores", "3", "--cluster", "2"]),
        // Passes `validate()`, but the build runs out of spare doorbells.
        (
            "inspect",
            &[
                "--quick",
                "--workload",
                "dispatch",
                "--shape",
                "pc",
                "--queues",
                "1024",
                "--notifier",
                "hyperplane",
                "--cores",
                "4",
                "--cluster",
                "4",
            ],
        ),
        ("scale", &["--queues", "1024,x"]),
        ("attrib-diff", &["a.json"]),
        ("attrib-diff", &["a.json", "b.json", "c.json"]),
        ("attrib-diff", &["a.json", "b.json", "--gate", "lots"]),
    ] {
        assert_rejected(name, exe(name), args);
    }
}

/// `--par-workers N` is a common flag, not a positional: `attrib-diff`
/// gets as far as reading its two artifacts, and an unreadable one is
/// refused like a bad flag.
#[test]
fn attrib_diff_takes_common_flags_among_positionals() {
    let exe = env!("CARGO_BIN_EXE_attrib-diff");
    assert_rejected(
        "attrib-diff",
        exe,
        &["--par-workers", "2", "no-such.json", "b.json"],
    );
    let out = Command::new(exe)
        .args(["--par-workers", "2", "no-such.json", "b.json"])
        .output()
        .expect("spawn attrib-diff");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such.json: cannot read"), "{stderr}");
}

/// `figures` writes below `results/`; run from a directory without one
/// (here the crate's own), it refuses before the first table runs rather
/// than creating a stray output tree.
#[test]
fn figures_refuses_a_directory_without_results() {
    let dir = env!("CARGO_MANIFEST_DIR");
    assert!(!std::path::Path::new(dir).join("results").exists());
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--quick", "hwcost"])
        .current_dir(dir)
        .output()
        .expect("spawn figures");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("repository root"), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(!std::path::Path::new(dir).join("results").exists());
}
