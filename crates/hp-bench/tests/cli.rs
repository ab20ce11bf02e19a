//! Every harness binary rejects a bad command line the same way: exit
//! status 2, `error: …` plus a usage line on stderr, and nothing on
//! stdout (no simulation started).

use std::process::Command;

/// Each binary with one of its value flags (for the missing-value case).
const BINS: [(&str, &str, &str); 5] = [
    ("attrib-diff", env!("CARGO_BIN_EXE_attrib-diff"), "--gate"),
    ("figures", env!("CARGO_BIN_EXE_figures"), "--par-workers"),
    ("inspect", env!("CARGO_BIN_EXE_inspect"), "--workload"),
    ("scale", env!("CARGO_BIN_EXE_scale"), "--digest"),
    ("trace", env!("CARGO_BIN_EXE_trace"), "--attrib"),
];

/// Runs `exe args`, checks the rejection contract and returns stderr.
fn assert_rejected(name: &str, exe: &str, args: &[&str]) -> String {
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
    stderr.into_owned()
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
        ("scale", &["stray"]),
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
        // Parses, but the engine cannot build the point.
        ("scale", &["--quick", "--queues", "0"]),
        ("scale", &["--quick", "--queues", "3,1024"]),
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
    let args = ["--par-workers", "2", "no-such.json", "b.json"];
    let stderr = assert_rejected("attrib-diff", exe, &args);
    assert!(stderr.contains("no-such.json: cannot read"), "{stderr}");
}

/// `attrib-diff` refuses a malformed artifact before printing anything:
/// a missing phase, a phase without a number the diff reads, and a
/// renamed phase. The cases are cut from a real `trace --attrib` artifact.
#[test]
fn attrib_diff_refuses_malformed_artifacts() {
    let dir = std::env::temp_dir().join(format!("hp-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let traced = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["--quick", "--threads", "1", "--attrib", &path("base.json")])
        .args([
            "--trace",
            &path("trace.json"),
            "--metrics",
            &path("m.jsonl"),
        ])
        .output()
        .expect("spawn trace");
    assert!(traced.status.success(), "trace --attrib failed");
    let base = std::fs::read_to_string(path("base.json")).expect("read artifact");

    let last = base
        .find(r#",{"phase":"service""#)
        .expect("a service phase");
    let end = last + base[last..].find('}').expect("phase object ends") + 1;
    let no_service = format!("{}{}", &base[..last], &base[end..]);
    let (e2e, phases) = base.split_at(base.find(r#""phases""#).expect("a phase list"));
    let no_mean = e2e.to_string() + &phases.replacen(r#""mean_cycles""#, r#""mean""#, 1);
    let renamed = base.replace(r#""phase":"dispatch""#, r#""phase":"dispatches""#);
    for (name, text, msg) in [
        ("no-service.json", no_service, "phases"),
        ("no-mean.json", no_mean, "missing number \"mean_cycles\""),
        ("renamed.json", renamed, "phases"),
    ] {
        std::fs::write(path(name), text).expect("write artifact");
        let exe = env!("CARGO_BIN_EXE_attrib-diff");
        let stderr = assert_rejected("attrib-diff", exe, &[&path("base.json"), &path(name)]);
        let want = format!("error: {}: {msg}", path(name));
        assert!(stderr.starts_with(&want), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
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
