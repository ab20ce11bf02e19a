//! Every harness binary rejects a bad command line the same way: exit
//! status 2, `error: …` plus a usage line on stderr, and nothing on
//! stdout (no simulation started).

use std::process::Command;

/// Each binary with one of its value flags (for the missing-value case).
const BINS: [(&str, &str, &str); 4] = [
    ("attrib-diff", env!("CARGO_BIN_EXE_attrib-diff"), "--gate"),
    ("figures", env!("CARGO_BIN_EXE_figures"), "--par-workers"),
    ("inspect", env!("CARGO_BIN_EXE_inspect"), "--workload"),
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
        ("trace", &["stray"]),
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
        ("attrib-diff", &["a.json"]),
        ("attrib-diff", &["a.json", "b.json", "c.json"]),
        ("attrib-diff", &["a.json", "b.json", "--gate", "lots"]),
    ] {
        assert_rejected(name, exe(name), args);
    }
    // A common flag the binary does not read is refused, not ignored.
    for (name, args) in [
        ("trace", &["--threads", "2"][..]),
        ("inspect", &["--par-workers", "2"]),
        ("attrib-diff", &["--quick", "a.json", "b.json"]),
    ] {
        let stderr = assert_rejected(name, exe(name), args);
        let want = format!("error: unknown flag {}\n", args[0]);
        assert!(stderr.starts_with(&want), "{name} {args:?}: {stderr}");
    }
}

/// A value flag's value is not a positional: `figures --threads 1 fig99`
/// names `fig99`, not `1`, as the unknown table.
#[test]
fn value_flag_values_are_not_positionals() {
    let exe = env!("CARGO_BIN_EXE_figures");
    let stderr = assert_rejected("figures", exe, &["--threads", "1", "fig99"]);
    assert!(
        stderr.starts_with("error: unknown table \"fig99\""),
        "{stderr}"
    );
}

/// A real `trace --attrib` artifact (with every other artifact flag of
/// `trace` exercised alongside), written into `dir` as `base.json`.
fn attrib_artifact(dir: &std::path::Path) -> String {
    std::fs::create_dir_all(dir).expect("create temp dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let traced = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["--quick", "--attrib", &path("base.json")])
        .args([
            "--trace",
            &path("trace.json"),
            "--metrics",
            &path("m.jsonl"),
        ])
        .args(["--profile", &path("profile.json")])
        .output()
        .expect("spawn trace");
    assert!(traced.status.success(), "trace --attrib failed");
    path("base.json")
}

/// `trace` writes only the artifacts whose flags name a path: a run asking
/// for the attribution and the profile leaves no Chrome trace or metrics
/// file in its working directory.
#[test]
fn trace_writes_only_the_named_artifacts() {
    let dir = std::env::temp_dir().join(format!("hp-bench-cli-cwd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args([
            "--quick",
            "--attrib",
            "attrib.json",
            "--profile",
            "profile.json",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn trace");
    assert!(
        out.status.success(),
        "trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("list temp dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    written.sort();
    assert_eq!(written, ["attrib.json", "profile.json"]);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// `attrib-diff` refuses a malformed artifact before printing anything:
/// a missing phase, a phase without a number the diff reads, and a
/// renamed phase. The cases are cut from a real `trace --attrib` artifact.
#[test]
fn attrib_diff_refuses_malformed_artifacts() {
    let dir = std::env::temp_dir().join(format!("hp-bench-cli-{}", std::process::id()));
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let base = std::fs::read_to_string(attrib_artifact(&dir)).expect("read artifact");

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

/// `text` with the first `"mean_cycles"` after `anchor` scaled by 1.5.
fn inflate(text: &str, anchor: &str) -> String {
    let key = r#""mean_cycles":"#;
    let from = text.find(anchor).expect("anchor present");
    let at = from + text[from..].find(key).expect("a mean after the anchor") + key.len();
    let end = at + text[at..].find(',').expect("more fields follow");
    let mean: f64 = text[at..end].parse().expect("a number");
    format!("{}{}{}", &text[..at], mean * 1.5, &text[end..])
}

/// `attrib-diff --gate` passes a self-diff and fails a candidate whose
/// end-to-end and service means are half again the baseline's, naming
/// service as the guilty phase.
#[test]
fn attrib_diff_gate_names_the_regressed_phase() {
    let dir = std::env::temp_dir().join(format!("hp-bench-gate-{}", std::process::id()));
    let base = attrib_artifact(&dir);
    let exe = env!("CARGO_BIN_EXE_attrib-diff");
    let diff = |cand: &str| {
        let out = Command::new(exe)
            .args([&base, cand, "--gate", "5"])
            .output();
        out.expect("spawn attrib-diff")
    };

    let same = diff(&base);
    assert_eq!(same.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&same.stdout).contains("gate ok"));

    let text = std::fs::read_to_string(&base).expect("read artifact");
    let slower = inflate(&inflate(&text, r#""end_to_end""#), r#""phase":"service""#);
    let cand = dir.join("slower.json");
    std::fs::write(&cand, slower).expect("write artifact");
    let worse = diff(&cand.to_string_lossy());
    let stderr = String::from_utf8_lossy(&worse.stderr);
    assert_eq!(worse.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("GATE FAILED") && stderr.contains("guilty phase: service"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
