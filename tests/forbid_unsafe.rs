//! Every library crate root in the workspace carries
//! `#![forbid(unsafe_code)]`. The roots are found by listing `crates/`,
//! so a new crate is covered without editing this test.

use std::path::{Path, PathBuf};

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut libs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is listable")
        .map(|entry| entry.expect("crates/ entry").path().join("src/lib.rs"))
        .filter(|lib| lib.is_file())
        .collect();
    assert!(!libs.is_empty(), "no crates/*/src/lib.rs found");
    libs.push(root.join("src/lib.rs"));
    let missing: Vec<String> = libs
        .iter()
        .filter(|lib| {
            let src = std::fs::read_to_string(lib).expect("crate root is readable");
            !src.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]")
        })
        .map(|lib| lib.strip_prefix(root).unwrap_or(lib).display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "crate roots without #![forbid(unsafe_code)]: {missing:?}"
    );
}
