//! DESIGN.md §6 documents each task's calibrated constants; this test pins
//! that table to `WorkloadKind`, so a changed constant or a stale row fails
//! here rather than misleading a reader.

use hyperplane::workloads::WorkloadKind;

const DESIGN: &str = include_str!("../DESIGN.md");

/// The body of the section whose heading starts with `## {number}.`.
fn section(number: u32) -> &'static str {
    let heading = format!("\n## {number}. ");
    let start = DESIGN.find(&heading).expect("section heading present") + 1;
    let body = &DESIGN[start..];
    body.find("\n## ").map_or(body, |end| &body[..end])
}

/// The cells of one Markdown table row, trimmed.
fn cells(row: &str) -> Vec<&str> {
    row.trim()
        .trim_matches('|')
        .split('|')
        .map(str::trim)
        .collect()
}

#[test]
fn calibration_table_matches_workload_rows() {
    let table = section(6);
    let header = table
        .lines()
        .find(|l| l.starts_with("| Workload |"))
        .expect("§6 table header");
    let column = |name: &str| {
        cells(header)
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("§6 table has no {name:?} column"))
    };
    let (mean_col, lines_col) = (column("mean service"), column("buffer lines"));
    for kind in WorkloadKind::ALL {
        let row = table
            .lines()
            .find(|l| l.starts_with(&format!("| {}", kind.name())))
            .unwrap_or_else(|| panic!("§6 table has no row for {kind}"));
        let row = cells(row);
        let mean: f64 = row[mean_col]
            .strip_prefix("≈ ")
            .and_then(|c| c.strip_suffix(" µs"))
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("{kind}: mean cell {:?} is not `≈ X µs`", row[mean_col]));
        assert_eq!(mean, kind.mean_service_us(), "{kind}: mean service");
        let lines: u64 = row[lines_col]
            .split_whitespace()
            .next()
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("{kind}: lines cell {:?} has no count", row[lines_col]));
        assert_eq!(lines, kind.buffer_lines(), "{kind}: buffer lines");
    }
}
