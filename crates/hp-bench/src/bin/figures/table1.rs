//! Table I — the modeled microarchitecture, plus §IV-C hardware costs.

use super::*;
use hp_core::cost;
use hp_core::qwait::HyperPlaneConfig;
use hp_sdp::config::MicroarchConfig;

/// Nothing here runs a simulation, so no flag changes the output.
pub fn render(_: &HarnessOpts, _: &Runs, out: &mut String) -> Verdict {
    let m = MicroarchConfig::default();
    let hp = HyperPlaneConfig::table1();

    let mut table = Table::new(
        "Table I: microarchitecture details",
        &["component", "value"],
    );
    table.row(vec![
        "Core".into(),
        "8-wide issue OoO class, 2.0 GHz (timing model)".into(),
    ]);
    table.row(vec![
        "L1 I/D".into(),
        "private, 32 KB, 64 B lines, 4-way SA".into(),
    ]);
    table.row(vec![
        "LLC".into(),
        format!("{} MB shared (1 MB/core), 64 B lines, 16-way SA", m.cores),
    ]);
    table.row(vec![
        "CMP".into(),
        format!("{} cores, directory-based MESI coherence", m.cores),
    ]);
    table.row(vec![
        "HyperPlane".into(),
        format!(
            "{}-entry monitoring and {}-entry ready set",
            hp.monitoring_entries, hp.ready_qids
        ),
    ]);
    table.row(vec![
        "QWAIT latency".into(),
        format!("{} cycles", hp.timing.qwait.count()),
    ]);
    table.row(vec![
        "Monitoring lookup".into(),
        format!("{} cycles", hp.timing.monitor_lookup.count()),
    ]);
    write!(out, "{table}")?;

    let r = cost::paper_configuration();
    let mut table = Table::new(
        "Sec IV-C: hardware cost estimates (32 nm model)",
        &["metric", "modeled", "paper"],
    );
    table.row(vec![
        "ready set area".into(),
        format!("{:.3} mm2", r.ready_area_mm2),
        "0.13 mm2".into(),
    ]);
    table.row(vec![
        "monitoring set area".into(),
        format!("{:.3} mm2", r.monitoring_area_mm2),
        "0.21 mm2".into(),
    ]);
    table.row(vec![
        "area vs 16-core total".into(),
        format!("{:.2}%", r.area_fraction_of_cores * 100.0),
        "0.26%".into(),
    ]);
    table.row(vec![
        "ready set latency".into(),
        format!("{:.2} ns", r.ready_latency_ns),
        "12.25 ns".into(),
    ]);
    table.row(vec![
        "power vs one core".into(),
        format!("{:.1}%", r.power_fraction_of_one_core * 100.0),
        "6.2%".into(),
    ]);
    table.row(vec![
        "power vs 16 cores".into(),
        format!("{:.2}%", r.power_fraction_of_chip_cores * 100.0),
        "0.4%".into(),
    ]);
    write!(out, "{table}")?;
    Ok(())
}
