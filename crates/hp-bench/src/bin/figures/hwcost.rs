//! §IV-C hardware-cost model sweep: area/power/latency across monitoring
//! and ready-set sizes, and the ripple-vs-Brent–Kung PPA ablation.

use super::*;
use hp_core::cost::{estimate, TechModel};
use hp_core::ready_set::PpaKind;

/// Nothing here runs a simulation, so no flag changes the output.
pub fn render(_: &HarnessOpts, _: &Runs, out: &mut String) -> Verdict {
    let tech = TechModel::default();

    let mut table = Table::new(
        "Hardware cost sweep (16 cores)",
        &[
            "entries",
            "ppa",
            "ready_mm2",
            "monitor_mm2",
            "area_%cores",
            "latency_ns",
            "power_%core",
        ],
    );
    for &entries in &[256usize, 512, 1024, 2048, 4096] {
        for ppa in [PpaKind::BrentKung, PpaKind::Ripple] {
            let r = estimate(&tech, entries, entries, 16, ppa);
            table.row(vec![
                entries.to_string(),
                format!("{ppa:?}"),
                format!("{:.3}", r.ready_area_mm2),
                format!("{:.3}", r.monitoring_area_mm2),
                format!("{:.2}", r.area_fraction_of_cores * 100.0),
                format!("{:.2}", r.ready_latency_ns),
                format!("{:.1}", r.power_fraction_of_one_core * 100.0),
            ]);
        }
    }
    write!(out, "{table}")?;

    writeln!(
        out,
        "\nExpected shape: Brent-Kung latency grows logarithmically with entries;"
    )?;
    writeln!(
        out,
        "ripple latency is linear and prohibitive beyond a few dozen queues."
    )?;
    Ok(())
}
