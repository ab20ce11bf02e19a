//! Metric definitions, the per-layer ledger, and the two outputs of a
//! run: the `<workload>.json` artifact and the one-line JSON result.

use crate::stats::Summary;
use hp_bytes::json::JsonWriter;
use hp_sdp::result::ExperimentResult;
use hp_sim::attrib::Phase;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator waits for or pays.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline value by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Absolute worsening always tolerated: the noise floor of a
    /// sub-millisecond set-up.
    pub floor: f64,
    /// Whether the per-run value is the fastest round rather than the
    /// median one. Every round simulates bit-identical work (the digest
    /// check proves it), so round-to-round variation is host noise, and
    /// on a shared host that noise only ever adds time: the fastest
    /// round is the least disturbed measurement. Set-up times are
    /// reported as medians.
    pub fastest: bool,
    /// Whether `BENCHMARK.json` declares it. `failed_frac` is not
    /// declared there because it is zero on a healthy run; the result
    /// line's `failed` count carries it instead.
    pub declared: bool,
}

/// Every end-to-end metric.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        fastest: true,
        declared: true,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
        fastest: true,
        declared: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.001,
        fastest: false,
        declared: true,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
        floor: 0.0,
        fastest: false,
        declared: true,
    },
    EndToEnd {
        name: "failed_frac",
        unit: "fraction",
        better: Better::Lower,
        bound: 0.0,
        floor: 0.0,
        fastest: false,
        declared: false,
    },
];

impl EndToEnd {
    /// The run's value of this metric from its round summary.
    pub fn value(&self, s: &Summary) -> f64 {
        match (self.fastest, self.better) {
            (false, _) => s.median,
            (true, Better::Lower) => s.min,
            (true, Better::Higher) => s.max,
        }
    }
}

/// Per-layer metrics left off the result line and out of
/// `BENCHMARK.json`: each is exactly zero on every workload that never
/// runs its layer (the device on `spin-sq500`, the fabric everywhere but
/// `par-fb64-4lane`). The artifact keeps them; the declared counts and
/// probe times they are the product of stay on the result line.
pub const UNDECLARED_LAYER: [&str; 2] = ["ledger.device_s", "ledger.fabric_s"];

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

/// Host nanoseconds per operation from the layer probes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Probes {
    /// `EventQueue` pop plus schedule.
    pub event_ns: f64,
    /// `MemSystem::access` at L1, LLC, remote L1, DRAM.
    pub mem_ns: [f64; 4],
    /// `HyperPlaneDevice::snoop_getm`.
    pub snoop_ns: f64,
    /// `qwait_select` plus `qwait_verify`.
    pub select_ns: f64,
    /// `KeyedArrivals::arrival`.
    pub traffic_ns: f64,
    /// Two `Rendezvous::wait`s at the workload's worker count.
    pub rendezvous_ns: f64,
}

/// The deterministic counts the ledger and the per-layer metrics read
/// from the traced round. Extracted up front so the (possibly large)
/// result can be dropped before the probes run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Events popped, in total and by kernel-profile label.
    pub pops: u64,
    /// `(label, count)` rows of the kernel profile.
    pub pops_by_kind: Vec<(&'static str, u64)>,
    /// Simulated end cycle.
    pub end_cycles: u64,
    /// DP-core accesses at L1, LLC, remote L1, DRAM.
    pub mem: [u64; 4],
    /// L1 miss ratio.
    pub l1_miss_ratio: f64,
    /// Fast path: MRU, stable, replays, replay attempts, shared joins,
    /// S-state peeks, directory-hint hits.
    pub fast: [u64; 7],
    /// Whether the run had HyperPlane devices.
    pub has_device: bool,
    /// Snoop hits, misses, filtered misses.
    pub snoops: [u64; 3],
    /// Inserts, conflicts, relocations.
    pub inserts: [u64; 3],
    /// Spurious wake-ups.
    pub spurious: u64,
    /// Monitoring banks per device.
    pub banks: u64,
    /// Arrivals generated, summed over lanes.
    pub arrivals: u64,
    /// Arrivals dropped.
    pub drops: u64,
    /// Completions.
    pub completions: u64,
    /// Fabric lanes.
    pub lanes: u64,
    /// Fabric synchronization rounds.
    pub sync_rounds: u64,
    /// Replicated stimulus-chain events.
    pub replicated: u64,
    /// Attribution phase shares, in `Phase::ALL` order.
    pub shares: [f64; 5],
    /// Conservation-audit violations.
    pub violations: u64,
    /// Trace records dropped by the ring.
    pub trace_dropped: u64,
    /// Median event-queue depth at metrics-window boundaries.
    pub queue_depth: u64,
}

impl Counts {
    /// Reads the counts from a traced result.
    pub fn of(r: &ExperimentResult) -> Counts {
        let profile = r.kernel_profile();
        let mem = r.mem_stats();
        let f = r.fastpath_stats();
        let dev = r.device_stats();
        let d = dev.unwrap_or_default();
        let attrib = r.attrib_report();
        let mut depths: Vec<u64> = r.windows().iter().map(|w| w.event_queue_depth).collect();
        depths.sort_unstable();
        Counts {
            pops: profile.map_or(0, |p| p.total_events()),
            pops_by_kind: profile.map_or_else(Vec::new, |p| {
                p.rows().into_iter().map(|(l, c, _)| (l, c)).collect()
            }),
            end_cycles: r.end.since_start().count(),
            mem: [mem.l1_hits, mem.llc_hits, mem.remote_hits, mem.dram_fetches],
            l1_miss_ratio: mem.l1_miss_ratio(),
            fast: [
                f.mru_hits,
                f.stable_hits,
                f.seq_replays,
                f.seq_replay_attempts,
                f.shared_joins,
                f.s_state_peeks,
                f.dir_hint_hits,
            ],
            has_device: dev.is_some(),
            snoops: [
                d.monitoring.snoop_hits,
                d.monitoring.snoop_misses,
                d.monitoring.snoop_filtered,
            ],
            inserts: [
                d.monitoring.inserts,
                d.monitoring.conflicts,
                d.monitoring.relocations,
            ],
            spurious: d.spurious_wakeups,
            banks: d.monitoring_banks,
            arrivals: r.lane_generated_arrivals().iter().sum(),
            drops: r.drops,
            completions: r.completions,
            lanes: r.lane_generated_arrivals().len() as u64,
            sync_rounds: r.sync_rounds(),
            replicated: r.replicated_chain_events(),
            shares: Phase::ALL.map(|ph| attrib.map_or(0.0, |a| a.phase_share(ph))),
            violations: r.audit_report().map_or(0, |a| a.violations()),
            trace_dropped: r.trace_dropped(),
            queue_depth: depths.get(depths.len() / 2).copied().unwrap_or(1).max(1),
        }
    }

    fn pops_of(&self, label: &str) -> u64 {
        self.pops_by_kind
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |(_, c)| *c)
    }
}

/// Host seconds per layer, each an operation count times the layer
/// probe's ns per operation, and the share of the engine loop they leave
/// unexplained: engine bookkeeping plus probe error. An estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ledger {
    /// Event-queue pops and schedules.
    pub event_s: f64,
    /// Memory-system accesses.
    pub mem_s: f64,
    /// Device snoops and selects.
    pub device_s: f64,
    /// Arrival draws.
    pub traffic_s: f64,
    /// Fabric synchronization rounds (multi-lane runs only).
    pub fabric_s: f64,
    /// `1 - sum / loop_s`.
    pub residual_frac: f64,
}

impl Ledger {
    /// The ledger of `c` at probe costs `p` against an engine loop of
    /// `loop_s` host seconds.
    pub fn new(c: &Counts, p: &Probes, loop_s: f64) -> Ledger {
        let s = |count: u64, ns: f64| count as f64 * ns * 1e-9;
        let event_s = s(c.pops, p.event_ns);
        let mem_s = c.mem.iter().zip(p.mem_ns).map(|(&n, ns)| s(n, ns)).sum();
        // Every device wake-up is a select plus a verify: one per
        // completion, one per spurious wake-up.
        let device_s = if c.has_device {
            s(c.snoops[0] + c.snoops[1], p.snoop_ns) + s(c.completions + c.spurious, p.select_ns)
        } else {
            0.0
        };
        let traffic_s = s(c.arrivals, p.traffic_ns);
        let fabric_s = if c.lanes > 1 {
            s(c.sync_rounds, p.rendezvous_ns)
        } else {
            0.0
        };
        let sum = event_s + mem_s + device_s + traffic_s + fabric_s;
        Ledger {
            event_s,
            mem_s,
            device_s,
            traffic_s,
            fabric_s,
            residual_frac: 1.0 - sum / loop_s,
        }
    }
}

/// Host timings of the run that the per-layer metrics need.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timings {
    /// Median untraced `Engine::run` seconds.
    pub run_s: f64,
    /// Median untraced engine-loop seconds (`ExperimentResult::wall_secs`).
    pub loop_s: f64,
    /// Median untraced `run_s - loop_s`: result teardown.
    pub teardown_s: f64,
    /// `Engine::run` seconds of the traced round.
    pub traced_run_s: f64,
    /// Seconds of the traced result's four artifact emitters.
    pub emit_s: f64,
}

/// Every per-layer metric, grouped by layer: counts from the traced
/// round, `*_ns` from the layer probes, `*_s` from host timing, and the
/// ledger. The names and units do not depend on the inputs, so
/// `per_layer(&Counts::default(), ..)` lists them.
pub fn per_layer(c: &Counts, t: &Timings, p: &Probes) -> Vec<Metric> {
    use Better::{Higher as H, Lower as L};
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let ledger = Ledger::new(c, p, t.loop_s);
    let m = |name, unit, better, value| Metric {
        name,
        value,
        unit,
        better,
    };
    vec![
        m("event.pops", "count", L, c.pops as f64),
        m(
            "event.pops.arrival",
            "count",
            L,
            c.pops_of("arrival") as f64,
        ),
        m(
            "event.pops.core-step",
            "count",
            L,
            c.pops_of("core-step") as f64,
        ),
        m(
            "event.pops.core-wake",
            "count",
            L,
            c.pops_of("core-wake") as f64,
        ),
        m("event.pops.churn", "count", L, c.pops_of("churn") as f64),
        m(
            "event.sim_cycles_per_event",
            "cycles/event",
            H,
            ratio(c.end_cycles, c.pops),
        ),
        m("event.probe_ns", "ns", L, p.event_ns),
        m("mem.l1_hits", "count", H, c.mem[0] as f64),
        m("mem.llc_hits", "count", L, c.mem[1] as f64),
        m("mem.remote_hits", "count", L, c.mem[2] as f64),
        m("mem.dram_fetches", "count", L, c.mem[3] as f64),
        m("mem.l1_miss_ratio", "fraction", L, c.l1_miss_ratio),
        m("mem.fast.mru_hits", "count", H, c.fast[0] as f64),
        m("mem.fast.stable_hits", "count", H, c.fast[1] as f64),
        m("mem.fast.seq_replays", "count", H, c.fast[2] as f64),
        m(
            "mem.fast.memo_hit_rate",
            "fraction",
            H,
            ratio(c.fast[2], c.fast[3]),
        ),
        m("mem.fast.shared_joins", "count", H, c.fast[4] as f64),
        m("mem.fast.s_state_peeks", "count", H, c.fast[5] as f64),
        m("mem.fast.dir_hint_hits", "count", H, c.fast[6] as f64),
        m("mem.probe_ns.l1_hit", "ns", L, p.mem_ns[0]),
        m("mem.probe_ns.llc_hit", "ns", L, p.mem_ns[1]),
        m("mem.probe_ns.remote", "ns", L, p.mem_ns[2]),
        m("mem.probe_ns.dram", "ns", L, p.mem_ns[3]),
        m("device.snoop_hits", "count", H, c.snoops[0] as f64),
        m("device.snoop_misses", "count", L, c.snoops[1] as f64),
        m("device.snoop_filtered", "count", H, c.snoops[2] as f64),
        m(
            "device.snoop_hit_ratio",
            "fraction",
            H,
            ratio(c.snoops[0], c.snoops[0] + c.snoops[1]),
        ),
        m("device.inserts", "count", L, c.inserts[0] as f64),
        m("device.conflicts", "count", L, c.inserts[1] as f64),
        m("device.relocations", "count", L, c.inserts[2] as f64),
        m("device.spurious_wakeups", "count", L, c.spurious as f64),
        m("device.banks", "count", L, c.banks as f64),
        m("device.probe_ns.snoop", "ns", L, p.snoop_ns),
        m("device.probe_ns.select", "ns", L, p.select_ns),
        m("traffic.arrivals", "count", L, c.arrivals as f64),
        m("traffic.drops", "count", L, c.drops as f64),
        m("traffic.probe_ns", "ns", L, p.traffic_ns),
        m("engine.loop_s", "s", L, t.loop_s),
        m("engine.teardown_s", "s", L, t.teardown_s),
        m("engine.completions", "count", H, c.completions as f64),
        m(
            "engine.events_per_completion",
            "ratio",
            L,
            ratio(c.pops, c.completions),
        ),
        m("fabric.lanes", "count", H, c.lanes as f64),
        m("fabric.sync_rounds", "count", L, c.sync_rounds as f64),
        m(
            "fabric.replicated_chain_events",
            "count",
            L,
            c.replicated as f64,
        ),
        m("fabric.probe_ns.rendezvous", "ns", L, p.rendezvous_ns),
        m("observer.traced_run_s", "s", L, t.traced_run_s),
        m(
            "observer.overhead_frac",
            "fraction",
            L,
            t.traced_run_s / t.run_s - 1.0,
        ),
        m("observer.emit_s", "s", L, t.emit_s),
        m("attrib.share.delivery", "fraction", L, c.shares[0]),
        m("attrib.share.recovery", "fraction", L, c.shares[1]),
        m("attrib.share.ready_wait", "fraction", L, c.shares[2]),
        m("attrib.share.dispatch", "fraction", L, c.shares[3]),
        m("attrib.share.service", "fraction", H, c.shares[4]),
        m("audit.violations", "count", L, c.violations as f64),
        m("trace.dropped", "count", L, c.trace_dropped as f64),
        m("ledger.event_s", "s", L, ledger.event_s),
        m("ledger.mem_s", "s", L, ledger.mem_s),
        m("ledger.device_s", "s", L, ledger.device_s),
        m("ledger.traffic_s", "s", L, ledger.traffic_s),
        m("ledger.fabric_s", "s", L, ledger.fabric_s),
        m("ledger.residual_frac", "fraction", L, ledger.residual_frac),
    ]
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Timed rounds.
    pub rounds: usize,
    /// Rounds checked (warm-up, timed and traced).
    pub attempted: u64,
    /// Rounds that failed their check.
    pub failed: u64,
    /// Why each failed round failed.
    pub failures: Vec<String>,
    /// The digest every round was held to.
    pub digest: Option<u64>,
    /// The digest pinned for this workload, when the seed is the default.
    pub pinned: Option<u64>,
    /// End-to-end summaries, in [`END_TO_END`] order.
    pub end_to_end: Vec<Summary>,
    /// Per-layer metrics (empty unless the traced round ran).
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Whether every checked round passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The artifact: every metric with its spread, unit and direction.
    pub fn to_json(&self) -> String {
        let hex = |d: u64| format!("{d:016x}");
        let mut w = JsonWriter::with_capacity(8192);
        w.begin_object();
        w.field_str("schema", "hp-perfbench-v1");
        w.field_str("workload", self.workload);
        w.field_u64("seed", self.seed);
        w.field_u64("seconds", self.seconds);
        w.field_u64("rounds", self.rounds as u64);
        w.field_u64("host_cpus", hp_par::available_parallelism() as u64);
        w.field_bool("correct", self.correct());
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.key("failures");
        w.begin_array();
        for f in &self.failures {
            w.string(f);
        }
        w.end_array();
        for (key, d) in [("digest", self.digest), ("pinned_digest", self.pinned)] {
            w.key(key);
            match d {
                Some(d) => w.string(&hex(d)),
                None => w.null(),
            }
        }
        w.key("end_to_end");
        w.begin_object();
        for (m, s) in END_TO_END.iter().zip(&self.end_to_end) {
            w.key(m.name);
            w.begin_object();
            w.field_f64("value", m.value(s));
            w.field_str("stat", if m.fastest { "fastest" } else { "median" });
            w.field_f64("min", s.min);
            w.field_f64("q1", s.q1);
            w.field_f64("median", s.median);
            w.field_f64("q3", s.q3);
            w.field_f64("max", s.max);
            w.field_u64("n", s.n as u64);
            w.field_str("unit", m.unit);
            w.field_str("better", m.better.name());
            w.field_f64("bound", m.bound);
            w.end_object();
        }
        w.end_object();
        w.key("per_layer");
        w.begin_object();
        for m in &self.per_layer {
            w.key(m.name);
            w.begin_object();
            w.field_f64("value", m.value);
            w.field_str("unit", m.unit);
            w.end_object();
        }
        w.end_object();
        w.field_str(
            "ledger_note",
            "ledger.* is an estimate: traced-round operation counts times layer-probe ns, \
             measured outside the engine; the residual is engine bookkeeping plus probe error",
        );
        w.end_object();
        w.finish()
    }

    /// The one-line result: end-to-end values (`trace == false`) or the
    /// declared per-layer metrics (`trace == true`).
    pub fn result_line(&self, trace: bool) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object();
        w.field_bool("correct", self.correct());
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.key("metrics");
        w.begin_object();
        let mut put = |name: &str, value: f64, unit: &str| {
            w.key(name);
            w.begin_object();
            w.field_f64("value", value);
            w.field_str("unit", unit);
            w.end_object();
        };
        if trace {
            for m in &self.per_layer {
                if !UNDECLARED_LAYER.contains(&m.name) {
                    put(m.name, m.value, m.unit);
                }
            }
        } else {
            for (m, s) in END_TO_END.iter().zip(&self.end_to_end) {
                if m.declared {
                    put(m.name, m.value(s), m.unit);
                }
            }
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// Every metric as `name value unit` lines; end-to-end lines also
    /// carry their round statistics.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for (m, s) in END_TO_END.iter().zip(&self.end_to_end) {
            out.push_str(&format!(
                "{} {} {}  ({} of n {}; min {} q1 {} median {} q3 {} max {})\n",
                m.name,
                m.value(s),
                m.unit,
                if m.fastest { "fastest" } else { "median" },
                s.n,
                s.min,
                s.q1,
                s.median,
                s.q3,
                s.max
            ));
        }
        for m in &self.per_layer {
            out.push_str(&format!("{} {} {}\n", m.name, m.value, m.unit));
        }
        out
    }
}
