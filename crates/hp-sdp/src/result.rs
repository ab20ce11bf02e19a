//! Experiment results: throughput, latency distribution, telemetry, and
//! derived power / co-runner metrics.

use crate::metrics::WindowSample;
use crate::power::PowerModel;
use crate::telemetry::{CoreTelemetry, SmtCoRunner};
use hp_bytes::json::JsonWriter;
use hp_sim::attrib::{AttributionReport, GroupAttrib, Phase, SNAPSHOT_LABELS};
use hp_sim::audit::AuditReport;
use hp_sim::faults::FaultCounters;
use hp_sim::profile::KernelProfile;
use hp_sim::stats::{Histogram, OnlineStats};
use hp_sim::time::{Clock, Cycles, SimTime};
use hp_sim::trace::TraceRecord;

/// What the fault plane did to a run, and how the resilience machinery
/// responded. Attached to [`ExperimentResult`] whenever fault injection,
/// the QWAIT timeout, or the watchdog was configured.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Faults actually injected, by class.
    pub injected: FaultCounters,
    /// QWAIT timeout expiries across all DP cores.
    pub qwait_timeouts: u64,
    /// Timeout expiries that found missed work and recovered it.
    pub recoveries: u64,
    /// Missed-wakeup recovery latency (halt begin → recovery), cycles:
    /// the eviction and lost-doorbell class histograms merged.
    pub recovery_latency_cycles: Histogram,
    /// First watchdog-detected stall instant, if any.
    pub first_stall: Option<SimTime>,
    /// Watchdog ticks that found a stall (backlog, no progress, all DP
    /// cores halted).
    pub stall_events: u64,
    /// Whether the run was aborted at the first stall
    /// (`watchdog_abort`).
    pub aborted_on_stall: bool,
    /// Arrivals refused at the (possibly fault-narrowed) queue cap.
    pub queue_drops: u64,
    /// Recoveries whose sweep re-registered an evicted monitoring-set
    /// entry (eviction fault class — the entry itself was gone).
    pub eviction_recoveries: u64,
    /// Recoveries of a missed doorbell with the monitoring entry intact
    /// (lost-notification fault class).
    pub doorbell_recoveries: u64,
    /// Recovery latency for the eviction class, cycles.
    pub eviction_recovery_latency: Histogram,
    /// Recovery latency for the lost-doorbell class, cycles.
    pub doorbell_recovery_latency: Histogram,
    /// Algorithm-1 doorbell reallocations performed by chaos churn.
    pub churn_reallocations: u64,
}

impl FaultReport {
    /// Whether the watchdog ever saw a missed-wakeup/livelock stall.
    pub fn stalled(&self) -> bool {
        self.stall_events > 0
    }

    /// Per-fault-class recovery SLO rows:
    /// `(class, recoveries, p99 recovery latency in cycles)`. The p99 is
    /// `None` for a class that never recovered anything.
    pub fn recovery_slo(&self) -> Vec<(&'static str, u64, Option<u64>)> {
        vec![
            (
                "eviction",
                self.eviction_recoveries,
                self.eviction_recovery_latency.percentile(99.0),
            ),
            (
                "lost-doorbell",
                self.doorbell_recoveries,
                self.doorbell_recovery_latency.percentile(99.0),
            ),
        ]
    }
}

/// Device-plane counters aggregated over the run's HyperPlane devices
/// (one per sharing group; zeroed/absent for spinning or interrupt
/// baselines). Feeds the `trace --profile` `"device"` section.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceStats {
    /// Aggregated monitoring-set counters across groups and banks.
    pub monitoring: hp_core::monitoring::MonitoringStats,
    /// Monitoring banks per device (the shard count, DESIGN.md §17).
    pub monitoring_banks: u64,
    /// Spurious wake-ups filtered by QWAIT-VERIFY, summed over groups.
    pub spurious_wakeups: u64,
}

impl DeviceStats {
    /// Folds another device's counters into this aggregate.
    pub(crate) fn absorb(&mut self, m: hp_core::monitoring::MonitoringStats, spurious: u64) {
        self.monitoring.inserts += m.inserts;
        self.monitoring.conflicts += m.conflicts;
        self.monitoring.relocations += m.relocations;
        self.monitoring.snoop_hits += m.snoop_hits;
        self.monitoring.snoop_misses += m.snoop_misses;
        self.monitoring.snoop_filtered += m.snoop_filtered;
        self.monitoring.spill_resizes += m.spill_resizes;
        self.spurious_wakeups += spurious;
    }

    /// Merges a lane's aggregate (parallel fabric).
    pub(crate) fn merge(&mut self, other: &DeviceStats) {
        self.absorb(other.monitoring, other.spurious_wakeups);
        self.monitoring_banks = self.monitoring_banks.max(other.monitoring_banks);
    }

    /// Every counter under its `trace --profile` key, in report order.
    pub(crate) fn counters(&self) -> [(&'static str, u64); 9] {
        let m = &self.monitoring;
        [
            ("monitoring_banks", self.monitoring_banks),
            ("inserts", m.inserts),
            ("conflicts", m.conflicts),
            ("relocations", m.relocations),
            ("snoop_hits", m.snoop_hits),
            ("snoop_misses", m.snoop_misses),
            ("snoop_filtered", m.snoop_filtered),
            ("spill_resizes", m.spill_resizes),
            ("spurious_wakeups", self.spurious_wakeups),
        ]
    }
}

/// The outcome of one engine run.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Measured (post-warmup) throughput, tasks/second.
    pub throughput_tps: f64,
    /// End-to-end latency histogram (cycles), post-warmup samples.
    pub latency_cycles: Histogram,
    /// Per-DP-core telemetry.
    pub per_core: Vec<CoreTelemetry>,
    /// Total completions over the whole run (incl. warmup).
    pub completions: u64,
    /// Arrivals dropped at the queue cap (saturation drives).
    pub drops: u64,
    /// The offered arrival rate actually driven, tasks/second.
    pub offered_tps: f64,
    /// Simulated end time.
    pub end: SimTime,
    pub(crate) clock: Clock,
    /// Measured latency per queue that completed measured work, sorted
    /// by qid.
    pub(crate) per_queue: Vec<(u32, OnlineStats)>,
    pub(crate) queue_state_bytes: u64,
    pub(crate) notify_latency: Histogram,
    pub(crate) mem_stats: hp_mem::system::CoreMemStats,
    pub(crate) faults: Option<FaultReport>,
    pub(crate) audit: Option<AuditReport>,
    pub(crate) windows: Vec<WindowSample>,
    pub(crate) trace: Option<Vec<TraceRecord>>,
    pub(crate) trace_dropped: u64,
    pub(crate) trace_emitted: u64,
    pub(crate) attrib: Option<AttributionReport>,
    pub(crate) profile: Option<KernelProfile>,
    pub(crate) fastpath: hp_mem::system::FastPathStats,
    pub(crate) device: Option<DeviceStats>,
    pub(crate) wall_secs: f64,
    pub(crate) sync_rounds: u64,
    pub(crate) lane_generated_arrivals: Vec<u64>,
    pub(crate) workload_label: &'static str,
    pub(crate) notifier_label: &'static str,
    pub(crate) queues: u32,
    pub(crate) seed: u64,
}

impl ExperimentResult {
    /// The fault/resilience report, if fault injection, the QWAIT
    /// timeout, or the watchdog was configured for this run.
    pub fn fault_report(&self) -> Option<&FaultReport> {
        self.faults.as_ref()
    }

    /// Whether the watchdog detected a missed-wakeup/livelock stall.
    pub fn stalled(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.stalled())
    }

    /// The conservation-audit report, if the audit was enabled for this
    /// run.
    pub fn audit_report(&self) -> Option<&AuditReport> {
        self.audit.as_ref()
    }

    /// Records evicted from the trace ring by capacity pressure. Nonzero
    /// means the *trace file* is truncated — attribution is unaffected
    /// (it streams ahead of the ring).
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped
    }

    /// Total lifecycle records emitted to the tracer (kept + dropped).
    pub fn trace_emitted(&self) -> u64 {
        self.trace_emitted
    }

    /// The latency-attribution report (DESIGN.md §15), if `attrib` was
    /// enabled for this run.
    pub fn attrib_report(&self) -> Option<&AttributionReport> {
        self.attrib.as_ref()
    }

    /// Synchronization rounds the fabric controller ran: the number of
    /// window-boundary rendezvous (two barriers each in a multi-lane
    /// run). Under lookahead windows this is the barrier-count metric the
    /// `trace --par-bench` report compares against fixed windows.
    pub fn sync_rounds(&self) -> u64 {
        self.sync_rounds
    }

    /// Always `0`: lanes generate only their own stimulus and never replay
    /// a foreign chain; kept for callers that still report the count.
    pub fn replicated_chain_events(&self) -> u64 {
        0
    }

    /// Arrivals each lane *generated* (delivered into its own groups'
    /// queues), in lane order; a serial run reports one entry. The
    /// per-lane sum equals the serial count.
    pub fn lane_generated_arrivals(&self) -> &[u64] {
        &self.lane_generated_arrivals
    }

    /// The windowed-metrics time series (empty unless
    /// `metrics_window_cycles` was configured). Window `end` timestamps
    /// are strictly increasing.
    pub fn windows(&self) -> &[WindowSample] {
        &self.windows
    }

    /// The windowed metrics as JSONL — one JSON object per line.
    pub fn metrics_jsonl(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            out.push_str(&w.to_json());
            out.push('\n');
        }
        out
    }

    /// The surviving lifecycle trace records, if tracing was enabled.
    pub fn trace_records(&self) -> Option<&[TraceRecord]> {
        self.trace.as_deref()
    }

    /// The trace as Chrome `trace_event` JSON (loadable in
    /// `ui.perfetto.dev`), if tracing was enabled. When windowed metrics
    /// were also collected, the export carries counter tracks (backlog
    /// depth, event-queue depth, halted cores) sampled at window ends.
    pub fn chrome_trace_json(&self) -> Option<String> {
        let cycles_per_us = self.clock.ghz() * 1000.0;
        self.trace.as_ref().map(|t| {
            let counters: Vec<hp_sim::trace::CounterPoint> = self
                .windows
                .iter()
                .map(|w| hp_sim::trace::CounterPoint {
                    at: SimTime(w.end),
                    backlog: w.backlog,
                    event_queue_depth: w.event_queue_depth,
                    cores_halted: w.cores_halted,
                })
                .collect();
            hp_sim::trace::chrome_trace_with_counters(t, &counters, cycles_per_us)
        })
    }

    /// The sim-kernel profile: per-event-type counts and attributed
    /// cycles.
    pub fn kernel_profile(&self) -> Option<&KernelProfile> {
        self.profile.as_ref()
    }

    /// Wall-clock seconds the run took to simulate.
    pub fn wall_secs(&self) -> f64 {
        self.wall_secs
    }

    /// Simulation speed: events processed per wall-clock second.
    pub fn events_per_sec_wall(&self) -> f64 {
        match &self.profile {
            Some(p) if self.wall_secs > 0.0 => p.total_events() as f64 / self.wall_secs,
            _ => 0.0,
        }
    }

    /// Aggregated DP-core cache behaviour: hit/miss counts per level.
    pub fn mem_stats(&self) -> hp_mem::system::CoreMemStats {
        self.mem_stats
    }

    /// Memory-system fast-path counters (DESIGN.md §12–13): stable-state
    /// short-circuits, shared-line LLC route arms, and directory-hint
    /// hits. `stable_hits` and `dir_hint_hits` count whether or not
    /// `mem_fast_path` is on; the LLC route arms count only when it is.
    /// The `mru_hits` and `seq_*` fields always read 0.
    pub fn fastpath_stats(&self) -> hp_mem::system::FastPathStats {
        self.fastpath
    }

    /// Device-plane counters (monitoring-set inserts/conflicts/snoops and
    /// reverse-index spill-resizes), if the run used HyperPlane devices.
    pub fn device_stats(&self) -> Option<DeviceStats> {
        self.device
    }

    /// Everything the simulation itself computes, bit-exact: the headline
    /// metrics, every per-core counter, the kernel profile's event counts,
    /// and the device counters when present. Two same-seed runs agree on
    /// every word whatever observers are attached and however many fabric
    /// workers ran them. Profile cycles are left out: they are per-lane
    /// clock advance, so they grow with the lane count.
    pub fn digest(&self) -> Vec<u64> {
        let mut d = vec![
            self.throughput_tps.to_bits(),
            self.offered_tps.to_bits(),
            self.completions,
            self.drops,
            self.end.since_start().count(),
            self.mean_latency_us().to_bits(),
            self.latency_percentile_us(50.0).to_bits(),
            self.latency_percentile_us(99.0).to_bits(),
            self.mean_notification_us().to_bits(),
        ];
        for c in &self.per_core {
            d.extend([
                c.useful_instructions,
                c.spin_instructions,
                c.background_instructions,
                c.active_cycles,
                c.halt_c0_cycles,
                c.halt_c1_cycles,
                c.completions,
                c.empty_polls,
                c.spurious,
                c.qwait_timeouts,
                c.recoveries,
            ]);
        }
        if let Some(p) = &self.profile {
            d.push(p.total_events());
            d.extend(p.rows().into_iter().map(|(_, count, _)| count));
        }
        if let Some(dev) = &self.device {
            d.extend(dev.counters().map(|(_, v)| v));
        }
        d
    }

    /// The sim-kernel profile plus the fast-path counters as a JSON
    /// object (the `trace --profile` payload): per-event-type counts and
    /// attributed simulated cycles, total events, wall seconds, and
    /// events/s. Returns `None` when no profile was collected.
    pub fn profile_json(&self) -> Option<String> {
        let p = self.profile.as_ref()?;
        let mut out = String::from("{\"kernels\":[");
        for (i, (label, count, cycles)) in p.rows().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":\"{label}\",\"events\":{count},\"sim_cycles\":{cycles}}}"
            ));
        }
        // `memo_hit_rate` is a constant 0, like the `mru_hits` and `seq_*`
        // counters it sits beside (see `FastPathStats`).
        let f = &self.fastpath;
        out.push_str(&format!(
            "],\"total_events\":{},\"wall_secs\":{:.6},\"events_per_sec\":{:.0},\
             \"sync_rounds\":{},\
             \"lane_generated_arrivals\":[{}],\
             \"fast_path\":{{\"mru_hits\":{},\"stable_hits\":{},\
             \"seq_replays\":{},\"seq_replayed_accesses\":{},\
             \"s_state_peeks\":{},\"stable_reloads\":{},\
             \"shared_joins\":{},\"dir_hint_hits\":{},\
             \"seq_replay_attempts\":{},\"memo_hit_rate\":0.0000}}",
            p.total_events(),
            self.wall_secs,
            self.events_per_sec_wall(),
            self.sync_rounds,
            self.lane_generated_arrivals
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(","),
            f.mru_hits,
            f.stable_hits,
            f.seq_replays,
            f.seq_replayed_accesses,
            f.s_state_peeks,
            f.stable_reloads,
            f.shared_joins,
            f.dir_hint_hits,
            f.seq_replay_attempts,
        ));
        if let Some(d) = &self.device {
            let fields: Vec<String> = d
                .counters()
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            out.push_str(&format!(",\"device\":{{{}}}", fields.join(",")));
        }
        out.push('}');
        Some(out)
    }

    /// The latency-attribution report as a JSON artifact (schema
    /// `hp-attrib-v1`, the input format of `hp-bench attrib-diff`), if
    /// attribution was enabled. Deterministic: same seed and config
    /// produce byte-identical output.
    pub fn attrib_json(&self) -> Option<String> {
        let a = self.attrib.as_ref()?;
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object();
        w.field_str("schema", "hp-attrib-v1");
        w.field_str("workload", self.workload_label);
        w.field_str("notifier", self.notifier_label);
        w.field_u64("queues", u64::from(self.queues));
        w.field_u64("seed", self.seed);
        w.field_u64("completed", a.completed);
        w.field_u64("incomplete", a.incomplete);
        w.field_u64("violations", a.violations);
        w.field_bool("conserved", a.conserved());
        w.key("end_to_end");
        attrib_hist_json(&mut w, &a.end_to_end, a.total_cycles);
        w.key("phases");
        w.begin_array();
        for ph in Phase::ALL {
            w.begin_object();
            w.field_str("phase", ph.name());
            let h = &a.phase_hists[ph as usize];
            w.field_u64("total_cycles", a.phase_total(ph));
            w.field_f64("share", a.phase_share(ph));
            w.field_f64("mean_cycles", h.try_mean().unwrap_or(0.0));
            w.field_u64("p50_cycles", h.percentile(50.0).unwrap_or(0));
            w.field_u64("p99_cycles", h.percentile(99.0).unwrap_or(0));
            w.field_u64("p999_cycles", h.percentile(99.9).unwrap_or(0));
            w.field_u64("max_cycles", h.max());
            w.end_object();
        }
        w.end_array();
        w.key("per_queue");
        attrib_groups_json(&mut w, "queue", &a.per_queue);
        w.key("per_core");
        attrib_groups_json(&mut w, "core", &a.per_core);
        w.key("exemplars");
        w.begin_array();
        for e in &a.exemplars {
            w.begin_object();
            w.field_u64("item", e.item);
            w.field_u64("queue", u64::from(e.queue));
            w.field_u64("core", u64::from(e.core));
            w.field_u64("enqueued_at_cycles", e.enqueued_at);
            w.field_u64("latency_cycles", e.latency);
            w.field_bool("faulted", e.faulted);
            w.key("phase_cycles");
            w.begin_array();
            for &v in &e.phases {
                w.u64(v);
            }
            w.end_array();
            w.key("fast_path");
            w.begin_object();
            for (label, &v) in SNAPSHOT_LABELS.iter().zip(&e.counters) {
                w.field_u64(label, v);
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        Some(w.finish())
    }

    /// Mean *notification* latency (arrival to dequeue) in microseconds —
    /// the component HyperPlane accelerates; end-to-end latency adds
    /// service time on top. `NaN` when the run completed nothing (e.g. a
    /// 100 % drop-rate fault run); use
    /// [`ExperimentResult::try_mean_notification_us`] to branch on it.
    pub fn mean_notification_us(&self) -> f64 {
        self.try_mean_notification_us().unwrap_or(f64::NAN)
    }

    /// Mean notification latency in microseconds, `None` for a
    /// zero-sample run.
    pub fn try_mean_notification_us(&self) -> Option<f64> {
        self.notify_latency
            .try_mean()
            .map(|c| self.clock.cycles_to_micros(Cycles(c as u64)))
    }

    /// Notification-latency percentile in microseconds (`NaN` for a
    /// zero-sample run).
    pub fn notification_percentile_us(&self, p: f64) -> f64 {
        self.notify_latency
            .percentile(p)
            .map(|c| self.clock.cycles_to_micros(Cycles(c)))
            .unwrap_or(f64::NAN)
    }

    /// Host bytes of the per-queue structures one lane builds (capacity ×
    /// element size of the queue rows, monitoring slots and QID→doorbell
    /// map, ready-set words, arrival alias tables, and group lists; the
    /// largest lane's in a multi-lane run). A deterministic proxy for the
    /// run's per-queue host memory; kept out of [`Self::digest`] so it can
    /// shrink without moving a pin.
    pub fn queue_state_bytes(&self) -> u64 {
        self.queue_state_bytes
    }

    /// Mean latency per queue in microseconds, with sample counts:
    /// `(queue, samples, mean_us)` for queues that completed work.
    /// Used to demonstrate service-policy differentiation (WRR weights).
    pub fn per_queue_latency_us(&self) -> Vec<(u32, u64, f64)> {
        self.per_queue
            .iter()
            .map(|&(q, s)| {
                let us = self
                    .clock
                    .cycles_to_micros(hp_sim::time::Cycles(s.mean() as u64));
                (q, s.count(), us)
            })
            .collect()
    }

    /// Throughput in million tasks per second (the paper's Fig. 8 unit).
    pub fn throughput_mtps(&self) -> f64 {
        self.throughput_tps / 1e6
    }

    /// Mean latency in microseconds. `NaN` when no measured completions
    /// exist (an empty histogram has no mean — reporting `0` here once
    /// made total-loss fault runs look infinitely fast).
    pub fn mean_latency_us(&self) -> f64 {
        self.try_mean_latency_us().unwrap_or(f64::NAN)
    }

    /// Mean latency in microseconds, `None` for a zero-sample run.
    pub fn try_mean_latency_us(&self) -> Option<f64> {
        self.latency_cycles
            .try_mean()
            .map(|c| self.clock.cycles_to_micros(Cycles(c as u64)))
    }

    /// Latency percentile in microseconds (`NaN` for a zero-sample run).
    pub fn latency_percentile_us(&self, p: f64) -> f64 {
        self.try_latency_percentile_us(p).unwrap_or(f64::NAN)
    }

    /// Latency percentile in microseconds, `None` for a zero-sample run.
    pub fn try_latency_percentile_us(&self, p: f64) -> Option<f64> {
        self.latency_cycles
            .percentile(p)
            .map(|c| self.clock.cycles_to_micros(Cycles(c)))
    }

    /// 99th-percentile latency in microseconds (the paper's tail metric).
    pub fn p99_latency_us(&self) -> f64 {
        self.latency_percentile_us(99.0)
    }

    /// Latency CDF in microseconds: `(latency_us, cumulative_fraction)`.
    pub fn latency_cdf_us(&self) -> Vec<(f64, f64)> {
        self.latency_cycles
            .cdf()
            .into_iter()
            .map(|(cyc, f)| (self.clock.cycles_to_micros(hp_sim::time::Cycles(cyc)), f))
            .collect()
    }

    /// Telemetry summed over all DP cores.
    pub fn aggregate_telemetry(&self) -> CoreTelemetry {
        let mut agg = CoreTelemetry::default();
        for t in &self.per_core {
            agg.merge(t);
        }
        agg
    }

    /// Average DP-core power as a fraction of peak core power.
    pub fn average_power_fraction(&self, model: &PowerModel) -> f64 {
        if self.per_core.is_empty() {
            return 0.0;
        }
        self.per_core
            .iter()
            .map(|t| model.average_power(t))
            .sum::<f64>()
            / self.per_core.len() as f64
    }

    /// SMT co-runner IPC averaged over DP cores (Fig. 11b).
    pub fn co_runner_ipc(&self, smt: &SmtCoRunner) -> f64 {
        if self.per_core.is_empty() {
            return smt.alone_ipc;
        }
        self.per_core.iter().map(|t| smt.co_ipc(t)).sum::<f64>() / self.per_core.len() as f64
    }
}

/// One histogram summary object in the `hp-attrib-v1` schema.
fn attrib_hist_json(w: &mut JsonWriter, h: &Histogram, total_cycles: u64) {
    w.begin_object();
    w.field_u64("count", h.count());
    w.field_u64("total_cycles", total_cycles);
    w.field_f64("mean_cycles", h.try_mean().unwrap_or(0.0));
    w.field_u64("p50_cycles", h.percentile(50.0).unwrap_or(0));
    w.field_u64("p99_cycles", h.percentile(99.0).unwrap_or(0));
    w.field_u64("p999_cycles", h.percentile(99.9).unwrap_or(0));
    w.field_u64("max_cycles", h.max());
    w.end_object();
}

/// One per-queue / per-core aggregation array in the `hp-attrib-v1`
/// schema; `id_key` names the grouping dimension.
fn attrib_groups_json(w: &mut JsonWriter, id_key: &str, groups: &[GroupAttrib]) {
    w.begin_array();
    for g in groups {
        w.begin_object();
        w.field_u64(id_key, u64::from(g.id));
        w.field_u64("count", g.count);
        w.key("phase_cycles");
        w.begin_array();
        for &v in &g.phase_cycles {
            w.u64(v);
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use hp_traffic::shape::TrafficShape;
    use hp_workloads::service::WorkloadKind;

    fn dummy() -> ExperimentResult {
        let cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 16);
        let mut lat = Histogram::new();
        for v in [2000u64, 4000, 6000, 200_000] {
            lat.record(v);
        }
        let t = CoreTelemetry {
            useful_instructions: 100,
            active_cycles: 100,
            ..Default::default()
        };
        ExperimentResult {
            throughput_tps: 500_000.0,
            latency_cycles: lat,
            per_core: vec![t],
            completions: 4,
            drops: 0,
            offered_tps: 2_000_000.0,
            end: SimTime(1_000_000),
            clock: cfg.machine.clock,
            per_queue: Vec::new(),
            queue_state_bytes: 0,
            notify_latency: Histogram::new(),
            mem_stats: Default::default(),
            faults: None,
            audit: None,
            windows: Vec::new(),
            trace: None,
            trace_dropped: 0,
            trace_emitted: 0,
            attrib: None,
            profile: None,
            fastpath: Default::default(),
            device: None,
            wall_secs: 0.0,
            sync_rounds: 0,
            lane_generated_arrivals: Vec::new(),
            workload_label: cfg.workload.name(),
            notifier_label: cfg.notifier.label(),
            queues: cfg.queues,
            seed: cfg.seed,
        }
    }

    #[test]
    fn unit_conversions() {
        let r = dummy();
        assert_eq!(r.throughput_mtps(), 0.5);
        // Mean of 2000,4000,6000,200000 cycles = 53000 cyc = 26.5 us.
        assert!((r.mean_latency_us() - 26.5).abs() < 0.1);
        // p99 is the max bucket: ~100 us.
        assert!(r.p99_latency_us() > 90.0);
    }

    #[test]
    fn cdf_is_in_microseconds_and_complete() {
        let r = dummy();
        let cdf = r.latency_cdf_us();
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(
            cdf[0].0 >= 0.9 && cdf[0].0 < 1.2,
            "first sample ~1us, got {}",
            cdf[0].0
        );
    }

    #[test]
    fn power_and_corunner_derivations_work() {
        let r = dummy();
        let p = r.average_power_fraction(&PowerModel::default());
        assert!(p > 0.0 && p <= 1.0);
        let co = r.co_runner_ipc(&SmtCoRunner::default());
        assert!(co > 0.0 && co <= 2.2);
    }
}
