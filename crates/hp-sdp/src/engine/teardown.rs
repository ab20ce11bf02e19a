//! Teardown: the windowed-metrics close and the lane's final hand-off to
//! the fabric merge ([`crate::par_engine`]).

use super::Engine;
use crate::metrics::{WindowObservation, WindowSample};
use crate::result::DeviceStats;
use crate::telemetry::CoreTelemetry;
use hp_mem::types::CoreId;
use hp_sim::attrib::AttributionReport;
use hp_sim::audit::AuditReport;
use hp_sim::faults::FaultCounters;
use hp_sim::profile::KernelProfile;
use hp_sim::stats::{Histogram, OnlineStats};
use hp_sim::time::SimTime;
use hp_sim::trace::TraceRecord;

/// One lane's mergeable outputs ([`Engine::into_lane_output`]): everything
/// the fabric needs to reassemble a whole-machine
/// [`ExperimentResult`](crate::result::ExperimentResult). Lane-disjoint
/// collections come keyed by what the lane owns (per-queue stats by qid,
/// per-core telemetry with a core mask); cross-lane aggregates
/// (histograms, counters, the profile) merge by summation.
#[derive(Debug)]
pub(crate) struct LaneOutput {
    pub(crate) drops: u64,
    pub(crate) latency: Histogram,
    pub(crate) notify_latency: Histogram,
    /// Measured latency of the queues this lane completed work on,
    /// qid-sorted.
    pub(crate) per_queue: Vec<(u32, OnlineStats)>,
    pub(crate) queue_state_bytes: u64,
    pub(crate) telem: Vec<CoreTelemetry>,
    pub(crate) core_owned: Vec<bool>,
    pub(crate) mem_stats: hp_mem::system::CoreMemStats,
    pub(crate) fastpath: hp_mem::system::FastPathStats,
    pub(crate) fault_counters: FaultCounters,
    pub(crate) eviction_recovery_latency: Histogram,
    pub(crate) doorbell_recovery_latency: Histogram,
    pub(crate) churn_reallocations: u64,
    pub(crate) generated_arrivals: u64,
    pub(crate) trace_enabled: bool,
    pub(crate) trace_records: Vec<TraceRecord>,
    pub(crate) trace_dropped: u64,
    pub(crate) trace_emitted: u64,
    pub(crate) attrib: Option<AttributionReport>,
    pub(crate) windows: Option<Vec<WindowSample>>,
    pub(crate) audit: Option<AuditReport>,
    pub(crate) profile: KernelProfile,
    pub(crate) device: Option<DeviceStats>,
    pub(crate) measure_start: Option<SimTime>,
}

impl Engine {
    /// Closes every metrics window whose nominal boundary is at or before
    /// `now_cycles` (lazy closing — see [`crate::metrics`]).
    /// `in_flight` marks a popped-but-unhandled trigger event (the pump
    /// closes windows lazily, mid-event): counting it keeps the depth
    /// sample worker-count-invariant — every engine crossing a window
    /// boundary has exactly one such event, so serial (one crossing)
    /// and N lanes (N crossings) observe the same outstanding-event set.
    pub(super) fn close_metrics_windows(&mut self, now_cycles: u64, in_flight: bool) {
        while self.metrics_next <= now_cycles {
            let obs = self.window_observation(self.metrics_next, in_flight);
            let m = self
                .metrics
                .as_mut()
                .expect("metrics_next is finite only when sampling");
            m.close(&obs);
            self.metrics_next = m.next_boundary();
        }
    }

    /// Boundary snapshot for the windowed sampler: instantaneous queue /
    /// event-queue / halt state, plus cumulative counters up to
    /// `boundary`. In-progress halt episodes (credited only at resume)
    /// are counted up to the boundary explicitly.
    fn window_observation(&self, boundary: u64, in_flight: bool) -> WindowObservation {
        let halt_cycles = (0..self.cfg.dp_cores)
            .map(|c| {
                let credited = self.telem[c].halt_c0_cycles + self.telem[c].halt_c1_cycles;
                let in_progress = self.trackers[c]
                    .halted_since()
                    .map(|s| boundary.saturating_sub(s.since_start().count()))
                    .unwrap_or(0);
                credited + in_progress
            })
            .collect();
        WindowObservation {
            backlog: self.backlog,
            event_queue_depth: (self.ev.len() + usize::from(in_flight)) as u64,
            cores_halted: (0..self.cfg.dp_cores)
                .filter(|&c| self.is_halted(c))
                .count() as u64,
            halt_cycles,
            spin_instructions: self.telem.iter().map(|t| t.spin_instructions).sum(),
            drops: self.drops,
        }
    }

    /// Aggregates device-plane counters over this engine's *owned*
    /// devices. Each sharing group is owned by exactly one lane, so
    /// summing lane aggregates reassembles the one-lane totals (build-time
    /// registration runs in every lane but is counted only by the owner).
    fn device_stats(&self) -> Option<DeviceStats> {
        if self.devices.is_empty() {
            return None;
        }
        let mut d = DeviceStats {
            monitoring_banks: self.devices[0].monitoring_banks() as u64,
            ..DeviceStats::default()
        };
        for (g, dev) in self.devices.iter().enumerate() {
            if self.owned_groups[g] {
                d.absorb(dev.monitoring_stats(), dev.spurious_wakeups());
            }
        }
        Some(d)
    }

    /// Tears the lane down into its mergeable outputs — the only teardown
    /// an engine has. `end` is the *fabric-wide* end (the maximum
    /// lane-local end, clamped by a watchdog abort), so every lane
    /// closes its final metrics window and outstanding halt episodes at
    /// the same instant and the merged window series line up one-for-one.
    pub(crate) fn into_lane_output(mut self, end: SimTime) -> LaneOutput {
        let end_cycles = end.since_start().count();
        if self.metrics.is_some() {
            self.close_metrics_windows(end_cycles, false);
            let obs = self.window_observation(end_cycles, false);
            self.metrics.as_mut().unwrap().close_final(end_cycles, &obs);
        }
        if let Some(span) = self.measure_span.take() {
            self.tracer.end_span(end, span);
        }
        if let Some(span) = self.warmup_span.take() {
            self.tracer.end_span(end, span);
        }
        for c in 0..self.cfg.dp_cores {
            self.trackers[c].resume(end, &mut self.telem[c]);
        }
        let mut mem_stats = hp_mem::system::CoreMemStats::default();
        for c in 0..self.cfg.dp_cores {
            let s = self.mem.core_stats(CoreId(c));
            mem_stats.l1_hits += s.l1_hits;
            mem_stats.llc_hits += s.llc_hits;
            mem_stats.remote_hits += s.remote_hits;
            mem_stats.dram_fetches += s.dram_fetches;
        }
        let residual_backlog: u64 = self.backlog;
        let queue_state_bytes = self.queue_state_bytes();
        let generated_arrivals = self.generated_arrivals();
        let mut per_queue: Vec<(u32, OnlineStats)> = self.queue_latency.drain().collect();
        per_queue.sort_unstable_by_key(|&(q, _)| q);
        let core_owned: Vec<bool> = (0..self.cfg.dp_cores)
            .map(|c| self.owned_groups[self.core_group[c]])
            .collect();
        let device = self.device_stats();
        let attrib = self.attrib.is_enabled().then(|| self.attrib.finalize());
        let audit = self
            .audit
            .is_enabled()
            .then(|| self.audit.finalize(residual_backlog));
        LaneOutput {
            drops: self.drops,
            latency: self.latency,
            notify_latency: self.notify_latency,
            per_queue,
            queue_state_bytes,
            telem: self.telem,
            core_owned,
            mem_stats,
            fastpath: self.mem.fastpath_stats(),
            fault_counters: self.faults.counters(),
            eviction_recovery_latency: self.eviction_recovery_latency,
            doorbell_recovery_latency: self.doorbell_recovery_latency,
            churn_reallocations: self.churn_reallocations,
            generated_arrivals,
            trace_enabled: self.tracer.is_enabled(),
            trace_records: self.tracer.records(),
            trace_dropped: self.tracer.dropped(),
            trace_emitted: self.tracer.emitted(),
            attrib,
            windows: self.metrics.map(|m| m.into_samples()),
            audit,
            profile: self.profile,
            device,
            measure_start: self.measure_start,
        }
    }
}
