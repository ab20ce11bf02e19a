//! # Parallel simulation fabric
//!
//! Runs one experiment as a set of *lanes* — one per sharing group — each
//! owning the group's queues, its HyperPlane device, and the DP cores
//! assigned to it, with a private calendar-wheel event queue. Lanes
//! advance in lockstep over bounded, lookahead-derived synchronization
//! windows and a fabric controller folds their window-boundary reports
//! into run-control decisions (warmup, stop, watchdog, `max_cycles`).
//!
//! ## Why the partition is exact
//!
//! The simulated machine was *designed* around sharing groups: a group's
//! queues, device, monitoring set, and consumer cores never touch another
//! group's state, and the producer-side striping
//! (`Engine::try_new_lane`) keeps each I/O core's arrivals within one
//! group whenever `producers >= groups`. The only cross-group coupling is
//! the global arrival *schedule* (one shared traffic process), and it
//! partitions exactly: a Poisson superposition splits into independent
//! per-group keyed streams whose every draw is a pure function of
//! `(seed, group, item index)`, so each lane generates *only its own*
//! stimulus (DESIGN.md §18). Cross-partition messages do not exist; the
//! window barrier only carries run-control metadata, never simulated
//! events.
//!
//! ## Determinism contract
//!
//! A lane's event stream is a pure function of the experiment config and
//! its group index — never of worker count or OS scheduling. `par_workers`
//! only maps lanes onto threads (worker `w` pumps lanes `w`, `w + W`,
//! ...), and the merge below folds lane outputs in lane order, so a
//! same-seed run is digest-identical to the serial run for any worker
//! count. A serial run *is* this fabric with a single lane owning every
//! group: it runs the same window loop (on the calling thread), the same
//! `FabricCtrl`, and the same `merge`, so serial-vs-parallel equivalence
//! is structural, not coincidental.
//!
//! Every simulated event is group-local, so the merged kernel profile's
//! per-event counts and the window `event_queue_depth` series are
//! worker-count-invariant too (asserted in `tests/par_digest.rs`). Trace
//! span ids are per-lane (merged records are re-sequenced by
//! `(time, lane, emission order)`).
//!
//! ## Lookahead windows
//!
//! Lanes exchange no simulated events, so the classic conservative-PDES
//! lookahead bound — run ahead to the earliest instant another lane could
//! affect you — is *infinite* for the simulation state itself. What does
//! couple lanes is run control: stop, warmup, and the watchdog are
//! fabric-wide decisions whose fidelity degrades with window size (each
//! triggers at the first boundary after its threshold). The controller
//! therefore sizes each window from its own horizon: the estimated time
//! to the next run-control threshold (remaining completions at the
//! observed completion rate), clamped between a floor of a few coherence
//! round-trips and a 1 Mi-cycle cap, and never past the next watchdog
//! period. Early windows stay small (cheap, accurate warmup detection),
//! steady-state windows grow toward the cap, and barrier count is an
//! order of magnitude below the fixed 64 Ki windows this schedule
//! replaced, while preserving the one-watchdog-period-per-window stall
//! semantics.

use crate::config::ExperimentConfig;
use crate::engine::{Engine, LaneOutput};
use crate::metrics::WindowSample;
use crate::result::{ExperimentResult, FaultReport};
use crate::telemetry::CoreTelemetry;
use hp_sim::attrib::{AttributionReport, DEFAULT_EXEMPLARS};
use hp_sim::audit::AuditReport;
use hp_sim::faults::FaultCounters;
use hp_sim::stats::{Histogram, OnlineStats};
use hp_sim::time::{Cycles, SimTime};
use hp_sim::trace::TraceRecord;
use std::cmp::Reverse;
use std::sync::Mutex;
use std::time::Instant;

/// One lane's window-boundary report to the fabric controller.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneReport {
    /// Completions so far (lifetime, owned items only).
    pub(crate) completions: u64,
    /// Residual backlog across the lane's owned queues.
    pub(crate) backlog: u64,
    /// Whether every owned DP core is halted.
    pub(crate) all_halted: bool,
    /// Timestamp of the last event the lane processed, cycles.
    pub(crate) last_processed: u64,
}

/// The fabric controller's watchdog verdict, threaded into the final
/// [`FaultReport`].
#[derive(Debug, Clone, Copy, Default)]
struct StallSummary {
    /// First stall detection instant.
    first_stall: Option<SimTime>,
    /// Watchdog rounds that found backlog with zero progress and all
    /// cores halted.
    stall_events: u64,
    /// Whether the run was aborted on first stall (`watchdog_abort`).
    aborted: bool,
}

/// The leader's per-window verdict, applied by every worker after the
/// second rendezvous.
#[derive(Debug, Default)]
struct Decision {
    /// Open the measurement phase at this boundary (all lanes).
    begin_measure: Option<SimTime>,
    /// Stall instants to record in the lifecycle trace (lane 0 carries
    /// the records, so they appear once whatever the lane count).
    stall_notes: Vec<SimTime>,
    /// Stop after this window.
    stop: bool,
    /// The next window's boundary (lookahead-derived; ignored when `stop`
    /// is set).
    next_boundary: u64,
}

/// Fabric-wide run control, evaluated at window boundaries from summed
/// lane reports, for one lane or many alike. Stop and warmup trigger at
/// the first boundary *after* the threshold crossing — an overshoot of at
/// most one window.
struct FabricCtrl {
    warmup_target: u64,
    stop_target: u64,
    max_cycles: u64,
    watchdog_period: Option<u64>,
    watchdog_abort: bool,
    watchdog_next: u64,
    watchdog_last_total: u64,
    measuring: bool,
    stalls: StallSummary,
    /// Previous boundary / fabric-wide completion total, feeding the
    /// lookahead rate estimate.
    prev_boundary: u64,
    prev_total: u64,
    /// The last lookahead window chosen (the geometric-ramp fallback when
    /// a window completes nothing).
    prev_window: u64,
    /// Synchronization rounds run (one `decide` per window boundary).
    rounds: u64,
}

/// Smallest lookahead window: a few coherence round-trips, so run-control
/// reaction time never degrades below what the simulated fabric itself
/// could resolve.
const LOOKAHEAD_FLOOR: u64 = 4_096;
/// Largest lookahead window: bounds run-control overshoot (stop, warmup,
/// and watchdog trigger at the first boundary past their thresholds).
const LOOKAHEAD_MAX: u64 = 1 << 20;

impl FabricCtrl {
    fn new(cfg: &ExperimentConfig) -> Self {
        let warmup = cfg.warmup_completions();
        FabricCtrl {
            warmup_target: warmup,
            stop_target: cfg.target_completions + warmup,
            max_cycles: cfg.max_cycles,
            watchdog_period: cfg.watchdog_period_cycles,
            watchdog_abort: cfg.watchdog_abort,
            watchdog_next: cfg.watchdog_period_cycles.unwrap_or(u64::MAX),
            watchdog_last_total: 0,
            measuring: false,
            stalls: StallSummary::default(),
            prev_boundary: 0,
            prev_total: 0,
            prev_window: LOOKAHEAD_FLOOR,
            rounds: 0,
        }
    }

    /// The first window's boundary: the lookahead floor (no
    /// completion-rate signal exists yet).
    fn first_boundary(&self) -> u64 {
        LOOKAHEAD_FLOOR.min(self.watchdog_next)
    }

    /// Chooses the boundary after `boundary` (see the module docs):
    /// extrapolates the time to the next run-control threshold from the
    /// last window's completion rate, clamped to `[LOOKAHEAD_FLOOR,
    /// LOOKAHEAD_MAX]`, never past the next watchdog period, and never
    /// skipping the `max_cycles` stop boundary.
    fn next_boundary(&mut self, boundary: u64, total: u64) -> u64 {
        let dt = boundary - self.prev_boundary;
        let dc = total.saturating_sub(self.prev_total);
        let target = if self.measuring {
            self.stop_target
        } else {
            self.warmup_target
        };
        let remaining = target.saturating_sub(total).max(1);
        let horizon = if dc == 0 || dt == 0 {
            // No progress signal this window: ramp geometrically
            // rather than re-probing at the floor forever.
            self.prev_window.saturating_mul(2)
        } else {
            ((remaining as u128 * dt as u128) / dc as u128).min(u128::from(u64::MAX)) as u64
        };
        let w = horizon.clamp(LOOKAHEAD_FLOOR, LOOKAHEAD_MAX);
        self.prev_window = w;
        // `decide` leaves `watchdog_next > boundary`, so both
        // clamps keep the schedule strictly advancing.
        let mut next = boundary.saturating_add(w).min(self.watchdog_next);
        if boundary < self.max_cycles {
            next = next.min(self.max_cycles);
        }
        next
    }

    /// Folds the lanes' reports at `boundary` into this window's verdict.
    fn decide(&mut self, boundary: u64, reports: &[LaneReport]) -> Decision {
        let total: u64 = reports.iter().map(|r| r.completions).sum();
        let backlog: u64 = reports.iter().map(|r| r.backlog).sum();
        let all_halted = reports.iter().all(|r| r.all_halted);
        let mut d = Decision::default();
        // Watchdog rounds whose nominal instant fell inside this window.
        // "Progress" compares against the total at the previous round,
        // exactly like the event-driven watchdog compared per period.
        if let Some(period) = self.watchdog_period {
            while self.watchdog_next <= boundary {
                if backlog > 0 && total == self.watchdog_last_total && all_halted {
                    self.stalls.stall_events += 1;
                    if self.stalls.first_stall.is_none() {
                        self.stalls.first_stall = Some(SimTime(self.watchdog_next));
                    }
                    d.stall_notes.push(SimTime(self.watchdog_next));
                    if self.watchdog_abort {
                        self.stalls.aborted = true;
                        d.stop = true;
                    }
                }
                self.watchdog_last_total = total;
                self.watchdog_next += period;
            }
        }
        if !self.measuring && total >= self.warmup_target {
            // Warmup done: measurement opens at this boundary. The stop
            // check waits for the next window so at least one window is
            // ever measured.
            self.measuring = true;
            d.begin_measure = Some(SimTime(boundary));
        } else if self.measuring && total >= self.stop_target {
            d.stop = true;
        }
        if boundary >= self.max_cycles {
            d.stop = true;
        }
        d.next_boundary = self.next_boundary(boundary, total);
        self.prev_boundary = boundary;
        self.prev_total = total;
        self.rounds += 1;
        d
    }
}

/// Runs `engine` to completion on the fabric. Called by [`Engine::run`].
///
/// The lanes are `engine` itself, owning every group, when one worker is
/// asked for, there is nothing to partition, or there are too few producer
/// cores for a group-disjoint arrival striping; otherwise one rebuilt lane
/// per sharing group. Either way the same window loop pumps them and the
/// same [`merge`] tears them down.
pub(crate) fn run(engine: Engine) -> ExperimentResult {
    let wall_start = Instant::now();
    let cfg = engine.cfg().clone();
    let ctrl = FabricCtrl::new(&cfg);
    let groups = cfg.groups();
    let producers = cfg.machine.cores - cfg.dp_cores;
    let lanes: Vec<Engine> = if cfg.par_workers <= 1 || groups == 1 || producers < groups {
        vec![engine]
    } else {
        drop(engine);
        (0..groups)
            .map(|g| {
                Engine::try_new_lane(cfg.clone(), Some(g))
                    .expect("lane config is the already-validated fabric config")
            })
            .collect()
    };
    let workers = cfg.par_workers.clamp(1, lanes.len());
    let fabric = Fabric {
        first_boundary: ctrl.first_boundary(),
        ctrl: Mutex::new(ctrl),
        reports: Mutex::new(vec![LaneReport::default(); lanes.len()]),
        decision: Mutex::new(Decision::default()),
        rendezvous: hp_par::Rendezvous::new(workers),
    };

    // Worker `w` owns lanes `w`, `w + workers`, ... (moved in, so no two
    // threads' lanes share an allocation); worker 0 is the calling
    // thread, so a one-worker run spawns nothing.
    let mut per_worker: Vec<Vec<(usize, Engine)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, mut lane) in lanes.into_iter().enumerate() {
        lane.seed_events();
        per_worker[i % workers].push((i, lane));
    }
    let mut lanes: Vec<(usize, Engine)> = std::thread::scope(|scope| {
        let fabric = &fabric;
        let mut per_worker = per_worker.into_iter();
        let mine = per_worker.next().expect("at least one worker");
        let theirs: Vec<_> = per_worker
            .map(|lanes| scope.spawn(move || fabric.drive(lanes)))
            .collect();
        let mut done = fabric.drive(mine);
        for handle in theirs {
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        done
    });
    lanes.sort_by_key(|&(i, _)| i);
    let lanes = lanes.into_iter().map(|(_, lane)| lane).collect();

    let ctrl = fabric.ctrl.into_inner().unwrap();
    merge(
        &cfg,
        lanes,
        wall_start.elapsed().as_secs_f64(),
        ctrl.stalls,
        ctrl.rounds,
    )
}

/// What the workers share for one run: the controller, the lanes'
/// window-boundary reports, and the leader's verdict.
struct Fabric {
    first_boundary: u64,
    ctrl: Mutex<FabricCtrl>,
    reports: Mutex<Vec<LaneReport>>,
    decision: Mutex<Decision>,
    rendezvous: hp_par::Rendezvous,
}

impl Fabric {
    /// One worker's window loop over its `(lane index, lane)` pairs: pump
    /// to the boundary, report, let the leader decide, apply the verdict.
    /// Hands the lanes back once the controller stops the run.
    fn drive(&self, mut lanes: Vec<(usize, Engine)>) -> Vec<(usize, Engine)> {
        let mut boundary = self.first_boundary;
        loop {
            for (_, lane) in lanes.iter_mut() {
                lane.pump_window(boundary);
            }
            {
                let mut slots = self.reports.lock().unwrap();
                for (i, lane) in lanes.iter() {
                    slots[*i] = lane.lane_report();
                }
            }
            if self.rendezvous.wait() {
                // Leader folds the reports into this window's verdict;
                // followers are parked at the second barrier until it
                // lands.
                let reports = self.reports.lock().unwrap();
                let d = self.ctrl.lock().unwrap().decide(boundary, &reports);
                *self.decision.lock().unwrap() = d;
            }
            self.rendezvous.wait();
            let d = self.decision.lock().unwrap();
            for (i, lane) in lanes.iter_mut() {
                if *i == 0 {
                    for &at in &d.stall_notes {
                        lane.note_stall(at);
                    }
                }
                if let Some(at) = d.begin_measure {
                    lane.begin_measure(at);
                }
            }
            if d.stop {
                return lanes;
            }
            boundary = d.next_boundary;
        }
    }
}

/// Folds lane outputs into one whole-machine [`ExperimentResult`] — the
/// only teardown, whatever the lane count: exact histogram merges for
/// latency distributions, take-from-owner for lane-disjoint state
/// (per-queue stats, per-core telemetry), sums for machine-wide counters.
/// Window histograms are dropped once the merged percentiles are computed.
/// `sync_rounds` is the controller's window-boundary rendezvous count.
fn merge(
    cfg: &ExperimentConfig,
    lanes: Vec<Engine>,
    wall_secs: f64,
    stalls: StallSummary,
    sync_rounds: u64,
) -> ExperimentResult {
    // Global end: the latest event any lane processed. Every lane closes
    // its metrics windows and halt episodes at this shared instant. An
    // abort ends the run no earlier than the watchdog tick that observed
    // the stall (lookahead boundaries clamp to that tick and pump
    // strictly before it).
    let mut end = SimTime(
        lanes
            .iter()
            .map(|l| l.lane_report().last_processed)
            .max()
            .unwrap_or(0),
    );
    if stalls.aborted {
        if let Some(at) = stalls.first_stall {
            end = end.max(at);
        }
    }
    let mut outs: Vec<LaneOutput> = lanes.into_iter().map(|l| l.into_lane_output(end)).collect();

    let clock = cfg.machine.clock;
    let dp_cores = cfg.dp_cores;

    // Measurement window: every lane opened it at the same fabric-chosen
    // boundary (or never).
    let measure_start = outs[0].measure_start;
    debug_assert!(outs.iter().all(|o| o.measure_start == measure_start));
    let span = match measure_start {
        Some(s) => end.saturating_since(s),
        None => end.since_start(),
    };

    let drops: u64 = outs.iter().map(|o| o.drops).sum();

    let mut latency = Histogram::new();
    let mut notify_latency = Histogram::new();
    for o in &outs {
        latency.merge(&o.latency);
        notify_latency.merge(&o.notify_latency);
    }
    // Every measured completion is one latency sample.
    let throughput = clock.rate_per_sec(latency.count(), span);

    // Lane-disjoint state: exactly one lane owns each core and queue.
    let core_owner: Vec<usize> = (0..dp_cores)
        .map(|c| {
            outs.iter()
                .position(|o| o.core_owned[c])
                .expect("every DP core has an owner lane")
        })
        .collect();
    let telem: Vec<CoreTelemetry> = (0..dp_cores)
        .map(|c| outs[core_owner[c]].telem[c])
        .collect();
    let completions: u64 = telem.iter().map(|t| t.completions).sum();
    // Per-queue latency: each lane lists only the queues it completed
    // measured work on, and lanes own disjoint queues.
    let mut per_queue: Vec<(u32, OnlineStats)> = outs
        .iter_mut()
        .flat_map(|o| std::mem::take(&mut o.per_queue))
        .collect();
    per_queue.sort_unstable_by_key(|&(q, _)| q);
    // Every lane builds the whole queue universe's rows; the largest
    // lane's footprint is the per-lane cost.
    let queue_state_bytes = outs.iter().map(|o| o.queue_state_bytes).max().unwrap_or(0);

    // Machine-wide counters: non-owners contribute zero, so sums equal
    // a one-lane run's whole-machine totals.
    let mut mem_stats = hp_mem::system::CoreMemStats::default();
    let mut fastpath = hp_mem::system::FastPathStats::default();
    let mut injected = FaultCounters::default();
    let mut eviction_recovery_latency = Histogram::new();
    let mut doorbell_recovery_latency = Histogram::new();
    // Each lane counts its owned churn ticks; the sum is the global count.
    let mut churn_reallocations = 0u64;
    for o in &outs {
        mem_stats.l1_hits += o.mem_stats.l1_hits;
        mem_stats.llc_hits += o.mem_stats.llc_hits;
        mem_stats.remote_hits += o.mem_stats.remote_hits;
        mem_stats.dram_fetches += o.mem_stats.dram_fetches;
        fastpath.stable_hits += o.fastpath.stable_hits;
        fastpath.s_state_peeks += o.fastpath.s_state_peeks;
        fastpath.stable_reloads += o.fastpath.stable_reloads;
        fastpath.shared_joins += o.fastpath.shared_joins;
        fastpath.dir_hint_hits += o.fastpath.dir_hint_hits;
        injected.doorbells_dropped += o.fault_counters.doorbells_dropped;
        injected.doorbells_delayed += o.fault_counters.doorbells_delayed;
        injected.evictions += o.fault_counters.evictions;
        injected.spurious_injected += o.fault_counters.spurious_injected;
        injected.straggler_stalls += o.fault_counters.straggler_stalls;
        eviction_recovery_latency.merge(&o.eviction_recovery_latency);
        doorbell_recovery_latency.merge(&o.doorbell_recovery_latency);
        churn_reallocations += o.churn_reallocations;
    }
    // Device counters: each group's device is mutated only by its owning
    // lane, so summing the per-lane owned aggregates reassembles the
    // one-lane totals.
    let mut device: Option<crate::result::DeviceStats> = None;
    for o in &outs {
        if let Some(d) = &o.device {
            device.get_or_insert_with(Default::default).merge(d);
        }
    }

    let mut profile = outs[0].profile.clone();
    for o in &outs[1..] {
        profile.merge(&o.profile);
    }

    // Deterministic trace merge: (time, lane, within-lane emission order),
    // then re-sequence so exporters sorting by (at, seq) reproduce exactly
    // this order. Span ids stay lane-local.
    let trace = outs[0].trace_enabled.then(|| {
        let streams: Vec<Vec<(u64, TraceRecord)>> = outs
            .iter_mut()
            .map(|o| {
                std::mem::take(&mut o.trace_records)
                    .into_iter()
                    .map(|r| (r.at.since_start().count(), r))
                    .collect()
            })
            .collect();
        hp_par::merge_timestamped(streams)
            .into_iter()
            .enumerate()
            .map(|(i, (_, _, mut r))| {
                r.seq = i as u64;
                r
            })
            .collect()
    });

    let attribs: Vec<AttributionReport> = outs.iter_mut().filter_map(|o| o.attrib.take()).collect();
    let attrib = (!attribs.is_empty()).then(|| merge_attrib(attribs));

    let windows = if outs[0].windows.is_some() {
        let lane_windows: Vec<Vec<WindowSample>> = outs
            .iter_mut()
            .map(|o| o.windows.take().expect("all lanes sample windows"))
            .collect();
        merge_windows(cfg, &core_owner, lane_windows)
    } else {
        Vec::new()
    };

    let faults = (cfg.faults.is_active()
        || cfg.chaos.is_active()
        || cfg.qwait_timeout_cycles.is_some()
        || cfg.watchdog_period_cycles.is_some())
    .then(|| {
        // Every recovery latency lands in exactly one fault class.
        let mut recovery_latency_cycles = eviction_recovery_latency.clone();
        recovery_latency_cycles.merge(&doorbell_recovery_latency);
        FaultReport {
            injected,
            qwait_timeouts: telem.iter().map(|t| t.qwait_timeouts).sum(),
            recoveries: telem.iter().map(|t| t.recoveries).sum(),
            recovery_latency_cycles,
            // One latency sample per recovery: the counts are the
            // histograms' sample counts.
            eviction_recoveries: eviction_recovery_latency.count(),
            doorbell_recoveries: doorbell_recovery_latency.count(),
            eviction_recovery_latency,
            doorbell_recovery_latency,
            churn_reallocations,
            first_stall: stalls.first_stall,
            stall_events: stalls.stall_events,
            aborted_on_stall: stalls.aborted,
            // Every refused arrival is one engine drop.
            queue_drops: drops,
        }
    });

    let audits: Vec<AuditReport> = outs.iter_mut().filter_map(|o| o.audit.take()).collect();
    let audit = (!audits.is_empty()).then(|| merge_audit(&audits));

    ExperimentResult {
        throughput_tps: throughput,
        latency_cycles: latency,
        per_core: telem,
        completions,
        drops,
        offered_tps: cfg.offered_rate(),
        end,
        clock,
        per_queue,
        queue_state_bytes,
        notify_latency,
        mem_stats,
        faults,
        audit,
        windows,
        trace,
        trace_dropped: outs.iter().map(|o| o.trace_dropped).sum(),
        trace_emitted: outs.iter().map(|o| o.trace_emitted).sum(),
        attrib,
        profile: Some(profile),
        fastpath,
        device,
        wall_secs,
        sync_rounds,
        lane_generated_arrivals: outs.iter().map(|o| o.generated_arrivals).collect(),
        workload_label: cfg.workload.name(),
        notifier_label: cfg.notifier.label(),
        queues: cfg.queues,
        seed: cfg.seed,
    }
}

/// Folds per-lane attribution reports: conservation counters and phase
/// totals sum (lanes attribute disjoint item sets), histograms merge
/// exactly, per-queue/per-core groups concatenate (lane-disjoint keys),
/// and the exemplar pool is re-ranked worst-first and re-truncated.
fn merge_attrib(reports: Vec<AttributionReport>) -> AttributionReport {
    let mut it = reports.into_iter();
    let mut out = it.next().expect("at least one lane");
    for r in it {
        out.completed += r.completed;
        out.incomplete += r.incomplete;
        out.violations += r.violations;
        out.total_cycles += r.total_cycles;
        for (mine, theirs) in out.phase_totals.iter_mut().zip(&r.phase_totals) {
            *mine += theirs;
        }
        for (mine, theirs) in out.phase_hists.iter_mut().zip(&r.phase_hists) {
            mine.merge(theirs);
        }
        out.end_to_end.merge(&r.end_to_end);
        out.per_queue.extend(r.per_queue);
        out.per_core.extend(r.per_core);
        out.exemplars.extend(r.exemplars);
    }
    out.per_queue.sort_by_key(|g| g.id);
    out.per_core.sort_by_key(|g| g.id);
    out.exemplars.sort_by_key(|e| (Reverse(e.latency), e.item));
    out.exemplars.truncate(DEFAULT_EXEMPLARS);
    out
}

/// Folds per-lane window series element-wise. Lanes share window
/// boundaries (same cadence, same global close instant), so series
/// lengths and `(start, end)` pairs line up one-for-one; percentiles are
/// recomputed exactly from the lanes' retained per-window histograms.
fn merge_windows(
    cfg: &ExperimentConfig,
    core_owner: &[usize],
    lane_windows: Vec<Vec<WindowSample>>,
) -> Vec<WindowSample> {
    let clock = cfg.machine.clock;
    let n = lane_windows[0].len();
    for w in &lane_windows {
        assert_eq!(w.len(), n, "lanes closed different window counts");
    }
    (0..n)
        .map(|i| {
            let first = &lane_windows[0][i];
            let (start, end) = (first.start, first.end);
            let mut completions = 0u64;
            let mut drops = 0u64;
            let mut backlog = 0u64;
            let mut event_queue_depth = 0u64;
            let mut cores_halted = 0u64;
            let mut spin_instructions = 0u64;
            let mut hist = Histogram::new();
            for w in &lane_windows {
                let s = &w[i];
                debug_assert_eq!((s.start, s.end), (start, end));
                completions += s.completions;
                drops += s.drops;
                backlog += s.backlog;
                event_queue_depth += s.event_queue_depth;
                cores_halted += s.cores_halted;
                spin_instructions += s.spin_instructions;
                hist.merge(s.hist.as_ref().expect("lanes retain window hists"));
            }
            let halt_frac: Vec<f64> = core_owner
                .iter()
                .enumerate()
                .map(|(c, &owner)| lane_windows[owner][i].halt_frac[c])
                .collect();
            let to_us = |cyc: u64| clock.cycles_to_micros(Cycles(cyc));
            WindowSample {
                index: i as u64,
                start,
                end,
                completions,
                drops,
                throughput_tps: clock.rate_per_sec(completions, Cycles(end - start)),
                mean_us: hist.try_mean().map(|c| to_us(c as u64)),
                p50_us: hist.percentile(50.0).map(to_us),
                p99_us: hist.percentile(99.0).map(to_us),
                backlog,
                event_queue_depth,
                cores_halted,
                halt_frac,
                spin_instructions,
                hist: None,
            }
        })
        .collect()
}

/// Folds per-lane conservation audits: lifecycle totals sum (each lane
/// audits a disjoint item set), the worst-case enqueue-to-service bound
/// is the max over lanes.
fn merge_audit(reports: &[AuditReport]) -> AuditReport {
    let mut out = AuditReport::default();
    for r in reports {
        out.enqueued += r.enqueued;
        out.dequeued += r.dequeued;
        out.serviced += r.serviced;
        out.still_enqueued += r.still_enqueued;
        out.in_flight += r.in_flight;
        out.residual_backlog += r.residual_backlog;
        out.lost += r.lost;
        out.double_dequeues += r.double_dequeues;
        out.double_services += r.double_services;
        out.phantoms += r.phantoms;
        out.max_enqueue_to_service_cycles = out
            .max_enqueue_to_service_cycles
            .max(r.max_enqueue_to_service_cycles);
    }
    out
}
