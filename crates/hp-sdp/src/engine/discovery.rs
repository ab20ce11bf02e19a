//! Discovery: how a data-plane core finds work (Fig. 2). A core step runs
//! one iteration of the spin-poll sweep, the interrupt baseline's drain,
//! or Algorithm 1's QWAIT loop; halt and wake-up serve the last two.

use super::{Engine, Ev, IRQ_NAPI_BUDGET, POLL_INSTR};
use crate::config::Notifier;
use crate::telemetry::HaltState;
use hp_core::qwait::RearmAction;
use hp_mem::types::{AccessKind, CoreId, LineAddr};
use hp_queues::sim::QueueId;
use hp_sim::time::{Cycles, SimTime};
use hp_sim::trace::TraceKind;

/// Instructions for the QWAIT/VERIFY/RECONSIDER machinery per grant.
const QWAIT_INSTR: u64 = 20;
/// Extra cycles for the CAS-based synchronized dequeue spinning scale-up
/// needs (HyperPlane needs none: the device serializes grants).
const CAS_CYCLES: u64 = 24;
/// Software ready-set iterator: fixed cycles plus per-ready-QID scan cost
/// (Fig. 13's software implementation).
const SW_READY_BASE_CYCLES: u64 = 30;
const SW_READY_PER_QID_CYCLES: u64 = 4;
/// Lock cycles for a software ready set shared by a multi-core cluster.
const SW_READY_LOCK_CYCLES: u64 = 40;
/// Cycles of background work run per non-blocking-QWAIT iteration when
/// `background_task` is enabled (§III-A's first alternative).
const BACKGROUND_CHUNK_CYCLES: u64 = 250;
/// IPC the background task sustains (compute-bound batch work).
const BACKGROUND_IPC: f64 = 2.0;
/// Softirq dispatch + driver entry cost per serviced interrupt, cycles
/// (the kernel *delivery* cost is charged when the arrival wakes the
/// core, in the stimulus layer).
const IRQ_DISPATCH_CYCLES: u64 = 600;
/// C1 wake-up latency of a power-optimized HyperPlane core, microseconds
/// (paper: ≈0.5 µs).
const C1_WAKE_US: f64 = 0.5;
/// Inter-socket/inter-group access penalty (a QPI/UPI-class hop) charged
/// per remote device operation on stolen work, cycles.
const INTER_GROUP_CYCLES: u64 = 120;

impl Engine {
    /// Whether an idle core sleeps in C1 (power-optimized HyperPlane)
    /// rather than C0 halt: it then pays the C1 exit on every wake-up.
    fn halts_in_c1(&self) -> bool {
        matches!(
            self.cfg.notifier,
            Notifier::HyperPlane {
                power_optimized: true,
                ..
            }
        )
    }

    fn wake_cycles(&self) -> Cycles {
        if self.halts_in_c1() {
            self.cfg.machine.clock.micros_to_cycles(C1_WAKE_US)
        } else {
            Cycles::ZERO
        }
    }

    /// Opens core `c`'s halt episode at `at`. The caller has listed the
    /// core among its group's sleepers (or it still is one).
    pub(super) fn halt(&mut self, at: SimTime, c: usize) {
        let state = if self.halts_in_c1() {
            HaltState::C1
        } else {
            HaltState::C0Halt
        };
        self.note(at, TraceKind::Halt { core: c as u32 });
        self.trackers[c].halt(at, state);
    }

    /// The monitoring set of `group` observes a doorbell GetM on `line`:
    /// a hit inserts the queue into the ready set and wakes a sleeper.
    pub(super) fn deliver_snoop(&mut self, now: SimTime, group: usize, line: LineAddr) {
        let hit = self.devices[group].snoop_getm(line);
        self.note(
            now,
            TraceKind::GetmSnoop {
                group: group as u32,
                hit: hit.is_some(),
            },
        );
        if let Some(qid) = hit {
            self.note(now, TraceKind::ReadyInsert { queue: qid.0 });
            self.wake_one(now, group);
        }
    }

    /// Wakes one sleeper for an activation in `group`: the group's most
    /// recently halted core or, with work stealing, another group's.
    pub(super) fn wake_one(&mut self, now: SimTime, group: usize) {
        let lookup = self.devices[group].timing().monitor_lookup;
        let (core, hop) = match self.halted_by_group[group].pop() {
            Some(core) => (core, 0),
            // Work stealing (§III-B future work): an activation with no
            // local sleeper may wake an idle core of another group, which
            // will steal the ready QID across the socket boundary.
            None if self.cfg.work_stealing => {
                let stolen = self
                    .halted_by_group
                    .iter_mut()
                    .enumerate()
                    .filter(|&(g, _)| g != group)
                    .find_map(|(_, sleepers)| sleepers.pop());
                let Some(core) = stolen else {
                    return;
                };
                (core, INTER_GROUP_CYCLES)
            }
            None => return,
        };
        debug_assert!(self.is_halted(core));
        // The wake is in flight: stale any armed re-poll timeout so it
        // cannot double-resume the core mid-transit.
        self.qwait_epoch[core] += 1;
        let delay = Cycles(lookup.count() + self.wake_cycles().count() + hop);
        self.ev.schedule_at(now + delay, Ev::CoreWake(core));
    }

    pub(super) fn on_core_wake(&mut self, now: SimTime, c: usize, window_end: SimTime) {
        debug_assert!(self.is_halted(c));
        self.note(now, TraceKind::Wake { core: c as u32 });
        self.trackers[c].resume(now, &mut self.telem[c]);
        // A real wake-up invalidates any armed re-poll timeout and
        // resets its backoff: the notification path is working.
        self.qwait_epoch[c] += 1;
        self.qwait_backoff[c] = self.cfg.qwait_timeout_cycles.unwrap_or(0);
        self.on_core_step(now, c, window_end);
    }

    /// Core `c`'s step at `now`, in a pump window that ends at
    /// `window_end`. A spinning core's empty poll yields the instant of
    /// its next poll. When that instant falls strictly before every
    /// pending event, `window_end` and the next metrics and chaos
    /// boundaries, no other handler can run first, so the poll runs here
    /// at once instead of through a schedule and a pop (DESIGN.md §13,
    /// "Inline empty polls"). The kernel profile tallies it as the
    /// `core-step` pop it replaces, at its own instant.
    pub(super) fn on_core_step(&mut self, mut now: SimTime, c: usize, window_end: SimTime) {
        // Read at the first empty poll, then kept: an empty poll schedules
        // nothing, so the limit holds for the whole inline run.
        let mut limit = None;
        loop {
            // Fault: the core straggles (SMI / frequency dip / noisy
            // neighbor) — it burns the stall actively, then retries the
            // step.
            let step = self.straggler_step[c];
            self.straggler_step[c] += 1;
            if let Some(stall) = self
                .faults
                .straggler_stall(((c as u64) << 32).wrapping_add(step))
            {
                self.telem[c].active_cycles += stall.count();
                self.ev.schedule_at(now + stall, Ev::CoreStep(c));
                return;
            }
            let next = match self.cfg.notifier {
                Notifier::Spinning => match self.spin_step(now, c) {
                    Some(next) => next,
                    None => return,
                },
                Notifier::Interrupt => return self.irq_step(now, c),
                Notifier::HyperPlane { .. } => return self.hp_step(now, c),
            };
            let limit = *limit.get_or_insert_with(|| {
                let head = self.ev.peek_time().unwrap_or(SimTime(u64::MAX));
                let boundary = self.metrics_next.min(self.chaos_next);
                head.min(window_end).min(SimTime(boundary))
            });
            if next >= limit {
                self.ev.schedule_at(next, Ev::CoreStep(c));
                return;
            }
            self.ev.advance_to(next);
            self.profile.tally(Ev::CoreStep(c).profile_idx(), next);
            now = next;
        }
    }

    /// One spin-poll iteration: interrogate the queue under the pointer;
    /// process it if non-empty, else advance. Returns the instant of the
    /// next poll after a plain empty poll, which the caller runs or
    /// schedules; every other outcome schedules its own next step (or,
    /// for a zero-mass partition, none) and returns `None`.
    fn spin_step(&mut self, now: SimTime, c: usize) -> Option<SimTime> {
        let group = self.core_group[c];
        let core = CoreId(c);
        let qlist_len = self.queues_of_group[group].len();
        // `core_ptr` is kept in-range by every writer; the sweep advance
        // below wraps by compare instead of `%` (an integer divide on the
        // hottest line in the simulator).
        let ptr = self.core_ptr[c];
        debug_assert!(ptr < qlist_len);
        let q = self.queues_of_group[group][ptr];
        let qi = q.0 as usize;

        // Poll: read the doorbell line and the queue-head descriptor line
        // (a poll-mode driver interrogates the ring head, not just a
        // counter — two lines per queue is what thrashes the L1 at high
        // queue counts). The per-queue hints skip the LLC set probe;
        // with `mem_fast_path` off, `load_hinted` ignores them.
        let (db, desc_addr) = (self.doorbell(qi), self.layout.descriptor(q));
        let [db_hint, desc_hint] = &mut self.poll_hints[qi];
        let poll = self.mem.load_hinted(core, db, db_hint);
        let desc = self.mem.load_hinted(core, desc_addr, desc_hint);
        let mem_lat = poll.latency.count() + desc.latency.count();
        let poll_cost = self.cfg.poll_overhead_cycles + mem_lat;
        self.poll_cost_ewma[c] = 0.98 * self.poll_cost_ewma[c] + 0.02 * poll_cost as f64;

        if self.qrows[qi].items.is_empty() {
            self.telem[c].spin_instructions += POLL_INSTR;
            self.telem[c].active_cycles += poll_cost;
            self.telem[c].empty_polls += 1;
            self.core_ptr[c] = if ptr + 1 == qlist_len { 0 } else { ptr + 1 };
            self.empty_streak[c] += 1;

            // Fast-forward: a full sweep found nothing; only the next
            // traffic arrival can add work to this partition (siblings
            // only remove work, and a spinning run schedules no device
            // events), so jump straight to it. At the arrival instant the
            // Arrival event was inserted earlier and therefore pops first,
            // resetting the streak before this core's step runs.
            if self.empty_streak[c] >= qlist_len {
                // Only this group's stream can feed this partition.
                let target = self.group_next_arrival[group];
                if target == u64::MAX {
                    // Zero-mass partition: no arrival can ever add
                    // work here, so the core quiesces instead of spinning
                    // to the end of time. Identical in serial and lane
                    // runs (the stream map is build-deterministic).
                    return None;
                }
                let t_next = SimTime(target);
                let resume_at = now + Cycles(poll_cost);
                if t_next > resume_at {
                    let dt = t_next.since(resume_at).count();
                    let skipped = dt / self.poll_cost_ewma[c].max(1.0) as u64;
                    self.telem[c].spin_instructions += skipped * POLL_INSTR;
                    self.telem[c].active_cycles += dt;
                    self.telem[c].empty_polls += skipped;
                    self.core_ptr[c] = (ptr + 1 + skipped as usize) % qlist_len;
                    self.ev.schedule_at(t_next, Ev::CoreStep(c));
                    return None;
                }
            }
            return Some(now + Cycles(poll_cost));
        }

        // Found work.
        self.empty_streak[c] = 0;
        self.telem[c].useful_instructions += POLL_INSTR;
        let mut total = poll_cost;

        let sync = if self.cfg.cluster > 1 { CAS_CYCLES } else { 0 };
        total += sync;
        let batch = self.cfg.batch.min(self.qrows[qi].items.len());
        total += self.dequeue_batch(c, q, batch);
        let deq_instant = now + Cycles(total);
        total += self.process_items(now, c, q, total, deq_instant);
        self.core_ptr[c] = if ptr + 1 == qlist_len { 0 } else { ptr + 1 };
        self.telem[c].active_cycles += total;
        self.ev.schedule_after(Cycles(total), Ev::CoreStep(c));
        None
    }

    /// One interrupt-baseline iteration: take the next pending IRQ, drain
    /// its queue NAPI-style (bounded budget), re-arm, and sleep when no
    /// IRQs are pending. Each IRQ delivery already paid the kernel entry
    /// cost at wake-up; per-queue servicing pays a softirq dispatch cost.
    fn irq_step(&mut self, now: SimTime, c: usize) {
        let group = self.core_group[c];
        let Some(q) = self.irq_pending[group].pop_front() else {
            // Idle: block in the kernel until the next interrupt.
            self.halted_by_group[group].push(c);
            self.halt(now, c);
            return;
        };
        let q = QueueId(q);
        let qi = q.0 as usize;

        // Softirq dispatch + driver entry for this queue.
        let mut total = IRQ_DISPATCH_CYCLES;
        self.telem[c].useful_instructions += IRQ_DISPATCH_CYCLES; // ~1 instr/cycle kernel path

        // NAPI budget: drain up to IRQ_NAPI_BUDGET items, then either
        // re-arm (drained) or reschedule ourselves (still backlogged).
        let batch = IRQ_NAPI_BUDGET.min(self.qrows[qi].items.len());
        if batch > 0 {
            total += self.dequeue_batch(c, q, batch);
            let deq_instant = now + Cycles(total);
            total += self.process_items(now, c, q, total, deq_instant);
        }
        if self.qrows[qi].items.is_empty() {
            self.qrows[qi].irq_armed = true;
        } else {
            self.irq_pending[group].push_back(q.0);
        }
        self.telem[c].active_cycles += total;
        self.ev.schedule_after(Cycles(total), Ev::CoreStep(c));
    }

    /// One HyperPlane iteration: QWAIT → VERIFY → dequeue → RECONSIDER →
    /// process (Algorithm 1's data-plane loop).
    fn hp_step(&mut self, now: SimTime, c: usize) {
        let group = self.core_group[c];
        let core = CoreId(c);
        let Notifier::HyperPlane {
            software_ready_set, ..
        } = self.cfg.notifier
        else {
            unreachable!("hp_step on non-HyperPlane config")
        };

        let mut total: u64;
        if software_ready_set {
            let ready = self.devices[group].ready_count() as u64;
            total = SW_READY_BASE_CYCLES + SW_READY_PER_QID_CYCLES * ready;
            if self.cfg.cluster > 1 {
                total += SW_READY_LOCK_CYCLES;
            }
            self.telem[c].useful_instructions += SW_READY_BASE_CYCLES + 2 * ready;
        } else {
            total = self.devices[group].timing().qwait.count();
            self.telem[c].useful_instructions += QWAIT_INSTR;
        }

        // Work stealing: a core with an empty local ready set may fetch a
        // ready QID from a remote group's ready set (§III-B future work),
        // paying the inter-socket penalty on every stolen device operation.
        let mut serve_group = group;
        let mut selected = self.devices[group].qwait_select();
        if selected.is_none() && self.cfg.work_stealing {
            let n_groups = self.devices.len();
            for off in 1..n_groups {
                let g2 = (group + off) % n_groups;
                if let Some(q) = self.devices[g2].qwait_select() {
                    serve_group = g2;
                    selected = Some(q);
                    total += 2 * INTER_GROUP_CYCLES;
                    break;
                }
            }
        }
        let group = serve_group;
        let Some(qid) = selected else {
            self.telem[c].empty_polls += 1;
            // Non-blocking QWAIT variant (§III-A): instead of halting, run
            // a chunk of a latency-insensitive background task, then poll
            // the entire ready set again with a single QWAIT.
            if self.cfg.background_task {
                total += BACKGROUND_CHUNK_CYCLES;
                self.telem[c].background_instructions +=
                    (BACKGROUND_CHUNK_CYCLES as f64 * BACKGROUND_IPC) as u64;
                self.telem[c].active_cycles += total;
                self.ev.schedule_after(Cycles(total), Ev::CoreStep(c));
                return;
            }
            // Halt until an activation wakes us.
            self.telem[c].active_cycles += total;
            self.halted_by_group[group].push(c);
            self.halt(now + Cycles(total), c);
            self.arm_qwait_timeout(now + Cycles(total), c);
            return;
        };

        // QWAIT-VERIFY: read the doorbell count.
        let qi = qid.0 as usize;
        let verify_mem = self.mem.access(core, self.doorbell(qi), AccessKind::Load);
        total += verify_mem.latency.count() + self.devices[group].timing().verify.count();
        self.telem[c].useful_instructions += QWAIT_INSTR / 2;

        let depth = self.qrows[qi].items.len() as u64;
        let (ready, action) = self.devices[group].qwait_verify(qid, depth);
        if let RearmAction::ProbeShared(line) = action {
            total += self.mem.probe_shared(line).count();
        }
        if !ready {
            self.telem[c].spurious += 1;
            self.telem[c].active_cycles += total;
            self.ev.schedule_after(Cycles(total), Ev::CoreStep(c));
            return;
        }

        let batch = self.cfg.batch.min(self.qrows[qi].items.len());
        total += self.dequeue_batch(c, qid, batch);
        let deq_instant = now + Cycles(total);

        // QWAIT-RECONSIDER placement (paper §III-B): Algorithm 1's default
        // reconsiders *between* dequeue and process, allowing a sibling
        // core to drain the queue's next item concurrently (maximum
        // intra-queue concurrency, no HoL blocking). Flow-stateful
        // applications swap lines 18/19 — reconsider only after
        // processing — to force in-order delivery; the state change is
        // deferred to the simulated completion instant so no sibling can
        // be granted the queue mid-service.
        if !self.cfg.in_order {
            total += self.reconsider(c, group, qid, now);
        }
        total += self.process_items(now, c, qid, total, deq_instant);
        if self.cfg.in_order {
            // Charge the instruction cost now; fire the device-state
            // change when processing completes in simulated time.
            total += self.devices[group].timing().verify.count();
            self.ev.schedule_after(
                Cycles(total),
                Ev::Reconsider {
                    core: c,
                    group,
                    qid: qid.0,
                },
            );
        }

        self.telem[c].active_cycles += total;
        self.ev.schedule_after(Cycles(total), Ev::CoreStep(c));
    }

    /// `QWAIT-RECONSIDER` with its coherence action and sibling wake-up;
    /// returns cycles charged.
    pub(super) fn reconsider(&mut self, c: usize, group: usize, qid: QueueId, now: SimTime) -> u64 {
        let mut cost = self.devices[group].timing().verify.count();
        self.telem[c].useful_instructions += QWAIT_INSTR / 2;
        let depth_after = self.qrows[qid.0 as usize].items.len() as u64;
        let action = self.devices[group].qwait_reconsider(qid, depth_after);
        if let RearmAction::ProbeShared(line) = action {
            cost += self.mem.probe_shared(line).count();
        }
        // A re-activated backlogged queue may be picked up by a halted
        // sibling core in the cluster.
        if depth_after > 0 {
            self.wake_one(now, group);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ExperimentConfig, Load, Notifier};
    use crate::engine::tests::quick;
    use crate::engine::Engine;
    use hp_traffic::shape::TrafficShape;
    use hp_workloads::service::WorkloadKind;

    #[test]
    fn spinning_single_queue_saturates_near_capacity() {
        let r = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            1,
            Load::Saturation,
        );
        // 1.4 us/task => ~714k; overheads shave some off.
        assert!(
            r.throughput_tps > 350_000.0 && r.throughput_tps < 750_000.0,
            "throughput {}",
            r.throughput_tps
        );
        assert!(r.completions >= 2_000);
    }

    #[test]
    fn hyperplane_beats_spinning_at_many_queues_sq() {
        let spin = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            500,
            Load::Saturation,
        );
        let hp = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            500,
            Load::Saturation,
        );
        assert!(
            hp.throughput_tps > 2.0 * spin.throughput_tps,
            "hp {} vs spin {}",
            hp.throughput_tps,
            spin.throughput_tps
        );
    }

    #[test]
    fn hyperplane_throughput_flat_in_queue_count_sq() {
        let q1 = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            1,
            Load::Saturation,
        );
        let q500 = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            500,
            Load::Saturation,
        );
        let ratio = q500.throughput_tps / q1.throughput_tps;
        assert!(
            ratio > 0.85,
            "HyperPlane SQ throughput should be queue-scalable, ratio {ratio}"
        );
    }

    #[test]
    fn light_load_latency_grows_with_queues_for_spinning() {
        let small = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            4,
            Load::RatePerSec(5_000.0),
        );
        let large = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            800,
            Load::RatePerSec(5_000.0),
        );
        assert!(
            large.mean_latency_us() > 2.0 * small.mean_latency_us(),
            "small {} us vs large {} us",
            small.mean_latency_us(),
            large.mean_latency_us()
        );
    }

    #[test]
    fn light_load_latency_flat_for_hyperplane() {
        let small = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            4,
            Load::RatePerSec(5_000.0),
        );
        let large = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            800,
            Load::RatePerSec(5_000.0),
        );
        let ratio = large.mean_latency_us() / small.mean_latency_us();
        assert!(
            ratio < 1.5,
            "HyperPlane latency must not scale with queues, ratio {ratio}"
        );
        assert!(
            large.mean_latency_us() < 10.0,
            "zero-load latency {} us",
            large.mean_latency_us()
        );
    }

    #[test]
    fn hyperplane_halts_at_low_load() {
        let r = quick(
            Notifier::hyperplane(),
            TrafficShape::FullyBalanced,
            64,
            Load::RatePerSec(10_000.0),
        );
        let t = r.aggregate_telemetry();
        assert!(
            t.halt_fraction() > 0.8,
            "core should be mostly halted at ~1.4% load, got {}",
            t.halt_fraction()
        );
    }

    #[test]
    fn spinning_never_halts() {
        let r = quick(
            Notifier::Spinning,
            TrafficShape::FullyBalanced,
            64,
            Load::RatePerSec(10_000.0),
        );
        let t = r.aggregate_telemetry();
        assert_eq!(t.halt_fraction(), 0.0);
        assert!(t.spin_instructions > t.useful_instructions);
    }

    #[test]
    fn power_optimized_wake_adds_latency() {
        let plain = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            4,
            Load::RatePerSec(5_000.0),
        );
        let c1 = quick(
            Notifier::hyperplane_power_opt(),
            TrafficShape::SingleQueue,
            4,
            Load::RatePerSec(5_000.0),
        );
        assert!(
            c1.mean_latency_us() > plain.mean_latency_us() + 0.3,
            "C1 {} vs plain {}",
            c1.mean_latency_us(),
            plain.mean_latency_us()
        );
    }

    #[test]
    fn multicore_scale_up_shares_all_queues() {
        let mut cfg =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 64)
                .with_notifier(Notifier::hyperplane())
                .with_cores(4, 4)
                .with_load(Load::Saturation);
        cfg.target_completions = 4_000;
        let r = Engine::new(cfg).run();
        // All four cores should complete work.
        for (i, t) in r.per_core.iter().enumerate() {
            assert!(
                t.completions > 100,
                "core {i} completed only {}",
                t.completions
            );
        }
        // Aggregate throughput should clearly exceed one core's capacity.
        assert!(
            r.throughput_tps > 1_000_000.0,
            "4-core throughput {}",
            r.throughput_tps
        );
    }

    #[test]
    fn interrupt_baseline_works_but_pays_kernel_costs() {
        // Zero-load latency: interrupts add the ~2us kernel path on every
        // wake; HyperPlane stays far below (the paper's Fig. 1 argument).
        let irq = quick(
            Notifier::Interrupt,
            TrafficShape::SingleQueue,
            64,
            Load::RatePerSec(5_000.0),
        );
        let hp = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            64,
            Load::RatePerSec(5_000.0),
        );
        assert!(
            irq.mean_latency_us() > hp.mean_latency_us() + 1.5,
            "interrupt {} us vs hyperplane {} us",
            irq.mean_latency_us(),
            hp.mean_latency_us()
        );
        // But unlike spinning, the interrupt core sleeps when idle.
        let t = irq.aggregate_telemetry();
        assert!(
            t.halt_fraction() > 0.8,
            "halt fraction {}",
            t.halt_fraction()
        );
    }

    #[test]
    fn interrupt_baseline_is_queue_scalable_but_slower_than_hyperplane() {
        // Interrupts do not iterate empty queues, so they scale with queue
        // count; their weakness is per-wake cost, not queue count.
        let q1 = quick(
            Notifier::Interrupt,
            TrafficShape::SingleQueue,
            1,
            Load::Saturation,
        );
        let q500 = quick(
            Notifier::Interrupt,
            TrafficShape::SingleQueue,
            500,
            Load::Saturation,
        );
        assert!(
            q500.throughput_tps > 0.85 * q1.throughput_tps,
            "interrupt throughput should not collapse with queues: {} vs {}",
            q500.throughput_tps,
            q1.throughput_tps
        );
        // NAPI batching (64 items/IRQ) amortizes the kernel cost at
        // saturation; at *equal* batch size HyperPlane matches or beats
        // the interrupt path (no kernel dispatch per grant).
        let mut hp_cfg =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::SingleQueue, 500)
                .with_notifier(Notifier::hyperplane());
        hp_cfg.batch = 64;
        hp_cfg.target_completions = 2_000;
        let hp = Engine::new(hp_cfg).run();
        assert!(
            q500.throughput_tps < 1.05 * hp.throughput_tps,
            "interrupt {} should not beat equally-batched hyperplane {}",
            q500.throughput_tps,
            hp.throughput_tps
        );
    }

    #[test]
    fn background_task_replaces_halting() {
        let mut cfg =
            ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 32)
                .with_notifier(Notifier::hyperplane())
                .with_load(Load::RatePerSec(10_000.0));
        cfg.target_completions = 1_500;
        cfg.background_task = true;
        let r = Engine::new(cfg).run();
        let t = r.aggregate_telemetry();
        assert_eq!(t.halt_fraction(), 0.0, "non-blocking QWAIT never halts");
        assert!(t.background_instructions > 0, "background work must run");
        // At ~1.4% load the core is mostly doing background work.
        assert!(
            t.background_ipc() > t.useful_ipc(),
            "background IPC {} should dominate at light load ({} useful)",
            t.background_ipc(),
            t.useful_ipc()
        );
        // And the data plane still reacts promptly (bounded by the chunk).
        assert!(
            r.mean_latency_us() < 4.0,
            "latency {} us",
            r.mean_latency_us()
        );
    }

    #[test]
    fn in_order_mode_serializes_queues_under_sharing() {
        // 4 cores scale-up on ONE queue with high-variance service. With
        // intra-queue concurrency (default) multiple cores drain the queue
        // in parallel; in-order mode serializes it, capping throughput
        // near a single core's.
        let mk = |in_order: bool| {
            let mut cfg =
                ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::SingleQueue, 4)
                    .with_cores(4, 4)
                    .with_notifier(Notifier::hyperplane())
                    .with_load(Load::Saturation);
            cfg.in_order = in_order;
            cfg.target_completions = 3_000;
            cfg
        };
        let concurrent = Engine::new(mk(false)).run();
        let serial = Engine::new(mk(true)).run();
        assert!(
            concurrent.throughput_tps > 1.8 * serial.throughput_tps,
            "concurrent {} vs in-order {}",
            concurrent.throughput_tps,
            serial.throughput_tps
        );
        // In-order: at most one core can be serving the queue at a time, so
        // single-core-equivalent throughput.
        assert!(
            serial.throughput_tps < 1.3 * 714_000.0,
            "in-order throughput {} should be near one core's capacity",
            serial.throughput_tps
        );
    }

    #[test]
    fn spinning_l1_misses_grow_with_queue_count() {
        let small = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            8,
            Load::Saturation,
        );
        let large = quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            800,
            Load::Saturation,
        );
        // Buffer streaming dominates both; the queue-count effect shows as
        // a solid additive increase in miss ratio (doorbell/descriptor
        // polls falling out of the L1).
        assert!(
            large.mem_stats().l1_miss_ratio() > small.mem_stats().l1_miss_ratio() + 0.15,
            "small {} vs large {}",
            small.mem_stats().l1_miss_ratio(),
            large.mem_stats().l1_miss_ratio()
        );
    }

    #[test]
    fn work_stealing_recovers_imbalance_losses() {
        // Two 2-core sockets (groups); traffic heavily skewed toward
        // group 0's queues. Without stealing group 1 idles; with stealing
        // its cores drain group 0's ready set across the socket boundary.
        let mk = |steal: bool| {
            let mut cfg = ExperimentConfig::new(
                WorkloadKind::CryptoForward,
                TrafficShape::SingleQueue, // everything lands in queue 0
                16,
            )
            .with_cores(4, 2)
            .with_notifier(Notifier::hyperplane())
            .with_load(Load::Saturation);
            cfg.work_stealing = steal;
            cfg.target_completions = 3_000;
            cfg
        };
        let no_steal = Engine::new(mk(false)).run();
        let steal = Engine::new(mk(true)).run();
        assert!(
            steal.throughput_tps > 1.5 * no_steal.throughput_tps,
            "stealing {} vs partitioned {}",
            steal.throughput_tps,
            no_steal.throughput_tps
        );
        // With stealing, remote cores actually complete work.
        let busy_cores = steal
            .per_core
            .iter()
            .filter(|t| t.completions > 100)
            .count();
        assert!(busy_cores >= 3, "only {busy_cores} cores participated");
    }

    #[test]
    fn software_ready_set_is_slower_at_fb_saturation() {
        let mut hw_cfg = ExperimentConfig::new(
            WorkloadKind::RequestDispatch,
            TrafficShape::FullyBalanced,
            512,
        )
        .with_notifier(Notifier::hyperplane())
        .with_load(Load::Saturation);
        hw_cfg.target_completions = 3_000;
        let mut sw_cfg = hw_cfg.clone().with_notifier(Notifier::HyperPlane {
            power_optimized: false,
            software_ready_set: true,
        });
        sw_cfg.target_completions = 3_000;
        let hw = Engine::new(hw_cfg).run();
        let sw = Engine::new(sw_cfg).run();
        assert!(
            sw.throughput_tps < 0.97 * hw.throughput_tps,
            "sw {} vs hw {}",
            sw.throughput_tps,
            hw.throughput_tps
        );
    }
}
