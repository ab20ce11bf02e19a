//! Recovery: the QWAIT re-poll timeout and its sweep, which repair lost
//! notifications, and chaos churn, which re-homes live doorbells.

use super::build::{spare_index, take_spare};
use super::{Engine, Ev, POLL_INSTR};
use hp_mem::types::{AccessKind, CoreId};
use hp_queues::sim::{QueueId, QueueLayout};
use hp_sim::time::{Cycles, SimTime};
use hp_sim::trace::TraceKind;

/// Ceiling for the QWAIT re-poll timeout's exponential backoff, cycles:
/// fruitless expiries double the next timeout up to this bound, so an
/// idle fault-free core converges to cheap, infrequent re-polls.
const QWAIT_BACKOFF_MAX_CYCLES: u64 = 2_000_000;

impl Engine {
    /// Arms the bounded-backoff re-poll timeout for a core that just
    /// halted in the QWAIT path (no-op unless `qwait_timeout_cycles` is
    /// configured). The interrupt baseline never arms one: its kernel
    /// delivery path is modeled as reliable.
    pub(super) fn arm_qwait_timeout(&mut self, halt_at: SimTime, c: usize) {
        if self.cfg.qwait_timeout_cycles.is_none() {
            return;
        }
        self.qwait_epoch[c] += 1;
        let epoch = self.qwait_epoch[c];
        self.ev.schedule_at(
            halt_at + Cycles(self.qwait_backoff[c]),
            Ev::QwaitTimeout { core: c, epoch },
        );
    }

    /// A halted core's re-poll timeout expired: sweep the group's queues
    /// for missed work. On a hit the core resumes (and the miss-to-recovery
    /// latency is recorded); on a miss it re-halts with doubled, bounded
    /// backoff so an idle fault-free system converges to rare re-polls.
    pub(super) fn on_qwait_timeout(&mut self, now: SimTime, c: usize, epoch: u64) {
        let halted_at = match self.trackers[c].halted_since() {
            Some(since) if epoch == self.qwait_epoch[c] => since,
            _ => return, // stale: the core was woken since this was armed
        };
        let base = self.cfg.qwait_timeout_cycles.unwrap_or(0);
        self.telem[c].qwait_timeouts += 1;
        self.note(now, TraceKind::WakeTimeout { core: c as u32 });
        let group = self.core_group[c];
        let (found, sweep_cost, reregistered) = self.recovery_sweep(now, c, group);
        // The sweep runs on the briefly-resumed core: its cycles are
        // active, not halted.
        self.trackers[c].resume(now, &mut self.telem[c]);
        self.telem[c].active_cycles += sweep_cost;
        if found {
            // Missed wake-up recovered: how long did work sit unnoticed?
            // Attribute it per fault class: a sweep that had to re-insert
            // an evicted monitoring entry recovered from an eviction; one
            // that only found unannounced backlog recovered from a lost
            // (or not-yet-delivered) doorbell. Each class's recovery
            // count is its histogram's sample count.
            let lat = now.saturating_since(halted_at).count();
            if reregistered {
                self.eviction_recovery_latency.record(lat);
            } else {
                self.doorbell_recovery_latency.record(lat);
            }
            self.telem[c].recoveries += 1;
            self.note(now, TraceKind::Recovery { core: c as u32 });
            self.qwait_backoff[c] = base;
            self.qwait_epoch[c] += 1;
            self.halted_by_group[group].retain(|&x| x != c);
            self.ev
                .schedule_at(now + Cycles(sweep_cost), Ev::CoreStep(c));
        } else {
            self.halt(now + Cycles(sweep_cost), c);
            self.qwait_backoff[c] = self.qwait_backoff[c]
                .saturating_mul(2)
                .clamp(base, QWAIT_BACKOFF_MAX_CYCLES.max(base));
            self.arm_qwait_timeout(now + Cycles(sweep_cost), c);
        }
    }

    /// Walks every queue of `group` like a software poll loop: reads each
    /// doorbell (charged at memory latency plus poll overhead),
    /// re-registers entries lost to monitoring-set eviction (Algorithm 1's
    /// `QWAIT-ADD` retry; a Cuckoo conflict just leaves the queue for the
    /// next sweep), and forces backlogged queues into the ready set.
    /// Returns whether any backlog was found, the cycles charged, and
    /// whether the sweep had to re-register an evicted monitoring entry
    /// (the eviction fault class, as opposed to a lost doorbell).
    fn recovery_sweep(&mut self, now: SimTime, c: usize, group: usize) -> (bool, u64, bool) {
        let core = CoreId(c);
        let mut cost = 0u64;
        let mut found = false;
        let mut reregistered = false;
        for i in 0..self.queues_of_group[group].len() {
            let q = self.queues_of_group[group][i];
            let qi = q.0 as usize;
            let db = self.doorbell(qi);
            cost += self.cfg.poll_overhead_cycles;
            cost += self.mem.access(core, db, AccessKind::Load).latency.count();
            self.telem[c].useful_instructions += POLL_INSTR;
            if self.devices[group].line_of(q).is_none() {
                cost += self.devices[group].timing().monitor_lookup.count();
                let _ = self.devices[group].qwait_add(q, db.line());
                reregistered = true;
            }
            if !self.qrows[qi].items.is_empty() {
                self.devices[group].force_activate(q);
                // The forced activation is a ready-set insertion like any
                // other; announcing it keeps the trace faithful and ends
                // the queue's attribution dark time at the sweep instant.
                self.note(now, TraceKind::ReadyInsert { queue: q.0 });
                found = true;
            }
        }
        (found, cost, reregistered)
    }

    /// Chaos-plane doorbell churn: the control plane re-homes one live
    /// queue's doorbell to a fresh spare line through Algorithm 1's
    /// QWAIT-ADD retry — tear-down, reallocate, re-register — while
    /// traffic is in flight. Wake-ups snooped on the old line between
    /// tear-down and the producer's next ring are genuinely lost; a
    /// careful driver therefore finishes the migration by syncing the
    /// queue's backlog into the device (the re-check in Algorithm 1),
    /// so churn alone never strands work.
    ///
    /// Processes tick `tick` (group `g`'s turn in the global schedule —
    /// the victim pick is re-derived and asserted) and schedules the
    /// group's next owned tick.
    pub(super) fn on_group_churn(&mut self, now: SimTime, g: usize, tick: u64) {
        let Some(churn) = self.cfg.chaos.churn else {
            return;
        };
        let qi = self.faults.pick(tick, self.qrows.len());
        debug_assert_eq!(
            self.qrows[qi].group as usize, g,
            "churn tick scheduled for the wrong group"
        );
        self.churn_rehome(now, qi);
        // Per-lane the counter counts *owned* re-homings only; the fabric
        // merge sums lanes into the global count.
        self.churn_reallocations += 1;
        self.schedule_next_group_churn(g, tick + 1, churn.period);
    }

    /// Schedules group `g`'s next churn tick at or after `from_tick`.
    /// Tick `j` fires at `(j + 1) * period` and victimizes
    /// `pick(j, queues)` — a pure, stateless function of the tick index —
    /// so the owner scans forward to its next owned tick and schedules
    /// exactly that one. Foreign ticks are skipped in O(1) each, without
    /// replaying any chain event; the scan is bounded by `max_cycles`
    /// (ticks past it can never be processed).
    pub(super) fn schedule_next_group_churn(&mut self, g: usize, from_tick: u64, period: u64) {
        let n = self.qrows.len();
        let mut j = from_tick;
        loop {
            let at = match (j + 1).checked_mul(period) {
                Some(at) if at <= self.cfg.max_cycles => at,
                _ => return,
            };
            if self.qrows[self.faults.pick(j, n)].group as usize == g {
                self.ev.schedule_at(
                    SimTime(at),
                    Ev::GroupChurn {
                        group: g as u32,
                        tick: j,
                    },
                );
                return;
            }
            j += 1;
        }
    }

    /// Re-homes queue `qi`'s doorbell through Algorithm 1 (the body of a
    /// churn tick — spare selection is strided per group, so it depends
    /// only on the group's own churn history).
    fn churn_rehome(&mut self, now: SimTime, qi: usize) {
        let q = QueueId(qi as u32);
        let g = self.qrows[qi].group as usize;
        // Tear down the current registration (it may already be gone if
        // the fault plane evicted it; the re-add below repairs that too).
        let _ = self.devices[g].qwait_remove(q);
        // Re-home to the next spare line, retrying past Cuckoo conflicts.
        // Spares are a finite reserved range, strided per group so one
        // group's consumption depends only on its own churn history; once
        // the driver has burned a group's share, churn degrades to
        // re-registering the current line. Sharded monitoring re-homes
        // within the old line's bank first (same rule as build-time
        // conflict resolution; see `take_spare`).
        let spares = QueueLayout::spare_doorbells(self.cfg.queues);
        let groups = self.queues_of_group.len() as u64;
        let want = self.devices[g].monitoring_bank_of(self.doorbell(qi).line());
        let mut rehomed = false;
        loop {
            let (next, base) = (&mut self.next_spare[g], self.spare_base + g as u64);
            let (dev, layout) = (&self.devices[g], &self.layout);
            let Some(idx) = take_spare(
                want,
                &mut self.churn_spare_pool[g],
                || {
                    let i = base + *next * groups;
                    (i < spares).then(|| {
                        *next += 1;
                        i
                    })
                },
                |i| dev.monitoring_bank_of(layout.spare_doorbell(i).line()),
            ) else {
                break;
            };
            let addr = self.layout.spare_doorbell(idx);
            match self.devices[g].qwait_add(q, addr.line()) {
                Ok(()) => {
                    // Churn needs HyperPlane devices, and only the spin
                    // loop reads the load hints, so nothing cached needs
                    // a refresh here.
                    self.qrows[qi].doorbell = spare_index(self.cfg.queues, idx);
                    rehomed = true;
                    break;
                }
                Err(hp_core::qwait::QwaitError::Conflict(_)) => continue,
                Err(e) => panic!("churn re-registration failed: {e}"),
            }
        }
        if !rehomed {
            let line = self.doorbell(qi).line();
            let _ = self.devices[g].qwait_add(q, line);
        }
        self.note(now, TraceKind::FaultEvicted { queue: q.0 });
        // Driver-side migration sync: backlog enqueued before the move
        // announced itself on the old line, so activate the new entry.
        if !self.qrows[qi].items.is_empty() {
            self.devices[g].force_activate(q);
            self.note(now, TraceKind::ReadyInsert { queue: q.0 });
            self.wake_one(now, g);
        }
    }
}
