//! Stimulus: the emulated I/O producers. Each sharing group draws its
//! arrivals from a keyed partition stream, and every arrival takes one
//! delivery path: enqueue, doorbell ring, fault injection, and the
//! monitoring set's GetM snoop.

use super::{next_slot, Engine, Ev};
use crate::config::Notifier;
use hp_mem::types::{AccessKind, CoreId};
use hp_queues::sim::{QueueId, WorkItem};
use hp_sim::faults::DoorbellFate;
use hp_sim::time::SimTime;
use hp_sim::trace::TraceKind;

/// Kernel interrupt delivery + scheduling cost for the
/// [`Notifier::Interrupt`] baseline, microseconds.
const IRQ_DELIVERY_US: f64 = 2.0;

impl Engine {
    /// Arrivals this engine generated for its own groups, dropped ones
    /// included, so lane sums equal the serial count: the sum of every
    /// group's arrival index.
    pub(super) fn generated_arrivals(&self) -> u64 {
        self.group_arrival_count.iter().sum()
    }

    /// Arrival: the `k`-th item of group `g`'s partition stream. The
    /// gap/queue pair is a pure function of `(seed, g, k)` and the service
    /// demand a pure function of the item id `g + k * groups` (a dense,
    /// collision-free renumbering of the per-group sequences), so a lane
    /// that never sees other groups' arrivals still produces bit-identical
    /// items for its own.
    pub(super) fn on_group_arrival(&mut self, now: SimTime, g: usize) {
        let k = self.group_arrival_count[g];
        self.group_arrival_count[g] = k + 1;
        let a = self.keyed_arrivals[g]
            .as_ref()
            .expect("scheduled only for groups with a live partition stream")
            .arrival(k);
        self.ev.schedule_after(a.gap, Ev::GroupArrival(g as u32));
        // Mirror the next arrival's timestamp for the spinning
        // fast-forward: it must not peek the event queue (a lane's queue
        // lacks other lanes' events; the wheel's `peek` would also see
        // unrelated event types).
        self.group_next_arrival[g] = (now + a.gap).since_start().count();
        let groups = self.queues_of_group.len() as u64;
        self.deliver_arrival(now, a.queue, g as u64 + k * groups);
    }

    /// Materializes arrival `id` on its (owned) queue: everything
    /// downstream of the arrival draw — cap check and drop accounting,
    /// the service draw, enqueue, producer stores and doorbell ring,
    /// interrupt arming, fault injection, and the monitoring-set snoop.
    fn deliver_arrival(&mut self, now: SimTime, q: QueueId, id: u64) {
        let qi = q.0 as usize;
        let g = self.qrows[qi].group as usize;
        debug_assert!(self.owned_groups[g]);
        // The fault plan may narrow the cap to force overflow drops. Read
        // the injector's *current* plan, not the base config, so chaos
        // phases that carry a cap take effect inside their windows.
        let cap = match self.faults.plan().queue_cap {
            Some(c) => c.min(self.cfg.queue_cap),
            None => self.cfg.queue_cap,
        };
        if self.qrows[qi].items.len() >= cap {
            self.drops += 1;
            return;
        }
        // Keyed by item id, so drawing only for admitted items changes no
        // demand.
        let service = self.service.sample(&mut self.service_keyed.split(id));

        // The owning group's partition is no longer provably empty: its
        // spinning cores must complete a fresh full sweep before they may
        // fast-forward again.
        for c in 0..self.cfg.dp_cores {
            if self.core_group[c] == g {
                self.empty_streak[c] = 0;
            }
        }
        let item = WorkItem {
            id,
            arrival: now,
            service,
        };
        self.qrows[qi].items.push_back(item);
        self.backlog += 1;
        self.note(
            now,
            TraceKind::Enqueue {
                queue: q.0,
                item: item.id,
            },
        );
        self.audit.on_enqueue(item.id, now.since_start().count());

        // Producer writes the payload buffers then rings the doorbell.
        let row = &mut self.qrows[qi];
        let (prod, slot) = (CoreId(row.producer as usize), row.enq_slot);
        row.enq_slot = next_slot(slot);
        {
            // Split borrow: the line iterator borrows `layout` while the
            // accesses mutate `mem` — no per-arrival Vec needed.
            let Self { layout, mem, .. } = self;
            for a in layout.buffer_lines(q, slot.into()) {
                mem.access(prod, a, AccessKind::Store);
            }
        }
        let ring = self.mem.access(prod, self.doorbell(qi), AccessKind::Store);
        self.note(now, TraceKind::DoorbellWrite { queue: q.0 });

        // Interrupt baseline: a doorbell write to an armed queue raises a
        // per-queue interrupt; delivery pays the kernel path cost.
        if matches!(self.cfg.notifier, Notifier::Interrupt) && self.qrows[qi].irq_armed {
            self.qrows[qi].irq_armed = false;
            self.irq_pending[g].push_back(q.0);
            if let Some(core) = self.halted_by_group[g].pop() {
                debug_assert!(self.is_halted(core));
                let cost = self.cfg.machine.clock.micros_to_cycles(IRQ_DELIVERY_US);
                self.ev.schedule_at(now + cost, Ev::CoreWake(core));
            }
        }

        // Fault: evict the arriving queue's monitoring entry just before
        // the doorbell rings (capacity conflict / firmware shootdown).
        // The queue's notifications go dark until the recovery sweep
        // re-registers it.
        if !self.devices.is_empty() && self.faults.evict_now(id) {
            if let Some(dev) = self.devices.get_mut(g) {
                if dev.qwait_remove(q).is_some() {
                    self.faults.record_eviction();
                    self.note(now, TraceKind::FaultEvicted { queue: q.0 });
                }
            }
        }

        // Fault: a spurious activation (false sharing on a doorbell line)
        // for a random queue of this group; QWAIT-VERIFY must filter it.
        if !self.devices.is_empty() && self.faults.spurious_now(id) {
            let victims = &self.queues_of_group[g];
            let victim = victims[self.faults.pick(id, victims.len())];
            self.devices[g].force_activate(victim);
            self.note(now, TraceKind::FaultSpurious { queue: victim.0 });
            self.wake_one(now, g);
        }

        // HyperPlane: the monitoring set snoops the GetM — unless the
        // fault plane loses or delays the notification in flight.
        if let Some(line) = ring.getm.filter(|_| !self.devices.is_empty()) {
            match self.faults.doorbell_fate(id) {
                DoorbellFate::Deliver => self.deliver_snoop(now, g, line),
                // The wake-up is simply lost.
                DoorbellFate::Drop => {
                    self.note(now, TraceKind::FaultDropped { queue: q.0 });
                }
                DoorbellFate::Delay(d) => {
                    self.note(
                        now,
                        TraceKind::FaultDelayed {
                            queue: q.0,
                            cycles: d.count(),
                        },
                    );
                    self.ev.schedule_at(
                        now + d,
                        Ev::DelayedSnoop {
                            group: g,
                            line: line.0,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ExperimentConfig, Load, Notifier};
    use crate::engine::Engine;
    use hp_sim::faults::FaultPlan;
    use hp_traffic::shape::TrafficShape;
    use hp_workloads::service::WorkloadKind;

    #[test]
    fn saturation_drive_counts_drops() {
        let r = crate::engine::tests::quick(
            Notifier::Spinning,
            TrafficShape::SingleQueue,
            200,
            Load::Saturation,
        );
        assert!(r.drops > 0, "saturation should overflow the queue cap");

        // Two sharing groups, serial and as two lanes, under a `queue_cap`
        // fault plan: a refused arrival never enters the FIFO, and the fault
        // report's queue drops are the engine's drops.
        for notifier in [Notifier::Spinning, Notifier::hyperplane()] {
            for workers in [1, 2] {
                let mut cfg = ExperimentConfig::new(
                    WorkloadKind::PacketEncap,
                    TrafficShape::FullyBalanced,
                    64,
                )
                .with_cores(4, 2)
                .with_notifier(notifier)
                .with_load(Load::Saturation)
                .with_faults(FaultPlan {
                    queue_cap: Some(4),
                    ..FaultPlan::none()
                })
                .with_audit()
                .with_par_workers(workers);
                cfg.target_completions = 2_000;
                let r = Engine::new(cfg).run();
                let case = format!("{notifier:?} x{workers}");
                assert!(r.drops > 0, "{case}: no drops");
                let audit = r.audit_report().expect("audit on");
                assert_eq!(r.lane_generated_arrivals().len(), workers, "{case}");
                let generated: u64 = r.lane_generated_arrivals().iter().sum();
                assert_eq!(audit.enqueued + r.drops, generated, "{case}");
                assert_eq!(r.fault_report().unwrap().queue_drops, r.drops, "{case}");
            }
        }
    }
}
