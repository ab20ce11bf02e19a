//! Stimulus: the emulated I/O producers. The flow and keyed shape sources
//! share one delivery path: enqueue, doorbell ring, fault injection, and
//! the monitoring set's GetM snoop.

use super::{next_slot, Engine, Ev};
use crate::config::Notifier;
use hp_mem::types::{AccessKind, CoreId};
use hp_queues::sim::{QueueId, WorkItem};
use hp_rand::rngs::SmallRng;
use hp_sim::faults::DoorbellFate;
use hp_sim::time::{Cycles, SimTime};
use hp_sim::trace::TraceKind;
use hp_traffic::flows::FlowTrafficGenerator;
use hp_workloads::service::ServiceModel;
use std::collections::VecDeque;

/// Arrivals drawn per buffer refill. Blocks amortize the per-arrival
/// generator dispatch; the draws themselves are the same calls in the
/// same order, so every gap/queue pair — and therefore every simulated
/// timestamp — is bit-identical to unbuffered generation.
const ARRIVAL_BLOCK: usize = 64;

/// Kernel interrupt delivery + scheduling cost for the
/// [`Notifier::Interrupt`] baseline, microseconds.
const IRQ_DELIVERY_US: f64 = 2.0;

/// Flow traffic's sequential stimulus: the flow generator and the
/// service stream, each behind a block-refilled prebuffer, and the item
/// counter.
#[derive(Debug)]
pub(super) struct FlowStimulus {
    gen: FlowTrafficGenerator,
    arrivals: VecDeque<(Cycles, QueueId)>,
    service_rng: SmallRng,
    services: VecDeque<Cycles>,
    next_id: u64,
}

impl FlowStimulus {
    pub(super) fn new(gen: FlowTrafficGenerator, service_rng: SmallRng) -> Self {
        FlowStimulus {
            gen,
            arrivals: VecDeque::with_capacity(ARRIVAL_BLOCK),
            service_rng,
            services: VecDeque::with_capacity(ARRIVAL_BLOCK),
            next_id: 0,
        }
    }

    /// The next arrival: `(gap to the following one, queue, item id,
    /// service demand)`.
    fn next(&mut self, service: &ServiceModel) -> (Cycles, QueueId, u64, Cycles) {
        if self.arrivals.is_empty() {
            self.gen.fill_arrivals(&mut self.arrivals, ARRIVAL_BLOCK);
        }
        let (gap, q) = self
            .arrivals
            .pop_front()
            .expect("block refill produced arrivals");
        if self.services.is_empty() {
            service.fill_samples(&mut self.service_rng, &mut self.services, ARRIVAL_BLOCK);
        }
        let demand = self
            .services
            .pop_front()
            .expect("block refill produced samples");
        let id = self.next_id;
        self.next_id += 1;
        (gap, q, id, demand)
    }
}

impl Engine {
    /// Arrivals this engine generated for its own groups, dropped ones
    /// included, so lane sums equal the serial count: the flow stream's
    /// item counter plus every keyed group's arrival index.
    pub(super) fn generated_arrivals(&self) -> u64 {
        let flow = self.flows.as_ref().map_or(0, |f| f.next_id);
        flow + self.group_arrival_count.iter().sum::<u64>()
    }

    /// Flow-traffic arrival: the next item of the one sequential stream.
    pub(super) fn on_arrival(&mut self, now: SimTime) {
        // The item's identity and service demand are drawn *before* the
        // cap check: a dropped arrival still burns both, so what the n-th
        // arrival consumes is a pure function of n — never of the backlog
        // at delivery time — and every fault decision can be keyed by
        // item id.
        let (gap, q, id, service) = self
            .flows
            .as_mut()
            .expect("scheduled only under flow traffic")
            .next(&self.service);
        // `gap` is to the *next* arrival; this one is delivered now.
        self.ev.schedule_after(gap, Ev::Arrival);
        // Mirror the next arrival's timestamp for the spinning
        // fast-forward (see `on_group_arrival`; flow traffic has one
        // group).
        self.group_next_arrival[0] = (now + gap).since_start().count();
        self.deliver_arrival(now, q, id, service);
    }

    /// Shape-traffic arrival: the `k`-th item of group `g`'s partition
    /// stream. The gap/queue pair is a pure function of `(seed, g, k)`
    /// and the service demand a pure function of the item id
    /// `g + k * groups` (a dense, collision-free renumbering of the
    /// per-group sequences), so a lane that never sees other groups'
    /// arrivals still produces bit-identical items for its own.
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
        let id = g as u64 + k * groups;
        let service = {
            let mut rng = self.service_keyed.split(id);
            self.service.sample(&mut rng)
        };
        self.deliver_arrival(now, a.queue, id, service);
    }

    /// Materializes one arrival on its (owned) queue: everything
    /// downstream of the stimulus draws — cap check and drop accounting,
    /// enqueue, producer stores and doorbell ring, interrupt arming,
    /// fault injection, and the monitoring-set snoop. Shared verbatim by
    /// both traffic sources, which differ only in how `(q, id, service)`
    /// and the next arrival's schedule are derived.
    fn deliver_arrival(&mut self, now: SimTime, q: QueueId, id: u64, service: Cycles) {
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
    use crate::config::{ExperimentConfig, Load, Notifier, TrafficSource};
    use crate::engine::Engine;
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

        // Two sharing groups, serial and as two lanes, under a `cap=` fault
        // plan: a refused arrival never enters the FIFO, and the fault
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
                .with_faults(hp_sim::faults::FaultPlan::parse("cap=4").unwrap())
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

    #[test]
    fn flow_traffic_skew_gives_hyperplane_an_edge() {
        // Zipf flows through RSS leave many queues cold — the organic
        // version of the concentrated shapes; HyperPlane must win at high
        // queue counts under it too.
        let mk = |notifier: Notifier| {
            let mut cfg = ExperimentConfig::new(
                WorkloadKind::PacketEncap,
                TrafficShape::FullyBalanced, // ignored by the flow source
                512,
            )
            .with_notifier(notifier)
            .with_load(Load::Saturation);
            cfg.traffic = TrafficSource::Flows {
                flows: 400,
                zipf_s: 1.2,
            };
            cfg.target_completions = 2_500;
            cfg
        };
        let spin = Engine::new(mk(Notifier::Spinning)).run();
        let hp = Engine::new(mk(Notifier::hyperplane())).run();
        // With ~120 of 512 queues receiving flow traffic, spinning pays a
        // moderate empty-poll tax; HyperPlane's edge is real but smaller
        // than under the synthetic SQ extreme.
        assert!(
            hp.throughput_tps > 1.08 * spin.throughput_tps,
            "hp {} vs spin {} under flow traffic",
            hp.throughput_tps,
            spin.throughput_tps
        );
        // Only RETA-mapped queues (<= 128 of 512) may see traffic.
        let lat = hp.per_queue_latency_us();
        assert!(
            !lat.is_empty() && lat.len() <= 128,
            "RETA should confine traffic to <=128 queues, got {}",
            lat.len()
        );
    }
}
