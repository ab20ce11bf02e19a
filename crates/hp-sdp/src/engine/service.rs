//! Service: a granted queue's batch is dequeued, streamed, processed,
//! announced to the tenant, and accounted.

use super::{next_slot, Engine};
use hp_mem::types::{AccessKind, CoreId};
use hp_queues::sim::{QueueId, WorkItem};
use hp_sim::time::{Cycles, SimTime};
use hp_sim::trace::TraceKind;

/// Instructions for dequeue + descriptor bookkeeping per item.
const DEQ_INSTR: u64 = 80;
/// Instructions to notify the tenant (enqueue + doorbell).
const NOTIFY_INSTR: u64 = 30;
/// Memory-level parallelism divisor for streaming buffer loads.
const MLP: u64 = 4;

impl Engine {
    /// Dequeues up to `batch` items from `q`: descriptor read + doorbell
    /// decrement (a consumer store, issued while the entry is disarmed so
    /// it cannot self-wake — §III-B). Returns the cycles charged.
    /// The dequeued items land in `self.deq_scratch` (cleared first) so the
    /// per-step buffer is reused instead of reallocated; `process_items`
    /// consumes them.
    pub(super) fn dequeue_batch(&mut self, c: usize, q: QueueId, batch: usize) -> u64 {
        let core = CoreId(c);
        let qi = q.0 as usize;
        let (desc_addr, db) = (self.layout.descriptor(q), self.doorbell(qi));
        let mut cost = 0u64;
        cost += self
            .mem
            .access(core, desc_addr, AccessKind::Load)
            .latency
            .count();
        cost += self.mem.access(core, db, AccessKind::Store).latency.count();
        let items = &mut self.qrows[qi].items;
        let n = batch.min(items.len());
        self.deq_scratch.clear();
        self.deq_scratch.extend(items.drain(..n));
        for item in &self.deq_scratch {
            self.audit.on_dequeue(item.id);
        }
        self.telem[c].useful_instructions += DEQ_INSTR * n as u64;
        self.backlog -= n as u64;
        cost
    }

    /// Transport-processes the batch `dequeue_batch` just took from `q`:
    /// buffer streaming, service time, tenant notification, completion
    /// accounting. `base` is the cycles already charged this step;
    /// `deq_instant` is when the items left the queue (for the
    /// notification-latency breakdown).
    pub(super) fn process_items(
        &mut self,
        now: SimTime,
        c: usize,
        q: QueueId,
        base: u64,
        deq_instant: SimTime,
    ) -> u64 {
        let core = CoreId(c);
        let qi = q.0 as usize;
        let desc_addr = self.layout.descriptor(q);
        let mut total = 0u64;
        // Borrowed out for the loop and put back, so the hot loop never
        // allocates.
        let items = std::mem::take(&mut self.deq_scratch);
        for item in &items {
            // Stream the payload buffer lines (MLP-overlapped).
            let slot = self.qrows[qi].deq_slot;
            self.qrows[qi].deq_slot = next_slot(slot);
            let mut buf_lat = 0u64;
            {
                let Self { layout, mem, .. } = self;
                for a in layout.buffer_lines(q, slot.into()) {
                    buf_lat += mem.access(core, a, AccessKind::Load).latency.count();
                }
            }
            total += buf_lat / MLP;

            // Transport processing.
            total += item.service.count();
            self.telem[c].useful_instructions +=
                (item.service.count() as f64 * self.cfg.workload.useful_ipc()) as u64;

            // Notify the tenant: write the tenant-side queue + doorbell
            // (modeled as a store to the descriptor line).
            total += self
                .mem
                .access(core, desc_addr, AccessKind::Store)
                .latency
                .count();
            self.telem[c].useful_instructions += NOTIFY_INSTR;

            // Completion + latency breakdown.
            let done_at = now + Cycles(base + total);
            self.note(
                deq_instant,
                TraceKind::Dequeue {
                    queue: q.0,
                    core: c as u32,
                    item: item.id,
                },
            );
            self.note(
                done_at,
                TraceKind::ServiceDone {
                    queue: q.0,
                    core: c as u32,
                    item: item.id,
                },
            );
            // A completion that just entered the attribution exemplar set
            // gets the fast-path counter snapshot attached (pure reads).
            if self.attrib.wants_snapshot() {
                let f = self.mem.fastpath_stats();
                self.attrib.attach_snapshot([
                    f.mru_hits,
                    f.stable_hits,
                    f.seq_replays,
                    f.seq_replayed_accesses,
                    f.s_state_peeks,
                    f.stable_reloads,
                    f.shared_joins,
                    f.dir_hint_hits,
                ]);
            }
            self.notify_latency
                .record(deq_instant.saturating_since(item.arrival).count());
            self.record_completion(done_at, *item, q);
            self.telem[c].completions += 1;
        }
        self.deq_scratch = items;
        total
    }

    fn record_completion(&mut self, done_at: SimTime, item: WorkItem, q: QueueId) {
        self.audit
            .on_service(item.id, done_at.since_start().count());
        let lat = done_at.saturating_since(item.arrival).count();
        // The windowed series covers the whole run — warmup included —
        // precisely so the warmup transient is visible in the time series.
        if let Some(m) = self.metrics.as_mut() {
            m.record_completion(lat);
        }
        // The warmup→measure transition is a fabric-wide decision taken at
        // a window boundary ([`Engine::begin_measure`]): a lane-local
        // completion count would open measurement at different instants in
        // different lanes and break serial/parallel digest equality.
        if self.measure_start.is_some() {
            self.latency.record(lat);
            self.queue_latency
                .entry(q.0)
                .or_default()
                .record(lat as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{Load, Notifier};
    use crate::engine::tests::quick;
    use hp_traffic::shape::TrafficShape;

    #[test]
    fn notification_latency_breakdown_is_exposed() {
        let r = quick(
            Notifier::hyperplane(),
            TrafficShape::SingleQueue,
            64,
            Load::RatePerSec(5_000.0),
        );
        // Notification latency must be a small part of total latency at
        // zero load (service dominates), and strictly positive.
        assert!(r.mean_notification_us() > 0.0);
        assert!(
            r.mean_notification_us() < r.mean_latency_us(),
            "notify {} vs total {}",
            r.mean_notification_us(),
            r.mean_latency_us()
        );
    }
}
