//! Simulated I/O queues: queue ids, work items, and the physical address
//! layout the memory-system model operates on.
//!
//! A device- or tenant-side memory-mapped queue from Fig. 2 of the paper is
//! a FIFO of [`WorkItem`]s (held by the data-plane engine, one per queue
//! row) plus the *addresses* of its doorbell and descriptor lines, which
//! [`QueueLayout`] assigns and the engine feeds to `hp_mem::MemSystem` to
//! obtain realistic hit/miss timing.

use hp_mem::types::{Addr, AddrRange, LINE_BYTES};
use hp_sim::time::{Cycles, SimTime};

/// Identifier of an I/O queue (the paper's QID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueueId(pub u32);

impl std::fmt::Display for QueueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// One packet / task flowing through the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Unique id (for tracing).
    pub id: u64,
    /// When the item arrived at the device-side queue.
    pub arrival: SimTime,
    /// Transport-processing service demand, in cycles.
    pub service: Cycles,
}

/// Physical address layout for a set of queues.
///
/// The kernel driver in the paper reserves a pinned address range for
/// doorbells so the monitoring set need only snoop that range (§IV-A). This
/// type performs the same reservation in the simulated address space and
/// also lays out the per-queue descriptor lines and data-buffer pools whose
/// footprint drives LLC pressure at high queue counts (Fig. 8 discussion).
#[derive(Debug, Clone)]
pub struct QueueLayout {
    queues: u32,
    buffer_lines_per_entry: u64,
    buffer_entries: u64,
    doorbell_base: u64,
    descriptor_base: u64,
    buffer_base: u64,
}

impl QueueLayout {
    /// Base of the reserved doorbell region in the simulated physical
    /// address space.
    pub const DOORBELL_REGION_BASE: u64 = 0x1000_0000;

    /// Creates a layout for `queues` queues whose data buffers each span
    /// `buffer_lines_per_entry` cache lines, with `buffer_entries` buffers
    /// per queue (the buffer pool cycles through them).
    ///
    /// The reserved doorbell region includes spare lines beyond one per
    /// queue: Algorithm 1's control plane reallocates a queue's doorbell
    /// to a different address when a monitoring-set insertion conflicts,
    /// so the driver needs headroom in the pinned range.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn new(queues: u32, buffer_lines_per_entry: u64, buffer_entries: u64) -> Self {
        assert!(queues > 0, "layout requires at least one queue");
        let doorbell_base = Self::DOORBELL_REGION_BASE;
        let doorbell_span = (queues as u64 + Self::spare_doorbells(queues)) * LINE_BYTES;
        let descriptor_base = (doorbell_base + doorbell_span).next_multiple_of(1 << 20);
        let descriptor_span = queues as u64 * LINE_BYTES;
        let buffer_base = (descriptor_base + descriptor_span).next_multiple_of(1 << 20);
        QueueLayout {
            queues,
            buffer_lines_per_entry,
            buffer_entries: buffer_entries.max(1),
            doorbell_base,
            descriptor_base,
            buffer_base,
        }
    }

    /// Number of queues laid out.
    pub fn queues(&self) -> u32 {
        self.queues
    }

    /// Spare doorbell lines reserved for conflict reallocation.
    pub fn spare_doorbells(queues: u32) -> u64 {
        (queues as u64 / 4).max(8)
    }

    /// The reserved doorbell address range (what the monitoring set
    /// snoops), including the spare lines.
    pub fn doorbell_range(&self) -> AddrRange {
        AddrRange::new(
            Addr(self.doorbell_base),
            Addr(
                self.doorbell_base
                    + (self.queues as u64 + Self::spare_doorbells(self.queues)) * LINE_BYTES,
            ),
        )
    }

    /// The `i`-th spare doorbell address.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of the spare range.
    pub fn spare_doorbell(&self, i: u64) -> Addr {
        assert!(
            i < Self::spare_doorbells(self.queues),
            "spare doorbell {i} out of range"
        );
        Addr(self.doorbell_base + (self.queues as u64 + i) * LINE_BYTES)
    }

    /// The `i`-th line of the reserved doorbell region: queue `i`'s
    /// primary doorbell for `i < queues`, spare `i - queues` beyond it. A
    /// caller can thus hold any doorbell, primary or spare, as one `u32`
    /// index instead of an 8-byte address.
    ///
    /// # Panics
    ///
    /// Panics if `i` is past the last spare line.
    pub fn doorbell_at(&self, i: u32) -> Addr {
        let i = u64::from(i);
        assert!(
            i < self.queues as u64 + Self::spare_doorbells(self.queues),
            "doorbell line {i} out of range"
        );
        Addr(self.doorbell_base + i * LINE_BYTES)
    }

    /// Doorbell address of queue `q` (one full line each, no false sharing).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn doorbell(&self, q: QueueId) -> Addr {
        assert!(
            q.0 < self.queues,
            "{q} out of range ({} queues)",
            self.queues
        );
        Addr(self.doorbell_base + q.0 as u64 * LINE_BYTES)
    }

    /// Descriptor-line (queue head metadata) address of queue `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn descriptor(&self, q: QueueId) -> Addr {
        assert!(
            q.0 < self.queues,
            "{q} out of range ({} queues)",
            self.queues
        );
        Addr(self.descriptor_base + q.0 as u64 * LINE_BYTES)
    }

    /// Addresses of the data-buffer lines for the `slot`-th item ever
    /// enqueued on queue `q`. Slots cycle through the queue's buffer pool,
    /// so a larger pool (or more queues) increases the live footprint.
    pub fn buffer_lines(&self, q: QueueId, slot: u64) -> impl Iterator<Item = Addr> + '_ {
        assert!(
            q.0 < self.queues,
            "{q} out of range ({} queues)",
            self.queues
        );
        let entry = slot % self.buffer_entries;
        let per_queue_span = self.buffer_entries * self.buffer_lines_per_entry * LINE_BYTES;
        let base = self.buffer_base
            + q.0 as u64 * per_queue_span
            + entry * self.buffer_lines_per_entry * LINE_BYTES;
        (0..self.buffer_lines_per_entry).map(move |i| Addr(base + i * LINE_BYTES))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_doorbells_are_line_disjoint() {
        let l = QueueLayout::new(1000, 16, 4);
        let a = l.doorbell(QueueId(0));
        let b = l.doorbell(QueueId(1));
        assert_ne!(a.line(), b.line());
        assert_eq!(
            l.doorbell_range().lines(),
            1000 + QueueLayout::spare_doorbells(1000)
        );
        assert!(l
            .doorbell_range()
            .contains_line(l.doorbell(QueueId(999)).line()));
    }

    #[test]
    fn spare_doorbells_live_in_snooped_range_but_clear_of_primaries() {
        let l = QueueLayout::new(100, 4, 2);
        let spare = l.spare_doorbell(0);
        assert!(l.doorbell_range().contains_line(spare.line()));
        for q in 0..100 {
            assert_ne!(l.doorbell(QueueId(q)).line(), spare.line());
        }
        let last = l.spare_doorbell(QueueLayout::spare_doorbells(100) - 1);
        assert!(l.doorbell_range().contains_line(last.line()));
    }

    #[test]
    fn doorbell_at_indexes_primaries_then_spares() {
        let l = QueueLayout::new(16, 2, 4);
        for q in 0..16 {
            assert_eq!(l.doorbell_at(q), l.doorbell(QueueId(q)));
        }
        for i in 0..QueueLayout::spare_doorbells(16) {
            assert_eq!(l.doorbell_at(16 + i as u32), l.spare_doorbell(i));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn doorbell_at_bounds_checked() {
        let l = QueueLayout::new(16, 2, 4);
        let _ = l.doorbell_at(16 + QueueLayout::spare_doorbells(16) as u32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spare_doorbell_bounds_checked() {
        let l = QueueLayout::new(100, 4, 2);
        let _ = l.spare_doorbell(QueueLayout::spare_doorbells(100));
    }

    #[test]
    fn layout_regions_do_not_overlap() {
        let l = QueueLayout::new(64, 16, 4);
        let db_end = l.doorbell(QueueId(63)).0 + LINE_BYTES;
        assert!(l.descriptor(QueueId(0)).0 >= db_end);
        let desc_end = l.descriptor(QueueId(63)).0 + LINE_BYTES;
        let first_buf = l.buffer_lines(QueueId(0), 0).next().unwrap();
        assert!(first_buf.0 >= desc_end);
    }

    #[test]
    fn buffer_slots_cycle_through_pool() {
        let l = QueueLayout::new(2, 4, 3);
        let s0: Vec<_> = l.buffer_lines(QueueId(0), 0).collect();
        let s3: Vec<_> = l.buffer_lines(QueueId(0), 3).collect();
        assert_eq!(s0, s3, "slot 3 must reuse slot 0's buffer (pool of 3)");
        let s1: Vec<_> = l.buffer_lines(QueueId(0), 1).collect();
        assert_ne!(s0, s1);
    }

    #[test]
    fn buffer_pools_of_distinct_queues_are_disjoint() {
        let l = QueueLayout::new(2, 4, 3);
        let q0: Vec<_> = (0..3).flat_map(|s| l.buffer_lines(QueueId(0), s)).collect();
        let q1: Vec<_> = (0..3).flat_map(|s| l.buffer_lines(QueueId(1), s)).collect();
        for a in &q0 {
            assert!(!q1.contains(a));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn doorbell_bounds_checked() {
        let l = QueueLayout::new(4, 1, 1);
        let _ = l.doorbell(QueueId(4));
    }
}
