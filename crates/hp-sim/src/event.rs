//! The event queue at the heart of the discrete-event kernel.
//!
//! [`EventQueue`] is a priority queue of `(time, payload)` pairs with a
//! strict total order: events fire in time order, and events scheduled for
//! the same instant fire in insertion order (FIFO tie-breaking). Popping an
//! event advances the queue's notion of *now*; scheduling into the past is
//! a logic error.
//!
//! ## Implementation: a calendar wheel with a far-horizon heap
//!
//! The kernel profile (`hp_sim::profile`) shows the event mix is dominated
//! by short-delay self-reschedules: poll-loop iterations tens of cycles
//! out, service completions a few thousand cycles out. The queue therefore
//! keeps a **calendar wheel** of `WHEEL_SLOTS` one-cycle buckets covering
//! the window `[base, base + WHEEL_SLOTS)`, backed by a binary heap for the
//! far horizon:
//!
//! * *Insert* into the window is push-to-bucket, O(1); each bucket holds
//!   the events of exactly one instant, so bucket FIFO order *is*
//!   insertion order and no comparisons are ever made.
//! * *Pop* scans an occupancy bitmap (64 slots per word) from the window
//!   base to the next non-empty bucket — at most `WHEEL_SLOTS / 64` word
//!   reads, typically one or two.
//! * Events beyond the window go to the far heap, ordered by
//!   `(time, seq)`; whenever the window advances, due events migrate into
//!   their buckets in heap order, which preserves the global FIFO
//!   tie-break.
//!
//! The observable order is **identical** to the previous
//! `BinaryHeap<Reverse<(time, seq)>>` implementation — pinned by the
//! property tests in `tests/properties_kernels.rs` — only the constant
//! factors changed.
//!
//! # Examples
//!
//! ```
//! use hp_sim::event::EventQueue;
//! use hp_sim::time::{Cycles, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule_after(Cycles(10), "b");
//! q.schedule_at(SimTime(5), "a");
//! assert_eq!(q.pop(), Some((SimTime(5), "a")));
//! assert_eq!(q.pop(), Some((SimTime(10), "b")));
//! assert_eq!(q.pop(), None);
//! ```

use crate::time::{Cycles, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Calendar-wheel window size in cycles (one bucket per cycle). Power of
/// two so slot indexing is a mask. 4096 cycles (~2 µs at 2 GHz) covers the
/// poll-iteration and service-time delays that dominate the event mix;
/// longer delays (idle-period arrivals, watchdog ticks, QWAIT timeouts)
/// take the far-heap path.
const WHEEL_SLOTS: usize = 4096;
const WHEEL_MASK: usize = WHEEL_SLOTS - 1;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// The queue owns the simulation clock: [`EventQueue::now`] is the timestamp
/// of the most recently popped event (initially [`SimTime::ZERO`]).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// First event of each one-cycle bucket of the window
    /// `[base, base + WHEEL_SLOTS)`; slot index is `time & WHEEL_MASK`.
    /// Storing the head inline means the dominant singleton-bucket case
    /// (one self-reschedule per instant) touches only this dense array
    /// and the occupancy bitmap — never a `VecDeque`'s heap buffer.
    /// Invariant: `heads[slot]` is `Some` ⇔ the bucket's occupancy bit is
    /// set; `tails[slot]` is non-empty only while the head is `Some`.
    heads: Vec<Option<E>>,
    /// Overflow beyond each bucket's inline head, in insertion order.
    /// Within a bucket all events share one timestamp, so head-then-tail
    /// FIFO order is insertion order.
    tails: Vec<VecDeque<E>>,
    /// Occupancy bitmap over the buckets (bit set ⇔ bucket non-empty).
    occupied: [u64; WHEEL_WORDS],
    /// Events in the wheel.
    near_len: usize,
    /// Events at or beyond `base + WHEEL_SLOTS`, ordered by `(time, seq)`.
    far: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Window base: every wheel event's time is in
    /// `[base, base + WHEEL_SLOTS)`, every far event's at or beyond the
    /// end. Equals `now` between operations; advances only in `pop`.
    base: u64,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heads: (0..WHEEL_SLOTS).map(|_| None).collect(),
            tails: (0..WHEEL_SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            near_len: 0,
            far: BinaryHeap::new(),
            base: 0,
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated instant (time of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than [`Self::now`]: a causality violation in
    /// the model, never a recoverable condition.
    pub fn schedule_at(&mut self, t: SimTime, payload: E) {
        assert!(
            t >= self.now,
            "scheduling into the past: {t} < now {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        // `t >= now >= base`, so the subtraction cannot wrap.
        if t.0 - self.base < WHEEL_SLOTS as u64 {
            self.bucket_push(t.0, payload);
        } else {
            self.far.push(Reverse(Scheduled {
                time: t,
                seq,
                payload,
            }));
        }
    }

    /// Schedules `payload` to fire `delay` after *now*.
    pub fn schedule_after(&mut self, delay: Cycles, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    #[inline]
    fn bucket_push(&mut self, t: u64, payload: E) {
        let slot = (t as usize) & WHEEL_MASK;
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.occupied[w] & bit == 0 {
            self.occupied[w] |= bit;
            self.heads[slot] = Some(payload);
        } else {
            self.tails[slot].push_back(payload);
        }
        self.near_len += 1;
    }

    /// Moves every far event now inside the window into its bucket. Heap
    /// pops come out `(time, seq)`-ordered, so same-instant events enter
    /// their bucket in insertion order.
    fn migrate_due(&mut self) {
        while let Some(Reverse(head)) = self.far.peek() {
            if head.time.0 - self.base >= WHEEL_SLOTS as u64 {
                break;
            }
            let Reverse(s) = self.far.pop().expect("peeked entry pops");
            self.bucket_push(s.time.0, s.payload);
        }
    }

    /// Offset (in slots ⇔ cycles) from the window base to the first
    /// occupied bucket. Caller guarantees `near_len > 0`.
    fn first_occupied_offset(&self) -> usize {
        let start = (self.base as usize) & WHEEL_MASK;
        let (start_word, start_bit) = (start / 64, start % 64);
        // Tail of the start word, then whole words, wrapping once back to
        // the start word's head.
        let head = self.occupied[start_word] & (!0u64 << start_bit);
        if head != 0 {
            return start_word * 64 + head.trailing_zeros() as usize - start;
        }
        for k in 1..=WHEEL_WORDS {
            let wi = (start_word + k) % WHEEL_WORDS;
            let mut w = self.occupied[wi];
            if k == WHEEL_WORDS {
                w &= !(!0u64 << start_bit); // only the unscanned head bits
            }
            if w != 0 {
                let pos = wi * 64 + w.trailing_zeros() as usize;
                return (pos + WHEEL_SLOTS - start) & WHEEL_MASK;
            }
        }
        unreachable!("near_len > 0 but no occupied bucket")
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_through(u64::MAX)
    }

    /// Removes and returns the earliest event if it lies strictly before
    /// `bound`, advancing the clock to its timestamp. Otherwise returns
    /// `None` and leaves the queue — its events, [`Self::now`] and the
    /// window — untouched, so a caller can stop at a boundary and resume
    /// later without holding a popped-too-far event aside.
    ///
    /// ```
    /// use hp_sim::event::EventQueue;
    /// use hp_sim::time::SimTime;
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule_at(SimTime(10), "a");
    /// assert_eq!(q.pop_before(SimTime(10)), None);
    /// assert_eq!((q.now(), q.len()), (SimTime(0), 1));
    /// assert_eq!(q.pop_before(SimTime(11)), Some((SimTime(10), "a")));
    /// ```
    #[inline]
    pub fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        self.pop_through(bound.0.checked_sub(1)?)
    }

    /// Pops the earliest event if its timestamp is at most `last`.
    #[inline]
    fn pop_through(&mut self, last: u64) -> Option<(SimTime, E)> {
        let t = if self.near_len > 0 {
            self.base + self.first_occupied_offset() as u64
        } else {
            self.far.peek()?.0.time.0
        };
        if t > last {
            return None;
        }
        if self.near_len == 0 {
            // Jump the window to the far horizon's first instant.
            self.base = t;
            self.migrate_due();
        }
        let slot = (t as usize) & WHEEL_MASK;
        let payload = self.heads[slot].take().expect("occupied bucket");
        self.near_len -= 1;
        match self.tails[slot].pop_front() {
            Some(next) => self.heads[slot] = Some(next),
            None => self.occupied[slot / 64] &= !(1 << (slot % 64)),
        }
        debug_assert!(t >= self.now.0);
        self.now = SimTime(t);
        if t > self.base {
            self.base = t;
            self.migrate_due();
        }
        Some((self.now, payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), 3);
        q.schedule_at(SimTime(10), 1);
        q.schedule_at(SimTime(20), 2);
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        assert_eq!(q.pop(), Some((SimTime(20), 2)));
        assert_eq!(q.pop(), Some((SimTime(30), 3)));
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(7), i)));
        }
    }

    #[test]
    fn ties_break_fifo_beyond_the_wheel_window() {
        // Same instant, far horizon: order must still be insertion order
        // after the heap→wheel migration.
        let far = SimTime(WHEEL_SLOTS as u64 * 3 + 17);
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule_at(far, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((far, i)));
        }
    }

    #[test]
    fn near_and_far_events_interleave_correctly() {
        let mut q = EventQueue::new();
        let w = WHEEL_SLOTS as u64;
        q.schedule_at(SimTime(2 * w + 5), "far2");
        q.schedule_at(SimTime(3), "near");
        q.schedule_at(SimTime(w + 1), "far1");
        assert_eq!(q.pop(), Some((SimTime(3), "near")));
        // Window advanced past 3: far1 may have migrated; a same-time
        // insert must still fire after it.
        q.schedule_at(SimTime(w + 1), "late-insert");
        assert_eq!(q.pop(), Some((SimTime(w + 1), "far1")));
        assert_eq!(q.pop(), Some((SimTime(w + 1), "late-insert")));
        assert_eq!(q.pop(), Some((SimTime(2 * w + 5), "far2")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_wraparound_keeps_time_order() {
        // Drive the window across many wheel lengths with small steps so
        // slots are reused repeatedly.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(0), 0u64);
        let mut expect = 0u64;
        let step = (WHEEL_SLOTS as u64 / 3) * 2 + 1;
        while let Some((t, n)) = q.pop() {
            assert_eq!(t, SimTime(expect * step));
            assert_eq!(n, expect);
            expect += 1;
            if expect < 40 {
                q.schedule_after(Cycles(step), expect);
            }
        }
        assert_eq!(expect, 40);
    }

    #[test]
    fn pop_advances_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(42));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(5), ());
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(100), "first");
        q.pop();
        q.schedule_after(Cycles(5), "second");
        assert_eq!(q.pop(), Some((SimTime(105), "second")));
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1), ());
        q.schedule_at(SimTime(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn refused_pop_before_leaves_now_and_the_window_in_place() {
        // Walks the window boundary and the far-heap jumps: from 4097 on,
        // only far-heap events remain, so a refusal that moved the window
        // base to the far head would make `schedule_at(now)` underflow.
        let mut q = EventQueue::new();
        let times = [1u64, 5, 4095, 4096, 4097, 70_000, 1 << 40];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime(t), i);
        }
        for (i, &t) in times.iter().enumerate() {
            let (now, len) = (q.now(), q.len());
            assert_eq!(q.pop_before(SimTime(t)), None);
            assert_eq!((q.now(), q.len()), (now, len));
            q.schedule_at(now, usize::MAX);
            assert_eq!(q.pop_before(SimTime(t)), Some((now, usize::MAX)));
            assert_eq!(q.pop_before(SimTime(t + 1)), Some((SimTime(t), i)));
        }
        assert_eq!(q.pop_before(SimTime(u64::MAX)), None);
    }
}
