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
//! the window `[now, now + WHEEL_SLOTS)`, backed by a binary heap for the
//! far horizon:
//!
//! * *Insert* into the window is push-to-bucket, O(1); each bucket holds
//!   the events of exactly one instant, so bucket FIFO order *is*
//!   insertion order and no comparisons are ever made.
//! * *Pop* finds the next non-empty bucket from the window base in an
//!   occupancy bitmap (64 slots per word) under a summary word with one
//!   bit per non-empty bitmap word, so it reads at most two bitmap words
//!   however far ahead the bucket lies. A peek at the head time is the
//!   same search.
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
// One `u64` summary bit per bitmap word, rotated over all 64 of them.
const _: () = assert!(WHEEL_WORDS == 64);

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
    /// `[now, now + WHEEL_SLOTS)`; slot index is `time & WHEEL_MASK`.
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
    /// Bit `w` set ⇔ `occupied[w]` is non-zero.
    summary: u64,
    /// Events in the wheel.
    near_len: usize,
    /// Events at or beyond `now + WHEEL_SLOTS`, ordered by `(time, seq)`.
    far: BinaryHeap<Reverse<Scheduled<E>>>,
    /// A lower bound on every pending event's time (`u64::MAX` bounds an
    /// empty queue): `schedule_at` lowers it and pops leave it valid, so
    /// `advance_to` checks a target against it and looks the head up only
    /// when the bound is too low to decide.
    head_floor: u64,
    seq: u64,
    /// The clock, and the base of the wheel window: every wheel event's
    /// time is in `[now, now + WHEEL_SLOTS)`, every far event's at or
    /// beyond the end. Moves only in `pop` and `advance_to`
    /// ([`Self::move_clock`]).
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
            summary: 0,
            near_len: 0,
            far: BinaryHeap::new(),
            head_floor: u64::MAX,
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
        self.head_floor = self.head_floor.min(t.0);
        // `t >= now`, so the subtraction cannot wrap.
        if t.0 - self.now.0 < WHEEL_SLOTS as u64 {
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
            self.summary |= 1 << w;
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
            if head.time.0 - self.now.0 >= WHEEL_SLOTS as u64 {
                break;
            }
            let Reverse(s) = self.far.pop().expect("peeked entry pops");
            self.bucket_push(s.time.0, s.payload);
        }
    }

    /// Moves the clock (and with it the window) forward to `t`; far
    /// events that fall inside the new window migrate into their buckets.
    #[inline]
    fn move_clock(&mut self, t: u64) {
        debug_assert!(t >= self.now.0);
        if t > self.now.0 {
            self.now = SimTime(t);
            self.migrate_due();
        }
    }

    /// Offset (in slots ⇔ cycles) from the window base (`now`) to the
    /// first occupied bucket. Caller guarantees `near_len > 0`.
    fn first_occupied_offset(&self) -> usize {
        let start = (self.now.0 as usize) & WHEEL_MASK;
        let (start_word, start_bit) = (start / 64, start % 64);
        // Tail of the start word, then whole words, wrapping once back to
        // the start word's head.
        let head = self.occupied[start_word] & (!0u64 << start_bit);
        if head != 0 {
            return start_word * 64 + head.trailing_zeros() as usize - start;
        }
        // The summary rotated so bit `k` stands for word
        // `start_word + 1 + k`: its lowest set bit is the first non-empty
        // word after the start word, or the start word itself (bit 63),
        // whose only unscanned bits are then those below `start_bit`.
        let rot = self
            .summary
            .rotate_right(((start_word + 1) % WHEEL_WORDS) as u32);
        assert!(rot != 0, "near_len > 0 but no occupied bucket");
        let k = rot.trailing_zeros() as usize;
        let wi = (start_word + 1 + k) % WHEEL_WORDS;
        let mut w = self.occupied[wi];
        if wi == start_word {
            w &= !(!0u64 << start_bit);
        }
        let pos = wi * 64 + w.trailing_zeros() as usize;
        (pos + WHEEL_SLOTS - start) & WHEEL_MASK
    }

    /// Timestamp of the earliest pending event, or `None` when the queue
    /// is empty. Moves nothing: the event, [`Self::now`] and the window
    /// stay as they are.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.near_len > 0 {
            Some(SimTime(self.now.0 + self.first_occupied_offset() as u64))
        } else {
            self.far.peek().map(|Reverse(s)| s.time)
        }
    }

    /// Moves the clock to `t` without popping: for a caller that handles
    /// an action at `t` itself instead of scheduling and popping it,
    /// because nothing pending can fire first. The wheel window follows
    /// the clock, so far events that fall inside the new window migrate
    /// into their buckets, as they would after a pop at `t`. The check
    /// against pending events is O(1) while `t` lies below the queue's
    /// lower bound on their times; only a target at or past that bound
    /// looks the head up again, which tightens the bound to it.
    ///
    /// ```
    /// use hp_sim::event::EventQueue;
    /// use hp_sim::time::SimTime;
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule_at(SimTime(10), "a");
    /// q.advance_to(SimTime(9));
    /// assert_eq!((q.now(), q.peek_time()), (SimTime(9), Some(SimTime(10))));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than [`Self::now`], or if an event is
    /// pending at or before `t`: skipping past it would break time order.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "advancing into the past: {t} < now {}",
            self.now
        );
        if t.0 >= self.head_floor {
            // Pops may have left the bound below the head: tighten it.
            self.head_floor = self.peek_time().map_or(u64::MAX, |h| h.0);
            assert!(t.0 < self.head_floor, "advancing past a pending event: {t}");
        }
        self.move_clock(t.0);
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
        let t = self.peek_time()?.0;
        if t > last {
            return None;
        }
        // Move the clock first: when the wheel is empty, the head is the
        // far horizon's first event and migrates into its bucket here.
        // No far event can share a slot with `t`, so a wheel head's
        // bucket is untouched by the migration.
        self.move_clock(t);
        let slot = (t as usize) & WHEEL_MASK;
        let payload = self.heads[slot].take().expect("occupied bucket");
        self.near_len -= 1;
        match self.tails[slot].pop_front() {
            Some(next) => self.heads[slot] = Some(next),
            None => {
                let w = slot / 64;
                self.occupied[w] &= !(1 << (slot % 64));
                if self.occupied[w] == 0 {
                    self.summary &= !(1 << w);
                }
            }
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
    fn head_search_wraps_to_the_start_words_low_bits() {
        // Base at slot 100 (word 1, bit 36); the only events sit in the
        // same word below the base's bit, or in the word before it: both
        // lie almost a whole wheel ahead.
        let w = WHEEL_SLOTS as u64;
        let mut q = EventQueue::new();
        q.advance_to(SimTime(100));
        q.schedule_at(SimTime(100 + w - 20), "same-word");
        q.schedule_at(SimTime(100 + w - 40), "word-before");
        assert_eq!(q.peek_time(), Some(SimTime(100 + w - 40)));
        assert_eq!(q.pop(), Some((SimTime(100 + w - 40), "word-before")));
        assert_eq!(q.pop(), Some((SimTime(100 + w - 20), "same-word")));
        assert_eq!((q.summary, q.occupied), (0, [0; WHEEL_WORDS]));
    }

    #[test]
    fn peek_time_reads_the_head_without_moving() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        let far = SimTime(WHEEL_SLOTS as u64 * 2);
        q.schedule_at(far, "far");
        assert_eq!(q.peek_time(), Some(far));
        q.schedule_at(SimTime(7), "near");
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!((q.now(), q.len()), (SimTime::ZERO, 2));
        assert_eq!(q.pop(), Some((SimTime(7), "near")));
        assert_eq!(q.peek_time(), Some(far));
    }

    #[test]
    fn ties_break_fifo_across_an_advance() {
        // Events scheduled at one instant before and after an advance
        // still fire in insertion order.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(50), 0);
        q.schedule_at(SimTime(50), 1);
        q.advance_to(SimTime(20));
        q.schedule_at(SimTime(50), 2);
        q.advance_to(SimTime(49));
        q.schedule_at(SimTime(50), 3);
        for i in 0..4 {
            assert_eq!(q.pop(), Some((SimTime(50), i)));
        }
        assert_eq!(q.now(), SimTime(50));
    }

    #[test]
    fn advance_migrates_far_events_into_the_new_window() {
        let w = WHEEL_SLOTS as u64;
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(3 * w + 17), "a");
        q.schedule_at(SimTime(5 * w), "b");
        assert_eq!((q.near_len, q.far.len()), (0, 2));
        // The base jumps to 3w: "a" now lies inside the window, "b" not.
        q.advance_to(SimTime(3 * w));
        assert_eq!((q.now(), q.near_len, q.far.len()), (SimTime(3 * w), 1, 1));
        // A same-instant insert lands in the migrated event's bucket,
        // behind it.
        q.schedule_at(SimTime(3 * w + 17), "late");
        assert_eq!(q.pop(), Some((SimTime(3 * w + 17), "a")));
        assert_eq!(q.pop(), Some((SimTime(3 * w + 17), "late")));
        assert_eq!(q.pop(), Some((SimTime(5 * w), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn advance_on_an_empty_queue_moves_the_window() {
        let mut q = EventQueue::new();
        q.advance_to(SimTime(1 << 40));
        q.schedule_after(Cycles(3), "x");
        assert_eq!((q.near_len, q.far.len()), (1, 0));
        assert_eq!(q.pop(), Some((SimTime((1 << 40) + 3), "x")));
    }

    #[test]
    #[should_panic(expected = "advancing into the past")]
    fn backward_advance_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.advance_to(SimTime(9));
    }

    #[test]
    #[should_panic(expected = "advancing past a pending event")]
    fn advance_onto_a_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.advance_to(SimTime(10));
    }

    #[test]
    #[should_panic(expected = "advancing past a pending event")]
    fn advance_past_a_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(100), ());
        q.advance_to(SimTime(101));
    }

    #[test]
    fn advance_rescans_a_floor_that_pops_left_stale() {
        let mut q = EventQueue::new();
        for t in [10, 20, 30] {
            q.schedule_at(SimTime(t), t);
        }
        assert_eq!(q.pop(), Some((SimTime(10), 10)));
        q.advance_to(SimTime(19));
        assert_eq!(q.pop(), Some((SimTime(20), 20)));
        q.advance_to(SimTime(29));
        assert_eq!(q.pop(), Some((SimTime(30), 30)));
    }

    #[test]
    #[should_panic(expected = "advancing past a pending event")]
    fn advance_onto_a_head_that_pops_raised_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.schedule_at(SimTime(20), ());
        q.pop();
        q.advance_to(SimTime(15));
        q.advance_to(SimTime(20));
    }

    #[test]
    #[should_panic(expected = "advancing past a pending event")]
    fn advance_past_an_event_scheduled_after_the_last_advance_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(100), ());
        q.advance_to(SimTime(50));
        q.schedule_at(SimTime(60), ());
        q.advance_to(SimTime(70));
    }

    #[test]
    #[should_panic(expected = "advancing past a pending event")]
    fn advance_past_the_wheel_window_panics() {
        // The wheel event is far behind the target, beyond the window.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(5), ());
        q.advance_to(SimTime(WHEEL_SLOTS as u64 * 2));
    }

    #[test]
    #[should_panic(expected = "advancing past a pending event")]
    fn advance_past_a_far_event_panics() {
        let far = WHEEL_SLOTS as u64 * 3;
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(far), ());
        q.advance_to(SimTime(far + 1));
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
