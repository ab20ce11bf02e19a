//! Structured notification-lifecycle tracing.
//!
//! The statistics in [`crate::stats`] summarize a whole run; this module
//! records *what happened when*, so a single p99 notification can be
//! followed from its doorbell write to its service completion. The design
//! constraints, in order:
//!
//! 1. **Determinism.** Emitting a record consumes no RNG draws, schedules
//!    no events, and reads no wall clock; a traced run is bit-identical to
//!    an untraced one (pinned by `tests/observability.rs`).
//! 2. **Zero cost when disabled.** A disabled [`Tracer`] is a single
//!    branch per instrumentation site — no allocation, no formatting.
//! 3. **Bounded memory.** Records land in a fixed-capacity ring buffer;
//!    when full, the *oldest* records are overwritten (the end of a run is
//!    what post-mortems need).
//!
//! Records are typed ([`TraceKind`]) rather than stringly, so sinks can
//! render them as JSONL, Chrome `trace_event` JSON (open the file in
//! `ui.perfetto.dev` or `chrome://tracing`), or anything else without
//! re-parsing. [`chrome_trace`] produces the Chrome/Perfetto export,
//! pairing `Enqueue`/`ServiceDone` records into per-item async lifecycle
//! spans and `SpanBegin`/`SpanEnd` records into phase spans.

use crate::time::SimTime;

/// What happened: one step of the notification lifecycle, a fault-plane
/// action, or a phase-span edge.
///
/// The lifecycle order for a single work item is: `Enqueue` →
/// `DoorbellWrite` → `GetmSnoop` → (`ReadyInsert` on a monitoring-set
/// hit) → `Wake` → `Dequeue` → `ServiceDone`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A work item entered an I/O queue.
    Enqueue {
        /// Destination queue.
        queue: u32,
        /// Monotonic item id.
        item: u64,
    },
    /// The producer rang the queue's doorbell (coherence-visible store).
    DoorbellWrite {
        /// The queue whose doorbell was written.
        queue: u32,
    },
    /// The monitoring set observed the doorbell's GetM snoop.
    GetmSnoop {
        /// Device group whose monitoring set saw the snoop.
        group: u32,
        /// Whether an armed entry matched (miss = unmonitored line or
        /// already-activated entry).
        hit: bool,
    },
    /// A QID was activated into the ready set.
    ReadyInsert {
        /// The activated queue.
        queue: u32,
    },
    /// A halted core resumed (wake-up delivered).
    Wake {
        /// The woken core.
        core: u32,
    },
    /// A core halted in the QWAIT (or interrupt-idle) path.
    Halt {
        /// The halting core.
        core: u32,
    },
    /// A halted core's QWAIT re-poll timeout expired.
    WakeTimeout {
        /// The core whose timeout fired.
        core: u32,
    },
    /// A core dequeued a work item.
    Dequeue {
        /// Source queue.
        queue: u32,
        /// Consuming core.
        core: u32,
        /// The item.
        item: u64,
    },
    /// Transport processing of an item finished (tenant notified).
    ServiceDone {
        /// Source queue.
        queue: u32,
        /// Serving core.
        core: u32,
        /// The item.
        item: u64,
    },
    /// Fault plane: a doorbell notification was dropped in flight.
    FaultDropped {
        /// The queue whose notification was lost.
        queue: u32,
    },
    /// Fault plane: a doorbell notification was delayed in flight.
    FaultDelayed {
        /// The queue whose notification was delayed.
        queue: u32,
        /// Delay applied, cycles.
        cycles: u64,
    },
    /// Fault plane: a queue's monitoring-set entry was evicted.
    FaultEvicted {
        /// The evicted queue.
        queue: u32,
    },
    /// Fault plane: a spurious activation was forced (false sharing).
    FaultSpurious {
        /// The spuriously-activated queue.
        queue: u32,
    },
    /// Resilience: a timeout sweep found missed work and recovered it.
    Recovery {
        /// The recovering core.
        core: u32,
    },
    /// The no-progress watchdog detected a stall.
    Stall,
    /// A named phase span opened (see [`Tracer::begin_span`]).
    SpanBegin {
        /// Span id (pairs with the matching `SpanEnd`).
        id: u64,
        /// Static span name.
        name: &'static str,
        /// Nesting depth at open (0 = outermost).
        depth: u32,
    },
    /// A named phase span closed.
    SpanEnd {
        /// Span id (pairs with the matching `SpanBegin`).
        id: u64,
        /// Static span name.
        name: &'static str,
        /// Nesting depth at open (0 = outermost).
        depth: u32,
    },
}

impl TraceKind {
    /// Short stable name for sinks.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Enqueue { .. } => "enqueue",
            TraceKind::DoorbellWrite { .. } => "doorbell-write",
            TraceKind::GetmSnoop { .. } => "getm-snoop",
            TraceKind::ReadyInsert { .. } => "ready-insert",
            TraceKind::Wake { .. } => "wake",
            TraceKind::Halt { .. } => "halt",
            TraceKind::WakeTimeout { .. } => "qwait-timeout",
            TraceKind::Dequeue { .. } => "dequeue",
            TraceKind::ServiceDone { .. } => "service-done",
            TraceKind::FaultDropped { .. } => "fault-dropped",
            TraceKind::FaultDelayed { .. } => "fault-delayed",
            TraceKind::FaultEvicted { .. } => "fault-evicted",
            TraceKind::FaultSpurious { .. } => "fault-spurious",
            TraceKind::Recovery { .. } => "recovery",
            TraceKind::Stall => "stall",
            TraceKind::SpanBegin { .. } => "span-begin",
            TraceKind::SpanEnd { .. } => "span-end",
        }
    }
}

/// One trace record: a typed event with its cycle timestamp and a global
/// emission sequence number (total order even within one cycle).
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// When the event happened in simulated time.
    pub at: SimTime,
    /// Global emission order (monotonic across the whole run).
    pub seq: u64,
    /// What happened.
    pub kind: TraceKind,
}

/// Handle for an open phase span, returned by [`Tracer::begin_span`] and
/// consumed by [`Tracer::end_span`].
///
/// RAII-style in the sense that the handle is affine: the type system
/// makes it hard to close a span twice, and closing requires the handle,
/// so every `SpanEnd` pairs with exactly one `SpanBegin`. (A `Drop`-based
/// guard cannot work here: in a discrete-event simulation the close
/// *timestamp* must be supplied by the model, not the destructor.)
#[derive(Debug)]
#[must_use = "end the span with Tracer::end_span to record its close"]
pub struct SpanId {
    id: u64,
    name: &'static str,
    depth: u32,
}

impl SpanId {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A bounded ring buffer of [`TraceRecord`]s.
///
/// # Examples
///
/// ```
/// use hp_sim::time::SimTime;
/// use hp_sim::trace::{TraceKind, Tracer};
///
/// let mut t = Tracer::with_capacity(4);
/// t.emit(SimTime(10), TraceKind::Enqueue { queue: 3, item: 0 });
/// let span = t.begin_span(SimTime(10), "measure");
/// t.end_span(SimTime(90), span);
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.records()[0].kind.name(), "enqueue");
///
/// // Disabled tracers emit nothing, at near-zero cost.
/// let mut off = Tracer::disabled();
/// off.emit(SimTime(1), TraceKind::Stall);
/// assert_eq!(off.len(), 0);
/// ```
#[derive(Debug)]
pub struct Tracer {
    buf: Vec<TraceRecord>,
    /// Next write position when the ring has wrapped.
    head: usize,
    cap: usize,
    enabled: bool,
    seq: u64,
    dropped: u64,
    next_span: u64,
    depth: u32,
}

impl Tracer {
    /// A tracer that records nothing (the default for untraced runs).
    pub fn disabled() -> Self {
        Tracer {
            buf: Vec::new(),
            head: 0,
            cap: 0,
            enabled: false,
            seq: 0,
            dropped: 0,
            next_span: 0,
            depth: 0,
        }
    }

    /// An enabled tracer keeping the newest `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use [`Tracer::disabled`]).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity tracer cannot hold records");
        Tracer {
            buf: Vec::with_capacity(capacity.min(4096)),
            head: 0,
            cap: capacity,
            enabled: true,
            seq: 0,
            dropped: 0,
            next_span: 0,
            depth: 0,
        }
    }

    /// Whether records are being kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records `kind` at time `at`. A no-op on a disabled tracer.
    #[inline]
    pub fn emit(&mut self, at: SimTime, kind: TraceKind) {
        if !self.enabled {
            return;
        }
        self.push(TraceRecord {
            at,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Opens a named phase span at `at`. Close it with
    /// [`Tracer::end_span`]. Spans may nest; the recorded depth reflects
    /// the nesting at open time. On a disabled tracer this still returns a
    /// handle (so call sites need no branches) but records nothing.
    pub fn begin_span(&mut self, at: SimTime, name: &'static str) -> SpanId {
        let id = self.next_span;
        self.next_span += 1;
        let depth = self.depth;
        self.depth += 1;
        self.emit(at, TraceKind::SpanBegin { id, name, depth });
        SpanId { id, name, depth }
    }

    /// Closes a span opened by [`Tracer::begin_span`] at `at`.
    pub fn end_span(&mut self, at: SimTime, span: SpanId) {
        self.depth = self.depth.saturating_sub(1);
        self.emit(
            at,
            TraceKind::SpanEnd {
                id: span.id,
                name: span.name,
                depth: span.depth,
            },
        );
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records ever emitted (including overwritten ones).
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// Records overwritten by ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held records in emission order (oldest surviving first).
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

fn chrome_args(w: &mut hp_bytes::json::JsonWriter, kind: &TraceKind) {
    w.key("args");
    w.begin_object();
    match *kind {
        TraceKind::Enqueue { queue, item }
        | TraceKind::Dequeue { queue, item, .. }
        | TraceKind::ServiceDone { queue, item, .. } => {
            w.field_u64("queue", queue as u64);
            w.field_u64("item", item);
        }
        TraceKind::DoorbellWrite { queue }
        | TraceKind::ReadyInsert { queue }
        | TraceKind::FaultDropped { queue }
        | TraceKind::FaultEvicted { queue }
        | TraceKind::FaultSpurious { queue } => {
            w.field_u64("queue", queue as u64);
        }
        TraceKind::FaultDelayed { queue, cycles } => {
            w.field_u64("queue", queue as u64);
            w.field_u64("delay_cycles", cycles);
        }
        TraceKind::GetmSnoop { group, hit } => {
            w.field_u64("group", group as u64);
            w.field_bool("hit", hit);
        }
        TraceKind::Wake { core }
        | TraceKind::Halt { core }
        | TraceKind::WakeTimeout { core }
        | TraceKind::Recovery { core } => {
            w.field_u64("core", core as u64);
        }
        TraceKind::SpanBegin { depth, .. } | TraceKind::SpanEnd { depth, .. } => {
            w.field_u64("depth", depth as u64);
        }
        TraceKind::Stall => {}
    }
    w.end_object();
}

/// The virtual thread a record renders on in the Chrome trace: cores,
/// queues, and device groups get separate tracks.
fn chrome_tid(kind: &TraceKind) -> (u64, &'static str) {
    match *kind {
        TraceKind::Wake { core }
        | TraceKind::Halt { core }
        | TraceKind::WakeTimeout { core }
        | TraceKind::Recovery { core } => (core as u64, "core"),
        TraceKind::Dequeue { core, .. } | TraceKind::ServiceDone { core, .. } => {
            (core as u64, "core")
        }
        TraceKind::Enqueue { queue, .. }
        | TraceKind::DoorbellWrite { queue }
        | TraceKind::ReadyInsert { queue }
        | TraceKind::FaultDropped { queue }
        | TraceKind::FaultDelayed { queue, .. }
        | TraceKind::FaultEvicted { queue }
        | TraceKind::FaultSpurious { queue } => (1000 + queue as u64, "queue"),
        TraceKind::GetmSnoop { group, .. } => (2000 + group as u64, "device"),
        TraceKind::Stall | TraceKind::SpanBegin { .. } | TraceKind::SpanEnd { .. } => (0, "run"),
    }
}

/// One sample for the Perfetto counter tracks: instantaneous engine
/// state at a known instant (the windowed-metrics boundary snapshots are
/// the natural source).
#[derive(Debug, Clone, Copy)]
pub struct CounterPoint {
    /// Sample instant.
    pub at: SimTime,
    /// Total queue backlog (items) at the instant.
    pub backlog: u64,
    /// Simulator event-queue depth at the instant.
    pub event_queue_depth: u64,
    /// DP cores halted at the instant.
    pub cores_halted: u64,
}

/// Renders `records` as Chrome `trace_event` JSON (the JSON Array Format
/// wrapped in an object), loadable in `ui.perfetto.dev` and
/// `chrome://tracing`.
///
/// * Every record becomes an instant event (`ph: "i"`) on a per-core /
///   per-queue / per-device virtual thread.
/// * `Enqueue` / `ServiceDone` pairs additionally become nestable async
///   span edges (`ph: "b"` / `"e"`, category `lifecycle`, id = item), so
///   each item's full enqueue→service latency renders as one span.
/// * `SpanBegin` / `SpanEnd` become async span edges in category `phase`.
/// * Every [`CounterPoint`] becomes one `backlog` / `event queue` /
///   `halted cores` sample on the Perfetto counter tracks (`ph: "C"`),
///   rendered as stacked counter charts above the span tracks; pass `&[]`
///   for a counter-free export.
///
/// `cycles_per_us` converts cycle timestamps to the microsecond `ts` unit
/// the format requires (2000.0 for the default 2 GHz clock).
pub fn chrome_trace(
    records: &[TraceRecord],
    counters: &[CounterPoint],
    cycles_per_us: f64,
) -> String {
    let mut recs: Vec<&TraceRecord> = records.iter().collect();
    recs.sort_by_key(|r| (r.at, r.seq));

    let mut w = hp_bytes::json::JsonWriter::with_capacity(256 * records.len().max(1));
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();

    // Thread-name metadata for every track in use.
    let mut tids: Vec<(u64, &'static str)> = recs.iter().map(|r| chrome_tid(&r.kind)).collect();
    tids.sort_unstable();
    tids.dedup();
    for (tid, label) in &tids {
        w.begin_object();
        w.field_str("name", "thread_name");
        w.field_str("ph", "M");
        w.field_u64("pid", 0);
        w.field_u64("tid", *tid);
        w.key("args");
        w.begin_object();
        let pretty = match *label {
            "core" => format!("core {tid}"),
            "queue" => format!("queue {}", tid - 1000),
            "device" => format!("device {}", tid - 2000),
            _ => "run".to_string(),
        };
        w.field_str("name", &pretty);
        w.end_object();
        w.end_object();
    }

    // Counter tracks: one event per sample per counter, on the run
    // track. Perfetto renders each distinct (name, pid) as its own
    // stacked counter chart.
    for p in counters {
        let ts = p.at.since_start().count() as f64 / cycles_per_us;
        for (name, value) in [
            ("backlog", p.backlog),
            ("event queue", p.event_queue_depth),
            ("halted cores", p.cores_halted),
        ] {
            w.begin_object();
            w.field_str("name", name);
            w.field_str("ph", "C");
            w.field_f64("ts", ts);
            w.field_u64("pid", 0);
            w.field_u64("tid", 0);
            w.key("args");
            w.begin_object();
            w.field_u64(name, value);
            w.end_object();
            w.end_object();
        }
    }

    for r in recs {
        let ts = r.at.since_start().count() as f64 / cycles_per_us;
        let (tid, _) = chrome_tid(&r.kind);

        // The instant event.
        w.begin_object();
        w.field_str("name", r.kind.name());
        w.field_str("ph", "i");
        w.field_str("s", "t");
        w.field_f64("ts", ts);
        w.field_u64("pid", 0);
        w.field_u64("tid", tid);
        chrome_args(&mut w, &r.kind);
        w.end_object();

        // Async span edges for item lifecycles and phase spans.
        let edge: Option<(&str, &str, String, u64)> = match r.kind {
            TraceKind::Enqueue { item, .. } => Some(("b", "lifecycle", "item".to_string(), item)),
            TraceKind::ServiceDone { item, .. } => {
                Some(("e", "lifecycle", "item".to_string(), item))
            }
            TraceKind::SpanBegin { id, name, .. } => Some(("b", "phase", name.to_string(), id)),
            TraceKind::SpanEnd { id, name, .. } => Some(("e", "phase", name.to_string(), id)),
            _ => None,
        };
        if let Some((ph, cat, name, id)) = edge {
            w.begin_object();
            w.field_str("name", &name);
            w.field_str("cat", cat);
            w.field_str("ph", ph);
            w.key("id");
            w.u64(id);
            w.field_f64("ts", ts);
            w.field_u64("pid", 0);
            w.field_u64("tid", tid);
            w.end_object();
        }
    }
    w.end_array();
    w.field_str("displayTimeUnit", "ns");
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_emits_nothing() {
        let mut t = Tracer::disabled();
        t.emit(SimTime(1), TraceKind::Stall);
        let s = t.begin_span(SimTime(1), "x");
        t.end_span(SimTime(2), s);
        assert!(t.is_empty());
        assert_eq!(t.emitted(), 0);
        assert_eq!(t.dropped(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn ring_wraparound_keeps_newest_records() {
        let mut t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            t.emit(SimTime(i), TraceKind::Enqueue { queue: 0, item: i });
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.emitted(), 10);
        assert_eq!(t.dropped(), 6);
        let items: Vec<u64> = t
            .records()
            .iter()
            .map(|r| match r.kind {
                TraceKind::Enqueue { item, .. } => item,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            items,
            vec![6, 7, 8, 9],
            "oldest overwritten, newest kept, in order"
        );
    }

    #[test]
    fn span_nesting_records_depths() {
        let mut t = Tracer::with_capacity(16);
        let outer = t.begin_span(SimTime(0), "outer");
        let inner = t.begin_span(SimTime(5), "inner");
        t.end_span(SimTime(7), inner);
        t.end_span(SimTime(9), outer);
        let recs = t.records();
        assert_eq!(recs.len(), 4);
        match (recs[0].kind, recs[1].kind, recs[2].kind, recs[3].kind) {
            (
                TraceKind::SpanBegin {
                    depth: 0,
                    name: "outer",
                    id: oid,
                },
                TraceKind::SpanBegin {
                    depth: 1,
                    name: "inner",
                    id: iid,
                },
                TraceKind::SpanEnd {
                    depth: 1,
                    name: "inner",
                    id: iid2,
                },
                TraceKind::SpanEnd {
                    depth: 0,
                    name: "outer",
                    id: oid2,
                },
            ) => {
                assert_eq!(oid, oid2);
                assert_eq!(iid, iid2);
                assert_ne!(oid, iid);
            }
            other => panic!("unexpected span records: {other:?}"),
        }
    }

    #[test]
    fn chrome_export_contains_lifecycle_span_pair() {
        let mut t = Tracer::with_capacity(16);
        t.emit(SimTime(100), TraceKind::Enqueue { queue: 2, item: 7 });
        t.emit(SimTime(120), TraceKind::DoorbellWrite { queue: 2 });
        t.emit(
            SimTime(300),
            TraceKind::Dequeue {
                queue: 2,
                core: 0,
                item: 7,
            },
        );
        t.emit(
            SimTime(900),
            TraceKind::ServiceDone {
                queue: 2,
                core: 0,
                item: 7,
            },
        );
        let json = chrome_trace(&t.records(), &[], 2000.0);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(
            json.contains("\"ph\":\"b\""),
            "lifecycle begin edge missing: {json}"
        );
        assert!(
            json.contains("\"ph\":\"e\""),
            "lifecycle end edge missing: {json}"
        );
        assert!(json.contains("\"cat\":\"lifecycle\""));
        assert!(json.contains("\"enqueue\"") && json.contains("\"service-done\""));
        // 100 cycles at 2 GHz = 0.05 us.
        assert!(
            json.contains("\"ts\":0.05"),
            "cycle→us conversion wrong: {json}"
        );
    }

    #[test]
    fn chrome_export_orders_out_of_order_records_by_time() {
        let mut t = Tracer::with_capacity(8);
        // The engine may emit completion records timestamped in the
        // future; the exporter must sort.
        t.emit(
            SimTime(900),
            TraceKind::ServiceDone {
                queue: 0,
                core: 0,
                item: 1,
            },
        );
        t.emit(SimTime(100), TraceKind::Enqueue { queue: 0, item: 2 });
        let json = chrome_trace(&t.records(), &[], 2000.0);
        let enq = json.find("\"enqueue\"").unwrap();
        let done = json.find("\"service-done\"").unwrap();
        assert!(enq < done, "records must be time-sorted in the export");
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_is_rejected() {
        let _ = Tracer::with_capacity(0);
    }

    #[test]
    fn chrome_export_renders_counter_tracks() {
        let mut t = Tracer::with_capacity(8);
        t.emit(SimTime(100), TraceKind::Enqueue { queue: 0, item: 1 });
        let points = [
            CounterPoint {
                at: SimTime(200),
                backlog: 3,
                event_queue_depth: 5,
                cores_halted: 1,
            },
            CounterPoint {
                at: SimTime(400),
                backlog: 0,
                event_queue_depth: 2,
                cores_halted: 4,
            },
        ];
        let json = chrome_trace(&t.records(), &points, 2000.0);
        assert_eq!(
            json.matches("\"ph\":\"C\"").count(),
            6,
            "3 tracks x 2 points"
        );
        assert!(json.contains("\"backlog\":3"));
        assert!(json.contains("\"event queue\":5"));
        assert!(json.contains("\"halted cores\":4"));
        // No counter points, no counter tracks.
        assert!(!chrome_trace(&t.records(), &[], 2000.0).contains("\"ph\":\"C\""));
    }
}
