//! Host-time spans recorded by the benchmark around its own calls into
//! the simulator, exported as Chrome `trace_event` JSON (loadable in
//! `ui.perfetto.dev`).

use hp_bytes::json::JsonWriter;
use std::time::Instant;

/// One span: name, interval and the span that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// An in-memory span recorder; spans are written out once, at the end.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Records the interval `start..end` as a span named `name` under
    /// `parent`; returns its id.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a top-level span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, None, start, Instant::now());
        out
    }

    /// The spans as Chrome complete (`"ph":"X"`) events, in microseconds
    /// since the recorder was created. Viewers nest them by time on one
    /// track; each event's `args` also names its id and its parent's, so
    /// the causal tree survives any viewer.
    pub fn chrome_json(&self) -> String {
        let us =
            |from: Instant, to: Instant| to.saturating_duration_since(from).as_nanos() as f64 / 1e3;
        let mut w = JsonWriter::with_capacity(160 * self.spans.len() + 64);
        w.begin_object();
        w.key("traceEvents");
        w.begin_array();
        for (id, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.field_str("name", &s.name);
            w.field_str("cat", "perfbench");
            w.field_str("ph", "X");
            w.field_f64("ts", us(self.epoch, s.start));
            w.field_f64("dur", us(s.start, s.end));
            w.field_u64("pid", 1);
            w.field_u64("tid", 1);
            w.key("args");
            w.begin_object();
            w.field_u64("id", id as u64);
            if let Some(p) = s.parent {
                w.field_u64("parent", p as u64);
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.field_str("displayTimeUnit", "ms");
        w.end_object();
        w.finish()
    }
}
