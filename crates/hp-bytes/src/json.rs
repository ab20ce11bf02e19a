//! A minimal streaming JSON encoder and a matching parser.
//!
//! The observability sinks (JSONL metrics, Chrome `trace_event` exports)
//! need machine-readable output, but the workspace is hermetic — no
//! `serde`. [`JsonWriter`] is the hand-rolled substitute: an append-only
//! encoder with correct string escaping and comma placement, enough to
//! emit arbitrarily nested objects/arrays of the primitive types the
//! simulator reports. [`parse`] is the read side: a small
//! recursive-descent parser into [`JsonValue`] trees, enough for the
//! run-diff tooling to load artifacts this crate wrote (the attribution
//! schema in particular) without external dependencies.
//!
//! Non-finite floats encode as `null` (JSON has no NaN/Infinity), so a
//! zero-sample run's `NaN` percentiles stay machine-parseable.
//!
//! ```
//! use hp_bytes::json::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_object();
//! w.field_str("name", "fig3");
//! w.field_u64("queues", 512);
//! w.key("p99_us");
//! w.f64(17.25);
//! w.end_object();
//! assert_eq!(w.finish(), r#"{"name":"fig3","queues":512,"p99_us":17.25}"#);
//! ```

/// Container context: tracks how many items have been emitted so the
/// writer knows when a comma is due.
#[derive(Debug, Clone, Copy)]
enum Ctx {
    Object(u64),
    Array(u64),
}

/// An append-only JSON encoder.
///
/// The caller is responsible for structural validity (matching
/// `begin_*`/`end_*`, a `key` before every object value); the writer
/// handles commas, colons, and escaping. Misuse produces malformed JSON,
/// not a panic — this is an internal tool, not a validator.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    stack: Vec<Ctx>,
    after_key: bool,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-reserved capacity (bytes).
    pub fn with_capacity(cap: usize) -> Self {
        JsonWriter {
            buf: String::with_capacity(cap),
            stack: Vec::new(),
            after_key: false,
        }
    }

    /// Consumes the writer, returning the encoded JSON.
    pub fn finish(self) -> String {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn sep(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(Ctx::Object(n) | Ctx::Array(n)) = self.stack.last_mut() {
            if *n > 0 {
                self.buf.push(',');
            }
            *n += 1;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.sep();
        self.buf.push('{');
        self.stack.push(Ctx::Object(0));
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        self.stack.pop();
        self.buf.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.sep();
        self.buf.push('[');
        self.stack.push(Ctx::Array(0));
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        self.stack.pop();
        self.buf.push(']');
    }

    /// Emits an object key; the next value call supplies its value.
    pub fn key(&mut self, k: &str) {
        self.sep();
        self.write_escaped(k);
        self.buf.push(':');
        self.after_key = true;
    }

    /// Emits a string value.
    pub fn string(&mut self, v: &str) {
        self.sep();
        self.write_escaped(v);
    }

    /// Emits an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.sep();
        self.buf.push_str(&v.to_string());
    }

    /// Emits a signed integer value.
    pub fn i64(&mut self, v: i64) {
        self.sep();
        self.buf.push_str(&v.to_string());
    }

    /// Emits a float value; non-finite values encode as `null`.
    pub fn f64(&mut self, v: f64) {
        self.sep();
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
    }

    /// Emits a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.sep();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Emits a `null` value.
    pub fn null(&mut self) {
        self.sep();
        self.buf.push_str("null");
    }

    /// `"k": "v"` convenience.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.string(v);
    }

    /// `"k": v` convenience for unsigned integers.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64(v);
    }

    /// `"k": v` convenience for floats (non-finite → `null`).
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.f64(v);
    }

    /// `"k": v` convenience for booleans.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.bool(v);
    }

    /// `"k": v` convenience for optional floats (`None` → `null`).
    pub fn field_opt_f64(&mut self, k: &str, v: Option<f64>) {
        self.key(k);
        match v {
            Some(x) => self.f64(x),
            None => self.null(),
        }
    }

    fn write_escaped(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }
}

/// A parsed JSON document node (see [`parse`]).
///
/// Numbers are kept as `f64` — the artifacts this parser targets encode
/// counters well inside the 2^53 exactly-representable range. Object
/// members preserve document order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A rejected JSON document: byte offset and what went wrong there.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What the parser expected or found.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonParseError {}

/// Nesting bound: a document with more than this many nested containers
/// is rejected rather than risking parser-stack exhaustion on adversarial
/// input.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document into a [`JsonValue`] tree.
///
/// # Errors
///
/// A [`JsonParseError`] locating the first malformed byte — including
/// trailing garbage after the top-level value, unterminated containers,
/// and nesting beyond an internal depth bound.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonParseError {
        JsonParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &str, msg: &'static str) -> Result<(), JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    /// A value whose enclosing containers number `depth`.
    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self
                .literal("true", "expected 'true'")
                .map(|()| JsonValue::Bool(true)),
            Some(b'f') => self
                .literal("false", "expected 'false'")
                .map(|()| JsonValue::Bool(false)),
            Some(b'n') => self
                .literal("null", "expected 'null'")
                .map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The scanned run is valid UTF-8 (the input is &str and the
            // run stops before any structural ASCII byte).
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is UTF-8"),
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Unpaired surrogates decode to the
                            // replacement character; the writer never
                            // emits them.
                            out.push(char::from_u32(cp as u32).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonParseError> {
        let mut cp: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            cp = cp << 4 | d as u16;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is UTF-8");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| JsonParseError {
                at: start,
                msg: "malformed number",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structures_get_commas_right() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("rows");
        w.begin_array();
        for i in 0..3u64 {
            w.begin_object();
            w.field_u64("i", i);
            w.end_object();
        }
        w.end_array();
        w.field_bool("ok", true);
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"rows":[{"i":0},{"i":1},{"i":2}],"ok":true}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("k", "a\"b\\c\nd\te\u{1}");
        w.end_object();
        assert_eq!(w.finish(), "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.f64(1.5);
        w.f64(f64::NAN);
        w.f64(f64::INFINITY);
        w.null();
        w.end_array();
        assert_eq!(w.finish(), "[1.5,null,null,null]");
    }

    #[test]
    fn scalars_at_top_level() {
        let mut w = JsonWriter::new();
        w.i64(-7);
        assert_eq!(w.finish(), "-7");
    }

    #[test]
    fn opt_field_writes_null_for_none() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_opt_f64("p99", None);
        w.field_opt_f64("p50", Some(2.0));
        w.end_object();
        assert_eq!(w.finish(), r#"{"p99":null,"p50":2}"#);
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "a\"b\\c\nd");
        w.field_u64("count", 42);
        w.field_f64("mean", -1.5e3);
        w.field_bool("ok", true);
        w.key("p99");
        w.null();
        w.key("rows");
        w.begin_array();
        w.u64(1);
        w.u64(2);
        w.end_array();
        w.end_object();
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("mean").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("p99"), Some(&JsonValue::Null));
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].as_u64(), Some(2));
    }

    #[test]
    fn parse_handles_whitespace_and_unicode_escapes() {
        let v = parse(" { \"k\" : [ 1 , \"\\u0041\\u00e9\" , { } ] } ").unwrap();
        let arr = v.get("k").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_str(), Some("Aé"));
        assert_eq!(arr[2], JsonValue::Obj(vec![]));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,}x",
            "\"unterminated",
            "01x",
            "truest",
            "[1] garbage",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_rejects_excessive_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.msg, "nesting too deep");
        // A comfortably nested document still parses.
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn as_u64_guards_range_and_integrality() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_f64(), Some(1.5));
    }
}
