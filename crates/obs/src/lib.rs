//! Deterministic structured tracing + metrics.
//!
//! Every evaluation number in this repository comes out of a deterministic
//! simulation, and DESIGN.md §10's contract says results are byte-identical
//! at any worker count. This crate extends that contract to
//! *introspection*: structured events ([`Event`]), spans ([`Span`]), and a
//! metrics registry ([`metrics::Metrics`]) whose serialized output is part
//! of the deterministic surface.
//!
//! The rules that make that work:
//!
//! * **Sim-time timestamps.** Deterministic crates (netsim, core, fabric,
//!   conformance, experiments) stamp events with simulated nanoseconds.
//!   Wall-clock timestamps are legal only inside the threaded emulation and
//!   the bench binaries — never in a trace that claims byte-equality.
//! * **Static-dispatch sinks.** Instrumented code is generic over
//!   [`Sink`]; the [`NoopSink`] monomorphization has `enabled() == false`
//!   as a constant, so the disabled path folds to nothing. Hot loops pay
//!   one predictable branch at most (see the bench regression gate).
//! * **No floats in events.** [`Value`] carries integers, booleans, and
//!   strings only; float formatting is locale/rounding bait and has no
//!   place in a byte-compared artifact.
//! * **Input-order merge.** Parallel fan-outs buffer per job and merge
//!   with [`sinks::merge_job_lines`], inheriting parfan's input-order
//!   result contract — the merged trace is identical at any job count.
//!
//! ```
//! use obs::{event, NoopSink, Sink};
//! let mut sink = obs::sinks::JsonlSink::new();
//! event!(&mut sink, 1_000, "snap.initiate", epoch = 1u64, devices = 4u64);
//! assert_eq!(
//!     sink.lines(),
//!     [r#"{"t":1000,"ev":"snap.initiate","epoch":1,"devices":4}"#]
//! );
//! // The disabled path does not even construct the event:
//! event!(&mut NoopSink, 1_000, "never", cost = 0u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod profile;
pub mod sinks;

/// Schema tag carried by the `trace.meta` header event of every trace.
pub const TRACE_SCHEMA: &str = "speedlight-trace/v1";

/// A field value. Deliberately float-free: traces are compared
/// byte-for-byte, and integer/bool/string rendering is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
    /// Static string (event vocabulary, enum labels).
    Str(&'static str),
    /// Owned string (rare: labels built at runtime).
    Owned(String),
}

impl Value {
    /// The value as a `u64`, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Owned(s) => Some(s),
            _ => None,
        }
    }

    fn render(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Str(s) => json::push_quoted(out, s),
            Value::Owned(s) => json::push_quoted(out, s),
        }
    }
}

macro_rules! value_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::U64(v as u64)
            }
        }
    )*};
}
value_from_uint!(u64, u32, u16, u8, usize);

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(i64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Value {
        Value::Str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Owned(v)
    }
}

/// One structured event: a sim-time (or, in emulation, wall-clock)
/// timestamp in nanoseconds, a static name, and ordered fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Timestamp, nanoseconds.
    pub t_ns: u64,
    /// Event name (dotted vocabulary, e.g. `snap.initiate`).
    pub name: &'static str,
    /// Fields, in emission order (the JSONL field order).
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Start an event with no fields.
    pub fn new(t_ns: u64, name: &'static str) -> Event {
        Event {
            t_ns,
            name,
            fields: Vec::new(),
        }
    }

    /// Append a field (builder-style; order is preserved into the JSONL).
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// Look a field up by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Render as one JSONL line: `{"t":<ns>,"ev":"<name>",<fields...>}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(32 + 16 * self.fields.len());
        out.push_str("{\"t\":");
        out.push_str(&self.t_ns.to_string());
        out.push_str(",\"ev\":");
        json::push_quoted(&mut out, self.name);
        for (key, value) in &self.fields {
            out.push(',');
            json::push_quoted(&mut out, key);
            out.push(':');
            value.render(&mut out);
        }
        out.push('}');
        out
    }
}

/// An event consumer. Instrumented code is generic over this trait so that
/// the [`NoopSink`] instantiation constant-folds: `enabled()` is `false`
/// at compile time and the `event!` body disappears entirely.
pub trait Sink {
    /// Whether events should be constructed at all. Implementations must
    /// keep this cheap — it guards hot paths.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event. Only called when [`Sink::enabled`] is true.
    fn record(&mut self, ev: Event);
}

/// The disabled sink: `enabled()` is a compile-time `false`, so generic
/// instrumentation instantiated with it compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl Sink for NoopSink {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _ev: Event) {}
}

impl<S: Sink + ?Sized> Sink for &mut S {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn record(&mut self, ev: Event) {
        (**self).record(ev)
    }
}

/// Emit one event into a sink, constructing it only when the sink is
/// enabled.
///
/// `event!(sink, t_ns, "name", key = value, ...)` — `sink` is any
/// `&mut impl Sink` expression; field keys become JSONL keys verbatim.
#[macro_export]
macro_rules! event {
    ($sink:expr, $t:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let obs_sink = &mut *$sink;
        if $crate::Sink::enabled(obs_sink) {
            let obs_event = $crate::Event::new($t, $name)$(.with(stringify!($key), $val))*;
            $crate::Sink::record(obs_sink, obs_event);
        }
    }};
}

/// An in-flight span. Created by [`span!`] (or [`Span::begin`]); calling
/// [`Span::end`] emits a single event carrying the start timestamp and a
/// `dur_ns` field. Creation allocates nothing until a field is attached,
/// so an un-ended span on the disabled path is free.
#[derive(Debug, Clone)]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, Value)>,
}

impl Span {
    /// Open a span at `t_ns`.
    pub fn begin(name: &'static str, t_ns: u64) -> Span {
        Span {
            name,
            start_ns: t_ns,
            fields: Vec::new(),
        }
    }

    /// Attach a field (recorded on the close event).
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Span {
        self.fields.push((key, value.into()));
        self
    }

    /// Close the span at `t_ns`, emitting one event stamped with the span's
    /// *start* time plus a `dur_ns` field (saturating if clocks regress).
    pub fn end(self, sink: &mut impl Sink, t_ns: u64) {
        if !sink.enabled() {
            return;
        }
        let mut ev = Event {
            t_ns: self.start_ns,
            name: self.name,
            fields: self.fields,
        };
        ev.fields
            .push(("dur_ns", Value::U64(t_ns.saturating_sub(self.start_ns))));
        sink.record(ev);
    }
}

/// Open a [`Span`]: `span!("name", t_ns, key = value, ...)`.
#[macro_export]
macro_rules! span {
    ($name:expr, $t:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::Span::begin($name, $t)$(.with(stringify!($key), $val))*
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::JsonlSink;

    #[test]
    fn event_renders_fields_in_order() {
        let ev = Event::new(42, "snap.complete")
            .with("epoch", 7u64)
            .with("forced", false)
            .with("why", "ok");
        assert_eq!(
            ev.to_jsonl(),
            r#"{"t":42,"ev":"snap.complete","epoch":7,"forced":false,"why":"ok"}"#
        );
        assert_eq!(ev.get("epoch").and_then(Value::as_u64), Some(7));
        assert_eq!(ev.get("missing"), None);
    }

    #[test]
    fn noop_sink_is_disabled_and_event_macro_skips_it() {
        let mut sink = NoopSink;
        assert!(!Sink::enabled(&sink));
        // The side effect in the field expression must not run: the macro
        // guards construction behind `enabled()`.
        let mut evaluated = false;
        event!(
            &mut sink,
            1,
            "never",
            cost = {
                evaluated = true;
                1u64
            }
        );
        assert!(!evaluated, "disabled sink must not evaluate field values");
    }

    #[test]
    fn event_macro_records_into_enabled_sink() {
        let mut sink = JsonlSink::new();
        event!(&mut sink, 5, "a", x = 1u64);
        event!(&mut sink, 6, "b");
        assert_eq!(
            sink.lines(),
            [r#"{"t":5,"ev":"a","x":1}"#, r#"{"t":6,"ev":"b"}"#]
        );
    }

    #[test]
    fn span_emits_start_time_and_duration() {
        let mut sink = JsonlSink::new();
        let span = span!("epoch", 100, epoch = 3u64);
        span.end(&mut sink, 250);
        assert_eq!(
            sink.lines(),
            [r#"{"t":100,"ev":"epoch","epoch":3,"dur_ns":150}"#]
        );
        // Disabled path: nothing recorded, no panic.
        span!("never", 0).end(&mut NoopSink, 10);
    }

    #[test]
    fn span_duration_saturates_on_clock_regression() {
        let mut sink = JsonlSink::new();
        Span::begin("s", 100).end(&mut sink, 40);
        assert_eq!(sink.lines(), [r#"{"t":100,"ev":"s","dur_ns":0}"#]);
    }

    #[test]
    fn signed_and_string_values_render_exactly() {
        let ev = Event::new(0, "v")
            .with("neg", -3i64)
            .with("owned", String::from("a\"b"));
        assert_eq!(ev.to_jsonl(), r#"{"t":0,"ev":"v","neg":-3,"owned":"a\"b"}"#);
    }
}
