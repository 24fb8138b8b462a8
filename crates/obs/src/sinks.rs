//! Concrete sinks: a bounded in-memory ring, a JSONL line buffer, the
//! input-order merge for parfan fan-outs, the one sanctioned stderr
//! writer, and the [`TraceSink`] runtime selector used by the fabric.

use std::collections::VecDeque;

use crate::{Event, Sink};

/// A bounded in-memory ring of recent events: cheap always-on flight
/// recorder. When full, the oldest event is dropped and counted.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// How many events have been evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Sink for RingSink {
    fn record(&mut self, ev: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// Buffers events as rendered JSONL lines. Rendering at record time keeps
/// the memory profile flat (no `Event` allocations retained) and makes the
/// deterministic byte surface explicit: what you diff is what was stored.
#[derive(Debug, Clone, Default)]
pub struct JsonlSink {
    lines: Vec<String>,
}

impl JsonlSink {
    /// An empty line buffer.
    pub fn new() -> JsonlSink {
        JsonlSink::default()
    }

    /// The buffered lines, in emission order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Take the buffered lines, leaving the sink empty.
    pub fn take_lines(&mut self) -> Vec<String> {
        std::mem::take(&mut self.lines)
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, ev: Event) {
        self.lines.push(ev.to_jsonl());
    }
}

/// Render a slice of lines as one newline-terminated blob — the canonical
/// trace-file byte format (empty input renders as the empty string).
pub fn render_lines(lines: &[String]) -> String {
    let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Merge per-job trace buffers from a parfan fan-out in **input order** —
/// job 0's lines first, then job 1's, and so on. Because parfan returns
/// results in input order regardless of worker count (DESIGN.md §10), the
/// merged trace is byte-identical at any worker count.
pub fn merge_job_lines(per_job: Vec<Vec<String>>) -> Vec<String> {
    let total = per_job.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    for lines in per_job {
        merged.extend(lines);
    }
    merged
}

/// Parse the leading `{"t":<n>,` sim-time stamp of a rendered trace line.
/// Every line `event!` produces starts with the stamp, so this never
/// allocates; malformed lines sort first (time 0).
fn line_time(line: &str) -> u64 {
    let rest = match line.strip_prefix("{\"t\":") {
        Some(r) => r,
        None => return 0,
    };
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or(0)
}

/// Merge per-shard trace buffers from a sharded simulation into one
/// canonical stream: `trace.meta` header lines first (in shard order —
/// only shard 0 stamps one), then every event line ordered by
/// `(sim time, line content)`.
///
/// Each domain's line subsequence is identical at any shard count (that
/// is the sharded engine's determinism contract), so sorting the union by
/// a content-total order yields a byte-identical merged trace no matter
/// how domains were packed onto shards. The sort is stable, so exact
/// duplicate lines keep their multiplicity and relative order.
pub fn merge_shard_lines(per_shard: Vec<Vec<String>>) -> Vec<String> {
    let total = per_shard.iter().map(Vec::len).sum();
    let mut meta = Vec::new();
    let mut events = Vec::with_capacity(total);
    for lines in per_shard {
        for line in lines {
            if line.contains("\"ev\":\"trace.meta\"") {
                meta.push(line);
            } else {
                events.push(line);
            }
        }
    }
    events.sort_by(|a, b| (line_time(a), a.as_str()).cmp(&(line_time(b), b.as_str())));
    meta.extend(events);
    meta
}

/// The one sanctioned stderr escape hatch for library crates: progress /
/// telemetry lines that must reach a human even when no trace sink is
/// wired up. Centralizing it here keeps the `raw-print` invariant rule
/// honest — everything else goes through a [`Sink`].
pub fn stderr_line(line: &str) {
    // invariants: allow-path — obs/src/sinks.rs is the raw-print rule's
    // designated exemption; see crates/invariants/src/rules.rs.
    eprintln!("{line}");
}

/// Runtime-selected trace sink: the concrete type the fabric embeds so a
/// single simulation build serves `off` and `jsonl` without generics
/// leaking into `Network`. `Off` keeps `enabled()` false, so the `event!`
/// guard skips event construction entirely.
#[derive(Debug, Clone, Default)]
pub enum TraceSink {
    /// Tracing disabled (the default; near-zero cost).
    #[default]
    Off,
    /// Unbounded JSONL line buffer.
    Jsonl(JsonlSink),
}

impl TraceSink {
    /// A fresh JSONL sink.
    pub fn jsonl() -> TraceSink {
        TraceSink::Jsonl(JsonlSink::new())
    }

    /// Buffered JSONL lines (empty for `Off`).
    pub fn lines(&self) -> Vec<String> {
        match self {
            TraceSink::Off => Vec::new(),
            TraceSink::Jsonl(j) => j.lines().to_vec(),
        }
    }

    /// Take the buffered lines, leaving the sink in place (and empty).
    pub fn take_lines(&mut self) -> Vec<String> {
        match self {
            TraceSink::Off => Vec::new(),
            TraceSink::Jsonl(j) => j.take_lines(),
        }
    }
}

impl Sink for TraceSink {
    #[inline]
    fn enabled(&self) -> bool {
        !matches!(self, TraceSink::Off)
    }

    fn record(&mut self, ev: Event) {
        match self {
            TraceSink::Off => {}
            TraceSink::Jsonl(j) => j.record(ev),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = RingSink::new(2);
        for t in 0..5u64 {
            ring.record(Event::new(t, "e"));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let ts: Vec<u64> = ring.events().map(|e| e.t_ns).collect();
        assert_eq!(ts, [3, 4]);
    }

    #[test]
    fn jsonl_sink_buffers_rendered_lines() {
        let mut sink = JsonlSink::new();
        event!(&mut sink, 1, "a", k = 2u64);
        assert_eq!(sink.lines(), [r#"{"t":1,"ev":"a","k":2}"#]);
        let taken = sink.take_lines();
        assert_eq!(taken.len(), 1);
        assert!(sink.lines().is_empty());
    }

    #[test]
    fn merge_is_input_order_concatenation() {
        let merged = merge_job_lines(vec![
            vec!["j0-a".to_string(), "j0-b".to_string()],
            vec![],
            vec!["j2-a".to_string()],
        ]);
        assert_eq!(merged, ["j0-a", "j0-b", "j2-a"]);
        assert_eq!(render_lines(&merged), "j0-a\nj0-b\nj2-a\n");
        assert_eq!(render_lines(&[]), "");
    }

    #[test]
    fn shard_merge_is_time_then_content_ordered_with_meta_first() {
        let meta = r#"{"t":5,"ev":"trace.meta","schema":"s"}"#.to_string();
        let a0 = r#"{"t":3,"ev":"a"}"#.to_string();
        let b0 = r#"{"t":3,"ev":"b"}"#.to_string();
        let c = r#"{"t":10,"ev":"c"}"#.to_string();
        // Two packings of the same line multiset must merge identically.
        let one = merge_shard_lines(vec![vec![meta.clone(), c.clone(), b0.clone(), a0.clone()]]);
        let two = merge_shard_lines(vec![
            vec![meta.clone(), b0.clone()],
            vec![c.clone(), a0.clone()],
        ]);
        assert_eq!(one, two);
        // Header first despite its later stamp; then (t, content) order.
        assert_eq!(one, [meta, a0, b0, c]);
    }

    #[test]
    fn shard_merge_keeps_duplicate_lines() {
        let dup = r#"{"t":1,"ev":"x"}"#.to_string();
        let merged = merge_shard_lines(vec![vec![dup.clone()], vec![dup.clone()]]);
        assert_eq!(merged, [dup.clone(), dup]);
    }

    #[test]
    fn trace_sink_off_is_disabled_and_empty() {
        let mut off = TraceSink::Off;
        assert!(!Sink::enabled(&off));
        event!(&mut off, 1, "never");
        assert!(off.lines().is_empty());
        assert!(off.take_lines().is_empty());
    }

    #[test]
    fn trace_sink_jsonl_records_and_drains() {
        let mut sink = TraceSink::jsonl();
        assert!(Sink::enabled(&sink));
        event!(&mut sink, 7, "x", v = 1u64);
        assert_eq!(sink.lines(), [r#"{"t":7,"ev":"x","v":1}"#]);
        assert_eq!(sink.take_lines().len(), 1);
        assert!(sink.lines().is_empty());
    }
}
