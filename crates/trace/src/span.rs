//! Spans: the [`TraceSink`] interface the pipeline carries, the no-op and
//! collecting implementations, and the [`QueryTrace`] tree a collected query
//! folds into.
//!
//! The design mirrors the engine's probe recorder: the pipeline context holds
//! a `&dyn TraceSink`, every instrumentation site first asks
//! [`TraceSink::enabled`] and only then builds field values, so with
//! [`NoopSink`] the whole machinery costs one virtual call per site.

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of a live span within one sink.  `NONE` is both "no parent"
/// and the id the no-op sink hands out; every sink method accepts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The absent span: root parents and every no-op id.
    pub const NONE: SpanId = SpanId(0);

    /// True for [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    fn index(self) -> Option<usize> {
        (self.0 != 0).then(|| self.0 as usize - 1)
    }

    fn from_index(index: usize) -> SpanId {
        SpanId(u32::try_from(index + 1).unwrap_or(u32::MAX))
    }
}

/// A typed field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// Free text (phrases, probe tokens, detail strings).
    Str(String),
    /// Counters and sizes.
    U64(u64),
    /// Scores and rates.
    F64(f64),
    /// Flags.
    Bool(bool),
}

impl fmt::Display for TraceValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceValue::Str(s) => write!(f, "{s:?}"),
            TraceValue::U64(v) => write!(f, "{v}"),
            TraceValue::F64(v) => write!(f, "{v}"),
            TraceValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for TraceValue {
    fn from(v: &str) -> Self {
        TraceValue::Str(v.to_string())
    }
}

impl From<String> for TraceValue {
    fn from(v: String) -> Self {
        TraceValue::Str(v)
    }
}

impl From<u64> for TraceValue {
    fn from(v: u64) -> Self {
        TraceValue::U64(v)
    }
}

impl From<usize> for TraceValue {
    fn from(v: usize) -> Self {
        TraceValue::U64(v as u64)
    }
}

impl From<f64> for TraceValue {
    fn from(v: f64) -> Self {
        TraceValue::F64(v)
    }
}

impl From<bool> for TraceValue {
    fn from(v: bool) -> Self {
        TraceValue::Bool(v)
    }
}

/// Where the pipeline reports its spans.
///
/// Every method has an empty default body, so [`NoopSink`] is `impl TraceSink
/// for NoopSink {}` and the compiler sees trivially inlinable no-ops.
/// Implementations must be [`Sync`]: one sink is shared by every worker
/// thread of a service.
pub trait TraceSink: Sync {
    /// Whether spans are actually recorded.  Instrumentation sites must
    /// guard all allocation (field values, cloned tokens) behind this.
    fn enabled(&self) -> bool {
        false
    }

    /// Opens a span under `parent` (or a root span for [`SpanId::NONE`]) and
    /// returns its id.
    fn begin_span(&self, _name: &'static str, _parent: SpanId) -> SpanId {
        SpanId::NONE
    }

    /// Closes a span opened by [`begin_span`](Self::begin_span).
    fn end_span(&self, _span: SpanId) {}

    /// Records an already-measured span in one call — used for aggregate
    /// stages whose time accumulates across a loop (tables/filters/sqlgen
    /// run once per solution) and cannot bracket a single live span.
    fn record_span(
        &self,
        _name: &'static str,
        _parent: SpanId,
        _duration: Duration,
        _fields: Vec<(&'static str, TraceValue)>,
    ) {
    }

    /// Attaches a field to a live span.
    fn annotate(&self, _span: SpanId, _key: &'static str, _value: TraceValue) {}

    /// Records an instantaneous event under `parent`.
    fn event(
        &self,
        _name: &'static str,
        _parent: SpanId,
        _fields: Vec<(&'static str, TraceValue)>,
    ) {
    }
}

/// The disabled sink: every method is the trait's empty default and
/// [`enabled`](TraceSink::enabled) reports `false`, so guarded
/// instrumentation sites skip all field construction.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {}

/// One entry of the collecting sink's flat span log.
#[derive(Debug, Clone)]
struct Record {
    name: &'static str,
    parent: SpanId,
    start: Duration,
    duration: Option<Duration>,
    event: bool,
    fields: Vec<(&'static str, TraceValue)>,
}

/// A recording [`TraceSink`]: appends spans to a flat log under a mutex and
/// folds them into a [`QueryTrace`] tree on [`finish`](Self::finish).
///
/// One sink records one query; timestamps are offsets from its construction.
#[derive(Debug)]
pub struct CollectingSink {
    started: Instant,
    records: Mutex<Vec<Record>>,
}

impl Default for CollectingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectingSink {
    /// A fresh sink; span offsets count from this moment.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            records: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Record>> {
        self.records.lock().expect("trace sink poisoned")
    }

    /// Folds the recorded spans into a tree.  Spans never closed (a
    /// panicking pipeline) are ended at the fold instant.
    pub fn finish(self) -> QueryTrace {
        let now = self.started.elapsed();
        let records = self.records.into_inner().expect("trace sink poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, record) in records.iter().enumerate() {
            match record.parent.index() {
                Some(p) if p < records.len() => children[p].push(i),
                _ => roots.push(i),
            }
        }
        fn build(index: usize, records: &[Record], children: &[Vec<usize>], now: Duration) -> Span {
            let record = &records[index];
            Span {
                name: record.name.to_string(),
                start: record.start,
                duration: record
                    .duration
                    .unwrap_or_else(|| now.saturating_sub(record.start)),
                event: record.event,
                fields: record
                    .fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                children: children[index]
                    .iter()
                    .map(|&c| build(c, records, children, now))
                    .collect(),
            }
        }
        QueryTrace {
            roots: roots
                .iter()
                .map(|&r| build(r, &records, &children, now))
                .collect(),
            total: now,
        }
    }
}

impl TraceSink for CollectingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn begin_span(&self, name: &'static str, parent: SpanId) -> SpanId {
        let start = self.started.elapsed();
        let mut records = self.lock();
        let id = SpanId::from_index(records.len());
        records.push(Record {
            name,
            parent,
            start,
            duration: None,
            event: false,
            fields: Vec::new(),
        });
        id
    }

    fn end_span(&self, span: SpanId) {
        let now = self.started.elapsed();
        let Some(index) = span.index() else { return };
        let mut records = self.lock();
        if let Some(record) = records.get_mut(index) {
            record.duration = Some(now.saturating_sub(record.start));
        }
    }

    fn record_span(
        &self,
        name: &'static str,
        parent: SpanId,
        duration: Duration,
        fields: Vec<(&'static str, TraceValue)>,
    ) {
        let now = self.started.elapsed();
        self.lock().push(Record {
            name,
            parent,
            start: now.saturating_sub(duration),
            duration: Some(duration),
            event: false,
            fields,
        });
    }

    fn annotate(&self, span: SpanId, key: &'static str, value: TraceValue) {
        let Some(index) = span.index() else { return };
        let mut records = self.lock();
        if let Some(record) = records.get_mut(index) {
            record.fields.push((key, value));
        }
    }

    fn event(&self, name: &'static str, parent: SpanId, fields: Vec<(&'static str, TraceValue)>) {
        let now = self.started.elapsed();
        self.lock().push(Record {
            name,
            parent,
            start: now,
            duration: Some(Duration::ZERO),
            event: true,
            fields,
        });
    }
}

/// One node of a folded trace: a named, timed span with fields and children.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (see [`crate::names`] for the engine's vocabulary).
    pub name: String,
    /// Offset from the sink's construction.
    pub start: Duration,
    /// How long the span ran (zero for events).
    pub duration: Duration,
    /// True for instantaneous events.
    pub event: bool,
    /// Attached fields, in recording order.
    pub fields: Vec<(String, TraceValue)>,
    /// Child spans, in recording order.
    pub children: Vec<Span>,
}

impl Span {
    /// The value of a field, if present.
    pub fn field(&self, key: &str) -> Option<&TraceValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// First descendant (self included) with the given name, depth-first.
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// The folded span tree of one traced query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Top-level spans (normally a single `query` root).
    pub roots: Vec<Span>,
    /// Wall time between sink construction and fold.
    pub total: Duration,
}

impl QueryTrace {
    /// First span with the given name, depth-first across the roots.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.roots.iter().find_map(|r| r.find(name))
    }

    /// Every span in the tree, depth-first.
    pub fn all_spans(&self) -> Vec<&Span> {
        fn visit<'a>(span: &'a Span, out: &mut Vec<&'a Span>) {
            out.push(span);
            for child in &span.children {
                visit(child, out);
            }
        }
        let mut out = Vec::new();
        for root in &self.roots {
            visit(root, &mut out);
        }
        out
    }

    /// Sum of the durations of every span with the given name.
    pub fn sum_durations(&self, name: &str) -> Duration {
        self.all_spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration)
            .sum()
    }

    /// Renders the tree as indented ASCII, one span per line:
    /// name, duration, then `key=value` fields.
    pub fn render(&self) -> String {
        fn line(span: &Span, prefix: &str, last: bool, top: bool, out: &mut String) {
            let connector = if top {
                ""
            } else if last {
                "└─ "
            } else {
                "├─ "
            };
            out.push_str(prefix);
            out.push_str(connector);
            out.push_str(&span.name);
            if !span.event {
                out.push(' ');
                out.push_str(&format_duration(span.duration));
            }
            for (key, value) in &span.fields {
                out.push(' ');
                out.push_str(key);
                out.push('=');
                out.push_str(&value.to_string());
            }
            out.push('\n');
            let child_prefix = if top {
                String::new()
            } else {
                format!("{prefix}{}", if last { "   " } else { "│  " })
            };
            for (i, child) in span.children.iter().enumerate() {
                line(
                    child,
                    &child_prefix,
                    i + 1 == span.children.len(),
                    false,
                    out,
                );
            }
        }
        let mut out = String::new();
        for (i, root) in self.roots.iter().enumerate() {
            line(root, "", i + 1 == self.roots.len(), true, &mut out);
        }
        out
    }
}

/// Human-readable duration: picks ns/µs/ms/s by magnitude.
pub(crate) fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled_and_inert() {
        let sink = NoopSink;
        assert!(!sink.enabled());
        let id = sink.begin_span("query", SpanId::NONE);
        assert!(id.is_none());
        sink.annotate(id, "k", TraceValue::U64(1));
        sink.end_span(id);
    }

    #[test]
    fn collecting_sink_builds_a_tree() {
        let sink = CollectingSink::new();
        let root = sink.begin_span("query", SpanId::NONE);
        let child = sink.begin_span("lookup", root);
        sink.annotate(child, "phrases", TraceValue::U64(2));
        sink.end_span(child);
        sink.record_span(
            "tables",
            root,
            Duration::from_micros(5),
            vec![("solutions", TraceValue::U64(3))],
        );
        sink.event("note", root, vec![("detail", TraceValue::from("hi"))]);
        sink.end_span(root);
        let trace = sink.finish();
        assert_eq!(trace.roots.len(), 1);
        let query = &trace.roots[0];
        assert_eq!(query.name, "query");
        assert_eq!(query.children.len(), 3);
        let lookup = trace.find("lookup").expect("lookup span");
        assert_eq!(lookup.field("phrases"), Some(&TraceValue::U64(2)));
        let tables = trace.find("tables").expect("tables span");
        assert_eq!(tables.duration, Duration::from_micros(5));
        assert!(trace.find("note").expect("event").event);
        assert!(trace.find("missing").is_none());
    }

    #[test]
    fn unclosed_spans_end_at_finish() {
        let sink = CollectingSink::new();
        let root = sink.begin_span("query", SpanId::NONE);
        let _ = sink.begin_span("lookup", root);
        let trace = sink.finish();
        let lookup = trace.find("lookup").expect("lookup span");
        assert!(lookup.duration <= trace.total);
    }

    #[test]
    fn render_covers_every_span() {
        let sink = CollectingSink::new();
        let root = sink.begin_span("query", SpanId::NONE);
        let probe = sink.begin_span("probe", root);
        sink.annotate(probe, "phrase", TraceValue::from("zu\"rich"));
        sink.end_span(probe);
        sink.end_span(root);
        let trace = sink.finish();
        let rendered = trace.render();
        assert!(rendered.contains("query"));
        assert!(rendered.contains("└─ probe"));
        assert!(rendered.contains(r#"phrase="zu\"rich""#));
    }

    #[test]
    fn sum_durations_aggregates_same_named_spans() {
        let sink = CollectingSink::new();
        let root = sink.begin_span("query", SpanId::NONE);
        sink.record_span("probe_shard", root, Duration::from_micros(2), Vec::new());
        sink.record_span("probe_shard", root, Duration::from_micros(3), Vec::new());
        sink.end_span(root);
        let trace = sink.finish();
        assert_eq!(trace.sum_durations("probe_shard"), Duration::from_micros(5));
    }

    #[test]
    fn format_duration_picks_units() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12ns");
        assert_eq!(format_duration(Duration::from_micros(12)), "12.0µs");
        assert_eq!(format_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00s");
    }
}
