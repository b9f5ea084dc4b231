//! The harness's own spans, recorded *around* calls into the program (the
//! program's internal span tree is not used): name, start, end, parent and
//! the request they belong to, kept in memory and written out at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer; `NONE` for "no parent" and for every span
/// of a disabled tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRef(u32);

impl SpanRef {
    pub const NONE: SpanRef = SpanRef(u32::MAX);
}

struct Span {
    name: &'static str,
    /// Outcome label set at the end ("hit" / "miss"), or "".
    tag: &'static str,
    parent: SpanRef,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per `(name, tag)`: how many spans, their total duration and the part of
/// it not covered by child spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Folded {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Folded {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

impl Tracer {
    /// The untraced runs' tracer: records nothing, every call is one branch.
    pub fn off() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `capacity` spans are reserved up front so recording does not
    /// reallocate inside a timed region.
    pub fn on(capacity: usize) -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanRef, request: u64) -> SpanRef {
        if !self.enabled {
            return SpanRef::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag: "",
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        SpanRef((self.spans.len() - 1) as u32)
    }

    #[inline]
    pub fn end(&mut self, span: SpanRef) {
        self.end_tagged(span, "");
    }

    #[inline]
    pub fn end_tagged(&mut self, span: SpanRef, tag: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[span.0 as usize];
        span.end_ns = now;
        span.tag = tag;
    }

    /// Self time per `(name, tag)`: a span's duration minus the part of it
    /// its children cover.  The harness never overlaps siblings, so that
    /// part is the sum of the children's durations.
    pub fn fold(&self) -> BTreeMap<(&'static str, &'static str), Folded> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != SpanRef::NONE {
                covered[span.parent.0 as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut folded: BTreeMap<(&'static str, &'static str), Folded> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let entry = folded.entry((span.name, span.tag)).or_default();
            let duration = span.end_ns - span.start_ns;
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(covered);
        }
        folded
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                SpanRef::NONE => "null".to_string(),
                SpanRef(p) => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.request, span.name, span.tag, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}
