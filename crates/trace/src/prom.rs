//! Minimal Prometheus text exposition (version 0.0.4): a writer the service
//! uses to render `metrics_text()`, and a validator the golden tests use to
//! keep that surface well-formed and stable.
//!
//! Only the subset the workspace emits is supported — `counter`, `gauge` and
//! `histogram` families, labels, no timestamps — but the validator checks
//! real exposition-format invariants: metric/label name syntax, `# TYPE`
//! declared before samples, histogram bucket monotonicity and the mandatory
//! `+Inf` bucket / `_sum` / `_count` triple.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::LogHistogram;

/// Metric family kinds the writer emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone lifetime counter.
    Counter,
    /// Point-in-time gauge.
    Gauge,
    /// Log-bucketed latency histogram.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Builds one exposition document: `# HELP` / `# TYPE` headers followed by
/// samples, in the order the caller writes them.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the `# HELP` and `# TYPE` headers of one metric family.
    pub fn header(&mut self, name: &str, help: &str, kind: MetricKind) {
        debug_assert!(valid_metric_name(name), "invalid metric name {name}");
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {}", kind.as_str());
    }

    /// Writes one sample with optional labels.
    pub fn value(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        self.out.push_str(name);
        write_labels(&mut self.out, labels);
        let _ = writeln!(self.out, " {}", format_value(value));
    }

    /// Writes one integer-valued sample (counters, exact gauges).
    pub fn int_value(&mut self, name: &str, labels: &[(&str, String)], value: u64) {
        self.out.push_str(name);
        write_labels(&mut self.out, labels);
        let _ = writeln!(self.out, " {value}");
    }

    /// Writes a [`LogHistogram`] as a Prometheus histogram in **seconds**:
    /// one cumulative `_bucket` line per non-empty bucket plus the mandatory
    /// `+Inf` bucket, then `_sum` and `_count`.  `labels` are attached to
    /// every line (with `le` appended on the buckets).
    pub fn histogram(&mut self, name: &str, labels: &[(&str, String)], hist: &LogHistogram) {
        let buckets = hist.cumulative_buckets().into_iter();
        let buckets = buckets.map(|(upper, n)| (format_value(upper as f64 / 1e9), n));
        for (le, cumulative) in buckets.chain([("+Inf".to_string(), hist.count())]) {
            self.out.push_str(name);
            self.out.push_str("_bucket{");
            write_label_pairs(&mut self.out, labels);
            if !labels.is_empty() {
                self.out.push(',');
            }
            let _ = writeln!(self.out, "le=\"{le}\"}} {cumulative}");
        }
        self.out.push_str(name);
        self.out.push_str("_sum");
        write_labels(&mut self.out, labels);
        let _ = writeln!(self.out, " {}", format_value(hist.sum().as_secs_f64()));
        self.out.push_str(name);
        self.out.push_str("_count");
        write_labels(&mut self.out, labels);
        let _ = writeln!(self.out, " {}", hist.count());
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

fn write_labels(out: &mut String, labels: &[(&str, String)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    write_label_pairs(out, labels);
    out.push('}');
}

/// The comma-separated `key="escaped value"` pairs, without the braces.
fn write_label_pairs(out: &mut String, labels: &[(&str, String)]) {
    for (i, (key, value)) in labels.iter().enumerate() {
        debug_assert!(valid_label_name(key), "invalid label name {key}");
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// Renders an f64 the exposition format accepts (Rust's `Display` never
/// produces exponents for finite values).
fn format_value(value: f64) -> String {
    if value.is_infinite() {
        if value > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if value.is_nan() {
        "NaN".to_string()
    } else {
        format!("{value}")
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
    line_no: usize,
}

/// Validates an exposition document (see the module docs for what is
/// checked).  Returns the first problem found, with its line number.
pub fn validate(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    for (line_no, raw) in text.lines().enumerate() {
        let line_no = line_no + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without metric name"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without kind"))?;
                if parts.next().is_some() {
                    return Err(format!("line {line_no}: trailing tokens after TYPE"));
                }
                if !valid_metric_name(name) {
                    return Err(format!("line {line_no}: invalid metric name {name}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {line_no}: unknown metric kind {kind}"));
                }
                if samples.iter().any(|s| family_of(&s.name, &types) == name) {
                    return Err(format!("line {line_no}: TYPE for {name} after its samples"));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(format!("line {line_no}: duplicate TYPE for {name}"));
                }
            }
            // HELP lines and free-form comments pass through unchecked.
            continue;
        }
        samples.push(parse_sample(line, line_no)?);
    }

    // Every sample must belong to a declared family (histogram children
    // resolve through their `_bucket` / `_sum` / `_count` suffix).
    for sample in &samples {
        let family = family_of(&sample.name, &types);
        match types.get(family) {
            None => {
                return Err(format!(
                    "line {}: sample {} has no # TYPE declaration",
                    sample.line_no, sample.name
                ))
            }
            Some(kind) if kind == "histogram" => {
                if sample.name == format!("{family}_bucket")
                    && !sample.labels.iter().any(|(k, _)| k == "le")
                {
                    return Err(format!(
                        "line {}: histogram bucket without le label",
                        sample.line_no
                    ));
                }
                if sample.name == *family {
                    return Err(format!(
                        "line {}: bare sample for histogram family {family}",
                        sample.line_no
                    ));
                }
            }
            Some(_) => {}
        }
    }

    // Histogram series invariants, grouped by family + labels-minus-le.
    for (family, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let bucket_name = format!("{family}_bucket");
        let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for sample in samples.iter().filter(|s| s.name == bucket_name) {
            let le = sample
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            let le = parse_float(&le)
                .ok_or_else(|| format!("line {}: unparsable le {le}", sample.line_no))?;
            let key = label_key(&sample.labels);
            series.entry(key).or_default().push((le, sample.value));
        }
        if series.is_empty() {
            return Err(format!("histogram {family} has no buckets"));
        }
        for (key, buckets) in &series {
            for pair in buckets.windows(2) {
                if pair[1].0 <= pair[0].0 {
                    return Err(format!("histogram {family}{{{key}}}: le not increasing"));
                }
                if pair[1].1 < pair[0].1 {
                    return Err(format!(
                        "histogram {family}{{{key}}}: cumulative count decreased"
                    ));
                }
            }
            let last = buckets.last().expect("non-empty series");
            if !last.0.is_infinite() {
                return Err(format!("histogram {family}{{{key}}}: missing +Inf bucket"));
            }
            let total = last.1;
            let count = samples
                .iter()
                .find(|s| s.name == format!("{family}_count") && label_key(&s.labels) == *key)
                .ok_or_else(|| format!("histogram {family}{{{key}}}: missing _count"))?;
            if (count.value - total).abs() > f64::EPSILON {
                return Err(format!(
                    "histogram {family}{{{key}}}: _count {} != +Inf bucket {total}",
                    count.value
                ));
            }
            if !samples
                .iter()
                .any(|s| s.name == format!("{family}_sum") && label_key(&s.labels) == *key)
            {
                return Err(format!("histogram {family}{{{key}}}: missing _sum"));
            }
        }
    }
    Ok(())
}

/// The family a sample name belongs to: histogram children map onto their
/// declared base family, everything else is its own family.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).is_some_and(|k| k == "histogram") {
                return base;
            }
        }
    }
    name
}

/// Canonical key of a label set with `le` removed (histogram grouping).
fn label_key(labels: &[(String, String)]) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .filter(|(k, _)| k != "le")
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    pairs.sort();
    pairs.join(",")
}

fn parse_float(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        s => s.parse().ok(),
    }
}

fn parse_sample(line: &str, line_no: usize) -> Result<Sample, String> {
    let (name_end, has_labels) = line
        .char_indices()
        .find(|&(_, c)| c == '{' || c.is_whitespace())
        .map(|(i, c)| (i, c == '{'))
        .ok_or_else(|| format!("line {line_no}: sample without value"))?;
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(format!("line {line_no}: invalid metric name {name}"));
    }
    let mut labels = Vec::new();
    let rest = if has_labels {
        let body_and_rest = &line[name_end + 1..];
        let close = find_label_close(body_and_rest)
            .ok_or_else(|| format!("line {line_no}: unterminated label set"))?;
        parse_labels(&body_and_rest[..close], line_no, &mut labels)?;
        &body_and_rest[close + 1..]
    } else {
        &line[name_end..]
    };
    let rest = rest.trim_start();
    let value_end = rest.find(char::is_whitespace).unwrap_or(rest.len());
    let value_text = &rest[..value_end];
    if value_text.is_empty() {
        return Err(format!("line {line_no}: sample without value"));
    }
    let value = parse_float(value_text)
        .ok_or_else(|| format!("line {line_no}: unparsable value {value_text}"))?;
    if !rest[value_end..].trim_start().is_empty() {
        return Err(format!("line {line_no}: trailing tokens after value"));
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
        line_no,
    })
}

/// Index of the `}` closing a label set, honouring quoted strings and
/// escapes.  `body` starts just after the opening `{`.
fn find_label_close(body: &str) -> Option<usize> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '}' if !in_string => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_labels(body: &str, line_no: usize, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without ="))?;
        let key = rest[..eq].trim();
        if !valid_label_name(key) {
            return Err(format!("line {line_no}: invalid label name {key}"));
        }
        let after = rest[eq + 1..].trim_start();
        if !after.starts_with('"') {
            return Err(format!("line {line_no}: unquoted label value"));
        }
        let mut value = String::new();
        let mut escaped = false;
        let mut end = None;
        for (i, c) in after.char_indices().skip(1) {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    c => c,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            } else {
                value.push(c);
            }
        }
        let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        out.push((key.to_string(), value));
        rest = after[end + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("line {line_no}: expected , between labels"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn writer_output_validates() {
        let mut hist = LogHistogram::new();
        for ms in [1u64, 2, 2, 50] {
            hist.record(Duration::from_millis(ms));
        }
        let mut w = PromWriter::new();
        w.header(
            "soda_queries_total",
            "Queries answered.",
            MetricKind::Counter,
        );
        w.int_value("soda_queries_total", &[], 4);
        w.header("soda_queue_depth", "Jobs waiting.", MetricKind::Gauge);
        w.value("soda_queue_depth", &[], 0.0);
        w.header(
            "soda_stage_duration_seconds",
            "Per-stage latency.",
            MetricKind::Histogram,
        );
        w.histogram(
            "soda_stage_duration_seconds",
            &[("stage", "lookup".to_string())],
            &hist,
        );
        let text = w.finish();
        validate(&text).expect("writer output must validate");
        assert!(text.contains("soda_stage_duration_seconds_bucket{stage=\"lookup\",le=\"+Inf\"} 4"));
        assert!(text.contains("soda_stage_duration_seconds_count{stage=\"lookup\"} 4"));
    }

    #[test]
    fn empty_histogram_still_validates() {
        let mut w = PromWriter::new();
        w.header("x_seconds", "Empty.", MetricKind::Histogram);
        w.histogram("x_seconds", &[], &LogHistogram::new());
        validate(&w.finish()).expect("empty histogram is well-formed");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.header("x_total", "Escapes.", MetricKind::Counter);
        w.int_value("x_total", &[("detail", "a\"b\\c\nd".to_string())], 1);
        let text = w.finish();
        assert!(text.contains("detail=\"a\\\"b\\\\c\\nd\""));
        validate(&text).expect("escaped labels must validate");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        // Sample without TYPE.
        assert!(validate("untyped_metric 1\n").is_err());
        // TYPE after sample.
        assert!(validate("# TYPE a counter\na 1\n# TYPE b counter\nb 1\n").is_ok());
        assert!(validate("a 1\n# TYPE a counter\n").is_err());
        // Duplicate TYPE.
        assert!(validate("# TYPE a counter\n# TYPE a counter\na 1\n").is_err());
        // Unknown kind.
        assert!(validate("# TYPE a widget\na 1\n").is_err());
        // Bad metric name.
        assert!(validate("# TYPE a counter\n9bad 1\n").is_err());
        // Unparsable value.
        assert!(validate("# TYPE a counter\na wat\n").is_err());
        // Trailing tokens after the value.
        assert!(validate("# TYPE a counter\na 1 extra\n").is_err());
        // Histogram with no buckets.
        assert!(validate("# TYPE h histogram\nh_sum 0\nh_count 0\n").is_err());
        // Histogram missing +Inf.
        assert!(
            validate("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n").is_err()
        );
        // Histogram bucket counts decreasing.
        assert!(validate(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"
        )
        .is_err());
        // _count disagreeing with +Inf.
        assert!(
            validate("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 1\n").is_err()
        );
    }

    #[test]
    fn validator_accepts_a_correct_histogram() {
        let text = "# HELP h latency\n# TYPE h histogram\n\
                    h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.3\nh_count 2\n";
        validate(text).expect("well-formed histogram");
    }
}
