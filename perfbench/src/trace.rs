//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, recorded from the benchmark's side of
//! the call: its name, start, end, the span that caused it, and the id of
//! the circuit or request it belongs to. Counters observed at the same
//! boundary (node counts, edits, bytes) ride on the span, so per-layer
//! ratios are computed where the work happened. Nothing is written until
//! the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: &'static str,
    id: String,
    parent: Option<SpanId>,
    start: Duration,
    end: Duration,
    counters: Vec<(String, f64)>,
}

/// The spans of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: &str) -> SpanId {
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            id: id.to_string(),
            parent: self.open.last().copied(),
            start,
            end: start,
            counters: Vec::new(),
        });
        let span = self.spans.len() - 1;
        self.open.push(span);
        span
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: SpanId) {
        assert_eq!(self.open.pop(), Some(span), "spans must nest");
        self.spans[span].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`, returning its result and the
    /// span's id (for counters).
    pub fn record<R>(
        &mut self,
        name: &'static str,
        id: &str,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let span = self.enter(name, id);
        let result = f();
        self.exit(span);
        (result, span)
    }

    /// Records a span measured elsewhere, from `start` to `end`.
    pub fn add(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            id: id.to_string(),
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attaches a counter to `span`.
    pub fn counter(&mut self, span: SpanId, name: impl Into<String>, value: f64) {
        self.spans[span].counters.push((name.into(), value));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn duration(&self, span: &Span) -> Duration {
        span.end.saturating_sub(span.start)
    }

    /// Σ duration of the spans named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.duration(s).as_secs_f64())
            .sum()
    }

    /// Σ self time of the spans named `name`, in seconds: each span's
    /// duration minus the part its direct child spans cover.
    pub fn self_total(&self, name: &str) -> f64 {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += self.duration(span);
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(span, _)| span.name == name)
            .map(|(span, &children)| self.duration(span).saturating_sub(children).as_secs_f64())
            .sum()
    }

    /// Σ of counter `counter` over the spans named `name`.
    pub fn counter_total(&self, name: &str, counter: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counters.iter())
            .filter(|(c, _)| c == counter)
            .map(|(_, v)| v)
            .sum()
    }

    /// Every counter value of `counter` on spans named `name`, in order.
    pub fn counter_values(&self, name: &str, counter: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counters.iter())
            .filter(|(c, _)| c == counter)
            .map(|(_, v)| *v)
            .collect()
    }

    /// One JSON object per span: `{"span", "name", "id", "parent",
    /// "start_us", "end_us", counters...}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"span\": {index}, \"name\": \"{}\", \"id\": \"{}\", \"parent\": {parent}, \
                 \"start_us\": {}, \"end_us\": {}",
                span.name,
                span.id,
                span.start.as_micros(),
                span.end.as_micros()
            );
            for (counter, value) in &span.counters {
                let _ = write!(out, ", \"{counter}\": {value:?}");
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut trace = Trace::new();
        let root = trace.enter("root", "c0");
        let ((), child) = trace.record("child", "c0", || {
            std::thread::sleep(Duration::from_millis(5));
        });
        trace.counter(child, "n", 2.0);
        std::thread::sleep(Duration::from_millis(2));
        trace.exit(root);
        assert!(trace.total("root") >= trace.total("child"));
        let uncovered = trace.self_total("root");
        assert!(uncovered >= 0.002 && uncovered < trace.total("root"));
        assert_eq!(trace.self_total("child"), trace.total("child"));
        assert_eq!(trace.counter_total("child", "n"), 2.0);
        assert_eq!(trace.len(), 2);
        let late = trace.add("late", "r1", None, Instant::now(), Instant::now());
        assert_eq!(late, 2);
        assert_eq!(trace.self_total("late"), trace.total("late"));
        let lines = trace.to_json_lines();
        assert!(lines.contains("\"id\": \"c0\", \"parent\": 0"), "{lines}");
    }
}
