//! In-memory spans around the calls into each layer.
//!
//! Spans are recorded by the benchmark, not by the program: one
//! `{name, start_ns, end_ns, parent, op}` record per call, kept in memory
//! and written out as JSON lines when the run ends. A span's *self time*
//! is its duration minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one op share this identifier.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span; returns its index for [`Tracer::close`] and for
    /// children to name as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children (children of one parent never overlap here — one thread, one
/// call at a time).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per span name, the self time of each op (in op order of first
/// appearance), in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let own = self_times_ns(spans);
    let mut per_op: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *per_op.entry((s.name, s.op)).or_default() += ns;
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_op {
        out.entry(name).or_default().push(ns as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("op", 0, 100, None, 0),
            span("a", 10, 40, Some(0), 0),
            span("b", 40, 90, Some(0), 0),
            span("b.inner", 50, 60, Some(2), 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 40, 10]);
    }

    #[test]
    fn self_time_groups_by_name_and_op() {
        let spans = vec![
            span("op", 0, 2_000_000, None, 0),
            span("a", 0, 1_000_000, Some(0), 0),
            span("op", 0, 5_000_000, None, 1),
            span("a", 0, 3_000_000, Some(2), 1),
        ];
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["a"], vec![1.0, 3.0]);
        assert_eq!(by_name["op"], vec![1.0, 2.0]);
    }

    #[test]
    fn tracer_records_nesting_and_renders_jsonl() {
        let mut t = Tracer::default();
        let root = t.open("op", None, 7);
        let child = t.open("a", Some(root), 7);
        t.close(child);
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = grom::trace::json::parse(line).unwrap();
            assert_eq!(v.get("op").and_then(|o| o.as_u64()), Some(7));
        }
    }
}
