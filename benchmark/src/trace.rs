//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (nothing inside `crates/` is instrumented), kept in memory, and written
//! as JSON lines when the run ends. A span's children are the spans that
//! name it as `parent`; because inner rungs are *replayed* after the real
//! call rather than nested inside it in time, a span's self time is its
//! duration minus the summed durations of its children.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one lookup / epoch / pass share this.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// A recorder on a shared clock, so per-thread recorders merge onto
    /// one time line.
    pub fn with_origin(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Start a span that encloses later ones; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request_id: u64) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a new span and return the span's index with `f`'s
    /// result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request_id: u64,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let span = self.open(name, parent, request_id);
        let out = f();
        self.close(span);
        (span, out)
    }

    /// Append another recorder's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Per span: duration minus the summed durations of its children, in
    /// nanoseconds. Negative when the replayed children took longer than
    /// the real call that contains their work.
    pub fn self_times_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.duration_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_ns() as i64;
            }
        }
        own
    }

    /// Median duration per span name, in nanoseconds.
    pub fn median_duration_ns(&self) -> BTreeMap<&'static str, f64> {
        self.median_by_name(self.spans.iter().map(|s| s.duration_ns() as f64))
    }

    /// Median self time per span name, in nanoseconds.
    pub fn median_self_ns(&self) -> BTreeMap<&'static str, f64> {
        self.median_by_name(self.self_times_ns().into_iter().map(|x| x as f64))
    }

    fn median_by_name(&self, values: impl Iterator<Item = f64>) -> BTreeMap<&'static str, f64> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, v) in self.spans.iter().zip(values) {
            by_name.entry(s.name).or_default().push(v);
        }
        by_name
            .into_iter()
            .map(|(name, v)| (name, stats::median(&v)))
            .collect()
    }

    /// One JSON object per span: `{name, start_ns, end_ns, parent, request_id}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new();
        // root 100 → protocol 10, batcher 60 → serving 45 → snapshot 30
        r.spans = vec![
            span("client.lookup", 0, 100, None),
            span("protocol", 100, 110, Some(0)),
            span("batcher.submit_wait", 110, 170, Some(0)),
            span("serving.batch", 170, 215, Some(2)),
            span("snapshot.rows", 215, 245, Some(3)),
        ];
        assert_eq!(r.self_times_ns(), vec![30, 10, 15, 15, 30]);
        // The rungs sum to the root by construction.
        assert_eq!(r.self_times_ns().iter().sum::<i64>(), 100);
    }

    #[test]
    fn a_replayed_child_slower_than_its_parent_reads_negative() {
        let mut r = Recorder::new();
        r.spans = vec![span("root", 0, 50, None), span("child", 50, 120, Some(0))];
        assert_eq!(r.self_times_ns(), vec![-20, 70]);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let mut a = Recorder::new();
        a.spans = vec![span("a", 0, 10, None)];
        let mut b = Recorder::with_origin(a.origin);
        b.spans = vec![span("b", 0, 10, None), span("c", 10, 14, Some(0))];
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.self_times_ns(), vec![10, 6, 4]);
    }

    #[test]
    fn medians_group_by_name() {
        let mut r = Recorder::new();
        r.spans = vec![
            span("x", 0, 10, None),
            span("x", 0, 30, None),
            span("x", 0, 20, None),
            span("y", 0, 7, None),
        ];
        let m = r.median_duration_ns();
        assert_eq!(m["x"], 20.0);
        assert_eq!(m["y"], 7.0);
    }

    #[test]
    fn span_records_the_closure() {
        let mut r = Recorder::new();
        let (root, v) = r.span("root", None, 7, || 41 + 1);
        assert_eq!(v, 42);
        let (child, ()) = r.span("child", Some(root), 7, || ());
        assert_eq!(r.spans()[child].parent, Some(root));
        assert_eq!(r.spans()[child].request_id, 7);
        assert!(r.spans()[root].end_ns >= r.spans()[root].start_ns);
    }
}
