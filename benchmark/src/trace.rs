//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory, written out when the run ends, and folded into per-layer
//! self time.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `sema.compile`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by every span of one request.
    pub req: u64,
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let (start, end) = (ns(start), ns(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span; returns its result and the span's id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, req, start, Instant::now());
        (out, id)
    }

    /// Append another thread's spans (re-parented to this tracer's ids).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.t0.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start += shift;
            s.end += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time per span name, in ns, summed over every span of that name:
/// each span's duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let dur = s.end.saturating_sub(s.start);
        let own = dur - covered(s.start, s.end, kids).min(dur);
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Total duration per span name, in ns, and the number of such spans.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += s.end.saturating_sub(s.start);
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("sema.compile", 10, 30, Some(0)),
            span("fixpoint.materialize", 30, 90, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"], 20);
        assert_eq!(st["sema.compile"], 20);
        assert_eq!(st["fixpoint.materialize"], 60);
        assert_eq!(
            st.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 60, Some(0)),
            span("c", 80, 120, Some(0)),
        ];
        // Covered: [10, 60) and [80, 100) clipped to the parent = 70.
        assert_eq!(self_times(&spans)["op"], 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_parent() {
        let spans = vec![
            span("op", 0, 100, None),
            span("mid", 0, 80, Some(0)),
            span("leaf", 10, 20, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"], 20);
        assert_eq!(st["mid"], 70);
        assert_eq!(st["leaf"], 10);
    }

    #[test]
    fn same_name_spans_sum() {
        let spans = vec![span("x", 0, 5, None), span("x", 10, 13, None)];
        assert_eq!(self_times(&spans)["x"], 8);
        assert_eq!(totals(&spans)["x"], (8, 2));
    }

    #[test]
    fn tracer_records_nesting_and_absorbs() {
        let mut t = Tracer::new();
        let start = Instant::now();
        let (v, leaf) = t.time("leaf", None, 7, || 42);
        let root = t.record("op", None, 7, start, Instant::now());
        t.spans[leaf].parent = Some(root);
        assert_eq!(v, 42);
        let s = t.spans();
        assert!(s[1].start <= s[0].start && s[0].end <= s[1].end);
        let mut other = Tracer::new();
        let (_, a) = other.time("a", None, 9, || ());
        other.time("b", Some(a), 9, || ());
        t.absorb(other);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(
            t.spans()[3].parent,
            Some(2),
            "parents shift with the absorbed spans"
        );
        assert!(t.spans()[2].start >= t.spans()[1].start);
    }
}
