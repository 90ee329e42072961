//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer's public function, and kept in memory until the run ends. A
//! disabled tracer runs the same closures without reading the clock, so the
//! traced and untraced rebuilds execute identical pipeline code and their
//! difference is the cost of tracing itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pruning.prune`.
    pub name: &'static str,
    /// Identifier of the query the span belongs to.
    pub query: usize,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Runs `f` inside a span named `name` for query `query`. Spans opened
    /// inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        query: usize,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            query,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded from index `from` on.
    pub fn spans_since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"query\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.query, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span in `spans`: its duration minus the part of its
/// interval covered by its direct children. `parent` indices are absolute
/// (as recorded); `offset` is the absolute index of `spans[0]`, and
/// children whose parent lies before the slice are ignored.
pub fn self_times_ns(spans: &[Span], offset: usize) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(offset)) {
            if p < spans.len() {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            // Union of the children's intervals, clipped to the parent.
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span], offset: usize) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans, offset)) {
        *totals.entry(s.name).or_insert(0) += t;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            query: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100] > a [10,40] > a.x [15,25]; root > b [50,90]
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.x", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans, 0), vec![30, 20, 10, 40]);
        let by_name = self_time_by_name(&spans, 0);
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 120, Some(0)),
        ];
        // Children cover [10, 100] of the root.
        assert_eq!(self_times_ns(&spans, 0)[0], 10);
    }

    #[test]
    fn slices_resolve_parents_by_absolute_index() {
        let spans = [
            span("old", 0, 5, None),
            span("root", 10, 50, None),
            span("child", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans[1..], 1), vec![30, 10]);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut t = Tracer::enabled();
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 3) + 1);
        assert_eq!(v, 4);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.to_json_lines().lines().count(), 2);

        let mut off = Tracer::disabled();
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
