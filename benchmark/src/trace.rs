//! The traced run's span store: spans are appended to a pre-sized vector
//! while the benchmark runs and written out as JSON when it ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.allocator.allocate`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// The span that caused this one (index into the trace).
    pub parent: Option<u32>,
    /// The request the span belongs to: the slot or round number.
    pub op: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name sums over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// An in-memory trace of one repetition.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace with room for `spans` spans, so recording never
    /// reallocates inside a measured phase.
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    /// Appends a span over two clock readings the caller already took and
    /// returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        op: u32,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
            parent,
            op,
        });
        id
    }

    /// Appends a span whose end is not known yet, so that its children can
    /// name it; [`Trace::close`] sets the end.
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<u32>,
        op: u32,
    ) -> u32 {
        self.record(name, start, start, parent, op)
    }

    /// Ends a span started with [`Trace::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        self.spans[id as usize].end_ns = self.since_epoch(end);
    }

    fn since_epoch(&self, instant: Instant) -> u64 {
        instant.duration_since(self.epoch).as_nanos() as u64
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sums per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let self_times = self_times(&self.spans);
        let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times) {
            let total = totals.entry(span.name).or_default();
            total.count += 1;
            total.total_ns += span.duration_ns();
            total.self_ns += self_ns;
        }
        totals
    }

    /// Writes the trace as one JSON object: `{"spans": [{...}, ...]}`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"unit\": \"ns\", \"spans\": [")?;
        let self_times = self_times(&self.spans);
        for (id, (span, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start\": {}, \"end\": {}, \"self\": {self_ns}}}",
                if id > 0 { "," } else { "" },
                span.name,
                span.op,
                span.start_ns,
                span.end_ns,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children of one parent never overlap
/// each other here: the harness is single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let parent_span = &spans[parent as usize];
            let start = span.start_ns.max(parent_span.start_ns);
            let end = span.end_ns.min(parent_span.end_ns);
            covered[parent as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("slot", 0, 100, None),
            span("push", 0, 10, Some(0)),
            span("step", 10, 70, Some(0)),
            span("replay", 70, 95, Some(0)),
            span("build", 70, 80, Some(3)),
            span("predict", 82, 90, Some(3)),
        ];
        // slot: 100 - (10 + 60 + 25); replay: 25 - (10 + 8); leaves keep all
        assert_eq!(self_times(&spans), vec![5, 10, 60, 7, 10, 8]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parents_interval() {
        let spans = vec![span("parent", 10, 20, None), span("child", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn totals_add_up_per_name() {
        let epoch = Instant::now();
        let mut trace = Trace::with_capacity(4);
        let later = |ns: u64| epoch + std::time::Duration::from_nanos(ns);
        trace.epoch = epoch;
        let root = trace.record("slot", later(0), later(50), None, 0);
        trace.record("step", later(5), later(25), Some(root), 0);
        let root = trace.record("slot", later(50), later(90), None, 1);
        trace.record("step", later(60), later(90), Some(root), 1);
        let totals = trace.totals();
        assert_eq!(
            totals["slot"],
            SpanTotal {
                count: 2,
                total_ns: 90,
                self_ns: 40
            }
        );
        assert_eq!(totals["step"].total_ns, 50);
        assert_eq!(totals["step"].self_ns, 50);
    }
}
