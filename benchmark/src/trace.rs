//! Spans recorded from outside the program, around calls into its public
//! functions, kept in memory and written out when the run ends.
//!
//! A [`Tracer`] belongs to one thread. Spans nest by call structure: a span
//! opened inside another span's closure is its child. Spans of one op share
//! the op's id. A tracer that is off records nothing and costs one branch
//! per call, so the same workload code runs traced and untraced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run: the recording thread in the high half.
    pub id: u64,
    /// The op (request, or layer walk) this span belongs to.
    pub op: u64,
    /// The public function called, or the harness step.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// A per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u64,
    ops: u64,
    op: u64,
    open: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A recording tracer for thread number `thread`; every tracer of a run
    /// shares `epoch`.
    pub fn on(epoch: Instant, thread: u64) -> Tracer {
        Tracer::new(true, epoch, thread)
    }

    fn new(enabled: bool, epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            ops: 0,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts the next op of this thread: the following spans carry its id,
    /// unique within a run (the recording thread in the high half).
    pub fn begin_op(&mut self) {
        self.ops += 1;
        self.op = (self.thread << 32) | self.ops;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens are children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let id = (self.thread << 32) | index as u64;
        self.spans.push(Span {
            id,
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: its duration minus the part of its interval that its
/// child spans cover (overlapping children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0;
            let mut frontier = span.start_ns;
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            for (start, end) in intervals {
                let start = start.max(frontier);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (span.id, (span.end_ns - span.start_ns) - covered)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let per_span = self_times(spans);
    let mut by_name = BTreeMap::new();
    for span in spans {
        *by_name.entry(span.name).or_insert(0) += per_span[&span.id];
    }
    by_name
}

/// Renders the trace file: run identification, host, total self time per
/// span name, and every span.
pub fn render(workload: &str, seed: u64, host: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"host\":\"{host}\",\"self_time_ns\":{{"
    );
    for (i, (name, total)) in self_time_by_name(spans).iter().enumerate() {
        let _ = write!(out, "{}\"{name}\":{total}", if i > 0 { "," } else { "" });
    }
    out.push_str("},\"spans\":[\n");
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{}",
            span.id,
            span.op,
            span.name,
            span.start_ns,
            span.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            op: 1,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // op [0,100] ── a [10,40] ── a1 [15,25]
        //            ├─ b [30,60]   (overlaps a on [30,40])
        //            └─ c [80,120]  (runs past its parent: clipped at 100)
        let spans = [
            span(1, None, "op", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(2), "a1", 15, 25),
            span(4, Some(1), "b", 30, 60),
            span(5, Some(1), "c", 80, 120),
        ];
        let own = self_times(&spans);
        // Children cover [10,60] and [80,100] of op: 70 of 100.
        assert_eq!(own[&1], 30);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 10);
        assert_eq!(own[&4], 30);
        assert_eq!(own[&5], 40);
    }

    #[test]
    fn self_times_add_up_by_name() {
        let spans = [
            span(1, None, "op", 0, 10),
            span(2, Some(1), "call", 2, 6),
            span(3, None, "op", 20, 50),
            span(4, Some(3), "call", 20, 30),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["op"], 6 + 20);
        assert_eq!(by_name["call"], 4 + 10);
    }

    #[test]
    fn nested_spans_record_their_parent_and_an_off_tracer_records_nothing() {
        let mut tracer = Tracer::on(Instant::now(), 3);
        tracer.begin_op();
        let value = tracer.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(value, 7);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[0].id >> 32, 3);
        assert!(spans
            .iter()
            .all(|s| s.op == (3 << 32) | 1 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn rendered_trace_lists_every_span() {
        let spans = [span(1, None, "op", 0, 10), span(2, Some(1), "call", 2, 6)];
        let text = render("w", 5, "h", &spans);
        assert!(text.contains("\"workload\":\"w\""));
        assert!(text.contains("\"self_time_ns\":{\"call\":4,\"op\":6}"));
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"parent\":1"));
    }
}
