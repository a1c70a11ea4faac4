//! In-memory spans for the traced run.
//!
//! Each span records its name, start, end, parent span and the id it
//! shares with every other span of the same grid point, campaign or
//! job. Spans are kept in memory and written out once the run ends, as
//! a Chrome trace that Perfetto opens.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one grid point, campaign or job.
    pub trace: u64,
    /// Layer name, e.g. `apps.build_soc`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Recording thread (one tracer per thread).
    pub thread: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. Spans nest: a span begun while
/// another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: u64,
    next_id: u64,
    open: Vec<Span>,
    closed: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin`. Tracers of different
    /// threads share one origin and use distinct `thread` numbers,
    /// which also keeps their span ids apart.
    pub fn new(origin: Instant, thread: u64) -> Tracer {
        Tracer {
            origin,
            thread,
            next_id: (thread << 40) + 1,
            open: Vec::new(),
            closed: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it ends at the matching [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, trace: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let span = Span {
            id,
            parent: self.open.last().map(|s| s.id),
            trace,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            thread: self.thread,
        };
        self.open.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let mut span = self.open.pop().expect("end without begin");
        span.end_ns = self.now_ns();
        self.closed.push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, trace);
        let out = f();
        self.end();
        out
    }

    /// The closed spans, in closing order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.closed
    }
}

/// Summed self time per span name, in nanoseconds. A span's self time
/// is its duration minus the union of the intervals its children cover,
/// clipped to the span.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        *out.entry(s.name).or_default() += s.dur_ns() - covered;
    }
    out
}

/// Renders spans as a Chrome trace (`ph: "X"` complete events, one
/// track per recording thread) with the ids in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"trace\":{}}}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            s.trace
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_ns: start,
            end_ns: end,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span(1, None, "point", 0, 100),
            span(2, Some(1), "build", 10, 30),
            span(3, Some(1), "run", 40, 90),
            span(4, Some(3), "inner", 50, 60),
        ];
        let t = self_times(&spans);
        assert_eq!(t["point"], 30);
        assert_eq!(t["build"], 20);
        assert_eq!(t["run"], 40);
        assert_eq!(t["inner"], 10);
    }

    #[test]
    fn tracer_nests_and_shares_trace_ids() {
        let mut tr = Tracer::new(Instant::now(), 3);
        tr.begin("point", 7);
        tr.span("build", 7, || ());
        tr.end();
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        let (child, parent) = (&spans[0], &spans[1]);
        assert_eq!(child.parent, Some(parent.id));
        assert_eq!(parent.parent, None);
        assert!(spans.iter().all(|s| s.trace == 7 && s.thread == 3));
        assert!(chrome_trace(&spans).contains("\"name\":\"build\""));
    }
}
