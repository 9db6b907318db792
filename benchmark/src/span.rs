//! In-memory spans around the calls into each layer, and the self-time
//! arithmetic that turns them into a ledger.
//!
//! The harness is single-threaded and every span closes before its parent
//! does, so sibling spans never overlap and a span's self time is its
//! duration minus the summed durations of its direct children.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer was built.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Span {
    /// `<crate>.<stage>`, the crate being the layer.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a repetition's root.
    pub parent: Option<usize>,
    /// The repetition this span belongs to.
    pub rep: u32,
    /// `1` for a span around one call. An *aggregate* span stands for
    /// `calls` callbacks too short to record one by one: its duration is
    /// their summed time and its position inside the parent is synthetic.
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory; nothing is written until the run is over.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), rep: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of the next repetition.
    pub fn begin_rep(&mut self) -> usize {
        assert!(self.open.is_empty(), "the previous repetition is still open");
        self.rep += 1;
        self.enter("rep")
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds an aggregate child of the closed span `parent`: `calls`
    /// callbacks that took `busy_ns` in total. Aggregates are laid end to
    /// end from the parent's start so that siblings never overlap.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, busy_ns: u64, calls: u64) {
        let taken: u64 =
            self.spans.iter().filter(|s| s.parent == Some(parent)).map(Span::duration_ns).sum();
        let start_ns = self.spans[parent].start_ns + taken;
        let rep = self.spans[parent].rep;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent: Some(parent),
            rep,
            calls,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Each child is subtracted exactly once — from its parent, not from its
/// grandparents, whose own children already cover it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Summed duration, in seconds, of the spans called `name` in repetition
/// `rep`; `None` when there is no such span.
pub fn stage_s(spans: &[Span], rep: u32, name: &str) -> Option<f64> {
    let mut hit = false;
    let mut total = 0;
    for s in spans.iter().filter(|s| s.rep == rep && s.name == name) {
        hit = true;
        total += s.duration_ns();
    }
    hit.then_some(total as f64 / 1e9)
}

/// The spans as a JSON array, one object a line.
pub fn render_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"rep\": {}, \"calls\": {}}}",
            s.name, s.start_ns, s.end_ns, s.rep, s.calls
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, rep: 1, calls: 1 }
    }

    #[test]
    fn child_spans_are_subtracted_once() {
        // rep [0,100) ⊃ run [10,90) ⊃ {record [10,40), other [40,50)}.
        let spans = vec![
            span("rep", 0, 100, None),
            span("netsim.run", 10, 90, Some(0)),
            span("core.checker.record", 10, 40, Some(1)),
            span("core.checker.other", 40, 50, Some(1)),
        ];
        let own = self_times_ns(&spans);
        // The grandchildren come off `run` only; `rep` loses `run` alone.
        assert_eq!(own, vec![20, 40, 30, 10]);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns(), "self times tile the root");
    }

    #[test]
    fn tracer_nests_and_aggregates_without_overlap() {
        let mut tr = Tracer::new();
        let root = tr.begin_rep();
        let run = tr.enter("netsim.run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit(run);
        tr.span("netsim.finish", || ());
        tr.exit(root);
        tr.aggregate("core.checker.record", run, 300, 7);
        tr.aggregate("core.checker.other", run, 200, 9);
        let spans = tr.spans();
        assert_eq!(spans[run].parent, Some(root));
        let (rec, other) = (&spans[3], &spans[4]);
        assert_eq!((rec.parent, rec.calls, rec.duration_ns()), (Some(run), 7, 300));
        assert_eq!(other.start_ns, rec.end_ns, "aggregates are laid end to end");
        assert_eq!(other.rep, 1);
        let own = self_times_ns(spans);
        assert_eq!(own[run], spans[run].duration_ns() - 500);
        assert_eq!(stage_s(spans, 1, "core.checker.other"), Some(200e-9));
        assert_eq!(stage_s(spans, 1, "missing"), None);
        assert_eq!(stage_s(spans, 2, "netsim.run"), None);
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let spans = vec![span("rep", 0, 9, None), span("netsim.run", 1, 8, Some(0))];
        let json = render_json(&spans);
        assert!(
            json.contains("\"name\": \"rep\", \"start_ns\": 0, \"end_ns\": 9, \"parent\": null")
        );
        assert!(json.contains("\"id\": 1, \"name\": \"netsim.run\""));
        assert!(json.contains("\"parent\": 0, \"rep\": 1, \"calls\": 1"));
    }
}
