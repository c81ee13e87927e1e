//! In-memory spans around the calls the harness makes into the library.
//!
//! A span is (name, start, end, parent, pass). Spans are appended to a
//! vector while the traced pass runs and written out as JSON when the run
//! ends; nothing is formatted or flushed on the measured path.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the tracer; `NO_PARENT` marks a top-level span.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Which pass or read phase the span belongs to.
    pub pass: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pass: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), pass: 0, spans: Vec::new() }
    }

    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, pass: self.pass });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record a child whose length is known but whose position inside the
    /// parent is not (maintenance time read from a library counter): it is
    /// placed at the parent's end, so self time = span − children holds.
    pub fn child_of_length(&mut self, name: &'static str, parent: SpanId, nanos: u64) {
        let end_ns = self.spans[parent as usize].end_ns;
        let start_ns = end_ns.saturating_sub(nanos).max(self.spans[parent as usize].start_ns);
        self.spans.push(Span { name, start_ns, end_ns, parent, pass: self.pass });
    }

    /// Time covered by the direct children of `parent`.
    pub fn children_nanos(&self, parent: SpanId) -> u64 {
        self.spans.iter().filter(|s| s.parent == parent).map(Span::nanos).sum()
    }

    /// The span file: one JSON object with a `spans` array. `parent` is the
    /// index of the parent span in that array, or -1.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 32);
        out.push_str("{\"unit\":\"ns\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"pass\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.pass
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Run `call` under a span of `parent` when tracing, bare otherwise; the
/// id of the span comes back with the result.
pub fn spanned<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    parent: SpanId,
    call: impl FnOnce() -> T,
) -> (T, Option<SpanId>) {
    match tracer {
        None => (call(), None),
        Some(t) => {
            let span = t.begin(name, parent);
            let out = call();
            t.end(span);
            (out, Some(span))
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}
