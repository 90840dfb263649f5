//! The benchmark's own tracer: spans recorded from outside the program,
//! around calls into each layer's public functions. Spans are kept in
//! memory and written out once, when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation this span belongs to (inherited from the parent).
    pub op: Option<u32>,
    /// Layer-qualified name, e.g. `synth.min_delay`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span sink shared by every worker thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread: `(id, op)`, innermost last.
    static OPEN: RefCell<Vec<(u32, Option<u32>)>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped, also while unwinding from a panic.
struct Open<'t> {
    tracer: &'t Tracer,
    id: u32,
    parent: Option<u32>,
    op: Option<u32>,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(at) = s.iter().rposition(|&(id, _)| id == self.id) {
                s.truncate(at);
            }
        });
        // no panic in drop: every push leaves the list whole, so a poisoned
        // lock still guards valid data
        self.tracer
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Span {
                id: self.id,
                parent: self.parent,
                op: self.op,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, op: Option<u32>) -> Open<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, op) = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let (parent, inherited) = s.last().map_or((None, None), |&(p, o)| (Some(p), o));
            let op = op.or(inherited);
            s.push((id, op));
            (parent, op)
        });
        Open {
            tracer: self,
            id,
            parent,
            op,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Runs `f` inside a span named `name`, child of this thread's
    /// innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _open = self.open(name, None);
        f()
    }

    /// Runs `f` inside a span that starts operation `op`; every span
    /// opened inside carries the same op id.
    pub fn op_span<T>(&self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        let _open = self.open(name, Some(op));
        f()
    }

    /// Takes every span recorded so far, in id order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("tracer poisoned"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Renders spans as one JSON document:
/// `{"spans": [{"id", "parent", "op", "name", "start_ns", "end_ns"}, …]}`.
pub fn render(spans: &[Span]) -> String {
    let opt = |v: Option<u32>| v.map_or("null".to_owned(), |v| v.to_string());
    let mut out = String::from("{\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.id,
            opt(s.parent),
            opt(s.op),
            s.name,
            s.start_ns,
            s.end_ns,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_inherit_the_op() {
        let t = Tracer::new();
        t.op_span("op", 7, || {
            t.span("a", || t.span("b", || ()));
        });
        t.span("loose", || ());
        let s = t.take();
        let by = |n: &str| s.iter().find(|x| x.name == n).unwrap().clone();
        let (op, a, b, loose) = (by("op"), by("a"), by("b"), by("loose"));
        assert_eq!(a.parent, Some(op.id));
        assert_eq!(b.parent, Some(a.id));
        assert_eq!((op.op, a.op, b.op), (Some(7), Some(7), Some(7)));
        assert_eq!((loose.parent, loose.op), (None, None));
        assert!(op.start_ns <= a.start_ns && b.end_ns <= op.end_ns);
    }

    #[test]
    fn a_panic_closes_its_spans() {
        let t = Tracer::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.op_span("op", 1, || t.span("inner", || panic!("boom")))
        }));
        assert!(r.is_err());
        t.span("after", || ());
        let s = t.take();
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().find(|x| x.name == "after").unwrap().parent, None);
    }
}
