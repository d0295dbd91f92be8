//! Hierarchical span tracing.
//!
//! A [`Span`] is an RAII guard around a region of work: entering pushes
//! onto a thread-local stack (so nesting is recovered without any caller
//! plumbing), dropping records a finished [`SpanEvent`] with the parent
//! span id, wall-clock offsets from a process-wide epoch, and any typed
//! attributes attached along the way. Finished events land in a global
//! collector (drained by [`take_events`]) and each span's duration also
//! feeds the per-name latency histogram registry in [`crate::hist`], so
//! spans recorded on `relational::parallel` worker threads aggregate into
//! the same p50/p99 account as the coordinating thread.
//!
//! Tracing is off by default. When off, [`enter`] is one relaxed atomic
//! load and [`Span::drop`] one branch on a `None` — cheap enough to leave
//! in the engine's per-statement path (the `engine_mutation` bench budget
//! is ≤ 5 % overhead with tracing disabled). Turn it on with
//! [`set_tracing`] or by setting `RIDL_TRACE_JSON` (see
//! [`crate::export::init_tracing_from_env`]).
//!
//! The collector is bounded: past [`MAX_EVENTS`] finished spans, further
//! events are counted but not stored (whole spans are dropped, never a
//! start without its end, so Chrome-trace export stays balanced).

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::quote;

/// A typed span-attribute value.
#[derive(Clone, PartialEq, Debug)]
pub enum AttrValue {
    /// A string attribute (transform site, statement kind, …).
    Str(String),
    /// An unsigned count.
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// A flag.
    Bool(bool),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Appends `attrs` as one JSON object, keys in attribute order — the
/// attribute writer shared by the journal dump and the Chrome trace.
pub(crate) fn push_attrs_json(out: &mut String, attrs: &[(&'static str, AttrValue)]) {
    use std::fmt::Write;
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = match v {
            AttrValue::Str(s) => write!(out, "{}:{}", quote(k), quote(s)),
            number_or_bool => write!(out, "{}:{number_or_bool}", quote(k)),
        };
    }
    out.push('}');
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// One finished span: offsets are nanoseconds since the process trace
/// epoch, `thread` a small per-process thread index (not the OS tid).
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Unique span id (process-wide, never reused).
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name — also the latency-histogram key.
    pub name: &'static str,
    /// Start offset from the trace epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (saturating).
    pub dur_ns: u64,
    /// Small per-process index of the recording thread.
    pub thread: u64,
    /// Nesting depth on the recording thread (0 = root).
    pub depth: u32,
    /// Typed attributes attached while the span was open.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Collector capacity: whole spans past this are dropped (and counted),
/// keeping begin/end pairs balanced for the Chrome-trace exporter.
pub const MAX_EVENTS: usize = 65_536;

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

struct Collector {
    events: Vec<SpanEvent>,
    dropped: u64,
}

static COLLECTOR: Mutex<Collector> = Mutex::new(Collector {
    events: Vec::new(),
    dropped: 0,
});

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_INDEX: Cell<u64> = const { Cell::new(0) };
}

/// Turns span tracing on or off process-wide.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether tracing is on: one relaxed load, the only cost [`enter`] pays
/// when tracing is disabled.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_index() -> u64 {
    THREAD_INDEX.with(|c| {
        let mut idx = c.get();
        if idx == 0 {
            idx = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(idx);
        }
        idx
    })
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

struct SpanRec {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    start_ns: u64,
    thread: u64,
    depth: u32,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// An RAII span guard: created by [`enter`], records a [`SpanEvent`] (and
/// a histogram sample) on drop. When tracing is off the guard is inert.
/// Not `Send`: a span must be dropped on the thread that entered it, so
/// the thread-local nesting stack stays consistent.
pub struct Span {
    rec: Option<SpanRec>,
    _not_send: PhantomData<*const ()>,
}

/// Opens a span named `name` nested under the current thread's innermost
/// open span. Returns an inert guard when tracing is off.
#[inline]
pub fn enter(name: &'static str) -> Span {
    if !tracing_enabled() {
        return Span {
            rec: None,
            _not_send: PhantomData,
        };
    }
    enter_slow(name)
}

#[cold]
fn enter_slow(name: &'static str) -> Span {
    let epoch = epoch();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, depth) = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        let depth = stack.len() as u32;
        stack.push(id);
        (parent, depth)
    });
    let start = Instant::now();
    Span {
        rec: Some(SpanRec {
            id,
            parent,
            name,
            start,
            start_ns: saturating_ns(start.duration_since(epoch)),
            thread: thread_index(),
            depth,
            attrs: Vec::new(),
        }),
        _not_send: PhantomData,
    }
}

impl Span {
    /// Whether this guard is actually recording (tracing was on at
    /// [`enter`]). Use to skip attribute formatting on the off path.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }

    /// Attaches a typed attribute. A no-op on an inert guard — but guard
    /// with [`Span::is_recording`] when *building* the value allocates.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(rec) = &mut self.rec {
            rec.attrs.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(rec) = self.rec.take() else {
            return;
        };
        let dur_ns = saturating_ns(rec.start.elapsed());
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop in reverse entry order, so this is our id; be
            // defensive anyway (a mem::forget upstream must not corrupt
            // every later span on the thread).
            if stack.last() == Some(&rec.id) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|i| *i == rec.id) {
                stack.truncate(pos);
            }
        });
        crate::hist::record_named(rec.name, dur_ns);
        let mut c = COLLECTOR.lock().expect("span collector poisoned");
        if c.events.len() < MAX_EVENTS {
            c.events.push(SpanEvent {
                id: rec.id,
                parent: rec.parent,
                name: rec.name,
                start_ns: rec.start_ns,
                dur_ns,
                thread: rec.thread,
                depth: rec.depth,
                attrs: rec.attrs,
            });
        } else {
            c.dropped += 1;
            crate::metrics().span_dropped.inc();
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn in_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = enter(name);
    f()
}

/// Drains the collector: every finished span so far (in completion
/// order) plus the count of spans dropped at the capacity cap.
pub fn take_events() -> (Vec<SpanEvent>, u64) {
    let mut c = COLLECTOR.lock().expect("span collector poisoned");
    let dropped = c.dropped;
    c.dropped = 0;
    (std::mem::take(&mut c.events), dropped)
}

/// Copies the collector without draining it.
pub fn events_snapshot() -> (Vec<SpanEvent>, u64) {
    let c = COLLECTOR.lock().expect("span collector poisoned");
    (c.events.clone(), c.dropped)
}

/// Clears the collector and the drop count.
pub fn clear() {
    let mut c = COLLECTOR.lock().expect("span collector poisoned");
    c.events.clear();
    c.dropped = 0;
}

fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders finished spans as an indented tree, one root per top-level
/// span, children ordered by start time. Spans whose parent is missing
/// (dropped at the cap, or recorded on a worker thread whose parent span
/// lives elsewhere) render as roots.
pub fn render_tree(events: &[SpanEvent]) -> String {
    use std::collections::{BTreeMap, HashSet};
    let ids: HashSet<u64> = events.iter().map(|e| e.id).collect();
    // parent id (0 = root) -> child indices, kept in start order.
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let key = match e.parent {
            Some(p) if ids.contains(&p) => p,
            _ => 0,
        };
        children.entry(key).or_default().push(i);
    }
    for list in children.values_mut() {
        list.sort_by_key(|&i| (events[i].start_ns, events[i].id));
    }
    let mut out = String::new();
    out.push_str("-- SPAN TREE\n");
    if events.is_empty() {
        out.push_str("   (no spans recorded)\n");
        return out;
    }
    fn emit(
        out: &mut String,
        events: &[SpanEvent],
        children: &BTreeMap<u64, Vec<usize>>,
        idx: usize,
        indent: usize,
    ) {
        let e = &events[idx];
        out.push_str("   ");
        out.push_str(&"  ".repeat(indent));
        out.push_str(&format!("{} [{}]", e.name, fmt_dur(e.dur_ns)));
        if e.thread != 1 {
            out.push_str(&format!(" t{}", e.thread));
        }
        for (k, v) in &e.attrs {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        if let Some(kids) = children.get(&e.id) {
            for &c in kids {
                emit(out, events, children, c, indent + 1);
            }
        }
    }
    if let Some(roots) = children.get(&0) {
        for &r in roots {
            emit(&mut out, events, &children, r, 0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector and tracing flag are process-global; every test in
    // this module serialises on one lock so unit tests stay independent.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn reset() {
        clear();
        crate::hist::clear_histograms();
        set_tracing(true);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_tracing(false);
        clear();
        {
            let mut s = enter("test.off");
            assert!(!s.is_recording());
            s.attr("k", 1u64);
        }
        let (events, dropped) = take_events();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn nesting_and_attributes_are_recorded() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        {
            let mut outer = enter("test.outer");
            outer.attr("n", 2u64);
            {
                let mut inner = enter("test.inner");
                inner.attr("what", "payload");
            }
            in_span("test.inner", || std::hint::black_box(7));
        }
        set_tracing(false);
        let (events, dropped) = take_events();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 3);
        let outer = events.iter().find(|e| e.name == "test.outer").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.attrs, vec![("n", AttrValue::U64(2))]);
        for inner in events.iter().filter(|e| e.name == "test.inner") {
            assert_eq!(inner.parent, Some(outer.id));
            assert_eq!(inner.depth, 1);
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        }
        let hists = crate::hist::histograms_snapshot();
        let inner_hist = hists.iter().find(|(n, _)| *n == "test.inner").unwrap();
        assert_eq!(inner_hist.1.count(), 2);
        let tree = render_tree(&events);
        assert!(tree.contains("test.outer"));
        assert!(tree.contains("  test.inner"));
        assert!(tree.contains("what=payload"));
    }

    #[test]
    fn worker_thread_spans_share_the_histogram_registry() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| in_span("test.worker", || std::hint::black_box(1)));
            }
        });
        in_span("test.worker", || std::hint::black_box(1));
        set_tracing(false);
        let (events, _) = take_events();
        let workers: Vec<_> = events.iter().filter(|e| e.name == "test.worker").collect();
        assert_eq!(workers.len(), 3);
        // Spawned threads got distinct indices and root spans.
        assert!(workers.iter().all(|e| e.parent.is_none()));
        let hists = crate::hist::histograms_snapshot();
        let h = hists.iter().find(|(n, _)| *n == "test.worker").unwrap();
        assert_eq!(h.1.count(), 3);
    }

    #[test]
    fn collector_cap_drops_whole_spans() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        // Fill the collector artificially rather than burning 65k spans.
        {
            let mut c = COLLECTOR.lock().unwrap();
            let filler = SpanEvent {
                id: u64::MAX,
                parent: None,
                name: "test.filler",
                start_ns: 0,
                dur_ns: 0,
                thread: 1,
                depth: 0,
                attrs: Vec::new(),
            };
            c.events.resize(MAX_EVENTS, filler);
        }
        in_span("test.capped", || ());
        set_tracing(false);
        let (events, dropped) = take_events();
        assert_eq!(events.len(), MAX_EVENTS);
        assert_eq!(dropped, 1);
        assert!(events.iter().all(|e| e.name != "test.capped"));
    }
}
