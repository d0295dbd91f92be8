//! Tracing for the separate traced run: spans recorded by the
//! benchmark's own code around each call into a crate's public API, the
//! interleaved traced/untraced measuring window, and window-scoped diffs
//! of the counters the program already exports through `ridl-obs`.
//!
//! Spans live in memory and are written once, at exit. With tracing off
//! a [`Tracer`] reads no clock and records nothing.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use ridl_obs::MetricsSnapshot;

/// One closed span.
pub struct SpanRec {
    /// `<layer>.<call>`, e.g. `engine.insert`.
    pub name: &'static str,
    /// Client thread that recorded it.
    pub thread: u32,
    /// Operation the span belongs to; spans of one operation share it.
    pub req: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// An open span handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

/// Per-thread span recorder.
pub struct Tracer {
    origin: Instant,
    thread: u32,
    /// Whether spans are recorded right now (the traced run toggles this
    /// per slice of the window).
    pub active: bool,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder for client thread `thread`, inactive.
    pub fn new(origin: Instant, thread: u32) -> Self {
        Self {
            origin,
            thread,
            active: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span named `name` for operation `req`, nested in the
    /// innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.active {
            return Open(None);
        }
        let start_ns = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(SpanRec {
            name,
            thread: self.thread,
            req,
            parent: self.stack.last().copied(),
            start_ns,
            dur_ns: 0,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else {
            return;
        };
        let now = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let s = &mut self.spans[idx];
        s.dur_ns = now.saturating_sub(s.start_ns);
        if self.stack.last() == Some(&idx) {
            self.stack.pop();
        }
    }

    /// Moves another tracer's spans into this one (parents re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per layer (the span-name prefix before the first `.`):
    /// each span's duration minus what its child spans cover. Sorted by
    /// layer name; values in nanoseconds, with span counts.
    pub fn layer_self_times(&self) -> Vec<(String, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut layers: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_owned();
            let e = layers.entry(layer).or_default();
            e.0 += 1;
            e.1 += s.dur_ns.saturating_sub(*child);
        }
        layers
            .into_iter()
            .map(|(layer, (count, ns))| (layer, count, ns))
            .collect()
    }

    /// Writes every span as one JSON line each.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"thread\":{},\"req\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.thread, s.req, parent, s.start_ns, s.dur_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The measuring window, cut into slices. Between slices the clients
/// park (each finishes its operation in flight first), so a slice's
/// active time excludes the pause. In the traced run the slices alternate
/// untraced and traced, so both see the same state and drift, obs detail
/// counters are on in traced slices only, and the program's counters are
/// diffed over exactly those slices.
pub struct Window {
    len: Duration,
    clients: usize,
    traced_run: bool,
    gate: Mutex<Gate>,
    cv: Condvar,
}

/// Slice length.
const SLICE: Duration = Duration::from_millis(500);
/// How long the coordinator waits for clients to park before it gives up.
const PARK_TIMEOUT: Duration = Duration::from_secs(60);

struct Gate {
    paused: bool,
    done: bool,
    parked: usize,
    slice: Slice,
}

/// What a client needs to know about the slice it runs in.
#[derive(Clone, Copy, Default)]
pub struct Slice {
    /// Slice number.
    pub index: usize,
    /// Whether the slice is traced.
    pub traced: bool,
}

/// One finished slice, as the coordinator saw it.
pub struct SliceRec {
    /// The slice.
    pub slice: Slice,
    /// Seconds the clients ran in it.
    pub active_s: f64,
}

impl Window {
    /// A window of `seconds` of client activity for `clients` clients.
    /// Clients park at their first [`Window::admit`] until
    /// [`Window::coordinate`] opens the first slice.
    pub fn new(seconds: f64, traced_run: bool, clients: usize) -> Self {
        Self {
            len: Duration::from_secs_f64(seconds),
            clients,
            traced_run,
            gate: Mutex::new(Gate {
                paused: true,
                done: false,
                parked: 0,
                slice: Slice::default(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Called by a client before each operation: waits while the window
    /// is paused and returns the current slice, or `None` once the window
    /// is over.
    pub fn admit(&self) -> Option<Slice> {
        let mut g = self.gate.lock().expect("window gate");
        if g.paused && !g.done {
            g.parked += 1;
            self.cv.notify_all();
            while g.paused && !g.done {
                g = self.cv.wait(g).expect("window gate");
            }
            g.parked -= 1;
        }
        (!g.done).then_some(g.slice)
    }

    /// Waits until every client has parked; false on timeout.
    fn wait_parked(&self) -> bool {
        let g = self.gate.lock().expect("window gate");
        let (g, timeout) = self
            .cv
            .wait_timeout_while(g, PARK_TIMEOUT, |g| g.parked < self.clients)
            .expect("window gate");
        drop(g);
        !timeout.timed_out()
    }

    fn set(&self, f: impl FnOnce(&mut Gate)) {
        f(&mut self.gate.lock().expect("window gate"));
        self.cv.notify_all();
    }

    /// Runs the window on the coordinating thread while the clients drive
    /// it; returns the slices and the program's counters diffed over the
    /// traced ones. Histograms are cleared at the window's start.
    pub fn coordinate(&self) -> (Vec<SliceRec>, MetricsSnapshot) {
        ridl_obs::hist::clear_histograms();
        let mut acc = Counters::new();
        let mut slices = Vec::new();
        let mut active = Duration::ZERO;
        while active < self.len && self.wait_parked() {
            let slice = Slice {
                index: slices.len(),
                traced: self.traced_run && slices.len() % 2 == 1,
            };
            if slice.traced {
                acc.open();
            }
            let start = Instant::now();
            self.set(|g| {
                g.slice = slice;
                g.paused = false;
            });
            std::thread::sleep(SLICE.min(self.len - active));
            self.set(|g| g.paused = true);
            let parked = self.wait_parked();
            let ran = start.elapsed();
            if slice.traced {
                acc.close();
            }
            active += ran;
            slices.push(SliceRec {
                slice,
                active_s: ran.as_secs_f64(),
            });
            if !parked {
                break;
            }
        }
        self.set(|g| g.done = true);
        (slices, acc.total)
    }
}

/// Sum of counter diffs over a set of bracketed intervals, with obs
/// detail counters on inside each interval.
pub struct Counters {
    /// Accumulated activity.
    pub total: MetricsSnapshot,
    before: Option<MetricsSnapshot>,
}

impl Counters {
    /// An empty accumulator.
    pub fn new() -> Self {
        let now = ridl_obs::snapshot();
        Self {
            total: now.since(&now),
            before: None,
        }
    }

    /// Starts an interval: detail on, counters read.
    pub fn open(&mut self) {
        ridl_obs::set_detail(true);
        self.before = Some(ridl_obs::snapshot());
    }

    /// Ends the interval opened last and adds its diff.
    pub fn close(&mut self) {
        let Some(before) = self.before.take() else {
            return;
        };
        let d = ridl_obs::snapshot().since(&before);
        ridl_obs::set_detail(false);
        for (acc, k) in self.total.per_kind.iter_mut().zip(d.per_kind) {
            acc.checks += k.checks;
            acc.violations += k.violations;
            acc.nanos += k.nanos;
        }
        for (acc, c) in self.total.counters.iter_mut().zip(d.counters) {
            *acc += c;
        }
    }
}
