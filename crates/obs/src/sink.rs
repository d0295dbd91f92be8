//! Pluggable metric-event sinks.
//!
//! Hot paths report *counters* (see the crate root); discrete events that
//! deserve a line of their own — a statement's enforcement report, a
//! validator worker panic, a bulk-load summary — go through [`emit`] to
//! whichever [`MetricsSink`] is attached. When none is, [`emit`] is a
//! single relaxed atomic load and a branch, so instrumented code can call
//! it unconditionally.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::json::quote;

/// A consumer of discrete metric events. `name` is a dotted metric path
/// (e.g. `engine.statement`, `validate.worker_panic`), `value` the scalar
/// payload, `detail` a short human/JSON-safe annotation.
pub trait MetricsSink: Send + Sync {
    /// Consumes one event.
    fn event(&self, name: &str, value: u64, detail: &str);
}

static SINK_ATTACHED: AtomicBool = AtomicBool::new(false);

fn sink_slot() -> &'static RwLock<Option<Arc<dyn MetricsSink>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn MetricsSink>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Attaches `sink` as the process-wide event consumer (replacing any
/// previous one) and turns the detail gate on so timings flow.
pub fn attach_sink(sink: Arc<dyn MetricsSink>) {
    *sink_slot().write().expect("sink slot poisoned") = Some(sink);
    SINK_ATTACHED.store(true, Ordering::Release);
    crate::set_detail(true);
}

/// Detaches the current sink (if any) and turns the detail gate off.
pub fn detach_sink() {
    SINK_ATTACHED.store(false, Ordering::Release);
    *sink_slot().write().expect("sink slot poisoned") = None;
    crate::set_detail(false);
}

/// Whether a sink is attached — one relaxed load.
#[inline]
pub fn sink_attached() -> bool {
    SINK_ATTACHED.load(Ordering::Relaxed)
}

/// Forwards an event to the attached sink; a load-and-branch no-op when
/// none is attached.
#[inline]
pub fn emit(name: &str, value: u64, detail: &str) {
    if !sink_attached() {
        return;
    }
    emit_slow(name, value, detail);
}

#[cold]
fn emit_slow(name: &str, value: u64, detail: &str) {
    if let Some(sink) = sink_slot().read().expect("sink slot poisoned").as_ref() {
        sink.event(name, value, detail);
    }
}

/// A sink that appends each event as one JSON line
/// (`{"metric":NAME,"value":N,"detail":TEXT}`) to a file — the same
/// shape [`crate::export`] writes, so one artifact can carry both event
/// streams and snapshot dumps. I/O failures are reported on stderr
/// **once** per sink — not per event (an unwritable path under a
/// thousand-statement run must not spam a thousand lines) and not
/// silently (metrics dropped with no diagnostic at all) — and never
/// panicked on: observability must not take the engine down.
pub struct JsonlSink {
    path: PathBuf,
    file: Mutex<Option<std::fs::File>>,
    warned: AtomicBool,
}

impl JsonlSink {
    /// A sink appending to `path` (created on first event).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            file: Mutex::new(None),
            warned: AtomicBool::new(false),
        }
    }

    /// Reports `what` on stderr unless this sink has already warned.
    fn warn_once(&self, what: &str, e: &std::io::Error) {
        if !self.warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "ridl-obs: cannot {what} {} ({e}); further metric events will be dropped",
                self.path.display()
            );
        }
    }

    /// Whether this sink has reported an I/O error (test hook).
    pub fn has_warned(&self) -> bool {
        self.warned.load(Ordering::Relaxed)
    }
}

impl MetricsSink for JsonlSink {
    fn event(&self, name: &str, value: u64, detail: &str) {
        let line = format!(
            "{{\"metric\":{},\"value\":{value},\"detail\":{}}}\n",
            quote(name),
            quote(detail)
        );
        let mut guard = self.file.lock().expect("jsonl sink poisoned");
        if guard.is_none() {
            match OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
            {
                Ok(f) => *guard = Some(f),
                Err(e) => {
                    self.warn_once("open", &e);
                    return;
                }
            }
        }
        if let Some(f) = guard.as_mut() {
            if let Err(e) = f.write_all(line.as_bytes()) {
                self.warn_once("write", &e);
            }
        }
    }
}

/// An in-memory sink that records events for assertions (tests and the
/// CLI profile report).
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<(String, u64, String)>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// All events recorded so far, in arrival order.
    pub fn events(&self) -> Vec<(String, u64, String)> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Events whose metric name equals `name`.
    pub fn named(&self, name: &str) -> Vec<(u64, String)> {
        self.events()
            .into_iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, v, d)| (v, d))
            .collect()
    }
}

impl MetricsSink for MemorySink {
    fn event(&self, name: &str, value: u64, detail: &str) {
        self.events.lock().expect("memory sink poisoned").push((
            name.to_owned(),
            value,
            detail.to_owned(),
        ));
    }
}

/// Installs a [`JsonlSink`] when the `RIDL_METRICS_JSONL` environment
/// variable names a file. Runs its check once per process; later calls are
/// free. Returns whether a sink is attached afterwards.
pub fn init_from_env() -> bool {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Ok(path) = std::env::var("RIDL_METRICS_JSONL") {
            if !path.is_empty() {
                attach_sink(Arc::new(JsonlSink::new(path)));
            }
        }
    });
    sink_attached()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_round_trips_events() {
        let sink = Arc::new(MemorySink::new());
        attach_sink(sink.clone());
        assert!(sink_attached());
        emit("test.event", 7, "hello");
        detach_sink();
        assert!(!sink_attached());
        emit("test.event", 8, "dropped");
        let got = sink.named("test.event");
        assert_eq!(got, vec![(7, "hello".to_owned())]);
    }

    #[test]
    fn jsonl_sink_appends_lines() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ridl-obs-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let sink = JsonlSink::new(&path);
        sink.event("a.b", 1, "x \"quoted\"");
        sink.event("a.c", 2, "");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"metric\":\"a.b\",\"value\":1,\"detail\":\"x \\\"quoted\\\"\"}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_sink_warns_once_and_keeps_running() {
        // A directory is not openable as an append file: every event
        // fails, but only the first reports (warn-once), and none panic.
        let sink = JsonlSink::new(std::env::temp_dir());
        assert!(!sink.has_warned());
        sink.event("a.b", 1, "");
        assert!(sink.has_warned());
        sink.event("a.b", 2, "");
        sink.event("a.b", 3, "");
        assert!(sink.has_warned());
    }
}
