//! Snapshot export in the `CRITERION_SUMMARY_JSON` flow, and Chrome
//! trace-event export for span traces.
//!
//! The vendored criterion harness appends one JSON line per bench
//! (`{"name":..,"ns_per_iter":..,"iters":..}`) to the file named by the
//! `CRITERION_SUMMARY_JSON` environment variable. [`append_summary_snapshot`]
//! appends metric lines (`{"metric":"<label>/<name>","value":N}`) to the
//! same file, so one CI artifact carries timings and the enforcement
//! counters that explain them side by side.
//!
//! [`chrome_trace`] renders finished spans (see [`crate::span`]) as
//! Chrome trace-event JSON — duration (`ph:"B"`/`ph:"E"`) pairs that
//! `chrome://tracing` and Perfetto's legacy importer load directly.
//! `RIDL_TRACE_JSON=<path>` both enables tracing
//! ([`init_tracing_from_env`]) and names the file the trace is written to
//! at the end of a run ([`write_chrome_trace_env`]).

use std::fs::OpenOptions;
use std::io::Write;
use std::sync::OnceLock;

use crate::json::{parse, quote, Json};
use crate::span::{push_attrs_json, SpanEvent};
use crate::{ConstraintClass, MetricsSnapshot, COUNTER_NAMES};

/// Every non-zero counter and per-class account in `snap` as
/// `(<label>/<name>, value)`, in registry order. Zero counters are
/// skipped so bench outputs stay small and diffs meaningful.
fn nonzero_metrics(label: &str, snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    let counters = COUNTER_NAMES
        .iter()
        .zip(snap.counters)
        .map(|(name, value)| (format!("{label}/{name}"), value));
    let kinds = ConstraintClass::ALL.into_iter().flat_map(|class| {
        let k = snap.kind(class);
        [
            ("checks", k.checks),
            ("violations", k.violations),
            ("nanos", k.nanos),
        ]
        .map(|(suffix, value)| (format!("{label}/kind.{}.{suffix}", class.name()), value))
    });
    counters.chain(kinds).filter(|(_, v)| *v != 0).collect()
}

/// Renders `snap` as JSON lines, one per non-zero counter, each prefixed
/// with `label` (`{"metric":"<label>/<name>","value":N}`).
pub fn snapshot_jsonl(label: &str, snap: &MetricsSnapshot) -> String {
    nonzero_metrics(label, snap)
        .into_iter()
        .map(|(metric, value)| format!("{{\"metric\":{},\"value\":{value}}}\n", quote(&metric)))
        .collect()
}

/// Appends `snap` (rendered by [`snapshot_jsonl`]) to the file named by
/// `CRITERION_SUMMARY_JSON`, creating it if needed. Does nothing when the
/// variable is unset; reports write errors to stderr rather than
/// panicking, mirroring the vendored criterion harness.
pub fn append_summary_snapshot(label: &str, snap: &MetricsSnapshot) {
    let Ok(path) = std::env::var("CRITERION_SUMMARY_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let body = snapshot_jsonl(label, snap);
    if body.is_empty() {
        return;
    }
    match OpenOptions::new().create(true).append(true).open(&path) {
        Ok(mut f) => {
            if let Err(e) = f.write_all(body.as_bytes()) {
                eprintln!("ridl-obs: cannot write {path}: {e}");
            }
        }
        Err(e) => eprintln!("ridl-obs: cannot open {path}: {e}"),
    }
}

/// Emits every non-zero counter of the current process-wide totals as one
/// event each (metric `<label>/<name>`) through the attached sink — an
/// end-of-run summary for CLI invocations running under
/// `RIDL_METRICS_JSONL`. A no-op when no sink is attached.
pub fn emit_snapshot(label: &str) {
    if !crate::sink_attached() {
        return;
    }
    for (metric, value) in nonzero_metrics(label, &crate::snapshot()) {
        crate::emit(&metric, value, "");
    }
}

// ---- Chrome trace-event export ----

fn push_event(out: &mut String, e: &SpanEvent, phase: char, ts_ns: u64, first: &mut bool) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(&format!(
        "{{\"name\":{},\"cat\":\"ridl\",\"ph\":\"{phase}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":{}",
        quote(e.name),
        ts_ns / 1_000,
        ts_ns % 1_000,
        e.thread
    ));
    if phase == 'B' && !e.attrs.is_empty() {
        out.push_str(",\"args\":");
        push_attrs_json(out, &e.attrs);
    }
    out.push('}');
}

/// Renders finished spans as Chrome trace-event JSON: one `B`/`E` pair
/// per span, one event per line, timestamps in microseconds since the
/// trace epoch. Events are emitted thread by thread in nesting order, so
/// begin/end pairs are balanced and timestamps are monotone within each
/// `tid` — the two properties [`validate_chrome_trace`] (and CI) check.
///
/// Spans whose parent chain was truncated at the collector cap are
/// omitted (a child always finishes before its parent, so a missing
/// parent means the whole enclosing region is incomplete); `dropped` is
/// the cap count reported by [`crate::span::take_events`]. Both counts
/// land in the trace's `otherData` metadata.
pub fn chrome_trace(events: &[SpanEvent], dropped: u64) -> String {
    use std::collections::BTreeMap;
    use std::collections::HashSet;
    let ids: HashSet<u64> = events.iter().map(|e| e.id).collect();
    // thread -> roots; span id -> children. Kept in start order.
    let mut roots: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut orphans = 0u64;
    for (i, e) in events.iter().enumerate() {
        match e.parent {
            None => roots.entry(e.thread).or_default().push(i),
            Some(p) if ids.contains(&p) => children.entry(p).or_default().push(i),
            Some(_) => orphans += 1,
        }
    }
    for list in roots.values_mut().chain(children.values_mut()) {
        list.sort_by_key(|&i| (events[i].start_ns, events[i].id));
    }
    fn emit(
        out: &mut String,
        events: &[SpanEvent],
        children: &BTreeMap<u64, Vec<usize>>,
        idx: usize,
        first: &mut bool,
        emitted: &mut u64,
    ) {
        let e = &events[idx];
        *emitted += 1;
        push_event(out, e, 'B', e.start_ns, first);
        if let Some(kids) = children.get(&e.id) {
            for &c in kids {
                emit(out, events, children, c, first, emitted);
            }
        }
        push_event(out, e, 'E', e.start_ns.saturating_add(e.dur_ns), first);
    }
    let mut body = String::new();
    let mut first = true;
    let mut emitted = 0u64;
    for list in roots.values() {
        for &r in list {
            emit(&mut body, events, &children, r, &mut first, &mut emitted);
        }
    }
    // Descendants of an orphan are counted as unexported too.
    let unexported = events.len() as u64 - emitted;
    let _ = orphans;
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spans\":{emitted},\"unexported\":{unexported},\"dropped_at_cap\":{dropped}}},\"traceEvents\":[\n{body}\n]}}\n"
    )
}

/// Enables span tracing when `RIDL_TRACE_JSON` names a file. Checked
/// once per process; returns whether tracing is on afterwards.
pub fn init_tracing_from_env() -> bool {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Ok(path) = std::env::var("RIDL_TRACE_JSON") {
            if !path.is_empty() {
                crate::span::set_tracing(true);
            }
        }
    });
    crate::span::tracing_enabled()
}

/// Writes `events` as Chrome trace JSON to `path`.
pub fn write_chrome_trace(path: &str, events: &[SpanEvent], dropped: u64) -> std::io::Result<()> {
    let text = chrome_trace(events, dropped);
    std::fs::write(path, text)
}

/// Drains the span collector and writes it as Chrome trace JSON to the
/// file named by `RIDL_TRACE_JSON`. Does nothing when the variable is
/// unset; reports I/O errors on stderr once rather than panicking.
/// Returns the path written, if any.
pub fn write_chrome_trace_env() -> Option<String> {
    let path = std::env::var("RIDL_TRACE_JSON").ok()?;
    if path.is_empty() {
        return None;
    }
    let (events, dropped) = crate::span::take_events();
    if events.is_empty() && dropped == 0 {
        // Nothing recorded (or already exported and drained): leave any
        // previously written file alone.
        return None;
    }
    match write_chrome_trace(&path, &events, dropped) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("ridl-obs: cannot write {path}: {e}");
            None
        }
    }
}

/// Summary statistics from a validated Chrome trace file.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChromeTraceStats {
    /// Balanced begin/end pairs found.
    pub spans: u64,
    /// Distinct `tid` values seen.
    pub threads: u64,
    /// `dropped_at_cap` from the trace's `otherData`: spans lost when the
    /// collector hit its cap. Non-zero means the trace is incomplete —
    /// `ridl tracecheck` warns but does not fail.
    pub dropped_at_cap: u64,
}

/// Validates `text` as a Chrome trace in the shape [`chrome_trace`]
/// emits: a JSON object whose `traceEvents` pair every `B` with a
/// matching `E` of the same name on the same `tid` (properly nested),
/// with timestamps monotone non-decreasing within each `tid`, and at
/// least one span. CI runs it via `ridl tracecheck`.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    use std::collections::BTreeMap;
    let doc = parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("not a Chrome trace object (no traceEvents)")?;
    let mut stacks: BTreeMap<i64, Vec<&str>> = BTreeMap::new();
    let mut last_ts: BTreeMap<i64, f64> = BTreeMap::new();
    let mut stats = ChromeTraceStats {
        dropped_at_cap: doc
            .get("otherData")
            .and_then(|o| o.get("dropped_at_cap"))
            .and_then(Json::as_i64)
            .map_or(0, |n| n.max(0) as u64),
        ..ChromeTraceStats::default()
    };
    for (i, ev) in events.iter().enumerate() {
        let bad = |what: String| format!("event {}: {what}", i + 1);
        let (Some(ph), Some(name), Some(tid), Some(ts)) = (
            ev.get("ph").and_then(Json::as_str),
            ev.get("name").and_then(Json::as_str),
            ev.get("tid").and_then(Json::as_i64),
            ev.get("ts").and_then(Json::as_f64),
        ) else {
            return Err(bad(
                "needs string ph and name, integer tid, numeric ts".into()
            ));
        };
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(bad(format!(
                "timestamp {ts} goes backwards on tid {tid} (previous {prev})"
            )));
        }
        *prev = ts;
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push(name),
            "E" => {
                // Per-tid timestamps are monotone, so an E never ends
                // before its B began.
                let Some(open) = stack.pop() else {
                    return Err(bad(format!(
                        "E event for {name} on tid {tid} with no open span"
                    )));
                };
                if open != name {
                    return Err(bad(format!(
                        "E event for {name} closes open span {open} on tid {tid}"
                    )));
                }
                stats.spans += 1;
            }
            other => return Err(bad(format!("unexpected phase {other}"))),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(name) = stack.last() {
            return Err(format!(
                "unbalanced trace: span {name} on tid {tid} never ends"
            ));
        }
    }
    stats.threads = stacks.len() as u64;
    if stats.spans == 0 {
        return Err("trace contains no spans".into());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::AttrValue;
    use crate::{metrics, snapshot};

    #[test]
    fn snapshot_jsonl_skips_zeros_and_prefixes_label() {
        let before = snapshot();
        metrics().statements.add(2);
        metrics().per_kind[ConstraintClass::ForeignKey.index()]
            .violations
            .add(1);
        let delta = snapshot().since(&before);
        let text = snapshot_jsonl("unit-test", &delta);
        assert!(text.contains("{\"metric\":\"unit-test/engine.statements\",\"value\":2}"));
        assert!(text.contains("{\"metric\":\"unit-test/kind.foreign_key.violations\",\"value\":1}"));
        assert!(!text.contains("bulk_loads"));
        for line in text.lines() {
            assert!(line.starts_with("{\"metric\":\"unit-test/"));
            assert!(line.ends_with('}'));
        }
    }

    fn ev(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        thread: u64,
    ) -> SpanEvent {
        SpanEvent {
            id,
            parent,
            name,
            start_ns,
            dur_ns,
            thread,
            depth: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn chrome_trace_round_trips_through_validation() {
        let mut root = ev(1, None, "outer", 100, 10_000, 1);
        root.attrs.push(("kind", AttrValue::Str("x \"q\"".into())));
        root.attrs.push(("n", AttrValue::U64(3)));
        let events = vec![
            root,
            ev(2, Some(1), "inner", 500, 1_000, 1),
            ev(3, Some(1), "inner", 2_000, 0, 1),
            ev(4, None, "worker", 600, 300, 2),
        ];
        let text = chrome_trace(&events, 0);
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"args\":{\"kind\":\"x \\\"q\\\"\",\"n\":3}"));
        let stats = validate_chrome_trace(&text).expect("well-formed");
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.threads, 2);
        // The check reads the JSON tree, not the line layout.
        assert_eq!(validate_chrome_trace(&text.replace('\n', " ")), Ok(stats));
    }

    #[test]
    fn chrome_trace_omits_orphaned_subtrees() {
        // Parent id 9 was dropped at the cap: its child and grandchild
        // must not be exported (they would break per-tid monotonicity).
        let events = vec![
            ev(1, None, "root", 0, 10_000, 1),
            ev(2, Some(9), "orphan", 2_000, 100, 1),
            ev(3, Some(2), "orphan_child", 2_010, 10, 1),
        ];
        let text = chrome_trace(&events, 5);
        assert!(!text.contains("orphan"));
        assert!(text.contains("\"unexported\":2"));
        assert!(text.contains("\"dropped_at_cap\":5"));
        let stats = validate_chrome_trace(&text).expect("well-formed");
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.dropped_at_cap, 5);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        let unbalanced =
            "{\"traceEvents\":[\n{\"name\":\"a\",\"ph\":\"B\",\"ts\":1.0,\"pid\":1,\"tid\":1}\n]}";
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("never ends"));
        let backwards = "{\"traceEvents\":[\n\
            {\"name\":\"a\",\"ph\":\"B\",\"ts\":5.0,\"pid\":1,\"tid\":1},\n\
            {\"name\":\"a\",\"ph\":\"E\",\"ts\":4.0,\"pid\":1,\"tid\":1}\n]}";
        assert!(validate_chrome_trace(backwards)
            .unwrap_err()
            .contains("backwards"));
        let crossed = "{\"traceEvents\":[\n\
            {\"name\":\"a\",\"ph\":\"B\",\"ts\":1.0,\"pid\":1,\"tid\":1},\n\
            {\"name\":\"b\",\"ph\":\"B\",\"ts\":2.0,\"pid\":1,\"tid\":1},\n\
            {\"name\":\"a\",\"ph\":\"E\",\"ts\":3.0,\"pid\":1,\"tid\":1},\n\
            {\"name\":\"b\",\"ph\":\"E\",\"ts\":4.0,\"pid\":1,\"tid\":1}\n]}";
        assert!(validate_chrome_trace(crossed)
            .unwrap_err()
            .contains("closes open span"));
        assert!(validate_chrome_trace("{\"traceEvents\":[\n]}")
            .unwrap_err()
            .contains("no spans"));
        assert!(validate_chrome_trace("[]").is_err());
    }
}
