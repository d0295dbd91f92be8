//! Byte-for-byte golden tests for every machine-readable JSON output:
//! the journal dump, the Chrome trace, the counter-snapshot lines, a
//! metrics-sink line, `ridl status --json` and the wire-protocol
//! responses. The expected bytes live in `tests/golden/`; any change to
//! an emitter's layout, key order, escaping or number spelling shows up
//! here as a diff.

use ridl_brm::{Decimal, Value};
use ridl_durable::{CheckpointInfo, StoreStatus, WalStatus};
use ridl_obs::journal::{to_jsonl, JournalEvent, Severity};
use ridl_obs::span::{AttrValue, SpanEvent};
use ridl_obs::{chrome_trace, snapshot_jsonl, MetricsSink};
use ridl_server::json::Json;
use ridl_server::proto::{encode_rows, err_response, ok_response, ErrorCode};

/// A string exercising every escape class: quote, backslash, the named
/// control escapes, a `\u` control, DEL (not escaped) and non-ASCII.
const NASTY: &str = "q\"b\\n\nr\rt\tc\u{1}d\u{7f}é✓😀/";

fn check(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        actual == expected,
        "{name} differs from its golden file\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

fn attrs() -> Vec<(&'static str, AttrValue)> {
    vec![
        ("s", AttrValue::Str(NASTY.to_owned())),
        ("u", AttrValue::U64(u64::MAX)),
        ("i", AttrValue::I64(i64::MIN)),
        ("b", AttrValue::Bool(true)),
        ("k\"ey", AttrValue::Bool(false)),
    ]
}

#[test]
fn journal_dump_is_byte_identical() {
    let events = vec![
        JournalEvent {
            seq: 1,
            t_ns: 12,
            severity: Severity::Debug,
            kind: "wal.append",
            attrs: Vec::new(),
        },
        JournalEvent {
            seq: 2,
            t_ns: 3_456_789,
            severity: Severity::Warn,
            kind: "weird \"kind\"\n",
            attrs: attrs(),
        },
        JournalEvent {
            seq: 3,
            t_ns: u64::MAX,
            severity: Severity::Error,
            kind: "recover.done",
            attrs: vec![("units", AttrValue::U64(0))],
        },
    ];
    check("journal.jsonl", &to_jsonl(&events, 17));
    check("journal_empty.jsonl", &to_jsonl(&[], 0));
}

#[test]
fn chrome_trace_is_byte_identical() {
    let ev = |id, parent, name, start_ns, dur_ns, thread, attrs| SpanEvent {
        id,
        parent,
        name,
        start_ns,
        dur_ns,
        thread,
        depth: 0,
        attrs,
    };
    let events = vec![
        ev(1, None, "outer \"span\"", 100, 10_000, 1, attrs()),
        ev(2, Some(1), "inner", 1_500, 999, 1, Vec::new()),
        ev(
            3,
            Some(1),
            "inner",
            2_000,
            0,
            1,
            vec![("n", AttrValue::U64(3))],
        ),
        ev(4, None, "worker", 7, 1_234_567, 2, Vec::new()),
        ev(5, Some(99), "orphan", 50, 5, 2, Vec::new()),
    ];
    check("trace.json", &chrome_trace(&events, 3));
}

#[test]
fn counter_snapshot_lines_are_byte_identical() {
    let mut snap = ridl_obs::snapshot();
    snap.counters = [0; ridl_obs::COUNTER_NAMES.len()];
    for (i, c) in snap.counters.iter_mut().enumerate() {
        if i % 3 == 0 {
            *c = (i as u64 + 1) * 1_000_003;
        }
    }
    snap.counters[1] = u64::MAX;
    for (i, k) in snap.per_kind.iter_mut().enumerate() {
        k.checks = i as u64;
        k.violations = if i % 2 == 0 { 0 } else { 7 };
        k.nanos = (i as u64) * 10_000;
    }
    check("snapshot.jsonl", &snapshot_jsonl("la\"bel\\x", &snap));
}

#[test]
fn metrics_sink_line_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("ridl-golden-sink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sink.jsonl");
    let _ = std::fs::remove_file(&path);
    let sink = ridl_obs::JsonlSink::new(&path);
    sink.event("engine.statement", 42, "");
    sink.event(NASTY, u64::MAX, NASTY);
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    check("sink.jsonl", &text);
}

#[test]
fn store_status_json_is_byte_identical() {
    check("status_fresh.json", &StoreStatus::default().to_json());
    let ckpt = |file: &str, flavor, epoch, chained| CheckpointInfo {
        file: file.to_owned(),
        bytes: 4096 * epoch,
        format: 2,
        flavor,
        epoch,
        fingerprint: 0xdead_beef_0123,
        extents_carried: 3,
        extents_total: 140,
        chained,
    };
    let status = StoreStatus {
        dir: format!("/tmp/store {NASTY}"),
        epoch: Some(9),
        base_file: Some("checkpoint.snap"),
        chain_len: 2,
        checkpoints: vec![
            ckpt("checkpoint.snap", "base", 7, true),
            ckpt("checkpoint.d0008", "delta", 8, true),
            ckpt("checkpoint.d00\"09", "delta", 9, false),
        ],
        rejected: vec![("checkpoint.prev".into(), format!("bad magic {NASTY}"))],
        tmp_debris: vec!["checkpoint.tmp".into()],
        orphan_deltas: vec!["checkpoint.d0012".into(), NASTY.into()],
        wal: WalStatus {
            present: true,
            bytes: 9_999,
            header: Some((9, 0xfeed)),
            units: 12,
            ops: 30,
            committed_bytes: 9_000,
            torn_bytes: 999,
            stale: false,
        },
        corrupt: Some(format!("corrupt: {NASTY}")),
        issues: vec!["torn tail".into(), NASTY.into()],
    };
    check("status_full.json", &status.to_json());
    let headless = StoreStatus {
        checkpoints: vec![ckpt("checkpoint.snap", "delta", 1, false)],
        wal: WalStatus {
            present: true,
            header: None,
            ..WalStatus::default()
        },
        corrupt: None,
        ..status
    };
    check("status_headless.json", &headless.to_json());
}

#[test]
fn protocol_responses_are_byte_identical() {
    let rows = vec![
        vec![
            Some(Value::str(NASTY)),
            None,
            Some(Value::Int(i64::MIN)),
            Some(Value::Bool(true)),
        ],
        vec![
            Some(Value::Num(Decimal::new(-1234, 2))),
            Some(Value::Date(-7)),
            Some(Value::entity(42)),
            Some(Value::Int(i64::MAX)),
        ],
    ];
    let lines = [
        ok_response(
            3,
            [
                ("rows", encode_rows(&rows)),
                ("version", Json::Int(9)),
                ("ratio", Json::Float(0.25)),
                ("nan", Json::Float(f64::NAN)),
                ("schema", Json::str(NASTY)),
            ],
        ),
        ok_response(-1, []),
        err_response(4, ErrorCode::Proto, &format!("bad JSON: {NASTY}")),
        err_response(0, ErrorCode::Constraint, "key violated"),
    ];
    check("protocol.jsonl", &(lines.join("\n") + "\n"));
}
