//! End-to-end tests for the multi-session server: wire protocol
//! round-trips, admission control, backpressure, and the server-level
//! snapshot-isolation guarantees (satellite of ISSUE 10).

use ridl_brm::{DataType, Value};
use ridl_engine::Database;
use ridl_obs::json::{obj, Json};
use ridl_relational::{Column, RelConstraintKind, RelSchema, Table};
use ridl_server::{Client, Server, ServerConfig};

fn sample_schema() -> RelSchema {
    let mut s = RelSchema::new("conf");
    let d = s.domain("D", DataType::Char(24));
    let paper = s.add_table(Table::new(
        "Paper",
        vec![
            Column::not_null("Paper_Id", d),
            Column::nullable("Program_Id", d),
        ],
    ));
    s.add_named(RelConstraintKind::PrimaryKey {
        table: paper,
        cols: vec![0],
    });
    s
}

fn start(cfg: ServerConfig) -> Server {
    let db = Database::create(sample_schema()).unwrap();
    Server::start(db, "127.0.0.1:0", cfg).unwrap()
}

fn insert_req(key: &str) -> Json {
    obj([
        ("cmd", Json::str("insert")),
        ("table", Json::str("Paper")),
        ("row", Json::Arr(vec![Json::str(key), Json::Null])),
    ])
}

fn query_all() -> Json {
    obj([("cmd", Json::str("query")), ("table", Json::str("Paper"))])
}

#[test]
fn protocol_round_trips_the_full_command_set() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    let hello = c.hello("protocol-test").unwrap();
    assert!(Client::is_ok(&hello), "{hello}");
    assert_eq!(hello.get("schema").and_then(Json::as_str), Some("conf"));
    let tables = hello.get("tables").and_then(Json::as_arr).unwrap();
    assert_eq!(
        tables.iter().filter_map(Json::as_str).collect::<Vec<_>>(),
        ["Paper"]
    );

    // Autocommit insert: the response carries a commit sequence number.
    let r = c.request(insert_req("P1")).unwrap();
    assert!(Client::is_ok(&r), "{r}");
    assert_eq!(r.get("seq").and_then(Json::as_i64), Some(1));
    assert_eq!(r.get("changed").and_then(Json::as_i64), Some(1));

    // Read-your-writes: the next query must see the acknowledged insert.
    let r = c.request(query_all()).unwrap();
    assert_eq!(r.get("rows").and_then(Json::as_arr).unwrap().len(), 1);

    // A primary-key duplicate maps to the `constraint` error code and
    // leaves the store untouched.
    let r = c.request(insert_req("P1")).unwrap();
    assert!(!Client::is_ok(&r));
    assert_eq!(Client::error_code(&r), Some("constraint"));

    // Unknown table maps to `unknown`.
    let r = c
        .request(obj([
            ("cmd", Json::str("query")),
            ("table", Json::str("Nope")),
        ]))
        .unwrap();
    assert_eq!(Client::error_code(&r), Some("unknown"));

    // Malformed line maps to `proto` without killing the session.
    let r = c.send_raw("this is not json").unwrap();
    assert_eq!(Client::error_code(&r), Some("proto"));

    // update / delete round-trip.
    let r = c
        .request(obj([
            ("cmd", Json::str("update")),
            ("table", Json::str("Paper")),
            (
                "where",
                Json::Arr(vec![obj([
                    ("col", Json::str("Paper_Id")),
                    ("eq", Json::str("P1")),
                ])]),
            ),
            (
                "set",
                Json::Arr(vec![Json::Arr(vec![
                    Json::str("Program_Id"),
                    Json::str("G1"),
                ])]),
            ),
        ]))
        .unwrap();
    assert!(Client::is_ok(&r), "{r}");
    assert_eq!(r.get("changed").and_then(Json::as_i64), Some(1));

    // explain returns the executed plan.
    let r = c
        .request(obj([
            ("cmd", Json::str("explain")),
            ("table", Json::str("Paper")),
        ]))
        .unwrap();
    assert!(Client::is_ok(&r), "{r}");
    assert!(!r.get("steps").and_then(Json::as_arr).unwrap().is_empty());

    // Transactions: begin buffers, rollback drops, commit applies all.
    assert!(Client::is_ok(&c.command("begin").unwrap()));
    let r = c.request(insert_req("TX1")).unwrap();
    assert_eq!(r.get("buffered").and_then(Json::as_bool), Some(true));
    let r = c.command("rollback").unwrap();
    assert_eq!(r.get("dropped").and_then(Json::as_i64), Some(1));
    assert!(Client::is_ok(&c.command("begin").unwrap()));
    c.request(insert_req("TX2")).unwrap();
    c.request(insert_req("TX3")).unwrap();
    let r = c.command("commit").unwrap();
    assert!(Client::is_ok(&r), "{r}");
    assert_eq!(r.get("changed").and_then(Json::as_i64), Some(2));
    // Transaction misuse maps to `txn`.
    assert_eq!(
        Client::error_code(&c.command("commit").unwrap()),
        Some("txn")
    );

    // A transaction that violates a constraint rolls back atomically.
    assert!(Client::is_ok(&c.command("begin").unwrap()));
    c.request(insert_req("TX4")).unwrap();
    c.request(insert_req("TX2")).unwrap(); // dup, will fail at commit
    let r = c.command("commit").unwrap();
    assert_eq!(Client::error_code(&r), Some("constraint"));

    let r = c.command("status").unwrap();
    assert!(Client::is_ok(&r), "{r}");
    assert_eq!(r.get("rows").and_then(Json::as_i64), Some(3));
    assert_eq!(r.get("sessions").and_then(Json::as_i64), Some(1));

    drop(c);
    let db = server.shutdown().unwrap();
    assert_eq!(db.state().num_rows(), 3); // P1, TX2, TX3 — TX4 rolled back
}

#[test]
fn admission_control_rejects_past_the_session_limit() {
    let server = start(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();
    let mut c1 = Client::connect(&addr).unwrap();
    assert!(Client::is_ok(&c1.hello("first").unwrap()));

    // The second connection is answered with one proactive busy line and
    // closed — read it without writing anything.
    {
        use std::io::BufRead;
        let s = std::net::TcpStream::connect(&addr).unwrap();
        let mut line = String::new();
        std::io::BufReader::new(s).read_line(&mut line).unwrap();
        let r = ridl_obs::json::parse(line.trim()).unwrap();
        assert_eq!(Client::error_code(&r), Some("busy"), "{r}");
    }

    // The admitted session keeps working.
    assert!(Client::is_ok(&c1.request(insert_req("P1")).unwrap()));

    // Once the first session leaves, a new one is admitted. A probe that
    // loses the race (rejected connection reset mid-handshake) retries.
    drop(c1);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let mut c3 = Client::connect(&addr).unwrap();
        if let Ok(r) = c3.hello("third") {
            if Client::is_ok(&r) {
                break;
            }
        }
        assert!(std::time::Instant::now() < deadline, "slot never freed");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    server.shutdown().unwrap();
}

/// Satellite: server-level snapshot isolation. A long open transaction in
/// one session never blocks — and is never visible to — readers in other
/// sessions until its commit is durable.
#[test]
fn open_transaction_is_invisible_and_nonblocking_to_readers() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    let mut writer = Client::connect(&addr).unwrap();
    let mut reader = Client::connect(&addr).unwrap();

    assert!(Client::is_ok(&writer.request(insert_req("BASE")).unwrap()));
    assert!(Client::is_ok(&writer.command("begin").unwrap()));
    for i in 0..20 {
        writer.request(insert_req(&format!("TX{i}"))).unwrap();
    }
    // The transaction is open and buffered; readers still see one row,
    // and every read completes (nothing is blocked on the writer).
    for _ in 0..10 {
        let r = reader.request(query_all()).unwrap();
        assert_eq!(r.get("rows").and_then(Json::as_arr).unwrap().len(), 1);
    }
    assert!(Client::is_ok(&writer.command("commit").unwrap()));
    let r = reader.request(query_all()).unwrap();
    assert_eq!(r.get("rows").and_then(Json::as_arr).unwrap().len(), 21);
    drop(writer);
    drop(reader);
    server.shutdown().unwrap();
}

/// Satellite: a reader's observed state is always a committed prefix —
/// under a concurrent write burst every query sees a consistent version
/// (never a torn batch), and versions advance monotonically per session.
#[test]
fn reads_see_monotonic_committed_versions_under_write_burst() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    const WRITES: usize = 200;

    let w_addr = addr.clone();
    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(&w_addr).unwrap();
        for i in 0..WRITES {
            let r = c.request(insert_req(&format!("W{i:04}"))).unwrap();
            assert!(Client::is_ok(&r), "{r}");
        }
    });

    let mut reader = Client::connect(&addr).unwrap();
    let mut last_version = -1i64;
    let mut last_rows = 0usize;
    loop {
        let r = reader.request(query_all()).unwrap();
        assert!(Client::is_ok(&r), "{r}");
        let version = r.get("version").and_then(Json::as_i64).unwrap();
        let rows = r.get("rows").and_then(Json::as_arr).unwrap().len();
        // Snapshots only advance: version and row count are monotonic,
        // and the row count can never exceed the committed version.
        assert!(version >= last_version, "version went backwards");
        assert!(rows >= last_rows, "row count went backwards");
        assert!(rows <= version.max(0) as usize, "read a non-durable row");
        last_version = version;
        last_rows = rows;
        if rows == WRITES {
            break;
        }
    }
    writer.join().unwrap();
    server.shutdown().unwrap();
}

/// Concurrent writers funnel through the commit pipeline: every write is
/// acknowledged with a unique sequence number and the final state holds
/// exactly the acknowledged rows.
#[test]
fn concurrent_writers_get_unique_commit_sequences() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    const THREADS: usize = 8;
    const PER_THREAD: usize = 25;

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                let mut seqs = Vec::new();
                for i in 0..PER_THREAD {
                    let r = c.request(insert_req(&format!("T{t}-{i}"))).unwrap();
                    assert!(Client::is_ok(&r), "{r}");
                    seqs.push(r.get("seq").and_then(Json::as_i64).unwrap());
                }
                seqs
            })
        })
        .collect();
    let mut all: Vec<i64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    let expect: Vec<i64> = (1..=(THREADS * PER_THREAD) as i64).collect();
    assert_eq!(all, expect, "commit sequences must be a dense unique range");

    let db = server.shutdown().unwrap();
    assert_eq!(db.state().num_rows(), THREADS * PER_THREAD);
}

/// A hostile line nested far past the codec's depth bound costs one
/// `proto` error: the server neither overflows its stack nor drops the
/// session, and other sessions keep working.
#[test]
fn deeply_nested_line_is_a_proto_error_not_a_crash() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let r = c.send_raw(&"[".repeat(100_000)).unwrap();
    assert_eq!(Client::error_code(&r), Some("proto"), "{r}");
    assert!(Client::is_ok(&c.command("status").unwrap()));
    let mut other = Client::connect(&addr).unwrap();
    assert!(Client::is_ok(&other.command("status").unwrap()));
    server.shutdown().unwrap();
}

/// A request line longer than the reader's bound is answered `proto` and
/// skipped up to its newline; the session then serves normal requests.
#[test]
fn over_long_line_is_rejected_and_the_session_continues() {
    use ridl_server::server::MAX_LINE_BYTES;
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let huge = format!(
        "{{\"cmd\":\"status\",\"pad\":\"{}\"}}",
        "x".repeat(MAX_LINE_BYTES)
    );
    let r = c.send_raw(&huge).unwrap();
    assert_eq!(Client::error_code(&r), Some("proto"), "{r}");
    assert!(
        r.get("detail")
            .and_then(Json::as_str)
            .is_some_and(|d| d.contains("longer than")),
        "{r}"
    );
    // Within the bound, the same request is fine.
    let fits = format!("{{\"cmd\":\"status\",\"pad\":\"{}\"}}", "x".repeat(1000));
    assert!(Client::is_ok(&c.send_raw(&fits).unwrap()));
    assert!(Client::is_ok(&c.request(insert_req("P1")).unwrap()));
    let r = c.request(query_all()).unwrap();
    assert_eq!(
        r.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
    server.shutdown().unwrap();
}

/// An integer literal past `i64::MAX` is valid JSON — the codec parses
/// it as a float — but the protocol cannot carry it exactly, so on the
/// wire it draws `proto`.
#[test]
fn integer_past_i64_parses_as_a_float_but_is_rejected_on_the_wire() {
    let big = "9223372036854775808";
    let doc = ridl_obs::json::parse(&format!(r#"{{"seed":{big}}}"#)).unwrap();
    assert_eq!(
        doc.get("seed"),
        Some(&Json::Float(9_223_372_036_854_775_808.0))
    );

    let server = start(ServerConfig::default());
    let mut c = Client::connect(&server.addr().to_string()).unwrap();
    for line in [
        format!(r#"{{"cmd":"insert","table":"Paper","row":["P9",{big}]}}"#),
        format!(r#"{{"id":{big},"cmd":"status"}}"#),
    ] {
        let r = c.send_raw(&line).unwrap();
        assert_eq!(Client::error_code(&r), Some("proto"), "{line} -> {r}");
    }
    assert!(Client::is_ok(&c.command("status").unwrap()));
    server.shutdown().unwrap();
}

fn point_query(key: &str) -> Json {
    obj([
        ("cmd", Json::str("query")),
        ("table", Json::str("Paper")),
        (
            "where",
            Json::Arr(vec![obj([
                ("col", Json::str("Paper_Id")),
                ("eq", Json::str(key)),
            ])]),
        ),
    ])
}

/// Session churn: a worker pool runs many short sessions (connect →
/// hello → insert → read-your-writes point query → disconnect) against a
/// session limit above the pool size. Every hello and insert must
/// succeed; per worker, commit sequences strictly increase and snapshot
/// versions never decrease; the final row count equals the acknowledged
/// inserts.
///
/// A session frees its admission slot when the server's reader sees the
/// client's end of stream, which can land after the same worker's next
/// connect. The test relies on the `LIMIT - WORKERS` = 16 spare slots to
/// absorb those closing sessions; shrinking that slack makes it flaky.
#[test]
fn churning_sessions_are_admitted_and_read_their_writes() {
    const LIMIT: usize = 48;
    const WORKERS: usize = 32;
    const SESSIONS: usize = 240;
    let server = start(ServerConfig {
        max_sessions: LIMIT,
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut anomalies = Vec::new();
                let mut acked = 0usize;
                let (mut last_seq, mut last_version) = (0i64, -1i64);
                for s in (w..SESSIONS).step_by(WORKERS) {
                    let key = format!("C{s:06}");
                    let mut c = match Client::connect(&addr) {
                        Ok(c) => c,
                        Err(e) => {
                            anomalies.push(format!("session {s}: connect: {e}"));
                            continue;
                        }
                    };
                    match c.hello("churn") {
                        Ok(r) if Client::is_ok(&r) => {}
                        other => {
                            anomalies.push(format!("session {s}: hello: {other:?}"));
                            continue;
                        }
                    }
                    match c.request(insert_req(&key)) {
                        Ok(r) if Client::is_ok(&r) => {
                            acked += 1;
                            let seq = r.get("seq").and_then(Json::as_i64).unwrap_or(0);
                            if seq <= last_seq {
                                anomalies.push(format!("session {s}: seq {seq} after {last_seq}"));
                            }
                            last_seq = seq;
                        }
                        other => anomalies.push(format!("session {s}: insert: {other:?}")),
                    }
                    match c.request(point_query(&key)) {
                        Ok(r) => {
                            let rows = r.get("rows").and_then(Json::as_arr).map_or(0, <[_]>::len);
                            if rows != 1 {
                                anomalies.push(format!("session {s}: read-your-writes: {r}"));
                            }
                            let version = r.get("version").and_then(Json::as_i64).unwrap_or(-1);
                            if version < last_version {
                                anomalies.push(format!(
                                    "session {s}: version {version} after {last_version}"
                                ));
                            }
                            last_version = version;
                        }
                        Err(e) => anomalies.push(format!("session {s}: query: {e}")),
                    }
                }
                (acked, anomalies)
            })
        })
        .collect();
    let mut acked = 0;
    let mut anomalies = Vec::new();
    for h in handles {
        let (n, a) = h.join().unwrap();
        acked += n;
        anomalies.extend(a);
    }
    assert!(anomalies.is_empty(), "churn anomalies: {anomalies:#?}");
    assert_eq!(acked, SESSIONS);
    let db = server.shutdown().unwrap();
    assert_eq!(
        db.state().num_rows(),
        acked,
        "rows differ from acknowledged inserts"
    );
}

/// A client that pipelines large queries, closes its write side and
/// never reads leaves its worker blocked in a write after the reader has
/// seen end of stream and released the admission slot. The session's
/// stream stays registered until the worker exits, so `Server::shutdown`
/// still closes it, and returns well inside the session write timeout.
#[test]
fn half_closed_non_reading_client_does_not_block_shutdown() {
    use std::io::{BufRead, Read, Write};
    use std::time::{Duration, Instant};
    const QUERIES: usize = 32; // the default in-flight limit: no busy rejects

    let mut db = Database::create(sample_schema()).unwrap();
    let paper = db.schema().table_by_name("Paper").unwrap();
    let program = "x".repeat(24);
    db.bulk_load((0..20_000).map(|i| {
        let row = vec![
            Some(Value::str(format!("P{i:08}"))),
            Some(Value::str(&*program)),
        ];
        (paper, row)
    }))
    .unwrap();
    let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    // Read the hello response first, so the session is registered.
    s.write_all(format!("{}\n", obj([("cmd", Json::str("hello"))])).as_bytes())
        .unwrap();
    let mut hello = String::new();
    std::io::BufReader::new(s.try_clone().unwrap())
        .read_line(&mut hello)
        .unwrap();
    assert!(Client::is_ok(&ridl_obs::json::parse(hello.trim()).unwrap()));
    s.write_all(format!("{}\n", query_all()).repeat(QUERIES).as_bytes())
        .unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    // The reader reaches end of stream and releases the slot; the worker
    // then fills the socket buffers (~800 kB a response) and blocks.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.session_count() > 0 {
        assert!(Instant::now() < deadline, "reader never saw end of stream");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_secs(1));

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(server.shutdown().map(|_| ())));
    let stopped = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown blocked on a half-closed, non-reading client");
    assert!(stopped.is_ok(), "{stopped:?}");

    // The worker really was stuck: the client holds fewer responses than
    // it sent queries.
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    let responses = buf.iter().filter(|&&b| b == b'\n').count();
    assert!(
        responses < QUERIES,
        "{responses} responses: worker never blocked"
    );
}
