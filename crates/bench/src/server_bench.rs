//! The many-client server benchmark behind the schema-v4 `server`
//! artifact object: N closed-loop sessions speak the wire protocol to an
//! in-process [`ridl_server::Server`] backed by a WAL-durable store.
//!
//! Three phases, all against one server instance:
//!
//! 1. **churn** — `sessions` short-lived sessions (connect → hello →
//!    one committed insert → a read-your-writes point query →
//!    disconnect) spread over a worker pool, so the commit pipeline sees
//!    genuinely concurrent writers and coalesces them into group-commit
//!    batches;
//! 2. **burst** — dedicated writer threads hammer inserts while probe
//!    readers measure query latency, demonstrating that snapshot reads
//!    stay fast (bounded p99) during a write burst;
//! 3. **admission wave** — more simultaneous connections than
//!    `max_sessions`, so admission control must reject the overflow with
//!    a proactive `busy` line.
//!
//! The loop is also a correctness check: every expected-ok statement
//! must succeed, commit sequences and snapshot versions must be
//! monotonic per session thread, every wave connection must be either
//! admitted or cleanly rejected, and the final row count must equal the
//! acknowledged inserts. Each violation increments the artifact's
//! `anomalies` field, which must be zero for the run to count.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use ridl_brm::DataType;
use ridl_engine::{Database, FsyncPolicy, StdIo};
use ridl_obs::json::{obj, Json};
use ridl_obs::Histogram;
use ridl_relational::{Column, RelConstraintKind, RelSchema, Table};
use ridl_server::{Client, Server, ServerConfig};

use crate::artifact::ServerSummary;
use crate::harness;

/// Session-admission limit for the bench server; the wave phase opens
/// `WAVE_LIMIT + WAVE_EXTRA` simultaneous connections to force rejects.
const WAVE_LIMIT: usize = 48;
/// Connections past the limit in the admission wave (the guaranteed
/// minimum number of rejects).
const WAVE_EXTRA: usize = 16;
/// Writer threads in the burst phase.
const BURST_WRITERS: usize = 4;
/// Probe-reader threads measuring latency during the burst.
const BURST_READERS: usize = 4;

/// Everything the bench worker threads share.
struct Shared {
    addr: String,
    anomalies: AtomicU64,
    /// Successfully acknowledged inserts — compared against the final
    /// row count after shutdown.
    acked: AtomicU64,
    read_lat: Mutex<Histogram>,
    write_lat: Mutex<Histogram>,
    burst_lat: Mutex<Histogram>,
}

impl Shared {
    fn check(&self, ok: bool, what: &str) -> bool {
        if !ok {
            self.anomalies.fetch_add(1, Ordering::Relaxed);
            ridl_obs::journal::record(
                ridl_obs::Severity::Warn,
                "bench.server_anomaly",
                vec![("what", what.into())],
            );
        }
        ok
    }
}

/// The bench talks to its own two-column table — the server phase
/// measures session/pipeline mechanics, not constraint checking, which
/// the macro phases already cover on the mapped schema.
fn bench_schema() -> RelSchema {
    let mut s = RelSchema::new("bench");
    let d = s.domain("D", DataType::Char(24));
    let t = s.add_table(Table::new(
        "Bench",
        vec![Column::not_null("K", d), Column::nullable("V", d)],
    ));
    s.add_named(RelConstraintKind::PrimaryKey {
        table: t,
        cols: vec![0],
    });
    s
}

fn insert_req(key: &str) -> Json {
    obj([
        ("cmd", Json::str("insert")),
        ("table", Json::str("Bench")),
        ("row", Json::Arr(vec![Json::str(key), Json::Null])),
    ])
}

fn point_query(key: &str) -> Json {
    obj([
        ("cmd", Json::str("query")),
        ("table", Json::str("Bench")),
        (
            "where",
            Json::Arr(vec![obj([("col", Json::str("K")), ("eq", Json::str(key))])]),
        ),
    ])
}

/// One timed round trip; records into `hist` and returns the response
/// when the transport survived.
fn timed(c: &mut Client, req: Json, hist: &Mutex<Histogram>) -> Option<Json> {
    let t = Instant::now();
    let resp = c.request(req).ok()?;
    let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    hist.lock().expect("latency histogram").record(ns);
    Some(resp)
}

/// Phase 1: `sessions` short sessions over a closed-loop worker pool.
/// Each worker runs its share serially; the pool runs concurrently, so
/// inserts from different sessions pile into the commit queue together.
fn run_churn(sh: &Arc<Shared>, sessions: usize) {
    let workers = sessions.clamp(1, 32);
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let sh = sh.clone();
            std::thread::spawn(move || {
                let mut last_seq = 0i64;
                let mut last_version = -1i64;
                let mut s = w;
                while s < sessions {
                    let key = format!("C{s:06}");
                    let Ok(mut c) = Client::connect(&sh.addr) else {
                        sh.check(false, "churn connect failed");
                        s += workers;
                        continue;
                    };
                    let hello_ok = c.hello("churn").map(|r| Client::is_ok(&r));
                    sh.check(hello_ok.unwrap_or(false), "churn hello failed");
                    if let Some(r) = timed(&mut c, insert_req(&key), &sh.write_lat) {
                        if sh.check(Client::is_ok(&r), "churn insert rejected") {
                            sh.acked.fetch_add(1, Ordering::Relaxed);
                            let seq = r.get("seq").and_then(Json::as_i64).unwrap_or(0);
                            sh.check(seq > last_seq, "commit seq not increasing");
                            last_seq = seq;
                        }
                    } else {
                        sh.check(false, "churn insert transport failed");
                    }
                    if let Some(r) = timed(&mut c, point_query(&key), &sh.read_lat) {
                        let rows = r.get("rows").and_then(Json::as_arr).map_or(0, <[_]>::len);
                        sh.check(rows == 1, "read-your-writes query missed the insert");
                        let version = r.get("version").and_then(Json::as_i64).unwrap_or(-1);
                        sh.check(version >= last_version, "snapshot version went backwards");
                        last_version = version;
                    } else {
                        sh.check(false, "churn query transport failed");
                    }
                    s += workers;
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("churn worker");
    }
}

/// Phase 2: a write burst with concurrent latency-probing readers. The
/// probe latencies land in their own histogram so the artifact can show
/// reader p99 *during* the burst stayed bounded.
fn run_burst(sh: &Arc<Shared>, writes_per_writer: usize) {
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..BURST_READERS)
        .map(|_| {
            let sh = sh.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let Ok(mut c) = Client::connect(&sh.addr) else {
                    sh.check(false, "burst reader connect failed");
                    return;
                };
                let _ = c.hello("burst-reader");
                let mut last_version = -1i64;
                while !stop.load(Ordering::Relaxed) {
                    let Some(r) = timed(&mut c, point_query("C000000"), &sh.burst_lat) else {
                        sh.check(false, "burst read transport failed");
                        return;
                    };
                    sh.check(Client::is_ok(&r), "burst read failed");
                    let version = r.get("version").and_then(Json::as_i64).unwrap_or(-1);
                    sh.check(version >= last_version, "burst version went backwards");
                    last_version = version;
                }
            })
        })
        .collect();
    let writers: Vec<_> = (0..BURST_WRITERS)
        .map(|t| {
            let sh = sh.clone();
            std::thread::spawn(move || {
                let Ok(mut c) = Client::connect(&sh.addr) else {
                    sh.check(false, "burst writer connect failed");
                    return;
                };
                let _ = c.hello("burst-writer");
                for i in 0..writes_per_writer {
                    let key = format!("B{t}-{i:06}");
                    if let Some(r) = timed(&mut c, insert_req(&key), &sh.write_lat) {
                        if sh.check(Client::is_ok(&r), "burst insert rejected") {
                            sh.acked.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        sh.check(false, "burst insert transport failed");
                    }
                }
            })
        })
        .collect();
    for h in writers {
        h.join().expect("burst writer");
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().expect("burst reader");
    }
}

/// Phase 3: `WAVE_LIMIT + WAVE_EXTRA` simultaneous connections. Admitted
/// sessions hold their slot until every thread has an outcome, so at
/// least `WAVE_EXTRA` connections must be turned away. Each thread's
/// outcome must be a clean admit or a clean `busy` reject — a connection
/// reset mid-handshake also counts as rejected (the server closes the
/// socket right after the proactive busy line).
fn run_admission_wave(sh: &Arc<Shared>) {
    let total = WAVE_LIMIT + WAVE_EXTRA;
    let start = Arc::new(Barrier::new(total));
    let hold = Arc::new(Barrier::new(total));
    let handles: Vec<_> = (0..total)
        .map(|_| {
            let sh = sh.clone();
            let start = start.clone();
            let hold = hold.clone();
            std::thread::spawn(move || {
                start.wait();
                let conn = Client::connect(&sh.addr);
                let admitted = match conn {
                    Err(_) => None, // reset while the server shed load
                    Ok(mut c) => match c.hello("wave") {
                        Ok(r) if Client::is_ok(&r) => Some(c),
                        Ok(r) => {
                            sh.check(
                                Client::error_code(&r) == Some("busy"),
                                "wave reject was not a busy error",
                            );
                            None
                        }
                        Err(_) => None, // busy line lost to the close race
                    },
                };
                hold.wait();
                drop(admitted);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("wave thread");
    }
}

/// Runs the full server benchmark: starts a server on a scratch durable
/// store, drives the three phases, verifies the final state, and folds
/// the client-side histograms and server counters into a
/// [`ServerSummary`].
pub fn run_server_bench(sessions: usize) -> Result<ServerSummary, String> {
    let dir = harness::bench_dir("server");
    // FsyncPolicy::Never hands the fsync cadence to the commit pipeline:
    // one flush_wal per drained batch, so `wal.group_batch` records the
    // commits each fsync absorbed from the concurrent writers.
    let db = Database::open_with(
        Arc::new(StdIo),
        &dir,
        bench_schema(),
        harness::durability(FsyncPolicy::Never),
    )
    .map_err(|e| format!("open server bench store: {e}"))?;
    let before = ridl_obs::snapshot();
    let server = Server::start(
        db,
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: WAVE_LIMIT,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("start bench server: {e}"))?;
    let sh = Arc::new(Shared {
        addr: server.addr().to_string(),
        anomalies: AtomicU64::new(0),
        acked: AtomicU64::new(0),
        read_lat: Mutex::new(Histogram::new()),
        write_lat: Mutex::new(Histogram::new()),
        burst_lat: Mutex::new(Histogram::new()),
    });

    let t0 = Instant::now();
    run_churn(&sh, sessions);
    run_burst(&sh, (sessions / BURST_WRITERS).clamp(25, 2_000));
    run_admission_wave(&sh);
    let seconds = t0.elapsed().as_secs_f64();

    let acked = sh.acked.load(Ordering::Relaxed);
    let db = server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    sh.check(
        db.state().num_rows() as u64 == acked,
        "final row count differs from acknowledged inserts",
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    let diff = ridl_obs::snapshot().since(&before);
    sh.check(
        diff.counter("server.admission_rejects") > 0,
        "admission wave produced no rejects",
    );
    let read = sh.read_lat.lock().expect("read histogram");
    let write = sh.write_lat.lock().expect("write histogram");
    let burst = sh.burst_lat.lock().expect("burst histogram");
    let batch = ridl_obs::hist::summary_named("server.commit_batch").unwrap_or_default();
    let reads = diff.counter("server.reads");
    let writes = diff.counter("server.writes");
    Ok(ServerSummary {
        sessions: diff.counter("server.sessions"),
        peak_sessions: diff.counter("server.sessions.peak"),
        admission_rejects: diff.counter("server.admission_rejects"),
        busy_rejects: diff.counter("server.busy_rejects"),
        reads,
        writes,
        anomalies: sh.anomalies.load(Ordering::Relaxed),
        seconds,
        ops_per_sec: if seconds > 0.0 {
            (reads + writes) as f64 / seconds
        } else {
            0.0
        },
        read_p50_ns: read.p50(),
        read_p99_ns: read.p99(),
        write_p50_ns: write.p50(),
        write_p99_ns: write.p99(),
        burst_read_p99_ns: burst.p99(),
        commit_batch_p50: batch.p50,
        commit_batch_max: batch.max,
    })
}
