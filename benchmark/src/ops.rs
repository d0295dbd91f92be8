//! Executing plan steps — in-process against `ridl_engine::Database`, or
//! over the wire protocol through `ridl_server::Client` — with one raw
//! latency sample per write statement or request and per read, and an
//! outcome check per step.
//!
//! Every step has exactly one correct outcome: deletes and re-inserts of
//! a target succeed and change one row, the delete+insert batch changes
//! two, the duplicate-key insert is rejected as a constraint violation,
//! and the point query returns the target row and nothing else.

use std::time::Instant;

use ridl_engine::{BatchOp, Database, EngineError};
use ridl_server::json::Json;
use ridl_server::Client;
use ridl_workloads::macrobench::TrafficOp;

use crate::fixture::Target;
use crate::stats::{nanos_since, Latencies};
use crate::trace::Tracer;

/// What a stretch of operations did.
#[derive(Default)]
pub struct Tally {
    /// Plan steps attempted.
    pub ops: u64,
    /// Steps with a wrong outcome or a transport error.
    pub failed: u64,
    /// Write statements or requests (one sample each).
    pub writes: Latencies,
    /// Point queries.
    pub reads: Latencies,
    /// Statements that committed (each is one WAL unit).
    pub committed: u64,
    /// Targets currently deleted by this client (the client-side model).
    pub absent: Vec<usize>,
    /// Steps run in each slice of the window.
    pub per_slice: Vec<u64>,
}

impl Tally {
    /// Adds another tally's counts and samples.
    pub fn merge(&mut self, other: &Tally) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.writes.extend(&other.writes);
        self.reads.extend(&other.reads);
        self.committed += other.committed;
        self.absent.extend_from_slice(&other.absent);
        if self.per_slice.len() < other.per_slice.len() {
            self.per_slice.resize(other.per_slice.len(), 0);
        }
        for (a, b) in self.per_slice.iter_mut().zip(&other.per_slice) {
            *a += b;
        }
    }

    /// Counts one step run in slice `k` of the window.
    pub fn count_in_slice(&mut self, k: usize) {
        if self.per_slice.len() <= k {
            self.per_slice.resize(k + 1, 0);
        }
        self.per_slice[k] += 1;
    }

    fn write(&mut self, start: Instant) {
        self.writes.push(nanos_since(start));
    }

    fn read(&mut self, start: Instant) {
        self.reads.push(nanos_since(start));
    }

    fn outcome(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }

    fn set_absent(&mut self, target: usize, absent: bool) {
        self.absent.retain(|&t| t != target);
        if absent {
            self.absent.push(target);
        }
    }
}

/// Span names per step kind.
fn op_span(op: TrafficOp) -> &'static str {
    match op {
        TrafficOp::DeleteReinsert(_) => "op.delete_reinsert",
        TrafficOp::Batch(_) => "op.batch",
        TrafficOp::RejectInsert(_) => "op.reject_insert",
        TrafficOp::PointQuery(_) => "op.point_query",
    }
}

/// Runs one plan step in process.
pub fn engine_step(
    db: &mut Database,
    targets: &[Target],
    (op, ti): (TrafficOp, usize),
    req: u64,
    out: &mut Tally,
    tr: &mut Tracer,
) {
    let t = &targets[ti];
    out.ops += 1;
    let root = tr.begin(op_span(op), req);
    match op {
        TrafficOp::DeleteReinsert(_) => {
            let span = tr.begin("engine.delete_where", req);
            let start = Instant::now();
            let deleted = db.delete_where(&t.table, &t.preds);
            out.write(start);
            tr.end(span);
            let span = tr.begin("engine.insert", req);
            let start = Instant::now();
            let inserted = db.insert(&t.table, t.row.clone());
            out.write(start);
            tr.end(span);
            out.committed += u64::from(deleted == Ok(1)) + u64::from(inserted.is_ok());
            out.set_absent(ti, deleted == Ok(1) && inserted.is_err());
            out.outcome(deleted == Ok(1) && inserted.is_ok());
        }
        TrafficOp::Batch(_) => {
            let span = tr.begin("engine.apply_batch", req);
            let start = Instant::now();
            let n = db.apply_batch([
                BatchOp::delete(t.table.clone(), t.row.clone()),
                BatchOp::insert(t.table.clone(), t.row.clone()),
            ]);
            out.write(start);
            tr.end(span);
            out.committed += u64::from(n.is_ok());
            out.outcome(n == Ok(2));
        }
        TrafficOp::RejectInsert(_) => {
            let span = tr.begin("engine.insert", req);
            let start = Instant::now();
            let row = t
                .reject_row
                .clone()
                .expect("plans send rejects to targets with one");
            let r = db.insert(&t.table, row);
            out.write(start);
            tr.end(span);
            out.committed += u64::from(r.is_ok());
            out.outcome(matches!(r, Err(EngineError::ConstraintViolation(_))));
        }
        TrafficOp::PointQuery(_) => {
            let span = tr.begin("engine.select", req);
            let start = Instant::now();
            let rows = db.select(&t.query);
            out.read(start);
            tr.end(span);
            out.outcome(rows.is_ok_and(|r| r.len() == 1 && r[0] == t.row));
        }
    }
    tr.end(root);
}

/// One timed request, recorded as a write or a read; `None` on a
/// transport error.
fn request(c: &mut Client, line: &str, out: &mut Tally, write: bool) -> Option<Json> {
    let start = Instant::now();
    let resp = c.send_raw(line).ok();
    if write {
        out.write(start);
    } else {
        out.read(start);
    }
    resp
}

fn changed(resp: &Option<Json>, n: i64) -> bool {
    resp.as_ref()
        .is_some_and(|r| Client::is_ok(r) && r.get("changed").and_then(Json::as_i64) == Some(n))
}

/// Runs one plan step over the wire. A `busy` answer counts as failed.
pub fn wire_step(
    c: &mut Client,
    targets: &[Target],
    (op, ti): (TrafficOp, usize),
    req: u64,
    out: &mut Tally,
    tr: &mut Tracer,
) {
    let t = &targets[ti];
    out.ops += 1;
    let root = tr.begin(op_span(op), req);
    match op {
        TrafficOp::DeleteReinsert(_) => {
            let span = tr.begin("server.delete", req);
            let del = request(c, &t.wire.delete, out, true);
            tr.end(span);
            let span = tr.begin("server.insert", req);
            let ins = request(c, &t.wire.insert, out, true);
            tr.end(span);
            let (del_ok, ins_ok) = (changed(&del, 1), changed(&ins, 1));
            out.committed += u64::from(del_ok) + u64::from(ins_ok);
            out.set_absent(ti, del_ok && !ins_ok);
            out.outcome(del_ok && ins_ok);
        }
        TrafficOp::Batch(_) => {
            let span = tr.begin("server.batch", req);
            let resp = request(c, &t.wire.batch, out, true);
            tr.end(span);
            out.committed += u64::from(changed(&resp, 2));
            out.outcome(changed(&resp, 2));
        }
        TrafficOp::RejectInsert(_) => {
            let span = tr.begin("server.insert", req);
            let line = t
                .wire
                .reject
                .as_deref()
                .expect("plans send rejects to targets with one");
            let resp = request(c, line, out, true);
            tr.end(span);
            out.outcome(
                resp.as_ref()
                    .is_some_and(|r| Client::error_code(r) == Some("constraint")),
            );
        }
        TrafficOp::PointQuery(_) => {
            let span = tr.begin("server.query", req);
            let resp = request(c, &t.wire.query, out, false);
            tr.end(span);
            out.outcome(
                resp.as_ref()
                    .is_some_and(|r| Client::is_ok(r) && r.get("rows") == Some(&t.wire_rows)),
            );
        }
    }
    tr.end(root);
}
