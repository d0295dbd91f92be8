//! The durability cycle of the lifecycle cycles every run ends with: full
//! checkpoint, a fixed committed tail with one delta checkpoint in its
//! middle, a simulated crash, and recovery — followed, outside the timed
//! parts, by the checks that the recovered state is the pre-crash state
//! and validates clean.
//!
//! The traced run also probes the load path between crash and recovery
//! by calling the public functions recovery is built from on the crashed
//! store: `read_store`, `Database::load_state`, `ConstraintIndexes::build`,
//! `validate_load`, and the replay of the logged units as batches.

use std::path::Path;
use std::time::Instant;

use ridl_engine::{BatchOp, CheckpointKind, Database, StdIo};
use ridl_relational::{validate_load, validate_with_workers, ConstraintIndexes, DeltaOp};
use ridl_workloads::macrobench::TrafficOp;

use crate::fixture::{open_store, store_bytes, Fixture};
use crate::ops::{engine_step, Tally};
use crate::stats::{nanos_since, settle_disk};
use crate::trace::Tracer;

/// Full checkpoints per cycle. Each writes the whole state again, so the
/// repeats are the same work and give `checkpoint_ms` more samples.
const CHECKPOINT_REPS: usize = 3;

/// Correctness checks made outside the timed parts.
#[derive(Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check; a failure is also reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
        ok
    }
}

/// Load-path probes of the traced run, one entry per cycle.
#[derive(Default)]
pub struct LoadProbes {
    /// `ridl_durable::read_store` on the crashed store.
    pub read_store_ns: Vec<f64>,
    /// `Database::load_state` of the checkpointed state.
    pub load_state_ns: Vec<f64>,
    /// `ConstraintIndexes::build` over it.
    pub index_build_ns: Vec<f64>,
    /// `validate_load`, the full validation `bulk_load` runs.
    pub validate_ns: Vec<f64>,
    /// Logged ops replayed, and the nanoseconds their batches took.
    pub replay_ops: u64,
    /// See `replay_ops`.
    pub replay_ns: u64,
}

/// What one durability cycle measured.
pub struct Cycle {
    /// The recovered database.
    pub db: Database,
    /// Wall time of each `checkpoint_full`.
    pub checkpoint_ns: Vec<f64>,
    /// Bytes of the full checkpoint.
    pub checkpoint_bytes: u64,
    /// Crash-to-open recovery wall time.
    pub recover_ns: f64,
    /// Bytes on disk at the crash (base, delta, WAL).
    pub store_bytes: u64,
    /// Rows in the state at the crash.
    pub rows: usize,
}

/// Where the cycle's optional instrumentation goes.
pub struct Instruments<'a> {
    /// Span recorder.
    pub tr: &'a mut Tracer,
    /// Load-path probes (traced run only).
    pub probes: Option<&'a mut LoadProbes>,
}

fn run_tail(
    db: &mut Database,
    fx: &Fixture,
    steps: &[(TrafficOp, usize)],
    out: &mut Tally,
    ins: &mut Instruments,
) {
    for (i, &step) in steps.iter().enumerate() {
        engine_step(db, &fx.targets, step, i as u64, out, ins.tr);
    }
}

/// Runs one cycle on `db`, whose store lives in `dir`.
pub fn run(
    mut db: Database,
    dir: &Path,
    fx: &Fixture,
    tail: &[(TrafficOp, usize)],
    checks: &mut Checks,
    ins: &mut Instruments,
) -> Result<Cycle, String> {
    let (tail_a, tail_b) = tail.split_at(tail.len() / 2);
    let mut checkpoint_ns = Vec::new();
    for k in 0..CHECKPOINT_REPS {
        settle_disk();
        let span = ins.tr.begin("engine.checkpoint_full", k as u64);
        let t = Instant::now();
        db.checkpoint_full()
            .map_err(|e| format!("checkpoint_full: {e}"))?;
        checkpoint_ns.push(nanos_since(t) as f64);
        ins.tr.end(span);
    }
    let checkpoint_bytes = db.last_checkpoint_stats().map_or(0, |s| s.bytes);

    let mut first = Tally::default();
    run_tail(&mut db, fx, tail_a, &mut first, ins);
    let span = ins.tr.begin("engine.checkpoint", 0);
    db.checkpoint()
        .map_err(|e| format!("delta checkpoint: {e}"))?;
    ins.tr.end(span);
    let delta = db.last_checkpoint_stats().map(|s| s.kind);
    let mut second = Tally::default();
    run_tail(&mut db, fx, tail_b, &mut second, ins);
    db.flush_wal().map_err(|e| format!("flush_wal: {e}"))?;
    let expected = db.state().clone();
    let schema = db.schema().clone();
    drop(db);

    checks.check(
        delta == Some(CheckpointKind::Delta),
        "the mid-tail checkpoint wrote a delta",
    );
    let bytes = store_bytes(dir);
    if let Some(p) = ins.probes.as_deref_mut() {
        probe_load_path(dir, &schema, p, checks, ins.tr)?;
    }

    settle_disk();
    let span = ins.tr.begin("engine.open_with", 0);
    let t = Instant::now();
    let db = open_store(dir, schema.clone())?;
    let recover_ns = nanos_since(t) as f64;
    ins.tr.end(span);

    let replayed = db.recovery_report().map(|r| r.units_replayed as u64);
    checks.check(
        replayed == Some(second.committed),
        "recovery replayed exactly the units committed after the delta checkpoint",
    );
    checks.check(
        *db.state() == expected,
        "the recovered state equals the state at the crash",
    );
    checks.check(
        validate_with_workers(&schema, db.state(), workers()).is_empty(),
        "the recovered state validates clean",
    );
    checks.check(
        first.failed + second.failed == 0,
        "every tail operation had its expected outcome",
    );
    Ok(Cycle {
        db,
        checkpoint_ns,
        checkpoint_bytes,
        recover_ns,
        store_bytes: bytes,
        rows: expected.num_rows(),
    })
}

/// Validator worker threads (the machine's parallelism).
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn probe_load_path(
    dir: &Path,
    schema: &ridl_relational::RelSchema,
    p: &mut LoadProbes,
    checks: &mut Checks,
    tr: &mut Tracer,
) -> Result<(), String> {
    let span = tr.begin("durable.read_store", 0);
    let t = Instant::now();
    let scan = ridl_durable::read_store(&StdIo, dir)
        .map_err(|e| format!("read_store: {e}"))?
        .map_err(|e| format!("read_store: corrupt store: {}", e.0))?;
    p.read_store_ns.push(nanos_since(t) as f64);
    tr.end(span);
    let state = scan
        .snapshot
        .ok_or("read_store found no checkpoint")?
        .0
        .state;

    let mut mem = Database::create(schema.clone()).map_err(|e| e.to_string())?;
    let span = tr.begin("engine.load_state", 0);
    let t = Instant::now();
    let loaded = mem.load_state(state.clone());
    p.load_state_ns.push(nanos_since(t) as f64);
    tr.end(span);
    checks.check(loaded.is_ok(), "the checkpointed state loads");

    let span = tr.begin("relational.index_build", 0);
    let t = Instant::now();
    let indexes = ConstraintIndexes::build(schema, &state);
    p.index_build_ns.push(nanos_since(t) as f64);
    tr.end(span);
    let span = tr.begin("relational.validate_load", 0);
    let t = Instant::now();
    let violations = validate_load(schema, &state, &indexes);
    p.validate_ns.push(nanos_since(t) as f64);
    tr.end(span);
    checks.check(violations.is_empty(), "the checkpointed state validates");

    for unit in scan.wal.units.iter().filter(|u| u.checked) {
        let ops: Vec<BatchOp> = unit
            .ops
            .iter()
            .map(|op| match op {
                DeltaOp::Insert { table, row } => {
                    BatchOp::insert(schema.table(*table).name.clone(), row.clone())
                }
                DeltaOp::Remove { table, row } => {
                    BatchOp::delete(schema.table(*table).name.clone(), row.clone())
                }
            })
            .collect();
        p.replay_ops += ops.len() as u64;
        let span = tr.begin("engine.replay_unit", 0);
        let t = Instant::now();
        let applied = mem.apply_batch(ops);
        p.replay_ns += nanos_since(t);
        tr.end(span);
        checks.check(applied.is_ok(), "a logged unit replays");
    }
    Ok(())
}
