//! E-CKPT: incremental checkpoints scale with churn, not with state.
//!
//! Two industrial populations about 4x apart in size are bulk-loaded into
//! WAL stores. Each store takes a full checkpoint, then the same
//! deterministic churn (delete+reinsert pairs, netted batches, rejected
//! duplicates and point queries over the probed mutation targets), then
//! an incremental checkpoint. Dirty-extent tracking must keep the delta
//! proportional to the churn:
//!
//! * the delta rewrote no more extents than there were churned row ops;
//! * at paper scale (both runs are ≥ 20k rows) the delta is under 20% of
//!   the full snapshot;
//! * the large run holds at least 3x the rows of the small one;
//! * the delta/full byte ratio shrinks to at most 0.75x as state grows.
//!
//! Release-only: building and loading the populations takes minutes in a
//! debug build. Run with `cargo test --release --test checkpoint_scaling
//! -- --nocapture` to see the measured figures.

use std::sync::Arc;

use ridl_bench::harness::{self, MutationTarget};
use ridl_engine::{BatchOp, CheckpointKind, Database, FsyncPolicy, Query, StdIo};
use ridl_workloads::macrobench::{plan_traffic, TrafficOp};
use ridl_workloads::scenario;

const SEED: u64 = 1989;
const TARGETS: usize = 8;

/// What one run measured.
struct Run {
    rows: usize,
    full_bytes: u64,
    delta_bytes: u64,
    dirty_extents: u64,
    total_extents: u64,
    churn_rows: u64,
}

impl Run {
    fn ratio(&self) -> f64 {
        self.delta_bytes as f64 / self.full_bytes as f64
    }
}

/// Replays one traffic step, checking the engine's verdict.
fn apply(db: &mut Database, targets: &[MutationTarget], op: TrafficOp) {
    match op {
        TrafficOp::DeleteReinsert(i) => harness::commit_pair(db, &targets[i]),
        TrafficOp::Batch(i) => {
            let t = &targets[i];
            let n = db
                .apply_batch([
                    BatchOp::delete(t.table.clone(), t.row.clone()),
                    BatchOp::insert(t.table.clone(), t.row.clone()),
                ])
                .expect("netted batch commits");
            assert_eq!(n, 2, "batch changed {n} rows");
        }
        TrafficOp::RejectInsert(i) => {
            let t = &targets[i];
            assert!(
                db.insert(&t.table, t.reject_row.clone()).is_err(),
                "duplicate-key insert into {} was accepted",
                t.table
            );
        }
        TrafficOp::PointQuery(i) => {
            let t = &targets[i];
            let mut q = Query::from(t.table.as_str());
            q.filter = t.preds.clone();
            assert_eq!(db.select(&q).expect("point query").len(), 1);
        }
    }
}

fn run(target_rows: usize) -> Run {
    let sc = scenario::industrial_population(SEED, target_rows);
    let rows = scenario::rows_of(&sc.schema, &sc.state);
    let dir = harness::bench_dir(&format!("ckpt-scaling-{target_rows}"));
    let mut db = Database::open_with(
        Arc::new(StdIo),
        &dir,
        sc.schema,
        harness::durability(FsyncPolicy::GroupCommit { window_micros: 500 }),
    )
    .expect("open WAL store");
    let loaded = db.bulk_load(rows).expect("population loads");
    let targets = harness::pick_mutation_targets(&mut db, TARGETS);
    assert!(!targets.is_empty(), "no probe-able mutation target");

    db.checkpoint_full().expect("full checkpoint");
    let full = db.last_checkpoint_stats().expect("full checkpoint stats");
    let before = db.state().total_mutations();
    // Steps 200..300 of a 400-step plan: the churn window behind the
    // E-CKPT figures in EXPERIMENTS.md, so this run reproduces them.
    let plan = plan_traffic(SEED, 400, targets.len());
    for &op in &plan[200..300] {
        apply(&mut db, &targets, op);
    }
    let churn_rows = db.state().total_mutations() - before;
    db.checkpoint().expect("incremental checkpoint");
    let delta = db.last_checkpoint_stats().expect("delta checkpoint stats");
    assert_eq!(
        delta.kind,
        CheckpointKind::Delta,
        "post-churn checkpoint wrote a full snapshot ({} of {} extents)",
        delta.extents_written,
        delta.extents_total
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Run {
        rows: loaded,
        full_bytes: full.bytes,
        delta_bytes: delta.bytes,
        dirty_extents: delta.extents_written,
        total_extents: delta.extents_total,
        churn_rows,
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: industrial populations at 25k/100k rows"
)]
fn incremental_checkpoints_scale_with_churn_not_state() {
    let small = run(25_000);
    let large = run(100_000);
    for (which, r) in [("small", &small), ("large", &large)] {
        println!(
            "{which}: {} rows, full {} B, delta {} B, ratio {:.4}, {}/{} extents dirty \
             after {} churn row-ops",
            r.rows,
            r.full_bytes,
            r.delta_bytes,
            r.ratio(),
            r.dirty_extents,
            r.total_extents,
            r.churn_rows
        );
        assert!(
            r.full_bytes > 0 && r.delta_bytes > 0,
            "{which} run wrote an empty snapshot"
        );
        assert!(
            r.delta_bytes * 5 < r.full_bytes,
            "{which} delta wrote {} bytes, not under 20% of the {}-byte full snapshot",
            r.delta_bytes,
            r.full_bytes
        );
        assert!(
            r.dirty_extents <= r.churn_rows,
            "{which} delta rewrote {} extents for only {} churned row ops",
            r.dirty_extents,
            r.churn_rows
        );
    }
    assert!(
        large.rows >= 3 * small.rows,
        "large run loaded {} rows, need at least 3x the small run's {}",
        large.rows,
        small.rows
    );
    println!(
        "delta/full ratio {:.4} -> {:.4} ({:.2}x) as state grew {:.2}x",
        small.ratio(),
        large.ratio(),
        large.ratio() / small.ratio(),
        large.rows as f64 / small.rows as f64
    );
    assert!(
        large.ratio() <= 0.75 * small.ratio(),
        "delta/full ratio went {:.4} -> {:.4}: incremental checkpoints are tracking \
         state size, not churn",
        small.ratio(),
        large.ratio()
    );
}
