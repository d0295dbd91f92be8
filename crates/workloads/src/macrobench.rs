//! The deterministic mixed-traffic plan of the end-to-end benchmark.
//!
//! The module stays engine-free (so `ridl-workloads` keeps its thin
//! dependency cone): it produces a seeded sequence of [`TrafficOp`]
//! steps over a set of probed mutation targets, and its caller (the
//! repository's `benchmark/`, or a test) translates each step into
//! engine statements. Equal `(seed, ops, targets)` give equal plans (the
//! determinism regression suite asserts this).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of the mixed closed-loop traffic plan. The index selects one
/// of the driver's probed mutation targets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrafficOp {
    /// Delete the target row by primary key, then re-insert it — two
    /// committed statements through the delta-validation path.
    DeleteReinsert(usize),
    /// The same pair as one all-or-nothing `apply_batch` group (nets to
    /// zero, exercising batch netting and group commit).
    Batch(usize),
    /// Insert a row duplicating the target's primary key — the engine
    /// must reject it and roll back (validate + undo cost).
    RejectInsert(usize),
    /// A point query on the target row's primary key through the query
    /// executor.
    PointQuery(usize),
}

/// Builds the deterministic mixed traffic plan: `ops` steps over
/// `targets` probed mutation targets, roughly 40% delete+reinsert pairs,
/// 20% batches, 10% rejected inserts and 30% point queries.
pub fn plan_traffic(seed: u64, ops: usize, targets: usize) -> Vec<TrafficOp> {
    assert!(targets > 0, "traffic needs at least one mutation target");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51D1_BE9C);
    (0..ops)
        .map(|_| {
            let t = rng.gen_range(0..targets);
            match rng.gen_range(0..10u32) {
                0..=3 => TrafficOp::DeleteReinsert(t),
                4..=5 => TrafficOp::Batch(t),
                6 => TrafficOp::RejectInsert(t),
                _ => TrafficOp::PointQuery(t),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_plan_is_deterministic_and_mixed() {
        let a = plan_traffic(7, 500, 4);
        let b = plan_traffic(7, 500, 4);
        assert_eq!(a, b);
        assert!(a.iter().any(|o| matches!(o, TrafficOp::DeleteReinsert(_))));
        assert!(a.iter().any(|o| matches!(o, TrafficOp::Batch(_))));
        assert!(a.iter().any(|o| matches!(o, TrafficOp::PointQuery(_))));
        assert!(plan_traffic(8, 500, 4) != a, "seed changes the plan");
    }
}
