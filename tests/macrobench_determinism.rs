//! Determinism regression suite for the benchmark workloads: equal seeds
//! must give byte-equal schemas and states — including across validator
//! thread counts — so benchmark runs on different machines and commits
//! measure the same workload and stay comparable.

use ridl_core::{MappingOptions, Workbench};
use ridl_workloads::macrobench::{self, TrafficOp};
use ridl_workloads::scenario;
use ridl_workloads::synth::{self, GenParams};

/// `industrial_population` is a pure function of (seed, target_rows):
/// the schema renders byte-identically and the states compare equal.
#[test]
fn industrial_population_is_deterministic() {
    let a = scenario::industrial_population(1989, 800);
    let b = scenario::industrial_population(1989, 800);
    assert_eq!(
        format!("{:?}", a.schema),
        format!("{:?}", b.schema),
        "equal seeds must give byte-equal schemas"
    );
    assert_eq!(a.state, b.state, "equal seeds must give equal states");
    let c = scenario::industrial_population(7, 800);
    assert_ne!(
        format!("{:?}", a.schema),
        format!("{:?}", c.schema),
        "different seeds must actually vary the schema"
    );
}

/// Validation of the generated population is independent of the worker
/// count: byte-identical (empty) violation reports at 1 and N threads.
/// This is what makes the generator usable from parallel loaders without
/// perturbing the benchmark workload.
#[test]
fn population_validates_identically_across_thread_counts() {
    let sc = scenario::industrial_population(1989, 600);
    let one = ridl_relational::validate_with_workers(&sc.schema, &sc.state, 1);
    let many = ridl_relational::validate_with_workers(&sc.schema, &sc.state, 8);
    assert_eq!(one, many, "violation reports must not depend on threads");
    assert!(one.is_empty(), "the calibrated population is clean");
    let seq = ridl_relational::validate(&sc.schema, &sc.state);
    assert_eq!(one, seq, "parallel agrees with the sequential validator");
}

/// The traffic plan is a pure function of (seed, ops, targets).
#[test]
fn traffic_plan_is_deterministic() {
    let a = macrobench::plan_traffic(1989, 1_000, 8);
    let b = macrobench::plan_traffic(1989, 1_000, 8);
    assert_eq!(a, b);
    assert!(a.len() == 1_000);
    assert!(a.iter().any(|o| matches!(o, TrafficOp::DeleteReinsert(_))));
    assert!(a.iter().any(|o| matches!(o, TrafficOp::Batch(_))));
    assert!(a.iter().any(|o| matches!(o, TrafficOp::RejectInsert(_))));
    assert!(a.iter().any(|o| matches!(o, TrafficOp::PointQuery(_))));
    assert_ne!(macrobench::plan_traffic(7, 1_000, 8), a);
}

/// The calibration helpers the scenario and the benchmark share are
/// stable: same probe, same instance count, same state.
#[test]
fn calibration_is_stable() {
    let s = synth::generate(&GenParams::industrial(1989));
    let out = Workbench::new(s.schema.clone())
        .map(&MappingOptions::new())
        .expect("industrial schema maps");
    let n1 = scenario::calibrate_instances(&s, &out, 600);
    let n2 = scenario::calibrate_instances(&s, &out, 600);
    assert_eq!(n1, n2);
    assert!(n1 >= 1);
    let st1 = scenario::populate_instances(&s, &out, n1);
    let st2 = scenario::populate_instances(&s, &out, n1);
    assert_eq!(st1, st2);
}
