//! Ready-made experiment scenarios: mapped schemas with consistent
//! populations at a requested scale.
//!
//! The benches (and the differential test suites) all need the same
//! artefact — the industrial-scale synthetic schema mapped through RIDL-M,
//! plus a valid relational state of roughly *N* rows. The row count per
//! generated instance depends on the schema's shape, so the builder
//! calibrates on a small probe population first and scales the instance
//! count from there.

use ridl_core::state_map::map_population;
use ridl_core::{MappingOptions, Workbench};
use ridl_relational::{RelSchema, RelState};

use crate::popgen::{self, PopParams};
use crate::synth::{self, GenParams};

/// An industrial-scale mapped schema plus a valid population state.
pub struct MappedPopulation {
    /// The generated relational schema (with its full constraint set).
    pub schema: RelSchema,
    /// A constraint-satisfying state of approximately the requested size.
    pub state: RelState,
}

/// Rows-per-instance calibration: probes the mapped schema with two
/// instances per entity and returns the instance count whose mapped state
/// lands at roughly `target_rows` rows. Deterministic in its inputs —
/// shared by [`industrial_population`] and the end-to-end benchmark.
pub fn calibrate_instances(
    s: &synth::SynthSchema,
    out: &ridl_core::MappingOutput,
    target_rows: usize,
) -> usize {
    let probe = popgen::generate(
        &s.schema,
        &PopParams {
            instances_per_entity: 2,
            ..PopParams::default()
        },
    );
    let probe_rows = map_population(&out.schema, out, &probe)
        .expect("probe state maps")
        .num_rows()
        .max(1);
    let per_instance = probe_rows as f64 / 2.0;
    ((target_rows as f64 / per_instance).ceil() as usize).max(1)
}

/// Generates a population at `instances` instances per entity and maps it
/// through the schema's forwards state map. Deterministic: equal inputs
/// give byte-equal states.
pub fn populate_instances(
    s: &synth::SynthSchema,
    out: &ridl_core::MappingOutput,
    instances: usize,
) -> RelState {
    let pop = popgen::generate(
        &s.schema,
        &PopParams {
            instances_per_entity: instances,
            ..PopParams::default()
        },
    );
    map_population(&out.schema, out, &pop).expect("state maps")
}

/// Builds the industrial mapped schema (120–150 tables band) with a state
/// of roughly `target_rows` rows. Deterministic in `seed`: equal inputs
/// give byte-equal schemas and states.
pub fn industrial_population(seed: u64, target_rows: usize) -> MappedPopulation {
    let s = synth::generate(&GenParams::industrial(seed));
    let wb = Workbench::new(s.schema.clone());
    let out = wb
        .map(&MappingOptions::new())
        .expect("industrial schema maps");
    let instances = calibrate_instances(&s, &out, target_rows);
    let state = populate_instances(&s, &out, instances);
    MappedPopulation {
        schema: out.rel,
        state,
    }
}

/// Maps an arbitrary synthetic schema with a fixed-size population — the
/// small-schema sibling of [`industrial_population`], used by the
/// differential test suites to vary schema shape per proptest case.
/// Deterministic: equal inputs give byte-equal schemas and states.
pub fn mapped_population(params: &GenParams, instances_per_entity: usize) -> MappedPopulation {
    let s = synth::generate(params);
    let wb = Workbench::new(s.schema.clone());
    let out = wb
        .map(&MappingOptions::new())
        .expect("synthetic schema maps");
    let pop = popgen::generate(
        &s.schema,
        &PopParams {
            instances_per_entity,
            ..PopParams::default()
        },
    );
    let state = map_population(&out.schema, &out, &pop).expect("state maps");
    MappedPopulation {
        schema: out.rel,
        state,
    }
}

/// Flattens a state into `(table, row)` pairs in table order — the input
/// shape of the engine's `bulk_load`.
pub fn rows_of(
    schema: &RelSchema,
    state: &RelState,
) -> Vec<(ridl_relational::TableId, ridl_relational::Row)> {
    schema
        .tables()
        .flat_map(|(tid, _)| state.rows(tid).iter().map(move |r| (tid, r.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ridl_relational::validate;

    #[test]
    fn scenario_states_are_valid_and_calibrated() {
        let sc = industrial_population(7, 1_000);
        assert!(validate(&sc.schema, &sc.state).is_empty());
        let n = sc.state.num_rows();
        // Calibration lands within a factor of the target.
        assert!((500..=4_000).contains(&n), "calibrated to {n} rows");
        let pairs = rows_of(&sc.schema, &sc.state);
        assert_eq!(pairs.len(), n);
    }
}
