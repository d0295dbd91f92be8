//! The benchmark's inputs: the industrial schema, the RIDL-A/RIDL-M design
//! step, the seed-generated population, and the mutation targets and
//! operation plans every workload draws from.
//!
//! The BRM schema is the fixed industrial schema (synthesized from seed
//! 1989: 143 mapped tables, 583 constraints). The workload seed drives
//! the population's values, which rows become targets, and the order of
//! operations, so every seed gives inputs of the same shape and size.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ridl_brm::Schema;
use ridl_core::state_map::map_population;
use ridl_core::{map_schema, MappingOptions, MappingOutput};
use ridl_engine::{BatchOp, Database, Durability, FsyncPolicy, Pred, Query, StdIo};
use ridl_relational::{RelSchema, RelState, Row, TableId};
use ridl_server::json::{obj, Json};
use ridl_server::proto::{encode_rows, encode_value};
use ridl_sqlgen::{generate_for, DialectKind, GeneratedDdl};
use ridl_workloads::macrobench::{plan_traffic, TrafficOp};
use ridl_workloads::popgen::{self, PopParams};
use ridl_workloads::scenario;
use ridl_workloads::synth::{self, GenParams};

use crate::stats::nanos_since;
use crate::trace::Tracer;

/// Seed of the fixed industrial BRM schema (the paper's year).
const SCHEMA_SEED: u64 = 1989;
/// Targets accepted per table.
const TARGETS_PER_TABLE: usize = 2;
/// Rows probed per table while looking for targets.
const PROBES_PER_TABLE: usize = 32;
/// Operations per generated plan; plans repeat when a window outlasts them.
const PLAN_OPS: usize = 1 << 16;

/// Durability of every store the benchmark opens: group commit with a
/// 5 ms window, automatic (delta) checkpoints past 1 MiB of WAL.
///
/// With a 500 µs window about a fifth of `oltp`'s writes waited for an
/// fsync, and up to a third of the window's time went to the fsync
/// latency of the shared disk rather than to the program; it also put
/// `write_p50_us` near the edge between the fast writes and the slow
/// ones. At 5 ms about one write in fifty syncs.
pub fn durability() -> Durability {
    Durability {
        fsync: FsyncPolicy::GroupCommit {
            window_micros: 5_000,
        },
        checkpoint_every_bytes: Some(1 << 20),
    }
}

/// Opens (or recovers) a durable database in `dir`.
pub fn open_store(dir: &Path, schema: RelSchema) -> Result<Database, String> {
    Database::open_with(std::sync::Arc::new(StdIo), dir, schema, durability())
        .map_err(|e| format!("open store {}: {e}", dir.display()))
}

/// Work directories for stores and the trace file, under the build
/// directory of the checkout (`$CARGO_TARGET_DIR`, else `target`).
pub struct WorkDir {
    root: PathBuf,
    next: u32,
}

impl WorkDir {
    /// The work directory for one run of `workload`.
    pub fn new(workload: &str) -> Self {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        Self {
            root: base
                .join("bench-work")
                .join(format!("{workload}-{}", std::process::id())),
            next: 0,
        }
    }

    /// A fresh, empty store directory.
    pub fn fresh_store(&mut self) -> PathBuf {
        self.next += 1;
        let dir = self.root.join(format!("store-{}", self.next));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Where the traced run writes its spans.
    pub fn trace_file(&self, workload: &str, seed: u64) -> PathBuf {
        self.root
            .parent()
            .expect("work root has a parent")
            .join(format!("trace-{workload}-seed{seed}.jsonl"))
    }

    /// Removes every store of this run.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Total bytes of the files in a store directory.
pub fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One run of the design path: RIDL-A analysis, RIDL-M mapping and DDL
/// generation, each call timed.
pub struct Design {
    /// The mapping (relational schema, trace, state maps).
    pub out: MappingOutput,
    /// The generated SQL2 definition.
    pub ddl: GeneratedDdl,
    /// Nanoseconds of analysis, mapping and DDL generation.
    pub analyze_ns: u64,
    /// See `analyze_ns`.
    pub map_ns: u64,
    /// See `analyze_ns`.
    pub ddl_ns: u64,
}

impl Design {
    /// Wall time of the whole design path.
    pub fn total_ns(&self) -> u64 {
        self.analyze_ns + self.map_ns + self.ddl_ns
    }

    /// What must be identical across repeated designs of one schema.
    pub fn fingerprint(&self) -> (String, usize, usize, usize) {
        (
            self.ddl.text.clone(),
            self.out.rel.tables.len(),
            self.out.rel.constraints.len(),
            self.out.trace.steps().len(),
        )
    }
}

/// Runs the design path on `brm`.
pub fn design(brm: &Schema, tr: &mut Tracer) -> Result<Design, String> {
    let span = tr.begin("analyzer.analyze", 0);
    let t = Instant::now();
    let report = ridl_analyzer::analyze(brm);
    let analyze_ns = nanos_since(t);
    tr.end(span);
    if !report.is_mappable() {
        return Err("industrial schema is not mappable".to_owned());
    }
    let span = tr.begin("core.map", 0);
    let t = Instant::now();
    let out = map_schema(brm, &report.references, &MappingOptions::new())
        .map_err(|e| format!("mapping failed: {e}"))?;
    let map_ns = nanos_since(t);
    tr.end(span);
    let span = tr.begin("sqlgen.ddl", 0);
    let t = Instant::now();
    let ddl = generate_for(&out.rel, DialectKind::Sql2);
    let ddl_ns = nanos_since(t);
    tr.end(span);
    Ok(Design {
        out,
        ddl,
        analyze_ns,
        map_ns,
        ddl_ns,
    })
}

/// A row the workloads delete, re-insert, duplicate and look up, with
/// every request it needs pre-built (engine form and wire form).
pub struct Target {
    /// Table name.
    pub table: String,
    /// Primary-key predicates addressing the row.
    pub preds: Vec<Pred>,
    /// The row.
    pub row: Row,
    /// A distinct row with the same primary key, inserting which must
    /// fail; `None` when every column is a key column.
    pub reject_row: Option<Row>,
    /// Point query on the primary key.
    pub query: Query,
    /// Wire requests: delete, insert, batch, duplicate insert, query.
    pub wire: WireOps,
    /// The `rows` a correct wire query returns.
    pub wire_rows: Json,
}

/// Pre-serialized protocol request lines of one target.
pub struct WireOps {
    /// `delete` by primary key.
    pub delete: String,
    /// `insert` of the row.
    pub insert: String,
    /// `batch` of delete + insert.
    pub batch: String,
    /// `insert` of the duplicate-key row, if there is one.
    pub reject: Option<String>,
    /// `query` by primary key.
    pub query: String,
}

fn wire_row(row: &Row) -> Json {
    Json::Arr(row.iter().map(encode_value).collect())
}

impl Target {
    fn new(
        schema: &RelSchema,
        tid: TableId,
        pk: &[u32],
        row: Row,
        reject_row: Option<Row>,
    ) -> Self {
        let t = schema.table(tid);
        let preds: Vec<Pred> = pk
            .iter()
            .map(|&c| {
                Pred::Eq(
                    t.column(c).name.clone(),
                    row[c as usize].clone().expect("key columns are non-null"),
                )
            })
            .collect();
        let mut query = Query::from(t.name.as_str());
        query.filter = preds.clone();
        let table = Json::str(t.name.clone());
        let wire_where = Json::Arr(
            pk.iter()
                .map(|&c| {
                    obj([
                        ("col", Json::str(t.column(c).name.clone())),
                        ("eq", encode_value(&row[c as usize])),
                    ])
                })
                .collect(),
        );
        let line = |pairs: Vec<(&'static str, Json)>| obj(pairs).to_string();
        let wire = WireOps {
            delete: line(vec![
                ("cmd", Json::str("delete")),
                ("table", table.clone()),
                ("where", wire_where.clone()),
            ]),
            insert: line(vec![
                ("cmd", Json::str("insert")),
                ("table", table.clone()),
                ("row", wire_row(&row)),
            ]),
            batch: line(vec![
                ("cmd", Json::str("batch")),
                (
                    "ops",
                    Json::Arr(
                        ["delete", "insert"]
                            .into_iter()
                            .map(|op| {
                                obj([
                                    ("op", Json::str(op)),
                                    ("table", table.clone()),
                                    ("row", wire_row(&row)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            reject: reject_row.as_ref().map(|r| {
                line(vec![
                    ("cmd", Json::str("insert")),
                    ("table", table.clone()),
                    ("row", wire_row(r)),
                ])
            }),
            query: line(vec![
                ("cmd", Json::str("query")),
                ("table", table),
                ("where", wire_where),
            ]),
        };
        Self {
            table: t.name.clone(),
            wire_rows: encode_rows(std::slice::from_ref(&row)),
            preds,
            row,
            reject_row,
            query,
            wire,
        }
    }
}

/// Everything generated from the seed before any measurement.
pub struct Fixture {
    /// The industrial BRM schema.
    pub brm: Schema,
    /// Its mapped relational schema.
    pub schema: RelSchema,
    /// The population, and the same rows flattened for `bulk_load`.
    pub state: RelState,
    /// See `state`.
    pub rows: Vec<(TableId, Row)>,
    /// Mutation targets; deleting any subset of them together is legal.
    pub targets: Vec<Target>,
    /// The design run that produced `schema` (timed).
    pub design: Design,
}

impl Fixture {
    /// Generates the inputs for `seed` at roughly `target_rows` rows.
    pub fn generate(seed: u64, target_rows: usize, tr: &mut Tracer) -> Result<Self, String> {
        let synth = synth::generate(&GenParams::industrial(SCHEMA_SEED));
        let design = design(&synth.schema, tr)?;
        let instances = scenario::calibrate_instances(&synth, &design.out, target_rows);
        let pop = popgen::generate(
            &synth.schema,
            &PopParams {
                seed,
                instances_per_entity: instances,
                ..PopParams::default()
            },
        );
        let state = map_population(&design.out.schema, &design.out, &pop)
            .map_err(|e| format!("population does not map: {e:?}"))?;
        let schema = design.out.rel.clone();
        let rows = scenario::rows_of(&schema, &state);
        let targets = pick_targets(&schema, &state, seed)?;
        Ok(Self {
            brm: synth.schema,
            schema,
            state,
            rows,
            targets,
            design,
        })
    }

    /// The plan of connection `conn` out of `conns`: the
    /// `macrobench::plan_traffic` mix over the targets that connection
    /// owns (target `i` belongs to connection `i % conns`), as indices
    /// into [`Fixture::targets`].
    pub fn plan(&self, seed: u64, conn: usize, conns: usize) -> Vec<(TrafficOp, usize)> {
        let owned: Vec<usize> = (conn..self.targets.len()).step_by(conns).collect();
        let salt = (conn as u64).wrapping_mul(0x9E37_79B9);
        self.resolve(plan_traffic(seed ^ salt, PLAN_OPS, owned.len()), &owned)
    }

    /// The fixed tail a durability cycle commits: `ops` plan steps.
    pub fn tail(&self, seed: u64, ops: usize) -> Vec<(TrafficOp, usize)> {
        let all: Vec<usize> = (0..self.targets.len()).collect();
        self.resolve(plan_traffic(seed ^ 0x7A11, ops, all.len()), &all)
    }

    /// Maps plan steps onto `owned` targets. A duplicate-key insert drawn
    /// on a target without a duplicate-key row goes to the next owned
    /// target that has one, so the mix stays as planned.
    fn resolve(&self, plan: Vec<TrafficOp>, owned: &[usize]) -> Vec<(TrafficOp, usize)> {
        plan.into_iter()
            .map(|op| {
                let i = target_of(op);
                if !matches!(op, TrafficOp::RejectInsert(_)) {
                    return (op, owned[i]);
                }
                let t = (0..owned.len())
                    .map(|k| owned[(i + k) % owned.len()])
                    .find(|&t| self.targets[t].reject_row.is_some())
                    .expect("every connection owns a target with a duplicate-key row");
                (op, t)
            })
            .collect()
    }
}

/// The target index a plan step addresses.
fn target_of(op: TrafficOp) -> usize {
    match op {
        TrafficOp::DeleteReinsert(i)
        | TrafficOp::Batch(i)
        | TrafficOp::RejectInsert(i)
        | TrafficOp::PointQuery(i) => i,
    }
}

/// Picks up to two targets per table, probing seed-chosen rows on
/// in-memory copies of the population. A row qualifies when its table has
/// a primary key, its key columns are non-null, and deleting it is legal both from the full population and with every
/// target picked so far deleted too, so the targets of concurrent
/// connections never constrain each other. Both copies are restored and
/// checked before returning.
fn pick_targets(schema: &RelSchema, state: &RelState, seed: u64) -> Result<Vec<Target>, String> {
    let load = || -> Result<Database, String> {
        let mut db = Database::create(schema.clone()).map_err(|e| e.to_string())?;
        db.load_state(state.clone())
            .map_err(|e| format!("population violates its schema: {e}"))?;
        Ok(db)
    };
    // `full` keeps the whole population; `db` keeps every pick deleted.
    let mut full = load()?;
    let mut db = load()?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A56_E75E);
    let mut picked: Vec<(TableId, Vec<u32>, Row, Option<Row>)> = Vec::new();
    for (tid, t) in schema.tables() {
        let rows: Vec<Row> = state.rows(tid).iter().cloned().collect();
        if rows.len() < 2 {
            continue;
        }
        let Some(pk) = schema.primary_key_of(tid).map(<[u32]>::to_vec) else {
            continue;
        };
        let non_key = (0..t.arity() as u32).find(|c| !pk.contains(c));
        let mut found = 0;
        for _ in 0..PROBES_PER_TABLE.min(rows.len()) {
            if found == TARGETS_PER_TABLE {
                break;
            }
            let row = &rows[rng.gen_range(0..rows.len())];
            if pk.iter().any(|&c| row[c as usize].is_none())
                || picked.iter().any(|(p, _, r, _)| *p == tid && r == row)
            {
                continue;
            }
            // A distinct row with the same key: one non-key column set to
            // a value no row has there.
            let reject_row = non_key.and_then(|c| {
                let c = c as usize;
                rows.iter()
                    .map(|r| r[c].clone())
                    .chain([None])
                    .filter(|v| *v != row[c])
                    .map(|v| {
                        let mut r = row.clone();
                        r[c] = v;
                        r
                    })
                    .find(|r| !state.rows(tid).contains(r))
            });
            let delete = || [BatchOp::delete(t.name.clone(), row.clone())];
            let alone = full.apply_batch(delete()) == Ok(1);
            if alone {
                full.apply_batch([BatchOp::insert(t.name.clone(), row.clone())])
                    .map_err(|e| format!("re-inserting a probed row failed: {e}"))?;
            }
            if alone && db.apply_batch(delete()) == Ok(1) {
                picked.push((tid, pk.clone(), row.clone(), reject_row));
                found += 1;
            }
        }
    }
    let restore: Vec<BatchOp> = picked
        .iter()
        .map(|(tid, _, row, _)| BatchOp::insert(schema.table(*tid).name.clone(), row.clone()))
        .collect();
    db.apply_batch(restore)
        .map_err(|e| format!("re-inserting the targets failed: {e}"))?;
    if db.state() != state || full.state() != state {
        return Err("target probing did not restore the population".to_owned());
    }
    // Each connection of `serve` owns every other target; both need one
    // with a duplicate-key row.
    for parity in 0..2 {
        if !picked.iter().skip(parity).step_by(2).any(|p| p.3.is_some()) {
            return Err("too few mutation targets with a duplicate-key row".to_owned());
        }
    }
    Ok(picked
        .into_iter()
        .map(|(tid, pk, row, reject)| Target::new(schema, tid, &pk, row, reject))
        .collect())
}
