//! The `BENCH_<pr>.json` trajectory artifact: a schema-versioned summary
//! of one macro-benchmark run, written per PR so successive sessions (and
//! re-anchors) can read the performance trajectory of the repo without
//! re-running old builds.
//!
//! The writer lays the JSON out by hand, escaping and spelling numbers
//! through [`ridl_obs::json`]; [`validate_artifact`] is the matching
//! checker — the same codec's parser plus required-key and finite-number
//! rules — run by CI and by `ridl benchcheck`.

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

use ridl_obs::json::{or_null, parse, quote, Json};

/// Artifact schema version; bump when the layout changes shape.
///
/// v2 adds the `checkpoint` object (full-vs-incremental snapshot cost).
/// v3 adds the `wal_metrics` object (append/fsync/group-commit/recovery
/// observability counters) and emits `null` — not a misleading literal
/// `0` — for the percentile fields of block-timed phases that have no
/// per-unit latency distribution.
/// v4 adds the `server` object: the many-client closed-loop server bench
/// (sessions served, admission/backpressure rejects, client-observed
/// read/write latency, reader latency under a write burst, and the
/// cross-session commit-pipeline batch distribution). The validator still
/// accepts v1–v3 artifacts committed by earlier PRs.
pub const SCHEMA_VERSION: u64 = 4;

/// One timed phase of the macro run.
#[derive(Clone, PartialEq, Debug)]
pub struct PhaseStat {
    /// Phase name (`generate`, `map`, `populate`, `bulk_load`,
    /// `traffic`, `sigex`, `checkpoint`, `traffic_post_checkpoint`,
    /// `checkpoint_delta`, `traffic_post_delta`, `recover`).
    pub name: String,
    /// Wall-clock seconds for the whole phase.
    pub seconds: f64,
    /// Work units processed (rows, ops, tables… — see the phase name).
    pub units: u64,
    /// Units per second (zero when `seconds` is zero).
    pub per_second: f64,
    /// Median per-unit latency in nanoseconds; `None` (emitted as JSON
    /// `null`) when the phase was timed as a block rather than per unit —
    /// a block-timed phase has no latency distribution, and a literal `0`
    /// would read as "instant".
    pub p50_ns: Option<u64>,
    /// 90th-percentile per-unit latency (`None` for block-timed phases).
    pub p90_ns: Option<u64>,
    /// 99th-percentile per-unit latency (`None` for block-timed phases).
    pub p99_ns: Option<u64>,
}

impl PhaseStat {
    /// A block-timed phase (no per-unit latency distribution).
    pub fn block(name: &str, seconds: f64, units: u64) -> Self {
        Self {
            p50_ns: None,
            p90_ns: None,
            p99_ns: None,
            ..Self::with_quantiles(name, seconds, units, 0, 0, 0)
        }
    }

    /// A phase with per-unit latency quantiles.
    pub fn with_quantiles(
        name: &str,
        seconds: f64,
        units: u64,
        p50_ns: u64,
        p90_ns: u64,
        p99_ns: u64,
    ) -> Self {
        let per_second = if seconds > 0.0 {
            units as f64 / seconds
        } else {
            0.0
        };
        Self {
            name: name.to_owned(),
            seconds,
            units,
            per_second,
            p50_ns: Some(p50_ns),
            p90_ns: Some(p90_ns),
            p99_ns: Some(p99_ns),
        }
    }
}

/// Validation cost attributed to one constraint class over the traffic
/// and significant-example phases (from the obs per-kind counters; the
/// nanoseconds require the detail gate, which the driver turns on).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClassCost {
    /// Constraint-class name (`key`, `foreign_key`, …).
    pub class: &'static str,
    /// Checks run.
    pub checks: u64,
    /// Violations reported (rejected statements produce these).
    pub violations: u64,
    /// Nanoseconds spent checking.
    pub nanos: u64,
}

/// WAL replay statistics from the crash-recovery phase.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WalStats {
    /// Committed units replayed on reopen.
    pub replay_units: u64,
    /// Row operations replayed.
    pub replay_ops: u64,
    /// Replay throughput in row ops per second.
    pub replay_ops_per_sec: f64,
    /// WAL bytes on disk at the simulated crash.
    pub bytes: u64,
}

/// WAL/checkpoint observability counters from the traffic phases (schema
/// v3): what the durability instrumentation recorded while the macro
/// run's commits flowed through the engine. Latency fields come from the
/// detail-gated `wal.fsync` histogram and are zero when the driver ran
/// without the detail gate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WalMetrics {
    /// WAL units appended (`wal.appends` counter).
    pub appends: u64,
    /// Bytes appended (`wal.append_bytes` counter).
    pub append_bytes: u64,
    /// fsync calls from the commit path (`wal.fsyncs` counter).
    pub fsyncs: u64,
    /// Checkpoints written (`wal.checkpoints` counter).
    pub checkpoints: u64,
    /// Median group-commit batch size (commits per fsync, from the
    /// `wal.group_batch` histogram).
    pub group_batch_p50: u64,
    /// Largest group-commit batch observed.
    pub group_batch_max: u64,
    /// 99th-percentile fsync latency in nanoseconds (detail gate only).
    pub fsync_p99_ns: u64,
}

/// The many-client closed-loop server benchmark (schema v4): N sessions
/// over the wire protocol against one `ridl-server` instance, mixed
/// read/write traffic, a deliberate admission-control overload wave, and
/// a write burst with concurrent latency-probing readers.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ServerSummary {
    /// Total client sessions served (connect → hello → … → disconnect).
    pub sessions: u64,
    /// Peak concurrently admitted sessions.
    pub peak_sessions: u64,
    /// Connections rejected by admission control during the overload
    /// wave (`session.reject` / `server.admission_rejects`).
    pub admission_rejects: u64,
    /// Requests rejected by backpressure (in-flight or queue limits).
    pub busy_rejects: u64,
    /// Read statements served from published snapshots.
    pub reads: u64,
    /// Write statements committed through the pipeline.
    pub writes: u64,
    /// Correctness violations observed by the closed loop: a failed
    /// expected-ok statement, a non-monotonic snapshot version, a
    /// connection neither admitted nor cleanly rejected, or a final row
    /// count that disagrees with the acknowledged writes. Must be zero.
    pub anomalies: u64,
    /// Wall-clock seconds for the whole server bench.
    pub seconds: f64,
    /// Reads + writes per wall-clock second.
    pub ops_per_sec: f64,
    /// Client-observed read latency, median.
    pub read_p50_ns: u64,
    /// Client-observed read latency, 99th percentile.
    pub read_p99_ns: u64,
    /// Client-observed write (commit-acknowledged) latency, median.
    pub write_p50_ns: u64,
    /// Client-observed write latency, 99th percentile.
    pub write_p99_ns: u64,
    /// Reader-observed p99 latency *during the write burst* — the
    /// snapshot-read isolation evidence (readers never block on the
    /// writer).
    pub burst_read_p99_ns: u64,
    /// Median commit-pipeline batch size (concurrent writers coalesced
    /// per WAL fsync; >1 under concurrent write load).
    pub commit_batch_p50: u64,
    /// Largest commit-pipeline batch observed.
    pub commit_batch_max: u64,
}

/// Full-vs-incremental checkpoint cost from the macro run (schema v2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CheckpointSummary {
    /// Bytes of the full (base) v2 snapshot.
    pub full_bytes: u64,
    /// Wall-clock seconds to write the full snapshot.
    pub full_seconds: f64,
    /// Bytes of the incremental (delta) snapshot taken after churn.
    pub delta_bytes: u64,
    /// Wall-clock seconds to write the delta.
    pub delta_seconds: f64,
    /// Extents the delta rewrote.
    pub dirty_extents: u64,
    /// Extents in the full geometry.
    pub total_extents: u64,
    /// Row operations committed between the two checkpoints.
    pub churn_rows: u64,
}

/// The complete per-PR benchmark artifact.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchArtifact {
    /// PR number this artifact belongs to (`BENCH_<pr>.json`).
    pub pr: u64,
    /// Seed of the run.
    pub seed: u64,
    /// Requested approximate row count.
    pub target_rows: u64,
    /// Rows actually loaded by `bulk_load`.
    pub rows_loaded: u64,
    /// Mapped tables in the schema.
    pub tables: u64,
    /// Generated constraints in the schema.
    pub constraints: u64,
    /// Timed phases, in execution order.
    pub phases: Vec<PhaseStat>,
    /// Per-constraint-class validation cost.
    pub per_class: Vec<ClassCost>,
    /// WAL replay statistics.
    pub wal: WalStats,
    /// Crash-recovery wall-clock seconds (from the engine's always-on
    /// recovery timer).
    pub recovery_seconds: f64,
    /// Verified significant examples exercised against the engine.
    pub sigex_examples: u64,
    /// Constraint classes those examples covered.
    pub sigex_classes: Vec<&'static str>,
    /// Checkpoint cost summary (required at [`SCHEMA_VERSION`] 2).
    pub checkpoint: Option<CheckpointSummary>,
    /// WAL observability counters (required at [`SCHEMA_VERSION`] 3).
    pub wal_metrics: Option<WalMetrics>,
    /// Many-client server bench (required at [`SCHEMA_VERSION`] 4).
    pub server: Option<ServerSummary>,
}

impl BenchArtifact {
    /// Renders the artifact as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        s.push_str(&format!("  \"pr\": {},\n", self.pr));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"target_rows\": {},\n", self.target_rows));
        s.push_str(&format!("  \"rows_loaded\": {},\n", self.rows_loaded));
        s.push_str(&format!("  \"tables\": {},\n", self.tables));
        s.push_str(&format!("  \"constraints\": {},\n", self.constraints));
        s.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": {}, \"seconds\": {}, \"units\": {}, \"per_second\": {}, \
                 \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}{}\n",
                quote(&p.name),
                Json::Float(p.seconds),
                p.units,
                Json::Float(p.per_second),
                or_null(p.p50_ns),
                or_null(p.p90_ns),
                or_null(p.p99_ns),
                if i + 1 < self.phases.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"per_class\": [\n");
        for (i, c) in self.per_class.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"class\": {}, \"checks\": {}, \"violations\": {}, \"nanos\": {}}}{}\n",
                quote(c.class),
                c.checks,
                c.violations,
                c.nanos,
                if i + 1 < self.per_class.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"wal\": {{\"replay_units\": {}, \"replay_ops\": {}, \"replay_ops_per_sec\": {}, \
             \"bytes\": {}}},\n",
            self.wal.replay_units,
            self.wal.replay_ops,
            Json::Float(self.wal.replay_ops_per_sec),
            self.wal.bytes,
        ));
        s.push_str(&format!(
            "  \"recovery\": {{\"seconds\": {}}},\n",
            Json::Float(self.recovery_seconds)
        ));
        if let Some(c) = &self.checkpoint {
            s.push_str(&format!(
                "  \"checkpoint\": {{\"full_bytes\": {}, \"full_seconds\": {}, \
                 \"delta_bytes\": {}, \"delta_seconds\": {}, \"dirty_extents\": {}, \
                 \"total_extents\": {}, \"churn_rows\": {}}},\n",
                c.full_bytes,
                Json::Float(c.full_seconds),
                c.delta_bytes,
                Json::Float(c.delta_seconds),
                c.dirty_extents,
                c.total_extents,
                c.churn_rows,
            ));
        }
        if let Some(w) = &self.wal_metrics {
            s.push_str(&format!(
                "  \"wal_metrics\": {{\"appends\": {}, \"append_bytes\": {}, \"fsyncs\": {}, \
                 \"checkpoints\": {}, \"group_batch_p50\": {}, \"group_batch_max\": {}, \
                 \"fsync_p99_ns\": {}}},\n",
                w.appends,
                w.append_bytes,
                w.fsyncs,
                w.checkpoints,
                w.group_batch_p50,
                w.group_batch_max,
                w.fsync_p99_ns,
            ));
        }
        if let Some(v) = &self.server {
            s.push_str(&format!(
                "  \"server\": {{\"sessions\": {}, \"peak_sessions\": {}, \
                 \"admission_rejects\": {}, \"busy_rejects\": {}, \"reads\": {}, \
                 \"writes\": {}, \"anomalies\": {}, \"server_seconds\": {}, \
                 \"server_ops_per_sec\": {}, \"read_p50_ns\": {}, \"read_p99_ns\": {}, \
                 \"write_p50_ns\": {}, \"write_p99_ns\": {}, \"burst_read_p99_ns\": {}, \
                 \"commit_batch_p50\": {}, \"commit_batch_max\": {}}},\n",
                v.sessions,
                v.peak_sessions,
                v.admission_rejects,
                v.busy_rejects,
                v.reads,
                v.writes,
                v.anomalies,
                Json::Float(v.seconds),
                Json::Float(v.ops_per_sec),
                v.read_p50_ns,
                v.read_p99_ns,
                v.write_p50_ns,
                v.write_p99_ns,
                v.burst_read_p99_ns,
                v.commit_batch_p50,
                v.commit_batch_max,
            ));
        }
        s.push_str(&format!(
            "  \"sigex\": {{\"examples\": {}, \"classes\": [{}]}}\n",
            self.sigex_examples,
            self.sigex_classes
                .iter()
                .map(|c| quote(c).to_string())
                .collect::<Vec<_>>()
                .join(", "),
        ));
        s.push_str("}\n");
        s
    }

    /// Writes the artifact to `path` (the JSON is validated first, so a
    /// buggy writer fails loudly instead of committing a bad artifact).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let text = self.to_json();
        validate_artifact(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, text)
    }
}

// ---- the validator: the codec's parser plus key and number rules ----

/// Keys that must appear somewhere in a valid artifact.
const REQUIRED_KEYS: [&str; 25] = [
    "schema_version",
    "pr",
    "seed",
    "target_rows",
    "rows_loaded",
    "tables",
    "constraints",
    "phases",
    "name",
    "seconds",
    "units",
    "per_second",
    "p50_ns",
    "p90_ns",
    "p99_ns",
    "per_class",
    "class",
    "checks",
    "violations",
    "nanos",
    "wal",
    "replay_units",
    "replay_ops",
    "replay_ops_per_sec",
    "bytes",
];

/// Keys the `checkpoint` object must carry at schema v2 and later.
const CHECKPOINT_KEYS: [&str; 7] = [
    "full_bytes",
    "full_seconds",
    "delta_bytes",
    "delta_seconds",
    "dirty_extents",
    "total_extents",
    "churn_rows",
];

/// Keys the `wal_metrics` object must carry at schema v3 and later.
const WAL_METRICS_KEYS: [&str; 8] = [
    "wal_metrics",
    "appends",
    "append_bytes",
    "fsyncs",
    "checkpoints",
    "group_batch_p50",
    "group_batch_max",
    "fsync_p99_ns",
];

/// Keys the `server` object must carry at schema v4 and later. The
/// seconds/ops keys are prefixed so they don't collide with the phase
/// keys already in [`REQUIRED_KEYS`] (the validator checks key presence
/// document-wide, so a bare `"seconds"` here would always pass).
const SERVER_KEYS: [&str; 17] = [
    "server",
    "sessions",
    "peak_sessions",
    "admission_rejects",
    "busy_rejects",
    "reads",
    "writes",
    "anomalies",
    "server_seconds",
    "server_ops_per_sec",
    "read_p50_ns",
    "read_p99_ns",
    "write_p50_ns",
    "write_p99_ns",
    "burst_read_p99_ns",
    "commit_batch_p50",
    "commit_batch_max",
];

/// The key set each schema version added, in version order: a v`n`
/// artifact must carry the first `n` sets. Sized by [`SCHEMA_VERSION`],
/// so bumping the version without adding its keys does not compile.
const SCHEMA_KEYS: [(&str, &[&str]); SCHEMA_VERSION as usize] = [
    ("required", &REQUIRED_KEYS),
    ("checkpoint", &CHECKPOINT_KEYS),
    ("wal_metrics", &WAL_METRICS_KEYS),
    ("server", &SERVER_KEYS),
];

/// Validates the text of a `BENCH_*.json` artifact and returns its parsed
/// tree: it must be a single well-formed JSON object, every number must
/// be finite, its `schema_version` must be 1 to [`SCHEMA_VERSION`], and every
/// key that version requires must appear somewhere in the document. The
/// `phases` and `per_class` arrays must be non-empty: their inner keys
/// are in the required set, so an empty array fails the key check.
pub fn validate_artifact(text: &str) -> Result<Json, String> {
    let doc = parse(text)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("artifact must be a JSON object".to_owned());
    }
    let mut keys = BTreeSet::new();
    collect_keys(&doc, &mut keys)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("artifact carries no schema_version number")? as u64;
    let groups = match version {
        1..=SCHEMA_VERSION => &SCHEMA_KEYS[..version as usize],
        _ => return Err(format!("unsupported artifact schema_version {version}")),
    };
    for (group, required) in groups {
        if let Some(key) = required.iter().find(|k| !keys.contains(*k)) {
            return Err(format!(
                "schema v{version} artifact missing {group} key \"{key}\""
            ));
        }
    }
    Ok(doc)
}

/// Collects every object key in `v`, rejecting non-finite numbers.
fn collect_keys<'a>(v: &'a Json, keys: &mut BTreeSet<&'a str>) -> Result<(), String> {
    match v {
        Json::Float(x) if !x.is_finite() => Err(format!("non-finite number {x}")),
        Json::Arr(items) => items.iter().try_for_each(|item| collect_keys(item, keys)),
        Json::Obj(map) => map.iter().try_for_each(|(k, v)| {
            keys.insert(k);
            collect_keys(v, keys)
        }),
        _ => Ok(()),
    }
}

/// A number from a parsed artifact: `key` at the top level, else inside
/// the `checkpoint` object.
pub fn extract_number(artifact: &Json, key: &str) -> Option<f64> {
    artifact
        .get(key)
        .or_else(|| artifact.get("checkpoint")?.get(key))
        .and_then(Json::as_f64)
}

/// Asserts that incremental checkpoints scale with *churn*, not with
/// *state size*, across two artifacts from the same traffic plan at
/// different row counts:
///
/// 1. both runs wrote non-empty full and delta snapshots;
/// 2. the large run holds at least 3x the rows of the small one (the
///    ratio test below needs real separation between the scales);
/// 3. when a run is at real scale (`target_rows >= 20_000`) its delta is
///    under 20% of its full snapshot — the acceptance bound;
/// 4. in both runs the delta rewrote at most `churn_rows` extents: the
///    unit of rewrite is the dirtied extent, and churn touches at most
///    one extent per committed row op, so a dirty count above it means
///    the tracking rewrote state it didn't have to;
/// 5. the delta/full byte ratio must *shrink* as state grows (to at most
///    3/4 of the small run's ratio): the churn is the same at both
///    scales, so a delta tracking state keeps a constant ratio while a
///    churn-bound delta's share of the snapshot falls away.
///
/// Absolute delta bytes are deliberately not compared: with only a
/// handful of hot rows, extent quantization (a dirtied extent rewrites
/// all ~128 of its rows) lets the byte count creep with scale even
/// though the rewrite is churn-bound; the ratio and the dirty-extent
/// count are the quantization-immune observables.
pub fn check_checkpoint_scaling(small: &str, large: &str) -> Result<(), String> {
    let small = validate_artifact(small).map_err(|e| format!("small artifact: {e}"))?;
    let large = validate_artifact(large).map_err(|e| format!("large artifact: {e}"))?;
    let get = |doc: &Json, key: &str, which: &str| {
        extract_number(doc, key).ok_or(format!("{which} artifact has no \"{key}\" number"))
    };
    let mut ratios = [0.0f64; 2];
    for (i, (doc, which)) in [(&small, "small"), (&large, "large")]
        .into_iter()
        .enumerate()
    {
        let full = get(doc, "full_bytes", which)?;
        let delta = get(doc, "delta_bytes", which)?;
        if full <= 0.0 || delta <= 0.0 {
            return Err(format!(
                "{which} run wrote an empty snapshot (full {full} bytes, delta {delta} bytes)"
            ));
        }
        if get(doc, "target_rows", which)? >= 20_000.0 && delta >= 0.20 * full {
            return Err(format!(
                "{which} delta wrote {delta} bytes, not under 20% of the {full}-byte full snapshot"
            ));
        }
        let dirty = get(doc, "dirty_extents", which)?;
        let churn = get(doc, "churn_rows", which)?;
        if dirty > churn {
            return Err(format!(
                "{which} delta rewrote {dirty} extents for only {churn} churned row ops — \
                 incremental checkpoints are tracking state size, not churn"
            ));
        }
        ratios[i] = delta / full;
    }
    let small_rows = get(&small, "rows_loaded", "small")?;
    let large_rows = get(&large, "rows_loaded", "large")?;
    if large_rows < 3.0 * small_rows {
        return Err(format!(
            "large run loaded {large_rows} rows, need at least 3x the small run's {small_rows}"
        ));
    }
    let [small_ratio, large_ratio] = ratios;
    if large_ratio > 0.75 * small_ratio {
        return Err(format!(
            "delta/full ratio went {small_ratio:.4} -> {large_ratio:.4} as state grew \
             {:.2}x — incremental checkpoints are tracking state size, not churn",
            large_rows / small_rows
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchArtifact {
        BenchArtifact {
            pr: 7,
            seed: 1989,
            target_rows: 1000,
            rows_loaded: 1042,
            tables: 130,
            constraints: 410,
            phases: vec![
                PhaseStat::block("generate", 0.5, 1),
                PhaseStat::with_quantiles("traffic", 1.25, 200, 10_000, 20_000, 40_000),
            ],
            per_class: vec![ClassCost {
                class: "key",
                checks: 123,
                violations: 4,
                nanos: 55_000,
            }],
            wal: WalStats {
                replay_units: 100,
                replay_ops: 200,
                replay_ops_per_sec: 12_345.6,
                bytes: 4096,
            },
            recovery_seconds: 0.012,
            sigex_examples: 3,
            sigex_classes: vec!["key", "foreign_key"],
            checkpoint: Some(CheckpointSummary {
                full_bytes: 500_000,
                full_seconds: 0.05,
                delta_bytes: 40_000,
                delta_seconds: 0.004,
                dirty_extents: 12,
                total_extents: 140,
                churn_rows: 220,
            }),
            wal_metrics: Some(WalMetrics {
                appends: 200,
                append_bytes: 51_200,
                fsyncs: 200,
                checkpoints: 2,
                group_batch_p50: 1,
                group_batch_max: 4,
                fsync_p99_ns: 0,
            }),
            server: Some(ServerSummary {
                sessions: 1000,
                peak_sessions: 48,
                admission_rejects: 17,
                busy_rejects: 0,
                reads: 6000,
                writes: 3000,
                anomalies: 0,
                seconds: 2.5,
                ops_per_sec: 3600.0,
                read_p50_ns: 80_000,
                read_p99_ns: 400_000,
                write_p50_ns: 250_000,
                write_p99_ns: 900_000,
                burst_read_p99_ns: 350_000,
                commit_batch_p50: 3,
                commit_batch_max: 14,
            }),
        }
    }

    #[test]
    fn artifact_roundtrips_through_validator() {
        let text = sample().to_json();
        validate_artifact(&text).expect("writer output validates");
    }

    #[test]
    fn validator_rejects_missing_keys_and_bad_json() {
        let text = sample().to_json();
        let broken = text.replace("\"recovery\"", "\"recouvery\"");
        // "recovery" is not in REQUIRED_KEYS but malformed JSON is caught.
        validate_artifact(&broken).expect("key rename still parses");
        let no_wal = text.replace("\"wal\"", "\"lawl\"");
        assert!(validate_artifact(&no_wal).is_err(), "missing wal key");
        assert!(validate_artifact("{").is_err(), "truncated");
        assert!(validate_artifact(&format!("{text} x")).is_err(), "trailing");
        let inf = text.replace("12345.6", "1e999");
        assert!(validate_artifact(&inf).is_err(), "non-finite number");
    }

    #[test]
    fn empty_phase_array_fails_required_keys() {
        let mut a = sample();
        a.phases.clear();
        assert!(validate_artifact(&a.to_json()).is_err());
    }

    #[test]
    fn older_schema_versions_still_validate() {
        let mut a = sample();
        a.checkpoint = None;
        let no_ckpt = a.to_json();
        assert!(
            validate_artifact(&no_ckpt).is_err(),
            "a v4 artifact must carry the checkpoint object"
        );
        let v1 = no_ckpt.replace("\"schema_version\": 4", "\"schema_version\": 1");
        validate_artifact(&v1).expect("legacy v1 layout validates");
        let v9 = no_ckpt.replace("\"schema_version\": 4", "\"schema_version\": 9");
        assert!(validate_artifact(&v9).is_err(), "unknown version rejected");

        // v2: checkpoint object present, no wal_metrics, numeric zero
        // percentiles — the exact shape of committed BENCH_7/BENCH_8.
        let mut b = sample();
        b.wal_metrics = None;
        b.server = None;
        let no_metrics = b.to_json();
        assert!(
            validate_artifact(&no_metrics).is_err(),
            "a v4 artifact must carry the wal_metrics object"
        );
        let v2 = no_metrics
            .replace("\"schema_version\": 4", "\"schema_version\": 2")
            .replace("\"p50_ns\": null", "\"p50_ns\": 0")
            .replace("\"p90_ns\": null", "\"p90_ns\": 0")
            .replace("\"p99_ns\": null", "\"p99_ns\": 0");
        validate_artifact(&v2).expect("legacy v2 layout validates");

        // v3: wal_metrics present, no server object — the exact shape of
        // the committed BENCH_9.
        let mut c = sample();
        c.server = None;
        let no_server = c.to_json();
        assert!(
            validate_artifact(&no_server).is_err(),
            "a v4 artifact must carry the server object"
        );
        let v3 = no_server.replace("\"schema_version\": 4", "\"schema_version\": 3");
        validate_artifact(&v3).expect("legacy v3 layout validates");
    }

    #[test]
    fn block_phases_emit_null_percentiles() {
        let text = sample().to_json();
        // The block-timed `generate` phase has no latency distribution.
        assert!(
            text.contains("\"name\": \"generate\", \"seconds\": 0.5, \"units\": 1, \"per_second\": 2, \"p50_ns\": null, \"p90_ns\": null, \"p99_ns\": null"),
            "{text}"
        );
        // The per-unit `traffic` phase keeps its numbers.
        assert!(text.contains("\"p50_ns\": 10000"), "{text}");
        validate_artifact(&text).expect("null percentiles validate at v4");
    }

    #[test]
    fn extract_number_reads_scalars() {
        let doc = validate_artifact(&sample().to_json()).unwrap();
        assert_eq!(extract_number(&doc, "full_bytes"), Some(500_000.0));
        assert_eq!(extract_number(&doc, "rows_loaded"), Some(1042.0));
        assert_eq!(extract_number(&doc, "no_such_key"), None);
    }

    #[test]
    fn scaling_check_accepts_churn_bound_deltas_and_rejects_state_bound() {
        let small = sample().to_json();
        let mut big = sample();
        let c = big.checkpoint.as_mut().unwrap();
        // 4x the state: full grows 4x, delta stays put (pure churn).
        big.rows_loaded *= 4;
        big.target_rows = 100_000;
        c.full_bytes *= 4;
        c.total_extents *= 4;
        check_checkpoint_scaling(&small, &big.to_json()).expect("churn-bound delta passes");

        // A delta that keeps pace with the state is a tracking bug.
        let mut bad = big.clone();
        bad.checkpoint.as_mut().unwrap().delta_bytes *= 4;
        let err = check_checkpoint_scaling(&small, &bad.to_json()).unwrap_err();
        assert!(err.contains("tracking state size"), "got: {err}");

        // At real scale the 20% acceptance bound applies.
        let mut fat = big.clone();
        fat.checkpoint.as_mut().unwrap().delta_bytes = fat.checkpoint.unwrap().full_bytes / 4;
        assert!(check_checkpoint_scaling(&small, &fat.to_json()).is_err());

        // Comparable row counts are not a scaling experiment.
        assert!(check_checkpoint_scaling(&small, &small).is_err());
    }
}
