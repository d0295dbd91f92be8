//! The two workloads. Each runs in its own process: set-up (repeated, for
//! `setup_s`), the measuring window, the closing lifecycle cycles, and —
//! in the traced run — the per-layer probes.
//!
//! Both are closed loops: a client sends its next operation only after
//! the previous one completed. `oltp` has one client thread and no
//! connection; `serve` has two client threads with one connection each.
//!
//! Every run reports every end-to-end metric: the traffic metrics from
//! the window, and the lifecycle metrics (design, load, checkpoint,
//! recovery, space) from the lifecycle cycles that close each run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ridl_engine::Database;
use ridl_server::{Client, Server, ServerConfig};
use ridl_workloads::macrobench::TrafficOp;

use crate::cycle::{self, Checks, Cycle, Instruments, LoadProbes};
use crate::fixture::{design, open_store, Design, Fixture, WorkDir};
use crate::ops::{engine_step, wire_step, Tally};
use crate::stats::{median, nanos_since, settle_disk, Latencies};
use crate::trace::{SliceRec, Tracer, Window};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Lifecycle cycles after the window; the first runs its durability
/// cycle on the window's own store.
const CLOSING_CYCLES: usize = 10;
/// Design runs per closing cycle. The more samples a run has, the
/// likelier its fastest one falls in a fast spell of the host (see
/// [`Phases`]); the 100 ms repeats are cheap.
const DESIGN_REPS: usize = 3;
/// Plan steps in a durability cycle's committed tail (at full scale).
const TAIL_OPS: usize = 512;
/// Requests and calls per latency probe of the traced run.
const STATUS_PROBES: usize = 500;
const SNAPSHOT_PROBES: usize = 200;
const COW_PAIRS: usize = 64;
/// Connections (and client threads) of `serve`.
const SERVE_CONNECTIONS: usize = 2;

/// The eight constraint classes the industrial mapping generates, with
/// the per-layer metric of each.
const CLASSES: [(ridl_obs::ConstraintClass, &str); 8] = {
    use ridl_obs::ConstraintClass::*;
    [
        (Structure, "relational.structure.ns_per_write"),
        (Key, "relational.key.ns_per_write"),
        (ForeignKey, "relational.foreign_key.ns_per_write"),
        (Frequency, "relational.frequency.ns_per_write"),
        (EqualityView, "relational.equality_view.ns_per_write"),
        (SubsetView, "relational.subset_view.ns_per_write"),
        (ExclusionView, "relational.exclusion_view.ns_per_write"),
        (RowLocal, "relational.row_local.ns_per_write"),
    ]
};

/// Command-line parameters of one run.
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the window measures.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Approximate population size.
    pub rows: usize,
}

/// A metric value with the number of raw samples behind it.
pub struct Value {
    /// The value.
    pub value: f64,
    /// Samples it summarises (1 for a single reading).
    pub samples: usize,
}

/// What a run produced.
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, Value>,
    /// Operations and checks attempted, and those that failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Client threads and connections the workload opened.
    pub client_threads: usize,
    /// See `client_threads`.
    pub connections: usize,
    /// Spans of the traced run.
    pub trace: Tracer,
}

#[derive(Default)]
struct Metrics(BTreeMap<&'static str, Value>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, Value { value, samples });
    }

    fn median_of(&mut self, name: &'static str, values: &[f64]) {
        if let Some(v) = median(values) {
            self.set(name, v, values.len());
        }
    }

    /// The lowest of `values`, or the highest unless `lower`.
    fn best_of(&mut self, name: &'static str, values: &[f64], lower: bool) {
        let pick = if lower { f64::min } else { f64::max };
        if let Some(v) = values.iter().copied().reduce(pick) {
            self.set(name, v, values.len());
        }
    }

    fn ns_as_ms(&mut self, name: &'static str, ns: &[f64]) {
        let ms: Vec<f64> = ns.iter().map(|n| n / 1e6).collect();
        self.median_of(name, &ms);
    }

    fn ns_as_us(&mut self, name: &'static str, ns: &[f64]) {
        let us: Vec<f64> = ns.iter().map(|n| n / 1e3).collect();
        self.median_of(name, &us);
    }

    /// The exact `q`-quantile of `l` in microseconds.
    fn quantile(&mut self, name: &'static str, l: &Latencies, q: f64) {
        if let Some(v) = l.quantile_us(q) {
            self.set(name, v, l.len());
        }
    }
}

/// Samples of the lifecycle phases, whichever workload ran them.
///
/// Their end-to-end metrics report the best sample of the run. The
/// phases are deterministic work, but a shared host may alternate
/// between a fast and a slow speed every few seconds. The median of a
/// run's samples then depends on how many land in the slow spells; the
/// fastest sample does not, and a change to the program slows every
/// sample, the fastest too. See the README for the measured spreads.
#[derive(Default)]
struct Phases {
    design_ms: Vec<f64>,
    /// Analysis, mapping and DDL nanoseconds of every design run.
    design_parts: Vec<(f64, f64, f64)>,
    load_rows_per_s: Vec<f64>,
    checkpoint_ns: Vec<f64>,
    recover_ns: Vec<f64>,
    /// Store bytes, rows and full-checkpoint bytes of the latest cycle.
    space: Option<(u64, usize, u64)>,
}

/// Shared state of one run.
struct Run<'a> {
    p: &'a Params,
    work: WorkDir,
    checks: Checks,
    tr: Tracer,
    m: Metrics,
    probes: LoadProbes,
    phases: Phases,
    origin: Instant,
}

impl<'a> Run<'a> {
    fn new(p: &'a Params, workload: &str) -> Self {
        let origin = Instant::now();
        let mut tr = Tracer::new(origin, 0);
        tr.active = p.trace;
        Self {
            p,
            work: WorkDir::new(workload),
            checks: Checks::default(),
            tr,
            m: Metrics::default(),
            probes: LoadProbes::default(),
            phases: Phases::default(),
            origin,
        }
    }

    /// Records a design run.
    fn record_design(&mut self, d: &Design) {
        self.phases.design_ms.push(d.total_ns() as f64 / 1e6);
        self.phases
            .design_parts
            .push((d.analyze_ns as f64, d.map_ns as f64, d.ddl_ns as f64));
    }

    /// Opens a fresh store and bulk-loads the population into it.
    fn load(
        &mut self,
        fx: &Fixture,
        schema: ridl_relational::RelSchema,
    ) -> Result<(Database, PathBuf), String> {
        let dir = self.work.fresh_store();
        let rows = fx.rows.clone();
        let mut db = open_store(&dir, schema)?;
        let span = self.tr.begin("engine.bulk_load", 0);
        let t = Instant::now();
        let loaded = db
            .bulk_load(rows)
            .map_err(|e| format!("bulk_load rejected the population: {e}"))?;
        let load_ns = nanos_since(t);
        self.tr.end(span);
        self.phases
            .load_rows_per_s
            .push(loaded as f64 / (load_ns.max(1) as f64 / 1e9));
        self.checks.check(
            loaded == fx.state.num_rows(),
            "bulk_load loaded every generated row",
        );
        Ok((db, dir))
    }

    /// The set-up of `oltp` and `serve`: inputs, then a loaded store.
    fn engine_setup(&mut self) -> Result<(Fixture, Database, PathBuf), String> {
        let fx = Fixture::generate(self.p.seed, self.p.rows, &mut self.tr)?;
        self.record_design(&fx.design);
        let (db, dir) = self.load(&fx, fx.schema.clone())?;
        Ok((fx, db, dir))
    }

    /// Lifecycle steps 1 and 2: the design path, then `bulk_load` of the
    /// population into a fresh store under the schema it produced.
    fn design_and_load(&mut self, fx: &Fixture) -> Result<(Database, PathBuf), String> {
        let mut last = None;
        for _ in 0..DESIGN_REPS {
            let d = design(&fx.brm, &mut self.tr)?;
            self.record_design(&d);
            self.checks.check(
                d.fingerprint() == fx.design.fingerprint(),
                "the design output is identical across runs",
            );
            last = Some(d);
        }
        let d = last.expect("at least one design run");
        settle_disk();
        self.load(fx, d.out.rel.clone())
    }

    /// Lifecycle steps 3 to 6 on `db`: see [`cycle::run`].
    fn durability(
        &mut self,
        db: Database,
        dir: &Path,
        fx: &Fixture,
        probe: bool,
    ) -> Result<Cycle, String> {
        // Small populations get a shorter tail, so that the mid-tail
        // checkpoint still dirties few enough extents to be a delta.
        let tail = fx.tail(self.p.seed, TAIL_OPS.min(fx.state.num_rows() / 32));
        let mut ins = Instruments {
            tr: &mut self.tr,
            probes: probe.then_some(&mut self.probes),
        };
        let c = cycle::run(db, dir, fx, &tail, &mut self.checks, &mut ins)?;
        self.phases
            .checkpoint_ns
            .extend_from_slice(&c.checkpoint_ns);
        self.phases.recover_ns.push(c.recover_ns);
        self.phases.space = Some((c.store_bytes, c.rows, c.checkpoint_bytes));
        Ok(c)
    }

    /// The closing lifecycle cycles: a durability cycle on the window's
    /// store (checking that it recovers), then full cycles — design,
    /// `bulk_load` into a fresh store, durability cycle.
    fn closing(&mut self, db: Database, dir: PathBuf, fx: &Fixture) -> Result<(), String> {
        let probe = self.p.trace;
        let c = self.durability(db, &dir, fx, probe)?;
        drop(c.db);
        let _ = std::fs::remove_dir_all(&dir);
        for _ in 1..CLOSING_CYCLES {
            let (db, dir) = self.design_and_load(fx)?;
            let c = self.durability(db, &dir, fx, probe)?;
            drop(c.db);
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(())
    }

    /// The metrics of the lifecycle phases.
    fn phase_metrics(&mut self, setup_s: &[f64]) {
        let ph = std::mem::take(&mut self.phases);
        self.m.median_of("setup_s", setup_s);
        let ms = |ns: &[f64]| -> Vec<f64> { ns.iter().map(|n| n / 1e6).collect() };
        self.m.best_of("design_ms", &ph.design_ms, true);
        self.m
            .best_of("load_rows_per_s", &ph.load_rows_per_s, false);
        self.m
            .best_of("checkpoint_ms", &ms(&ph.checkpoint_ns), true);
        self.m.best_of("recover_ms", &ms(&ph.recover_ns), true);
        if let Some((bytes, rows, ckpt_bytes)) = ph.space {
            let rows = rows.max(1) as f64;
            self.m.set("store_bytes_per_row", bytes as f64 / rows, 1);
            self.m.set(
                "durable.checkpoint_bytes_per_row",
                ckpt_bytes as f64 / rows,
                1,
            );
        }
        let part = |f: fn(&(f64, f64, f64)) -> f64| -> Vec<f64> {
            ph.design_parts.iter().map(f).collect()
        };
        self.m.ns_as_ms("analyzer.analyze_ms", &part(|p| p.0));
        self.m.ns_as_ms("core.map_ms", &part(|p| p.1));
        self.m.ns_as_ms("sqlgen.ddl_ms", &part(|p| p.2));
    }

    /// The traced run's engine probes on `db`: rows a point query
    /// examines, snapshot publication, and a write with and without a
    /// live snapshot sharing its table.
    fn engine_probes(&mut self, db: &mut Database, fx: &Fixture) {
        let mut examined = Vec::new();
        for t in &fx.targets {
            let ex = db.explain(&t.query);
            self.checks.check(
                ex.as_ref().is_ok_and(|e| e.rows_out == 1),
                "explain of a point query returns one row",
            );
            if let Ok(ex) = ex {
                let scanned: usize = ex
                    .steps
                    .iter()
                    .filter(|s| s.op == "scan")
                    .map(|s| s.rows_out)
                    .sum();
                examined.push(scanned as f64);
            }
        }
        let mean = examined.iter().sum::<f64>() / examined.len().max(1) as f64;
        self.m
            .set("engine.rows_examined_per_read", mean, examined.len());

        let mut publish = Vec::new();
        for v in 0..SNAPSHOT_PROBES as u64 {
            let span = self.tr.begin("engine.snapshot_at", v);
            let t = Instant::now();
            let snap = db.snapshot_at(v);
            publish.push(nanos_since(t) as f64);
            self.tr.end(span);
            drop(snap);
        }
        self.m.ns_as_us("engine.snapshot_publish_us", &publish);

        let (mut plain, mut cow) = (Vec::new(), Vec::new());
        for k in 0..COW_PAIRS {
            let t = &fx.targets[k % fx.targets.len()];
            let tid = fx
                .schema
                .table_by_name(&t.table)
                .expect("target table exists");
            for shared in [false, true] {
                let snap = shared.then(|| db.snapshot());
                let name = if shared {
                    "engine.cow_write"
                } else {
                    "engine.plain_write"
                };
                let span = self.tr.begin(name, k as u64);
                let start = Instant::now();
                let deleted = db.delete_where(&t.table, &t.preds);
                let inserted = db.insert(&t.table, t.row.clone());
                let ns = nanos_since(start);
                self.tr.end(span);
                if let Some(s) = &snap {
                    self.checks.check(
                        s.state().rows(tid).contains(&t.row),
                        "a live snapshot keeps its rows across writes",
                    );
                }
                self.checks.check(
                    deleted == Ok(1) && inserted.is_ok(),
                    "a probe delete+reinsert commits",
                );
                if shared { &mut cow } else { &mut plain }.push(ns as f64);
            }
        }
        self.m.ns_as_us("engine.plain_write_us", &plain);
        self.m.ns_as_us("engine.cow_write_us", &cow);
        self.m.set(
            "transform.steps",
            fx.design.out.trace.steps().len() as f64,
            1,
        );
    }

    /// Per-layer metrics of the load-path probes the traced durability
    /// cycles made.
    fn load_path_metrics(&mut self) {
        let p = std::mem::take(&mut self.probes);
        self.m.ns_as_ms("durable.read_store_ms", &p.read_store_ns);
        self.m.ns_as_ms("engine.load_state_ms", &p.load_state_ns);
        self.m
            .ns_as_ms("relational.index_build_ms", &p.index_build_ns);
        self.m
            .ns_as_ms("relational.validate_full_ms", &p.validate_ns);
        let replay_rate = p.replay_ops as f64 / (p.replay_ns.max(1) as f64 / 1e9);
        self.m.set(
            "durable.replay_ops_per_s",
            replay_rate,
            p.replay_ops as usize,
        );
    }

    /// Status round trips on `c`.
    fn status_rtt(&mut self, c: &mut Client) {
        let mut rtt = Vec::new();
        for i in 0..STATUS_PROBES {
            let span = self.tr.begin("server.status", i as u64);
            let t = Instant::now();
            let r = c.send_raw("{\"cmd\":\"status\"}");
            rtt.push(nanos_since(t) as f64);
            self.tr.end(span);
            self.checks
                .check(r.is_ok_and(|r| Client::is_ok(&r)), "status answers ok");
        }
        self.m.ns_as_us("server.status_rtt_us", &rtt);
    }

    /// Status round trips against a probe server on an empty in-memory
    /// database, for the workloads that run no server of their own.
    fn probe_server_rtt(&mut self, fx: &Fixture) -> Result<(), String> {
        let db = Database::create(fx.schema.clone()).map_err(|e| e.to_string())?;
        let server = Server::start(db, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("probe server: {e}"))?;
        let mut c = Client::connect(&server.addr().to_string()).map_err(|e| e.to_string())?;
        self.status_rtt(&mut c);
        drop(c);
        server
            .shutdown()
            .map_err(|e| format!("probe server shutdown: {e}"))?;
        Ok(())
    }

    /// Per-layer metrics from the program's counters diffed over the
    /// traced part of the window, per write the traced part made.
    fn window_layers(&mut self, c: &ridl_obs::MetricsSnapshot, traced: &Tally) {
        let n = traced.writes.len();
        let per_write = |v: u64| v as f64 / n.max(1) as f64;
        let checks: u64 = CLASSES.iter().map(|&(k, _)| c.kind(k).checks).sum();
        let nanos: u64 = CLASSES.iter().map(|&(k, _)| c.kind(k).nanos).sum();
        self.m
            .set("relational.checks_per_write", per_write(checks), n);
        self.m
            .set("relational.validate_ns_per_write", per_write(nanos), n);
        for (k, name) in CLASSES {
            self.m.set(name, per_write(c.kind(k).nanos), n);
        }
        let fsyncs = c.counter("wal.fsyncs");
        self.m.set(
            "durable.wal_bytes_per_write",
            per_write(c.counter("wal.append_bytes")),
            n,
        );
        self.m.set("durable.fsyncs_per_write", per_write(fsyncs), n);
        self.m.set(
            "durable.auto_checkpoints",
            c.counter("wal.checkpoints") as f64,
            1,
        );
        // Zero where the workload runs no server.
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let batches = c.counter("server.commit_batches");
        let server_writes = c.counter("server.writes");
        self.m.set(
            "server.writes_per_batch",
            ratio(c.counter("server.commit_batch_ops"), batches),
            batches as usize,
        );
        self.m.set(
            "server.fsyncs_per_write",
            ratio(fsyncs, server_writes),
            server_writes as usize,
        );
    }

    /// Throughput and latency of a window's operations.
    fn traffic_metrics(&mut self, all: &Tally, rate: f64) {
        self.m.set("ops_per_s", rate, all.ops as usize);
        // No p99 among the metrics: both tails spread past any bound the
        // benchmark may set between runs on a shared host (see the
        // README). The read tail is printed for reference only.
        self.m.quantile("write_p50_us", &all.writes, 0.5);
        self.m.quantile("read_p50_us", &all.reads, 0.5);
        if let Some(p99) = all.reads.quantile_us(0.99) {
            println!("unbounded read_p99_us {p99} us samples {}", all.reads.len());
        }
    }

    fn overhead(&mut self, untraced_rate: f64, traced_rate: f64) {
        self.m.set(
            "obs.trace_overhead_pct",
            (untraced_rate / traced_rate - 1.0) * 100.0,
            1,
        );
    }

    fn finish(mut self, ops: &Tally, client_threads: usize, connections: usize) -> Outcome {
        self.m.set("peak_rss_mb", peak_rss_mb(), 1);
        let attempted = ops.ops + self.checks.attempted;
        let failed = ops.failed + self.checks.failed;
        self.m.set(
            "ok_share",
            1.0 - failed as f64 / attempted.max(1) as f64,
            attempted as usize,
        );
        self.work.cleanup();
        Outcome {
            metrics: self.m.0,
            attempted,
            failed,
            client_threads,
            connections,
            trace: self.tr,
        }
    }
}

/// Ends set-up: settles the disk (see [`settle_disk`]) and
/// starts the span `peak_rss_mb` covers (see [`reset_peak_rss`]).
fn end_setup() {
    settle_disk();
    reset_peak_rss();
}

/// Starts the span `peak_rss_mb` covers at the end of set-up: returns the
/// memory set-up freed to the OS and resets the kernel's high-water mark
/// to the current resident set. Without this the peak depends on how
/// set-up's garbage happened to fragment across malloc arenas, which
/// differs between identical runs by up to 15%.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` is glibc's call to return free heap pages
        // to the OS; it takes a plain integer and is safe to call at any
        // time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets the peak resident set (see proc(5), clear_refs).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Step<C> = fn(&mut C, &Fixture, (TrafficOp, usize), u64, &mut Tally, &mut Tracer);

/// Runs the closed loop of one client until the window ends; returns the
/// untraced and traced slices' tallies.
fn drive<C>(
    window: &Window,
    client: &mut C,
    fx: &Fixture,
    plan: &[(TrafficOp, usize)],
    tr: &mut Tracer,
    step: Step<C>,
) -> [Tally; 2] {
    let mut tallies = [Tally::default(), Tally::default()];
    for (i, &op) in plan.iter().cycle().enumerate() {
        let Some(slice) = window.admit() else {
            break;
        };
        tr.active = slice.traced;
        let tally = &mut tallies[usize::from(slice.traced)];
        step(client, fx, op, i as u64, tally, tr);
        tally.count_in_slice(slice.index);
    }
    tr.active = false;
    tallies
}

/// Checks the final state against the client-side model: every target
/// not left deleted by its client is present, the rest are absent, and
/// nothing else changed.
fn check_model(checks: &mut Checks, db: &Database, fx: &Fixture, all: &Tally) {
    let mut expected = fx.state.clone();
    for &ti in &all.absent {
        let t = &fx.targets[ti];
        let tid = fx
            .schema
            .table_by_name(&t.table)
            .expect("target table exists");
        expected.remove(tid, &t.row);
    }
    checks.check(
        *db.state() == expected,
        "the final state matches the client-side model",
    );
}

/// What a window measured.
struct WindowResult {
    all: Tally,
    traced: Tally,
    counters: ridl_obs::MetricsSnapshot,
    /// Median operations per second of the untraced slices.
    rate: f64,
}

/// Median operations per second of the slices whose traced flag is
/// `traced`.
fn slice_rate(slices: &[SliceRec], all: &Tally, traced: bool) -> f64 {
    let rates: Vec<f64> = slices
        .iter()
        .filter(|r| r.slice.traced == traced && r.active_s > 0.0)
        .map(|r| {
            let ops = all.per_slice.get(r.slice.index).copied().unwrap_or(0);
            ops as f64 / r.active_s
        })
        .collect();
    median(&rates).unwrap_or(0.0)
}

/// Drives `clients` through `plans` concurrently, one thread each, while
/// this thread coordinates the window.
fn run_window<C: Send>(
    run: &mut Run,
    fx: &Fixture,
    clients: &mut [C],
    plans: &[Vec<(TrafficOp, usize)>],
    step: Step<C>,
) -> WindowResult {
    let window = Window::new(run.p.seconds, run.p.trace, clients.len());
    let origin = run.origin;
    let (results, (slices, counters)) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plans)
            .enumerate()
            .map(|(i, (c, plan))| {
                let window = &window;
                s.spawn(move || {
                    let mut tr = Tracer::new(origin, 1 + i as u32);
                    let r = drive(window, c, fx, plan, &mut tr, step);
                    (r, tr)
                })
            })
            .collect();
        let coordinated = window.coordinate();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, coordinated)
    });
    let (mut untraced, mut traced) = (Tally::default(), Tally::default());
    for ([u, t], tr) in results {
        untraced.merge(&u);
        traced.merge(&t);
        run.tr.absorb(tr);
    }
    let mut all = Tally::default();
    all.merge(&untraced);
    all.merge(&traced);
    if run.p.trace {
        let untraced_rate = slice_rate(&slices, &all, false);
        run.overhead(untraced_rate, slice_rate(&slices, &all, true));
    }
    WindowResult {
        rate: slice_rate(&slices, &all, false),
        all,
        traced,
        counters,
    }
}

/// The steps after a window: metrics, the traced run's probes, and the
/// closing cycles.
fn after_window(
    mut run: Run,
    w: &WindowResult,
    mut db: Database,
    dir: PathBuf,
    fx: &Fixture,
    setup_s: &[f64],
) -> Result<Outcome, String> {
    if run.p.trace {
        run.window_layers(&w.counters, &w.traced);
        run.engine_probes(&mut db, fx);
    } else {
        run.traffic_metrics(&w.all, w.rate);
    }
    run.closing(db, dir, fx)?;
    run.phase_metrics(setup_s);
    if run.p.trace {
        run.load_path_metrics();
    }
    Ok(run.finish(&w.all, 1, 0))
}

fn engine_client(
    db: &mut Database,
    fx: &Fixture,
    op: (TrafficOp, usize),
    i: u64,
    out: &mut Tally,
    tr: &mut Tracer,
) {
    engine_step(db, &fx.targets, op, i, out, tr);
}

fn wire_client(
    c: &mut Client,
    fx: &Fixture,
    op: (TrafficOp, usize),
    i: u64,
    out: &mut Tally,
    tr: &mut Tracer,
) {
    wire_step(c, &fx.targets, op, i, out, tr);
}

/// `oltp`: one in-process client on a WAL store.
pub fn oltp(p: &Params) -> Result<Outcome, String> {
    let mut run = Run::new(p, "oltp");
    let mut setup_s = Vec::new();
    let mut built: Option<(Fixture, Database, PathBuf)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, db, dir)) = built.take() {
            drop(db);
            let _ = std::fs::remove_dir_all(dir);
        }
        let t = Instant::now();
        built = Some(run.engine_setup()?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (fx, db, dir) = built.expect("at least one set-up");
    end_setup();
    let plans = [fx.plan(p.seed, 0, 1)];
    let mut clients = [db];
    let w = run_window(&mut run, &fx, &mut clients, &plans, engine_client);
    let [db] = clients;
    check_model(&mut run.checks, &db, &fx, &w.all);
    if p.trace {
        run.probe_server_rtt(&fx)?;
    }
    after_window(run, &w, db, dir, &fx, &setup_s)
}

/// `serve`: two connections to an in-process server on a WAL store.
pub fn serve(p: &Params) -> Result<Outcome, String> {
    let mut run = Run::new(p, "serve");
    let mut setup_s = Vec::new();
    let mut built: Option<(Fixture, Server, Vec<Client>, PathBuf)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, server, clients, dir)) = built.take() {
            drop(clients);
            drop(
                server
                    .shutdown()
                    .map_err(|e| format!("server shutdown: {e}"))?,
            );
            let _ = std::fs::remove_dir_all(dir);
        }
        let t = Instant::now();
        let (fx, db, dir) = run.engine_setup()?;
        let server = Server::start(db, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr().to_string();
        let mut clients = Vec::new();
        for i in 0..SERVE_CONNECTIONS {
            let mut c = Client::connect(&addr).map_err(|e| e.to_string())?;
            let hello = c.hello(&format!("bench-{i}")).map_err(|e| e.to_string())?;
            run.checks.check(Client::is_ok(&hello), "hello answers ok");
            clients.push(c);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((fx, server, clients, dir));
    }
    let (fx, server, mut clients, dir) = built.expect("at least one set-up");
    let plans: Vec<_> = (0..SERVE_CONNECTIONS)
        .map(|c| fx.plan(p.seed, c, SERVE_CONNECTIONS))
        .collect();
    end_setup();
    let w = run_window(&mut run, &fx, &mut clients, &plans, wire_client);
    if p.trace {
        run.status_rtt(&mut clients[0]);
    }
    drop(clients);
    let db = server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    check_model(&mut run.checks, &db, &fx, &w.all);
    let mut out = after_window(run, &w, db, dir, &fx, &setup_s)?;
    out.client_threads = SERVE_CONNECTIONS;
    out.connections = SERVE_CONNECTIONS;
    Ok(out)
}
