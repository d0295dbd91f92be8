//! The RIDL* benchmark: two workloads over one seed-generated
//! industrial population (143 mapped tables, 583 generated constraints,
//! about 106k rows).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload oltp|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! (the separate traced run) every per-layer metric. Each metric is
//! printed on its own line with unit and sample count, and the last line
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--rows N` shrinks the population for smoke tests.

mod cycle;
mod fixture;
mod ops;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use workloads::{Outcome, Params};

/// End-to-end metrics, measured with tracing off: name and unit.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "ops/s"),
    ("write_p50_us", "us"),
    ("read_p50_us", "us"),
    ("design_ms", "ms"),
    ("load_rows_per_s", "rows/s"),
    ("checkpoint_ms", "ms"),
    ("recover_ms", "ms"),
    ("store_bytes_per_row", "B/row"),
];

/// Per-layer metrics of the traced run: name and unit.
const PER_LAYER: [(&str, &str); 31] = [
    ("relational.checks_per_write", "count"),
    ("relational.validate_ns_per_write", "ns"),
    ("relational.structure.ns_per_write", "ns"),
    ("relational.key.ns_per_write", "ns"),
    ("relational.foreign_key.ns_per_write", "ns"),
    ("relational.frequency.ns_per_write", "ns"),
    ("relational.equality_view.ns_per_write", "ns"),
    ("relational.subset_view.ns_per_write", "ns"),
    ("relational.exclusion_view.ns_per_write", "ns"),
    ("relational.row_local.ns_per_write", "ns"),
    ("engine.rows_examined_per_read", "rows"),
    ("engine.snapshot_publish_us", "us"),
    ("engine.cow_write_us", "us"),
    ("engine.plain_write_us", "us"),
    ("durable.wal_bytes_per_write", "B"),
    ("durable.fsyncs_per_write", "count"),
    ("durable.auto_checkpoints", "count"),
    ("durable.checkpoint_bytes_per_row", "B/row"),
    ("durable.read_store_ms", "ms"),
    ("durable.replay_ops_per_s", "ops/s"),
    ("server.status_rtt_us", "us"),
    ("server.writes_per_batch", "count"),
    ("server.fsyncs_per_write", "count"),
    ("analyzer.analyze_ms", "ms"),
    ("core.map_ms", "ms"),
    ("sqlgen.ddl_ms", "ms"),
    ("transform.steps", "count"),
    ("relational.index_build_ms", "ms"),
    ("relational.validate_full_ms", "ms"),
    ("engine.load_state_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

const USAGE: &str = "usage: ridl-benchmark --workload oltp|serve --seed N \
                     --seconds S --trace 0|1 [--rows N]";

struct Args {
    workload: String,
    params: Params,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut params = Params {
        seed: 1989,
        seconds: 10.0,
        trace: false,
        rows: 100_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => params.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                params.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(params.seconds > 0.0 && params.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--rows" => params.rows = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        params,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let p = &args.params;
    let result = match args.workload.as_str() {
        "oltp" => workloads::oltp(p),
        "serve" => workloads::serve(p),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(outcome) => report(&args.workload, p, outcome),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints one line per metric, then the result object as the last line.
/// Fails when any output was wrong or any named metric is missing.
fn report(workload: &str, p: &Params, outcome: Outcome) -> ExitCode {
    let nproc = cycle::workers();
    println!(
        "workload {workload} seed {} trace {} nproc {nproc} client_threads {} connections {}",
        p.seed,
        u8::from(p.trace),
        outcome.client_threads,
        outcome.connections
    );
    let wanted: &[(&str, &str)] = if p.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = outcome.failed == 0;
    let mut json = String::new();
    for (name, unit) in wanted {
        let Some(v) = outcome.metrics.get(name).filter(|v| v.value.is_finite()) else {
            eprintln!("metric {name} was not measured");
            correct = false;
            continue;
        };
        println!("metric {name} {} {unit} samples {}", v.value, v.samples);
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            v.value
        );
    }
    if p.trace {
        for (layer, count, ns) in outcome.trace.layer_self_times() {
            println!(
                "span_self_time {layer} {:.3} ms over {count} spans",
                ns as f64 / 1e6
            );
        }
        let file = fixture::WorkDir::new(workload).trace_file(workload, p.seed);
        match outcome.trace.write_jsonl(&file) {
            Ok(()) => println!("spans written to {}", file.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", file.display()),
        }
    }
    if outcome.client_threads > nproc || outcome.connections > nproc {
        eprintln!("the workload used more client threads or connections than nproc");
        correct = false;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
