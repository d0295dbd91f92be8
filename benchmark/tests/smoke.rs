//! Tiny-scale smoke test of every workload in `BENCHMARK.json`, timed and
//! traced: every metric the file names is emitted, finite and tagged with
//! its unit, every correctness check passes, and no workload opens more
//! client threads or connections than the machine has cores.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use ridl_server::json::{parse, Json};

fn repo_file(name: &str) -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("metric field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// Runs one workload at tiny scale; returns the header line's counts and
/// the result object.
fn run(workload: &str, trace: u8) -> (Vec<usize>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_ridl-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--rows", "1500"])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let header: Vec<usize> = stdout
        .lines()
        .find(|l| l.starts_with("workload "))
        .expect("header line")
        .split_whitespace()
        .collect::<Vec<_>>()
        .windows(2)
        .filter(|w| ["nproc", "client_threads", "connections"].contains(&w[0]))
        .map(|w| w[1].parse().expect("count"))
        .collect();
    let last = stdout.lines().last().expect("result line");
    (header, parse(last).expect("result is JSON"))
}

#[test]
fn every_workload_emits_every_metric_correctly() {
    let spec = repo_file("../BENCHMARK.json");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    assert_eq!(workloads, ["oltp", "serve"]);
    for workload in &workloads {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let (header, result) = run(workload, trace);
            let [nproc, threads, connections] = header[..] else {
                panic!("header counts: {header:?}");
            };
            assert!(
                threads >= 1 && threads <= nproc,
                "{workload}: {threads} threads"
            );
            assert!(
                connections <= nproc,
                "{workload}: {connections} connections"
            );
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed"), Some(&Json::Int(0)), "{workload}");
            assert!(result.get("attempted").and_then(Json::as_i64) >= Some(1));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let expected = names(&spec, list);
            let emitted: BTreeSet<&String> = metrics.keys().collect();
            assert_eq!(
                emitted,
                expected.iter().map(|(n, _)| n).collect(),
                "{workload} trace {trace}"
            );
            for (name, unit) in &expected {
                let m = &metrics[name];
                let value = m.get("value").and_then(number).expect("numeric value");
                assert!(value.is_finite(), "{workload} {name} = {value}");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            }
        }
    }
}

#[test]
fn every_layer_metric_names_what_it_moves_and_where() {
    let spec = repo_file("../BENCHMARK.json");
    let layers = repo_file("layers.json");
    let e2e: BTreeSet<String> = names(&spec, "end_to_end")
        .into_iter()
        .map(|m| m.0)
        .collect();
    let workloads = ["oltp", "serve"];
    let Json::Obj(map) = &layers else {
        panic!("layers.json is an object");
    };
    let per_layer: BTreeSet<String> = names(&spec, "per_layer").into_iter().map(|m| m.0).collect();
    assert_eq!(map.keys().cloned().collect::<BTreeSet<_>>(), per_layer);
    for (name, entry) in map {
        let list = |k| entry.get(k).and_then(Json::as_arr).expect("list").to_vec();
        for m in list("moves") {
            assert!(
                e2e.contains(m.as_str().expect("name")),
                "{name} moves {m:?}"
            );
        }
        let on = list("on");
        assert!(!on.is_empty(), "{name} names no workload");
        for w in on {
            assert!(
                workloads.contains(&w.as_str().expect("name")),
                "{name} on {w:?}"
            );
        }
    }
}
