//! End-to-end tests of the span tracing subsystem: the full pipeline under
//! tracing, the Chrome-trace export/validator roundtrip, and the histogram
//! merge property.
//!
//! The span collector and the tracing flag are process-global, so every
//! test that enables tracing serialises on [`TRACE_LOCK`] and drains the
//! collector before and after.

use std::sync::Mutex;

use proptest::prelude::*;
use ridl_core::{MappingOptions, Workbench};
use ridl_obs::Histogram;
use ridl_workloads::cris;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// The process-wide histogram registry, as read by one test.
type Histograms = Vec<(&'static str, Histogram)>;

/// Runs `f` with tracing enabled and a clean collector; returns the
/// recorded events and the histogram registry. Both are read before
/// [`TRACE_LOCK`] is released: a sibling test clears the registry as
/// soon as it takes the lock.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<ridl_obs::SpanEvent>, u64, Histograms) {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    ridl_obs::span::clear();
    ridl_obs::hist::clear_histograms();
    ridl_obs::set_tracing(true);
    let out = f();
    ridl_obs::set_tracing(false);
    let (events, dropped) = ridl_obs::span::take_events();
    (out, events, dropped, ridl_obs::histograms_snapshot())
}

/// The CRIS pipeline end to end: analyze, map, generate SQL, load into the
/// engine — then assert the span tree covers every stage.
fn run_pipeline() -> ridl_core::MappingOutput {
    let wb = Workbench::new(cris::schema());
    let out = wb.map(&MappingOptions::new()).expect("CRIS maps");
    let _ddl = ridl_sqlgen::generate_for(&out.rel, ridl_sqlgen::DialectKind::Sql2);
    let pop = cris::population(wb.schema());
    let state =
        ridl_core::state_map::map_population(&out.schema, &out, &pop).expect("population maps");
    let mut db = ridl_engine::Database::create(out.rel.clone()).expect("engine opens");
    db.load_state(state).expect("CRIS state is valid");
    out
}

#[test]
fn pipeline_spans_cover_every_stage() {
    let ((out, rendered), events, dropped, hists) =
        traced(|| (run_pipeline(), ridl_obs::render_histograms()));
    assert_eq!(dropped, 0, "pipeline fits the collector");
    let names: Vec<&str> = events.iter().map(|e| e.name).collect();
    // RIDL-A: the pass spans nest under the analyze span.
    for pass in [
        "analyzer.analyze",
        "analyzer.reference",
        "analyzer.correctness",
        "analyzer.completeness",
        "analyzer.setalg",
        "analyzer.referability",
    ] {
        assert!(names.contains(&pass), "missing span {pass}: {names:?}");
    }
    // RIDL-M: one annotation span per applied transformation.
    let applies = names.iter().filter(|n| **n == "transform.apply").count();
    assert_eq!(
        applies,
        out.trace.steps().len(),
        "one transform.apply span per trace step"
    );
    assert!(names.contains(&"ridlm.map"));
    assert!(names.contains(&"sqlgen.generate"));
    // Engine enforcement: statement, validation and per-class checks.
    assert!(names.contains(&"engine.load_state"), "{names:?}");
    assert!(names.contains(&"validate.full"), "{names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("validate.")
            && *n != "validate.full"
            && *n != "validate.load"
            && *n != "validate.delta"),
        "per-constraint-class spans present: {names:?}"
    );
    // Parent links form a forest over recorded ids.
    let ids: std::collections::HashSet<u64> = events.iter().map(|e| e.id).collect();
    for e in &events {
        if let Some(p) = e.parent {
            assert!(ids.contains(&p), "span {} has unknown parent {p}", e.name);
        }
    }
    // The analyzer passes are children of analyzer.analyze.
    let analyze_id = events
        .iter()
        .find(|e| e.name == "analyzer.analyze")
        .unwrap()
        .id;
    let setalg = events.iter().find(|e| e.name == "analyzer.setalg").unwrap();
    assert_eq!(setalg.parent, Some(analyze_id));

    // Histograms: every span name shows up with ordered quantiles.
    for name in ["analyzer.analyze", "transform.apply", "validate.full"] {
        let h = hists
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
            .unwrap_or_else(|| panic!("no histogram for {name}"));
        assert!(h.count() > 0);
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        assert!(h.p99() <= h.max());
    }
    assert!(rendered.contains("LATENCY HISTOGRAMS"));
    assert!(rendered.contains("transform.apply"));
}

#[test]
fn chrome_trace_of_pipeline_validates() {
    let (_, events, dropped, _) = traced(run_pipeline);
    let json = ridl_obs::chrome_trace(&events, dropped);
    let stats = ridl_obs::validate_chrome_trace(&json).expect("pipeline trace is well-formed");
    assert!(stats.spans as usize <= events.len());
    assert!(stats.spans > 10, "covers the pipeline: {stats:?}");
    assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    // Round-trip through a file, as `ridl tracecheck` reads it.
    let path = std::env::temp_dir().join(format!("ridl-span-trace-{}.json", std::process::id()));
    ridl_obs::write_chrome_trace(path.to_str().unwrap(), &events, dropped).expect("write");
    let text = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    assert_eq!(ridl_obs::validate_chrome_trace(&text), Ok(stats));
}

#[test]
fn disabled_tracing_records_nothing() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    ridl_obs::span::clear();
    ridl_obs::set_tracing(false);
    ridl_obs::span::in_span("should.not.appear", || ());
    let (events, dropped) = ridl_obs::span::take_events();
    assert!(events.is_empty());
    assert_eq!(dropped, 0);
}

/// Worker threads record into the same histogram registry, so parallel
/// validation aggregates per-class latencies into one histogram per name.
#[test]
fn parallel_validation_merges_worker_histograms() {
    let (_, events, _, hists) = traced(|| {
        let sc = ridl_workloads::scenario::industrial_population(11, 2_000);
        let violations = ridl_relational::validate_with_workers(&sc.schema, &sc.state, 4);
        assert!(violations.is_empty());
    });
    let threads: std::collections::HashSet<u64> = events
        .iter()
        .filter(|e| e.name.starts_with("validate.") || e.name == "index.build")
        .map(|e| e.thread)
        .collect();
    assert!(
        threads.len() > 1,
        "validation spans span multiple threads: {threads:?}"
    );
    let (_, key_hist) = hists
        .iter()
        .find(|(n, _)| *n == "validate.key")
        .expect("key checks recorded");
    let per_thread_key_spans = events.iter().filter(|e| e.name == "validate.key").count();
    assert_eq!(
        key_hist.count() as usize,
        per_thread_key_spans,
        "every worker's key checks land in the one registry histogram"
    );
}

proptest! {
    /// Merging per-thread histograms is indistinguishable from recording
    /// every sample into a single histogram: same bucket counts, same
    /// quantile bounds (the tentpole's cross-thread aggregation invariant).
    #[test]
    fn histogram_merge_equals_concatenated_recording(
        shards in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 0..64),
            1..8,
        )
    ) {
        let mut merged = Histogram::new();
        let mut single = Histogram::new();
        for shard in &shards {
            let mut h = Histogram::new();
            for &v in shard {
                h.record(v);
                single.record(v);
            }
            merged.merge(&h);
        }
        prop_assert_eq!(merged.buckets(), single.buckets());
        prop_assert_eq!(merged.count(), single.count());
        prop_assert_eq!(merged.max(), single.max());
        prop_assert_eq!(merged.min(), single.min());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), single.quantile(q));
        }
    }
}
