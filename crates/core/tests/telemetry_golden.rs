//! Golden-file test pinning the telemetry JSONL shapes.
//!
//! The golden render redacts ids and numeric attribute values and
//! zeroes wall-times, so the file pins the *structure* — span kinds,
//! nesting, attribute keys, stage/config/outcome strings — without
//! pinning solver work counts that may drift with heuristics.
//!
//! Regenerate after an intentional shape change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p acspec-core --test telemetry_golden
//! ```

use acspec_check::json::{self, Value as Json};
use acspec_core::{ProgramAnalysis, TelemetryObserver};
use acspec_ir::parse::parse_program;
use acspec_telemetry::TraceRender;
use acspec_vcgen::AnalyzerConfig;

const PROGRAM: &str = "
    procedure f(x: int) { if (x == 0) { assert x != 0; } }
    procedure ok(x: int) { assume x > 0; assert x > 0; }";

const GOLDEN_PATH: &str = "tests/golden/telemetry_trace.jsonl";
const PERFETTO_GOLDEN_PATH: &str = "tests/golden/telemetry_trace.perfetto.json";

/// The query cache changes how many solver queries run (fewer query
/// events), so the golden pins the cache-on shape explicitly instead of
/// inheriting `ACSPEC_NO_QUERY_CACHE` from the environment.
fn cache_on() -> AnalyzerConfig {
    AnalyzerConfig {
        query_cache: true,
        ..AnalyzerConfig::default()
    }
}

#[test]
fn redacted_trace_matches_golden_file() {
    let prog = parse_program(PROGRAM).expect("parses");
    let mut obs = TelemetryObserver::new();
    let outcomes = ProgramAnalysis::new(&prog)
        .analyzer(cache_on())
        .threads(1)
        .run(&mut obs);
    assert!(outcomes.iter().all(|o| o.incident().is_none()));
    let out = obs.finish();
    let rendered = out.trace_jsonl_with(
        None,
        TraceRender {
            zero_times: true,
            redact: true,
        },
    );

    let path = format!("{}/{GOLDEN_PATH}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path}: {e} (run with UPDATE_GOLDEN=1)"));
    assert!(
        rendered == golden,
        "telemetry trace shape changed; if intentional, regenerate with \
         UPDATE_GOLDEN=1.\n--- expected ---\n{golden}\n--- actual ---\n{rendered}"
    );
}

/// Same idea for the Perfetto export, with search summaries on: the
/// golden pins the slice/instant/counter structure and the CDCL
/// attribute keys, with times and numbers redacted.
#[test]
fn redacted_perfetto_trace_matches_golden_file() {
    let prog = parse_program(PROGRAM).expect("parses");
    let mut obs = TelemetryObserver::new().with_search_events(true);
    let outcomes = ProgramAnalysis::new(&prog)
        .analyzer(cache_on())
        .threads(1)
        .run(&mut obs);
    assert!(outcomes.iter().all(|o| o.incident().is_none()));
    let out = obs.finish();
    let rendered = out.trace_perfetto_with(
        None,
        TraceRender {
            zero_times: true,
            redact: true,
        },
    );
    // Sanity before pinning: the document is valid JSON with all three
    // Perfetto phase kinds present.
    let v = json::parse(&rendered).expect("valid JSON");
    let phases: std::collections::BTreeSet<&str> = v
        .get("traceEvents")
        .and_then(Json::arr)
        .expect("array")
        .iter()
        .filter_map(|e| e.get("ph").and_then(Json::str))
        .collect();
    assert!(phases.contains("X") && phases.contains("i"), "{phases:?}");

    let path = format!("{}/{PERFETTO_GOLDEN_PATH}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path}: {e} (run with UPDATE_GOLDEN=1)"));
    assert!(
        rendered == golden,
        "perfetto trace shape changed; if intentional, regenerate with \
         UPDATE_GOLDEN=1.\n--- expected ---\n{golden}\n--- actual ---\n{rendered}"
    );
}

#[test]
fn metrics_snapshot_shape_is_stable() {
    let prog = parse_program(PROGRAM).expect("parses");
    let mut obs = TelemetryObserver::new();
    let outcomes = ProgramAnalysis::new(&prog)
        .analyzer(cache_on())
        .threads(1)
        .run(&mut obs);
    assert!(outcomes.iter().all(|o| o.incident().is_none()));
    let out = obs.finish();
    let json = out.metrics_json(None);
    let v = json::parse(&json).expect("snapshot parses");
    let at = |path: &[&str]| path.iter().try_fold(&v, |v, k| v.get(k));
    let schema = acspec_telemetry::SCHEMA_VERSION;
    assert_eq!(at(&["schema"]), Some(&Json::Int(schema.into())));
    // The metric families the snapshot must keep exposing.
    for key in [
        "procs",
        "solver.queries",
        "solver.sat",
        "solver.unsat",
        "solver.conflicts",
        "solver.decisions",
        "solver.propagations",
        "solver.theory_conflicts",
        "stage.encode.queries",
        "stage.screen.queries",
        "cache.hits",
        "cache.hit_sat",
        "cache.hit_unsat",
        "cache.misses",
        "cache.invalidations",
    ] {
        assert!(
            at(&["counters", key]).and_then(Json::int).is_some(),
            "counter {key} missing from snapshot: {json}"
        );
    }
    // The writer prints an integral float without a fraction.
    let seconds = at(&["gauges", "stage.total_seconds"]);
    assert!(matches!(seconds, Some(Json::Int(_) | Json::Float(_))));
    let count = at(&["histograms", "solver.query_seconds", "count"]);
    assert!(matches!(count, Some(Json::Int(_))));
}
