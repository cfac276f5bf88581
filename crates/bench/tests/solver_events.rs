//! Exact solver-counter pins, and the observability bargain: CDCL
//! search instrumentation must never change the analysis.
//!
//! The two workloads are the Figure 6 evaluation (samate and small
//! suites) and the Figure 8/9 evaluation (large suite), both at
//! `--scale 8`. Each runs with search summaries on and pins seven
//! counters exactly: a change in any of them means the query plan or
//! the search itself moved. The large suite also runs with search
//! summaries off, and both runs must render byte-identical results at
//! the figure's 5043 queries. Wall time is not pinned here: acbench is
//! the benchmark.

use std::sync::OnceLock;

use acspec_bench::{evaluate_with, EvalOptions, PRUNE_LEVELS};
use acspec_benchgen::suite::{generate_entry, SuiteKind, SUITE};
use acspec_core::TelemetryObserver;
use acspec_telemetry::MetricsRegistry;
use acspec_vcgen::analyzer::AnalyzerConfig;

/// The query count of `repro fig9 --scale 8`, pinned also by the CI
/// perf-smoke job. A change means the *query plan* moved — that must
/// never come from instrumentation.
const FIG9_SCALE8_QUERIES: u64 = 5043;

/// `(counter, value)` pins of one workload.
type Pins = [(&'static str, u64); 7];

const FIG6_SCALE8: Pins = [
    ("solver.queries", 1141),
    ("solver.conflicts", 296),
    ("solver.decisions", 33744),
    ("solver.propagations", 130884),
    ("solver.learnt_clauses", 296),
    ("solver.learnt_literals", 1177),
    ("solver.restarts", 1),
];

const FIG8_SCALE8: Pins = [
    ("solver.queries", FIG9_SCALE8_QUERIES),
    ("solver.conflicts", 1715),
    ("solver.decisions", 261436),
    ("solver.propagations", 1039589),
    ("solver.learnt_clauses", 1715),
    ("solver.learnt_literals", 6993),
    ("solver.restarts", 4),
];

/// Runs the evaluation of every suite entry of the given kinds at
/// `--scale 8` and renders every timing-free fact of its reports to a
/// string: warning counts per config × prune level, cons counts,
/// timeouts, and per-procedure names in order. The query cache is on
/// even under `ACSPEC_NO_QUERY_CACHE`: the pins are the cache-on plan.
fn run(kinds: &[SuiteKind], search: bool) -> (String, MetricsRegistry) {
    let mut obs = TelemetryObserver::new().with_search_events(search);
    let defaults = EvalOptions::default();
    let opts = EvalOptions {
        threads: 1,
        analyzer: AnalyzerConfig {
            query_cache: true,
            ..defaults.analyzer
        },
        ..defaults
    };
    let mut report = String::new();
    for e in SUITE.iter().filter(|e| kinds.contains(&e.kind)) {
        let bm = generate_entry(e, 8);
        let ev = evaluate_with(&bm, &opts, &mut obs);
        report.push_str(&format!(
            "{}: correct={} timeouts={} cons={}\n",
            ev.name,
            ev.correct_procs,
            ev.timeouts,
            ev.cons_count()
        ));
        for ci in 0..3 {
            for ki in 0..PRUNE_LEVELS.len() {
                report.push_str(&format!(" w[{ci}][{ki}]={}", ev.warning_count(ci, ki)));
            }
        }
        report.push('\n');
        for p in &ev.procs {
            report.push_str(&format!(
                "  {} timed_out={} warnings={:?}\n",
                p.name,
                p.timed_out,
                p.reports
                    .iter()
                    .map(|by_k| by_k[0].warnings.len())
                    .collect::<Vec<_>>()
            ));
        }
    }
    (report, obs.finish().metrics)
}

fn assert_pins(workload: &str, metrics: &MetricsRegistry, pins: &Pins) {
    let moved: Vec<String> = pins
        .iter()
        .filter(|(name, pinned)| metrics.counter(name) != *pinned)
        .map(|(name, pinned)| format!("{name} {pinned} -> {}", metrics.counter(name)))
        .collect();
    assert!(
        moved.is_empty(),
        "{workload} --scale 8 solver counters moved:\n  {}",
        moved.join("\n  ")
    );
}

/// The large suite with search summaries on, shared by the tests that
/// read it.
fn fig8_searched() -> &'static (String, MetricsRegistry) {
    static RUN: OnceLock<(String, MetricsRegistry)> = OnceLock::new();
    RUN.get_or_init(|| run(&[SuiteKind::Large], true))
}

#[test]
fn fig6_solver_counters_are_pinned() {
    let (_, metrics) = run(&[SuiteKind::Samate, SuiteKind::Small], true);
    assert_pins("fig6", &metrics, &FIG6_SCALE8);
}

#[test]
fn fig8_solver_counters_are_pinned() {
    assert_pins("fig8", &fig8_searched().1, &FIG8_SCALE8);
}

#[test]
fn search_instrumentation_never_changes_the_evaluation() {
    let (off, metrics) = run(&[SuiteKind::Large], false);
    assert_eq!(
        metrics.counter("solver.queries"),
        FIG9_SCALE8_QUERIES,
        "fig9 --scale 8 query count moved with instrumentation off"
    );
    assert_eq!(
        off,
        fig8_searched().0,
        "search instrumentation changed the evaluation's reports"
    );
}

/// Every conflict falls in exactly one search interval: a restart
/// closes one, and so does the end of each query whose last interval
/// saw a conflict. So the histogram sums to `solver.conflicts` and
/// holds more samples than there were restarts.
#[test]
fn conflicts_per_interval_sums_to_the_conflicts() {
    let metrics = &fig8_searched().1;
    let intervals = metrics
        .histogram("solver.conflicts_per_interval")
        .expect("search summaries record the interval histogram");
    assert_eq!(intervals.sum(), metrics.counter("solver.conflicts") as f64);
    assert!(intervals.count() > metrics.counter("solver.restarts"));
}
