//! Unit tests for analyzer features beyond the core Dead/Fail queries:
//! failure witnesses, path profiles, and budget exhaustion.

use acspec_ir::parse::{parse_formula, parse_program};
use acspec_ir::{desugar_procedure, DesugarOptions, DesugaredProc};
use acspec_vcgen::analyzer::{AnalyzerConfig, ProcAnalyzer};
use acspec_vcgen::stage::FaultReason;

fn desugared(src: &str) -> DesugaredProc {
    let prog = parse_program(src).expect("parses");
    let proc = prog.procedures.last().expect("proc").clone();
    desugar_procedure(&prog, &proc, DesugarOptions::default()).expect("desugars")
}

fn analyzer(d: &DesugaredProc) -> ProcAnalyzer {
    ProcAnalyzer::new(d, AnalyzerConfig::default()).expect("encodes")
}

#[test]
fn witness_satisfies_the_failing_condition() {
    let d = desugared(
        "procedure f(x: int, y: int) {
           assume x > 10;
           assert x + y != 12;
         }",
    );
    let mut az = analyzer(&d);
    let a = az.assertions()[0];
    let w = az
        .failure_witness(a, &[])
        .expect("in budget")
        .expect("can fail");
    let x = w["x"];
    let y = w["y"];
    assert!(x > 10, "assume respected: x = {x}");
    assert_eq!(x + y, 12, "failure condition met: x = {x}, y = {y}");
}

#[test]
fn witness_respects_selectors() {
    let d = desugared("procedure f(x: int) { assert x != 7; }");
    let mut az = analyzer(&d);
    let spec = parse_formula("x > 5").expect("parses");
    let sel = az.add_selector(&spec).expect("inputs");
    let a = az.assertions()[0];
    let w = az
        .failure_witness(a, &[sel])
        .expect("in budget")
        .expect("x = 7 is in the spec");
    assert_eq!(w["x"], 7);
}

#[test]
fn no_witness_when_assert_cannot_fail() {
    let d = desugared(
        "procedure f(x: int) {
           assume x == 1;
           assert x == 1;
         }",
    );
    let mut az = analyzer(&d);
    let a = az.assertions()[0];
    assert!(az.failure_witness(a, &[]).expect("in budget").is_none());
}

#[test]
fn path_profiles_count_feasible_combinations() {
    // Two independent branches → 4 profiles; correlated branches → 2.
    let independent = desugared(
        "procedure f(x: int, y: int) {
           if (x == 0) { skip; } else { skip; }
           if (y == 0) { skip; } else { skip; }
         }",
    );
    let mut az = analyzer(&independent);
    let profiles = az.path_profiles(&[], 64).expect("in budget");
    assert_eq!(profiles.len(), 4);

    let correlated = desugared(
        "procedure f(x: int) {
           if (x == 0) { skip; } else { skip; }
           if (x == 0) { skip; } else { skip; }
         }",
    );
    let mut az = analyzer(&correlated);
    let profiles = az.path_profiles(&[], 64).expect("in budget");
    assert_eq!(
        profiles.len(),
        2,
        "branches on the same predicate correlate"
    );
}

#[test]
fn path_profiles_shrink_under_selectors() {
    let d = desugared(
        "procedure f(x: int, y: int) {
           if (x == 0) { skip; } else { skip; }
           if (y == 0) { skip; } else { skip; }
         }",
    );
    let mut az = analyzer(&d);
    let baseline = az.path_profiles(&[], 64).expect("ok");
    let spec = parse_formula("x != 0 || y != 0").expect("parses");
    let sel = az.add_selector(&spec).expect("inputs");
    let constrained = az.path_profiles(&[sel], 64).expect("ok");
    assert!(constrained.is_subset(&baseline));
    assert_eq!(baseline.len() - constrained.len(), 1, "(then,then) dies");
}

#[test]
fn profile_cap_exhaustion_is_a_timeout() {
    // 2^6 = 64 profiles with a cap of 8.
    let d = desugared(
        "procedure f(a: int, b: int, c: int, d2: int, e: int, g: int) {
           if (a == 0) { skip; }
           if (b == 0) { skip; }
           if (c == 0) { skip; }
           if (d2 == 0) { skip; }
           if (e == 0) { skip; }
           if (g == 0) { skip; }
         }",
    );
    let mut az = analyzer(&d);
    assert!(az.path_profiles(&[], 8).is_err());
}

#[test]
fn zero_budget_times_out_immediately() {
    let d = desugared("procedure f(x: int) { assert x != 0; }");
    let mut az = ProcAnalyzer::new(
        &d,
        AnalyzerConfig {
            conflict_budget: Some(0),
            ..AnalyzerConfig::default()
        },
    )
    .expect("encodes");
    // The first query consumes at least one budget unit; subsequent ones
    // must give up rather than loop.
    let _ = az.fail_set(&[]);
    assert!(az.fail_set(&[]).is_err(), "budget exhausted");
}

#[test]
fn queries_counter_increments() {
    let d = desugared(
        "procedure f(x: int) {
           if (x == 0) { skip; }
           assert x != 1;
         }",
    );
    let mut az = analyzer(&d);
    assert_eq!(az.queries, 0);
    let _ = az.dead_set(&[]).expect("ok");
    let after_dead = az.queries;
    assert!(after_dead >= 2, "two tracked locations");
    let _ = az.fail_set(&[]).expect("ok");
    assert!(az.queries > after_dead);
}

#[test]
fn expired_deadline_reports_unknown_with_reason() {
    let d = desugared("procedure f(x: int) { assert x != 0; }");
    let mut az = ProcAnalyzer::new(
        &d,
        AnalyzerConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..AnalyzerConfig::default()
        },
    )
    .expect("encodes");
    az.set_query_recording(true);
    let a = az.assertions()[0];
    assert_eq!(
        az.can_fail(a, &[]),
        Err(FaultReason::Deadline),
        "deadline already expired"
    );
    let records = az.take_query_records();
    assert!(!records.is_empty(), "the gated query is still recorded");
    assert!(records
        .iter()
        .all(|r| r.outcome.reason() == Some(FaultReason::Deadline)));
}

/// The cache-soundness half of the failure model: an `Unknown` outcome
/// carries no monotone information, so it must never be admitted into
/// the dominance cache — a cached Unknown would corrupt every dominated
/// query. Exhausting the deadline before any query leaves the cache
/// provably empty.
#[test]
fn unknown_is_never_admitted_into_the_query_cache() {
    let d = desugared(
        "procedure f(x: int) {
           if (x == 0) { skip; }
           assert x != 1;
         }",
    );
    let mut az = ProcAnalyzer::new(
        &d,
        AnalyzerConfig {
            query_cache: true,
            deadline: Some(std::time::Duration::ZERO),
            ..AnalyzerConfig::default()
        },
    )
    .expect("encodes");
    let locs = az.locations();
    let asserts = az.assertions();
    for l in locs {
        assert!(az.is_reachable(l, &[]).is_err());
    }
    for a in asserts {
        assert!(az.can_fail(a, &[]).is_err());
    }
    assert_eq!(
        az.cache_entries(),
        0,
        "Unknown outcomes must not populate the dominance cache"
    );

    // Control: the same queries under no deadline do populate it.
    let mut az = ProcAnalyzer::new(
        &d,
        AnalyzerConfig {
            query_cache: true,
            ..AnalyzerConfig::default()
        },
    )
    .expect("encodes");
    let _ = az.dead_set(&[]).expect("ok");
    let _ = az.fail_set(&[]).expect("ok");
    assert!(az.cache_entries() > 0, "decided queries are cached");
}
