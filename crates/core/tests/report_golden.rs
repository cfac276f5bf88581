//! Golden tests for the program-report JSON document (the `acspec
//! --format json` payload). The first pins the full shape —
//! `schema_version`, per-report fields, embedded incidents — on a small
//! fixed program, with wall-clock stats zeroed before rendering. The
//! second pins a hand-built document exercising what an analysis of a
//! small program does not: fractional and integral stage seconds,
//! `TimedOut` and `Degraded` outcomes, a `certs_ref`, incidents with
//! and without a stage, negative witness values, and a tag that needs
//! escaping.
//!
//! Regenerate after an intentional schema change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p acspec-core --test report_golden
//! ```

use std::collections::BTreeMap;

use acspec_core::{
    program_report_json, program_report_json_with, AnalysisIncident, AnalysisOutcome, ConfigName,
    Fallback, IncidentKind, NullObserver, ProcReport, ProcStats, ProgramAnalysis, ReportLabel,
    SibStatus, Warning, Witness, REPORT_SCHEMA_VERSION,
};
use acspec_ir::expr::{Expr, Formula};
use acspec_ir::stmt::AssertId;
use acspec_smt::SolverCounters;
use acspec_vcgen::stage::Stage;

const PROGRAM: &str = "
    global Freed: map;
    procedure f(p: int) {
      assert Freed[p] == 0; Freed[p] := 1;
      assert Freed[p] == 0; Freed[p] := 1;
    }";

/// Compares `rendered` with the golden file at `golden` (relative to
/// the crate), or rewrites the file under `UPDATE_GOLDEN`.
fn assert_matches_golden(rendered: &str, golden: &str) {
    let path = format!("{}/{golden}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path}: {e} (run with UPDATE_GOLDEN=1)"));
    assert!(
        rendered == expected,
        "program-report JSON diverged from {golden}; if intentional, bump \
         REPORT_SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1.\n\
         --- expected ---\n{expected}\n--- actual ---\n{rendered}"
    );
}

#[test]
fn program_report_json_matches_golden_file() {
    let prog = acspec_ir::parse::parse_program(PROGRAM).expect("parses");
    let outcomes = ProgramAnalysis::new(&prog)
        .threads(1)
        .run(&mut NullObserver);
    let mut reports: Vec<ProcReport> = Vec::new();
    let mut incidents = Vec::new();
    for o in outcomes {
        match o.incident() {
            Some(i) => incidents.push(i.clone()),
            None => {
                let pa = o.into_analysis().expect("analyzed");
                reports.push(pa.cons);
                reports.extend(pa.reports.into_iter().flatten());
            }
        }
    }
    for r in &mut reports {
        r.stats = ProcStats::default(); // wall clock is nondeterministic
    }
    let refs: Vec<&ProcReport> = reports.iter().collect();
    let rendered = program_report_json(&refs, &incidents);

    // The version constant must appear in the document itself, so a
    // bump without a golden regeneration fails loudly here.
    assert!(
        rendered.contains(&format!("\"schema_version\": {REPORT_SCHEMA_VERSION}")),
        "document does not carry schema_version {REPORT_SCHEMA_VERSION}"
    );
    assert_matches_golden(&rendered, "tests/golden/program_report.json");
}

#[test]
fn hand_built_report_json_matches_golden_file() {
    let mut timed_out = ProcStats {
        n_predicates: 4,
        n_cover_clauses: 3,
        search_nodes: 7,
        solver_queries: 12,
        smt: SolverCounters {
            conflicts: 5,
            decisions: 40,
            propagations: 311,
            theory_conflicts: 2,
        },
        ..ProcStats::default()
    };
    timed_out.stages.record(Stage::Screen, 0.25, 9);
    timed_out.stages.record(Stage::Cover, 2.0, 3);
    timed_out.stages.record(Stage::Mine, 0.0, 0); // omitted: no time, no queries
    let mut integral = ProcStats::default();
    integral.stages.record(Stage::Encode, 2.0, 0);
    integral.stages.record(Stage::Evaluate, 0.0, 1);

    let timed_out = ProcReport {
        proc_name: "worker".into(),
        config: ReportLabel::Config(ConfigName::A1),
        status: SibStatus::Sib,
        warnings: vec![
            Warning {
                assert: AssertId(7),
                tag: "deref \"q\" \\ at\tline\u{1}@7".into(),
                witness: Some(Witness::new(BTreeMap::from([
                    ("n".to_string(), -42),
                    ("p".to_string(), 0),
                ]))),
            },
            Warning {
                assert: AssertId(9),
                tag: "pre:free@9".into(),
                witness: None,
            },
        ],
        specs: vec![Formula::ne(Expr::var("n"), Expr::var("p"))],
        min_fail: 1,
        stats: timed_out,
        outcome: AnalysisOutcome::TimedOut,
        timeout_stage: Some(Stage::Cover),
    };
    let degraded = ProcReport {
        proc_name: "worker".into(),
        config: ReportLabel::Cons,
        status: SibStatus::MayBug,
        warnings: vec![],
        specs: vec![],
        min_fail: 0,
        stats: integral,
        outcome: AnalysisOutcome::Degraded {
            from_stage: Stage::Search,
            fallback: Fallback::BestCandidate,
        },
        timeout_stage: Some(Stage::Search),
    };
    let incidents = [
        AnalysisIncident {
            proc_name: "crashy".into(),
            kind: IncidentKind::Panic,
            stage: Some(Stage::Mine),
            message: "chaos: injected panic before query 3".into(),
        },
        AnalysisIncident {
            proc_name: "broken".into(),
            kind: IncidentKind::Error,
            stage: None,
            message: "desugar: unknown callee `g`".into(),
        },
    ];
    let rendered = program_report_json_with(
        &[&timed_out, &degraded],
        &incidents,
        Some("out/certs \"v4\".json"),
    );
    assert_matches_golden(&rendered, "tests/golden/program_report_edge_cases.json");
}
