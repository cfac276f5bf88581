//! Report stats reconcile with the query log: every report's
//! `solver_queries`, per-stage query counts and `smt` block equal the
//! sums over the query events of the stage runs it covers. A
//! configuration report covers every shared run (label `None`) and the
//! runs of its own configuration; the `Cons` report, built first,
//! covers the encode run and the first screen.

use acspec_core::{
    AnalysisOutcome, ConfigName, ProcAnalysis, ProcReport, ProgramAnalysis, QueryEvent,
    SessionObserver, StageEvent,
};
use acspec_corpus::{default_corpus_dir, load_corpus};
use acspec_ir::Program;
use acspec_smt::SolverCounters;
use acspec_vcgen::chaos::ChaosConfig;
use acspec_vcgen::{AnalyzerConfig, Stage};

/// Asks the sessions to record their queries and keeps nothing itself:
/// the events stay in each [`ProcAnalysis`].
struct Recording;

impl SessionObserver for Recording {
    fn stage_completed(&mut self, _event: &StageEvent) {}

    fn wants_queries(&self) -> bool {
        true
    }
}

fn analyses(program: &Program, analyzer: AnalyzerConfig) -> Vec<ProcAnalysis> {
    ProgramAnalysis::new(program)
        .configs(&ConfigName::all())
        .analyzer(analyzer)
        .threads(1)
        .run(&mut Recording)
        .into_iter()
        .filter_map(|o| o.into_analysis())
        .collect()
}

/// Checks one report against the query events `covers` selects.
fn check(report: &ProcReport, queries: &[QueryEvent], covers: impl Fn(&QueryEvent) -> bool) {
    let what = format!("{}/{}", report.proc_name, report.config);
    let covered: Vec<&QueryEvent> = queries.iter().filter(|q| covers(q)).collect();
    assert_eq!(
        report.stats.solver_queries,
        covered.len() as u64,
        "{what}: solver_queries"
    );
    for stage in Stage::ALL {
        let n = covered.iter().filter(|q| q.stage == stage).count() as u64;
        assert_eq!(
            report.stats.stages.get(stage).queries,
            n,
            "{what}: {stage} queries"
        );
    }
    let mut smt = SolverCounters::default();
    for q in &covered {
        smt.add(&q.counters);
    }
    assert_eq!(report.stats.smt, smt, "{what}: smt");
}

/// Checks every report of `pa`; returns how many were degraded.
fn assert_reconciles(pa: &ProcAnalysis) -> usize {
    let first_screen = pa
        .events
        .iter()
        .find(|e| e.stage == Stage::Screen)
        .map(|e| e.seq);
    check(&pa.cons, &pa.queries, |q| {
        q.stage == Stage::Encode || Some(q.stage_seq) == first_screen
    });
    let mut degraded = 0;
    for r in pa.reports.iter().flatten() {
        let own = Some(r.config);
        check(r, &pa.queries, |q| q.label.is_none() || q.label == own);
        degraded += usize::from(matches!(r.outcome, AnalysisOutcome::Degraded { .. }));
    }
    degraded
}

fn scenario(name: &str) -> Program {
    load_corpus(&default_corpus_dir())
        .expect("corpus loads")
        .into_iter()
        .find(|sc| sc.name == name)
        .unwrap_or_else(|| panic!("no scenario {name}"))
        .program()
        .expect("compiles")
}

#[test]
fn figure1_reports_reconcile_with_their_query_events() {
    let program = scenario("fig1_double_free");
    let analyses = analyses(&program, AnalyzerConfig::default());
    assert_eq!(analyses.len(), 1);
    let pa = &analyses[0];
    assert!(!pa.queries.is_empty(), "query recording is on");
    assert_eq!(pa.reports.len(), ConfigName::all().len());
    assert_eq!(assert_reconciles(pa), 0);
}

#[test]
fn degraded_reports_reconcile_with_their_query_events() {
    // The dominance cache is pinned on: the injected faults, and so the
    // degraded reports, depend on which queries reach the solver.
    let chaos = AnalyzerConfig {
        query_cache: true,
        chaos: Some(ChaosConfig::new(7, 0.2)),
        ..AnalyzerConfig::default()
    };
    let mut degraded = 0;
    for name in ["array_of_structs", "varargs_logging"] {
        for pa in analyses(&scenario(name), chaos) {
            degraded += assert_reconciles(&pa);
        }
    }
    assert!(degraded >= 3, "only {degraded} degraded reports");
}
