//! Certification sanity: replay certificates carry evidence that
//! matches the incremental verdicts, self-check under their own
//! serialized data, are shared (not fabricated) across dominance-cache
//! hits, and reference one shared proof log per procedure.

use acspec_ir::parse::{parse_formula, parse_program};
use acspec_ir::{desugar_procedure, DesugarOptions, DesugaredProc};
use acspec_vcgen::analyzer::{AnalyzerConfig, ProcAnalyzer};
use acspec_vcgen::evidence::{CertEvent, CertOutcome, CertTag};

fn desugared(src: &str) -> DesugaredProc {
    let prog = parse_program(src).expect("parses");
    let proc = prog.procedures.last().expect("proc").clone();
    desugar_procedure(&prog, &proc, DesugarOptions::default()).expect("desugars")
}

fn analyzer(d: &DesugaredProc) -> ProcAnalyzer {
    let mut az = ProcAnalyzer::new(d, AnalyzerConfig::default()).expect("encodes");
    az.enable_certs();
    az
}

#[test]
fn sat_cert_carries_a_self_checking_model() {
    let d = desugared(
        "procedure f(x: int, y: int) {
           assume x > 10;
           assert x + y != 12;
         }",
    );
    let mut az = analyzer(&d);
    let a = az.assertions()[0];
    assert!(az.can_fail(a, &[]).expect("in budget"));
    let idx = az.certify_can_fail(a, &[]).expect("certs enabled");
    let store = az.cert_store().expect("enabled");
    let cert = &store.certs[idx];
    match &cert.outcome {
        CertOutcome::Sat(model) => {
            let x = model.ints["x!0"];
            let y = model.ints["y!0"];
            assert!(x > 10, "model respects the assume: x = {x}");
            assert_eq!(x + y, 12, "model hits the failure");
        }
        other => panic!("expected sat, got {}", other.name()),
    }
    assert!(cert.self_checked, "model must satisfy every asserted root");
}

#[test]
fn unsat_cert_carries_core_and_proof() {
    let d = desugared(
        "procedure f(x: int) {
           assume x == 1;
           assert x == 1;
         }",
    );
    let mut az = analyzer(&d);
    let a = az.assertions()[0];
    assert!(!az.can_fail(a, &[]).expect("in budget"));
    let idx = az.certify_can_fail(a, &[]).expect("certs enabled");
    let store = az.cert_store().expect("enabled");
    let cert = &store.certs[idx];
    match &cert.outcome {
        CertOutcome::Unsat(proof) => {
            assert!(proof.log_upto > 0, "the proof rests on a log prefix");
            assert!(proof.log_upto <= store.log.len());
            for c in &proof.core {
                assert!(
                    cert.assumptions.contains(c),
                    "core must be a subset of the assumptions"
                );
            }
        }
        other => panic!("expected unsat, got {}", other.name()),
    }
}

#[test]
fn map_heavy_sat_cert_self_checks() {
    let d = desugared(
        "procedure f(m: map, i: int, j: int) {
           assume i != j;
           m[i] := 1;
           assert m[j] != 5;
         }",
    );
    let mut az = analyzer(&d);
    let a = az.assertions()[0];
    assert!(az.can_fail(a, &[]).expect("in budget"));
    let idx = az.certify_can_fail(a, &[]).expect("certs enabled");
    let store = az.cert_store().expect("enabled");
    assert!(store.certs[idx].self_checked, "map model must evaluate");
}

#[test]
fn cache_hits_reference_the_originating_certificate() {
    let d = desugared("procedure f(x: int) { assert x != 7; }");
    let mut az = analyzer(&d);
    let spec = parse_formula("x > 5").expect("parses");
    let sel = az.add_selector(&spec).expect("inputs");
    let a = az.assertions()[0];
    assert!(az.can_fail(a, &[sel]).expect("in budget"));
    let first = az.certify_can_fail(a, &[sel]).expect("certs enabled");
    // The same claim again — answered by memo, same certificate.
    let second = az.certify_can_fail(a, &[sel]).expect("certs enabled");
    assert_eq!(first, second, "repeat claims share one certificate");
    assert_eq!(az.cert_store().expect("enabled").certs.len(), 1);
}

#[test]
fn certification_does_not_perturb_counters() {
    let d = desugared("procedure f(x: int) { assert x != 7; }");
    let mut az = analyzer(&d);
    let a = az.assertions()[0];
    assert!(az.can_fail(a, &[]).expect("in budget"));
    let queries = az.queries;
    let budget = az.budget_left();
    az.certify_can_fail(a, &[]).expect("certs enabled");
    assert_eq!(az.queries, queries, "certification is off the query path");
    assert_eq!(az.budget_left(), budget, "certification is budget-free");
}

#[test]
fn certificates_share_one_log_and_guard_blocking_clauses() {
    let d = desugared(
        "procedure f(x: int) {
           if (x > 0) { assert x != 3; }
           assert x != 9;
         }",
    );
    let mut az = analyzer(&d);
    let (a0, a1) = (az.assertions()[0], az.assertions()[1]);
    let first = az.certify_can_fail(a0, &[]).expect("certs enabled");
    let second = az.certify_can_fail(a1, &[]).expect("certs enabled");
    // Block both cubes over one predicate: the exhaustion query becomes
    // unsat, but only under its guard.
    let pred = parse_formula("x > 0").expect("parses");
    let ind = az.add_indicator_formula(&pred).expect("inputs");
    let not_ind = az.ctx.mk_not(ind);
    let blocking = vec![vec![ind], vec![not_ind]];
    let exhausted = az
        .certify_any_failure(&[], &[], &blocking)
        .expect("certs enabled");
    let store = az.take_cert_store().expect("enabled");
    assert_eq!((first, second, exhausted), (0, 1, 2));
    assert!(matches!(store.certs[first].outcome, CertOutcome::Sat(_)));
    assert!(matches!(store.certs[second].outcome, CertOutcome::Sat(_)));
    let cert = &store.certs[exhausted];
    let CertOutcome::Unsat(proof) = &cert.outcome else {
        panic!("blocked exhaustion must be unsat");
    };
    // The guard is the one assumption beyond `fail_any`, and the log
    // holds one guarded clause per blocking clause.
    let guard = *cert.assumptions.last().expect("guard assumed");
    let inputs = |upto: usize, tagged: fn(&CertTag, u32) -> bool| {
        store.log[..upto]
            .iter()
            .filter(|e| matches!(e, CertEvent::Input { tag, .. } if tagged(tag, guard)))
            .count()
    };
    let guarded = inputs(
        proof.log_upto,
        |tag, guard| matches!(tag, CertTag::Guarded { guard: g, .. } if *g == guard),
    );
    assert_eq!(guarded, blocking.len());
    assert!(store.lits.contains_key(&guard), "lits are filled on take");
    // One log for the procedure: no base-assert clause is logged twice.
    let asserts = inputs(store.log.len(), |tag, _| {
        matches!(tag, CertTag::Assert { .. })
    });
    assert_eq!(asserts, store.asserts.len());
}
