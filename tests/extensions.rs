//! Workspace-level integration tests for the features beyond the paper's
//! prototype: triage, interprocedural inference, witnesses, the path
//! metric, and JSON reports — all through the facade, end to end from C.

use acspec_repro::cfront::compile_c;
use acspec_repro::core::{
    analyze_procedure, infer_preconditions, rank, AcspecOptions, Confidence, ConfigName,
    DeadMetric, NullObserver, ProgramAnalysis, SibStatus,
};

const DRIVER: &str = "
    struct req { int len; int cmd; };
    struct req *get_request(void);

    /* doomed dereference: highest confidence */
    void handle_bad(int *p) {
      if (p == NULL) { *p = 0; }
    }

    /* unchecked allocation behind an inconsistent check: medium */
    void handle_alloc(void) {
      struct req *r = get_request();
      if (flag()) {
        r->len = 0;
      } else {
        if (r != NULL) { r->len = 1; }
      }
    }

    int flag(void) { return 1; }
";

#[test]
fn triage_ranks_c_driver_warnings() {
    let program = compile_c(DRIVER).expect("compiles");
    let ranked = rank(&ProgramAnalysis::new(&program).run(&mut NullObserver));
    assert!(!ranked.is_empty());
    // The doomed dereference outranks the allocation inconsistency.
    let pos = |name: &str| {
        ranked
            .iter()
            .position(|r| r.proc_name == name)
            .unwrap_or_else(|| panic!("{name} missing: {ranked:?}"))
    };
    assert!(pos("handle_bad") < pos("handle_alloc"));
    assert_eq!(ranked[pos("handle_bad")].confidence, Confidence::Concrete);
    // Every ranked warning carries a provenance tag.
    for r in &ranked {
        assert!(r.warning.tag.contains('@'), "tag: {}", r.warning.tag);
    }
}

#[test]
fn interproc_from_c_source() {
    let program = compile_c(
        "void leaf(int *p) { *p = 1; }
         void caller(void) { leaf(NULL); }",
    )
    .expect("compiles");
    let opts = AcspecOptions::default();
    let inferred = infer_preconditions(&program, &opts);
    assert!(inferred.inferred.contains_key("leaf"));
    let caller = inferred.program.procedure("caller").expect("x").clone();
    let r = analyze_procedure(&inferred.program, &caller, &opts).expect("ok");
    assert_eq!(r.warnings.len(), 1);
    assert_eq!(r.status, SibStatus::Sib, "passing NULL dooms the call");
}

#[test]
fn witnesses_survive_the_c_pipeline() {
    let program = compile_c(
        "void f(int *p, int cmd) {
           if (cmd == 3) {
             if (p == NULL) { *p = 1; }
           }
         }",
    )
    .expect("compiles");
    let proc = program.procedure("f").expect("x").clone();
    let r = analyze_procedure(&program, &proc, &AcspecOptions::default()).expect("ok");
    assert_eq!(r.warnings.len(), 1);
    let w = r.warnings[0].witness.as_ref().expect("witness");
    assert_eq!(
        w.get("cmd"),
        Some(3),
        "witness drives the guarded path: {w}"
    );
    assert_eq!(w.get("p"), Some(0), "witness nulls the pointer: {w}");
}

#[test]
fn path_metric_from_c_source() {
    // Correlated double-check across two branches: wp kills the
    // (then, then) combination but no single branch.
    let program = compile_c(
        "void f(int a, int b, int *p) {
           int t = 0;
           if (a == 0) { t = 1; } else { t = 2; }
           if (b == 0) { t = 3; } else { t = 4; }
           if (a == 0) { if (b == 0) { *p = t; } }
         }",
    )
    .expect("compiles");
    let proc = program.procedure("f").expect("x").clone();
    let mut branch = AcspecOptions::for_config(ConfigName::Conc);
    branch.dead_metric = DeadMetric::BranchCoverage;
    let mut path = branch;
    path.dead_metric = DeadMetric::PathCoverage { max_profiles: 64 };
    let rb = analyze_procedure(&program, &proc, &branch).expect("ok");
    let rp = analyze_procedure(&program, &proc, &path).expect("ok");
    // The path metric can only strengthen the verdict.
    if rb.status == SibStatus::Sib {
        assert_eq!(rp.status, SibStatus::Sib);
    }
    assert!(rp.warnings.len() >= rb.warnings.len());
}

#[test]
fn json_report_parses_with_its_fields() {
    let program = compile_c("void f(int *p) { if (p == NULL) { *p = 1; } }").expect("ok");
    let proc = program.procedure("f").expect("x").clone();
    let r = analyze_procedure(&program, &proc, &AcspecOptions::default()).expect("ok");
    let json = r.to_json();
    let v = acspec_check::json::parse(&json).expect("valid JSON");
    assert_eq!(v.get("proc_name").and_then(|s| s.str()), Some("f"));
    assert_eq!(v.get("status").and_then(|s| s.str()), Some("Sib"));
    assert_eq!(
        v.get("warnings").and_then(|w| w.arr()).map(<[_]>::len),
        Some(1)
    );
}
