//! Cap boundary of [`predicate_cover_capped`]: the ALL-SAT loop refuses
//! to *start* an iteration once `max_clauses` clauses are enumerated, so
//! a cover of exactly `N` clauses needs a cap of `N + 1` (the final
//! iteration discovers Unsat and terminates the enumeration).

use acspec_ir::expr::Atom;
use acspec_ir::parse::parse_program;
use acspec_ir::{desugar_procedure, DesugarOptions};
use acspec_predabs::cover::predicate_cover_capped;
use acspec_predabs::mine::{mine_predicates, Abstraction};
use acspec_vcgen::analyzer::{AnalyzerConfig, ProcAnalyzer};
use acspec_vcgen::FaultReason;

fn setup(src: &str) -> (ProcAnalyzer, Vec<Atom>) {
    let prog = parse_program(src).expect("parses");
    let proc = prog.procedures.last().expect("proc").clone();
    let d = desugar_procedure(&prog, &proc, DesugarOptions::default()).expect("desugars");
    let az = ProcAnalyzer::new(&d, AnalyzerConfig::default()).expect("encodes");
    let q = mine_predicates(&d, Abstraction::concrete());
    (az, q)
}

/// Two independent asserts over two predicates yield exactly three
/// maximal cover clauses (all maximal cubes except `x≠0 ∧ y≠0` fail).
const THREE_CLAUSES: &str = "
    procedure f(x: int, y: int) {
      assert x != 0;
      assert y != 0;
    }";

#[test]
fn cap_at_cover_size_times_out() {
    let (mut az, q) = setup(THREE_CLAUSES);
    assert_eq!(
        predicate_cover_capped(&mut az, &q, 3).err(),
        Some(FaultReason::Cap),
        "cap == |cover| must hit the cap: the loop cannot run the \
         final Unsat check"
    );
}

#[test]
fn cap_one_above_cover_size_succeeds() {
    let (mut az, q) = setup(THREE_CLAUSES);
    let cover = predicate_cover_capped(&mut az, &q, 4).expect("cap = |cover| + 1 suffices");
    assert_eq!(cover.clauses.len(), 3);
}

#[test]
fn caps_above_the_boundary_agree() {
    let (mut az1, q1) = setup(THREE_CLAUSES);
    let (mut az2, q2) = setup(THREE_CLAUSES);
    let small = predicate_cover_capped(&mut az1, &q1, 4).expect("in cap");
    let large = predicate_cover_capped(&mut az2, &q2, 4096).expect("in cap");
    assert_eq!(
        small.clauses, large.clauses,
        "cap must not change the cover"
    );
}
