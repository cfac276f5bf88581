//! The predicate cover `β_Q(wp(pr, true))` (§4.1).
//!
//! Given a predicate set `Q`, the cover is computed by enumerating all
//! assignments over `Q` consistent with `VC(pr) ≡ ¬wp(pr, true)`
//! (ALL-SAT) and negating each maximal cube into a maximal clause. The
//! resulting conjunction of maximal clauses is the canonical
//! representation of the weakest under-approximation of the weakest
//! precondition expressible over `Q`.

use acspec_ir::expr::Atom;
use acspec_smt::TermId;
use acspec_vcgen::analyzer::ProcAnalyzer;
use acspec_vcgen::{FaultReason, Selector};

use crate::clause::{QClause, QLit};
use crate::normalize::prime_implicates;

/// The predicate cover: the predicate set plus the maximal clauses of
/// `β_Q(wp(pr, true))`.
#[derive(Debug, Clone)]
pub struct Cover {
    /// The predicate set `Q` (indices referenced by the clause literals).
    pub preds: Vec<Atom>,
    /// Maximal clauses (every predicate occurs in each clause).
    pub clauses: Vec<QClause>,
    /// Indicator terms per predicate (for installing clause selectors).
    pub indicators: Vec<TermId>,
}

/// Computes `PredicateCover_Q(pr)` by ALL-SAT enumeration (§4.1) with a
/// default cap of 4096 cover clauses.
///
/// # Errors
///
/// Returns the [`FaultReason`] if a query gave up or the clause cap
/// was hit (the paper reports the same: "others time out during the
/// predicate cover generation", §5.1.4).
pub fn predicate_cover(az: &mut ProcAnalyzer, q: &[Atom]) -> Result<Cover, FaultReason> {
    predicate_cover_capped(az, q, 4096)
}

/// Computes `PredicateCover_Q(pr)` with an explicit clause cap.
///
/// The enumeration's blocking clauses are scoped under a session literal,
/// so the analyzer remains usable for ordinary `Dead`/`Fail` queries
/// afterwards.
///
/// # Errors
///
/// Returns the [`FaultReason`] if a query gave up, or
/// [`FaultReason::Cap`] once `max_clauses` clauses are enumerated.
///
/// # Panics
///
/// Panics if a predicate mentions names outside the input vocabulary
/// (predicates produced by [`crate::mine`] never do).
pub fn predicate_cover_capped(
    az: &mut ProcAnalyzer,
    q: &[Atom],
    max_clauses: usize,
) -> Result<Cover, FaultReason> {
    predicate_cover_salvaging(az, q, max_clauses, &mut None)
}

/// Like [`predicate_cover_capped`], but on `Err` deposits the clauses
/// enumerated so far into `salvage` (sorted and deduped). The partial
/// cover under-approximates the true cover — it is missing failing
/// cubes, so conjoining its clauses yields a *weaker* screen than
/// `β_Q(wp)` — which is exactly what a degradation ladder wants: a
/// best-effort strengthening it can report instead of nothing.
///
/// # Errors
///
/// Returns the [`FaultReason`] if a query gave up (budget, deadline or
/// an injected fault), or [`FaultReason::Cap`] once `max_clauses`
/// clauses are enumerated.
///
/// # Panics
///
/// Panics if a predicate mentions names outside the input vocabulary.
pub fn predicate_cover_salvaging(
    az: &mut ProcAnalyzer,
    q: &[Atom],
    max_clauses: usize,
    salvage: &mut Option<Cover>,
) -> Result<Cover, FaultReason> {
    // Indicator per predicate: b_i ⇔ ⟦q_i⟧ over the input environment.
    let indicators: Vec<TermId> = q
        .iter()
        .map(|atom| {
            az.add_indicator_formula(&atom.to_formula())
                .expect("predicates range over the input vocabulary")
        })
        .collect();

    // Session literal scoping the blocking clauses.
    let session = az.ctx.fresh_bool_var("allsat");
    let not_session = az.ctx.mk_not(session);

    let salvage_partial = |clauses: &[QClause], salvage: &mut Option<Cover>| {
        let mut partial = clauses.to_vec();
        partial.sort();
        partial.dedup();
        *salvage = Some(Cover {
            preds: q.to_vec(),
            clauses: partial,
            indicators: indicators.clone(),
        });
    };

    let mut clauses: Vec<QClause> = Vec::new();
    loop {
        if clauses.len() >= max_clauses {
            salvage_partial(&clauses, salvage);
            return Err(FaultReason::Cap);
        }
        match az.any_failure(&[], &[session]) {
            Ok(true) => {}
            Ok(false) => break,
            Err(reason) => {
                salvage_partial(&clauses, salvage);
                return Err(reason);
            }
        }
        // The cover clause is the negation of the model's cube over Q.
        let cube = block_cube(az, &indicators, not_session);
        clauses.push(
            cube.iter()
                .enumerate()
                .map(|(pred, &value)| QLit {
                    pred,
                    positive: !value,
                })
                .collect(),
        );
        if q.is_empty() {
            // With Q = {} a single failing model means β_Q(wp) = false:
            // the empty cube blocks everything.
            break;
        }
    }
    clauses.sort();
    clauses.dedup();
    Ok(Cover {
        preds: q.to_vec(),
        clauses,
        indicators,
    })
}

/// Reads the last model's cube over `indicators` and blocks it with the
/// clause `¬session ∨ ⋁ ¬lit`, so later queries assuming `session` see
/// only other cubes. Returns the cube's values in indicator order.
fn block_cube(az: &mut ProcAnalyzer, indicators: &[TermId], not_session: TermId) -> Vec<bool> {
    let cube: Vec<bool> = indicators
        .iter()
        .map(|&b| az.model_bool(b).expect("indicator assigned in model"))
        .collect();
    let mut blocking: Vec<TermId> = Vec::with_capacity(cube.len() + 1);
    blocking.push(not_session);
    for (&b, &value) in indicators.iter().zip(&cube) {
        blocking.push(if value { az.ctx.mk_not(b) } else { b });
    }
    az.add_clause(&blocking);
    cube
}

impl Cover {
    /// Installs a selector per clause on the analyzer, returning them in
    /// clause order. Passing a subset of the selectors to `Dead`/`Fail`
    /// evaluates the correspondingly weakened specification.
    pub fn install_selectors(&self, az: &mut ProcAnalyzer) -> Vec<Selector> {
        self.install_handles(az)
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    }

    /// Like [`Cover::install_selectors`], but also returns each clause's
    /// boolean body term, which callers need for entailment queries
    /// between clause subsets (the minimality filter of Algorithm 2).
    pub fn install_handles(&self, az: &mut ProcAnalyzer) -> Vec<(Selector, TermId)> {
        self.clauses
            .iter()
            .map(|c| {
                let body = self.clause_term(az, c);
                (az.add_selector_term(body), body)
            })
            .collect()
    }

    /// Installs one selector for the conjunction of `clauses`, an
    /// arbitrary clause set over the cover's predicates.
    pub fn install_clause_set(&self, az: &mut ProcAnalyzer, clauses: &[QClause]) -> Selector {
        let conj: Vec<TermId> = clauses.iter().map(|c| self.clause_term(az, c)).collect();
        let body = az.ctx.mk_and(conj);
        az.add_selector_term(body)
    }

    /// The disjunction of a clause's literals over the indicator terms.
    fn clause_term(&self, az: &mut ProcAnalyzer, c: &QClause) -> TermId {
        let parts: Vec<TermId> = c
            .lits()
            .iter()
            .map(|l| {
                let b = self.indicators[l.pred];
                if l.positive {
                    b
                } else {
                    az.ctx.mk_not(b)
                }
            })
            .collect();
        az.ctx.mk_or(parts)
    }

    /// The *strongest* clause set with the same consistent input states
    /// as `⋀clauses`: ALL-SAT enumerates the specification's
    /// theory-consistent cubes over `Q`, and the normal form is the
    /// prime implicates of that truth table.
    ///
    /// The maximal-clause cover omits clauses for theory-inconsistent
    /// cubes (ALL-SAT never produces them), which leaves weaker-looking
    /// Boolean forms than the paper's displayed specifications (e.g.
    /// Figure 1's `!Freed[c] && !Freed[buf] && c != buf`); this pass
    /// recovers the paper's form. Returns `None` (callers fall back to
    /// the syntactic [`crate::normalize()`]) when `Q` is empty or has more
    /// than 10 predicates, when the specification has more than 256
    /// consistent cubes, or when a query runs out of budget.
    pub fn normal_form(&self, az: &mut ProcAnalyzer, clauses: &[QClause]) -> Option<Vec<QClause>> {
        let nq = self.preds.len();
        if nq == 0 || nq > 10 {
            return None;
        }
        let sel = self.install_clause_set(az, clauses);
        let session = az.ctx.fresh_bool_var("semnf");
        let not_session = az.ctx.mk_not(session);
        let mut table = vec![false; 1 << nq];
        let mut models = 0;
        loop {
            match az.is_consistent(&[sel], &[session]) {
                Ok(true) => {}
                Ok(false) => break,
                Err(_) => return None,
            }
            let cube = block_cube(az, &self.indicators, not_session);
            let row = cube.iter().rev().fold(0, |r, &v| r << 1 | usize::from(v));
            if !table[row] {
                table[row] = true;
                models += 1;
            }
            if models > 256 {
                return None;
            }
        }
        Some(prime_implicates(&table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::clauses_to_formula;
    use crate::mine::{mine_predicates, Abstraction};
    use acspec_ir::parse::parse_program;
    use acspec_ir::{desugar_procedure, DesugarOptions, DesugaredProc};
    use acspec_vcgen::analyzer::AnalyzerConfig;

    fn setup(src: &str) -> (DesugaredProc, ProcAnalyzer, Vec<Atom>) {
        let prog = parse_program(src).expect("parses");
        let proc = prog.procedures.last().expect("proc").clone();
        let d = desugar_procedure(&prog, &proc, DesugarOptions::default()).expect("desugars");
        let az = ProcAnalyzer::new(&d, AnalyzerConfig::default()).expect("encodes");
        let q = mine_predicates(&d, Abstraction::concrete());
        (d, az, q)
    }

    #[test]
    fn cover_of_simple_assert() {
        // assert x != 0 over Q = {x == 0}: failing cube is (x == 0), so
        // the cover is the single clause (x != 0).
        let (_, mut az, q) = setup("procedure f(x: int) { assert x != 0; }");
        assert_eq!(q.len(), 1);
        let cover = predicate_cover(&mut az, &q).expect("in budget");
        assert_eq!(cover.clauses.len(), 1);
        let f = clauses_to_formula(&cover.clauses, &cover.preds);
        assert_eq!(f.to_string(), "x != 0");
    }

    #[test]
    fn cover_is_empty_for_correct_procedure() {
        let (_, mut az, q) = setup(
            "procedure f(x: int) {
               assume x != 0;
               assert x != 0;
             }",
        );
        let cover = predicate_cover(&mut az, &q).expect("in budget");
        assert!(
            cover.clauses.is_empty(),
            "β_Q(wp) = true: {:?}",
            cover.clauses
        );
    }

    #[test]
    fn cover_with_empty_q_is_false_for_buggy_procedure() {
        // Q = {}: any failure makes the cover the empty clause (false).
        let (_, mut az, _) = setup("procedure f(x: int) { assert x != 0; }");
        let cover = predicate_cover(&mut az, &[]).expect("in budget");
        assert_eq!(cover.clauses.len(), 1);
        assert!(cover.clauses[0].is_empty());
    }

    #[test]
    fn cover_clauses_are_maximal() {
        let (_, mut az, q) = setup(
            "procedure f(x: int, y: int) {
               assert x != 0;
               assert y != 0;
             }",
        );
        assert_eq!(q.len(), 2);
        let cover = predicate_cover(&mut az, &q).expect("in budget");
        for c in &cover.clauses {
            assert_eq!(c.len(), 2, "maximal clauses mention every predicate");
        }
        // Failing cubes: x=0 (any y), and x≠0 ∧ y=0. Over maximal cubes:
        // {x=0,y=0}, {x=0,y≠0}, {x≠0,y=0} → 3 clauses.
        assert_eq!(cover.clauses.len(), 3);
        // Semantics: β_Q(wp) ⇔ x ≠ 0 ∧ y ≠ 0. Check via selectors.
        let sels = cover.install_selectors(&mut az);
        assert!(az.fail_set(&sels).expect("ok").is_empty());
    }

    #[test]
    fn normal_form_drops_theory_inconsistent_cubes() {
        // Q = {x == 0, x == 1}. The cover's two maximal clauses allow the
        // cube x == 0 && x == 1, which no state satisfies, so they do not
        // simplify syntactically; the normal form reads the one
        // consistent cube and yields two unit clauses.
        let (_, mut az, q) = setup("procedure f(x: int) { assert x != 0; assert x != 1; }");
        let cover = predicate_cover(&mut az, &q).expect("in budget");
        assert_eq!(crate::normalize(&cover.clauses), cover.clauses);
        let nf = cover.normal_form(&mut az, &cover.clauses).expect("small Q");
        assert_eq!(
            clauses_to_formula(&nf, &cover.preds).to_string(),
            "x != 0 && x != 1"
        );
    }

    #[test]
    fn analyzer_usable_after_allsat() {
        // Blocking clauses are scoped: plain Fail(true) still reports the
        // failure afterwards.
        let (_, mut az, q) = setup("procedure f(x: int) { assert x != 0; }");
        let _ = predicate_cover(&mut az, &q).expect("in budget");
        assert_eq!(az.fail_set(&[]).expect("ok").len(), 1);
    }

    #[test]
    fn figure1_cover_suppresses_all_failures() {
        // The full predicate cover (over the concrete Q) is β_Q(wp) ≡ wp,
        // which fails nothing and kills the inner-branch code.
        let src = "
            global Freed: map;
            procedure Foo(c: int, buf: int, cmd: int) {
              if (*) {
                assert Freed[c] == 0;   Freed[c] := 1;
                assert Freed[buf] == 0; Freed[buf] := 1;
              } else {
                if (cmd == 1) {
                  if (*) {
                    assert Freed[c] == 0;   Freed[c] := 1;
                    assert Freed[buf] == 0; Freed[buf] := 1;
                  }
                }
                assert Freed[c] == 0;   Freed[c] := 1;
                assert Freed[buf] == 0; Freed[buf] := 1;
              }
            }";
        let (_, mut az, q) = setup(src);
        let cover = predicate_cover(&mut az, &q).expect("in budget");
        assert!(!cover.clauses.is_empty());
        let sels = cover.install_selectors(&mut az);
        assert!(
            az.fail_set(&sels).expect("ok").is_empty(),
            "wp fails nothing"
        );
        assert!(
            !az.dead_set(&sels).expect("ok").is_empty(),
            "wp kills code → SIB"
        );
    }
}
