//! The textbook weakest-precondition transformer of §2.2.
//!
//! ```text
//! wp(skip, φ)              = φ
//! wp(assume f, φ)          = f ⇒ φ
//! wp(assert f, φ)          = f ∧ φ
//! wp(x := e, φ)            = φ[e/x]
//! wp(havoc x, φ)           = ∀x. φ          (skolemized: φ[x'/x], x' fresh)
//! wp(s; t, φ)              = wp(s, wp(t, φ))
//! wp(if c then s else t, φ) = (c ⇒ wp(s, φ)) ∧ (¬c ⇒ wp(t, φ))
//! ```
//!
//! The result is a quantifier-free formula over inputs plus a set of
//! *universal* fresh variables standing for havocked values and
//! non-deterministic branch choices; `¬wp` with those variables read
//! existentially is equisatisfiable with "some execution fails", which is
//! exactly the check `VC(pr) ≡ ¬wp(body, true)` of §4.1.
//!
//! As a tree transformer this is exponential in the worst case (the
//! paper notes the same, which is why verifiers passify first): every
//! branch duplicates the postcondition. The analysis never calls it —
//! [`crate::analyzer::ProcAnalyzer`] encodes by symbolic execution with
//! ite-merging — so it serves as the paper's definition for tests and
//! examples.

use acspec_ir::expr::{Expr, Formula};
use acspec_ir::stmt::{BranchCond, Stmt};

/// The result of a weakest-precondition computation.
#[derive(Debug, Clone)]
pub struct WpResult {
    /// The (quantifier-free) weakest precondition.
    pub formula: Formula,
    /// Fresh variables introduced for `havoc` and `if (*)`; they are
    /// implicitly universally quantified in `formula`.
    pub universals: Vec<String>,
}

/// Computes `wp(body, post)` by the tree recursion of the module docs.
/// Exponential in branch depth: do not call on deep branching code.
///
/// # Panics
///
/// Panics if the body is not core (contains `call`/`while`).
pub fn wp(body: &Stmt, post: &Formula) -> WpResult {
    let mut fresh = FreshNames::default();
    let formula = go(body, post.clone(), &mut fresh);
    WpResult {
        formula,
        universals: fresh.names,
    }
}

#[derive(Default)]
struct FreshNames {
    names: Vec<String>,
    counter: u32,
}

impl FreshNames {
    fn fresh(&mut self, base: &str) -> String {
        self.counter += 1;
        let name = format!("%wp_{base}_{}", self.counter);
        self.names.push(name.clone());
        name
    }
}

fn go(s: &Stmt, post: Formula, fresh: &mut FreshNames) -> Formula {
    match s {
        Stmt::Skip => post,
        Stmt::Assume(f) => Formula::or(vec![Formula::not(f.clone()), post]),
        Stmt::Assert { cond, .. } => Formula::and(vec![cond.clone(), post]),
        Stmt::Assign(x, e) => post.subst(x, e),
        Stmt::Havoc(x) => {
            let x2 = fresh.fresh(x);
            post.subst(x, &Expr::var(x2))
        }
        Stmt::Seq(ss) => ss.iter().rev().fold(post, |acc, stmt| go(stmt, acc, fresh)),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let wt = go(then_branch, post.clone(), fresh);
            let we = go(else_branch, post, fresh);
            match cond {
                BranchCond::Det(c) => Formula::and(vec![
                    Formula::or(vec![Formula::not(c.clone()), wt]),
                    Formula::or(vec![c.clone(), we]),
                ]),
                BranchCond::NonDet => Formula::and(vec![wt, we]),
            }
        }
        Stmt::Call { .. } | Stmt::While { .. } => {
            panic!("wp requires a core (desugared) body")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acspec_ir::interp::{State, Value};
    use acspec_ir::parse::parse_program;
    use acspec_ir::{desugar_procedure, DesugarOptions};

    fn core_body(src: &str) -> Stmt {
        let prog = parse_program(src).expect("parses");
        let proc = prog.procedures[0].clone();
        desugar_procedure(&prog, &proc, DesugarOptions::default())
            .expect("desugars")
            .body
    }

    #[test]
    fn wp_of_assert_is_condition() {
        let body = core_body("procedure f(x: int) { assert x != 0; }");
        let r = wp(&body, &Formula::True);
        assert_eq!(
            r.formula,
            acspec_ir::parse::parse_formula("x != 0").expect("f")
        );
        assert!(r.universals.is_empty());
    }

    #[test]
    fn wp_of_guarded_assert() {
        // if (x == 0) { assert y != 0 } → wp = (x != 0 || y != 0).
        let body = core_body(
            "procedure f(x: int, y: int) {
               if (x == 0) { assert y != 0; }
             }",
        );
        let r = wp(&body, &Formula::True);
        // Check semantically via the interpreter: wp holds iff no failure.
        for x in -1..=1 {
            for y in -1..=1 {
                let mut st = State::new();
                st.set("x", Value::Int(x));
                st.set("y", Value::Int(y));
                let wp_holds = acspec_ir::interp::eval_formula(&st, &r.formula).expect("evaluates");
                let expected = !(x == 0 && y == 0);
                assert_eq!(wp_holds, expected, "at x={x}, y={y}");
            }
        }
    }

    #[test]
    fn wp_agrees_with_interpreter_on_deterministic_programs() {
        let srcs = [
            "procedure f(x: int, y: int) {
               y := x + 1;
               assert y != 0;
             }",
            "procedure f(x: int, y: int) {
               if (x < y) { assert x != 0; } else { assert y != 0; }
             }",
            "procedure f(x: int, y: int) {
               assume x >= 0;
               assert x + y >= y;
             }",
        ];
        for src in srcs {
            let body = core_body(src);
            let r = wp(&body, &Formula::True);
            assert!(r.universals.is_empty(), "deterministic program");
            for x in -2..=2 {
                for y in -2..=2 {
                    let mut st = State::new();
                    st.set("x", Value::Int(x));
                    st.set("y", Value::Int(y));
                    let wp_holds =
                        acspec_ir::interp::eval_formula(&st, &r.formula).expect("evaluates");
                    // Oracle: run all executions from this single state.
                    let mut report = acspec_ir::interp::ExecReport::default();
                    acspec_ir::interp::run_all(&body, &st, &[0], &mut report);
                    let fails = !report.failed.is_empty();
                    assert_eq!(wp_holds, !fails, "src={src} x={x} y={y}");
                }
            }
        }
    }

    #[test]
    fn wp_of_nondet_branch_is_conjunction() {
        let body = core_body(
            "procedure f(x: int) {
               if (*) { assert x != 0; } else { assert x != 1; }
             }",
        );
        let r = wp(&body, &Formula::True);
        // Both branches must be safe: wp = x != 0 && x != 1.
        let mut report_ok = true;
        for x in -1..=2 {
            let mut st = State::new();
            st.set("x", Value::Int(x));
            let wp_holds = acspec_ir::interp::eval_formula(&st, &r.formula).expect("evaluates");
            report_ok &= wp_holds == (x != 0 && x != 1);
        }
        assert!(report_ok);
    }

    #[test]
    fn wp_havoc_introduces_universal() {
        let body = core_body(
            "procedure f() {
               var x: int;
               havoc x;
               assert x != 0;
             }",
        );
        let r = wp(&body, &Formula::True);
        assert_eq!(r.universals.len(), 1);
        // wp = ∀x'. x' != 0, which is false; check one witness.
        let mut st = State::new();
        st.set(r.universals[0].clone(), Value::Int(0));
        assert!(!acspec_ir::interp::eval_formula(&st, &r.formula).expect("evaluates"));
    }

    #[test]
    fn figure1_wp_shape() {
        // The double-free example's WP should require cmd != READ(1),
        // unfreed pointers, and no aliasing (§1.1.1). We verify
        // semantically: the four-conjunct spec implies wp and each
        // three-conjunct weakening does not.
        let src = "
            global Freed: map;
            procedure Foo(c: int, buf: int, cmd: int) {
              if (*) {
                assert Freed[c] == 0;  Freed[c] := 1;
                assert Freed[buf] == 0; Freed[buf] := 1;
              } else {
                if (cmd == 1) {
                  if (*) {
                    assert Freed[c] == 0;  Freed[c] := 1;
                    assert Freed[buf] == 0; Freed[buf] := 1;
                  }
                }
                assert Freed[c] == 0;  Freed[c] := 1;
                assert Freed[buf] == 0; Freed[buf] := 1;
              }
            }";
        let body = core_body(src);
        let r = wp(&body, &Formula::True);
        let eval_wp = |c: i64, buf: i64, cmd: i64, freed_default: i64| -> bool {
            let mut st = State::new();
            st.set("c", Value::Int(c));
            st.set("buf", Value::Int(buf));
            st.set("cmd", Value::Int(cmd));
            st.set("Freed", Value::const_map(freed_default));
            acspec_ir::interp::eval_formula(&st, &r.formula).expect("evaluates")
        };
        // Good inputs: distinct unfreed pointers, cmd != 1.
        assert!(eval_wp(10, 20, 0, 0));
        // cmd == 1 → the missing-return path double-frees.
        assert!(!eval_wp(10, 20, 1, 0));
        // Aliased pointers fail.
        assert!(!eval_wp(10, 10, 0, 0));
        // Already-freed inputs fail.
        assert!(!eval_wp(10, 20, 0, 1));
    }
}
