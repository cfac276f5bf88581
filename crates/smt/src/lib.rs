#![warn(missing_docs)]

//! A self-contained SMT solver for the ACSpec pipeline.
//!
//! The paper's prototype uses Z3 through BOOGIE's VC interface; this crate
//! substitutes a from-scratch solver covering the logics the paper needs
//! (§5: "equalities, arithmetic, arrays"):
//!
//! * [`sat`] — a CDCL SAT core with incremental solving under assumptions;
//! * [`euf`] — congruence closure with explanation generation;
//! * [`lia`] — linear integer arithmetic via general simplex with lazy
//!   branch splitting;
//! * weak arrays via lazy read-over-write lemma instantiation;
//! * model-based theory combination (equality propagation both ways).
//!
//! The public entry point is [`Solver`] together with the hash-consed term
//! store [`Ctx`].
//!
//! # Example
//!
//! ```
//! use acspec_smt::{Ctx, SmtResult, Solver};
//!
//! let mut ctx = Ctx::new();
//! let mut solver = Solver::new();
//! let x = ctx.mk_int_var("x");
//! let zero = ctx.mk_int(0);
//! let pos = ctx.mk_lt(zero, x);     // 0 < x
//! let neg = ctx.mk_lt(x, zero);     // x < 0
//! solver.assert_term(&mut ctx, pos);
//! assert_eq!(solver.check(&mut ctx, &[]), SmtResult::Sat);
//! solver.assert_term(&mut ctx, neg);
//! assert_eq!(solver.check(&mut ctx, &[]), SmtResult::Unsat);
//! ```

pub mod euf;
pub mod lia;
pub mod rat;
pub mod sat;
pub mod solver;
pub mod term;

pub use rat::Rat;
pub use sat::{
    Lit, ProofEvent, SearchObserver, SearchSummary, SolveResult, Var, LBD_BUCKET_BOUNDS,
    RESTART_BUCKET_BOUNDS,
};
pub use solver::{ClauseTag, SmtResult, SmtStats, Solver, SolverConfig, SolverCounters};
pub use term::{Ctx, Term, TermId, TermSort};

/// An inert placeholder with no state and no effect on any query.
/// Retained for the benchmark's mirror, which still constructs one.
#[derive(Debug)]
pub struct SearchPool;

impl SearchPool {
    /// Returns the placeholder; the argument is ignored.
    pub fn new(_spare: usize) -> SearchPool {
        SearchPool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Ctx, Solver) {
        (Ctx::new(), Solver::new())
    }

    #[test]
    fn pure_boolean_reasoning() {
        let (mut ctx, mut s) = setup();
        let p = ctx.mk_bool_var("p");
        let q = ctx.mk_bool_var("q");
        let imp = ctx.mk_implies(p, q);
        let nq = ctx.mk_not(q);
        s.assert_term(&mut ctx, imp);
        s.assert_term(&mut ctx, p);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Sat);
        assert_eq!(s.bool_value(q), Some(true));
        s.assert_term(&mut ctx, nq);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
    }

    #[test]
    fn equality_transitivity_unsat() {
        let (mut ctx, mut s) = setup();
        let x = ctx.mk_int_var("x");
        let y = ctx.mk_int_var("y");
        let z = ctx.mk_int_var("z");
        let e1 = ctx.mk_eq(x, y);
        let e2 = ctx.mk_eq(y, z);
        let e3 = ctx.mk_eq(x, z);
        let ne3 = ctx.mk_not(e3);
        s.assert_term(&mut ctx, e1);
        s.assert_term(&mut ctx, e2);
        s.assert_term(&mut ctx, ne3);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
    }

    #[test]
    fn congruence_unsat() {
        let (mut ctx, mut s) = setup();
        let x = ctx.mk_int_var("x");
        let y = ctx.mk_int_var("y");
        let fx = ctx.mk_app("f", vec![x]);
        let fy = ctx.mk_app("f", vec![y]);
        let exy = ctx.mk_eq(x, y);
        let efxy = ctx.mk_eq(fx, fy);
        let ne = ctx.mk_not(efxy);
        s.assert_term(&mut ctx, exy);
        s.assert_term(&mut ctx, ne);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
    }

    #[test]
    fn arithmetic_bounds() {
        let (mut ctx, mut s) = setup();
        let x = ctx.mk_int_var("x");
        let c3 = ctx.mk_int(3);
        let c5 = ctx.mk_int(5);
        let ge3 = ctx.mk_le(c3, x);
        let le5 = ctx.mk_le(x, c5);
        s.assert_term(&mut ctx, ge3);
        s.assert_term(&mut ctx, le5);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Sat);
        let lt3 = ctx.mk_lt(x, c3);
        s.assert_term(&mut ctx, lt3);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
    }

    #[test]
    fn strict_integer_gap_unsat() {
        // 0 < x < 1 has no integer solution.
        let (mut ctx, mut s) = setup();
        let x = ctx.mk_int_var("x");
        let zero = ctx.mk_int(0);
        let one = ctx.mk_int(1);
        let a = ctx.mk_lt(zero, x);
        let b = ctx.mk_lt(x, one);
        s.assert_term(&mut ctx, a);
        s.assert_term(&mut ctx, b);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
    }

    #[test]
    fn branch_and_bound_finds_integer_infeasibility() {
        // 2x = y ∧ y = 7 → unsat over integers (y odd).
        let (mut ctx, mut s) = setup();
        let x = ctx.mk_int_var("x");
        let y = ctx.mk_int_var("y");
        let two_x = ctx.mk_mulc(2, x);
        let c7 = ctx.mk_int(7);
        let e1 = ctx.mk_eq(two_x, y);
        let e2 = ctx.mk_eq(y, c7);
        s.assert_term(&mut ctx, e1);
        s.assert_term(&mut ctx, e2);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
        // 2x = 8 is fine.
        let (mut ctx, mut s) = setup();
        let x = ctx.mk_int_var("x");
        let two_x = ctx.mk_mulc(2, x);
        let c8 = ctx.mk_int(8);
        let e = ctx.mk_eq(two_x, c8);
        s.assert_term(&mut ctx, e);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Sat);
    }

    #[test]
    fn disequality_with_bounds_unsat() {
        // 3 ≤ x ≤ 3, 3 ≤ y ≤ 3, x ≠ y.
        let (mut ctx, mut s) = setup();
        let x = ctx.mk_int_var("x");
        let y = ctx.mk_int_var("y");
        let c3 = ctx.mk_int(3);
        for t in [x, y] {
            let lo = ctx.mk_le(c3, t);
            let hi = ctx.mk_le(t, c3);
            s.assert_term(&mut ctx, lo);
            s.assert_term(&mut ctx, hi);
        }
        let eq = ctx.mk_eq(x, y);
        let ne = ctx.mk_not(eq);
        s.assert_term(&mut ctx, ne);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
    }

    #[test]
    fn lia_to_euf_propagation() {
        // x = 3 (bounds), y = 3 (eq), f(x) ≠ f(y) → unsat; needs
        // model-based combination.
        let (mut ctx, mut s) = setup();
        let x = ctx.mk_int_var("x");
        let y = ctx.mk_int_var("y");
        let c3 = ctx.mk_int(3);
        let lo = ctx.mk_le(c3, x);
        let hi = ctx.mk_le(x, c3);
        let ey = ctx.mk_eq(y, c3);
        let fx = ctx.mk_app("f", vec![x]);
        let fy = ctx.mk_app("f", vec![y]);
        let feq = ctx.mk_eq(fx, fy);
        let nfeq = ctx.mk_not(feq);
        s.assert_term(&mut ctx, lo);
        s.assert_term(&mut ctx, hi);
        s.assert_term(&mut ctx, ey);
        s.assert_term(&mut ctx, nfeq);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
    }

    #[test]
    fn euf_to_lia_propagation() {
        // x = y, x ≤ 2, y ≥ 5 → unsat.
        let (mut ctx, mut s) = setup();
        let x = ctx.mk_int_var("x");
        let y = ctx.mk_int_var("y");
        let exy = ctx.mk_eq(x, y);
        let c2 = ctx.mk_int(2);
        let c5 = ctx.mk_int(5);
        let le = ctx.mk_le(x, c2);
        let ge = ctx.mk_le(c5, y);
        s.assert_term(&mut ctx, exy);
        s.assert_term(&mut ctx, le);
        s.assert_term(&mut ctx, ge);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
    }

    #[test]
    fn read_over_write_same_index() {
        // m2 = write(m, i, 5) ∧ read(m2, i) ≠ 5 → unsat.
        let (mut ctx, mut s) = setup();
        let m = ctx.mk_map_var("m");
        let m2 = ctx.mk_map_var("m2");
        let i = ctx.mk_int_var("i");
        let c5 = ctx.mk_int(5);
        let w = ctx.mk_write(m, i, c5);
        let def = ctx.mk_eq(m2, w);
        let r = ctx.mk_read(m2, i);
        let req = ctx.mk_eq(r, c5);
        let nreq = ctx.mk_not(req);
        s.assert_term(&mut ctx, def);
        s.assert_term(&mut ctx, nreq);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
    }

    #[test]
    fn read_over_write_different_index() {
        // m2 = write(m, i, 5) ∧ i ≠ j ∧ read(m, j) = 1 ∧ read(m2, j) ≠ 1
        // → unsat.
        let (mut ctx, mut s) = setup();
        let m = ctx.mk_map_var("m");
        let m2 = ctx.mk_map_var("m2");
        let i = ctx.mk_int_var("i");
        let j = ctx.mk_int_var("j");
        let c5 = ctx.mk_int(5);
        let c1 = ctx.mk_int(1);
        let w = ctx.mk_write(m, i, c5);
        let def = ctx.mk_eq(m2, w);
        let eij = ctx.mk_eq(i, j);
        let neij = ctx.mk_not(eij);
        let rmj = ctx.mk_read(m, j);
        let rm2j = ctx.mk_read(m2, j);
        let a1 = ctx.mk_eq(rmj, c1);
        let a2 = ctx.mk_eq(rm2j, c1);
        let na2 = ctx.mk_not(a2);
        for t in [def, neij, a1, na2] {
            s.assert_term(&mut ctx, t);
        }
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
    }

    #[test]
    fn read_over_write_sat_when_indices_may_differ() {
        // m2 = write(m, i, 5) ∧ read(m2, j) = 7 is satisfiable (j ≠ i).
        let (mut ctx, mut s) = setup();
        let m = ctx.mk_map_var("m");
        let m2 = ctx.mk_map_var("m2");
        let i = ctx.mk_int_var("i");
        let j = ctx.mk_int_var("j");
        let c5 = ctx.mk_int(5);
        let c7 = ctx.mk_int(7);
        let w = ctx.mk_write(m, i, c5);
        let def = ctx.mk_eq(m2, w);
        let r = ctx.mk_read(m2, j);
        let req = ctx.mk_eq(r, c7);
        s.assert_term(&mut ctx, def);
        s.assert_term(&mut ctx, req);
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Sat);
    }

    #[test]
    fn assumptions_are_temporary() {
        let (mut ctx, mut s) = setup();
        let x = ctx.mk_int_var("x");
        let zero = ctx.mk_int(0);
        let pos = ctx.mk_lt(zero, x);
        let neg = ctx.mk_lt(x, zero);
        s.assert_term(&mut ctx, pos);
        assert_eq!(s.check(&mut ctx, &[neg]), SmtResult::Unsat);
        // Without the assumption it is satisfiable again.
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Sat);
    }

    #[test]
    fn ite_lifting() {
        // y = ite(x = 0, 1, 2) ∧ x = 0 ∧ y ≠ 1 → unsat.
        let (mut ctx, mut s) = setup();
        let x = ctx.mk_int_var("x");
        let y = ctx.mk_int_var("y");
        let zero = ctx.mk_int(0);
        let one = ctx.mk_int(1);
        let two = ctx.mk_int(2);
        let cond = ctx.mk_eq(x, zero);
        let ite = ctx.mk_ite(cond, one, two);
        let ydef = ctx.mk_eq(y, ite);
        let y1 = ctx.mk_eq(y, one);
        let ny1 = ctx.mk_not(y1);
        for t in [ydef, cond, ny1] {
            s.assert_term(&mut ctx, t);
        }
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
    }

    #[test]
    fn figure1_style_freed_reasoning() {
        // Freed1 = write(Freed, c, 1) ∧ read(Freed1, b) = 0 ∧ c = b → unsat
        // (the double-free chain).
        let (mut ctx, mut s) = setup();
        let freed = ctx.mk_map_var("Freed");
        let c = ctx.mk_int_var("c");
        let b = ctx.mk_int_var("b");
        let one = ctx.mk_int(1);
        let zero = ctx.mk_int(0);
        let freed1 = ctx.mk_write(freed, c, one);
        let f1 = ctx.mk_map_var("Freed1");
        let def = ctx.mk_eq(f1, freed1);
        let read_b = ctx.mk_read(f1, b);
        let ok = ctx.mk_eq(read_b, zero);
        let alias = ctx.mk_eq(c, b);
        for t in [def, ok, alias] {
            s.assert_term(&mut ctx, t);
        }
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Unsat);
        // Without aliasing: satisfiable.
        let (mut ctx, mut s) = setup();
        let freed = ctx.mk_map_var("Freed");
        let c = ctx.mk_int_var("c");
        let b = ctx.mk_int_var("b");
        let one = ctx.mk_int(1);
        let zero = ctx.mk_int(0);
        let freed1 = ctx.mk_write(freed, c, one);
        let f1 = ctx.mk_map_var("Freed1");
        let def = ctx.mk_eq(f1, freed1);
        let read_b = ctx.mk_read(f1, b);
        let ok = ctx.mk_eq(read_b, zero);
        for t in [def, ok] {
            s.assert_term(&mut ctx, t);
        }
        assert_eq!(s.check(&mut ctx, &[]), SmtResult::Sat);
    }
}
