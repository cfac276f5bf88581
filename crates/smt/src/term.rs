//! Hash-consed term store shared by the solver front end and its clients.
//!
//! Terms cover the quantifier-free fragment the ACSpec pipeline needs:
//! boolean structure, equality over integers and maps, linear integer
//! arithmetic, uninterpreted functions, and array `read`/`write`.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a hash-consed term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

/// The sort of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermSort {
    /// Boolean (formula-level).
    Bool,
    /// Mathematical integer.
    Int,
    /// Total map int → int.
    Map,
}

/// Term structure.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// Boolean constant true.
    True,
    /// Boolean constant false.
    False,
    /// Named boolean variable.
    BoolVar(String),
    /// Negation.
    Not(TermId),
    /// N-ary conjunction.
    And(Vec<TermId>),
    /// N-ary disjunction.
    Or(Vec<TermId>),
    /// Implication.
    Implies(TermId, TermId),
    /// Bi-implication.
    Iff(TermId, TermId),
    /// Equality (operands of equal non-bool sort).
    Eq(TermId, TermId),
    /// `a ≤ b` over integers.
    Le(TermId, TermId),
    /// `a < b` over integers.
    Lt(TermId, TermId),
    /// Named integer variable.
    IntVar(String),
    /// Integer constant.
    IntConst(i64),
    /// N-ary integer sum.
    Add(Vec<TermId>),
    /// Constant multiple `c·t`.
    MulC(i64, TermId),
    /// Uninterpreted function application (integer-valued).
    App(String, Vec<TermId>),
    /// `read(map, index)`.
    Read(TermId, TermId),
    /// `write(map, index, value)`.
    Write(TermId, TermId, TermId),
    /// Named map variable.
    MapVar(String),
    /// Integer-valued if-then-else.
    Ite(TermId, TermId, TermId),
}

/// The result of a checked constant fold, or a panic naming the
/// overflow. The analysis isolates each procedure, so the panic becomes
/// an incident instead of a wrapped constant and a wrong verdict.
fn checked(folded: Option<i64>) -> i64 {
    folded.expect("integer overflow: a constant leaves the 64-bit range")
}

/// The term context: hash-consing store and sort table.
#[derive(Debug, Default)]
pub struct Ctx {
    terms: Vec<Term>,
    sorts: Vec<TermSort>,
    table: HashMap<Term, TermId>,
    fresh_counter: u32,
}

impl Ctx {
    /// Creates an empty context.
    pub fn new() -> Ctx {
        Ctx::default()
    }

    /// The structure of a term.
    pub fn term(&self, t: TermId) -> &Term {
        &self.terms[t.0 as usize]
    }

    /// The sort of a term.
    pub fn sort(&self, t: TermId) -> TermSort {
        self.sorts[t.0 as usize]
    }

    /// Number of distinct terms created.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no terms have been created.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    fn intern(&mut self, t: Term, sort: TermSort) -> TermId {
        if let Some(&id) = self.table.get(&t) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(t.clone());
        self.sorts.push(sort);
        self.table.insert(t, id);
        id
    }

    /// Boolean constant.
    pub fn mk_bool(&mut self, b: bool) -> TermId {
        if b {
            self.intern(Term::True, TermSort::Bool)
        } else {
            self.intern(Term::False, TermSort::Bool)
        }
    }

    /// Named boolean variable.
    pub fn mk_bool_var(&mut self, name: impl Into<String>) -> TermId {
        self.intern(Term::BoolVar(name.into()), TermSort::Bool)
    }

    /// A fresh boolean variable with a unique generated name.
    pub fn fresh_bool_var(&mut self, prefix: &str) -> TermId {
        self.fresh_counter += 1;
        let name = format!("{prefix}!{}", self.fresh_counter);
        self.mk_bool_var(name)
    }

    /// A fresh integer variable with a unique generated name.
    pub fn fresh_int_var(&mut self, prefix: &str) -> TermId {
        self.fresh_counter += 1;
        let name = format!("{prefix}!{}", self.fresh_counter);
        self.mk_int_var(name)
    }

    /// A fresh map variable with a unique generated name.
    pub fn fresh_map_var(&mut self, prefix: &str) -> TermId {
        self.fresh_counter += 1;
        let name = format!("{prefix}!{}", self.fresh_counter);
        self.mk_map_var(name)
    }

    /// Negation (with constant folding and involution).
    pub fn mk_not(&mut self, t: TermId) -> TermId {
        debug_assert_eq!(self.sort(t), TermSort::Bool);
        match self.term(t) {
            Term::True => self.mk_bool(false),
            Term::False => self.mk_bool(true),
            Term::Not(inner) => *inner,
            _ => self.intern(Term::Not(t), TermSort::Bool),
        }
    }

    /// N-ary conjunction (flattening, unit and constant folding).
    pub fn mk_and(&mut self, parts: Vec<TermId>) -> TermId {
        let mut out = Vec::new();
        for p in parts {
            match self.term(p) {
                Term::True => {}
                Term::False => return self.mk_bool(false),
                Term::And(inner) => out.extend(inner.iter().copied()),
                _ => out.push(p),
            }
        }
        out.sort_unstable();
        out.dedup();
        match out.len() {
            0 => self.mk_bool(true),
            1 => out[0],
            _ => self.intern(Term::And(out), TermSort::Bool),
        }
    }

    /// N-ary disjunction (flattening, unit and constant folding).
    pub fn mk_or(&mut self, parts: Vec<TermId>) -> TermId {
        let mut out = Vec::new();
        for p in parts {
            match self.term(p) {
                Term::False => {}
                Term::True => return self.mk_bool(true),
                Term::Or(inner) => out.extend(inner.iter().copied()),
                _ => out.push(p),
            }
        }
        out.sort_unstable();
        out.dedup();
        match out.len() {
            0 => self.mk_bool(false),
            1 => out[0],
            _ => self.intern(Term::Or(out), TermSort::Bool),
        }
    }

    /// Implication.
    pub fn mk_implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.mk_not(a);
        self.mk_or(vec![na, b])
    }

    /// Bi-implication.
    pub fn mk_iff(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.mk_bool(true);
        }
        match (self.term(a).clone(), self.term(b).clone()) {
            (Term::True, _) => b,
            (_, Term::True) => a,
            (Term::False, _) => self.mk_not(b),
            (_, Term::False) => self.mk_not(a),
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Term::Iff(a, b), TermSort::Bool)
            }
        }
    }

    /// Equality between two terms of the same non-bool sort.
    ///
    /// # Panics
    ///
    /// Panics if the sorts differ or are boolean (use [`Ctx::mk_iff`]).
    pub fn mk_eq(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), self.sort(b), "eq over mismatched sorts");
        assert_ne!(self.sort(a), TermSort::Bool, "use mk_iff for booleans");
        if a == b {
            return self.mk_bool(true);
        }
        if let (Term::IntConst(x), Term::IntConst(y)) = (self.term(a), self.term(b)) {
            let eq = x == y;
            return self.mk_bool(eq);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Term::Eq(a, b), TermSort::Bool)
    }

    /// `a ≤ b` over integers.
    pub fn mk_le(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.sort(a), TermSort::Int);
        debug_assert_eq!(self.sort(b), TermSort::Int);
        if a == b {
            return self.mk_bool(true);
        }
        if let (Term::IntConst(x), Term::IntConst(y)) = (self.term(a), self.term(b)) {
            let le = x <= y;
            return self.mk_bool(le);
        }
        self.intern(Term::Le(a, b), TermSort::Bool)
    }

    /// `a < b` over integers.
    pub fn mk_lt(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.sort(a), TermSort::Int);
        debug_assert_eq!(self.sort(b), TermSort::Int);
        if a == b {
            return self.mk_bool(false);
        }
        if let (Term::IntConst(x), Term::IntConst(y)) = (self.term(a), self.term(b)) {
            let lt = x < y;
            return self.mk_bool(lt);
        }
        self.intern(Term::Lt(a, b), TermSort::Bool)
    }

    /// Named integer variable.
    pub fn mk_int_var(&mut self, name: impl Into<String>) -> TermId {
        self.intern(Term::IntVar(name.into()), TermSort::Int)
    }

    /// Integer constant.
    pub fn mk_int(&mut self, n: i64) -> TermId {
        self.intern(Term::IntConst(n), TermSort::Int)
    }

    /// N-ary sum (flattening and constant folding).
    ///
    /// # Panics
    ///
    /// Panics when the folded constant overflows `i64`: the term
    /// language has no wider integers to fall back on.
    pub fn mk_add(&mut self, parts: Vec<TermId>) -> TermId {
        let mut out = Vec::new();
        let mut konst = 0i64;
        for p in parts {
            match self.term(p) {
                Term::IntConst(n) => konst = checked(konst.checked_add(*n)),
                Term::Add(inner) => {
                    for &q in inner {
                        match self.term(q) {
                            Term::IntConst(n) => konst = checked(konst.checked_add(*n)),
                            _ => out.push(q),
                        }
                    }
                }
                _ => out.push(p),
            }
        }
        if konst != 0 {
            out.push(self.mk_int(konst));
        }
        out.sort_unstable();
        match out.len() {
            0 => self.mk_int(0),
            1 => out[0],
            _ => self.intern(Term::Add(out), TermSort::Int),
        }
    }

    /// Constant multiple `c·t`.
    ///
    /// # Panics
    ///
    /// Panics when a folded constant overflows `i64`, as
    /// [`Ctx::mk_add`] does.
    pub fn mk_mulc(&mut self, c: i64, t: TermId) -> TermId {
        debug_assert_eq!(self.sort(t), TermSort::Int);
        match (c, self.term(t)) {
            (0, _) => self.mk_int(0),
            (1, _) => t,
            (_, Term::IntConst(n)) => {
                let v = checked(c.checked_mul(*n));
                self.mk_int(v)
            }
            (_, Term::MulC(c2, inner)) => {
                let inner = *inner;
                let cc = checked(c.checked_mul(*c2));
                self.mk_mulc(cc, inner)
            }
            _ => self.intern(Term::MulC(c, t), TermSort::Int),
        }
    }

    /// Subtraction `a - b`.
    pub fn mk_sub(&mut self, a: TermId, b: TermId) -> TermId {
        let nb = self.mk_mulc(-1, b);
        self.mk_add(vec![a, nb])
    }

    /// Uninterpreted (integer-valued) function application.
    pub fn mk_app(&mut self, name: impl Into<String>, args: Vec<TermId>) -> TermId {
        self.intern(Term::App(name.into(), args), TermSort::Int)
    }

    /// `read(map, index)`.
    pub fn mk_read(&mut self, map: TermId, index: TermId) -> TermId {
        debug_assert_eq!(self.sort(map), TermSort::Map);
        debug_assert_eq!(self.sort(index), TermSort::Int);
        self.intern(Term::Read(map, index), TermSort::Int)
    }

    /// `write(map, index, value)`.
    pub fn mk_write(&mut self, map: TermId, index: TermId, value: TermId) -> TermId {
        debug_assert_eq!(self.sort(map), TermSort::Map);
        debug_assert_eq!(self.sort(index), TermSort::Int);
        debug_assert_eq!(self.sort(value), TermSort::Int);
        self.intern(Term::Write(map, index, value), TermSort::Map)
    }

    /// Named map variable.
    pub fn mk_map_var(&mut self, name: impl Into<String>) -> TermId {
        self.intern(Term::MapVar(name.into()), TermSort::Map)
    }

    /// Integer-valued if-then-else.
    ///
    /// # Panics
    ///
    /// Panics if the branches' sorts differ.
    pub fn mk_ite(&mut self, cond: TermId, then_t: TermId, else_t: TermId) -> TermId {
        debug_assert_eq!(self.sort(cond), TermSort::Bool);
        assert_eq!(self.sort(then_t), self.sort(else_t), "ite branch sorts");
        match self.term(cond) {
            Term::True => return then_t,
            Term::False => return else_t,
            _ => {}
        }
        if then_t == else_t {
            return then_t;
        }
        self.intern(
            Term::Ite(cond, then_t, else_t),
            self.sorts[then_t.0 as usize],
        )
    }

    /// Renders a term for diagnostics.
    pub fn display(&self, t: TermId) -> String {
        let mut s = String::new();
        self.fmt_term(t, &mut s);
        s
    }

    fn fmt_term(&self, t: TermId, out: &mut String) {
        use fmt::Write;
        match self.term(t) {
            Term::True => out.push_str("true"),
            Term::False => out.push_str("false"),
            Term::BoolVar(n) | Term::IntVar(n) | Term::MapVar(n) => out.push_str(n),
            Term::Not(a) => {
                out.push('!');
                self.fmt_term(*a, out);
            }
            Term::And(ps) => self.fmt_nary("and", ps.clone(), out),
            Term::Or(ps) => self.fmt_nary("or", ps.clone(), out),
            Term::Implies(a, b) => self.fmt_bin("=>", *a, *b, out),
            Term::Iff(a, b) => self.fmt_bin("<=>", *a, *b, out),
            Term::Eq(a, b) => self.fmt_bin("=", *a, *b, out),
            Term::Le(a, b) => self.fmt_bin("<=", *a, *b, out),
            Term::Lt(a, b) => self.fmt_bin("<", *a, *b, out),
            Term::IntConst(n) => {
                let _ = write!(out, "{n}");
            }
            Term::Add(ps) => self.fmt_nary("+", ps.clone(), out),
            Term::MulC(c, a) => {
                let _ = write!(out, "(* {c} ");
                self.fmt_term(*a, out);
                out.push(')');
            }
            Term::App(f, args) => {
                let _ = write!(out, "({f}");
                for &a in args {
                    out.push(' ');
                    self.fmt_term(a, out);
                }
                out.push(')');
            }
            Term::Read(m, i) => self.fmt_bin("read", *m, *i, out),
            Term::Write(m, i, v) => {
                out.push_str("(write ");
                self.fmt_term(*m, out);
                out.push(' ');
                self.fmt_term(*i, out);
                out.push(' ');
                self.fmt_term(*v, out);
                out.push(')');
            }
            Term::Ite(c, a, b) => {
                out.push_str("(ite ");
                self.fmt_term(*c, out);
                out.push(' ');
                self.fmt_term(*a, out);
                out.push(' ');
                self.fmt_term(*b, out);
                out.push(')');
            }
        }
    }

    fn fmt_nary(&self, op: &str, ps: Vec<TermId>, out: &mut String) {
        out.push('(');
        out.push_str(op);
        for p in ps {
            out.push(' ');
            self.fmt_term(p, out);
        }
        out.push(')');
    }

    fn fmt_bin(&self, op: &str, a: TermId, b: TermId, out: &mut String) {
        out.push('(');
        out.push_str(op);
        out.push(' ');
        self.fmt_term(a, out);
        out.push(' ');
        self.fmt_term(b, out);
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedupes() {
        let mut ctx = Ctx::new();
        let x1 = ctx.mk_int_var("x");
        let x2 = ctx.mk_int_var("x");
        assert_eq!(x1, x2);
        let a = ctx.mk_add(vec![x1, x2]);
        let b = ctx.mk_add(vec![x2, x1]);
        assert_eq!(a, b);
    }

    #[test]
    fn and_or_folding() {
        let mut ctx = Ctx::new();
        let t = ctx.mk_bool(true);
        let f = ctx.mk_bool(false);
        let p = ctx.mk_bool_var("p");
        assert_eq!(ctx.mk_and(vec![t, p]), p);
        assert_eq!(ctx.mk_and(vec![f, p]), f);
        assert_eq!(ctx.mk_or(vec![f, p]), p);
        assert_eq!(ctx.mk_or(vec![t, p]), t);
        assert_eq!(ctx.mk_and(vec![]), t);
        assert_eq!(ctx.mk_or(vec![]), f);
    }

    #[test]
    fn eq_normalizes_operand_order_and_consts() {
        let mut ctx = Ctx::new();
        let x = ctx.mk_int_var("x");
        let y = ctx.mk_int_var("y");
        assert_eq!(ctx.mk_eq(x, y), ctx.mk_eq(y, x));
        let c1 = ctx.mk_int(1);
        let c2 = ctx.mk_int(2);
        let t = ctx.mk_bool(true);
        let f = ctx.mk_bool(false);
        assert_eq!(ctx.mk_eq(c1, c1), t);
        assert_eq!(ctx.mk_eq(c1, c2), f);
        assert_eq!(ctx.mk_eq(x, x), t);
    }

    #[test]
    fn add_folds_constants() {
        let mut ctx = Ctx::new();
        let x = ctx.mk_int_var("x");
        let c2 = ctx.mk_int(2);
        let c3 = ctx.mk_int(3);
        let s = ctx.mk_add(vec![x, c2, c3]);
        let c5 = ctx.mk_int(5);
        let expect = ctx.mk_add(vec![x, c5]);
        assert_eq!(s, expect);
        let neg2 = ctx.mk_int(-2);
        let zero_sum = ctx.mk_add(vec![c2, neg2]);
        assert_eq!(zero_sum, ctx.mk_int(0));
    }

    #[test]
    fn mulc_folding() {
        let mut ctx = Ctx::new();
        let x = ctx.mk_int_var("x");
        assert_eq!(ctx.mk_mulc(1, x), x);
        assert_eq!(ctx.mk_mulc(0, x), ctx.mk_int(0));
        let m2 = ctx.mk_mulc(2, x);
        let m6 = ctx.mk_mulc(3, m2);
        assert_eq!(m6, ctx.mk_mulc(6, x));
    }

    #[test]
    fn ite_folds_constant_condition() {
        let mut ctx = Ctx::new();
        let t = ctx.mk_bool(true);
        let x = ctx.mk_int_var("x");
        let y = ctx.mk_int_var("y");
        assert_eq!(ctx.mk_ite(t, x, y), x);
        let p = ctx.mk_bool_var("p");
        assert_eq!(ctx.mk_ite(p, x, x), x);
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut ctx = Ctx::new();
        let a = ctx.fresh_bool_var("k");
        let b = ctx.fresh_bool_var("k");
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "eq over mismatched sorts")]
    fn eq_rejects_mixed_sorts() {
        let mut ctx = Ctx::new();
        let x = ctx.mk_int_var("x");
        let m = ctx.mk_map_var("m");
        let _ = ctx.mk_eq(x, m);
    }
}
