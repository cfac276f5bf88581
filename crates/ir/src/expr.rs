//! Expressions, formulas, and atomic predicates (§2.1, §2.4 of the paper).

use std::collections::BTreeSet;

/// A symbolic constant `ν_l.pr.x` denoting the value assigned to `x` by the
/// call to procedure `pr` at call site `l` (§2.1).
///
/// Every call site gets fresh constants for its returns and modified
/// globals, so two calls to the same procedure are uncorrelated unless the
/// callee's postcondition relates them.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NuConst {
    /// The call site label `l` (unique within a procedure body).
    pub site: u32,
    /// The callee procedure name `pr`.
    pub callee: String,
    /// The assigned variable (a return or a modified global) `x`.
    pub var: String,
}

impl std::fmt::Display for NuConst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "nu@{}.{}.{}", self.site, self.callee, self.var)
    }
}

/// Integer- or map-valued expressions (`Expr` in Figure 3).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Expr {
    /// A program variable (global, parameter, return, or local).
    Var(String),
    /// A call-site symbolic constant `ν_l.pr.x` (§2.1).
    Nu(NuConst),
    /// An integer literal.
    Int(i64),
    /// Application of an uninterpreted function symbol.
    App(String, Vec<Expr>),
    /// Integer addition.
    Add(Box<Expr>, Box<Expr>),
    /// Integer subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Integer multiplication (linear uses are handled precisely by the
    /// arithmetic theory; non-linear uses are treated as uninterpreted).
    Mul(Box<Expr>, Box<Expr>),
    /// Integer negation.
    Neg(Box<Expr>),
    /// `read(m, i)`: the value of map `m` at index `i` (theory of arrays).
    Read(Box<Expr>, Box<Expr>),
    /// `write(m, i, v)`: the map equal to `m` except at `i`, where it is `v`.
    Write(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `if f then e1 else e2` at the expression level; produced by the
    /// `write`-elimination rewriting of §4.4.1.
    Ite(Box<Formula>, Box<Expr>, Box<Expr>),
    /// `old(e)`: the pre-state value of `e`. Only legal inside `ensures`
    /// clauses; desugared away by call elaboration.
    Old(Box<Expr>),
}

/// Relational operators of atomic formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RelOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl RelOp {
    /// The operator `op'` such that `a op b ⇔ ¬(a op' b)`.
    pub fn negated(self) -> RelOp {
        match self {
            RelOp::Eq => RelOp::Ne,
            RelOp::Ne => RelOp::Eq,
            RelOp::Lt => RelOp::Ge,
            RelOp::Le => RelOp::Gt,
            RelOp::Gt => RelOp::Le,
            RelOp::Ge => RelOp::Lt,
        }
    }

    /// The operator `op'` such that `a op b ⇔ b op' a`.
    pub fn flipped(self) -> RelOp {
        match self {
            RelOp::Eq => RelOp::Eq,
            RelOp::Ne => RelOp::Ne,
            RelOp::Lt => RelOp::Gt,
            RelOp::Le => RelOp::Ge,
            RelOp::Gt => RelOp::Lt,
            RelOp::Ge => RelOp::Le,
        }
    }
}

/// Boolean formulas (`Formula` in Figure 3), closed under the usual
/// connectives.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Formula {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// An atomic relation between two expressions.
    Rel(RelOp, Expr, Expr),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction (`And(vec![])` is `true`).
    And(Vec<Formula>),
    /// N-ary disjunction (`Or(vec![])` is `false`).
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Bi-implication.
    Iff(Box<Formula>, Box<Formula>),
}

/// An atomic predicate in canonical form (§2.4): a relation with no Boolean
/// connectives, normalized so that only `Eq`, `Lt`, and `Le` occur (negative
/// and flipped forms are rewritten away) and `Eq` orders its operands.
///
/// Predicate sets `Q` are sets of `Atom`s; literals over `Q` are an `Atom`
/// plus a polarity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// The relational operator; always `Eq`, `Lt`, or `Le`.
    pub op: RelOp,
    /// Left operand.
    pub lhs: Expr,
    /// Right operand.
    pub rhs: Expr,
}

impl Atom {
    /// Canonicalizes a relation into an `(Atom, polarity)` pair such that
    /// the original relation holds iff the atom's truth value equals the
    /// polarity.
    pub fn from_rel(op: RelOp, lhs: Expr, rhs: Expr) -> (Atom, bool) {
        match op {
            RelOp::Eq | RelOp::Lt | RelOp::Le => (Atom::normalize(op, lhs, rhs), true),
            RelOp::Ne => (Atom::normalize(RelOp::Eq, lhs, rhs), false),
            RelOp::Gt => (Atom::normalize(RelOp::Le, lhs, rhs), false),
            RelOp::Ge => (Atom::normalize(RelOp::Lt, lhs, rhs), false),
        }
    }

    fn normalize(op: RelOp, lhs: Expr, rhs: Expr) -> Atom {
        let lhs = lhs.fold_consts();
        let rhs = rhs.fold_consts();
        if op == RelOp::Eq && rhs < lhs {
            Atom {
                op,
                lhs: rhs,
                rhs: lhs,
            }
        } else {
            Atom { op, lhs, rhs }
        }
    }

    /// The atom as a (positive) formula.
    pub fn to_formula(&self) -> Formula {
        Formula::Rel(self.op, self.lhs.clone(), self.rhs.clone())
    }

    /// The atom or its negation as a formula, depending on `positive`.
    /// Negation is pushed into the relation (`¬(x == 0)` prints `x != 0`).
    pub fn to_literal_formula(&self, positive: bool) -> Formula {
        let f = self.to_formula();
        if positive {
            f
        } else {
            Formula::not(f)
        }
    }

    /// All free variables of the atom.
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.lhs.collect_vars(&mut out);
        self.rhs.collect_vars(&mut out);
        out
    }

    /// All ν-constants mentioned by the atom.
    pub fn nu_consts(&self) -> BTreeSet<NuConst> {
        let mut out = BTreeSet::new();
        self.lhs.collect_nus(&mut out);
        self.rhs.collect_nus(&mut out);
        out
    }
}

impl Expr {
    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Convenience constructor for `read(m, i)` with a named map.
    pub fn read_var(map: impl Into<String>, index: Expr) -> Expr {
        Expr::Read(Box::new(Expr::var(map)), Box::new(index))
    }

    /// Collects the free variables of the expression into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Var(v) => {
                out.insert(v.clone());
            }
            Expr::Nu(_) | Expr::Int(_) => {}
            Expr::App(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Neg(a) | Expr::Old(a) => a.collect_vars(out),
            Expr::Read(m, i) => {
                m.collect_vars(out);
                i.collect_vars(out);
            }
            Expr::Write(m, i, v) => {
                m.collect_vars(out);
                i.collect_vars(out);
                v.collect_vars(out);
            }
            Expr::Ite(c, t, e) => {
                c.collect_vars(out);
                t.collect_vars(out);
                e.collect_vars(out);
            }
        }
    }

    /// The free variables of the expression.
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    /// Collects the ν-constants of the expression into `out`.
    pub fn collect_nus(&self, out: &mut BTreeSet<NuConst>) {
        match self {
            Expr::Nu(nu) => {
                out.insert(nu.clone());
            }
            Expr::Var(_) | Expr::Int(_) => {}
            Expr::App(_, args) => {
                for a in args {
                    a.collect_nus(out);
                }
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.collect_nus(out);
                b.collect_nus(out);
            }
            Expr::Neg(a) | Expr::Old(a) => a.collect_nus(out),
            Expr::Read(m, i) => {
                m.collect_nus(out);
                i.collect_nus(out);
            }
            Expr::Write(m, i, v) => {
                m.collect_nus(out);
                i.collect_nus(out);
                v.collect_nus(out);
            }
            Expr::Ite(c, t, e) => {
                c.collect_nus(out);
                t.collect_nus(out);
                e.collect_nus(out);
            }
        }
    }

    /// Capture-free substitution `self[e/x]` (the language has no binders).
    pub fn subst(&self, x: &str, e: &Expr) -> Expr {
        match self {
            Expr::Var(v) if v == x => e.clone(),
            Expr::Var(_) | Expr::Nu(_) | Expr::Int(_) => self.clone(),
            Expr::App(f, args) => {
                Expr::App(f.clone(), args.iter().map(|a| a.subst(x, e)).collect())
            }
            Expr::Add(a, b) => Expr::Add(Box::new(a.subst(x, e)), Box::new(b.subst(x, e))),
            Expr::Sub(a, b) => Expr::Sub(Box::new(a.subst(x, e)), Box::new(b.subst(x, e))),
            Expr::Mul(a, b) => Expr::Mul(Box::new(a.subst(x, e)), Box::new(b.subst(x, e))),
            Expr::Neg(a) => Expr::Neg(Box::new(a.subst(x, e))),
            Expr::Old(a) => Expr::Old(Box::new(a.subst(x, e))),
            Expr::Read(m, i) => Expr::Read(Box::new(m.subst(x, e)), Box::new(i.subst(x, e))),
            Expr::Write(m, i, v) => Expr::Write(
                Box::new(m.subst(x, e)),
                Box::new(i.subst(x, e)),
                Box::new(v.subst(x, e)),
            ),
            Expr::Ite(c, t, el) => Expr::Ite(
                Box::new(c.subst(x, e)),
                Box::new(t.subst(x, e)),
                Box::new(el.subst(x, e)),
            ),
        }
    }

    /// Eliminates `write` symbols under `read`s using the rewrite of §4.4.1:
    /// `read(write(m, i, v), j)  →  ite(i == j, v, read(m, j))`,
    /// applied bottom-up until no `read` has a `write` as its map operand.
    ///
    /// `write` may survive in positions where it is not read from (e.g. a
    /// top-level map equality); such residues are handled by the array
    /// theory instead.
    pub fn eliminate_writes(&self) -> Expr {
        match self {
            Expr::Var(_) | Expr::Nu(_) | Expr::Int(_) => self.clone(),
            Expr::App(f, args) => Expr::App(
                f.clone(),
                args.iter().map(|a| a.eliminate_writes()).collect(),
            ),
            Expr::Add(a, b) => Expr::Add(
                Box::new(a.eliminate_writes()),
                Box::new(b.eliminate_writes()),
            ),
            Expr::Sub(a, b) => Expr::Sub(
                Box::new(a.eliminate_writes()),
                Box::new(b.eliminate_writes()),
            ),
            Expr::Mul(a, b) => Expr::Mul(
                Box::new(a.eliminate_writes()),
                Box::new(b.eliminate_writes()),
            ),
            Expr::Neg(a) => Expr::Neg(Box::new(a.eliminate_writes())),
            Expr::Old(a) => Expr::Old(Box::new(a.eliminate_writes())),
            Expr::Read(m, i) => {
                let m = m.eliminate_writes();
                let i = i.eliminate_writes();
                Expr::push_read(m, i)
            }
            Expr::Write(m, i, v) => Expr::Write(
                Box::new(m.eliminate_writes()),
                Box::new(i.eliminate_writes()),
                Box::new(v.eliminate_writes()),
            ),
            Expr::Ite(c, t, e) => Expr::Ite(
                Box::new(c.eliminate_writes()),
                Box::new(t.eliminate_writes()),
                Box::new(e.eliminate_writes()),
            ),
        }
    }

    fn push_read(map: Expr, index: Expr) -> Expr {
        match map {
            Expr::Write(m, i, v) => {
                if *i == index {
                    // read(write(m, i, v), i) = v
                    return *v;
                }
                let cond = Formula::Rel(RelOp::Eq, (*i).clone(), index.clone());
                let else_branch = Expr::push_read(*m, index);
                Expr::Ite(Box::new(cond), v, Box::new(else_branch))
            }
            Expr::Ite(c, t, e) => Expr::Ite(
                c,
                Box::new(Expr::push_read(*t, index.clone())),
                Box::new(Expr::push_read(*e, index)),
            ),
            other => Expr::Read(Box::new(other), Box::new(index)),
        }
    }

    /// Folds constant integer arithmetic (`0 + 1` → `1`, `2 * 3` → `6`,
    /// `x + 0` → `x`), recursively. Used to canonicalize atoms so
    /// textually different but equal predicates coincide in `Q`. An
    /// operation whose result leaves `i64` stays unfolded, so the
    /// overflow surfaces where the term is encoded.
    pub fn fold_consts(&self) -> Expr {
        match self {
            Expr::Var(_) | Expr::Nu(_) | Expr::Int(_) => self.clone(),
            Expr::App(f, args) => {
                Expr::App(f.clone(), args.iter().map(Expr::fold_consts).collect())
            }
            Expr::Add(a, b) => {
                let (a, b) = (a.fold_consts(), b.fold_consts());
                match (&a, &b) {
                    (Expr::Int(x), Expr::Int(y)) if x.checked_add(*y).is_some() => Expr::Int(x + y),
                    (Expr::Int(0), _) => b,
                    (_, Expr::Int(0)) => a,
                    _ => Expr::Add(Box::new(a), Box::new(b)),
                }
            }
            Expr::Sub(a, b) => {
                let (a, b) = (a.fold_consts(), b.fold_consts());
                match (&a, &b) {
                    (Expr::Int(x), Expr::Int(y)) if x.checked_sub(*y).is_some() => Expr::Int(x - y),
                    (_, Expr::Int(0)) => a,
                    _ => Expr::Sub(Box::new(a), Box::new(b)),
                }
            }
            Expr::Mul(a, b) => {
                let (a, b) = (a.fold_consts(), b.fold_consts());
                match (&a, &b) {
                    (Expr::Int(x), Expr::Int(y)) if x.checked_mul(*y).is_some() => Expr::Int(x * y),
                    (Expr::Int(0), _) | (_, Expr::Int(0)) => Expr::Int(0),
                    (Expr::Int(1), _) => b,
                    (_, Expr::Int(1)) => a,
                    _ => Expr::Mul(Box::new(a), Box::new(b)),
                }
            }
            Expr::Neg(a) => {
                let a = a.fold_consts();
                match &a {
                    Expr::Int(x) if x.checked_neg().is_some() => Expr::Int(-x),
                    _ => Expr::Neg(Box::new(a)),
                }
            }
            Expr::Old(a) => Expr::Old(Box::new(a.fold_consts())),
            Expr::Read(m, i) => Expr::Read(Box::new(m.fold_consts()), Box::new(i.fold_consts())),
            Expr::Write(m, i, v) => Expr::Write(
                Box::new(m.fold_consts()),
                Box::new(i.fold_consts()),
                Box::new(v.fold_consts()),
            ),
            Expr::Ite(c, t, e) => Expr::Ite(
                c.clone(),
                Box::new(t.fold_consts()),
                Box::new(e.fold_consts()),
            ),
        }
    }

    /// True if the expression contains an `old(..)` marker.
    pub fn contains_old(&self) -> bool {
        match self {
            Expr::Old(_) => true,
            Expr::Var(_) | Expr::Nu(_) | Expr::Int(_) => false,
            Expr::App(_, args) => args.iter().any(Expr::contains_old),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.contains_old() || b.contains_old()
            }
            Expr::Neg(a) => a.contains_old(),
            Expr::Read(m, i) => m.contains_old() || i.contains_old(),
            Expr::Write(m, i, v) => m.contains_old() || i.contains_old() || v.contains_old(),
            Expr::Ite(c, t, e) => c.contains_old() || t.contains_old() || e.contains_old(),
        }
    }
}

impl Formula {
    /// Conjunction that flattens trivial cases.
    pub fn and(conjuncts: Vec<Formula>) -> Formula {
        let mut out = Vec::new();
        for c in conjuncts {
            match c {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::True,
            1 => out.pop().expect("len checked"),
            _ => Formula::And(out),
        }
    }

    /// Disjunction that flattens trivial cases.
    pub fn or(disjuncts: Vec<Formula>) -> Formula {
        let mut out = Vec::new();
        for d in disjuncts {
            match d {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::False,
            1 => out.pop().expect("len checked"),
            _ => Formula::Or(out),
        }
    }

    /// Negation with double-negation elimination.
    #[allow(clippy::should_implement_trait)] // associated constructor, not an operator
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            Formula::Rel(op, a, b) => Formula::Rel(op.negated(), a, b),
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Convenience constructor for `lhs == rhs`.
    pub fn eq(lhs: Expr, rhs: Expr) -> Formula {
        Formula::Rel(RelOp::Eq, lhs, rhs)
    }

    /// Convenience constructor for `lhs != rhs`.
    pub fn ne(lhs: Expr, rhs: Expr) -> Formula {
        Formula::Rel(RelOp::Ne, lhs, rhs)
    }

    /// Collects the free variables of the formula into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Rel(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Formula::Not(f) => f.collect_vars(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_vars(out);
                }
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// The free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    /// Collects the ν-constants of the formula into `out`.
    pub fn collect_nus(&self, out: &mut BTreeSet<NuConst>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Rel(_, a, b) => {
                a.collect_nus(out);
                b.collect_nus(out);
            }
            Formula::Not(f) => f.collect_nus(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_nus(out);
                }
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                a.collect_nus(out);
                b.collect_nus(out);
            }
        }
    }

    /// Capture-free substitution `self[e/x]`.
    pub fn subst(&self, x: &str, e: &Expr) -> Formula {
        match self {
            Formula::True | Formula::False => self.clone(),
            Formula::Rel(op, a, b) => Formula::Rel(*op, a.subst(x, e), b.subst(x, e)),
            Formula::Not(f) => Formula::Not(Box::new(f.subst(x, e))),
            Formula::And(fs) => Formula::And(fs.iter().map(|f| f.subst(x, e)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|f| f.subst(x, e)).collect()),
            Formula::Implies(a, b) => {
                Formula::Implies(Box::new(a.subst(x, e)), Box::new(b.subst(x, e)))
            }
            Formula::Iff(a, b) => Formula::Iff(Box::new(a.subst(x, e)), Box::new(b.subst(x, e))),
        }
    }

    /// Applies the `write`-elimination rewriting of §4.4.1 to all
    /// expressions inside the formula.
    pub fn eliminate_writes(&self) -> Formula {
        match self {
            Formula::True | Formula::False => self.clone(),
            Formula::Rel(op, a, b) => Formula::Rel(*op, a.eliminate_writes(), b.eliminate_writes()),
            Formula::Not(f) => Formula::Not(Box::new(f.eliminate_writes())),
            Formula::And(fs) => Formula::And(fs.iter().map(Formula::eliminate_writes).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(Formula::eliminate_writes).collect()),
            Formula::Implies(a, b) => Formula::Implies(
                Box::new(a.eliminate_writes()),
                Box::new(b.eliminate_writes()),
            ),
            Formula::Iff(a, b) => Formula::Iff(
                Box::new(a.eliminate_writes()),
                Box::new(b.eliminate_writes()),
            ),
        }
    }

    /// Collects the atomic predicates of the formula (`Atoms(f)` in §4.4.1).
    ///
    /// `write` symbols are first eliminated by rewriting, then relations
    /// over `ite` expressions are split into the atoms of the condition and
    /// the atoms of both branch relations — exactly the treatment the paper
    /// gives for `p(read(write(x, e1, e2), e3), e4)`, which yields
    /// `{e1 = e3, p(e2, e4), p(read(x, e3), e4)}`.
    pub fn atoms(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        self.eliminate_writes().collect_atoms(&mut out);
        out
    }

    fn collect_atoms(&self, out: &mut BTreeSet<Atom>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Rel(op, a, b) => collect_rel_atoms(*op, a, b, out),
            Formula::Not(f) => f.collect_atoms(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_atoms(out);
                }
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
        }
    }

    /// True if the formula contains an `old(..)` marker.
    pub fn contains_old(&self) -> bool {
        match self {
            Formula::True | Formula::False => false,
            Formula::Rel(_, a, b) => a.contains_old() || b.contains_old(),
            Formula::Not(f) => f.contains_old(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().any(Formula::contains_old),
            Formula::Implies(a, b) | Formula::Iff(a, b) => a.contains_old() || b.contains_old(),
        }
    }
}

/// Splits a relation whose operands may contain `ite` into ite-free atoms.
fn collect_rel_atoms(op: RelOp, lhs: &Expr, rhs: &Expr, out: &mut BTreeSet<Atom>) {
    // Lift the leftmost ite (searching both operands).
    if let Some((cond, then_rel, else_rel)) = split_rel_ite(op, lhs, rhs) {
        cond.collect_atoms(out);
        collect_rel_atoms(then_rel.0, &then_rel.1, &then_rel.2, out);
        collect_rel_atoms(else_rel.0, &else_rel.1, &else_rel.2, out);
        return;
    }
    let (atom, _polarity) = Atom::from_rel(op, lhs.clone(), rhs.clone());
    // Degenerate atoms are dropped: identical operands, or ground atoms
    // (no variables or ν-constants) — both are equivalent to true/false
    // and carry no vocabulary.
    if atom.op == RelOp::Eq && atom.lhs == atom.rhs {
        return;
    }
    if atom.free_vars().is_empty() && atom.nu_consts().is_empty() {
        return;
    }
    out.insert(atom);
}

type RelTriple = (RelOp, Expr, Expr);

/// If either operand contains an `ite` anywhere, rewrites the relation into
/// a case split on the outermost such `ite` and returns
/// `(condition, then-relation, else-relation)`.
fn split_rel_ite(op: RelOp, lhs: &Expr, rhs: &Expr) -> Option<(Formula, RelTriple, RelTriple)> {
    if let Some((cond, then_e, else_e)) = find_ite(lhs) {
        let then_lhs = replace_first_ite(lhs, &then_e);
        let else_lhs = replace_first_ite(lhs, &else_e);
        return Some((
            cond,
            (op, then_lhs, rhs.clone()),
            (op, else_lhs, rhs.clone()),
        ));
    }
    if let Some((cond, then_e, else_e)) = find_ite(rhs) {
        let then_rhs = replace_first_ite(rhs, &then_e);
        let else_rhs = replace_first_ite(rhs, &else_e);
        return Some((
            cond,
            (op, lhs.clone(), then_rhs),
            (op, lhs.clone(), else_rhs),
        ));
    }
    None
}

/// Finds the first (pre-order) `ite` subexpression, returning its parts.
fn find_ite(e: &Expr) -> Option<(Formula, Expr, Expr)> {
    match e {
        Expr::Ite(c, t, el) => Some(((**c).clone(), (**t).clone(), (**el).clone())),
        Expr::Var(_) | Expr::Nu(_) | Expr::Int(_) => None,
        Expr::App(_, args) => args.iter().find_map(find_ite),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => find_ite(a).or_else(|| find_ite(b)),
        Expr::Neg(a) | Expr::Old(a) => find_ite(a),
        Expr::Read(m, i) => find_ite(m).or_else(|| find_ite(i)),
        Expr::Write(m, i, v) => find_ite(m).or_else(|| find_ite(i)).or_else(|| find_ite(v)),
    }
}

/// Replaces the first (pre-order) `ite` subexpression with `replacement`.
fn replace_first_ite(e: &Expr, replacement: &Expr) -> Expr {
    fn go(e: &Expr, replacement: &Expr, done: &mut bool) -> Expr {
        if *done {
            return e.clone();
        }
        match e {
            Expr::Ite(..) => {
                *done = true;
                replacement.clone()
            }
            Expr::Var(_) | Expr::Nu(_) | Expr::Int(_) => e.clone(),
            Expr::App(f, args) => Expr::App(
                f.clone(),
                args.iter().map(|a| go(a, replacement, done)).collect(),
            ),
            Expr::Add(a, b) => Expr::Add(
                Box::new(go(a, replacement, done)),
                Box::new(go(b, replacement, done)),
            ),
            Expr::Sub(a, b) => Expr::Sub(
                Box::new(go(a, replacement, done)),
                Box::new(go(b, replacement, done)),
            ),
            Expr::Mul(a, b) => Expr::Mul(
                Box::new(go(a, replacement, done)),
                Box::new(go(b, replacement, done)),
            ),
            Expr::Neg(a) => Expr::Neg(Box::new(go(a, replacement, done))),
            Expr::Old(a) => Expr::Old(Box::new(go(a, replacement, done))),
            Expr::Read(m, i) => Expr::Read(
                Box::new(go(m, replacement, done)),
                Box::new(go(i, replacement, done)),
            ),
            Expr::Write(m, i, v) => Expr::Write(
                Box::new(go(m, replacement, done)),
                Box::new(go(i, replacement, done)),
                Box::new(go(v, replacement, done)),
            ),
        }
    }
    let mut done = false;
    go(e, replacement, &mut done)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Expr {
        Expr::var(n)
    }

    #[test]
    fn atom_canonicalization_orders_eq_operands() {
        let (a1, p1) = Atom::from_rel(RelOp::Eq, v("y"), v("x"));
        let (a2, p2) = Atom::from_rel(RelOp::Eq, v("x"), v("y"));
        assert_eq!(a1, a2);
        assert!(p1 && p2);
    }

    #[test]
    fn atom_canonicalization_rewrites_negative_ops() {
        let (a, pos) = Atom::from_rel(RelOp::Ne, v("x"), Expr::Int(0));
        assert_eq!(a.op, RelOp::Eq);
        assert!(!pos);
        let (a, pos) = Atom::from_rel(RelOp::Ge, v("x"), Expr::Int(0));
        assert_eq!(a.op, RelOp::Lt);
        assert!(!pos);
        let (a, pos) = Atom::from_rel(RelOp::Gt, v("x"), Expr::Int(0));
        assert_eq!(a.op, RelOp::Le);
        assert!(!pos);
    }

    #[test]
    fn constant_folding_leaves_overflowing_operations_unfolded() {
        let max = || Expr::Int(i64::MAX);
        let min = || Expr::Int(i64::MIN);
        let overflowing = [
            Expr::Add(Box::new(max()), Box::new(Expr::Int(2))),
            Expr::Sub(Box::new(min()), Box::new(Expr::Int(1))),
            Expr::Mul(Box::new(max()), Box::new(Expr::Int(2))),
            Expr::Neg(Box::new(min())),
        ];
        for e in overflowing {
            assert_eq!(e.fold_consts(), e);
        }
        let fits = Expr::Sub(
            Box::new(Expr::Sub(Box::new(Expr::Int(0)), Box::new(max()))),
            Box::new(Expr::Int(1)),
        );
        assert_eq!(fits.fold_consts(), min());
    }

    #[test]
    fn write_elimination_same_index() {
        // read(write(m, i, v), i) = v
        let e = Expr::Read(
            Box::new(Expr::Write(
                Box::new(v("m")),
                Box::new(v("i")),
                Box::new(v("val")),
            )),
            Box::new(v("i")),
        );
        assert_eq!(e.eliminate_writes(), v("val"));
    }

    #[test]
    fn write_elimination_builds_ite() {
        let e = Expr::Read(
            Box::new(Expr::Write(
                Box::new(v("m")),
                Box::new(v("i")),
                Box::new(v("val")),
            )),
            Box::new(v("j")),
        );
        let expected = Expr::Ite(
            Box::new(Formula::eq(v("i"), v("j"))),
            Box::new(v("val")),
            Box::new(Expr::Read(Box::new(v("m")), Box::new(v("j")))),
        );
        assert_eq!(e.eliminate_writes(), expected);
    }

    #[test]
    fn write_elimination_nested_writes() {
        // read(write(write(m, i1, v1), i2, v2), j)
        let inner = Expr::Write(Box::new(v("m")), Box::new(v("i1")), Box::new(v("v1")));
        let outer = Expr::Write(Box::new(inner), Box::new(v("i2")), Box::new(v("v2")));
        let e = Expr::Read(Box::new(outer), Box::new(v("j")));
        let result = e.eliminate_writes();
        // Should contain no read-over-write anywhere.
        fn no_row(e: &Expr) -> bool {
            match e {
                Expr::Read(m, _) => !matches!(**m, Expr::Write(..)),
                Expr::Ite(_, t, el) => no_row(t) && no_row(el),
                _ => true,
            }
        }
        assert!(no_row(&result), "got {result:?}");
    }

    #[test]
    fn atoms_of_paper_example() {
        // wp(x := write(x, e1, e2), p(read(x, e3), e4)) example of §4.4.1:
        // the atom set of read(write(x, e1, e2), e3) == e4 should be
        // {e1 == e3, e2 == e4, read(x, e3) == e4}.
        let f = Formula::eq(
            Expr::Read(
                Box::new(Expr::Write(
                    Box::new(v("x")),
                    Box::new(v("e1")),
                    Box::new(v("e2")),
                )),
                Box::new(v("e3")),
            ),
            v("e4"),
        );
        let atoms = f.atoms();
        let expected: BTreeSet<Atom> = [
            Atom::from_rel(RelOp::Eq, v("e1"), v("e3")).0,
            Atom::from_rel(RelOp::Eq, v("e2"), v("e4")).0,
            Atom::from_rel(RelOp::Eq, Expr::read_var("x", v("e3")), v("e4")).0,
        ]
        .into_iter()
        .collect();
        assert_eq!(atoms, expected);
    }

    #[test]
    fn and_or_flattening() {
        let f = Formula::and(vec![
            Formula::True,
            Formula::and(vec![Formula::eq(v("x"), Expr::Int(0))]),
        ]);
        assert_eq!(f, Formula::eq(v("x"), Expr::Int(0)));
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(Formula::and(vec![]), Formula::True);
        assert_eq!(
            Formula::or(vec![Formula::True, Formula::eq(v("x"), Expr::Int(0))]),
            Formula::True
        );
    }

    #[test]
    fn negation_pushes_into_relations() {
        let f = Formula::not(Formula::eq(v("x"), Expr::Int(0)));
        assert_eq!(f, Formula::ne(v("x"), Expr::Int(0)));
        let g = Formula::not(Formula::not(Formula::True));
        assert_eq!(g, Formula::True);
    }

    #[test]
    fn subst_replaces_free_occurrences() {
        let f = Formula::eq(Expr::read_var("m", v("x")), v("x"));
        let g = f.subst("x", &Expr::Int(3));
        assert_eq!(
            g,
            Formula::eq(Expr::read_var("m", Expr::Int(3)), Expr::Int(3))
        );
    }

    #[test]
    fn degenerate_atoms_dropped() {
        let f = Formula::eq(v("x"), v("x"));
        assert!(f.atoms().is_empty());
    }

    #[test]
    fn nu_collection() {
        let nu = NuConst {
            site: 3,
            callee: "malloc".into(),
            var: "ret".into(),
        };
        let f = Formula::ne(Expr::Nu(nu.clone()), Expr::Int(0));
        assert_eq!(f.atoms().len(), 1);
        let a = f.atoms().into_iter().next().expect("one atom");
        assert_eq!(a.nu_consts().into_iter().collect::<Vec<_>>(), vec![nu]);
    }
}
