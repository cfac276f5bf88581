//! Translation from IR expressions/formulas to solver terms.

use std::collections::BTreeMap;

use acspec_ir::expr::{Expr, Formula, NuConst, RelOp};
use acspec_smt::term::{Term, TermSort};
use acspec_smt::{Ctx, TermId};

/// A variable environment: current solver term for each named variable and
/// ν-constant. Ordered maps so that every walk over an environment (branch
/// merges, witness extraction) visits entries in the same order in every
/// session — term creation order, and therefore model enumeration, stays
/// deterministic across repeated encodes of the same procedure.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// Terms for named variables.
    pub vars: BTreeMap<String, TermId>,
    /// Terms for ν-constants.
    pub nus: BTreeMap<NuConst, TermId>,
}

/// Errors during translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// A variable had no binding in the environment.
    UnboundVar(String),
    /// A ν-constant had no binding in the environment.
    UnboundNu(String),
    /// `old(..)` survived desugaring.
    UnexpectedOld,
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::UnboundVar(v) => write!(f, "unbound variable `{v}`"),
            TranslateError::UnboundNu(n) => write!(f, "unbound ν-constant `{n}`"),
            TranslateError::UnexpectedOld => write!(f, "unexpected `old(..)`"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Translates an IR expression to a term under `env`.
///
/// Non-linear multiplications are mapped to the uninterpreted symbol
/// `mul` (congruence still applies); everything else is precise.
///
/// # Errors
///
/// Returns [`TranslateError`] for unbound names or stray `old(..)`.
pub fn expr_to_term(ctx: &mut Ctx, env: &Env, e: &Expr) -> Result<TermId, TranslateError> {
    match e {
        Expr::Var(v) => env
            .vars
            .get(v)
            .copied()
            .ok_or_else(|| TranslateError::UnboundVar(v.clone())),
        Expr::Nu(nu) => env
            .nus
            .get(nu)
            .copied()
            .ok_or_else(|| TranslateError::UnboundNu(nu.to_string())),
        Expr::Int(n) => Ok(ctx.mk_int(*n)),
        Expr::App(f, args) => {
            let args: Result<Vec<TermId>, _> =
                args.iter().map(|a| expr_to_term(ctx, env, a)).collect();
            Ok(ctx.mk_app(format!("uf:{f}"), args?))
        }
        Expr::Add(a, b) => {
            let ta = expr_to_term(ctx, env, a)?;
            let tb = expr_to_term(ctx, env, b)?;
            Ok(ctx.mk_add(vec![ta, tb]))
        }
        Expr::Sub(a, b) => {
            let ta = expr_to_term(ctx, env, a)?;
            let tb = expr_to_term(ctx, env, b)?;
            Ok(ctx.mk_sub(ta, tb))
        }
        Expr::Mul(a, b) => {
            let ta = expr_to_term(ctx, env, a)?;
            let tb = expr_to_term(ctx, env, b)?;
            if let Term::IntConst(c) = *ctx.term(ta) {
                Ok(ctx.mk_mulc(c, tb))
            } else if let Term::IntConst(c) = *ctx.term(tb) {
                Ok(ctx.mk_mulc(c, ta))
            } else {
                // Non-linear: uninterpreted.
                Ok(ctx.mk_app("mul", vec![ta, tb]))
            }
        }
        Expr::Neg(a) => {
            let ta = expr_to_term(ctx, env, a)?;
            Ok(ctx.mk_mulc(-1, ta))
        }
        Expr::Read(m, i) => {
            let tm = expr_to_term(ctx, env, m)?;
            let ti = expr_to_term(ctx, env, i)?;
            Ok(ctx.mk_read(tm, ti))
        }
        Expr::Write(m, i, v) => {
            let tm = expr_to_term(ctx, env, m)?;
            let ti = expr_to_term(ctx, env, i)?;
            let tv = expr_to_term(ctx, env, v)?;
            Ok(ctx.mk_write(tm, ti, tv))
        }
        Expr::Ite(c, t, el) => {
            let tc = formula_to_term(ctx, env, c)?;
            let tt = expr_to_term(ctx, env, t)?;
            let te = expr_to_term(ctx, env, el)?;
            Ok(ctx.mk_ite(tc, tt, te))
        }
        Expr::Old(_) => Err(TranslateError::UnexpectedOld),
    }
}

/// Translates an IR formula to a boolean term under `env`.
///
/// # Errors
///
/// Returns [`TranslateError`] for unbound names or stray `old(..)`.
pub fn formula_to_term(ctx: &mut Ctx, env: &Env, f: &Formula) -> Result<TermId, TranslateError> {
    match f {
        Formula::True => Ok(ctx.mk_bool(true)),
        Formula::False => Ok(ctx.mk_bool(false)),
        Formula::Rel(op, a, b) => {
            let ta = expr_to_term(ctx, env, a)?;
            let tb = expr_to_term(ctx, env, b)?;
            // Map-sorted equality is fine; orderings require ints (the IR
            // typechecker enforces this upstream).
            Ok(match op {
                RelOp::Eq => {
                    if ctx.sort(ta) == TermSort::Bool {
                        ctx.mk_iff(ta, tb)
                    } else {
                        ctx.mk_eq(ta, tb)
                    }
                }
                RelOp::Ne => {
                    let e = ctx.mk_eq(ta, tb);
                    ctx.mk_not(e)
                }
                RelOp::Lt => ctx.mk_lt(ta, tb),
                RelOp::Le => ctx.mk_le(ta, tb),
                RelOp::Gt => ctx.mk_lt(tb, ta),
                RelOp::Ge => ctx.mk_le(tb, ta),
            })
        }
        Formula::Not(g) => {
            let t = formula_to_term(ctx, env, g)?;
            Ok(ctx.mk_not(t))
        }
        Formula::And(fs) => {
            let ts: Result<Vec<TermId>, _> =
                fs.iter().map(|g| formula_to_term(ctx, env, g)).collect();
            Ok(ctx.mk_and(ts?))
        }
        Formula::Or(fs) => {
            let ts: Result<Vec<TermId>, _> =
                fs.iter().map(|g| formula_to_term(ctx, env, g)).collect();
            Ok(ctx.mk_or(ts?))
        }
        Formula::Implies(a, b) => {
            let ta = formula_to_term(ctx, env, a)?;
            let tb = formula_to_term(ctx, env, b)?;
            Ok(ctx.mk_implies(ta, tb))
        }
        Formula::Iff(a, b) => {
            let ta = formula_to_term(ctx, env, a)?;
            let tb = formula_to_term(ctx, env, b)?;
            Ok(ctx.mk_iff(ta, tb))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acspec_ir::parse::{parse_expr, parse_formula};

    fn env_with(ctx: &mut Ctx, ints: &[&str], maps: &[&str]) -> Env {
        let mut env = Env::default();
        for v in ints {
            let t = ctx.mk_int_var(format!("{v}!0"));
            env.vars.insert((*v).to_string(), t);
        }
        for v in maps {
            let t = ctx.mk_map_var(format!("{v}!0"));
            env.vars.insert((*v).to_string(), t);
        }
        env
    }

    #[test]
    fn translates_reads_and_relations() {
        let mut ctx = Ctx::new();
        let env = env_with(&mut ctx, &["c"], &["Freed"]);
        let f = parse_formula("Freed[c] == 0").expect("parses");
        let t = formula_to_term(&mut ctx, &env, &f).expect("translates");
        assert_eq!(ctx.sort(t), TermSort::Bool);
    }

    #[test]
    fn unbound_variable_errors() {
        let mut ctx = Ctx::new();
        let env = Env::default();
        let f = parse_formula("x == 0").expect("parses");
        assert_eq!(
            formula_to_term(&mut ctx, &env, &f),
            Err(TranslateError::UnboundVar("x".into()))
        );
    }

    #[test]
    fn nonlinear_mul_becomes_uninterpreted() {
        let mut ctx = Ctx::new();
        let env = env_with(&mut ctx, &["x", "y"], &[]);
        let e = parse_expr("x * y").expect("parses");
        let t = expr_to_term(&mut ctx, &env, &e).expect("translates");
        assert!(matches!(ctx.term(t), Term::App(f, _) if f == "mul"));
        let e = parse_expr("3 * y").expect("parses");
        let t = expr_to_term(&mut ctx, &env, &e).expect("translates");
        assert!(matches!(ctx.term(t), Term::MulC(3, _)));
    }
}
