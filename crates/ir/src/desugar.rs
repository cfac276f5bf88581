//! Desugaring to the loop-free, call-free core language (§2.1).
//!
//! * A call `r := call pr(e)` at location `l` becomes
//!   `assert pre[e/x]; r, gl := ν_l.pr.r, ν_l.pr.gl; assume post`,
//!   with fresh symbolic constants per call site.
//! * Loops are unrolled a bounded number of times (the paper unrolls
//!   twice, §5); the residual iteration is cut with `assume ¬c`
//!   (or `skip` for non-deterministic loops).
//! * Assertions are numbered in textual order.

use std::collections::{BTreeMap, BTreeSet};

use crate::expr::{Expr, Formula, NuConst};
use crate::program::{Procedure, Program};
use crate::stmt::{AssertId, BranchCond, Stmt};
use crate::Sort;

/// Options controlling desugaring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesugarOptions {
    /// How many times to unroll each loop (the paper uses 2).
    pub loop_unroll: u32,
}

impl Default for DesugarOptions {
    fn default() -> Self {
        DesugarOptions { loop_unroll: 2 }
    }
}

/// How many statements unrolled loop bodies of one procedure may hold.
/// Each unrolled iteration re-expands its body, nested loops included,
/// so d nested loops copy their innermost body 2^d times. Past this
/// bound desugaring stops with [`DesugarError::UnrollTooLarge`] instead
/// of running out of memory: a C function of d nested `while` loops
/// around one statement unrolls to 28,664 statements at d = 12 and
/// 458,744 at d = 16. No procedure of the paper suite or the corpus
/// unrolls to more than 10.
pub const MAX_UNROLLED_STMTS: usize = 10_000;

/// Metadata for a numbered assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertMeta {
    /// The assertion's id (index in textual order).
    pub id: AssertId,
    /// Provenance tag.
    pub tag: String,
}

/// A desugared procedure: loop-free, call-free, with numbered assertions.
#[derive(Debug, Clone)]
pub struct DesugaredProc {
    /// Procedure name.
    pub name: String,
    /// The core body.
    pub body: Stmt,
    /// Metadata for each assertion, indexed by [`AssertId`].
    pub asserts: Vec<AssertMeta>,
    /// Every named variable in scope (params, returns, locals, introduced
    /// temporaries, and globals) with its sort.
    pub vars: BTreeMap<String, Sort>,
    /// The environment-input variables: parameters and globals. Together
    /// with [`DesugaredProc::nus`] these form the vocabulary over which
    /// environment specifications range.
    pub inputs: Vec<String>,
    /// The symbolic call-site constants introduced, with their sorts.
    pub nus: Vec<(NuConst, Sort)>,
    /// Number of call sites expanded.
    pub call_sites: u32,
}

/// Errors produced by desugaring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesugarError {
    /// The procedure has no body (external).
    NoBody(String),
    /// A call refers to an unknown procedure.
    UnknownCallee(String),
    /// A call's argument or return arity does not match the callee.
    ArityMismatch {
        /// Callee name.
        callee: String,
    },
    /// `old(..)` wraps something other than a modified global.
    BadOld(String),
    /// The procedure's unrolled loops hold more than
    /// [`MAX_UNROLLED_STMTS`] statements.
    UnrollTooLarge(String),
}

impl std::fmt::Display for DesugarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesugarError::NoBody(p) => write!(f, "procedure `{p}` has no body"),
            DesugarError::UnknownCallee(c) => write!(f, "call to unknown procedure `{c}`"),
            DesugarError::ArityMismatch { callee } => {
                write!(f, "arity mismatch in call to `{callee}`")
            }
            DesugarError::BadOld(what) => {
                write!(f, "`old` applied to non-modified-global `{what}`")
            }
            DesugarError::UnrollTooLarge(p) => write!(
                f,
                "the loops of `{p}` unroll to more than {MAX_UNROLLED_STMTS} statements"
            ),
        }
    }
}

impl std::error::Error for DesugarError {}

struct Ctx<'a> {
    program: &'a Program,
    proc_name: &'a str,
    opts: DesugarOptions,
    /// Loops enclosing the statement being transformed.
    loop_depth: u32,
    /// Statements transformed inside unrolled loop bodies so far.
    unrolled_stmts: usize,
    next_site: u32,
    nus: Vec<(NuConst, Sort)>,
    extra_vars: Vec<(String, Sort)>,
}

/// Desugars `proc` of `program` into the core language.
///
/// # Errors
///
/// Returns a [`DesugarError`] if the procedure is external, calls an
/// unknown procedure, has an arity mismatch, or misuses `old(..)`.
pub fn desugar_procedure(
    program: &Program,
    proc: &Procedure,
    opts: DesugarOptions,
) -> Result<DesugaredProc, DesugarError> {
    let body = proc
        .body
        .as_ref()
        .ok_or_else(|| DesugarError::NoBody(proc.name.clone()))?;
    let mut ctx = Ctx {
        program,
        proc_name: &proc.name,
        opts,
        loop_depth: 0,
        unrolled_stmts: 0,
        next_site: 0,
        nus: Vec::new(),
        extra_vars: Vec::new(),
    };
    let mut body = transform(&mut ctx, body)?;
    let mut asserts = Vec::new();
    number_asserts(&mut body, &mut asserts);

    let mut vars: BTreeMap<String, Sort> = proc.var_sorts.clone();
    for (g, s) in &program.globals {
        vars.entry(g.clone()).or_insert(*s);
    }
    for (v, s) in &ctx.extra_vars {
        vars.insert(v.clone(), *s);
    }
    let mut inputs: Vec<String> = proc.params.clone();
    for (g, _) in &program.globals {
        if !proc.var_sorts.contains_key(g) {
            inputs.push(g.clone());
        }
    }
    Ok(DesugaredProc {
        name: proc.name.clone(),
        body,
        asserts,
        vars,
        inputs,
        nus: ctx.nus,
        call_sites: ctx.next_site,
    })
}

fn transform(ctx: &mut Ctx<'_>, s: &Stmt) -> Result<Stmt, DesugarError> {
    if ctx.loop_depth > 0 && !matches!(s, Stmt::Seq(_)) {
        ctx.unrolled_stmts += 1;
        if ctx.unrolled_stmts > MAX_UNROLLED_STMTS {
            return Err(DesugarError::UnrollTooLarge(ctx.proc_name.to_string()));
        }
    }
    match s {
        Stmt::Skip | Stmt::Assert { .. } | Stmt::Assume(_) | Stmt::Assign(..) | Stmt::Havoc(_) => {
            Ok(s.clone())
        }
        Stmt::Seq(ss) => {
            let ts: Result<Vec<_>, _> = ss.iter().map(|s| transform(ctx, s)).collect();
            Ok(Stmt::Seq(ts?))
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => Ok(Stmt::If {
            cond: cond.clone(),
            then_branch: Box::new(transform(ctx, then_branch)?),
            else_branch: Box::new(transform(ctx, else_branch)?),
        }),
        Stmt::While { cond, body } => unroll(ctx, cond, body, ctx.opts.loop_unroll),
        Stmt::Call {
            lhs, callee, args, ..
        } => expand_call(ctx, lhs, callee, args),
    }
}

fn unroll(ctx: &mut Ctx<'_>, cond: &BranchCond, body: &Stmt, n: u32) -> Result<Stmt, DesugarError> {
    if n == 0 {
        // Residual iterations are cut: the loop must have exited.
        return Ok(match cond {
            BranchCond::Det(c) => Stmt::Assume(Formula::not(c.clone())),
            BranchCond::NonDet => Stmt::Skip,
        });
    }
    // Each unrolled iteration re-expands the body so call sites inside the
    // loop get fresh ν constants per iteration.
    ctx.loop_depth += 1;
    let iter_body = transform(ctx, body)?;
    ctx.loop_depth -= 1;
    let rest = unroll(ctx, cond, body, n - 1)?;
    Ok(Stmt::If {
        cond: cond.clone(),
        then_branch: Box::new(Stmt::seq(vec![iter_body, rest])),
        else_branch: Box::new(Stmt::Skip),
    })
}

fn expand_call(
    ctx: &mut Ctx<'_>,
    lhs: &[String],
    callee: &str,
    args: &[Expr],
) -> Result<Stmt, DesugarError> {
    let callee_proc = ctx
        .program
        .procedure(callee)
        .ok_or_else(|| DesugarError::UnknownCallee(callee.to_string()))?
        .clone();
    if callee_proc.params.len() != args.len() || callee_proc.returns.len() != lhs.len() {
        return Err(DesugarError::ArityMismatch {
            callee: callee.to_string(),
        });
    }
    let site = ctx.next_site;
    ctx.next_site += 1;
    let contract = &callee_proc.contract;
    let mut out = Vec::new();

    // assert pre[args/params]
    let mut pre = contract.requires.clone();
    for (p, a) in callee_proc.params.iter().zip(args) {
        pre = pre.subst(p, a);
    }
    if pre.contains_old() {
        return Err(DesugarError::BadOld(format!(
            "requires clause of `{callee}`"
        )));
    }
    if pre != Formula::True {
        out.push(Stmt::assert(pre, format!("pre:{callee}@{site}")));
    }

    // Snapshot old values of modified globals if the postcondition uses
    // `old(..)`.
    let uses_old = contract.ensures.contains_old();
    let mut old_names: BTreeMap<String, String> = BTreeMap::new();
    if uses_old {
        for g in &contract.modifies {
            let sort = ctx
                .program
                .global_sort(g)
                .ok_or_else(|| DesugarError::BadOld(g.clone()))?;
            let tmp = format!("%old{site}_{g}");
            ctx.extra_vars.push((tmp.clone(), sort));
            out.push(Stmt::Assign(tmp.clone(), Expr::var(g.clone())));
            old_names.insert(g.clone(), tmp);
        }
    }

    // r, gl := ν_l.pr.r, ν_l.pr.gl — except for *definitional*
    // postconditions. A conjunct of the form `x == rhs` where `x` is a
    // modified global or return and `rhs` only mentions pre-state values
    // determines `x` completely; we then emit a direct assignment
    // `x := rhs` instead of a ν-constant plus an assume (this is exactly
    // the HAVOC-style inlining the paper shows for `free` in Figure 1,
    // and it keeps the mined vocabulary small).
    let mut post = contract.ensures.clone();
    for (p, a) in callee_proc.params.iter().zip(args) {
        post = post.subst(p, a);
    }
    post = resolve_old(&post, &old_names, callee)?;
    let mut conjuncts: Vec<Formula> = match post {
        Formula::True => Vec::new(),
        Formula::And(fs) => fs,
        other => vec![other],
    };
    let post_state: Vec<String> = contract
        .modifies
        .iter()
        .cloned()
        .chain(callee_proc.returns.iter().cloned())
        .collect();
    let mut definitional: BTreeMap<String, Expr> = BTreeMap::new();
    conjuncts.retain(|conj| {
        if let Formula::Rel(crate::expr::RelOp::Eq, a, b) = conj {
            for (lhs_e, rhs_e) in [(a, b), (b, a)] {
                if let Expr::Var(x) = lhs_e {
                    if post_state.contains(x)
                        && !definitional.contains_key(x)
                        && rhs_e.free_vars().iter().all(|v| !post_state.contains(v))
                    {
                        definitional.insert(x.clone(), rhs_e.clone());
                        return false;
                    }
                }
            }
        }
        true
    });

    // Definitional right-hand sides refer to *pre-state* globals; since
    // the assignments below overwrite modified globals in sequence,
    // snapshot every modified global mentioned by any definitional rhs
    // and substitute the snapshots in.
    let pre_needed: BTreeSet<String> = definitional
        .values()
        .flat_map(|rhs| rhs.free_vars())
        .filter(|v| contract.modifies.contains(v))
        .collect();
    for g in &pre_needed {
        let sort = ctx
            .program
            .global_sort(g)
            .ok_or_else(|| DesugarError::BadOld(g.clone()))?;
        let tmp = format!("%pre{site}_{g}");
        ctx.extra_vars.push((tmp.clone(), sort));
        out.push(Stmt::Assign(tmp.clone(), Expr::var(g.clone())));
    }
    let resolve_pre = |rhs: &Expr| -> Expr {
        let mut rhs = rhs.clone();
        for g in &pre_needed {
            rhs = rhs.subst(g, &Expr::var(format!("%pre{site}_{g}")));
        }
        rhs
    };

    let assign_nu = |ctx: &mut Ctx<'_>, target: &str, formal: &str, sort: Sort| {
        let nu = NuConst {
            site,
            callee: callee.to_string(),
            var: formal.to_string(),
        };
        ctx.nus.push((nu.clone(), sort));
        (Stmt::Assign(target.to_string(), Expr::Nu(nu.clone())), nu)
    };
    // Modified globals first (their pre-state was already snapshotted).
    let mut post_substs: Vec<(String, Expr)> = Vec::new();
    for g in &contract.modifies {
        let sort = ctx
            .program
            .global_sort(g)
            .ok_or_else(|| DesugarError::BadOld(g.clone()))?;
        if let Some(rhs) = definitional.get(g) {
            out.push(Stmt::Assign(g.clone(), resolve_pre(rhs)));
            continue;
        }
        let (stmt, nu) = assign_nu(ctx, g, g, sort);
        out.push(stmt);
        post_substs.push((g.clone(), Expr::Nu(nu)));
    }
    for (ret, target) in callee_proc.returns.iter().zip(lhs) {
        let sort = callee_proc.var_sort(ret).unwrap_or(Sort::Int);
        if let Some(rhs) = definitional.get(ret) {
            let rhs = resolve_pre(rhs);
            out.push(Stmt::Assign(target.clone(), rhs.clone()));
            // Remaining conjuncts may still mention the return name.
            post_substs.push((ret.clone(), rhs));
            continue;
        }
        let (stmt, nu) = assign_nu(ctx, target, ret, sort);
        out.push(stmt);
        post_substs.push((ret.clone(), Expr::Nu(nu)));
    }

    // assume post[ν/returns+modified, old-temps/old(g)]
    let mut rest = Formula::and(conjuncts);
    for (name, nu) in &post_substs {
        rest = rest.subst(name, nu);
    }
    if rest != Formula::True {
        out.push(Stmt::Assume(rest));
    }
    Ok(Stmt::seq(out))
}

/// Replaces `old(g)` with the snapshot temp for `g`.
fn resolve_old(
    f: &Formula,
    old_names: &BTreeMap<String, String>,
    callee: &str,
) -> Result<Formula, DesugarError> {
    fn go_expr(
        e: &Expr,
        old_names: &BTreeMap<String, String>,
        callee: &str,
    ) -> Result<Expr, DesugarError> {
        match e {
            Expr::Old(inner) => match &**inner {
                Expr::Var(g) => old_names
                    .get(g)
                    .map(|t| Expr::var(t.clone()))
                    .ok_or_else(|| DesugarError::BadOld(format!("old({g}) in `{callee}`"))),
                other => Err(DesugarError::BadOld(format!(
                    "old({other:?}) in `{callee}`"
                ))),
            },
            Expr::Var(_) | Expr::Nu(_) | Expr::Int(_) => Ok(e.clone()),
            Expr::App(f2, args) => Ok(Expr::App(
                f2.clone(),
                args.iter()
                    .map(|a| go_expr(a, old_names, callee))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Add(a, b) => Ok(Expr::Add(
                Box::new(go_expr(a, old_names, callee)?),
                Box::new(go_expr(b, old_names, callee)?),
            )),
            Expr::Sub(a, b) => Ok(Expr::Sub(
                Box::new(go_expr(a, old_names, callee)?),
                Box::new(go_expr(b, old_names, callee)?),
            )),
            Expr::Mul(a, b) => Ok(Expr::Mul(
                Box::new(go_expr(a, old_names, callee)?),
                Box::new(go_expr(b, old_names, callee)?),
            )),
            Expr::Neg(a) => Ok(Expr::Neg(Box::new(go_expr(a, old_names, callee)?))),
            Expr::Read(m, i) => Ok(Expr::Read(
                Box::new(go_expr(m, old_names, callee)?),
                Box::new(go_expr(i, old_names, callee)?),
            )),
            Expr::Write(m, i, v) => Ok(Expr::Write(
                Box::new(go_expr(m, old_names, callee)?),
                Box::new(go_expr(i, old_names, callee)?),
                Box::new(go_expr(v, old_names, callee)?),
            )),
            Expr::Ite(c, t, el) => Ok(Expr::Ite(
                Box::new(go(c, old_names, callee)?),
                Box::new(go_expr(t, old_names, callee)?),
                Box::new(go_expr(el, old_names, callee)?),
            )),
        }
    }
    fn go(
        f: &Formula,
        old_names: &BTreeMap<String, String>,
        callee: &str,
    ) -> Result<Formula, DesugarError> {
        match f {
            Formula::True | Formula::False => Ok(f.clone()),
            Formula::Rel(op, a, b) => Ok(Formula::Rel(
                *op,
                go_expr(a, old_names, callee)?,
                go_expr(b, old_names, callee)?,
            )),
            Formula::Not(g) => Ok(Formula::Not(Box::new(go(g, old_names, callee)?))),
            Formula::And(fs) => Ok(Formula::And(
                fs.iter()
                    .map(|f| go(f, old_names, callee))
                    .collect::<Result<_, _>>()?,
            )),
            Formula::Or(fs) => Ok(Formula::Or(
                fs.iter()
                    .map(|f| go(f, old_names, callee))
                    .collect::<Result<_, _>>()?,
            )),
            Formula::Implies(a, b) => Ok(Formula::Implies(
                Box::new(go(a, old_names, callee)?),
                Box::new(go(b, old_names, callee)?),
            )),
            Formula::Iff(a, b) => Ok(Formula::Iff(
                Box::new(go(a, old_names, callee)?),
                Box::new(go(b, old_names, callee)?),
            )),
        }
    }
    go(f, old_names, callee)
}

fn number_asserts(s: &mut Stmt, metas: &mut Vec<AssertMeta>) {
    match s {
        Stmt::Assert { id, tag, .. } => {
            let aid = AssertId(metas.len() as u32);
            *id = Some(aid);
            metas.push(AssertMeta {
                id: aid,
                tag: tag.clone(),
            });
        }
        Stmt::Seq(ss) => {
            for s in ss {
                number_asserts(s, metas);
            }
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            number_asserts(then_branch, metas);
            number_asserts(else_branch, metas);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::RelOp;
    use crate::program::Contract;

    /// `free(p)` as modeled in Figure 1: requires `Freed[p] == 0`, sets
    /// `Freed[p] := 1`. Its postcondition is *definitional*
    /// (`Freed == write(old(Freed), p, 1)`), so desugaring emits a direct
    /// assignment rather than a ν-constant.
    fn free_program() -> Program {
        let mut prog = Program::new();
        prog.add_global("Freed", Sort::Map);
        prog.procedures.push(Procedure {
            name: "free".into(),
            params: vec!["p".into()],
            returns: vec![],
            locals: vec![],
            var_sorts: [("p".to_string(), Sort::Int)].into_iter().collect(),
            contract: Contract {
                requires: Formula::eq(Expr::read_var("Freed", Expr::var("p")), Expr::Int(0)),
                ensures: Formula::eq(
                    Expr::var("Freed"),
                    Expr::Write(
                        Box::new(Expr::Old(Box::new(Expr::var("Freed")))),
                        Box::new(Expr::var("p")),
                        Box::new(Expr::Int(1)),
                    ),
                ),
                modifies: vec!["Freed".into()],
            },
            body: None,
        });
        prog
    }

    #[test]
    fn call_expansion_emits_pre_nu_post() {
        let mut prog = free_program();
        let caller = Procedure::new_simple(
            "caller",
            &["c"],
            Stmt::Call {
                site: 0,
                lhs: vec![],
                callee: "free".into(),
                args: vec![Expr::var("c")],
            },
        );
        prog.procedures.push(caller);
        let caller = prog.procedure("caller").expect("exists").clone();
        let d = desugar_procedure(&prog, &caller, DesugarOptions::default()).expect("desugars");
        assert!(d.body.is_core());
        assert_eq!(d.asserts.len(), 1, "the precondition assert");
        assert!(
            d.nus.is_empty(),
            "definitional postcondition produces no ν: {:?}",
            d.nus
        );
        // The effect is a direct map update.
        let printed = d.body.to_string();
        assert!(printed.contains("Freed := write("), "got:\n{printed}");
        // The precondition must be instantiated with the actual argument.
        let mut found = None;
        d.body.for_each_assert(&mut |a| {
            if let Stmt::Assert { cond, .. } = a {
                found = Some(cond.clone());
            }
        });
        assert_eq!(
            found.expect("assert exists"),
            Formula::Rel(
                RelOp::Eq,
                Expr::read_var("Freed", Expr::var("c")),
                Expr::Int(0)
            )
        );
    }

    #[test]
    fn distinct_call_sites_get_distinct_nus() {
        let mut prog = free_program();
        let call = |_s| Stmt::Call {
            site: 0,
            lhs: vec![],
            callee: "free".into(),
            args: vec![Expr::var("c")],
        };
        prog.procedures.push(Procedure::new_simple(
            "caller",
            &["c"],
            Stmt::seq(vec![call(0), call(1)]),
        ));
        let caller = prog.procedure("caller").expect("exists").clone();
        let d = desugar_procedure(&prog, &caller, DesugarOptions::default()).expect("desugars");
        assert_eq!(d.call_sites, 2);
        // Definitional `free` introduces no ν; a non-definitional callee
        // gets a fresh ν per site.
        assert!(d.nus.is_empty());
        let mut prog2 = Program::new();
        prog2.procedures.push(Procedure {
            name: "ext".into(),
            params: vec![],
            returns: vec!["r".into()],
            locals: vec![],
            var_sorts: [("r".to_string(), Sort::Int)].into_iter().collect(),
            contract: Contract::unconstrained(),
            body: None,
        });
        let mut caller2 = Procedure::new_simple(
            "caller2",
            &[],
            Stmt::seq(vec![
                Stmt::Call {
                    site: 0,
                    lhs: vec!["x".into()],
                    callee: "ext".into(),
                    args: vec![],
                },
                Stmt::Call {
                    site: 1,
                    lhs: vec!["x".into()],
                    callee: "ext".into(),
                    args: vec![],
                },
            ]),
        );
        caller2.add_local("x", Sort::Int);
        prog2.procedures.push(caller2);
        let caller2 = prog2.procedure("caller2").expect("exists").clone();
        let d2 = desugar_procedure(&prog2, &caller2, DesugarOptions::default()).expect("ok");
        assert_eq!(d2.nus.len(), 2);
        assert_ne!(d2.nus[0].0, d2.nus[1].0);
    }

    #[test]
    fn loop_unrolling_bounds_iterations() {
        let mut prog = Program::new();
        let cond = Formula::Rel(RelOp::Lt, Expr::var("i"), Expr::var("n"));
        let body = Stmt::seq(vec![
            Stmt::assert(Formula::ne(Expr::var("buf"), Expr::Int(0)), "deref"),
            Stmt::Assign(
                "i".into(),
                Expr::Add(Box::new(Expr::var("i")), Box::new(Expr::Int(1))),
            ),
        ]);
        prog.procedures.push(Procedure::new_simple(
            "loopy",
            &["i", "n", "buf"],
            Stmt::While {
                cond: BranchCond::Det(cond),
                body: Box::new(body),
            },
        ));
        let p = prog.procedure("loopy").expect("exists").clone();
        let d = desugar_procedure(&prog, &p, DesugarOptions { loop_unroll: 2 }).expect("ok");
        assert!(d.body.is_core());
        // Two unrolled iterations → two copies of the body assert.
        assert_eq!(d.asserts.len(), 2);
        assert_eq!(d.asserts[0].id, AssertId(0));
        assert_eq!(d.asserts[1].id, AssertId(1));
    }

    #[test]
    fn nested_loops_past_the_unroll_bound_are_an_error() {
        let desugar = |depth: usize| {
            let mut body = "x := x - 1;".to_string();
            for k in (0..depth).rev() {
                body = format!("while (x > {k}) {{ {body} }}");
            }
            let src = format!("procedure deep(x: int) {{ {body} }}");
            let prog = crate::parse::parse_program(&src).expect("parses");
            let p = prog.procedures[0].clone();
            desugar_procedure(&prog, &p, DesugarOptions::default())
        };
        assert!(desugar(8).is_ok());
        // 16 nested loops copy the innermost statement 2^16 times.
        assert_eq!(
            desugar(16).unwrap_err(),
            DesugarError::UnrollTooLarge("deep".into())
        );
    }

    #[test]
    fn calls_in_loops_get_fresh_sites_per_iteration() {
        let mut prog = free_program();
        prog.procedures.push(Procedure::new_simple(
            "caller",
            &["c"],
            Stmt::While {
                cond: BranchCond::NonDet,
                body: Box::new(Stmt::Call {
                    site: 0,
                    lhs: vec![],
                    callee: "free".into(),
                    args: vec![Expr::var("c")],
                }),
            },
        ));
        let p = prog.procedure("caller").expect("exists").clone();
        let d = desugar_procedure(&prog, &p, DesugarOptions { loop_unroll: 2 }).expect("ok");
        assert_eq!(d.call_sites, 2, "one expansion per unrolled iteration");
        // The definitional `free` emits direct updates; each iteration
        // still snapshots its own %old temporary.
        let printed = d.body.to_string();
        assert!(printed.contains("%old0_Freed"), "got:\n{printed}");
        assert!(printed.contains("%old1_Freed"), "got:\n{printed}");
    }

    #[test]
    fn unknown_callee_is_an_error() {
        let mut prog = Program::new();
        prog.procedures.push(Procedure::new_simple(
            "caller",
            &[],
            Stmt::Call {
                site: 0,
                lhs: vec![],
                callee: "mystery".into(),
                args: vec![],
            },
        ));
        let p = prog.procedure("caller").expect("exists").clone();
        let err = desugar_procedure(&prog, &p, DesugarOptions::default()).unwrap_err();
        assert_eq!(err, DesugarError::UnknownCallee("mystery".into()));
    }

    #[test]
    fn external_procedure_has_no_body() {
        let prog = free_program();
        let p = prog.procedure("free").expect("exists").clone();
        let err = desugar_procedure(&prog, &p, DesugarOptions::default()).unwrap_err();
        assert_eq!(err, DesugarError::NoBody("free".into()));
    }
}
