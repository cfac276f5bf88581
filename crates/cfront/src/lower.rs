//! HAVOC-style lowering from the C subset to the ACSpec IR.
//!
//! Following the paper (§5 and \[3\]):
//!
//! * every pointer dereference `*p`, `p->f`, `p[i]` is preceded by an
//!   automatically inserted assertion `p != 0` (tagged `deref@line`);
//! * plain memory is a map `Mem`; each struct field `S.f` is its own map
//!   `fld_S_f` indexed by the object pointer;
//! * `free(p)` is modeled by the type-state map `Freed` exactly as in
//!   Figure 1: `assert Freed[p] == 0; Freed := write(Freed, p, 1)`
//!   (tagged `double-free@line`);
//! * external functions (`malloc`, `calloc`, …) have unconstrained
//!   contracts — their return values become per-call-site ν-constants;
//! * calls to *defined* functions conservatively modify every map global
//!   (the HAVOC behavior the paper identifies as the main source of `A2`
//!   false positives, §5.1.3);
//! * early `return`s are compiled with a `%returned` flag guarding the
//!   remainder of the function (and a `%cont` flag for loops).

use std::collections::BTreeMap;

use acspec_ir::expr::{Expr, Formula, RelOp};
use acspec_ir::program::{Contract, Procedure, Program};
use acspec_ir::stmt::{BranchCond, Stmt};
use acspec_ir::Sort;

use crate::cast::*;

/// A lowering error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Description.
    pub msg: String,
    /// Source line, when known.
    pub line: u32,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lowering error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LowerError {}

/// How many statements the short-circuit conditions of one function
/// may copy. `a && b` lowers `b` with its own copy of the else-branch
/// and `a || b` with its own copy of the then-branch, so a condition of
/// k `||`-pairs joined by `&&` copies its branch 2^k times. Past this
/// bound lowering stops with a located error instead of running out of
/// memory: around a one-line dereference, 14 pairs copy 81,887
/// statements and 16 pairs 327,643. No function of the paper suite or
/// the corpus copies more than one.
const MAX_COPIED_STMTS: usize = 100_000;

/// How many guards may enclose a statement of one function, counting
/// the `%returned == 0` guard of each early `return` with statements
/// after it and the test of each `switch` case. Each guard nests the
/// rest of the function one level deeper, and every later pass recurses
/// over that nesting, so past this bound lowering stops with a located
/// error instead of overflowing the stack. The parsers' 256-level cap
/// does not see these levels: they come from statements in sequence.
/// 255 nested blocks around 400 early returns lower and type-check on
/// the 8 MiB main thread of a debug build (at 550 they overflow it),
/// and encode on a worker with 7 MiB of stack in a debug build and
/// 2 MiB in a release build.
const MAX_NESTED_GUARDS: usize = 400;

fn err<T>(msg: impl Into<String>, line: u32) -> Result<T, LowerError> {
    Err(LowerError {
        msg: msg.into(),
        line,
    })
}

/// Lowers a parsed C translation unit to an IR program.
///
/// # Errors
///
/// Returns [`LowerError`] for constructs outside the supported subset
/// (unknown functions, untypeable field accesses, …).
pub fn lower_c_program(cprog: &CProgram) -> Result<Program, LowerError> {
    let mut prog = Program::new();
    prog.add_global("Mem", Sort::Map);
    prog.add_global("Freed", Sort::Map);
    for s in &cprog.structs {
        for (f, _) in &s.fields {
            prog.add_global(field_map(&s.name, f), Sort::Map);
        }
    }
    let map_globals: Vec<String> = prog.globals.iter().map(|(g, _)| g.clone()).collect();

    // Declare every function first (for call resolution), then lower
    // bodies.
    for f in &cprog.funcs {
        let returns = if f.ret == CType::Void {
            vec![]
        } else {
            vec!["%ret".to_string()]
        };
        let mut var_sorts: BTreeMap<String, Sort> = f
            .params
            .iter()
            .map(|(n, _)| (n.clone(), Sort::Int))
            .collect();
        for r in &returns {
            var_sorts.insert(r.clone(), Sort::Int);
        }
        let contract = if f.body.is_some() {
            // Defined functions: HAVOC's conservative modifies-everything
            // contract.
            Contract {
                requires: Formula::True,
                ensures: Formula::True,
                modifies: map_globals.clone(),
            }
        } else {
            Contract::unconstrained()
        };
        prog.procedures.push(Procedure {
            name: f.name.clone(),
            params: f.params.iter().map(|(n, _)| n.clone()).collect(),
            returns,
            locals: vec![],
            var_sorts,
            contract,
            body: None,
        });
    }

    for f in &cprog.funcs {
        let Some(body) = &f.body else { continue };
        let mut lw = Lowerer {
            cprog,
            types: f.params.iter().cloned().collect(),
            locals: Vec::new(),
            temp_counter: 0,
            site_counter: 0,
            has_early_return: false,
            ret_type: f.ret.clone(),
            copied_stmts: 0,
            guards: 0,
        };
        lw.types.insert("%ret".to_string(), f.ret.clone());
        let (mut lowered, may_return) = lw.lower_stmts(body)?;
        if may_return.is_some() {
            // Initialize the flag at entry.
            lowered = Stmt::seq(vec![
                Stmt::Assign("%returned".into(), Expr::Int(0)),
                lowered,
            ]);
        }
        let proc = prog
            .procedures
            .iter_mut()
            .find(|p| p.name == f.name)
            .expect("declared above");
        for (name, _) in &lw.locals {
            proc.locals.push(name.clone());
        }
        for (name, sort) in &lw.locals {
            proc.var_sorts.insert(name.clone(), *sort);
        }
        if may_return.is_some() {
            proc.locals.push("%returned".into());
            proc.var_sorts.insert("%returned".into(), Sort::Int);
        }
        proc.body = Some(lowered);
    }
    Ok(prog)
}

/// The per-field map name.
pub fn field_map(struct_name: &str, field: &str) -> String {
    format!("fld_{struct_name}_{field}")
}

struct Lowerer<'a> {
    cprog: &'a CProgram,
    types: std::collections::HashMap<String, CType>,
    locals: Vec<(String, Sort)>,
    temp_counter: u32,
    site_counter: u32,
    has_early_return: bool,
    ret_type: CType,
    /// Statements [`Lowerer::copy_branch`] has copied so far.
    copied_stmts: usize,
    /// Guards enclosing the statement being lowered (see
    /// [`MAX_NESTED_GUARDS`]).
    guards: usize,
}

/// The error for the `return` or `case` at `line` that nests past
/// [`MAX_NESTED_GUARDS`].
fn too_many_guards<T>(line: u32) -> Result<T, LowerError> {
    err(
        format!(
            "early returns and switch cases nest more than {MAX_NESTED_GUARDS} guards deep \
             in this function; split the function"
        ),
        line,
    )
}

impl Lowerer<'_> {
    fn fresh_temp(&mut self, ty: CType) -> String {
        self.temp_counter += 1;
        let name = format!("%t{}", self.temp_counter);
        self.locals.push((name.clone(), Sort::Int));
        self.types.insert(name.clone(), ty);
        name
    }

    fn declare_local(&mut self, name: &str, ty: CType) {
        if !self.locals.iter().any(|(n, _)| n == name) {
            self.locals.push((name.to_string(), Sort::Int));
        }
        self.types.insert(name.to_string(), ty);
    }

    fn next_site(&mut self) -> u32 {
        let s = self.site_counter;
        self.site_counter += 1;
        s
    }

    /// Infers the C type of an expression (pointer-ness and struct
    /// identity are what matter).
    fn type_of(&self, e: &CExpr) -> Result<CType, LowerError> {
        match e {
            CExpr::Num(_) | CExpr::Null => Ok(CType::Int),
            CExpr::Var(n, l) => {
                if let Some(t) = self.types.get(n) {
                    return Ok(t.clone());
                }
                // A bare function name is a function-pointer value.
                if let Some(f) = self.cprog.func(n) {
                    return Ok(CType::FuncPtr(Box::new(f.ret.clone())));
                }
                Err(LowerError {
                    msg: format!("unknown variable `{n}`"),
                    line: *l,
                })
            }
            CExpr::Deref(p, l) => match self.type_of(p)? {
                CType::Ptr(inner) => Ok(*inner),
                other => err(format!("dereference of non-pointer `{other:?}`"), *l),
            },
            CExpr::Arrow(p, f, l) => match self.type_of(p)? {
                CType::Ptr(inner) => match *inner {
                    CType::Struct(s) => {
                        let decl = self.cprog.struct_decl(&s).ok_or_else(|| LowerError {
                            msg: format!("unknown struct `{s}`"),
                            line: *l,
                        })?;
                        decl.fields
                            .iter()
                            .find(|(fname, _)| fname == f)
                            .map(|(_, t)| t.clone())
                            .ok_or_else(|| LowerError {
                                msg: format!("no field `{f}` in struct `{s}`"),
                                line: *l,
                            })
                    }
                    other => err(format!("`->` on non-struct pointer `{other:?}`"), *l),
                },
                other => err(format!("`->` on non-pointer `{other:?}`"), *l),
            },
            CExpr::Index(a, _, l) => match self.type_of(a)? {
                CType::Ptr(inner) => Ok(*inner),
                other => err(format!("index of non-pointer `{other:?}`"), *l),
            },
            CExpr::Bin(CBinOp::Add | CBinOp::Sub, a, _) => {
                // Pointer arithmetic keeps the pointer's type: `a + i`
                // on `struct S *a` addresses element `i`, so `a[i].f`
                // resolves its field map through it.
                let ta = self.type_of(a)?;
                if ta.is_pointer() {
                    Ok(ta)
                } else {
                    Ok(CType::Int)
                }
            }
            CExpr::Not(_) | CExpr::Neg(_) | CExpr::Bin(..) => Ok(CType::Int),
            CExpr::Call(name, _, l) => {
                if name == "nondet" || name == "malloc" || name == "calloc" {
                    // Allocators produce pointers; the exact pointee type
                    // comes from the surrounding cast/declaration, which
                    // we don't need.
                    return Ok(CType::Ptr(Box::new(CType::Int)));
                }
                // A call through a function-pointer variable yields the
                // pointed-to return type.
                if let Some(CType::FuncPtr(ret)) = self.types.get(name) {
                    return Ok((**ret).clone());
                }
                self.cprog
                    .func(name)
                    .map(|f| f.ret.clone())
                    .ok_or_else(|| LowerError {
                        msg: format!("call to unknown function `{name}`"),
                        line: *l,
                    })
            }
        }
    }

    /// The field-map expression for `base->field`; also returns the
    /// lowered base pointer.
    fn field_map_of(&self, base: &CExpr, field: &str, line: u32) -> Result<String, LowerError> {
        match self.type_of(base)? {
            CType::Ptr(inner) => match *inner {
                CType::Struct(s) => Ok(field_map(&s, field)),
                other => err(format!("`->` on non-struct pointer `{other:?}`"), line),
            },
            other => err(format!("`->` on non-pointer `{other:?}`"), line),
        }
    }

    /// Lowers an expression to (pre-statements, value expression).
    fn lower_expr(&mut self, e: &CExpr) -> Result<(Vec<Stmt>, Expr), LowerError> {
        match e {
            CExpr::Num(n) => Ok((vec![], Expr::Int(*n))),
            CExpr::Null => Ok((vec![], Expr::Int(0))),
            CExpr::Var(n, l) => {
                if self.types.contains_key(n) {
                    return Ok((vec![], Expr::var(n.clone())));
                }
                // A bare function name used as a value (assigning to a
                // function pointer): model the address as a distinct
                // nonzero constant per function, so `fp != 0` holds and
                // distinct functions compare unequal.
                if let Some(idx) = self.cprog.funcs.iter().position(|f| &f.name == n) {
                    return Ok((vec![], Expr::Int(idx as i64 + 1)));
                }
                err(format!("unknown variable `{n}`"), *l)
            }
            CExpr::Deref(p, line) => {
                let (mut pre, pv) = self.lower_expr(p)?;
                pre.push(Stmt::assert(
                    Formula::ne(pv.clone(), Expr::Int(0)),
                    format!("deref@{line}"),
                ));
                Ok((pre, Expr::read_var("Mem", pv)))
            }
            CExpr::Arrow(p, f, line) => {
                let map = self.field_map_of(p, f, *line)?;
                let (mut pre, pv) = self.lower_expr(p)?;
                pre.push(Stmt::assert(
                    Formula::ne(pv.clone(), Expr::Int(0)),
                    format!("deref@{line}"),
                ));
                Ok((pre, Expr::read_var(map, pv)))
            }
            CExpr::Index(a, i, line) => {
                let (mut pre, av) = self.lower_expr(a)?;
                let (pre_i, iv) = self.lower_expr(i)?;
                pre.extend(pre_i);
                pre.push(Stmt::assert(
                    Formula::ne(av.clone(), Expr::Int(0)),
                    format!("deref@{line}"),
                ));
                let addr = Expr::Add(Box::new(av), Box::new(iv));
                Ok((pre, Expr::read_var("Mem", addr)))
            }
            CExpr::Neg(inner) => {
                let (pre, v) = self.lower_expr(inner)?;
                Ok((pre, Expr::Neg(Box::new(v))))
            }
            CExpr::Bin(op, a, b) if matches!(op, CBinOp::Add | CBinOp::Sub | CBinOp::Mul) => {
                let (mut pre, av) = self.lower_expr(a)?;
                let (pre_b, bv) = self.lower_expr(b)?;
                pre.extend(pre_b);
                let v = match op {
                    CBinOp::Add => Expr::Add(Box::new(av), Box::new(bv)),
                    CBinOp::Sub => Expr::Sub(Box::new(av), Box::new(bv)),
                    CBinOp::Mul => Expr::Mul(Box::new(av), Box::new(bv)),
                    _ => unreachable!(),
                };
                Ok((pre, v))
            }
            // Boolean-valued expressions in value position: materialize
            // 0/1 through a temporary so short-circuit side effects
            // (dereference assertions!) happen in the right order.
            CExpr::Not(_) | CExpr::Bin(..) => {
                let t = self.fresh_temp(CType::Int);
                let set = |v: i64| Stmt::Assign(t.clone(), Expr::Int(v));
                let cond = self.lower_cond(e, set(1), set(0))?;
                Ok((vec![cond], Expr::var(t)))
            }
            CExpr::Call(name, args, line) => {
                let (mut pre, call_or_havoc, tmp) = self.lower_call(name, args, *line, true)?;
                pre.push(call_or_havoc);
                Ok((pre, Expr::var(tmp.expect("value call has a temp"))))
            }
        }
    }

    /// Lowers a call; when `want_value`, binds the result to a fresh temp.
    fn lower_call(
        &mut self,
        name: &str,
        args: &[CExpr],
        line: u32,
        want_value: bool,
    ) -> Result<(Vec<Stmt>, Stmt, Option<String>), LowerError> {
        let mut pre = Vec::new();
        let mut lowered_args = Vec::new();
        for a in args {
            let (p, v) = self.lower_expr(a)?;
            pre.extend(p);
            lowered_args.push(v);
        }
        if name == "nondet" {
            let t = self.fresh_temp(CType::Int);
            return Ok((pre, Stmt::Havoc(t.clone()), Some(t)));
        }
        // An indirect call through a function-pointer variable: the
        // callee is statically unknown, so the call is lowered via havoc
        // — assert the pointer is nonzero (tagged `fptr@line`), evaluate
        // the arguments for their side effects, and havoc the result.
        if let Some(CType::FuncPtr(ret)) = self.types.get(name).cloned() {
            pre.push(Stmt::assert(
                Formula::ne(Expr::var(name.to_string()), Expr::Int(0)),
                format!("fptr@{line}"),
            ));
            let t = self.fresh_temp(if *ret == CType::Void {
                CType::Int
            } else {
                (*ret).clone()
            });
            return Ok((pre, Stmt::Havoc(t.clone()), Some(t)));
        }
        let callee = self.cprog.func(name).ok_or_else(|| LowerError {
            msg: format!("call to unknown function `{name}`"),
            line,
        })?;
        if callee.varargs {
            // Varargs stub: fixed arguments are passed through; the
            // variadic tail is evaluated (its dereference assertions
            // fire) and dropped.
            if args.len() < callee.params.len() {
                return err(format!("too few arguments calling `{name}`"), line);
            }
            lowered_args.truncate(callee.params.len());
        } else if callee.params.len() != args.len() {
            return err(format!("arity mismatch calling `{name}`"), line);
        }
        let lhs = if callee.ret == CType::Void {
            if want_value {
                return err(format!("void value of `{name}` used"), line);
            }
            vec![]
        } else {
            // Non-void callees always bind their return (the IR call
            // form requires it); in statement position the temp is
            // simply discarded.
            let t = self.fresh_temp(callee.ret.clone());
            vec![t]
        };
        let tmp = lhs.first().cloned();
        let call = Stmt::Call {
            site: self.next_site(),
            lhs,
            callee: name.to_string(),
            args: lowered_args,
        };
        Ok((pre, call, tmp))
    }

    /// A copy of a branch that a short-circuit condition `cond` reaches
    /// twice, counted against [`MAX_COPIED_STMTS`].
    fn copy_branch(&mut self, branch: &Stmt, cond: &CExpr) -> Result<Stmt, LowerError> {
        self.copied_stmts += branch.simple_stmt_count();
        if self.copied_stmts > MAX_COPIED_STMTS {
            return err(
                format!(
                    "short-circuit conditions copy more than {MAX_COPIED_STMTS} statements \
                     in this function; assign parts of the condition to variables first"
                ),
                cond.line(),
            );
        }
        Ok(branch.clone())
    }

    /// Lowers a condition with C short-circuit semantics into branching
    /// statements.
    fn lower_cond(&mut self, e: &CExpr, then_b: Stmt, else_b: Stmt) -> Result<Stmt, LowerError> {
        match e {
            CExpr::Bin(CBinOp::And, a, b) => {
                let else_copy = self.copy_branch(&else_b, e)?;
                let inner = self.lower_cond(b, then_b, else_copy)?;
                self.lower_cond(a, inner, else_b)
            }
            CExpr::Bin(CBinOp::Or, a, b) => {
                let then_copy = self.copy_branch(&then_b, e)?;
                let inner = self.lower_cond(b, then_copy, else_b)?;
                self.lower_cond(a, then_b, inner)
            }
            CExpr::Not(inner) => self.lower_cond(inner, else_b, then_b),
            CExpr::Call(name, args, _) if name == "nondet" && args.is_empty() => {
                Ok(Stmt::ite_nondet(then_b, else_b))
            }
            CExpr::Bin(op, a, b)
                if matches!(
                    op,
                    CBinOp::Eq | CBinOp::Ne | CBinOp::Lt | CBinOp::Le | CBinOp::Gt | CBinOp::Ge
                ) =>
            {
                let (mut pre, av) = self.lower_expr(a)?;
                let (pre_b, bv) = self.lower_expr(b)?;
                pre.extend(pre_b);
                let rel = match op {
                    CBinOp::Eq => RelOp::Eq,
                    CBinOp::Ne => RelOp::Ne,
                    CBinOp::Lt => RelOp::Lt,
                    CBinOp::Le => RelOp::Le,
                    CBinOp::Gt => RelOp::Gt,
                    CBinOp::Ge => RelOp::Ge,
                    _ => unreachable!(),
                };
                pre.push(Stmt::ite(Formula::Rel(rel, av, bv), then_b, else_b));
                Ok(Stmt::seq(pre))
            }
            other => {
                // Truthiness of an integer value: e != 0.
                let (mut pre, v) = self.lower_expr(other)?;
                pre.push(Stmt::ite(Formula::ne(v, Expr::Int(0)), then_b, else_b));
                Ok(Stmt::seq(pre))
            }
        }
    }

    /// Lowers a statement list; the line is that of a `return` that may
    /// have executed (the remainder is then guarded by `%returned == 0`).
    fn lower_stmts(&mut self, stmts: &[CStmt]) -> Result<(Stmt, Option<u32>), LowerError> {
        let mut out: Vec<Stmt> = Vec::new();
        let mut may_return = None;
        for (i, s) in stmts.iter().enumerate() {
            let (lowered, returns) = self.lower_stmt(s)?;
            out.push(lowered);
            match returns {
                Some(line) if i + 1 < stmts.len() => {
                    // Guard the remainder. A return may already have
                    // happened, so the whole sequence "may return"
                    // regardless of the remainder.
                    self.guards += 1;
                    if self.guards > MAX_NESTED_GUARDS {
                        return too_many_guards(line);
                    }
                    let (rest, _rest_returns) = self.lower_stmts(&stmts[i + 1..])?;
                    self.guards -= 1;
                    out.push(Stmt::ite(
                        Formula::eq(Expr::var("%returned"), Expr::Int(0)),
                        rest,
                        Stmt::Skip,
                    ));
                    return Ok((Stmt::seq(out), returns));
                }
                _ => may_return = may_return.or(returns),
            }
        }
        Ok((Stmt::seq(out), may_return))
    }

    fn lower_stmt(&mut self, s: &CStmt) -> Result<(Stmt, Option<u32>), LowerError> {
        match s {
            CStmt::Block(ss) => self.lower_stmts(ss),
            CStmt::Decl(name, ty, init) => {
                self.declare_local(name, ty.clone());
                match init {
                    None => Ok((Stmt::Skip, None)),
                    Some(e) => {
                        let (mut pre, v) = self.lower_expr(e)?;
                        pre.push(Stmt::Assign(name.clone(), v));
                        Ok((Stmt::seq(pre), None))
                    }
                }
            }
            CStmt::Assign(lval, rhs) => {
                let (mut pre, rv) = self.lower_expr(rhs)?;
                match lval {
                    CLval::Var(n, l) => {
                        if !self.types.contains_key(n) {
                            return err(format!("unknown variable `{n}`"), *l);
                        }
                        pre.push(Stmt::Assign(n.clone(), rv));
                    }
                    CLval::Deref(p, line) => {
                        let (pre_p, pv) = self.lower_expr(p)?;
                        pre.extend(pre_p);
                        pre.push(Stmt::assert(
                            Formula::ne(pv.clone(), Expr::Int(0)),
                            format!("deref@{line}"),
                        ));
                        pre.push(Stmt::Assign(
                            "Mem".into(),
                            Expr::Write(Box::new(Expr::var("Mem")), Box::new(pv), Box::new(rv)),
                        ));
                    }
                    CLval::Arrow(p, f, line) => {
                        let map = self.field_map_of(p, f, *line)?;
                        let (pre_p, pv) = self.lower_expr(p)?;
                        pre.extend(pre_p);
                        pre.push(Stmt::assert(
                            Formula::ne(pv.clone(), Expr::Int(0)),
                            format!("deref@{line}"),
                        ));
                        pre.push(Stmt::Assign(
                            map.clone(),
                            Expr::Write(Box::new(Expr::var(map)), Box::new(pv), Box::new(rv)),
                        ));
                    }
                    CLval::Index(a, i, line) => {
                        let (pre_a, av) = self.lower_expr(a)?;
                        let (pre_i, iv) = self.lower_expr(i)?;
                        pre.extend(pre_a);
                        pre.extend(pre_i);
                        pre.push(Stmt::assert(
                            Formula::ne(av.clone(), Expr::Int(0)),
                            format!("deref@{line}"),
                        ));
                        let addr = Expr::Add(Box::new(av), Box::new(iv));
                        pre.push(Stmt::Assign(
                            "Mem".into(),
                            Expr::Write(Box::new(Expr::var("Mem")), Box::new(addr), Box::new(rv)),
                        ));
                    }
                }
                Ok((Stmt::seq(pre), None))
            }
            CStmt::If(c, then_b, else_b) => {
                let (then_s, r1) = self.lower_stmts(then_b)?;
                let (else_s, r2) = self.lower_stmts(else_b)?;
                let s = self.lower_cond(c, then_s, else_s)?;
                Ok((s, r1.or(r2)))
            }
            CStmt::While(c, body) => self.lower_loop(c, body, None),
            CStmt::For(init, c, step, body) => {
                let (init_s, _) = self.lower_stmt(init)?;
                let (loop_s, r) = self.lower_loop(c, body, Some(step))?;
                Ok((Stmt::seq(vec![init_s, loop_s]), r))
            }
            CStmt::Return(val, line) => {
                self.has_early_return = true;
                let mut out = Vec::new();
                if let Some(e) = val {
                    if self.ret_type == CType::Void {
                        return err("return with value in void function", e.line());
                    }
                    let (pre, v) = self.lower_expr(e)?;
                    out.extend(pre);
                    out.push(Stmt::Assign("%ret".into(), v));
                }
                out.push(Stmt::Assign("%returned".into(), Expr::Int(1)));
                Ok((Stmt::seq(out), Some(*line)))
            }
            CStmt::Expr(e) => match e {
                CExpr::Call(name, args, line) => {
                    let (mut pre, call, _) = self.lower_call(name, args, *line, false)?;
                    pre.push(call);
                    Ok((Stmt::seq(pre), None))
                }
                other => {
                    // Evaluate for side effects (dereference assertions).
                    let (pre, _) = self.lower_expr(other)?;
                    Ok((Stmt::seq(pre), None))
                }
            },
            CStmt::Switch(scrutinee, arms) => {
                // Lower to an if/else-if chain on a snapshot of the
                // scrutinee (evaluated once, like C). Arm i sits under
                // the tests of arms 0..=i.
                let (mut pre, sv) = self.lower_expr(scrutinee)?;
                let snap = self.fresh_temp(CType::Int);
                pre.push(Stmt::Assign(snap.clone(), sv));
                let outer = self.guards;
                if let Some((_, line, _)) = arms.get(MAX_NESTED_GUARDS - outer) {
                    return too_many_guards(*line);
                }
                let mut chain = Stmt::Skip;
                let mut may_return = None;
                // Default arm(s) form the innermost else.
                for (i, (label, _, body)) in arms.iter().enumerate().rev() {
                    self.guards = outer + i + 1;
                    let (body_s, r) = self.lower_stmts(body)?;
                    may_return = may_return.or(r);
                    chain = match label {
                        None => body_s,
                        Some(k) => Stmt::ite(
                            Formula::eq(Expr::var(snap.clone()), Expr::Int(*k)),
                            body_s,
                            chain,
                        ),
                    };
                }
                self.guards = outer;
                pre.push(chain);
                Ok((Stmt::seq(pre), may_return))
            }
            CStmt::Free(e, line) => {
                let (mut pre, pv) = self.lower_expr(e)?;
                // Figure 1's model: assert !Freed[p]; Freed[p] := true.
                pre.push(Stmt::assert(
                    Formula::eq(Expr::read_var("Freed", pv.clone()), Expr::Int(0)),
                    format!("double-free@{line}"),
                ));
                pre.push(Stmt::Assign(
                    "Freed".into(),
                    Expr::Write(
                        Box::new(Expr::var("Freed")),
                        Box::new(pv),
                        Box::new(Expr::Int(1)),
                    ),
                ));
                Ok((Stmt::seq(pre), None))
            }
        }
    }

    /// Lowers a loop with a `%cont` flag so side-effectful conditions and
    /// early returns work; the IR `while` keeps a pure condition and is
    /// later unrolled by desugaring.
    fn lower_loop(
        &mut self,
        cond: &CExpr,
        body: &[CStmt],
        step: Option<&CStmt>,
    ) -> Result<(Stmt, Option<u32>), LowerError> {
        let cont = self.fresh_temp(CType::Int);
        let (mut body_s, may_return) = self.lower_stmts(body)?;
        if let Some(step) = step {
            let (step_s, _) = self.lower_stmt(step)?;
            // A `return` inside the body must skip the step too; the
            // remainder-guard inside `lower_stmts` handles statements, so
            // guard the step likewise.
            let step_s = if may_return.is_some() {
                Stmt::ite(
                    Formula::eq(Expr::var("%returned"), Expr::Int(0)),
                    step_s,
                    Stmt::Skip,
                )
            } else {
                step_s
            };
            body_s = Stmt::seq(vec![body_s, step_s]);
        }
        if may_return.is_some() {
            body_s = Stmt::seq(vec![
                body_s,
                Stmt::ite(
                    Formula::eq(Expr::var("%returned"), Expr::Int(1)),
                    Stmt::Assign(cont.clone(), Expr::Int(0)),
                    Stmt::Skip,
                ),
            ]);
        }
        let guarded = self.lower_cond(cond, body_s, Stmt::Assign(cont.clone(), Expr::Int(0)))?;
        let w = Stmt::While {
            cond: BranchCond::Det(Formula::eq(Expr::var(cont.clone()), Expr::Int(1))),
            body: Box::new(guarded),
        };
        Ok((
            Stmt::seq(vec![Stmt::Assign(cont, Expr::Int(1)), w]),
            may_return,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_c, CompileError};

    #[test]
    fn guards_nest_up_to_the_cap() {
        let returns = |n: usize| {
            let body: String = (0..n)
                .map(|i| format!("  if (x == {i}) {{ return {i}; }}\n"))
                .collect();
            format!("int f(int x) {{\n{body}  return -1;\n}}\n")
        };
        let cases = |n: usize| {
            let arms: String = (0..n)
                .map(|i| format!("  case {i}: return {i};\n"))
                .collect();
            format!("int f(int x) {{\n  switch (x) {{\n{arms}  }}\n  return -1;\n}}\n")
        };
        // (shape, the cap's worth, one more, line of the first one)
        let shapes = [
            (
                "early returns",
                returns(MAX_NESTED_GUARDS),
                returns(MAX_NESTED_GUARDS + 1),
                2,
            ),
            (
                "switch cases",
                cases(MAX_NESTED_GUARDS),
                cases(MAX_NESTED_GUARDS + 1),
                3,
            ),
        ];
        for (shape, at_cap, past_cap, first) in shapes {
            assert!(
                compile_c(&at_cap).is_ok(),
                "{MAX_NESTED_GUARDS} {shape} must lower"
            );
            match compile_c(&past_cap) {
                Err(CompileError::Lower(e)) => {
                    assert_eq!(e.line as usize, first + MAX_NESTED_GUARDS, "{shape}: {e}");
                    assert!(e.msg.contains("guards deep"), "{shape}: {e}");
                }
                other => panic!("one {shape} past the cap must be rejected: {other:?}"),
            }
        }
    }
}
