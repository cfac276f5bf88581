//! Parser for the Boogie-like surface syntax of the ACSpec intermediate
//! language.
//!
//! ```text
//! global Freed: map;
//!
//! procedure free(p: int)
//!   requires Freed[p] == 0;
//!   modifies Freed;
//!   ensures Freed == write(old(Freed), p, 1);
//! ;
//!
//! procedure Foo(c: int, buf: int, cmd: int) {
//!   if (*) { call free(c); call free(buf); }
//!   if (cmd == 1) { ... }
//! }
//! ```

use std::fmt;

use crate::expr::{Expr, Formula, NuConst, RelOp};
use crate::program::{Contract, FuncDecl, Procedure, Program};
use crate::stmt::{BranchCond, Stmt};
use crate::Sort;

/// A parse error with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Punct(&'static str),
    Eof,
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: u32,
    col: u32,
}

const PUNCTS: &[&str] = &[
    "<==>", "==>", ":=", "==", "!=", "<=", ">=", "&&", "||", "(", ")", "{", "}", "[", "]", ",",
    ";", ":", "<", ">", "!", "*", "+", "-", "@", ".",
];

fn lex(src: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1u32;
    let mut col = 1u32;
    let n = bytes.len();
    'outer: while i < n {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            col += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n {
            if bytes[i + 1] == b'/' {
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            if bytes[i + 1] == b'*' {
                i += 2;
                col += 2;
                while i + 1 < n {
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        col += 2;
                        continue 'outer;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
                return Err(ParseError {
                    msg: "unterminated block comment".into(),
                    line,
                    col,
                });
            }
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let text = &src[start..i];
            let val: i64 = text.parse().map_err(|_| ParseError {
                msg: format!("integer literal `{text}` out of range"),
                line,
                col,
            })?;
            out.push(SpannedTok {
                tok: Tok::Int(val),
                line,
                col,
            });
            col += (i - start) as u32;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' || c == '%' {
            let start = i;
            while i < n {
                let ch = bytes[i] as char;
                if ch.is_ascii_alphanumeric() || ch == '_' || ch == '%' {
                    i += 1;
                } else {
                    break;
                }
            }
            out.push(SpannedTok {
                tok: Tok::Ident(src[start..i].to_string()),
                line,
                col,
            });
            col += (i - start) as u32;
            continue;
        }
        let rest = &src[i..];
        for p in PUNCTS {
            if rest.starts_with(p) {
                out.push(SpannedTok {
                    tok: Tok::Punct(p),
                    line,
                    col,
                });
                i += p.len();
                col += p.len() as u32;
                continue 'outer;
            }
        }
        return Err(ParseError {
            msg: format!("unexpected character `{c}`"),
            line,
            col,
        });
    }
    out.push(SpannedTok {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(out)
}

/// The deepest nesting of expressions and statements the parser
/// accepts, as for certificate JSON in `acspec-check`. Parsing recurses
/// once per level, and later passes once per level of the tree it
/// builds, so without a cap a pathological input could overflow the
/// stack. Besides brackets, unary operators and nested statements, each
/// operator of a left-deep chain (`x + x + x`, `m[0][0]`) is a level:
/// it sinks the whole chain so far one level deeper.
const MAX_DEPTH: usize = 256;

/// Builds a binary operator's node from its two operands.
type BinaryNode = fn(Box<Expr>, Box<Expr>) -> Expr;

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    next_site: u32,
    /// Nesting level of the expression or statement being parsed.
    depth: usize,
    /// The deepest level the innermost operator chain being parsed
    /// reaches so far (see [`Parser::chain`]).
    peak: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        let i = (self.pos + 1).min(self.toks.len() - 1);
        &self.toks[i].tok
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.toks[self.pos];
        (t.line, t.col)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            msg: msg.into(),
            line,
            col,
        }
    }

    fn too_deep(&self) -> ParseError {
        self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
    }

    /// Parses one level deeper, refusing to go past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Parses a left-deep operator chain with `f`, which calls
    /// [`Parser::sink`] at each operator. The chain's peak level starts
    /// at the current depth and, once the chain is built, counts toward
    /// any chain it is an operand of.
    fn chain<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let out = f(self);
        self.peak = self.peak.max(outer);
        out
    }

    /// One more operator of a chain: the chain built so far becomes its
    /// left operand, one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn sink(&mut self) -> Result<(), ParseError> {
        if self.peak == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.peak += 1;
        Ok(())
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &'static str) -> Result<(), ParseError> {
        if self.peek() == &Tok::Punct(p) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn try_punct(&mut self, p: &'static str) -> bool {
        if self.peek() == &Tok::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn parse_sort(&mut self) -> Result<Sort, ParseError> {
        let name = self.eat_ident()?;
        match name.as_str() {
            "int" => Ok(Sort::Int),
            "map" => Ok(Sort::Map),
            other => Err(self.err(format!("unknown sort `{other}`"))),
        }
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::new();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Ident(kw) if kw == "global" => {
                    self.bump();
                    let name = self.eat_ident()?;
                    self.eat_punct(":")?;
                    let sort = self.parse_sort()?;
                    self.eat_punct(";")?;
                    prog.add_global(name, sort);
                }
                Tok::Ident(kw) if kw == "function" => {
                    self.bump();
                    let name = self.eat_ident()?;
                    self.eat_punct("(")?;
                    let mut args = Vec::new();
                    if !self.try_punct(")") {
                        loop {
                            args.push(self.parse_sort()?);
                            if !self.try_punct(",") {
                                break;
                            }
                        }
                        self.eat_punct(")")?;
                    }
                    self.eat_punct(":")?;
                    let ret = self.parse_sort()?;
                    self.eat_punct(";")?;
                    prog.functions.push(FuncDecl { name, args, ret });
                }
                Tok::Ident(kw) if kw == "procedure" => {
                    let p = self.parse_procedure()?;
                    prog.procedures.push(p);
                }
                other => return Err(self.err(format!("expected declaration, found {other:?}"))),
            }
        }
        Ok(prog)
    }

    fn parse_param_list(&mut self) -> Result<Vec<(String, Sort)>, ParseError> {
        let mut out = Vec::new();
        self.eat_punct("(")?;
        if self.try_punct(")") {
            return Ok(out);
        }
        loop {
            let name = self.eat_ident()?;
            self.eat_punct(":")?;
            let sort = self.parse_sort()?;
            out.push((name, sort));
            if !self.try_punct(",") {
                break;
            }
        }
        self.eat_punct(")")?;
        Ok(out)
    }

    fn parse_procedure(&mut self) -> Result<Procedure, ParseError> {
        self.eat_keyword("procedure")?;
        self.next_site = 0;
        let name = self.eat_ident()?;
        let params = self.parse_param_list()?;
        let mut returns = Vec::new();
        if self.at_keyword("returns") {
            self.bump();
            returns = self.parse_param_list()?;
        }
        let mut contract = Contract::default();
        let mut requires = Vec::new();
        let mut ensures = Vec::new();
        loop {
            if self.at_keyword("requires") {
                self.bump();
                requires.push(self.parse_formula()?);
                self.eat_punct(";")?;
            } else if self.at_keyword("ensures") {
                self.bump();
                ensures.push(self.parse_formula()?);
                self.eat_punct(";")?;
            } else if self.at_keyword("modifies") {
                self.bump();
                loop {
                    contract.modifies.push(self.eat_ident()?);
                    if !self.try_punct(",") {
                        break;
                    }
                }
                self.eat_punct(";")?;
            } else {
                break;
            }
        }
        contract.requires = Formula::and(requires);
        contract.ensures = Formula::and(ensures);

        let mut var_sorts: std::collections::BTreeMap<String, Sort> = params
            .iter()
            .chain(returns.iter())
            .map(|(n, s)| (n.clone(), *s))
            .collect();
        let mut locals = Vec::new();

        let body = if self.try_punct(";") {
            None
        } else {
            self.eat_punct("{")?;
            while self.at_keyword("var") {
                self.bump();
                let n = self.eat_ident()?;
                self.eat_punct(":")?;
                let s = self.parse_sort()?;
                self.eat_punct(";")?;
                var_sorts.insert(n.clone(), s);
                locals.push(n);
            }
            let mut stmts = Vec::new();
            while !self.try_punct("}") {
                stmts.push(self.parse_stmt()?);
            }
            Some(Stmt::seq(stmts))
        };

        Ok(Procedure {
            name,
            params: params.into_iter().map(|(n, _)| n).collect(),
            returns: returns.into_iter().map(|(n, _)| n).collect(),
            locals,
            var_sorts,
            contract,
            body,
        })
    }

    fn parse_block(&mut self) -> Result<Stmt, ParseError> {
        self.eat_punct("{")?;
        let mut stmts = Vec::new();
        while !self.try_punct("}") {
            stmts.push(self.parse_stmt()?);
        }
        Ok(Stmt::seq(stmts))
    }

    fn parse_branch_cond(&mut self) -> Result<BranchCond, ParseError> {
        self.eat_punct("(")?;
        let cond = if self.peek() == &Tok::Punct("*") && self.peek2() == &Tok::Punct(")") {
            self.bump();
            BranchCond::NonDet
        } else {
            BranchCond::Det(self.parse_formula()?)
        };
        self.eat_punct(")")?;
        Ok(cond)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        let (line, _col) = self.here();
        match self.peek().clone() {
            Tok::Punct("{") => self.nested(Parser::parse_block),
            Tok::Ident(kw) if kw == "skip" => {
                self.bump();
                self.eat_punct(";")?;
                Ok(Stmt::Skip)
            }
            Tok::Ident(kw) if kw == "assert" => {
                self.bump();
                let f = self.parse_formula()?;
                self.eat_punct(";")?;
                Ok(Stmt::assert(f, format!("assert@{line}")))
            }
            Tok::Ident(kw) if kw == "assume" => {
                self.bump();
                let f = self.parse_formula()?;
                self.eat_punct(";")?;
                Ok(Stmt::Assume(f))
            }
            Tok::Ident(kw) if kw == "havoc" => {
                self.bump();
                let v = self.eat_ident()?;
                self.eat_punct(";")?;
                Ok(Stmt::Havoc(v))
            }
            Tok::Ident(kw) if kw == "if" => {
                self.bump();
                let cond = self.parse_branch_cond()?;
                let then_branch = self.nested(Parser::parse_block)?;
                let else_branch = if self.at_keyword("else") {
                    self.bump();
                    if self.at_keyword("if") {
                        self.nested(Parser::parse_stmt)?
                    } else {
                        self.nested(Parser::parse_block)?
                    }
                } else {
                    Stmt::Skip
                };
                Ok(Stmt::If {
                    cond,
                    then_branch: Box::new(then_branch),
                    else_branch: Box::new(else_branch),
                })
            }
            Tok::Ident(kw) if kw == "while" => {
                self.bump();
                let cond = self.parse_branch_cond()?;
                let body = self.nested(Parser::parse_block)?;
                Ok(Stmt::While {
                    cond,
                    body: Box::new(body),
                })
            }
            Tok::Ident(kw) if kw == "call" => {
                self.bump();
                // call [x, y :=] f(args);
                let first = self.eat_ident()?;
                let mut lhs = Vec::new();
                let callee = if self.peek() == &Tok::Punct("(") {
                    first
                } else {
                    lhs.push(first);
                    while self.try_punct(",") {
                        lhs.push(self.eat_ident()?);
                    }
                    self.eat_punct(":=")?;
                    self.eat_ident()?
                };
                self.eat_punct("(")?;
                let mut args = Vec::new();
                if !self.try_punct(")") {
                    loop {
                        args.push(self.parse_expr()?);
                        if !self.try_punct(",") {
                            break;
                        }
                    }
                    self.eat_punct(")")?;
                }
                self.eat_punct(";")?;
                let site = self.next_site;
                self.next_site += 1;
                Ok(Stmt::Call {
                    site,
                    lhs,
                    callee,
                    args,
                })
            }
            Tok::Ident(_) => {
                // assignment: x := e;  or map store: m[i] := e;
                let name = self.eat_ident()?;
                if self.try_punct("[") {
                    let idx = self.parse_expr()?;
                    self.eat_punct("]")?;
                    self.eat_punct(":=")?;
                    let val = self.parse_expr()?;
                    self.eat_punct(";")?;
                    let store = Expr::Write(
                        Box::new(Expr::var(name.clone())),
                        Box::new(idx),
                        Box::new(val),
                    );
                    Ok(Stmt::Assign(name, store))
                } else {
                    self.eat_punct(":=")?;
                    let e = self.parse_expr()?;
                    self.eat_punct(";")?;
                    Ok(Stmt::Assign(name, e))
                }
            }
            other => Err(self.err(format!("expected statement, found {other:?}"))),
        }
    }

    // ---- formulas ----

    fn parse_formula(&mut self) -> Result<Formula, ParseError> {
        self.parse_iff()
    }

    fn parse_iff(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.parse_implies()?;
        while self.try_punct("<==>") {
            let rhs = self.parse_implies()?;
            lhs = Formula::Iff(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_implies(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.parse_or()?;
        if self.try_punct("==>") {
            let rhs = self.nested(Parser::parse_implies)?;
            Ok(Formula::Implies(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.parse_and()?];
        while self.try_punct("||") {
            parts.push(self.parse_and()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("len 1"))
        } else {
            Ok(Formula::Or(parts))
        }
    }

    fn parse_and(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.parse_not()?];
        while self.try_punct("&&") {
            parts.push(self.parse_not()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("len 1"))
        } else {
            Ok(Formula::And(parts))
        }
    }

    fn parse_not(&mut self) -> Result<Formula, ParseError> {
        if self.try_punct("!") {
            let inner = self.nested(Parser::parse_not)?;
            Ok(Formula::Not(Box::new(inner)))
        } else {
            self.parse_formula_primary()
        }
    }

    fn parse_formula_primary(&mut self) -> Result<Formula, ParseError> {
        if self.at_keyword("true") {
            self.bump();
            return Ok(Formula::True);
        }
        if self.at_keyword("false") {
            self.bump();
            return Ok(Formula::False);
        }
        // Ambiguity between "(formula)" and "expr relop expr" where the
        // expr begins with "(": try the parenthesized formula first and
        // backtrack on failure or if a relational operator follows (as in
        // `(x) == 1`).
        if self.peek() == &Tok::Punct("(") {
            let save = self.pos;
            self.bump();
            if let Ok(f) = self.nested(Parser::parse_formula) {
                if self.try_punct(")") && !self.peek_relop() {
                    return Ok(f);
                }
            }
            self.pos = save;
        }
        let lhs = self.parse_expr()?;
        let op = self.parse_relop()?;
        let rhs = self.parse_expr()?;
        Ok(Formula::Rel(op, lhs, rhs))
    }

    fn peek_relop(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Punct("==")
                | Tok::Punct("!=")
                | Tok::Punct("<")
                | Tok::Punct("<=")
                | Tok::Punct(">")
                | Tok::Punct(">=")
        )
    }

    fn parse_relop(&mut self) -> Result<RelOp, ParseError> {
        let op = match self.peek() {
            Tok::Punct("==") => RelOp::Eq,
            Tok::Punct("!=") => RelOp::Ne,
            Tok::Punct("<") => RelOp::Lt,
            Tok::Punct("<=") => RelOp::Le,
            Tok::Punct(">") => RelOp::Gt,
            Tok::Punct(">=") => RelOp::Ge,
            other => return Err(self.err(format!("expected relational operator, found {other:?}"))),
        };
        self.bump();
        Ok(op)
    }

    // ---- expressions ----

    /// A left-deep chain of the binary operators `ops` over operands
    /// that `operand` parses.
    fn binary_chain(
        &mut self,
        ops: &[(&'static str, BinaryNode)],
        operand: fn(&mut Parser) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        self.chain(|p| {
            let mut lhs = operand(p)?;
            while let Some(&(_, op)) = ops.iter().find(|&&(tok, _)| p.try_punct(tok)) {
                p.sink()?;
                let rhs = operand(p)?;
                lhs = op(Box::new(lhs), Box::new(rhs));
            }
            Ok(lhs)
        })
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_chain(&[("+", Expr::Add), ("-", Expr::Sub)], Parser::parse_term)
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        self.binary_chain(&[("*", Expr::Mul)], Parser::parse_factor)
    }

    fn parse_factor(&mut self) -> Result<Expr, ParseError> {
        if self.try_punct("-") {
            let inner = self.nested(Parser::parse_factor)?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        self.chain(|p| {
            let mut e = p.parse_atom()?;
            while p.try_punct("[") {
                p.sink()?;
                let idx = p.nested(Parser::parse_expr)?;
                p.eat_punct("]")?;
                e = Expr::Read(Box::new(e), Box::new(idx));
            }
            Ok(e)
        })
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Expr::Int(n))
            }
            Tok::Punct("(") => {
                self.bump();
                let e = self.nested(Parser::parse_expr)?;
                self.eat_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                if name == "nu" && self.peek() == &Tok::Punct("@") {
                    return self.parse_nu();
                }
                if !matches!(name.as_str(), "write" | "ite" | "old")
                    && self.peek() != &Tok::Punct("(")
                {
                    return Ok(Expr::Var(name));
                }
                self.nested(|p| p.parse_application(name))
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    /// `nu@site.callee.var`, after the `nu`.
    fn parse_nu(&mut self) -> Result<Expr, ParseError> {
        self.bump();
        let site = match self.bump() {
            Tok::Int(n) if n >= 0 => n as u32,
            other => return Err(self.err(format!("expected call-site number, found {other:?}"))),
        };
        self.eat_punct(".")?;
        let callee = self.eat_ident()?;
        self.eat_punct(".")?;
        let var = self.eat_ident()?;
        Ok(Expr::Nu(NuConst { site, callee, var }))
    }

    /// `write(..)`, `ite(..)`, `old(..)` or a function application,
    /// after its name.
    fn parse_application(&mut self, name: String) -> Result<Expr, ParseError> {
        self.eat_punct("(")?;
        let e = match name.as_str() {
            "write" => {
                let m = self.parse_expr()?;
                self.eat_punct(",")?;
                let i = self.parse_expr()?;
                self.eat_punct(",")?;
                let v = self.parse_expr()?;
                Expr::Write(Box::new(m), Box::new(i), Box::new(v))
            }
            "ite" => {
                let c = self.parse_formula()?;
                self.eat_punct(",")?;
                let t = self.parse_expr()?;
                self.eat_punct(",")?;
                let e = self.parse_expr()?;
                Expr::Ite(Box::new(c), Box::new(t), Box::new(e))
            }
            "old" => Expr::Old(Box::new(self.parse_expr()?)),
            _ => {
                let mut args = Vec::new();
                if self.peek() != &Tok::Punct(")") {
                    loop {
                        args.push(self.parse_expr()?);
                        if !self.try_punct(",") {
                            break;
                        }
                    }
                }
                Expr::App(name, args)
            }
        };
        self.eat_punct(")")?;
        Ok(e)
    }
}

/// Parses a whole program.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information on malformed input.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        next_site: 0,
        depth: 0,
        peak: 0,
    };
    p.parse_program()
}

/// Parses a single formula (useful in tests and for specifying predicate
/// sets by hand).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing tokens.
pub fn parse_formula(src: &str) -> Result<Formula, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        next_site: 0,
        depth: 0,
        peak: 0,
    };
    let f = p.parse_formula()?;
    if p.peek() != &Tok::Eof {
        return Err(p.err("trailing tokens after formula"));
    }
    Ok(f)
}

/// Parses a single expression.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing tokens.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        next_site: 0,
        depth: 0,
        peak: 0,
    };
    let e = p.parse_expr()?;
    if p.peek() != &Tok::Eof {
        return Err(p.err("trailing tokens after expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_program() {
        let src = "
            global Freed: map;
            procedure Foo(c: int, buf: int, cmd: int) {
              if (*) {
                assert Freed[c] == 0;
                Freed[c] := 1;
              }
              if (cmd == 1) {
                if (*) {
                  assert Freed[buf] == 0;
                  Freed[buf] := 1;
                }
              }
            }";
        let prog = parse_program(src).expect("parses");
        assert_eq!(prog.globals, vec![("Freed".to_string(), Sort::Map)]);
        assert_eq!(prog.procedures.len(), 1);
        let p = &prog.procedures[0];
        assert_eq!(p.params, vec!["c", "buf", "cmd"]);
        assert!(p.body.is_some());
    }

    #[test]
    fn parses_contracts() {
        let src = "
            global Freed: map;
            procedure free(p: int)
              requires Freed[p] == 0;
              modifies Freed;
              ensures Freed == write(old(Freed), p, 1);
            ;";
        let prog = parse_program(src).expect("parses");
        let p = prog.procedure("free").expect("exists");
        assert!(p.body.is_none());
        assert_eq!(p.contract.modifies, vec!["Freed"]);
        assert_ne!(p.contract.requires, Formula::True);
        assert!(p.contract.ensures.contains_old());
    }

    #[test]
    fn parses_calls_with_and_without_returns() {
        let src = "
            procedure callee(x: int) returns (r: int) { r := x; }
            procedure caller() {
              var y: int;
              call y := callee(3);
              call callee(y);
            }";
        let prog = parse_program(src).expect("parses");
        let caller = prog.procedure("caller").expect("exists");
        let body = caller.body.as_ref().expect("has body");
        if let Stmt::Seq(ss) = body {
            assert_eq!(ss.len(), 2);
            assert!(matches!(&ss[0], Stmt::Call { lhs, site: 0, .. } if lhs == &["y".to_string()]));
            assert!(matches!(&ss[1], Stmt::Call { lhs, site: 1, .. } if lhs.is_empty()));
        } else {
            panic!("expected seq, got {body:?}");
        }
    }

    #[test]
    fn parses_parenthesized_formula_vs_expr() {
        let f = parse_formula("(x == 0) && y != 1").expect("parses");
        assert!(matches!(f, Formula::And(_)));
        let f = parse_formula("(x) == 0").expect("parses");
        assert_eq!(f, Formula::eq(Expr::var("x"), Expr::Int(0)));
        let f = parse_formula("(x + 1) * y < 2").expect("parses");
        assert!(matches!(f, Formula::Rel(RelOp::Lt, _, _)));
    }

    #[test]
    fn parses_implication_right_assoc() {
        let f = parse_formula("a == 0 ==> b == 0 ==> c == 0").expect("parses");
        if let Formula::Implies(_, rhs) = f {
            assert!(matches!(*rhs, Formula::Implies(..)));
        } else {
            panic!("expected implication");
        }
    }

    #[test]
    fn parses_nondet_branches_and_loops() {
        let src = "
            procedure f(n: int) {
              var i: int;
              i := 0;
              while (i < n) { i := i + 1; }
              if (*) { skip; } else { havoc i; }
            }";
        let prog = parse_program(src).expect("parses");
        let p = prog.procedure("f").expect("exists");
        let body = p.body.as_ref().expect("body");
        assert!(!body.is_core(), "while survives parsing");
    }

    #[test]
    fn map_store_sugar() {
        let src = "procedure f(m: map, i: int) { m[i] := 5; }";
        let prog = parse_program(src).expect("parses");
        let p = prog.procedure("f").expect("exists");
        if let Some(Stmt::Seq(ss)) = &p.body {
            assert!(matches!(
                &ss[0],
                Stmt::Assign(m, Expr::Write(..)) if m == "m"
            ));
        } else {
            panic!("bad body");
        }
    }

    #[test]
    fn nu_constant_round_trip() {
        let e = parse_expr("nu@3.malloc.ret").expect("parses");
        assert_eq!(
            e,
            Expr::Nu(NuConst {
                site: 3,
                callee: "malloc".into(),
                var: "ret".into()
            })
        );
        assert_eq!(e.to_string(), "nu@3.malloc.ret");
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_program("global x int;").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("expected"));
    }

    #[test]
    fn pretty_print_parses_back() {
        let src = "
            global Freed: map;
            procedure Foo(c: int, buf: int, cmd: int) {
              var t: int;
              if (*) {
                assert Freed[c] == 0;
                Freed[c] := 1;
              }
              t := Freed[c] + 2 * cmd;
              assume t >= 0;
              assert c != buf || t > 0;
            }";
        let prog = parse_program(src).expect("parses");
        let printed = prog.to_string();
        let reparsed = parse_program(&printed).unwrap_or_else(|e| {
            panic!("re-parse failed: {e}\nprinted:\n{printed}");
        });
        // Compare semantically meaningful parts (assert tags carry line
        // numbers which shift, so compare bodies modulo tags).
        assert_eq!(reparsed.globals, prog.globals);
        assert_eq!(reparsed.procedures.len(), prog.procedures.len());
    }

    /// Each operator of a left-deep chain is a nesting level, and a
    /// chain inside a chain's operand counts toward the outer chain.
    #[test]
    fn operator_chains_count_as_levels() {
        let assert_of = |e: &str| format!("procedure f(x: int, m: map) {{ assert {e} != 0; }}");
        let sum = |terms: usize| vec!["x"; terms].join(" + ");
        assert!(
            parse_program(&assert_of(&sum(257))).is_ok(),
            "256 operators"
        );
        let deep = parse_program(&assert_of(&sum(258))).expect_err("257 operators");
        assert!(deep.msg.contains("nesting deeper than 256"), "{deep}");
        assert!(parse_program(&assert_of(&format!("m{}", "[0]".repeat(300)))).is_err());
        // Each chain stays under the cap, but the tree they nest into
        // is 20 * 20 levels deep.
        let mut nested = "x".to_string();
        for _ in 0..20 {
            nested = format!("({nested}{})", " + x".repeat(20));
        }
        assert!(parse_program(&assert_of(&nested)).is_err());
    }
}
