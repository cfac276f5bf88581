//! Parser for the C subset.

use crate::cast::*;

/// A parse error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CParseError {
    /// Description.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl std::fmt::Display for CParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "C parse error at {}:{}: {}",
            self.line, self.col, self.msg
        )
    }
}

impl std::error::Error for CParseError {}

/// The deepest nesting of expressions and statements the parser
/// accepts. Parsing recurses once per level, and later passes once per
/// level of the tree it builds, so without a cap a pathological input
/// could overflow the stack. Besides brackets, unary operators and
/// nested statements, each operator of a left-deep chain (`x + x + x`,
/// `a && b && c`, `p->f->f`) is a level: it sinks the whole chain so far
/// one level deeper.
const MAX_DEPTH: usize = 256;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Num(i64),
    Punct(&'static str),
    Eof,
}

const PUNCTS: &[&str] = &[
    "...", "==", "!=", "<=", ">=", "&&", "||", "->", "++", "--", "+=", "-=", "(", ")", "{", "}",
    "[", "]", ";", ",", ":", "=", "<", ">", "!", "*", "+", "-", "&", ".",
];

/// A token with its 1-based line and column.
type Spanned = (Tok, u32, u32);

fn lex(src: &str) -> Result<Vec<Spanned>, CParseError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let n = bytes.len();
    let mut i = 0;
    let mut line = 1u32;
    let mut line_start = 0;
    'outer: while i < n {
        let c = bytes[i] as char;
        let col = (i - line_start + 1) as u32;
        if c == '\n' {
            line += 1;
            i += 1;
            line_start = i;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '/' && i + 1 < n && bytes[i + 1] == b'/' {
            while i < n && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < n && bytes[i + 1] == b'*' {
            i += 2;
            while i + 1 < n && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                if bytes[i] == b'\n' {
                    line += 1;
                    line_start = i + 1;
                }
                i += 1;
            }
            i += 2;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let v: i64 = src[start..i].parse().map_err(|_| CParseError {
                msg: "integer out of range".into(),
                line,
                col,
            })?;
            out.push((Tok::Num(v), line, col));
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < n && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push((Tok::Ident(src[start..i].to_string()), line, col));
            continue;
        }
        for p in PUNCTS {
            if src[i..].starts_with(p) {
                out.push((Tok::Punct(p), line, col));
                i += p.len();
                continue 'outer;
            }
        }
        return Err(CParseError {
            msg: format!("unexpected character `{c}`"),
            line,
            col,
        });
    }
    out.push((Tok::Eof, line, (n - line_start + 1) as u32));
    Ok(out)
}

struct P {
    toks: Vec<Spanned>,
    pos: usize,
    /// Nesting level of the expression or statement being parsed.
    depth: usize,
    /// The deepest level the innermost operator chain being parsed
    /// reaches so far (see [`P::chain`]).
    peak: usize,
}

impl P {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].1
    }

    fn col(&self) -> u32 {
        self.toks[self.pos].2
    }

    fn err(&self, msg: impl Into<String>) -> CParseError {
        CParseError {
            msg: msg.into(),
            line: self.line(),
            col: self.col(),
        }
    }

    fn too_deep(&self) -> CParseError {
        self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
    }

    /// Parses one level deeper, refusing to go past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut P) -> Result<T, CParseError>,
    ) -> Result<T, CParseError> {
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
    /// [`P::sink`] at each operator. The chain's peak level starts at
    /// the current depth and, once the chain is built, counts toward any
    /// chain it is an operand of.
    fn chain<T>(
        &mut self,
        f: impl FnOnce(&mut P) -> Result<T, CParseError>,
    ) -> Result<T, CParseError> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let out = f(self);
        self.peak = self.peak.max(outer);
        out
    }

    /// One more operator of a chain: the chain built so far becomes its
    /// left operand, one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn sink(&mut self) -> Result<(), CParseError> {
        if self.peak == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.peak += 1;
        Ok(())
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, p: &'static str) -> Result<(), CParseError> {
        if self.peek() == &Tok::Punct(p) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn try_eat(&mut self, p: &'static str) -> bool {
        if self.peek() == &Tok::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, CParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn at_ident(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    /// Parses a base type name if the next tokens look like one.
    fn try_base_type(&mut self) -> Option<CType> {
        let (tok, ..) = self.toks[self.pos].clone();
        let base = match tok {
            Tok::Ident(s) => s,
            _ => return None,
        };
        match base.as_str() {
            "void" => {
                self.bump();
                Some(CType::Void)
            }
            "int" | "char" | "long" | "unsigned" | "size_t" | "bool" => {
                self.bump();
                // Consume extra specifier words (`unsigned int`, …).
                while matches!(self.peek(), Tok::Ident(s) if matches!(s.as_str(), "int" | "char" | "long"))
                {
                    self.bump();
                }
                Some(CType::Int)
            }
            "struct" => {
                self.bump();
                let name = self.ident().ok()?;
                Some(CType::Struct(name))
            }
            _ => None,
        }
    }

    fn wrap_pointers(&mut self, mut t: CType) -> CType {
        while self.try_eat("*") {
            t = CType::Ptr(Box::new(t));
        }
        t
    }

    /// True when the next tokens are `( *` — a function-pointer
    /// declarator `ret (*name)(types)`.
    fn at_fptr_declarator(&self) -> bool {
        self.peek() == &Tok::Punct("(")
            && self
                .toks
                .get(self.pos + 1)
                .is_some_and(|(t, ..)| t == &Tok::Punct("*"))
    }

    /// Parses `(*name)(param-types)` after the return type. Parameter
    /// types are validated but not recorded (indirect calls are lowered
    /// via havoc, so only the return type matters).
    fn parse_fptr_declarator(&mut self, ret: CType) -> Result<(String, CType), CParseError> {
        self.eat("(")?;
        self.eat("*")?;
        let name = self.ident()?;
        self.eat(")")?;
        self.eat("(")?;
        if !self.try_eat(")") {
            loop {
                let base = self
                    .try_base_type()
                    .ok_or_else(|| self.err("expected parameter type in function pointer"))?;
                let _ = self.wrap_pointers(base);
                // A parameter name is optional in a declarator.
                if let Tok::Ident(_) = self.peek() {
                    let _ = self.ident();
                }
                if !self.try_eat(",") {
                    break;
                }
            }
            self.eat(")")?;
        }
        Ok((name, CType::FuncPtr(Box::new(ret))))
    }

    fn parse_program(&mut self) -> Result<CProgram, CParseError> {
        let mut prog = CProgram::default();
        while self.peek() != &Tok::Eof {
            let third_is_brace = self
                .toks
                .get(self.pos + 2)
                .is_some_and(|(t, ..)| t == &Tok::Punct("{"));
            if self.at_ident("struct") && third_is_brace {
                prog.structs.push(self.parse_struct()?);
                continue;
            }
            prog.funcs.push(self.parse_func()?);
        }
        Ok(prog)
    }

    fn parse_struct(&mut self) -> Result<CStruct, CParseError> {
        self.bump(); // struct
        let name = self.ident()?;
        self.eat("{")?;
        let mut fields = Vec::new();
        while !self.try_eat("}") {
            let base = self
                .try_base_type()
                .ok_or_else(|| self.err("expected field type"))?;
            let t = self.wrap_pointers(base);
            let fname = self.ident()?;
            self.eat(";")?;
            fields.push((fname, t));
        }
        self.eat(";")?;
        Ok(CStruct { name, fields })
    }

    fn parse_func(&mut self) -> Result<CFunc, CParseError> {
        let base = self
            .try_base_type()
            .ok_or_else(|| self.err("expected return type"))?;
        let ret = self.wrap_pointers(base);
        let name = self.ident()?;
        self.eat("(")?;
        let mut params = Vec::new();
        let mut varargs = false;
        if !self.try_eat(")") {
            let second_is_close = self
                .toks
                .get(self.pos + 1)
                .is_some_and(|(t, ..)| t == &Tok::Punct(")"));
            if self.at_ident("void") && second_is_close {
                self.bump();
                self.eat(")")?;
            } else {
                loop {
                    if self.try_eat("...") {
                        varargs = true;
                        break;
                    }
                    let base = self
                        .try_base_type()
                        .ok_or_else(|| self.err("expected parameter type"))?;
                    let t = self.wrap_pointers(base);
                    let (pname, t) = if self.at_fptr_declarator() {
                        self.parse_fptr_declarator(t)?
                    } else {
                        (self.ident()?, t)
                    };
                    params.push((pname, t));
                    if !self.try_eat(",") {
                        break;
                    }
                }
                self.eat(")")?;
            }
        }
        if self.try_eat(";") {
            return Ok(CFunc {
                name,
                ret,
                params,
                varargs,
                body: None,
            });
        }
        let body = self.parse_block()?;
        Ok(CFunc {
            name,
            ret,
            params,
            varargs,
            body: Some(body),
        })
    }

    fn parse_block(&mut self) -> Result<Vec<CStmt>, CParseError> {
        self.eat("{")?;
        let mut out = Vec::new();
        while !self.try_eat("}") {
            out.push(self.parse_stmt()?);
        }
        Ok(out)
    }

    fn parse_stmt(&mut self) -> Result<CStmt, CParseError> {
        if self.peek() == &Tok::Punct("{") {
            return Ok(CStmt::Block(self.nested(P::parse_block)?));
        }
        if self.at_ident("if") {
            self.bump();
            self.eat("(")?;
            let cond = self.parse_expr()?;
            self.eat(")")?;
            let then_b = self.parse_stmt_as_block()?;
            let else_b = if self.at_ident("else") {
                self.bump();
                self.parse_stmt_as_block()?
            } else {
                Vec::new()
            };
            return Ok(CStmt::If(cond, then_b, else_b));
        }
        if self.at_ident("while") {
            self.bump();
            self.eat("(")?;
            let cond = self.parse_expr()?;
            self.eat(")")?;
            let body = self.parse_stmt_as_block()?;
            return Ok(CStmt::While(cond, body));
        }
        if self.at_ident("do") {
            // do { body } while (c);  ≡  body; while (c) { body }
            self.bump();
            let body = self.parse_stmt_as_block()?;
            if !self.at_ident("while") {
                return Err(self.err("expected `while` after do-body"));
            }
            self.bump();
            self.eat("(")?;
            let cond = self.parse_expr()?;
            self.eat(")")?;
            self.eat(";")?;
            let mut out = body.clone();
            out.push(CStmt::While(cond, body));
            return Ok(CStmt::Block(out));
        }
        if self.at_ident("for") {
            self.bump();
            self.eat("(")?;
            let init = self.parse_simple_stmt()?;
            self.eat(";")?;
            let cond = self.parse_expr()?;
            self.eat(";")?;
            let step = self.parse_for_step()?;
            self.eat(")")?;
            let body = self.parse_stmt_as_block()?;
            return Ok(CStmt::For(Box::new(init), cond, Box::new(step), body));
        }
        if self.at_ident("switch") {
            self.bump();
            self.eat("(")?;
            let scrutinee = self.parse_expr()?;
            self.eat(")")?;
            self.eat("{")?;
            let mut arms: Vec<(Option<i64>, Vec<CStmt>)> = Vec::new();
            while !self.try_eat("}") {
                let label = if self.at_ident("case") {
                    self.bump();
                    let negative = self.try_eat("-");
                    match self.bump() {
                        Tok::Num(n) => Some(if negative { -n } else { n }),
                        other => {
                            return Err(self.err(format!("expected case constant, found {other:?}")))
                        }
                    }
                } else if self.at_ident("default") {
                    self.bump();
                    None
                } else {
                    return Err(self.err("expected `case` or `default`"));
                };
                self.eat(":")?;
                let mut body = Vec::new();
                loop {
                    if self.at_ident("break") {
                        self.bump();
                        self.eat(";")?;
                        break;
                    }
                    if self.at_ident("case")
                        || self.at_ident("default")
                        || self.peek() == &Tok::Punct("}")
                    {
                        // A `break` is unnecessary when the arm cannot
                        // fall through (it ends in `return`), for the
                        // default arm, and before the closing brace.
                        let ends_in_return = matches!(body.last(), Some(CStmt::Return(_)));
                        if label.is_none() || self.peek() == &Tok::Punct("}") || ends_in_return {
                            break;
                        }
                        return Err(self.err("case bodies must end with `break`"));
                    }
                    body.push(self.nested(P::parse_stmt)?);
                }
                arms.push((label, body));
            }
            return Ok(CStmt::Switch(scrutinee, arms));
        }
        if self.at_ident("return") {
            self.bump();
            if self.try_eat(";") {
                return Ok(CStmt::Return(None));
            }
            let e = self.parse_expr()?;
            self.eat(";")?;
            return Ok(CStmt::Return(Some(e)));
        }
        let s = self.parse_simple_stmt()?;
        self.eat(";")?;
        Ok(s)
    }

    fn parse_stmt_as_block(&mut self) -> Result<Vec<CStmt>, CParseError> {
        self.nested(|p| {
            if p.peek() == &Tok::Punct("{") {
                p.parse_block()
            } else {
                Ok(vec![p.parse_stmt()?])
            }
        })
    }

    /// `i++` / `i--` / `i += e` / ordinary assignment, for `for` steps.
    fn parse_for_step(&mut self) -> Result<CStmt, CParseError> {
        self.parse_simple_stmt()
    }

    /// Declarations, assignments, and expression statements, without the
    /// trailing `;`.
    fn parse_simple_stmt(&mut self) -> Result<CStmt, CParseError> {
        // Declaration?
        let save = self.pos;
        if let Some(base) = self.try_base_type() {
            let t = self.wrap_pointers(base);
            if self.at_fptr_declarator() {
                let (name, t) = self.parse_fptr_declarator(t)?;
                let init = if self.try_eat("=") {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                return Ok(CStmt::Decl(name, t, init));
            }
            if let Tok::Ident(_) = self.peek() {
                let name = self.ident()?;
                let init = if self.try_eat("=") {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                return Ok(CStmt::Decl(name, t, init));
            }
            self.pos = save;
        }
        // free(p)
        if self.at_ident("free") {
            let line = self.line();
            self.bump();
            self.eat("(")?;
            let e = self.parse_expr()?;
            self.eat(")")?;
            return Ok(CStmt::Free(e, line));
        }
        // Assignment or expression statement.
        let e = self.parse_expr()?;
        if self.try_eat("=") {
            let lval = self.expr_to_lval(e)?;
            let rhs = self.parse_expr()?;
            return Ok(CStmt::Assign(lval, rhs));
        }
        if self.try_eat("++") {
            let lval = self.expr_to_lval(e.clone())?;
            return Ok(CStmt::Assign(
                lval,
                CExpr::Bin(CBinOp::Add, Box::new(e), Box::new(CExpr::Num(1))),
            ));
        }
        if self.try_eat("--") {
            let lval = self.expr_to_lval(e.clone())?;
            return Ok(CStmt::Assign(
                lval,
                CExpr::Bin(CBinOp::Sub, Box::new(e), Box::new(CExpr::Num(1))),
            ));
        }
        if self.try_eat("+=") {
            let lval = self.expr_to_lval(e.clone())?;
            let rhs = self.parse_expr()?;
            return Ok(CStmt::Assign(
                lval,
                CExpr::Bin(CBinOp::Add, Box::new(e), Box::new(rhs)),
            ));
        }
        if self.try_eat("-=") {
            let lval = self.expr_to_lval(e.clone())?;
            let rhs = self.parse_expr()?;
            return Ok(CStmt::Assign(
                lval,
                CExpr::Bin(CBinOp::Sub, Box::new(e), Box::new(rhs)),
            ));
        }
        Ok(CStmt::Expr(e))
    }

    fn expr_to_lval(&self, e: CExpr) -> Result<CLval, CParseError> {
        match e {
            CExpr::Var(n, l) => Ok(CLval::Var(n, l)),
            CExpr::Deref(inner, l) => Ok(CLval::Deref(*inner, l)),
            CExpr::Arrow(inner, f, l) => Ok(CLval::Arrow(*inner, f, l)),
            CExpr::Index(a, i, l) => Ok(CLval::Index(*a, *i, l)),
            other => Err(self.err(format!("not assignable: {other:?}"))),
        }
    }

    // Expressions with precedence: || < && < cmp < add < mul < unary <
    // postfix.
    fn parse_expr(&mut self) -> Result<CExpr, CParseError> {
        self.parse_or()
    }

    /// A left-deep chain of the binary operators `ops` over operands
    /// that `operand` parses.
    fn binary_chain(
        &mut self,
        ops: &[(&'static str, CBinOp)],
        operand: fn(&mut P) -> Result<CExpr, CParseError>,
    ) -> Result<CExpr, CParseError> {
        self.chain(|p| {
            let mut lhs = operand(p)?;
            while let Some(&(_, op)) = ops.iter().find(|&&(tok, _)| p.try_eat(tok)) {
                p.sink()?;
                let rhs = operand(p)?;
                lhs = CExpr::Bin(op, Box::new(lhs), Box::new(rhs));
            }
            Ok(lhs)
        })
    }

    fn parse_or(&mut self) -> Result<CExpr, CParseError> {
        self.binary_chain(&[("||", CBinOp::Or)], P::parse_and)
    }

    fn parse_and(&mut self) -> Result<CExpr, CParseError> {
        self.binary_chain(&[("&&", CBinOp::And)], P::parse_cmp)
    }

    fn parse_cmp(&mut self) -> Result<CExpr, CParseError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Tok::Punct("==") => Some(CBinOp::Eq),
            Tok::Punct("!=") => Some(CBinOp::Ne),
            Tok::Punct("<") => Some(CBinOp::Lt),
            Tok::Punct("<=") => Some(CBinOp::Le),
            Tok::Punct(">") => Some(CBinOp::Gt),
            Tok::Punct(">=") => Some(CBinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_add()?;
            Ok(CExpr::Bin(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_add(&mut self) -> Result<CExpr, CParseError> {
        self.binary_chain(&[("+", CBinOp::Add), ("-", CBinOp::Sub)], P::parse_mul)
    }

    fn parse_mul(&mut self) -> Result<CExpr, CParseError> {
        self.binary_chain(&[("*", CBinOp::Mul)], P::parse_unary)
    }

    fn parse_unary(&mut self) -> Result<CExpr, CParseError> {
        if self.try_eat("!") {
            return Ok(CExpr::Not(Box::new(self.nested(P::parse_unary)?)));
        }
        if self.try_eat("-") {
            return Ok(CExpr::Neg(Box::new(self.nested(P::parse_unary)?)));
        }
        if self.peek() == &Tok::Punct("*") {
            let line = self.line();
            self.bump();
            return Ok(CExpr::Deref(Box::new(self.nested(P::parse_unary)?), line));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<CExpr, CParseError> {
        self.chain(|p| {
            let mut e = p.parse_primary()?;
            loop {
                if p.try_eat("->") {
                    p.sink()?;
                    let line = p.line();
                    let f = p.ident()?;
                    e = CExpr::Arrow(Box::new(e), f, line);
                } else if p.try_eat(".") {
                    p.sink()?;
                    // `(*p).f` ≡ `p->f`, and `a[i].f` on an array of structs
                    // is field access at the element address `a + i`;
                    // by-value struct access is otherwise outside the subset.
                    let (line, col) = (p.line(), p.col());
                    let f = p.ident()?;
                    match e {
                        CExpr::Deref(inner, _) => {
                            e = CExpr::Arrow(inner, f, line);
                        }
                        CExpr::Index(base, idx, _) => {
                            e = CExpr::Arrow(Box::new(CExpr::Bin(CBinOp::Add, base, idx)), f, line);
                        }
                        other => {
                            return Err(CParseError {
                                msg: format!(
                                    "`.` is only supported as `(*p).field` or `a[i].field`, \
                                     got {other:?}"
                                ),
                                line,
                                col,
                            })
                        }
                    }
                } else if p.peek() == &Tok::Punct("[") {
                    let line = p.line();
                    p.bump();
                    p.sink()?;
                    let idx = p.nested(P::parse_expr)?;
                    p.eat("]")?;
                    e = CExpr::Index(Box::new(e), Box::new(idx), line);
                } else {
                    return Ok(e);
                }
            }
        })
    }

    fn parse_primary(&mut self) -> Result<CExpr, CParseError> {
        let (line, col) = (self.line(), self.col());
        match self.bump() {
            Tok::Num(n) => Ok(CExpr::Num(n)),
            Tok::Punct("(") => self.nested(|p| {
                // Cast? `(type *) expr` — skip the cast.
                let save = p.pos;
                if let Some(base) = p.try_base_type() {
                    let _ = p.wrap_pointers(base);
                    if p.try_eat(")") {
                        return p.parse_unary();
                    }
                    p.pos = save;
                }
                let e = p.parse_expr()?;
                p.eat(")")?;
                Ok(e)
            }),
            Tok::Ident(name) => {
                if name == "NULL" {
                    return Ok(CExpr::Null);
                }
                if name == "sizeof" {
                    // Sizes are irrelevant to the analysis; skip the
                    // balanced operand and model the size as an opaque
                    // constant.
                    if self.try_eat("(") {
                        let mut depth = 1;
                        while depth > 0 {
                            match self.bump() {
                                Tok::Punct("(") => depth += 1,
                                Tok::Punct(")") => depth -= 1,
                                Tok::Eof => return Err(self.err("unterminated sizeof")),
                                _ => {}
                            }
                        }
                    }
                    return Ok(CExpr::Num(8));
                }
                if self.try_eat("(") {
                    let mut args = Vec::new();
                    if !self.try_eat(")") {
                        loop {
                            // `sizeof(T)` is modeled as an opaque size.
                            args.push(self.nested(P::parse_expr)?);
                            if !self.try_eat(",") {
                                break;
                            }
                        }
                        self.eat(")")?;
                    }
                    return Ok(CExpr::Call(name, args, line));
                }
                Ok(CExpr::Var(name, line))
            }
            other => Err(CParseError {
                msg: format!("expected expression, found {other:?}"),
                line,
                col,
            }),
        }
    }
}

/// Parses a C translation unit.
///
/// `sizeof` is accepted as a call to an (uninterpreted) function.
///
/// # Errors
///
/// Returns [`CParseError`] with a line number on malformed input.
pub fn parse_c(src: &str) -> Result<CProgram, CParseError> {
    let toks = lex(src)?;
    let mut p = P {
        toks,
        pos: 0,
        depth: 0,
        peak: 0,
    };
    p.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure2_shape() {
        let src = "
            struct twoints { int a; int b; };
            int static_returns_t(void);
            void bar(void) {
              struct twoints *data = NULL;
              data = (struct twoints *) calloc(100, sizeof_twoints());
              if (static_returns_t()) {
                data->a = 1;
              } else {
                if (data != NULL) {
                  data->a = 1;
                }
              }
            }";
        let prog = parse_c(src).expect("parses");
        assert_eq!(prog.structs.len(), 1);
        assert_eq!(prog.funcs.len(), 2);
        let bar = prog.func("bar").expect("exists");
        assert!(bar.body.is_some());
    }

    #[test]
    fn parses_pointer_types() {
        let prog = parse_c("int **pp(void);").expect("parses");
        let f = prog.func("pp").expect("exists");
        assert_eq!(
            f.ret,
            CType::Ptr(Box::new(CType::Ptr(Box::new(CType::Int))))
        );
    }

    #[test]
    fn parses_loops_and_frees() {
        let src = "
            void f(int n, char *buf) {
              int i;
              for (i = 0; i < n; i++) {
                buf[i] = 0;
              }
              while (n > 0) { n--; }
              free(buf);
            }";
        let prog = parse_c(src).expect("parses");
        let f = prog.func("f").expect("exists");
        let body = f.body.as_ref().expect("body");
        assert!(matches!(body[1], CStmt::For(..)));
        assert!(matches!(body[2], CStmt::While(..)));
        assert!(matches!(body[3], CStmt::Free(..)));
    }

    #[test]
    fn parses_short_circuit_conditions() {
        let src = "
            void f(int *x, int a) {
              if (x != NULL && *x == a) {
                a = 1;
              }
            }";
        let prog = parse_c(src).expect("parses");
        let f = prog.func("f").expect("exists");
        if let Some(body) = &f.body {
            if let CStmt::If(cond, ..) = &body[0] {
                assert!(matches!(cond, CExpr::Bin(CBinOp::And, ..)));
                return;
            }
        }
        panic!("expected if with && condition");
    }

    #[test]
    fn deref_lines_recorded() {
        let src = "void f(int *p) {\n  *p = 1;\n}";
        let prog = parse_c(src).expect("parses");
        let f = prog.func("f").expect("exists");
        if let Some(body) = &f.body {
            if let CStmt::Assign(CLval::Deref(_, line), _) = &body[0] {
                assert_eq!(*line, 2);
                return;
            }
        }
        panic!("expected deref assignment");
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_c("int f( {").is_err());
        assert!(parse_c("@").is_err());
    }

    /// Each operator of a left-deep chain is a nesting level, and a
    /// chain inside a chain's operand counts toward the outer chain.
    #[test]
    fn operator_chains_count_as_levels() {
        let body = |e: &str| format!("int f(int x, int *a) {{ return {e}; }}");
        let chain = |terms: usize, op: &str| vec!["x"; terms].join(op);
        for op in [" + ", " * ", " && ", " || "] {
            assert!(parse_c(&body(&chain(257, op))).is_ok(), "256 `{op}`");
            let deep = parse_c(&body(&chain(258, op))).expect_err("257 operators");
            assert!(deep.msg.contains("nesting deeper than 256"), "{}", deep.msg);
        }
        assert!(parse_c(&body(&format!("a{}", "[0]".repeat(300)))).is_err());
        // Each chain stays under the cap, but the tree they nest into
        // is 20 * 20 levels deep.
        let mut nested = "x".to_string();
        for _ in 0..20 {
            nested = format!("({nested}{})", " && x".repeat(20));
        }
        assert!(parse_c(&body(&nested)).is_err());
    }
}
