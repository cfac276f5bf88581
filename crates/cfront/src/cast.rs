//! Abstract syntax for the supported C subset.
//!
//! The subset covers what the paper's benchmarks exercise: integers,
//! pointers (to int, char, or struct), struct field access through
//! pointers, array indexing, allocation (`malloc`/`calloc`), `free`,
//! `if`/`while`/`for`/`return`, and short-circuit conditions.

/// C types (all scalars are modeled as mathematical integers; pointers
/// are integer addresses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CType {
    /// `void` (function returns only).
    Void,
    /// Any integer scalar (`int`, `char`, `size_t`, …).
    Int,
    /// Pointer to another type.
    Ptr(Box<CType>),
    /// A struct by value (only usable behind a pointer).
    Struct(String),
    /// Pointer to a function returning the boxed type. Parameter types
    /// are not tracked: an indirect call is lowered via havoc, so only
    /// the return type matters.
    FuncPtr(Box<CType>),
}

impl CType {
    /// True for pointer types (data or function pointers).
    pub fn is_pointer(&self) -> bool {
        matches!(self, CType::Ptr(_) | CType::FuncPtr(_))
    }
}

/// A struct declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CStruct {
    /// Struct name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<(String, CType)>,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
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
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

/// Expressions. Each carries the 1-based source line for provenance tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CExpr {
    /// Integer literal.
    Num(i64),
    /// `NULL` (same as `0`).
    Null,
    /// Variable reference.
    Var(String, u32),
    /// `*e`
    Deref(Box<CExpr>, u32),
    /// `e->f`
    Arrow(Box<CExpr>, String, u32),
    /// `e[i]`
    Index(Box<CExpr>, Box<CExpr>, u32),
    /// `!e`
    Not(Box<CExpr>),
    /// `-e`
    Neg(Box<CExpr>),
    /// Binary operation.
    Bin(CBinOp, Box<CExpr>, Box<CExpr>),
    /// Function call.
    Call(String, Vec<CExpr>, u32),
}

impl CExpr {
    /// The source line most representative of this expression.
    pub fn line(&self) -> u32 {
        match self {
            CExpr::Num(_) | CExpr::Null => 0,
            CExpr::Var(_, l)
            | CExpr::Deref(_, l)
            | CExpr::Arrow(_, _, l)
            | CExpr::Index(_, _, l)
            | CExpr::Call(_, _, l) => *l,
            CExpr::Not(e) | CExpr::Neg(e) => e.line(),
            CExpr::Bin(_, a, _) => a.line(),
        }
    }
}

/// Assignable places.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CLval {
    /// `x = …`
    Var(String, u32),
    /// `*p = …`
    Deref(CExpr, u32),
    /// `p->f = …`
    Arrow(CExpr, String, u32),
    /// `p[i] = …`
    Index(CExpr, CExpr, u32),
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CStmt {
    /// Local declaration with optional initializer.
    Decl(String, CType, Option<CExpr>),
    /// Assignment.
    Assign(CLval, CExpr),
    /// `if (c) { … } else { … }`.
    If(CExpr, Vec<CStmt>, Vec<CStmt>),
    /// `while (c) { … }`.
    While(CExpr, Vec<CStmt>),
    /// `for (init; cond; step) { … }` (all parts already parsed into
    /// statements/expressions).
    For(Box<CStmt>, CExpr, Box<CStmt>, Vec<CStmt>),
    /// `return e;` / `return;`.
    Return(Option<CExpr>),
    /// Expression statement (a call).
    Expr(CExpr),
    /// `free(p);` — special-cased per the paper's type-state model.
    Free(CExpr, u32),
    /// `switch (e) { case k: … break; … default: … }`. Each case body
    /// must end before the next label with `break` (fall-through is not
    /// supported); lowered to an if/else-if chain.
    Switch(CExpr, Vec<(Option<i64>, Vec<CStmt>)>),
    /// A nested block.
    Block(Vec<CStmt>),
}

/// A function definition or prototype.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CFunc {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: CType,
    /// Parameters.
    pub params: Vec<(String, CType)>,
    /// True for `...` prototypes (`int printf(char *fmt, ...);`).
    /// Extra call arguments are evaluated for side effects and dropped.
    pub varargs: bool,
    /// Body; `None` for prototypes (external functions).
    pub body: Option<Vec<CStmt>>,
}

/// A translation unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CProgram {
    /// Struct declarations.
    pub structs: Vec<CStruct>,
    /// Function definitions and prototypes.
    pub funcs: Vec<CFunc>,
}

impl CProgram {
    /// Looks up a struct by name.
    pub fn struct_decl(&self, name: &str) -> Option<&CStruct> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Looks up a function by name.
    pub fn func(&self, name: &str) -> Option<&CFunc> {
        self.funcs.iter().find(|f| f.name == name)
    }
}
