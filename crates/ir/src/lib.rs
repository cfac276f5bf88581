#![warn(missing_docs)]

//! Intermediate language for the ACSpec framework.
//!
//! This crate implements the simple programming language of §2.1 of
//! *Almost-Correct Specifications* (PLDI 2013): integer- and map-valued
//! variables, uninterpreted functions, assertions, assumptions, assignments,
//! `havoc`, sequencing, and (possibly non-deterministic) conditionals.
//!
//! On top of the core loop-free, call-free language the crate provides the
//! two surface conveniences the paper compiles away:
//!
//! * **procedure calls**, desugared into `assert pre; x := ν; assume post`
//!   using per-call-site symbolic constants `ν_l.pr.x` ([`desugar`]), and
//! * **loops**, unrolled a bounded number of times (twice in the paper's
//!   evaluation, §5).
//!
//! The crate also contains a parser for a Boogie-like surface syntax
//! ([`parse`]), a pretty printer, a sort checker, and a reference
//! interpreter ([`interp`]) used as a brute-force semantic oracle in tests.
//!
//! # Example
//!
//! ```
//! use acspec_ir::parse::parse_program;
//!
//! let program = parse_program(
//!     "global Freed: map;
//!      procedure Foo(c: int) {
//!        assert Freed[c] == 0;
//!        Freed[c] := 1;
//!      }",
//! ).expect("parses");
//! assert_eq!(program.procedures.len(), 1);
//! ```

pub mod desugar;
pub mod expr;
pub mod interp;
pub mod locs;
pub mod parse;
pub mod pretty;
pub mod program;
pub mod stmt;
pub mod typecheck;

pub use desugar::{desugar_procedure, DesugarOptions, DesugaredProc};
pub use expr::{Atom, Expr, Formula, NuConst, RelOp};
pub use locs::{enumerate_locations, LocId, LocKind, LocMeta};
pub use program::{Contract, FuncDecl, Procedure, Program};
pub use stmt::{AssertId, BranchCond, Stmt};

/// The sorts of the language: mathematical integers and maps from integers
/// to integers (used to model arrays, heaps, and per-field maps; §2.1).
///
/// Booleans exist only at the formula level; there is no boolean value sort,
/// mirroring the paper's language where all variables are integer valued and
/// maps model arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sort {
    /// Mathematical integer.
    Int,
    /// Total map from integers to integers.
    Map,
}

impl std::fmt::Display for Sort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sort::Int => write!(f, "int"),
            Sort::Map => write!(f, "map"),
        }
    }
}
