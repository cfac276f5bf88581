#![warn(missing_docs)]

//! HAVOC-style C front end for ACSpec.
//!
//! The paper compiles its 17 C benchmarks to the BOOGIE language with the
//! (closed-source) HAVOC tool \[3\], automatically asserting `p != null`
//! before each pointer dereference and modeling fields as maps. This
//! crate substitutes an open implementation of that translation for a C
//! subset sufficient for the paper's benchmark patterns:
//!
//! * [`cast`] — the C subset AST;
//! * [`cparse`] — a lexer/parser for it;
//! * [`lower`] — the instrumenting translation to [`acspec_ir`].
//!
//! # Example
//!
//! ```
//! use acspec_cfront::compile_c;
//!
//! let prog = compile_c(
//!     "void f(int *p) { *p = 1; }",
//! ).expect("compiles");
//! // One procedure with one auto-inserted null-dereference assertion.
//! assert_eq!(prog.assert_count(), 1);
//! ```

pub mod cast;
pub mod cparse;
pub mod lower;

pub use cast::{CExpr, CFunc, CProgram, CStmt, CStruct, CType};
pub use cparse::{parse_c, CParseError};
pub use lower::{lower_c_program, LowerError};

/// A combined front-end error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Parsing failed.
    Parse(CParseError),
    /// Lowering failed.
    Lower(LowerError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Parses and lowers C source into an IR program, inserting the paper's
/// null-dereference assertions and `Freed` type-state modeling.
///
/// # Errors
///
/// Returns [`CompileError`] for syntax errors or unsupported constructs.
pub fn compile_c(src: &str) -> Result<acspec_ir::Program, CompileError> {
    let cprog = parse_c(src).map_err(CompileError::Parse)?;
    lower_c_program(&cprog).map_err(CompileError::Lower)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acspec_ir::typecheck::check_program;

    fn compile(src: &str) -> acspec_ir::Program {
        let prog = compile_c(src).expect("compiles");
        check_program(&prog).expect("well sorted");
        prog
    }

    #[test]
    fn deref_inserts_assertion() {
        let prog = compile("void f(int *p) { *p = 1; }");
        assert_eq!(prog.assert_count(), 1);
        let f = prog.procedure("f").expect("exists");
        let body = f.body.as_ref().expect("body");
        let printed = body.to_string();
        assert!(printed.contains("assert p != 0"), "got:\n{printed}");
        assert!(
            printed.contains("Mem := write(Mem, p, 1)"),
            "got:\n{printed}"
        );
    }

    #[test]
    fn field_access_uses_field_maps() {
        let prog = compile(
            "struct twoints { int a; int b; };
             void f(struct twoints *d) { d->a = 1; }",
        );
        assert!(prog.global_sort("fld_twoints_a").is_some());
        let printed = prog
            .procedure("f")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        assert!(
            printed.contains("fld_twoints_a := write(fld_twoints_a, d, 1)"),
            "got:\n{printed}"
        );
    }

    #[test]
    fn free_models_type_state() {
        let prog = compile("void f(int *p) { free(p); free(p); }");
        assert_eq!(prog.assert_count(), 2, "one Freed assert per free");
        let printed = prog
            .procedure("f")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        assert!(printed.contains("Freed[p] == 0"), "got:\n{printed}");
        assert!(
            printed.contains("Freed := write(Freed, p, 1)"),
            "got:\n{printed}"
        );
    }

    #[test]
    fn short_circuit_becomes_nested_ifs() {
        // The CheckFieldF macro pattern (§5.1.3): the null check guards
        // the dereference.
        let prog = compile(
            "struct s { int f; };
             void g(struct s *x, int a) {
               if (x != NULL && x->f == a) { a = 1; }
             }",
        );
        let printed = prog
            .procedure("g")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        // The deref assert must appear *inside* the x != 0 branch.
        let outer = printed.find("if (x != 0)").expect("outer check");
        let assert_pos = printed.find("assert x != 0").expect("deref assert");
        assert!(
            assert_pos > outer,
            "assert guarded by null check:\n{printed}"
        );
    }

    #[test]
    fn early_return_guards_remainder() {
        let prog = compile(
            "void f(int *p) {
               if (p == NULL) { return; }
               *p = 1;
             }",
        );
        let printed = prog
            .procedure("f")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        assert!(printed.contains("%returned := 1"), "got:\n{printed}");
        assert!(printed.contains("if (%returned == 0)"), "got:\n{printed}");
    }

    #[test]
    fn loops_keep_pure_conditions() {
        let prog = compile(
            "void f(int n, char *buf) {
               int i;
               for (i = 0; i < n; i++) { buf[i] = 0; }
             }",
        );
        let f = prog.procedure("f").expect("exists");
        let body = f.body.as_ref().expect("body");
        // The loop survives to IR (desugaring will unroll it) and one
        // deref assert is inside.
        assert!(!body.is_core());
        assert_eq!(prog.assert_count(), 1);
    }

    #[test]
    fn calls_to_extern_and_defined_functions() {
        let prog = compile(
            "int *malloc(int size);
             int helper(int x) { return x + 1; }
             void f(void) {
               int *p = malloc(8);
               int y = helper(3);
               *p = y;
             }",
        );
        let malloc = prog.procedure("malloc").expect("declared");
        assert!(malloc.contract.modifies.is_empty(), "externs are pure");
        let helper = prog.procedure("helper").expect("declared");
        assert!(
            helper.contract.modifies.contains(&"Mem".to_string()),
            "defined callees conservatively modify all maps (§5.1.3)"
        );
        assert_eq!(prog.assert_count(), 1);
    }

    #[test]
    fn nondet_condition_is_nondeterministic_branch() {
        let prog = compile(
            "void f(int *p) {
               if (nondet()) { free(p); }
             }",
        );
        let printed = prog
            .procedure("f")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        assert!(printed.contains("if (*)"), "got:\n{printed}");
    }

    #[test]
    fn boolean_value_positions_materialize_temps() {
        let prog = compile(
            "struct s { int f; };
             void g(struct s *x, int a) {
               int ok = x != NULL && x->f == a;
               if (ok) { a = 1; }
             }",
        );
        // The deref inside the value-position && must still be guarded.
        let printed = prog
            .procedure("g")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        let outer = printed.find("if (x != 0)").expect("outer check");
        let assert_pos = printed.find("assert x != 0").expect("deref assert");
        assert!(assert_pos > outer, "got:\n{printed}");
    }

    #[test]
    fn deref_dot_is_arrow() {
        let prog = compile(
            "struct s { int f; };
             void g(struct s *p) { (*p).f = 1; }",
        );
        let printed = prog
            .procedure("g")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        assert!(
            printed.contains("fld_s_f := write(fld_s_f, p, 1)"),
            "got:\n{printed}"
        );
        // One deref assert (not two: `(*p).f` is a single access).
        assert_eq!(prog.assert_count(), 1);
    }

    #[test]
    fn plain_dot_is_rejected() {
        let e = compile_c(
            "struct s { int f; };
             void g(int x) { x.f = 1; }",
        );
        assert!(e.is_err());
    }

    #[test]
    fn do_while_unrolls_body_first() {
        let prog = compile(
            "void f(int n, char *buf) {
               int i = 0;
               do {
                 buf[i] = 0;
                 i++;
               } while (i < n);
             }",
        );
        // The body executes at least once: the deref assert is
        // unconditionally reachable plus inside the loop.
        assert_eq!(prog.assert_count(), 2, "one pre-loop copy + one in-loop");
    }

    #[test]
    fn switch_lowers_to_if_chain() {
        let prog = compile(
            "void dispatch(int *p, int cmd) {
               switch (cmd) {
                 case 1:
                   free(p);
                   break;
                 case 2:
                   *p = 2;
                   break;
                 default:
                   *p = 0;
               }
             }",
        );
        let printed = prog
            .procedure("dispatch")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        assert!(printed.contains("== 1"), "got:\n{printed}");
        assert!(printed.contains("== 2"), "got:\n{printed}");
        // Three arms: one free-assert + two deref-asserts.
        assert_eq!(prog.assert_count(), 3);
    }

    #[test]
    fn switch_with_return_in_arm() {
        let prog = compile(
            "void f(int *p, int cmd) {
               switch (cmd) {
                 case 0:
                   return;
                 default:
                   *p = 1;
               }
               *p = 2;
             }",
        );
        let printed = prog
            .procedure("f")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        assert!(printed.contains("%returned"), "got:\n{printed}");
    }

    #[test]
    fn switch_rejects_fall_through() {
        let e = compile_c(
            "void f(int x) {
               switch (x) {
                 case 1:
                   x = 2;
                 case 2:
                   break;
               }
             }",
        );
        assert!(e.is_err(), "fall-through must be rejected");
    }

    #[test]
    fn array_of_structs_indexes_field_maps() {
        let prog = compile(
            "struct item { int val; int next; };
             void g(struct item *arr, int i) {
               arr[i].val = 7;
             }",
        );
        let printed = prog
            .procedure("g")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        // The element address is arr + i; the field map is written there.
        assert!(
            printed.contains("fld_item_val := write(fld_item_val, arr + i, 7)"),
            "got:\n{printed}"
        );
        assert!(printed.contains("assert arr + i != 0"), "got:\n{printed}");
        assert_eq!(prog.assert_count(), 1);
    }

    #[test]
    fn array_of_structs_reads_too() {
        let prog = compile(
            "struct item { int val; int next; };
             int g(struct item *arr, int i) {
               return arr[i].val + arr[i + 1].next;
             }",
        );
        assert_eq!(prog.assert_count(), 2, "one deref assert per access");
    }

    #[test]
    fn function_pointer_call_lowers_via_havoc() {
        let prog = compile(
            "int g(int (*cb)(int), int x) {
               return cb(x);
             }",
        );
        let printed = prog
            .procedure("g")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        assert!(printed.contains("assert cb != 0"), "got:\n{printed}");
        assert!(printed.contains("havoc"), "got:\n{printed}");
        assert_eq!(prog.assert_count(), 1);
    }

    #[test]
    fn function_pointer_local_takes_function_address() {
        let prog = compile(
            "int handler(int x) { return x; }
             int g(int x) {
               int (*fp)(int) = handler;
               return fp(x);
             }",
        );
        let printed = prog
            .procedure("g")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        // `handler` is funcs[0], so its address constant is 1; the
        // indirect call asserts fp != 0 and havocs the result.
        assert!(printed.contains("fp := 1"), "got:\n{printed}");
        assert!(printed.contains("assert fp != 0"), "got:\n{printed}");
    }

    #[test]
    fn varargs_stub_truncates_extra_arguments() {
        let prog = compile(
            "int printf(char *fmt, ...);
             void g(char *fmt, int *p) {
               printf(fmt, *p, 3);
             }",
        );
        // The variadic tail is evaluated — `*p` still asserts p != 0 —
        // but the IR call passes only the fixed argument.
        assert_eq!(prog.assert_count(), 1);
        let printed = prog
            .procedure("g")
            .and_then(|p| p.body.as_ref())
            .expect("body")
            .to_string();
        assert!(printed.contains("assert p != 0"), "got:\n{printed}");
        assert!(
            printed.contains("printf(fmt)"),
            "variadic tail dropped from the call:\n{printed}"
        );
    }

    #[test]
    fn varargs_requires_the_fixed_arguments() {
        let e = compile_c(
            "int printf(char *fmt, ...);
             void g(void) { printf(); }",
        );
        assert!(e.is_err(), "fixed parameters are mandatory");
    }

    #[test]
    fn unknown_function_is_an_error() {
        let e = compile_c("void f(void) { mystery(); }").unwrap_err();
        assert!(matches!(e, CompileError::Lower(_)));
    }

    /// `k` `||`-pairs joined by `&&` around a dereference: the
    /// lowering copies the then-branch 2^k times.
    fn pairs_condition(k: usize) -> String {
        let pairs: Vec<String> = (0..k).map(|i| format!("(x == {i} || y == {i})")).collect();
        format!(
            "int f(int *p, int x, int y) {{\n  if ({}) {{ return *p; }}\n  return 0;\n}}\n",
            pairs.join(" && ")
        )
    }

    #[test]
    fn short_circuit_copies_are_bounded() {
        compile(&pairs_condition(14));
        let Err(CompileError::Lower(e)) = compile_c(&pairs_condition(16)) else {
            panic!("16 pairs must be a lowering error");
        };
        assert_eq!(e.line, 2, "located at the condition");
        assert!(
            e.msg.contains("short-circuit conditions copy more than"),
            "{e}"
        );
    }

    #[test]
    fn figure2_compiles_and_desugars() {
        let prog = compile(
            "struct twoints { int a; int b; };
             int static_returns_t(void);
             struct twoints *calloc(int n, int size);
             void bar(void) {
               struct twoints *data = NULL;
               data = calloc(100, sizeof(struct twoints));
               if (static_returns_t()) {
                 data->a = 1;
               } else {
                 if (data != NULL) {
                   data->a = 1;
                 }
               }
             }",
        );
        let bar = prog.procedure("bar").expect("exists").clone();
        let d = acspec_ir::desugar_procedure(&prog, &bar, acspec_ir::DesugarOptions::default())
            .expect("desugars");
        assert_eq!(d.asserts.len(), 2, "two auto-inserted deref asserts");
        assert_eq!(d.nus.len(), 2, "two external call sites");
    }
}
