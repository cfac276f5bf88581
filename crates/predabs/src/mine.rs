//! Predicate mining (§4.4): the `Preds` transformer collecting the atomic
//! predicates of `wp(pr, true)`, parameterized by the two vocabulary
//! abstractions of §4.4.2 and §4.4.3.

use std::collections::BTreeSet;

use acspec_ir::desugar::DesugaredProc;
use acspec_ir::expr::{Atom, Expr};
use acspec_ir::stmt::{BranchCond, Stmt};

/// The vocabulary abstractions of Figure 4. Their product yields the four
/// configurations `Conc` (neither), `A0` (havoc returns), `A1` (ignore
/// conditionals), and `A2` (both).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Abstraction {
    /// §4.4.2: treat `if (c)` as `if (*)` during collection, so guard
    /// predicates never enter `Q`.
    pub ignore_conditionals: bool,
    /// §4.4.3: treat call-site assignments `x := ν_l.pr.x` as `havoc x`,
    /// so no predicate mentions callee modifications.
    pub havoc_returns: bool,
}

impl Abstraction {
    /// The concrete configuration (`Conc`).
    pub fn concrete() -> Abstraction {
        Abstraction::default()
    }
}

/// Collects the predicate set `Q` for a desugared procedure under the
/// given abstraction: `Preds(body, {})` filtered to the environment
/// vocabulary (parameters, globals, and — unless havoc-returns is on —
/// ν-constants).
pub fn mine_predicates(proc: &DesugaredProc, abs: Abstraction) -> Vec<Atom> {
    let input_vars: BTreeSet<&str> = proc.inputs.iter().map(String::as_str).collect();
    // The set iterates sorted and without duplicates.
    preds(&proc.body, BTreeSet::new(), abs)
        .into_iter()
        .filter(|a| {
            a.free_vars()
                .iter()
                .all(|v| input_vars.contains(v.as_str()))
        })
        .filter(|a| !abs.havoc_returns || a.nu_consts().is_empty())
        .collect()
}

/// The `Preds(s, Q)` transformer of §4.4.1.
fn preds(s: &Stmt, q: BTreeSet<Atom>, abs: Abstraction) -> BTreeSet<Atom> {
    match s {
        Stmt::Skip => q,
        Stmt::Assume(f) | Stmt::Assert { cond: f, .. } => {
            let mut q = q;
            q.extend(f.atoms());
            q
        }
        Stmt::Assign(x, e) => {
            if abs.havoc_returns && matches!(e, Expr::Nu(_)) {
                // Treated as `havoc x`.
                return drop_var(q, x);
            }
            // Atoms(Q[e/x]): substitute into each atom and re-collect
            // (write-elimination and ite-splitting happen inside .atoms()).
            let mut out = BTreeSet::new();
            for a in q {
                let f = a.to_formula().subst(x, e);
                out.extend(f.atoms());
            }
            out
        }
        Stmt::Havoc(x) => drop_var(q, x),
        Stmt::Seq(ss) => ss.iter().rev().fold(q, |acc, s| preds(s, acc, abs)),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let mut out = preds(then_branch, q.clone(), abs);
            out.extend(preds(else_branch, q, abs));
            if let BranchCond::Det(c) = cond {
                if !abs.ignore_conditionals {
                    out.extend(c.atoms());
                }
            }
            out
        }
        Stmt::Call { .. } | Stmt::While { .. } => {
            unreachable!("predicate mining requires a core body")
        }
    }
}

/// `Drop(Q, x)`: removes atoms that mention `x`.
fn drop_var(q: BTreeSet<Atom>, x: &str) -> BTreeSet<Atom> {
    q.into_iter()
        .filter(|a| !a.free_vars().contains(x))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acspec_ir::parse::parse_program;
    use acspec_ir::{desugar_procedure, DesugarOptions};

    fn mine(src: &str, abs: Abstraction) -> Vec<String> {
        let prog = parse_program(src).expect("parses");
        let proc = prog.procedures.last().expect("proc").clone();
        let d = desugar_procedure(&prog, &proc, DesugarOptions::default()).expect("desugars");
        let mut names: Vec<String> = mine_predicates(&d, abs)
            .iter()
            .map(|a| a.to_formula().to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn collects_assert_atoms_through_assignments() {
        let q = mine(
            "procedure f(x: int) {
               var y: int;
               y := x + 1;
               assert y != 0;
             }",
            Abstraction::concrete(),
        );
        // wp = x + 1 != 0; the atom is the equality, canonicalized with
        // operands in the derived expression order.
        assert_eq!(q, vec!["0 == x + 1"]);
    }

    #[test]
    fn havoc_drops_atoms() {
        let q = mine(
            "procedure f(x: int) {
               havoc x;
               assert x != 0;
             }",
            Abstraction::concrete(),
        );
        assert!(q.is_empty(), "got {q:?}");
    }

    #[test]
    fn conditional_guards_collected_unless_ignored() {
        let src = "procedure f(c1: int, x: int) {
            if (c1 == 1) {
              assert x != 0;
            }
          }";
        let q = mine(src, Abstraction::concrete());
        assert_eq!(q, vec!["c1 == 1", "x == 0"]);
        let q = mine(
            src,
            Abstraction {
                ignore_conditionals: true,
                havoc_returns: false,
            },
        );
        assert_eq!(q, vec!["x == 0"]);
    }

    #[test]
    fn write_elimination_yields_alias_predicates() {
        // The Figure 1 phenomenon: the predicate `c == buf` appears via
        // read-over-write rewriting.
        let q = mine(
            "global Freed: map;
             procedure f(c: int, buf: int) {
               assert Freed[c] == 0; Freed[c] := 1;
               assert Freed[buf] == 0;
             }",
            Abstraction::concrete(),
        );
        assert!(
            q.contains(&"buf == c".to_string()) || q.contains(&"c == buf".to_string()),
            "alias predicate expected: {q:?}"
        );
        assert!(q.iter().any(|p| p.contains("Freed[c]")), "got {q:?}");
        assert!(q.iter().any(|p| p.contains("Freed[buf]")), "got {q:?}");
    }

    #[test]
    fn nu_predicates_and_havoc_returns() {
        let src = "procedure calloc() returns (p: int);
            procedure f() {
              var data: int;
              call data := calloc();
              assert data != 0;
            }";
        let q = mine(src, Abstraction::concrete());
        assert_eq!(q, vec!["nu@0.calloc.p == 0"]);
        let q = mine(
            src,
            Abstraction {
                ignore_conditionals: false,
                havoc_returns: true,
            },
        );
        assert!(q.is_empty(), "havoc-returns drops ν atoms: {q:?}");
    }

    #[test]
    fn figure2_abstraction_breaks_call_correlation() {
        // §1.1.2: under Conc the vocabulary can correlate the two calls;
        // under ignore-conditionals the guard atom (from the call's
        // return) is gone.
        let src = "
            procedure calloc() returns (p: int);
            procedure static_returns_t() returns (t: int);
            procedure bar() {
              var data: int; var t: int;
              call data := calloc();
              call t := static_returns_t();
              if (t == 1) {
                assert data != 0;
              } else {
                if (data != 0) {
                  assert data != 0;
                }
              }
            }";
        let conc = mine(src, Abstraction::concrete());
        assert!(
            conc.iter().any(|p| p.contains("static_returns_t")),
            "Conc keeps the conditional correlation: {conc:?}"
        );
        let a1 = mine(
            src,
            Abstraction {
                ignore_conditionals: true,
                havoc_returns: false,
            },
        );
        assert!(
            !a1.iter().any(|p| p.contains("static_returns_t")),
            "A1 drops guard predicates: {a1:?}"
        );
        assert!(
            a1.iter().any(|p| p.contains("calloc")),
            "A1 keeps the assert-derived ν atom: {a1:?}"
        );
    }

    #[test]
    fn locals_filtered_from_vocabulary() {
        let q = mine(
            "procedure f(x: int) {
               var tmp: int;
               assert tmp != 0;
             }",
            Abstraction::concrete(),
        );
        assert!(
            q.is_empty(),
            "uninitialized-local atoms are not inputs: {q:?}"
        );
    }

    #[test]
    fn abstraction_vocabularies_are_ordered() {
        // Q(A2) ⊆ Q(A1) ⊆ Q(Conc) and Q(A2) ⊆ Q(A0) ⊆ Q(Conc) (Fig. 4).
        let src = "
            global G: map;
            procedure ext() returns (r: int);
            procedure f(x: int, y: int) {
              var r: int;
              call r := ext();
              if (x < y) {
                assert G[x] == 0;
              }
              assert r != 0;
            }";
        let conc: BTreeSet<String> = mine(src, Abstraction::concrete()).into_iter().collect();
        let a0: BTreeSet<String> = mine(
            src,
            Abstraction {
                ignore_conditionals: false,
                havoc_returns: true,
            },
        )
        .into_iter()
        .collect();
        let a1: BTreeSet<String> = mine(
            src,
            Abstraction {
                ignore_conditionals: true,
                havoc_returns: false,
            },
        )
        .into_iter()
        .collect();
        let a2: BTreeSet<String> = mine(
            src,
            Abstraction {
                ignore_conditionals: true,
                havoc_returns: true,
            },
        )
        .into_iter()
        .collect();
        assert!(a0.is_subset(&conc));
        assert!(a1.is_subset(&conc));
        assert!(a2.is_subset(&a0));
        assert!(a2.is_subset(&a1));
        assert!(a2.len() < conc.len());
    }
}
