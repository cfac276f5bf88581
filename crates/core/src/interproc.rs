//! Limited interprocedural analysis — the paper's stated extension
//! (§5.1.2, §7): *"To catch such bugs, we plan to extend our current
//! method to assert the weakest precondition of simple procedures at
//! call sites."*
//!
//! [`infer_preconditions`] walks the call graph bottom-up. For every
//! defined procedure with a trivial contract it computes the predicate
//! cover `β_Q(wp)` over the ν-free concrete vocabulary (a formula over
//! parameters and globals only) and — when that specification creates no
//! dead code (i.e. the procedure has no SIB of its own) — adopts it as
//! the procedure's `requires` clause. Re-analyzing callers then asserts
//! these inferred preconditions at call sites, so "simple but buggy"
//! callees like `void Foo(x) { *x = 1; }` surface as warnings in their
//! callers instead of false negatives.
//!
//! Each procedure's inference runs behind the same panic/error barrier
//! as a [`ProgramAnalysis`](crate::ProgramAnalysis) session: a procedure
//! whose inference faults keeps its contract and yields an incident.

use std::collections::{BTreeMap, BTreeSet};

use acspec_ir::desugar::{desugar_procedure, DesugarOptions, DesugaredProc};
use acspec_ir::expr::Formula;
use acspec_ir::program::Program;
use acspec_ir::stmt::Stmt;
use acspec_predabs::clause::clauses_to_formula;
use acspec_predabs::cover::predicate_cover_capped;
use acspec_predabs::mine::{mine_predicates, Abstraction};
use acspec_predabs::normalize::{normalize, MAX_PREDICATES};
use acspec_vcgen::analyzer::ProcAnalyzer;

use crate::config::{AcspecOptions, MAX_COVER_CLAUSES};
use crate::report::AnalysisIncident;
use crate::session::isolated;

/// Result of the inference pass.
#[derive(Debug, Clone)]
pub struct InferredContracts {
    /// The program with inferred `requires` clauses installed.
    pub program: Program,
    /// The preconditions adopted, per procedure.
    pub inferred: BTreeMap<String, Formula>,
    /// Procedures whose inference panicked or errored, bottom-up. Each
    /// kept its contract; the message names precondition inference.
    pub incidents: Vec<AnalysisIncident>,
}

pub(crate) fn callees_of(body: &Stmt, out: &mut BTreeSet<String>) {
    match body {
        Stmt::Call { callee, .. } => {
            out.insert(callee.clone());
        }
        Stmt::Seq(ss) => {
            for s in ss {
                callees_of(s, out);
            }
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            callees_of(then_branch, out);
            callees_of(else_branch, out);
        }
        Stmt::While { body, .. } => callees_of(body, out),
        _ => {}
    }
}

/// Topological order of defined procedures, callees first. Procedures on
/// call cycles keep their original contracts (the analysis is still
/// modular; recursion is out of scope, as in the paper).
fn bottom_up_order(program: &Program) -> Vec<String> {
    let defined: BTreeSet<&str> = program
        .procedures
        .iter()
        .filter(|p| p.body.is_some())
        .map(|p| p.name.as_str())
        .collect();
    let mut deps: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for p in &program.procedures {
        if let Some(body) = &p.body {
            let mut cs = BTreeSet::new();
            callees_of(body, &mut cs);
            cs.retain(|c| defined.contains(c.as_str()) && c != &p.name);
            deps.insert(&p.name, cs);
        }
    }
    let mut order = Vec::new();
    let mut placed: BTreeSet<String> = BTreeSet::new();
    // Kahn-style; nodes stuck on cycles are simply never placed.
    loop {
        let ready: Vec<String> = deps
            .iter()
            .filter(|(n, cs)| !placed.contains(**n) && cs.iter().all(|c| placed.contains(c)))
            .map(|(n, _)| (*n).to_string())
            .collect();
        if ready.is_empty() {
            break;
        }
        for n in ready {
            placed.insert(n.clone());
            order.push(n);
        }
    }
    order
}

/// Runs the inference pass.
///
/// Only procedures whose current `requires` is `true` are touched, and a
/// precondition is adopted only when it is expressible over parameters
/// and globals (ν-free) and creates no dead code in the callee. The
/// returned program can then be analyzed with
/// [`crate::analyze_procedure`] as usual; inferred preconditions surface
/// as `pre:<callee>@<site>` warnings in callers. Procedures that exceed
/// the analysis budget simply keep their trivial contracts; those that
/// fail to desugar or encode, or panic, keep them too and yield an
/// incident.
pub fn infer_preconditions(program: &Program, opts: &AcspecOptions) -> InferredContracts {
    let mut out = program.clone();
    let mut inferred = BTreeMap::new();
    let mut incidents = Vec::new();
    for name in bottom_up_order(program) {
        let proc = out.procedure(&name).expect("ordered over out");
        if proc.contract.requires != Formula::True {
            continue; // respect user-provided contracts
        }
        let spec = isolated(&name, || {
            let d = desugar_procedure(&out, proc, DesugarOptions::default())?;
            let mut az = ProcAnalyzer::new(&d, opts.analyzer)?;
            Ok(adoptable_precondition(&d, &mut az))
        });
        match spec {
            Ok(Some(spec)) => {
                let target = out
                    .procedures
                    .iter_mut()
                    .find(|p| p.name == name)
                    .expect("exists");
                target.contract.requires = spec.clone();
                inferred.insert(name, spec);
            }
            Ok(None) => {}
            Err(mut incident) => {
                incident.message = format!("precondition inference: {}", incident.message);
                incidents.push(incident);
            }
        }
    }
    InferredContracts {
        program: out,
        inferred,
        incidents,
    }
}

/// The procedure's `β_Q(wp)` over its ν-free concrete vocabulary, when
/// it is non-trivial, consistent and kills no code; `None` otherwise,
/// including when a query exceeds the budget.
fn adoptable_precondition(d: &DesugaredProc, az: &mut ProcAnalyzer) -> Option<Formula> {
    // ν-free concrete vocabulary: the precondition must be a formula
    // over the caller-visible state (parameters and globals).
    let q: Vec<_> = mine_predicates(d, Abstraction::concrete())
        .into_iter()
        .filter(|a| a.nu_consts().is_empty())
        .collect();
    if q.is_empty() || q.len() > MAX_PREDICATES {
        return None;
    }
    let baseline_dead = az.dead_set(&[]).ok()?;
    let cover = predicate_cover_capped(az, &q, MAX_COVER_CLAUSES).ok()?;
    if cover.clauses.is_empty() {
        return None; // already correct under `true`
    }
    // Adopt only specs that kill no code (no SIB): otherwise the
    // callee's own warning machinery is the right reporter.
    let sels = cover.install_selectors(az);
    if !az.is_consistent(&sels, &[]).ok()? {
        return None;
    }
    let dead = az.dead_set(&sels).ok()?;
    if dead.difference(&baseline_dead).next().is_some() {
        return None;
    }
    let simplified = normalize(&cover.clauses);
    Some(clauses_to_formula(&simplified, &cover.preds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_procedure, ConfigName, IncidentKind, SibStatus};
    use acspec_ir::parse::parse_program;

    #[test]
    fn simple_callee_gets_its_wp_as_precondition() {
        let prog = parse_program(
            "procedure callee(x: int) {
               assert x != 0;
             }
             procedure caller_bad() {
               call callee(0);
             }
             procedure caller_good() {
               call callee(7);
             }",
        )
        .expect("parses");
        let opts = AcspecOptions::for_config(ConfigName::Conc);
        let inferred = infer_preconditions(&prog, &opts);
        assert_eq!(
            inferred.inferred.get("callee").map(ToString::to_string),
            Some("x != 0".to_string())
        );
        // The bad caller now fails the inferred precondition.
        let bad = inferred.program.procedure("caller_bad").expect("x").clone();
        let r = analyze_procedure(&inferred.program, &bad, &opts).expect("ok");
        assert_eq!(r.warnings.len(), 1, "got {:?}", r.warnings);
        assert!(r.warnings[0].tag.contains("pre:callee"));
        // The good caller stays clean.
        let good = inferred
            .program
            .procedure("caller_good")
            .expect("x")
            .clone();
        let r = analyze_procedure(&inferred.program, &good, &opts).expect("ok");
        assert!(r.warnings.is_empty(), "got {:?}", r.warnings);
    }

    #[test]
    fn sib_callees_keep_trivial_contracts() {
        // The callee's wp kills code (its own SIB); its warning should be
        // reported in the callee, not exported as a precondition.
        let prog = parse_program(
            "procedure callee(x: int) {
               if (x == 0) { assert x != 0; }
             }
             procedure caller() {
               call callee(0);
             }",
        )
        .expect("parses");
        let opts = AcspecOptions::for_config(ConfigName::Conc);
        let inferred = infer_preconditions(&prog, &opts);
        assert!(
            !inferred.inferred.contains_key("callee"),
            "SIB callee must not export: {:?}",
            inferred.inferred
        );
        let callee = inferred.program.procedure("callee").expect("x").clone();
        let r = analyze_procedure(&inferred.program, &callee, &opts).expect("ok");
        assert_eq!(r.status, SibStatus::Sib);
    }

    #[test]
    fn user_contracts_are_respected() {
        let prog = parse_program(
            "procedure callee(x: int)
               requires x > 5;
             {
               assert x != 0;
             }
             procedure caller() {
               call callee(9);
             }",
        )
        .expect("parses");
        let opts = AcspecOptions::for_config(ConfigName::Conc);
        let inferred = infer_preconditions(&prog, &opts);
        assert!(!inferred.inferred.contains_key("callee"));
        let callee = inferred.program.procedure("callee").expect("x");
        assert_eq!(callee.contract.requires.to_string(), "x > 5");
    }

    #[test]
    fn chains_propagate_bottom_up() {
        // leaf needs p != 0; mid forwards its own parameter; top passes 0.
        let prog = parse_program(
            "procedure leaf(p: int) {
               assert p != 0;
             }
             procedure mid(q: int) {
               call leaf(q);
             }
             procedure top() {
               call mid(0);
             }",
        )
        .expect("parses");
        let opts = AcspecOptions::for_config(ConfigName::Conc);
        let inferred = infer_preconditions(&prog, &opts);
        assert!(inferred.inferred.contains_key("leaf"));
        assert!(
            inferred.inferred.contains_key("mid"),
            "mid inherits the obligation: {:?}",
            inferred.inferred
        );
        let top = inferred.program.procedure("top").expect("x").clone();
        let r = analyze_procedure(&inferred.program, &top, &opts).expect("ok");
        assert_eq!(r.warnings.len(), 1, "got {:?}", r.warnings);
    }

    /// Encoding `wrapped`'s constant overflows: its inference panics,
    /// so it keeps `requires true` and yields one incident, and its
    /// caller is still inferred.
    #[test]
    fn a_faulting_callee_keeps_its_contract() {
        let prog = parse_program(
            "procedure wrapped(x: int) {
               assert x != 0 - 9223372036854775807 - 1;
             }
             procedure caller(p: int) {
               call wrapped(p);
               assert p != 0;
             }",
        )
        .expect("parses");
        let opts = AcspecOptions::for_config(ConfigName::Conc);
        let inferred = infer_preconditions(&prog, &opts);
        let [incident] = inferred.incidents.as_slice() else {
            panic!("one incident expected: {:?}", inferred.incidents);
        };
        assert_eq!(incident.proc_name, "wrapped");
        assert_eq!(incident.kind, IncidentKind::Panic);
        assert!(
            incident.message.starts_with("precondition inference: ")
                && incident.message.contains("overflow"),
            "{incident}"
        );
        let wrapped = inferred.program.procedure("wrapped").expect("x");
        assert_eq!(wrapped.contract.requires, Formula::True);
        assert_eq!(
            inferred.inferred.get("caller").map(ToString::to_string),
            Some("p != 0".to_string())
        );
    }

    #[test]
    fn recursion_is_left_alone() {
        let prog = parse_program(
            "procedure even(n: int) {
               assert n >= 0;
               call odd(n - 1);
             }
             procedure odd(n: int) {
               call even(n - 1);
             }",
        )
        .expect("parses");
        let opts = AcspecOptions::for_config(ConfigName::Conc);
        let inferred = infer_preconditions(&prog, &opts);
        assert!(inferred.inferred.is_empty(), "{:?}", inferred.inferred);
    }
}
