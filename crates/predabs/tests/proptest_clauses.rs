//! Property-based tests (proptest) for clause normalization and pruning,
//! with the resolution fix-point of §4.3 as a test-only oracle for
//! [`normalize`]'s truth-table prime implicates.

use std::collections::BTreeSet;

use proptest::prelude::*;

use acspec_predabs::clause::{QClause, QLit};
use acspec_predabs::normalize::{normalize, prime_implicates, prune_clauses, PruneConfig};
use acspec_smt::{Ctx, SmtResult, Solver, TermId};

const NPREDS: usize = 4;

prop_compose! {
    fn clause()(lits in prop::collection::vec((0usize..NPREDS, any::<bool>()), 1..5))
        -> QClause
    {
        lits.into_iter()
            .map(|(p, pos)| QLit { pred: p, positive: pos })
            .collect()
    }
}

prop_compose! {
    fn clause_set()(cs in prop::collection::vec(clause(), 0..8)) -> Vec<QClause> {
        cs
    }
}

/// Truth table of a clause set over `NPREDS` predicates.
fn models(clauses: &[QClause]) -> Vec<bool> {
    (0..(1usize << NPREDS))
        .map(|m| {
            clauses.iter().all(|c| {
                c.lits()
                    .iter()
                    .any(|l| ((m >> l.pred) & 1 == 1) == l.positive)
            })
        })
        .collect()
}

/// Width of the full-width complement sets: one clause per non-model
/// row of a truth table, each mentioning every predicate.
const COMPLEMENT_PREDS: usize = 5;

prop_compose! {
    fn complement_set()(rows in prop::collection::vec(any::<bool>(), 1 << COMPLEMENT_PREDS))
        -> Vec<QClause>
    {
        rows.iter()
            .enumerate()
            .filter(|&(_, &model)| !model)
            .map(|(row, _)| {
                (0..COMPLEMENT_PREDS)
                    .map(|pred| QLit { pred, positive: row >> pred & 1 == 0 })
                    .collect()
            })
            .collect()
    }
}

/// Resolves `a` (holding `pivot` positively) with `b` (holding it
/// negatively): classical binary resolution, keeping any other
/// occurrence of the pivot.
fn resolve(a: &QClause, b: &QClause, pivot: usize) -> Option<QClause> {
    let pos = QLit {
        pred: pivot,
        positive: true,
    };
    let neg = pos.negated();
    if !a.lits().contains(&pos) || !b.lits().contains(&neg) {
        return None;
    }
    Some(
        a.lits()
            .iter()
            .filter(|&&l| l != pos)
            .chain(b.lits().iter().filter(|&&l| l != neg))
            .copied()
            .collect(),
    )
}

/// The oracle: §4.3's rules applied literally, by resolution,
/// subsumption and tautology removal until nothing changes.
fn resolution_fixpoint(clauses: &[QClause]) -> Vec<QClause> {
    let mut set: BTreeSet<QClause> = clauses
        .iter()
        .filter(|c| !c.is_tautology())
        .cloned()
        .collect();
    loop {
        let list: Vec<QClause> = set
            .iter()
            .filter(|c| !set.iter().any(|d| d != *c && d.subsumes(c)))
            .cloned()
            .collect();
        set = list.iter().cloned().collect();
        let mut added = false;
        for a in &list {
            for b in &list {
                for l in a.lits().iter().filter(|l| l.positive) {
                    if let Some(r) = resolve(a, b, l.pred) {
                        if !r.is_tautology() && !set.iter().any(|c| c.subsumes(&r)) {
                            set.insert(r);
                            added = true;
                        }
                    }
                }
            }
        }
        if !added {
            return list;
        }
    }
}

/// Translates a clause set into a term over `vars` (one bool var per
/// predicate index).
fn clauses_to_term(ctx: &mut Ctx, vars: &[TermId], clauses: &[QClause]) -> TermId {
    let parts: Vec<TermId> = clauses
        .iter()
        .map(|c| {
            let lits: Vec<TermId> = c
                .lits()
                .iter()
                .map(|l| {
                    let v = vars[l.pred];
                    if l.positive {
                        v
                    } else {
                        ctx.mk_not(v)
                    }
                })
                .collect();
            ctx.mk_or(lits)
        })
        .collect();
    ctx.mk_and(parts)
}

/// Solver-checked equivalence oracle: `⋀in ⇔ ⋀out` is valid iff its
/// negation is Unsat. Independent of the truth-table oracle `models`.
fn solver_equivalent(a: &[QClause], b: &[QClause]) -> bool {
    let mut ctx = Ctx::new();
    let vars: Vec<TermId> = (0..NPREDS)
        .map(|i| ctx.mk_bool_var(format!("p{i}")))
        .collect();
    let ta = clauses_to_term(&mut ctx, &vars, a);
    let tb = clauses_to_term(&mut ctx, &vars, b);
    let iff = ctx.mk_iff(ta, tb);
    let neg = ctx.mk_not(iff);
    let mut solver = Solver::new();
    solver.assert_term(&mut ctx, neg);
    solver.check(&mut ctx, &[]) == SmtResult::Unsat
}

proptest! {
    #[test]
    fn normalize_is_a_syntactic_fixpoint(cs in clause_set()) {
        // With a generous cap the result is fully normalized: running
        // normalize again changes nothing, not even the order.
        let once = normalize(&cs);
        let twice = normalize(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn normalize_is_solver_equivalent(cs in clause_set()) {
        let out = normalize(&cs);
        prop_assert!(
            solver_equivalent(&cs, &out),
            "solver refutes in ⇔ out: in={:?} out={:?}", cs, out
        );
    }

    #[test]
    fn normalize_equals_the_resolution_fixpoint(cs in clause_set()) {
        prop_assert_eq!(normalize(&cs), resolution_fixpoint(&cs), "in={:?}", cs);
    }

    #[test]
    fn normalize_equals_the_resolution_fixpoint_on_complement_sets(cs in complement_set()) {
        prop_assert_eq!(normalize(&cs), resolution_fixpoint(&cs), "in={:?}", cs);
    }

    #[test]
    fn normalize_preserves_semantics(cs in clause_set()) {
        let out = normalize(&cs);
        prop_assert_eq!(models(&cs), models(&out), "in={:?} out={:?}", cs, out);
    }

    #[test]
    fn normalize_is_idempotent_semantically(cs in clause_set()) {
        let once = normalize(&cs);
        let twice = normalize(&once);
        prop_assert_eq!(models(&once), models(&twice));
    }

    #[test]
    fn normalize_removes_tautologies_and_subsumed(cs in clause_set()) {
        let out = normalize(&cs);
        for c in &out {
            prop_assert!(!c.is_tautology());
        }
        for (i, c) in out.iter().enumerate() {
            for (j, d) in out.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !(c.subsumes(d) && c != d),
                        "{:?} subsumes {:?}",
                        c,
                        d
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_weakens(cs in clause_set(), k in 1usize..4) {
        let pruned = prune_clauses(
            &cs,
            PruneConfig { max_literals: Some(k), no_cross_call_correlations: false },
            &|_| vec![],
        );
        // Every model of the original is a model of the pruned set
        // (dropping clauses only weakens, §4.3).
        let before = models(&cs);
        let after = models(&pruned);
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(!b || *a, "pruning must weaken");
        }
        for c in &pruned {
            prop_assert!(c.len() <= k);
        }
    }

    #[test]
    fn resolution_is_sound(c1 in clause(), c2 in clause(), pivot in 0usize..NPREDS) {
        if let Some(r) = resolve(&c1, &c2, pivot) {
            // Every model of {c1, c2} satisfies the resolvent.
            for m in 0..(1usize << NPREDS) {
                let sat = |c: &QClause| {
                    c.lits().iter().any(|l| ((m >> l.pred) & 1 == 1) == l.positive)
                };
                if sat(&c1) && sat(&c2) {
                    prop_assert!(sat(&r), "resolvent {:?} violated at {:#b}", r, m);
                }
            }
        }
    }
}

/// Rows (as a bit set over the `2^NPREDS` rows) where clause `c` holds.
fn rows_satisfying(c: &QClause) -> u32 {
    (0..1u32 << NPREDS)
        .filter(|&m| {
            c.lits()
                .iter()
                .any(|l| (m >> l.pred & 1 == 1) == l.positive)
        })
        .fold(0, |acc, m| acc | 1 << m)
}

/// Exhaustive over every function of 4 predicates: the output clauses
/// are implied, none has an implied proper sub-clause, and every prime
/// implicate appears. `normalize` of the function's complement set
/// returns the same clauses.
#[test]
fn prime_implicates_are_exact_over_four_predicates() {
    // Every non-tautological clause over NPREDS predicates: each
    // predicate is absent, positive or negative.
    let all_clauses: Vec<QClause> = (0..3usize.pow(NPREDS as u32))
        .map(|code| {
            (0..NPREDS)
                .filter_map(|pred| match code / 3usize.pow(pred as u32) % 3 {
                    0 => None,
                    d => Some(QLit {
                        pred,
                        positive: d == 1,
                    }),
                })
                .collect()
        })
        .collect();
    let implied = |models: u32, c: &QClause| models & !rows_satisfying(c) == 0;
    // Implication is monotone in the clause, so a clause has an implied
    // proper sub-clause iff dropping one literal leaves one.
    let has_implied_sub_clause = |models: u32, c: &QClause| {
        c.lits().iter().any(|&drop| {
            let sub: QClause = c.lits().iter().copied().filter(|&l| l != drop).collect();
            implied(models, &sub)
        })
    };
    for models in 0..=u16::MAX {
        let models = u32::from(models);
        let table: Vec<bool> = (0..1 << NPREDS).map(|m| models >> m & 1 == 1).collect();
        let out = prime_implicates(&table);
        for c in &out {
            assert!(implied(models, c), "{c:?} not implied by {models:#06x}");
            assert!(
                !has_implied_sub_clause(models, c),
                "{c:?} not prime for {models:#06x}"
            );
        }
        let primes: Vec<QClause> = all_clauses
            .iter()
            .filter(|c| implied(models, c) && !has_implied_sub_clause(models, c))
            .cloned()
            .collect();
        for p in &primes {
            assert!(
                out.contains(p),
                "prime implicate {p:?} missing for {models:#06x}"
            );
        }
        assert_eq!(out.len(), primes.len());
        let complement: Vec<QClause> = table
            .iter()
            .enumerate()
            .filter(|&(_, &model)| !model)
            .map(|(row, _)| {
                (0..NPREDS)
                    .map(|pred| QLit {
                        pred,
                        positive: row >> pred & 1 == 0,
                    })
                    .collect()
            })
            .collect();
        assert_eq!(normalize(&complement), out, "{models:#06x}");
    }
}

/// Ten predicates, and true unless exactly 4 or 5 of them hold. The 462
/// falsifying rows' complement clauses normalize to 10 · C(9, 4) = 1,260
/// prime implicates: for each left-out predicate and each choice of 4
/// others, the clause "one of those 4 is false or one of the other 5 is
/// true". That is more than the 1,024-clause cap the resolution loop
/// once stopped at.
#[test]
fn ten_predicates_normalize_to_all_1260_prime_implicates() {
    const N: usize = 10;
    let falsifying = |row: usize| matches!(row.count_ones(), 4 | 5);
    let complement: Vec<QClause> = (0..1usize << N)
        .filter(|&row| falsifying(row))
        .map(|row| {
            (0..N)
                .map(|pred| QLit {
                    pred,
                    positive: row >> pred & 1 == 0,
                })
                .collect()
        })
        .collect();
    assert_eq!(complement.len(), 462);
    let out = normalize(&complement);
    assert_eq!(out.len(), 1_260);
    for c in &out {
        assert_eq!(c.len(), 9, "{c:?}");
        assert_eq!(c.lits().iter().filter(|l| !l.positive).count(), 4, "{c:?}");
    }
    assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
}
