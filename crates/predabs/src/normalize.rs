//! Boolean clause simplification (`Normalize`, §4.3) and clause pruning
//! (`PruneClauses`, §4.3).

use std::collections::BTreeSet;

use crate::clause::{QClause, QLit};

/// The most predicates a truth table ranges over. The Mine stage caps
/// `|Q|` at this (ALL-SAT is `2^|Q|`), so every clause set the pipeline
/// normalizes fits.
pub const MAX_PREDICATES: usize = 12;

/// Applies the three rules of §4.3 to a fix-point:
///
/// 1. **Resolution**: from `(c ∨ l)` and `(d ∨ ¬l)` add `(c ∨ d)`;
/// 2. **Subsumption**: if `c` and `(c ∨ l)` are present, remove `(c ∨ l)`;
/// 3. **Tautologies**: remove `(c ∨ l ∨ ¬l)`.
///
/// That fix-point is the set of prime implicates of `⋀clauses`, so this
/// reads them off the clauses' truth table ([`prime_implicates`]). The
/// result is sorted.
///
/// # Panics
///
/// Panics if a clause mentions a predicate index of
/// [`MAX_PREDICATES`] or more.
pub fn normalize(clauses: &[QClause]) -> Vec<QClause> {
    let n = clauses
        .iter()
        .flat_map(QClause::lits)
        .map(|l| l.pred + 1)
        .max()
        .unwrap_or(0);
    assert!(
        n <= MAX_PREDICATES,
        "normalize: predicate {} is beyond the truth-table bound {MAX_PREDICATES}",
        n - 1
    );
    // Each clause as its (positive, negative) literal masks.
    let masks: Vec<(usize, usize)> = clauses
        .iter()
        .map(|c| {
            c.lits().iter().fold((0, 0), |(pos, neg), l| {
                if l.positive {
                    (pos | 1 << l.pred, neg)
                } else {
                    (pos, neg | 1 << l.pred)
                }
            })
        })
        .collect();
    let table: Vec<bool> = (0..1usize << n)
        .map(|row| {
            masks
                .iter()
                .all(|&(pos, neg)| row & pos != 0 || !row & neg != 0)
        })
        .collect();
    prime_implicates(&table)
}

/// The prime implicates of the Boolean function with truth table
/// `table` over `n` predicates, sorted. `table.len()` is `2^n`, and row
/// `r` gives predicate `i` the value of bit `i` of `r`.
///
/// A prime implicate is an implied clause no proper sub-clause of which
/// is implied. Its negation is a prime implicant of the negated
/// function, which Quine–McCluskey finds from the falsifying rows: two
/// falsifying cubes that differ in one predicate merge into the cube
/// without it, and a cube that merges with no neighbour is prime. Cubes
/// are coded in base 3 (digit `i`: 0 = predicate `i` false, 1 = true,
/// 2 = absent), so every merge is two lookups into one dense table.
///
/// # Panics
///
/// Panics if `table.len()` is not a power of two, or the table ranges
/// over more than [`MAX_PREDICATES`] predicates.
pub fn prime_implicates(table: &[bool]) -> Vec<QClause> {
    let n = table.len().trailing_zeros() as usize;
    assert!(
        table.len() == 1 << n && n <= MAX_PREDICATES,
        "a truth table over at most {MAX_PREDICATES} predicates"
    );
    let pow3: Vec<usize> = (0..=n as u32).map(|i| 3usize.pow(i)).collect();
    // falsified[t]: every row of cube t falsifies the function. A cube
    // whose lowest absent predicate is `i` merges its two children on
    // `i`, and both have smaller codes.
    let mut falsified = vec![false; pow3[n]];
    let mut digits = vec![0u8; n];
    for t in 0..pow3[n] {
        falsified[t] = match digits.iter().position(|&d| d == 2) {
            Some(i) => falsified[t - 2 * pow3[i]] && falsified[t - pow3[i]],
            None => !table[digits.iter().rev().fold(0, |r, &d| r << 1 | usize::from(d))],
        };
        next_ternary(&mut digits);
    }
    // A falsified cube is prime when dropping any present predicate
    // leaves a cube that is not. (`digits` has wrapped back to zero.)
    let mut out = Vec::new();
    for (t, &f) in falsified.iter().enumerate() {
        if f && digits
            .iter()
            .enumerate()
            .all(|(i, &d)| d == 2 || !falsified[t + usize::from(2 - d) * pow3[i]])
        {
            out.push(
                digits
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d)| d != 2)
                    .map(|(pred, &d)| QLit {
                        pred,
                        positive: d == 0,
                    })
                    .collect::<QClause>(),
            );
        }
        next_ternary(&mut digits);
    }
    out.sort();
    out
}

/// Advances a little-endian base-3 counter, wrapping to all zeros.
fn next_ternary(digits: &mut [u8]) {
    for d in digits {
        if *d < 2 {
            *d += 1;
            return;
        }
        *d = 0;
    }
}

/// A syntactic quality measure for clauses (§4.3). Pruning *weakens* the
/// specification and can reveal more warnings — it is not merely
/// cosmetic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PruneConfig {
    /// `k`-clause pruning: drop clauses with more than `k` literals
    /// (`None` = keep all, the paper's `k = ∞` column).
    pub max_literals: Option<usize>,
    /// Drop clauses correlating the returns of two or more distinct call
    /// sites (§4.3's alternative measure).
    pub no_cross_call_correlations: bool,
}

/// Applies `PruneClauses` under the given quality measure. The
/// `cross_call` predicate reports, for a predicate index, the set of call
/// sites whose ν-constants it mentions.
pub fn prune_clauses(
    clauses: &[QClause],
    config: PruneConfig,
    call_sites_of_pred: &dyn Fn(usize) -> Vec<u32>,
) -> Vec<QClause> {
    clauses
        .iter()
        .filter(|c| {
            if let Some(k) = config.max_literals {
                if c.len() > k {
                    return false;
                }
            }
            if config.no_cross_call_correlations {
                let mut sites = BTreeSet::new();
                for l in c.lits() {
                    sites.extend(call_sites_of_pred(l.pred));
                }
                if sites.len() >= 2 {
                    return false;
                }
            }
            true
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::QLit;

    fn lit(p: usize, pos: bool) -> QLit {
        QLit {
            pred: p,
            positive: pos,
        }
    }

    fn cl(lits: &[(usize, bool)]) -> QClause {
        lits.iter().map(|&(p, s)| lit(p, s)).collect()
    }

    #[test]
    fn paper_example_maximal_clauses_simplify() {
        // (a ∨ b) ∧ (a ∨ ¬b) normalizes to (a) (§4.3's example).
        let input = vec![cl(&[(0, true), (1, true)]), cl(&[(0, true), (1, false)])];
        let out = normalize(&input);
        assert_eq!(out, vec![cl(&[(0, true)])]);
    }

    #[test]
    fn tautologies_removed() {
        let input = vec![cl(&[(0, true), (0, false)]), cl(&[(1, true)])];
        let out = normalize(&input);
        assert_eq!(out, vec![cl(&[(1, true)])]);
    }

    #[test]
    fn subsumption_removes_supersets() {
        let input = vec![cl(&[(0, true)]), cl(&[(0, true), (1, true)])];
        let out = normalize(&input);
        assert_eq!(out, vec![cl(&[(0, true)])]);
    }

    #[test]
    fn full_maximal_cover_collapses() {
        // All four maximal clauses over {a, b} minus one: e.g.
        // (a∨b) ∧ (a∨¬b) ∧ (¬a∨b) ⇔ a ∧ b.
        let input = vec![
            cl(&[(0, true), (1, true)]),
            cl(&[(0, true), (1, false)]),
            cl(&[(0, false), (1, true)]),
        ];
        let out = normalize(&input);
        assert_eq!(out, vec![cl(&[(0, true)]), cl(&[(1, true)])]);
    }

    /// Truth-table equivalence oracle over ≤ 4 predicates.
    fn models(clauses: &[QClause], n: usize) -> Vec<bool> {
        (0..(1usize << n))
            .map(|m| {
                clauses.iter().all(|c| {
                    c.lits()
                        .iter()
                        .any(|l| ((m >> l.pred) & 1 == 1) == l.positive)
                })
            })
            .collect()
    }

    #[test]
    fn normalize_preserves_semantics_on_random_sets() {
        let mut seed = 0x77aa55ee11u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..100 {
            let n = 3;
            let n_clauses = 1 + (rng() % 5) as usize;
            let mut clauses = Vec::new();
            for _ in 0..n_clauses {
                let mut lits = Vec::new();
                for p in 0..n {
                    match rng() % 3 {
                        0 => lits.push(lit(p, true)),
                        1 => lits.push(lit(p, false)),
                        _ => {}
                    }
                }
                if lits.is_empty() {
                    lits.push(lit(0, true));
                }
                clauses.push(QClause::new(lits));
            }
            let out = normalize(&clauses);
            assert_eq!(
                models(&clauses, n),
                models(&out, n),
                "normalize changed semantics: {clauses:?} → {out:?}"
            );
        }
    }

    #[test]
    fn k_literal_pruning() {
        let input = vec![
            cl(&[(0, true)]),
            cl(&[(0, true), (1, true)]),
            cl(&[(0, true), (1, true), (2, true)]),
        ];
        let out = prune_clauses(
            &input,
            PruneConfig {
                max_literals: Some(2),
                no_cross_call_correlations: false,
            },
            &|_| vec![],
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn cross_call_pruning() {
        // pred 0 mentions site 0, pred 1 mentions site 1, pred 2 no site.
        let sites = |p: usize| -> Vec<u32> {
            match p {
                0 => vec![0],
                1 => vec![1],
                _ => vec![],
            }
        };
        let input = vec![
            cl(&[(0, true), (1, true)]), // correlates two calls → pruned
            cl(&[(0, true), (2, true)]), // one call → kept
            cl(&[(2, true)]),            // no calls → kept
        ];
        let out = prune_clauses(
            &input,
            PruneConfig {
                max_literals: None,
                no_cross_call_correlations: true,
            },
            &sites,
        );
        assert_eq!(out.len(), 2);
    }
}
