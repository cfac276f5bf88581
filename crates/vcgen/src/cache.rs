//! Monotone dominance cache for assumption-set queries (PR 3).
//!
//! Every query the analyzer issues is the satisfiability of the fixed
//! encoding under a *set* of assumption literals (selectors plus a goal
//! guard). Satisfiability is antitone in that set:
//!
//! * if `A` is satisfiable, so is every `A' ⊆ A` (drop assumptions);
//! * if `A` is unsatisfiable, so is every `A'' ⊇ A` (add assumptions).
//!
//! This is exactly the paper's §2.3 monotonicity property seen from the
//! solver's side — weakening the input-state set (fewer selector
//! conjuncts) only shrinks `Dead` and grows `Fail` — generalized so one
//! store serves `is_reachable`, `can_fail`, `any_failure`, and
//! `is_consistent` uniformly: a satisfiable reachability query under
//! selectors `S` also proves `S` consistent, and an unsatisfiable
//! `can_fail` under the demonic environment (`S = ∅`) refutes that
//! assertion's failure under *every* specification.
//!
//! The store keeps two antichains over canonically sorted keys:
//!
//! * `sat` — maximal known-satisfiable sets; a query hits if it is a
//!   subset of some entry;
//! * `unsat` — minimal known-unsatisfiable sets; a query hits if it is
//!   a superset of some entry.
//!
//! Soundness depends on the solved formula only ever *strengthening*
//! monotonically: asserting a fresh-literal definition (`s → f`,
//! `b ⇔ f`) preserves every cached answer, because a model extends by
//! choosing the fresh literal's value and an unsatisfiable core stays
//! unsatisfiable. Asserting an arbitrary clause (ALL-SAT blocking)
//! can kill models, so [`QueryCache::invalidate_sat`] drops the `sat`
//! antichain while keeping `unsat` (clauses only strengthen).

use acspec_smt::TermId;

/// Monotone hit/miss counters for one [`QueryCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered `Sat` by subset dominance.
    pub hits_sat: u64,
    /// Queries answered `Unsat` by superset dominance.
    pub hits_unsat: u64,
    /// Queries that fell through to the solver.
    pub misses: u64,
    /// Times the `sat` antichain was dropped (ALL-SAT blocking clauses).
    pub invalidations: u64,
}

impl CacheStats {
    /// Total dominance hits.
    pub fn hits(&self) -> u64 {
        self.hits_sat + self.hits_unsat
    }

    /// The counter deltas accumulated since `earlier` (all counters are
    /// monotone).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits_sat: self.hits_sat - earlier.hits_sat,
            hits_unsat: self.hits_unsat - earlier.hits_unsat,
            misses: self.misses - earlier.misses,
            invalidations: self.invalidations - earlier.invalidations,
        }
    }
}

/// Is sorted, deduped `a` a subset of sorted, deduped `b`?
fn is_subset(a: &[TermId], b: &[TermId]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut bi = b.iter();
    'outer: for x in a {
        for y in bi.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// An owned export of a cache's antichains. Entries are canonical
/// sorted keys of raw [`TermId`]s; they are only meaningful against the
/// *identical* encoding that produced them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Maximal known-satisfiable assumption sets.
    pub sat: Vec<Vec<TermId>>,
    /// Minimal known-unsatisfiable assumption sets.
    pub unsat: Vec<Vec<TermId>>,
}

/// The subset-keyed dominance store (see the module docs for the
/// soundness argument).
#[derive(Debug, Default)]
pub struct QueryCache {
    /// Maximal known-satisfiable assumption sets (each sorted).
    sat: Vec<Vec<TermId>>,
    /// Minimal known-unsatisfiable assumption sets (each sorted).
    unsat: Vec<Vec<TermId>>,
    stats: CacheStats,
}

impl QueryCache {
    /// An empty cache.
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    /// The canonical (sorted, deduped) key for an assumption slice.
    pub fn canonical(assumptions: &[TermId]) -> Vec<TermId> {
        let mut key = assumptions.to_vec();
        key.sort_unstable();
        key.dedup();
        key
    }

    /// Answers `key` by dominance, or records a miss. `key` must be
    /// canonical (see [`QueryCache::canonical`]).
    pub fn lookup(&mut self, key: &[TermId]) -> Option<bool> {
        if self.sat.iter().any(|s| is_subset(key, s)) {
            self.stats.hits_sat += 1;
            return Some(true);
        }
        if self.unsat.iter().any(|u| is_subset(u, key)) {
            self.stats.hits_unsat += 1;
            return Some(false);
        }
        self.stats.misses += 1;
        None
    }

    /// Answers `key` only if it is dominated by a known-unsatisfiable
    /// entry. Unlike [`QueryCache::lookup`] this never counts a miss —
    /// it serves callers (witness extraction) that need a model and so
    /// cannot use a cached `Sat`.
    pub fn refuted(&mut self, key: &[TermId]) -> bool {
        if self.unsat.iter().any(|u| is_subset(u, key)) {
            self.stats.hits_unsat += 1;
            return true;
        }
        false
    }

    /// Records a solver verdict for a canonical key, keeping the
    /// antichain property (dominated entries are dropped; dominated
    /// inserts are no-ops).
    pub fn insert(&mut self, key: Vec<TermId>, sat: bool) {
        if sat {
            if self.sat.iter().any(|s| is_subset(&key, s)) {
                return;
            }
            self.sat.retain(|s| !is_subset(s, &key));
            self.sat.push(key);
        } else {
            if self.unsat.iter().any(|u| is_subset(u, &key)) {
                return;
            }
            self.unsat.retain(|u| !is_subset(&key, u));
            self.unsat.push(key);
        }
    }

    /// Drops every known-satisfiable set. Call after asserting a clause
    /// that is not a fresh-literal definition (ALL-SAT blocking): the
    /// formula strengthened, so `Unsat` entries survive but models may
    /// not.
    pub fn invalidate_sat(&mut self) {
        if !self.sat.is_empty() {
            self.stats.invalidations += 1;
            self.sat.clear();
        }
    }

    /// Exports the antichains. The stats are not part of the snapshot.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            sat: self.sat.clone(),
            unsat: self.unsat.clone(),
        }
    }

    /// The hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of stored entries (diagnostics).
    pub fn len(&self) -> usize {
        self.sat.len() + self.unsat.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.sat.is_empty() && self.unsat.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(ids: &[u32]) -> Vec<TermId> {
        QueryCache::canonical(&ids.iter().map(|&i| TermId(i)).collect::<Vec<_>>())
    }

    #[test]
    fn sat_answers_subsets_and_unsat_answers_supersets() {
        let mut c = QueryCache::new();
        c.insert(k(&[1, 2, 3]), true);
        c.insert(k(&[7, 8]), false);
        assert_eq!(c.lookup(&k(&[2])), Some(true));
        assert_eq!(c.lookup(&k(&[1, 3])), Some(true));
        assert_eq!(c.lookup(&k(&[7, 8, 9])), Some(false));
        // Neither direction dominates: miss.
        assert_eq!(c.lookup(&k(&[1, 2, 3, 4])), None);
        assert_eq!(c.lookup(&k(&[7])), None);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits_sat: 2,
                hits_unsat: 1,
                misses: 2,
                invalidations: 0
            }
        );
    }

    #[test]
    fn antichains_keep_only_extremal_entries() {
        let mut c = QueryCache::new();
        c.insert(k(&[1, 2]), true);
        c.insert(k(&[1, 2, 3]), true); // subsumes the first
        c.insert(k(&[1]), true); // dominated: no-op
        assert_eq!(c.len(), 1);
        c.insert(k(&[5, 6]), false);
        c.insert(k(&[5]), false); // subsumes the first
        c.insert(k(&[5, 6, 7]), false); // dominated: no-op
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&k(&[3])), Some(true));
        assert_eq!(c.lookup(&k(&[5, 9])), Some(false));
    }

    #[test]
    fn invalidation_drops_sat_but_keeps_unsat() {
        let mut c = QueryCache::new();
        c.insert(k(&[1]), true);
        c.insert(k(&[2]), false);
        c.invalidate_sat();
        assert_eq!(c.lookup(&k(&[1])), None);
        assert_eq!(c.lookup(&k(&[2, 3])), Some(false));
        assert_eq!(c.stats().invalidations, 1);
        // Idempotent when already empty: not double-counted.
        c.invalidate_sat();
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn refuted_consults_unsat_only_and_never_counts_misses() {
        let mut c = QueryCache::new();
        c.insert(k(&[1, 2]), true);
        c.insert(k(&[4]), false);
        assert!(!c.refuted(&k(&[1]))); // sat-dominated, but refuted() ignores that
        assert!(c.refuted(&k(&[4, 5])));
        assert_eq!(c.stats().misses, 0);
        assert_eq!(c.stats().hits_unsat, 1);
    }
}
