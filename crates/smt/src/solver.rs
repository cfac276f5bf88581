//! The SMT solver: Tseitin CNF translation plus a lazy CDCL(T) loop
//! combining EUF (congruence closure), linear integer arithmetic
//! (simplex), and weak arrays (lazy read-over-write lemmas), with
//! model-based theory combination.
//!
//! The loop is *offline*: the SAT core produces a total candidate model;
//! the theories validate it, responding with explanation (blocking)
//! clauses or fresh lemmas; the loop repeats until the model is
//! theory-consistent or the clauses are unsatisfiable.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::euf::{Euf, Node};
use crate::lia::{Lia, LiaVar};
use crate::rat::Rat;
use crate::sat::{Lit, ProofEvent, Sat, SearchSummary, SolveResult, Var};
use crate::term::{Ctx, Term, TermId, TermSort};

/// Provenance of one clause in the proof log (see
/// [`Solver::enable_proof`]). Every clause the solver ever hands to the
/// SAT core falls into exactly one of these categories, so an
/// independent checker can re-validate the whole clause database:
/// `Assert`/`Purify` units are definitional conservative extensions,
/// `Tseitin` clauses are forced by the term structure, `Theory` clauses
/// are theory-valid (refute their negation with congruence closure plus
/// Fourier–Motzkin), and `Guarded` clauses are the caller's own
/// (ALL-SAT blocking, validated against the cube log), inert unless
/// their guard literal is assumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClauseTag {
    /// Unit clause asserting a root term ([`Solver::assert_term`]).
    Assert {
        /// The asserted boolean term.
        term: TermId,
    },
    /// Unit clause from integer/map ite purification: `term` is one of
    /// the two guarded equations (`cond → k = then`, `¬cond → k = else`)
    /// defining the fresh variable `var` for the lifted `ite`.
    Purify {
        /// The asserted guarded-equation term.
        term: TermId,
        /// The original `Ite` term being lifted.
        ite: TermId,
        /// The fresh variable standing for the ite's value.
        var: TermId,
    },
    /// A Tseitin definitional clause of `term`'s encoding literal.
    Tseitin {
        /// The boolean term being encoded.
        term: TermId,
    },
    /// A theory lemma or theory-conflict blocking clause: each part is a
    /// boolean term together with the polarity it occurs with in the
    /// clause (`true` = positive literal).
    Theory {
        /// The clause, as (term, polarity) literals.
        parts: Vec<(TermId, bool)>,
    },
    /// A caller-added clause `¬guard ∨ parts`
    /// ([`Solver::add_guarded_clause`]); used for ALL-SAT blocking.
    Guarded {
        /// The fresh boolean variable guarding the clause.
        guard: TermId,
        /// The clause part terms, as written.
        parts: Vec<TermId>,
    },
}

/// Result of an SMT check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable: a theory-consistent model exists.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted.
    Unknown,
}

/// Cumulative statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmtStats {
    /// Number of `check` calls.
    pub checks: u64,
    /// Number of theory-conflict blocking clauses added.
    pub theory_conflicts: u64,
    /// Number of array lemmas instantiated.
    pub array_lemmas: u64,
    /// Number of integer branch lemmas added.
    pub branch_lemmas: u64,
    /// Number of combination (trichotomy / collision) lemmas added.
    pub combination_lemmas: u64,
}

/// A point-in-time snapshot of the solver's monotone work counters —
/// the SAT core's conflicts/decisions/propagations plus the theory
/// loop's conflict count. Telemetry captures one snapshot before and
/// after each `check()` and reports the difference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// SAT conflicts.
    pub conflicts: u64,
    /// SAT decisions.
    pub decisions: u64,
    /// SAT unit propagations.
    pub propagations: u64,
    /// Theory-conflict blocking clauses added.
    pub theory_conflicts: u64,
}

impl SolverCounters {
    /// The per-query delta `self - earlier` (saturating; counters are
    /// monotone, so saturation only absorbs float-free bookkeeping
    /// mistakes rather than hiding real work).
    pub fn since(&self, earlier: &SolverCounters) -> SolverCounters {
        SolverCounters {
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            theory_conflicts: self
                .theory_conflicts
                .saturating_sub(earlier.theory_conflicts),
        }
    }

    /// Adds another snapshot's counts into this one.
    pub fn add(&mut self, other: &SolverCounters) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.theory_conflicts += other.theory_conflicts;
    }
}

/// Tuning knobs for the solver.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Conflict budget per SAT call (`None` = unlimited).
    pub sat_conflict_budget: Option<u64>,
    /// Maximum theory-loop iterations per `check` before `Unknown`.
    pub max_theory_rounds: u64,
    /// Maximum integer branch lemmas per `check` before `Unknown`.
    pub max_branch_lemmas: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            sat_conflict_budget: None,
            max_theory_rounds: 100_000,
            max_branch_lemmas: 2_000,
        }
    }
}

/// The SMT solver. Owns the SAT core; borrows the [`Ctx`] per call so
/// callers can keep building terms between checks.
#[derive(Debug)]
pub struct Solver {
    sat: Sat,
    config: SolverConfig,
    /// Tseitin literal per boolean term.
    lit_of: HashMap<TermId, Lit>,
    /// Inverse: theory atom (Eq/Le/Lt) per SAT variable, if any.
    atom_of_var: Vec<Option<TermId>>,
    /// Purified version of int/map terms (ite-lifting results).
    purified: HashMap<TermId, TermId>,
    /// Array-lemma dedup: (read term, write term).
    array_lemmas_done: HashSet<(TermId, TermId)>,
    /// Trichotomy-lemma dedup per Eq term.
    trichotomy_done: HashSet<TermId>,
    /// Collision-lemma dedup per (a, b) pair.
    collision_done: HashSet<(TermId, TermId)>,
    /// Branch-lemma dedup: (term, floor value).
    branch_done: HashSet<(TermId, i128)>,
    /// Integer model values from the last successful theory check.
    last_model: HashMap<TermId, i64>,
    /// Clause provenance tags, parallel to the SAT core's proof log
    /// (`None` = proof mode off, the default).
    proof_tags: Option<Vec<ClauseTag>>,
    /// Statistics.
    pub stats: SmtStats,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Sets the SAT conflict budget for subsequent `check` calls.
    pub fn set_sat_budget(&mut self, budget: Option<u64>) {
        self.config.sat_conflict_budget = budget;
    }

    /// Creates a solver with the given configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver {
            sat: Sat::new(),
            config,
            lit_of: HashMap::new(),
            atom_of_var: Vec::new(),
            purified: HashMap::new(),
            array_lemmas_done: HashSet::new(),
            trichotomy_done: HashSet::new(),
            collision_done: HashSet::new(),
            branch_done: HashSet::new(),
            last_model: HashMap::new(),
            proof_tags: None,
            stats: SmtStats::default(),
        }
    }

    /// Turns on proof logging: every clause handed to the SAT core is
    /// tagged with its provenance, and the SAT core records the
    /// interleaved input/learnt event log. Call before the first
    /// assertion so the log is replayable from scratch.
    pub fn enable_proof(&mut self) {
        if self.proof_tags.is_none() {
            self.proof_tags = Some(Vec::new());
            self.sat.enable_proof();
        }
    }

    /// The SAT core's proof event log (empty when proof mode is off).
    pub fn proof_events(&self) -> &[ProofEvent] {
        self.sat.proof_events()
    }

    /// Turns on CDCL search instrumentation in the SAT core (see
    /// [`Sat::enable_search`]): restart/conflict/decision events are
    /// folded into a per-query [`SearchSummary`] retrievable with
    /// [`Solver::take_search_summary`]. Off by default and free when
    /// off; never changes the search itself.
    pub fn enable_search(&mut self) {
        self.sat.enable_search();
    }

    /// Takes (and resets) the search summary accumulated since the
    /// previous take — under the lazy-SMT loop this aggregates every
    /// `Sat::solve` round of the theory query. `None` when
    /// instrumentation is disabled.
    pub fn take_search_summary(&mut self) -> Option<SearchSummary> {
        self.sat.take_search_summary()
    }

    /// Clause provenance tags, indexed by the `tag` field of
    /// [`ProofEvent::Input`] events.
    pub fn clause_tags(&self) -> &[ClauseTag] {
        self.proof_tags.as_deref().unwrap_or(&[])
    }

    /// The assumption terms responsible for the most recent `Unsat`
    /// (a subset of the assumptions passed to [`Solver::check`]; empty
    /// when the assertions alone are unsatisfiable).
    pub fn unsat_core_terms(&self, assumptions: &[TermId]) -> Vec<TermId> {
        let core = self.sat.unsat_core();
        assumptions
            .iter()
            .filter(|a| match self.lit_of.get(a) {
                Some(l) => core.contains(l),
                None => false,
            })
            .copied()
            .collect()
    }

    /// Iterates the term → Tseitin-literal table (for certificate
    /// serialization).
    pub fn lit_table(&self) -> impl Iterator<Item = (TermId, Lit)> + '_ {
        self.lit_of.iter().map(|(&t, &l)| (t, l))
    }

    /// The purified (ite-lifted) version of an int/map term, if the
    /// solver rewrote it.
    pub fn purified_of(&self, t: TermId) -> Option<TermId> {
        self.purified.get(&t).copied()
    }

    /// Iterates the integer model values of the last successful theory
    /// check (keys are purified terms).
    pub fn model_int_terms(&self) -> impl Iterator<Item = (TermId, i64)> + '_ {
        self.last_model.iter().map(|(&t, &v)| (t, v))
    }

    /// Hands a clause to the SAT core, recording its provenance when
    /// proof mode is on. The tag closure only runs in proof mode.
    fn emit(&mut self, lits: &[Lit], tag: impl FnOnce() -> ClauseTag) -> bool {
        match &mut self.proof_tags {
            None => self.sat.add_clause(lits),
            Some(tags) => {
                let id = tags.len() as u32;
                tags.push(tag());
                self.sat.add_clause_tagged(lits, id)
            }
        }
    }

    fn new_sat_var(&mut self, atom: Option<TermId>) -> Var {
        let v = self.sat.new_var();
        debug_assert_eq!(v.0 as usize, self.atom_of_var.len());
        self.atom_of_var.push(atom);
        v
    }

    /// Asserts a boolean term (conjoined with previous assertions,
    /// persistent across checks).
    pub fn assert_term(&mut self, ctx: &mut Ctx, t: TermId) {
        let l = self.lit(ctx, t);
        self.emit(&[l], || ClauseTag::Assert { term: t });
    }

    /// Adds a clause of boolean terms. Not for proof mode, where every
    /// clause needs provenance: use [`Solver::add_guarded_clause`].
    pub fn add_clause_terms(&mut self, ctx: &mut Ctx, parts: &[TermId]) {
        debug_assert!(
            self.proof_tags.is_none(),
            "unguarded caller clauses have no proof provenance"
        );
        let lits: Vec<Lit> = parts.iter().map(|&p| self.lit(ctx, p)).collect();
        self.sat.add_clause(&lits);
    }

    /// Adds the clause `¬guard ∨ parts`: it constrains only queries
    /// that assume `guard`, so one solver can answer queries with and
    /// without it.
    pub fn add_guarded_clause(&mut self, ctx: &mut Ctx, guard: TermId, parts: &[TermId]) {
        let mut lits = vec![self.lit(ctx, guard).negated()];
        lits.extend(parts.iter().map(|&p| self.lit(ctx, p)));
        self.emit(&lits, || ClauseTag::Guarded {
            guard,
            parts: parts.to_vec(),
        });
    }

    /// Adds a theory-lemma clause of boolean terms (positive polarity).
    fn add_lemma_terms(&mut self, ctx: &mut Ctx, parts: &[TermId]) {
        let lits: Vec<Lit> = parts.iter().map(|&p| self.lit(ctx, p)).collect();
        self.emit(&lits, || ClauseTag::Theory {
            parts: parts.iter().map(|&p| (p, true)).collect(),
        });
    }

    /// The Tseitin literal of a boolean term, creating encoding clauses on
    /// first use.
    pub fn lit(&mut self, ctx: &mut Ctx, t: TermId) -> Lit {
        debug_assert_eq!(ctx.sort(t), TermSort::Bool);
        if let Some(&l) = self.lit_of.get(&t) {
            return l;
        }
        let l = match ctx.term(t).clone() {
            Term::True => {
                let v = self.new_sat_var(None);
                self.emit(&[Lit::pos(v)], || ClauseTag::Tseitin { term: t });
                Lit::pos(v)
            }
            Term::False => {
                let v = self.new_sat_var(None);
                self.emit(&[Lit::pos(v)], || ClauseTag::Tseitin { term: t });
                Lit::neg(v)
            }
            Term::Not(a) => self.lit(ctx, a).negated(),
            Term::And(ps) => {
                let lits: Vec<Lit> = ps.iter().map(|&p| self.lit(ctx, p)).collect();
                let v = Lit::pos(self.new_sat_var(None));
                for &p in &lits {
                    self.emit(&[v.negated(), p], || ClauseTag::Tseitin { term: t });
                }
                let mut big: Vec<Lit> = lits.iter().map(|p| p.negated()).collect();
                big.push(v);
                self.emit(&big, || ClauseTag::Tseitin { term: t });
                v
            }
            Term::Or(ps) => {
                let lits: Vec<Lit> = ps.iter().map(|&p| self.lit(ctx, p)).collect();
                let v = Lit::pos(self.new_sat_var(None));
                for &p in &lits {
                    self.emit(&[v, p.negated()], || ClauseTag::Tseitin { term: t });
                }
                let mut big: Vec<Lit> = lits.clone();
                big.push(v.negated());
                self.emit(&big, || ClauseTag::Tseitin { term: t });
                v
            }
            Term::Implies(a, b) => {
                let na = ctx.mk_not(a);
                let or = ctx.mk_or(vec![na, b]);
                self.lit(ctx, or)
            }
            Term::Iff(a, b) => {
                let la = self.lit(ctx, a);
                let lb = self.lit(ctx, b);
                let v = Lit::pos(self.new_sat_var(None));
                self.emit(&[v.negated(), la.negated(), lb], || ClauseTag::Tseitin {
                    term: t,
                });
                self.emit(&[v.negated(), la, lb.negated()], || ClauseTag::Tseitin {
                    term: t,
                });
                self.emit(&[v, la, lb], || ClauseTag::Tseitin { term: t });
                self.emit(&[v, la.negated(), lb.negated()], || ClauseTag::Tseitin {
                    term: t,
                });
                v
            }
            Term::BoolVar(_) => Lit::pos(self.new_sat_var(None)),
            Term::Eq(a, b) | Term::Le(a, b) | Term::Lt(a, b) => {
                // Purify operands (lift integer ites), then register the
                // (possibly rewritten) atom.
                let pa = self.purify(ctx, a);
                let pb = self.purify(ctx, b);
                if pa != a || pb != b {
                    let rebuilt = match ctx.term(t).clone() {
                        Term::Eq(..) => ctx.mk_eq(pa, pb),
                        Term::Le(..) => ctx.mk_le(pa, pb),
                        Term::Lt(..) => ctx.mk_lt(pa, pb),
                        _ => unreachable!(),
                    };
                    let l = self.lit(ctx, rebuilt);
                    self.lit_of.insert(t, l);
                    return l;
                }
                Lit::pos(self.new_sat_var(Some(t)))
            }
            Term::IntVar(_)
            | Term::IntConst(_)
            | Term::Add(_)
            | Term::MulC(..)
            | Term::App(..)
            | Term::Read(..)
            | Term::Write(..)
            | Term::MapVar(_)
            | Term::Ite(..) => unreachable!("non-boolean term in lit()"),
        };
        self.lit_of.insert(t, l);
        l
    }

    /// Rewrites an int/map term so it contains no `Ite`: each integer ite
    /// is replaced by a fresh variable constrained by
    /// `cond → k = then` and `¬cond → k = else`.
    fn purify(&mut self, ctx: &mut Ctx, t: TermId) -> TermId {
        if let Some(&p) = self.purified.get(&t) {
            return p;
        }
        let result = match ctx.term(t).clone() {
            Term::IntVar(_) | Term::IntConst(_) | Term::MapVar(_) => t,
            Term::Add(ps) => {
                let ps: Vec<TermId> = ps.iter().map(|&p| self.purify(ctx, p)).collect();
                ctx.mk_add(ps)
            }
            Term::MulC(c, a) => {
                let a = self.purify(ctx, a);
                ctx.mk_mulc(c, a)
            }
            Term::App(f, args) => {
                let args: Vec<TermId> = args.iter().map(|&a| self.purify(ctx, a)).collect();
                ctx.mk_app(f, args)
            }
            Term::Read(m, i) => {
                let m = self.purify(ctx, m);
                let i = self.purify(ctx, i);
                ctx.mk_read(m, i)
            }
            Term::Write(m, i, v) => {
                let m = self.purify(ctx, m);
                let i = self.purify(ctx, i);
                let v = self.purify(ctx, v);
                ctx.mk_write(m, i, v)
            }
            Term::Ite(c, a, b) => {
                let a = self.purify(ctx, a);
                let b = self.purify(ctx, b);
                let k = if ctx.sort(a) == TermSort::Int {
                    ctx.fresh_int_var("%ite")
                } else {
                    ctx.fresh_map_var("%ite_map")
                };
                let then_eq = ctx.mk_eq(k, a);
                let else_eq = ctx.mk_eq(k, b);
                let nc = ctx.mk_not(c);
                let c1 = ctx.mk_or(vec![nc, then_eq]);
                let c2 = ctx.mk_or(vec![c, else_eq]);
                for guarded in [c1, c2] {
                    let l = self.lit(ctx, guarded);
                    self.emit(&[l], || ClauseTag::Purify {
                        term: guarded,
                        ite: t,
                        var: k,
                    });
                }
                k
            }
            Term::True
            | Term::False
            | Term::BoolVar(_)
            | Term::Not(_)
            | Term::And(_)
            | Term::Or(_)
            | Term::Implies(..)
            | Term::Iff(..)
            | Term::Eq(..)
            | Term::Le(..)
            | Term::Lt(..) => unreachable!("boolean term in purify()"),
        };
        self.purified.insert(t, result);
        result
    }

    /// Checks satisfiability of the asserted terms under `assumptions`.
    pub fn check(&mut self, ctx: &mut Ctx, assumptions: &[TermId]) -> SmtResult {
        self.stats.checks += 1;
        let assumption_lits: Vec<Lit> = assumptions.iter().map(|&a| self.lit(ctx, a)).collect();
        let mut branch_lemmas_this_check = 0u64;
        for _round in 0..self.config.max_theory_rounds {
            match self
                .sat
                .solve(&assumption_lits, self.config.sat_conflict_budget)
            {
                SolveResult::Unsat => return SmtResult::Unsat,
                SolveResult::Unknown => return SmtResult::Unknown,
                SolveResult::Sat => {}
            }
            match self.theory_check(ctx, &mut branch_lemmas_this_check) {
                TheoryOutcome::Consistent => return SmtResult::Sat,
                TheoryOutcome::Progress => continue,
                TheoryOutcome::GiveUp => return SmtResult::Unknown,
            }
        }
        SmtResult::Unknown
    }

    /// The boolean value of a term in the current model (after `Sat`).
    /// Returns `None` if the term never got a SAT literal.
    pub fn bool_value(&self, t: TermId) -> Option<bool> {
        let l = self.lit_of.get(&t)?;
        match self.sat.lit_value(*l) {
            crate::sat::LBool::True => Some(true),
            crate::sat::LBool::False => Some(false),
            crate::sat::LBool::Undef => None,
        }
    }

    /// The integer value of a term in the last satisfying model, if the
    /// term was relevant to the theories. The witness combines simplex
    /// values, E-graph class constants, and synthesized distinct values
    /// for otherwise-unconstrained classes.
    pub fn int_value(&self, t: TermId) -> Option<i64> {
        self.last_model.get(&t).copied()
    }

    /// Total SAT conflicts so far (for deterministic budgeting).
    pub fn conflicts(&self) -> u64 {
        self.sat.conflicts
    }

    /// A snapshot of the solver's monotone work counters.
    pub fn counters(&self) -> SolverCounters {
        SolverCounters {
            conflicts: self.sat.conflicts,
            decisions: self.sat.decisions,
            propagations: self.sat.propagations,
            theory_conflicts: self.stats.theory_conflicts,
        }
    }

    fn theory_check(&mut self, ctx: &mut Ctx, branch_budget_used: &mut u64) -> TheoryOutcome {
        // 1. Collect asserted theory atoms with polarities.
        let mut atoms: Vec<(TermId, bool)> = Vec::new();
        for v in 0..self.atom_of_var.len() {
            if let Some(atom) = self.atom_of_var[v] {
                match self.sat.value(Var(v as u32)) {
                    crate::sat::LBool::True => atoms.push((atom, true)),
                    crate::sat::LBool::False => atoms.push((atom, false)),
                    crate::sat::LBool::Undef => {}
                }
            }
        }

        // 2. Build the E-graph over all terms in the atoms.
        let mut enc = TheoryEncoding::default();
        for &(atom, _) in &atoms {
            let (a, b) = match ctx.term(atom) {
                Term::Eq(a, b) | Term::Le(a, b) | Term::Lt(a, b) => (*a, *b),
                _ => unreachable!("registered atom is relational"),
            };
            enc.node(ctx, a);
            enc.node(ctx, b);
        }

        // 3. Assert equalities/disequalities to EUF.
        for (idx, &(atom, pol)) in atoms.iter().enumerate() {
            if let Term::Eq(a, b) = *ctx.term(atom) {
                let na = enc.node(ctx, a);
                let nb = enc.node(ctx, b);
                let res = if pol {
                    enc.euf.assert_eq(na, nb, idx as u32)
                } else {
                    enc.euf.assert_diseq(na, nb, idx as u32)
                };
                if let Err(c) = res {
                    self.block_atoms(&atoms, &c.reasons);
                    return TheoryOutcome::Progress;
                }
            }
        }
        if let Err(c) = enc.euf.check_diseqs() {
            self.block_atoms(&atoms, &c.reasons);
            return TheoryOutcome::Progress;
        }

        // 4. Lazy array lemmas: for every read whose map is equated with a
        // write, instantiate the read-over-write axioms.
        let mut added_lemma = false;
        let reads: Vec<(TermId, TermId, TermId)> = enc
            .int_terms
            .iter()
            .filter_map(|(&t, _)| match ctx.term(t) {
                Term::Read(m, i) => Some((t, *m, *i)),
                _ => None,
            })
            .collect();
        let writes: Vec<(TermId, TermId, TermId, TermId)> = enc
            .map_terms
            .iter()
            .filter_map(|(&t, _)| match ctx.term(t) {
                Term::Write(m, i, v) => Some((t, *m, *i, *v)),
                _ => None,
            })
            .collect();
        for &(rt, rm, ri) in &reads {
            for &(wt, wm, wi, wv) in &writes {
                let rm_node = enc.int_or_map_node(ctx, rm);
                let wt_node = enc.int_or_map_node(ctx, wt);
                if !enc.euf.are_equal(rm_node, wt_node) {
                    continue;
                }
                if !self.array_lemmas_done.insert((rt, wt)) {
                    continue;
                }
                self.stats.array_lemmas += 1;
                added_lemma = true;
                // maps-equal ∧ i = j → read = v
                let maps_eq = ctx.mk_eq(rm, wt);
                let idx_eq = ctx.mk_eq(ri, wi);
                let val_eq = ctx.mk_eq(rt, wv);
                let n_maps = ctx.mk_not(maps_eq);
                let n_idx = ctx.mk_not(idx_eq);
                self.add_lemma_terms(ctx, &[n_maps, n_idx, val_eq]);
                // maps-equal ∧ i ≠ j → read = read(inner, j)
                let inner_read = ctx.mk_read(wm, ri);
                let chain_eq = ctx.mk_eq(rt, inner_read);
                self.add_lemma_terms(ctx, &[n_maps, idx_eq, chain_eq]);
            }
        }
        if added_lemma {
            return TheoryOutcome::Progress;
        }

        // 5. Trichotomy lemmas for negated integer equalities, so LIA
        // respects disequalities.
        for &(atom, pol) in &atoms {
            if pol {
                continue;
            }
            if let Term::Eq(a, b) = *ctx.term(atom) {
                if ctx.sort(a) != TermSort::Int {
                    continue;
                }
                if !self.trichotomy_done.insert(atom) {
                    continue;
                }
                self.stats.combination_lemmas += 1;
                added_lemma = true;
                let lt_ab = ctx.mk_lt(a, b);
                let lt_ba = ctx.mk_lt(b, a);
                self.add_lemma_terms(ctx, &[atom, lt_ab, lt_ba]);
            }
        }
        if added_lemma {
            return TheoryOutcome::Progress;
        }

        // 6. Linear arithmetic with EUF-propagated equalities.
        let mut lia = Lia::new();
        let mut lvar_of: HashMap<TermId, LiaVar> = HashMap::new();
        let int_terms: Vec<TermId> = {
            let mut ts: Vec<TermId> = enc.int_terms.keys().copied().collect();
            ts.sort_unstable();
            ts
        };
        // Opaque LIA variables for every non-arithmetic int term and plain
        // variable (Add/MulC/IntConst decompose; everything else opaque).
        for &t in &int_terms {
            if matches!(
                ctx.term(t),
                Term::IntVar(_) | Term::App(..) | Term::Read(..)
            ) {
                let v = lia.new_var();
                lvar_of.insert(t, v);
            }
        }
        // Reason table: atom indices first, then derived equalities.
        enum Why {
            Atom(usize),
            EufPair(Node, Node),
        }
        let mut whys: Vec<Why> = (0..atoms.len()).map(Why::Atom).collect();

        let assert_linear = |lia: &mut Lia,
                             ctx: &Ctx,
                             lhs: TermId,
                             rhs: TermId,
                             strict: bool,
                             why: u32|
         -> Result<(), crate::lia::LiaConflict> {
            // lhs - rhs (+1 if strict) ≤ 0, i.e. form ≤ -k (- strictness).
            let mut form: Vec<(LiaVar, Rat)> = Vec::new();
            let mut konst = 0i64;
            linearize(ctx, lhs, 1, &lvar_of, &mut form, &mut konst);
            linearize(ctx, rhs, -1, &lvar_of, &mut form, &mut konst);
            let bound = -konst - i64::from(strict);
            let fv = lia.form_var(&form);
            lia.assert_upper(fv, Rat::int(bound), why)
        };

        let mut conflict: Option<Vec<u32>> = None;
        'atoms: for (idx, &(atom, pol)) in atoms.iter().enumerate() {
            let res = match (*ctx.term(atom)).clone() {
                Term::Le(a, b) => {
                    if pol {
                        assert_linear(&mut lia, ctx, a, b, false, idx as u32)
                    } else {
                        assert_linear(&mut lia, ctx, b, a, true, idx as u32)
                    }
                }
                Term::Lt(a, b) => {
                    if pol {
                        assert_linear(&mut lia, ctx, a, b, true, idx as u32)
                    } else {
                        assert_linear(&mut lia, ctx, b, a, false, idx as u32)
                    }
                }
                Term::Eq(a, b) if ctx.sort(a) == TermSort::Int && pol => {
                    match assert_linear(&mut lia, ctx, a, b, false, idx as u32) {
                        Ok(()) => assert_linear(&mut lia, ctx, b, a, false, idx as u32),
                        e => e,
                    }
                }
                _ => Ok(()),
            };
            if let Err(c) = res {
                conflict = Some(c.reasons);
                break 'atoms;
            }
        }

        // EUF-derived equalities: members of a class equal their
        // representative; classes with constants pin members to the value.
        if conflict.is_none() {
            let shared: Vec<(TermId, Node)> = enc
                .int_terms
                .iter()
                .filter(|(t, _)| lvar_of.contains_key(t))
                .map(|(&t, &n)| (t, n))
                .collect();
            let mut class_repr: HashMap<Node, (TermId, Node)> = HashMap::new();
            'derive: for &(t, n) in &shared {
                let r = enc.euf.representative(n);
                // Constant pinning.
                if let Some(c) = enc.euf.class_constant(n) {
                    let const_term = ctx.mk_int(c);
                    let const_node = enc.int_or_map_node(ctx, const_term);
                    let why = whys.len() as u32;
                    whys.push(Why::EufPair(n, const_node));
                    let lv = lvar_of[&t];
                    let res = lia
                        .assert_upper(lv, Rat::int(c), why)
                        .and_then(|()| lia.assert_lower(lv, Rat::int(c), why));
                    if let Err(c) = res {
                        conflict = Some(c.reasons);
                        break 'derive;
                    }
                }
                match class_repr.get(&r) {
                    None => {
                        class_repr.insert(r, (t, n));
                    }
                    Some(&(t0, n0)) => {
                        let why = whys.len() as u32;
                        whys.push(Why::EufPair(n, n0));
                        let form = vec![(lvar_of[&t], Rat::ONE), (lvar_of[&t0], -Rat::ONE)];
                        let fv = lia.form_var(&form);
                        let res = lia
                            .assert_upper(fv, Rat::ZERO, why)
                            .and_then(|()| lia.assert_lower(fv, Rat::ZERO, why));
                        if let Err(c) = res {
                            conflict = Some(c.reasons);
                            break 'derive;
                        }
                    }
                }
            }
        }

        if conflict.is_none() {
            if let Err(c) = lia.check() {
                conflict = Some(c.reasons);
            }
        }

        if let Some(reasons) = conflict {
            // Expand derived reasons into atom indices via EUF explanations.
            let mut atom_idxs: Vec<usize> = Vec::new();
            let mut queue: Vec<u32> = reasons;
            let mut seen: HashSet<u32> = HashSet::new();
            while let Some(w) = queue.pop() {
                if !seen.insert(w) {
                    continue;
                }
                match &whys[w as usize] {
                    Why::Atom(i) => atom_idxs.push(*i),
                    Why::EufPair(a, b) => {
                        for r in enc.euf.explain(*a, *b) {
                            queue.push(r);
                        }
                    }
                }
            }
            atom_idxs.sort_unstable();
            atom_idxs.dedup();
            let idxs: Vec<u32> = atom_idxs.iter().map(|&i| i as u32).collect();
            self.block_atoms(&atoms, &idxs);
            return TheoryOutcome::Progress;
        }

        // 7. Integer branching.
        if let Some((lv, val)) = lia.find_fractional() {
            if *branch_budget_used >= self.config.max_branch_lemmas {
                return TheoryOutcome::GiveUp;
            }
            // Find the term for this LIA var.
            let term = lvar_of
                .iter()
                .find(|(_, &v)| v == lv)
                .map(|(&t, _)| t)
                .expect("fractional var is a problem var");
            let fl = val.floor();
            if self.branch_done.insert((term, fl)) {
                *branch_budget_used += 1;
                self.stats.branch_lemmas += 1;
                let lo = ctx.mk_int(fl as i64);
                let hi = ctx.mk_int((fl + 1) as i64);
                let le = ctx.mk_le(term, lo);
                let ge = ctx.mk_le(hi, term);
                self.add_lemma_terms(ctx, &[le, ge]);
                return TheoryOutcome::Progress;
            }
            // Already split here yet still fractional: give up.
            return TheoryOutcome::GiveUp;
        }

        // 8. Model-based combination: equal-valued shared int terms that
        // EUF keeps distinct get a trichotomy lemma so SAT commits.
        let mut by_value: BTreeMap<i128, Vec<(TermId, Node)>> = BTreeMap::new();
        for (&t, &n) in &enc.int_terms {
            if !enc.shared.contains(&t) {
                continue;
            }
            let value = match lvar_of.get(&t) {
                Some(&lv) => {
                    let v = lia.value(lv);
                    debug_assert!(v.is_integer());
                    v.num()
                }
                None => match ctx.term(t) {
                    Term::IntConst(c) => *c as i128,
                    _ => continue,
                },
            };
            by_value.entry(value).or_default().push((t, n));
        }
        let mut added = false;
        for group in by_value.values() {
            for i in 0..group.len() {
                for j in (i + 1)..group.len() {
                    let (t1, n1) = group[i];
                    let (t2, n2) = group[j];
                    if enc.euf.are_equal(n1, n2) {
                        continue;
                    }
                    let key = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
                    if !self.collision_done.insert(key) {
                        continue;
                    }
                    self.stats.combination_lemmas += 1;
                    added = true;
                    let eq = ctx.mk_eq(t1, t2);
                    let lt1 = ctx.mk_lt(t1, t2);
                    let lt2 = ctx.mk_lt(t2, t1);
                    self.add_lemma_terms(ctx, &[eq, lt1, lt2]);
                }
            }
        }
        if added {
            return TheoryOutcome::Progress;
        }

        // Record a concrete integer witness: simplex values where
        // available, class constants otherwise, and fresh distinct values
        // for remaining classes (offset far from any pinned constant).
        self.last_model.clear();
        let mut class_value: HashMap<crate::euf::Node, i64> = HashMap::new();
        let mut synth = 1_000_000i64;
        let mut int_terms: Vec<(TermId, crate::euf::Node)> =
            enc.int_terms.iter().map(|(&t, &n)| (t, n)).collect();
        int_terms.sort_unstable_by_key(|&(t, _)| t);
        for (t, n) in int_terms {
            let repr = enc.euf.representative(n);
            let value = if let Some(&lv) = lvar_of.get(&t) {
                let v = lia.value(lv);
                debug_assert!(v.is_integer());
                v.num() as i64
            } else if let Some(c) = enc.euf.class_constant(n) {
                c
            } else if let Some(&v) = class_value.get(&repr) {
                v
            } else {
                synth += 1;
                synth
            };
            class_value.entry(repr).or_insert(value);
            self.last_model.insert(t, value);
        }

        TheoryOutcome::Consistent
    }

    /// Adds the blocking clause ¬(l₁ ∧ … ∧ lₙ) for the given atom indices.
    fn block_atoms(&mut self, atoms: &[(TermId, bool)], idxs: &[u32]) {
        self.stats.theory_conflicts += 1;
        let clause: Vec<Lit> = idxs
            .iter()
            .map(|&i| {
                let (atom, pol) = atoms[i as usize];
                let l = *self.lit_of.get(&atom).expect("atom has a lit");
                if pol {
                    l.negated()
                } else {
                    l
                }
            })
            .collect();
        self.emit(&clause, || ClauseTag::Theory {
            parts: idxs
                .iter()
                .map(|&i| {
                    let (atom, pol) = atoms[i as usize];
                    (atom, !pol)
                })
                .collect(),
        });
    }
}

enum TheoryOutcome {
    Consistent,
    Progress,
    GiveUp,
}

/// Mapping from terms to E-graph nodes, rebuilt per theory check.
///
/// Ordered maps: several theory passes iterate these tables to emit
/// lemmas and derived equalities, and the emission order steers simplex
/// pivoting and hence which model the solver reports. `BTreeMap` keeps
/// that order — and therefore witnesses — identical across solver
/// instances encoding the same problem.
#[derive(Default)]
struct TheoryEncoding {
    euf: Euf,
    int_terms: BTreeMap<TermId, Node>,
    map_terms: BTreeMap<TermId, Node>,
    func_ids: HashMap<String, u32>,
    /// Int terms appearing in an argument position (congruence-relevant).
    shared: HashSet<TermId>,
}

impl TheoryEncoding {
    fn func_id(&mut self, name: &str) -> u32 {
        let next = self.func_ids.len() as u32;
        *self.func_ids.entry(name.to_string()).or_insert(next)
    }

    fn int_or_map_node(&mut self, ctx: &Ctx, t: TermId) -> Node {
        self.node(ctx, t)
    }

    fn node(&mut self, ctx: &Ctx, t: TermId) -> Node {
        let table = match ctx.sort(t) {
            TermSort::Int => &self.int_terms,
            TermSort::Map => &self.map_terms,
            TermSort::Bool => unreachable!("boolean term in E-graph"),
        };
        if let Some(&n) = table.get(&t) {
            return n;
        }
        let n = match ctx.term(t).clone() {
            Term::IntVar(_) | Term::MapVar(_) => self.euf.add_leaf(None),
            Term::IntConst(c) => self.euf.add_leaf(Some(c)),
            Term::App(f, args) => {
                let arg_nodes: Vec<Node> = args
                    .iter()
                    .map(|&a| {
                        self.shared.insert(a);
                        self.node(ctx, a)
                    })
                    .collect();
                let fid = self.func_id(&format!("app:{f}"));
                self.euf.add_app(fid, arg_nodes)
            }
            Term::Read(m, i) => {
                self.shared.insert(i);
                let nm = self.node(ctx, m);
                let ni = self.node(ctx, i);
                let fid = self.func_id("read");
                self.euf.add_app(fid, vec![nm, ni])
            }
            Term::Write(m, i, v) => {
                self.shared.insert(i);
                self.shared.insert(v);
                let nm = self.node(ctx, m);
                let ni = self.node(ctx, i);
                let nv = self.node(ctx, v);
                let fid = self.func_id("write");
                self.euf.add_app(fid, vec![nm, ni, nv])
            }
            Term::Add(ps) => {
                let nodes: Vec<Node> = ps.iter().map(|&p| self.node(ctx, p)).collect();
                let fid = self.func_id("+");
                self.euf.add_app(fid, nodes)
            }
            Term::MulC(c, a) => {
                let na = self.node(ctx, a);
                let fid = self.func_id(&format!("*{c}"));
                self.euf.add_app(fid, vec![na])
            }
            Term::Ite(..) => unreachable!("ites are purified before atoms"),
            _ => unreachable!("boolean term in E-graph"),
        };
        match ctx.sort(t) {
            TermSort::Int => self.int_terms.insert(t, n),
            TermSort::Map => self.map_terms.insert(t, n),
            TermSort::Bool => unreachable!(),
        };
        n
    }
}

/// Decomposes `sign · term` into a linear form over opaque LIA variables
/// plus a constant.
fn linearize(
    ctx: &Ctx,
    t: TermId,
    sign: i64,
    lvar_of: &HashMap<TermId, LiaVar>,
    form: &mut Vec<(LiaVar, Rat)>,
    konst: &mut i64,
) {
    match ctx.term(t) {
        Term::IntConst(c) => *konst += sign * c,
        Term::Add(ps) => {
            for &p in ps.clone().iter() {
                linearize(ctx, p, sign, lvar_of, form, konst);
            }
        }
        Term::MulC(c, a) => linearize(ctx, *a, sign * c, lvar_of, form, konst),
        Term::IntVar(_) | Term::App(..) | Term::Read(..) => {
            let v = *lvar_of.get(&t).expect("opaque term registered");
            form.push((v, Rat::int(sign)));
        }
        _ => unreachable!("non-integer term in linearize"),
    }
}
