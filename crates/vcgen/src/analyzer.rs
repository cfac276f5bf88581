//! The `Dead(f)` / `Fail(f)` query engine (§2.3).
//!
//! A desugared procedure is encoded once into the SMT solver by symbolic
//! execution with ite-merging at joins: every execution is characterized
//! by the initial values of inputs, the values of ν-constants, the values
//! chosen by `havoc`, and fresh boolean choice variables for `if (*)`.
//! Each tracked location `l` and assertion `a` gets a *guard literal*:
//!
//! * `g_l → pc_l` — forcing `g_l` asks for an execution reaching `l`;
//! * `g_a → pc_a ∧ ¬cond_a` — forcing `g_a` asks for an execution that
//!   reaches `a` and fails it.
//!
//! Input-state sets `f` (environment specifications) are installed as
//! *selector literals* `s → f`; `Dead`/`Fail` for any clause subset is then
//! a sequence of incremental SMT checks under assumptions — the
//! incremental interface the paper's prototype lacked (§5).
//!
//! Per §2.3, an execution blocked by a later `assume` still *reached*
//! earlier locations, and assertions terminate failing executions, so an
//! assertion contributes its condition to the path constraint of
//! everything after it.

use std::collections::BTreeSet;

use acspec_ir::arena::{TermArena, TermId as IrTermId, TermStats};
use acspec_ir::desugar::DesugaredProc;
use acspec_ir::expr::Formula;
use acspec_ir::locs::{enumerate_locations, LocId};
use acspec_ir::stmt::{AssertId, BranchCond, Stmt};
use acspec_ir::Sort;
use acspec_smt::{Ctx, SearchSummary, SmtResult, Solver, SolverCounters, TermId};

use crate::cache::{CacheStats, QueryCache};
use crate::chaos::{ChaosConfig, ChaosFault, ChaosSolver, ChaosStats};
use crate::evidence::CertStore;
use crate::stage::{Budget, Deadline, FaultReason};
use crate::translate::{expr_to_term, formula_to_term, interned_to_term, Env, TranslateError};

/// A selector literal standing for an installed environment specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Selector(TermId);

/// How one SMT `check()` ended (telemetry's view of
/// [`SmtResult`](acspec_smt::SmtResult), plus budget pre-exhaustion,
/// deadline expiry, and injected faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Satisfiable.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// No answer — the reason says which resource ran out (conflicts,
    /// wall-clock deadline, a structural cap, or an injected fault).
    Unknown {
        /// Why the query gave up.
        reason: FaultReason,
    },
}

impl QueryOutcome {
    /// Stable lowercase name for sinks.
    pub fn name(self) -> &'static str {
        match self {
            QueryOutcome::Sat => "sat",
            QueryOutcome::Unsat => "unsat",
            QueryOutcome::Unknown { .. } => "unknown",
        }
    }

    /// The fault reason, for `Unknown` outcomes.
    pub fn reason(self) -> Option<FaultReason> {
        match self {
            QueryOutcome::Unknown { reason } => Some(reason),
            _ => None,
        }
    }
}

/// One record per SMT `check()`: the solver-query hook's payload.
/// Captures the per-query delta of the SAT core's work counters and the
/// theory-conflict count, the outcome, and the query's wall-clock
/// latency.
#[derive(Debug, Clone, Copy)]
pub struct QueryRecord {
    /// Query index within this analyzer (0-based, issue order).
    pub seq: u32,
    /// How the query ended.
    pub outcome: QueryOutcome,
    /// Wall-clock seconds inside the solver.
    pub seconds: f64,
    /// Work-counter deltas for this query alone.
    pub counters: SolverCounters,
    /// CDCL search summary for this query alone (`Some` only when
    /// search recording is on, see
    /// [`ProcAnalyzer::set_search_recording`]).
    pub search: Option<SearchSummary>,
}

impl From<SmtResult> for QueryOutcome {
    /// A solver `Unknown` means the query ran out of conflicts.
    fn from(result: SmtResult) -> QueryOutcome {
        match result {
            SmtResult::Sat => QueryOutcome::Sat,
            SmtResult::Unsat => QueryOutcome::Unsat,
            SmtResult::Unknown => QueryOutcome::Unknown {
                reason: FaultReason::Conflicts,
            },
        }
    }
}

/// A solver answer as a query result: `Sat` is `Ok(true)`, `Unsat`
/// `Ok(false)`, and `Unknown` a conflict-budget fault.
fn decided(result: SmtResult) -> Result<bool, FaultReason> {
    match result {
        SmtResult::Sat => Ok(true),
        SmtResult::Unsat => Ok(false),
        SmtResult::Unknown => Err(FaultReason::Conflicts),
    }
}

/// Configuration for a [`ProcAnalyzer`].
#[derive(Debug, Clone, Copy)]
pub struct AnalyzerConfig {
    /// Total SAT-conflict budget across all queries for this procedure
    /// (`None` = unlimited). This is the deterministic analogue of the
    /// paper's 10-second timeout.
    pub conflict_budget: Option<u64>,
    /// Enables the monotone dominance cache ([`crate::cache`]): queries
    /// answered by §2.3 monotonicity skip the solver. On by default;
    /// the `ACSPEC_NO_QUERY_CACHE` environment variable (set non-empty,
    /// not `0`) or the CLI `--no-query-cache` flag disables it. Reports
    /// are byte-identical either way — only query counts and wall time
    /// change.
    pub query_cache: bool,
    /// Wall-clock deadline per budget grant (`None` = unlimited, the
    /// default). The literal analogue of the paper's 10-second Z3
    /// timeout; off by default because wall-clock limits make runs
    /// nondeterministic. Checked before each query and surfaced as
    /// [`QueryOutcome::Unknown`] with [`FaultReason::Deadline`].
    pub deadline: Option<std::time::Duration>,
    /// Deterministic fault injection ([`crate::chaos`]); `None` (the
    /// default) runs without the harness. With `Some` and `rate = 0.0`
    /// the analyzer behaves identically to `None`.
    pub chaos: Option<ChaosConfig>,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            conflict_budget: Some(2_000_000),
            query_cache: std::env::var("ACSPEC_NO_QUERY_CACHE")
                .map_or(true, |v| v.is_empty() || v == "0"),
            deadline: None,
            chaos: None,
        }
    }
}

/// The per-procedure query engine.
#[derive(Debug)]
pub struct ProcAnalyzer {
    /// Term context (public so callers can build predicate terms).
    pub ctx: Ctx,
    solver: Solver,
    /// Guard literal per tracked location.
    loc_guards: Vec<(LocId, TermId)>,
    /// Raw path condition per tracked location (for path profiling).
    loc_pcs: Vec<(LocId, TermId)>,
    /// Lazily created indicators `b ⇔ pc_l` (for path profiling).
    loc_indicators: Vec<TermId>,
    /// Guard literal per assertion.
    assert_guards: Vec<(AssertId, TermId)>,
    /// Guard literal for "some assertion fails" (`¬wp(pr, true)`).
    fail_any: TermId,
    /// Input environment (initial incarnations + ν-constants), used to
    /// translate environment specifications and predicates.
    input_env: Env,
    budget: Budget,
    /// Wall-clock deadline alongside the conflict budget.
    deadline: Deadline,
    /// Deterministic fault-injection stream (`None` when disabled).
    chaos: Option<ChaosSolver>,
    /// Count of SMT queries issued, given-up ones included (statistics).
    pub queries: u64,
    /// Work counters summed over every query: incremental, witness and
    /// given-up ones alike, so they cover exactly the queries `queries`
    /// counts.
    counters: SolverCounters,
    /// When set, every `check()` appends a [`QueryRecord`]. Off by
    /// default so un-instrumented runs pay nothing but this flag test.
    record_queries: bool,
    /// When set (implies `record_queries` effects at the solver level),
    /// the SAT core's search instrumentation is enabled and every
    /// recorded query carries its [`SearchSummary`]. Off by default.
    record_search: bool,
    /// Recorded queries awaiting [`ProcAnalyzer::take_query_records`].
    query_log: Vec<QueryRecord>,
    /// The monotone dominance cache (`None` when disabled).
    cache: Option<QueryCache>,
    /// One selector literal per distinct body term: re-installing the
    /// same specification returns the original selector, so repeated
    /// queries share an assumption key. Unconditional (not gated on the
    /// dominance cache) so both cache modes install identical assertion
    /// streams and issue identically-keyed queries.
    selector_memo: std::collections::HashMap<TermId, Selector>,
    /// Memoized [`ProcAnalyzer::failure_witness`] answers by canonical
    /// assumption key. Sound because the witness oracle is a pure
    /// function of the base assertion stream and the key; unconditional
    /// so both cache modes report the witness computed at the same
    /// pipeline point.
    witness_memo:
        std::collections::HashMap<Vec<TermId>, Option<std::collections::BTreeMap<String, i64>>>,
    /// Every assertion installed unconditionally, in order: the encode
    /// guard implications plus selector/indicator definitions, but *not*
    /// session-scoped ALL-SAT blocking clauses. Replaying this stream
    /// into a fresh solver reproduces the query semantics (blocking
    /// clauses are ¬session-guarded and session literals occur nowhere
    /// else), making witness models a pure function of the encoding and
    /// the query — identical whether or not the cache pruned earlier
    /// queries.
    base_asserts: Vec<TermId>,
    /// Session-scoped hash-consing arena for IR-level formulas: every
    /// specification/predicate translated through this analyzer is
    /// interned here, so repeated subterms across configurations and
    /// ALL-SAT rounds share ids (and memoized work).
    arena: TermArena,
    /// Memoized IR-term → solver-term translation against the fixed
    /// `input_env` (sound: the environment never changes post-encode).
    xlate_memo: std::collections::HashMap<IrTermId, TermId>,
    /// Per-claim certificate store with its proof-logging replay solver
    /// (`None` until [`ProcAnalyzer::enable_certs`]). The replay solver
    /// sees only the base assertion stream, guarded blocking clauses
    /// and certified queries, never the staged query path; its proof
    /// log is the store's shared log. Certification runs *outside* the
    /// budget, deadline, chaos stream, and query counters, so enabling
    /// it never perturbs reported results.
    certs: Option<(CertStore, Solver)>,
}

struct EncodeState {
    env: Env,
    /// Path constraint to the current point.
    pc: TermId,
    /// Accumulated fail guards (built as encoding proceeds).
    fails: Vec<(AssertId, TermId)>,
    locs: Vec<(LocId, TermId)>,
    next_loc: u32,
}

impl ProcAnalyzer {
    /// Encodes a desugared procedure.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] if the body refers to unbound names
    /// (indicates a front-end bug).
    pub fn new(
        proc: &DesugaredProc,
        config: AnalyzerConfig,
    ) -> Result<ProcAnalyzer, TranslateError> {
        let mut ctx = Ctx::new();
        let mut solver = Solver::new();

        // Initial incarnations: every named variable (params, returns,
        // locals, globals) is an unconstrained symbol; ν-constants too.
        let mut env = Env::default();
        for (name, sort) in &proc.vars {
            let t = match sort {
                Sort::Int => ctx.mk_int_var(format!("{name}!0")),
                Sort::Map => ctx.mk_map_var(format!("{name}!0")),
            };
            env.vars.insert(name.clone(), t);
        }
        for (nu, sort) in &proc.nus {
            let t = match sort {
                Sort::Int => ctx.mk_int_var(format!("{nu}")),
                Sort::Map => ctx.mk_map_var(format!("{nu}")),
            };
            env.nus.insert(nu.clone(), t);
        }
        let input_env = env.clone();

        let mut st = EncodeState {
            env,
            pc: ctx.mk_bool(true),
            fails: Vec::new(),
            locs: Vec::new(),
            next_loc: 0,
        };
        encode(&mut ctx, &mut st, &proc.body)?;
        debug_assert_eq!(
            st.locs.len(),
            enumerate_locations(&proc.body).len(),
            "location enumeration must match the canonical walk"
        );

        // Materialize guard literals.
        let loc_pcs = st.locs.clone();
        let mut base_asserts = Vec::new();
        let mut loc_guards = Vec::with_capacity(st.locs.len());
        for (id, pc) in st.locs {
            let g = ctx.fresh_bool_var(&format!("reach_L{}", id.0));
            let imp = ctx.mk_implies(g, pc);
            solver.assert_term(&mut ctx, imp);
            base_asserts.push(imp);
            loc_guards.push((id, g));
        }
        let mut assert_guards = Vec::with_capacity(st.fails.len());
        let mut fail_disjuncts = Vec::new();
        for (id, cond) in st.fails {
            let g = ctx.fresh_bool_var(&format!("fail_{id}"));
            let imp = ctx.mk_implies(g, cond);
            solver.assert_term(&mut ctx, imp);
            base_asserts.push(imp);
            assert_guards.push((id, g));
            fail_disjuncts.push(g);
        }
        let fail_any = ctx.fresh_bool_var("fail_any");
        let disj = ctx.mk_or(fail_disjuncts);
        let imp = ctx.mk_implies(fail_any, disj);
        solver.assert_term(&mut ctx, imp);
        base_asserts.push(imp);

        Ok(ProcAnalyzer {
            ctx,
            solver,
            loc_guards,
            loc_pcs,
            loc_indicators: Vec::new(),
            assert_guards,
            fail_any,
            input_env,
            budget: Budget::new(config.conflict_budget),
            deadline: Deadline::new(config.deadline),
            chaos: config.chaos.map(ChaosSolver::new),
            queries: 0,
            counters: SolverCounters::default(),
            record_queries: false,
            record_search: false,
            query_log: Vec::new(),
            cache: config.query_cache.then(QueryCache::new),
            selector_memo: std::collections::HashMap::new(),
            witness_memo: std::collections::HashMap::new(),
            base_asserts,
            arena: TermArena::new(),
            xlate_memo: std::collections::HashMap::new(),
            certs: None,
        })
    }

    /// Whether the monotone dominance cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// The cache's monotone hit/miss counters (all zero when the cache
    /// is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(QueryCache::stats)
            .unwrap_or_default()
    }

    /// Exports the dominance cache's antichains (`None` when the cache
    /// is disabled).
    pub fn cache_snapshot(&self) -> Option<crate::cache::CacheSnapshot> {
        self.cache.as_ref().map(QueryCache::snapshot)
    }

    /// Enables (or disables) per-query [`QueryRecord`] collection — the
    /// solver-query hook. Disabled by default; when disabled, `check()`
    /// pays only a branch.
    pub fn set_query_recording(&mut self, on: bool) {
        self.record_queries = on;
    }

    /// Enables (or disables) CDCL search recording: the SAT core's
    /// [`acspec_smt::SearchObserver`] is installed and every recorded
    /// query carries a per-query [`SearchSummary`]. Independent of
    /// (but only observable through) query recording; off by default so
    /// the solver search loop stays instrumentation-free.
    pub fn set_search_recording(&mut self, on: bool) {
        self.record_search = on;
        if on {
            self.solver.enable_search();
        }
    }

    /// Drains the recorded queries (issue order).
    pub fn take_query_records(&mut self) -> Vec<QueryRecord> {
        std::mem::take(&mut self.query_log)
    }

    /// The work counters summed over every query so far (see
    /// `counters`): the sum of the [`QueryRecord::counters`] of every
    /// query, recorded or not.
    pub fn query_counters(&self) -> SolverCounters {
        self.counters
    }

    /// Resets the conflict pool to its configured size. A session
    /// sharing one analyzer across configurations calls this between
    /// configurations, so each gets the same pool the old
    /// one-analyzer-per-config drivers granted. The wall-clock deadline
    /// (when one is configured) restarts with the pool.
    pub fn refill_budget(&mut self) {
        self.budget.refill();
        self.deadline.restart();
    }

    /// Number of entries currently held by the dominance cache (0 when
    /// disabled). Diagnostic: the Unknown-is-never-cached test keys off
    /// this.
    pub fn cache_entries(&self) -> usize {
        self.cache.as_ref().map_or(0, QueryCache::len)
    }

    /// The chaos harness's monotone injection counters (all zero when
    /// the harness is disabled).
    pub fn chaos_stats(&self) -> ChaosStats {
        self.chaos
            .as_ref()
            .map(ChaosSolver::stats)
            .unwrap_or_default()
    }

    /// Pre-query fault gate shared by [`ProcAnalyzer::check`] and
    /// [`ProcAnalyzer::witness_check`]: budget pre-exhaustion, deadline
    /// expiry, then a draw from the chaos stream. Returns `Err` to
    /// abort the query, `Ok(true)` to stall it first (injected
    /// latency), `Ok(false)` to run it normally.
    fn pre_query_gate(&mut self) -> Result<bool, FaultReason> {
        if self.budget.exhausted() {
            return Err(FaultReason::Conflicts);
        }
        if self.deadline.exceeded() {
            return Err(self.give_up(FaultReason::Deadline));
        }
        if let Some(chaos) = &mut self.chaos {
            match chaos.next_fault() {
                None => {}
                Some(ChaosFault::Unknown) => return Err(self.give_up(FaultReason::Chaos)),
                Some(ChaosFault::Panic) => {
                    panic!("chaos: injected panic before query {}", self.queries)
                }
                Some(ChaosFault::BudgetBlowup) => {
                    // Simulate one pathological query burning (at least)
                    // half the remaining pool.
                    if let Some(left) = self.budget.left() {
                        self.budget.charge((left / 2).max(1_000));
                    }
                    if self.budget.exhausted() {
                        return Err(FaultReason::Chaos);
                    }
                }
                Some(ChaosFault::Latency) => return Ok(true),
            }
        }
        Ok(false)
    }

    /// Records a query-shaped `Unknown { reason }` instead of a hard
    /// stop: it counts as a query and lands in the query log, but never
    /// in the dominance cache — callers see `Err(reason)` and the cache
    /// insert only happens on `Ok`.
    fn give_up(&mut self, reason: FaultReason) -> FaultReason {
        // The solver was never consulted: no work, no search to report.
        self.account(
            QueryOutcome::Unknown { reason },
            0.0,
            SolverCounters::default(),
            None,
        );
        reason
    }

    /// The accounting tail every query shares: one more query, its work
    /// counters into the running total and, when recording, its record
    /// into the query log.
    fn account(
        &mut self,
        outcome: QueryOutcome,
        seconds: f64,
        counters: SolverCounters,
        search: Option<SearchSummary>,
    ) {
        self.queries += 1;
        self.counters.add(&counters);
        if self.record_queries {
            self.query_log.push(QueryRecord {
                seq: (self.queries - 1) as u32,
                outcome,
                seconds,
                counters,
                search,
            });
        }
    }

    /// The tracked locations.
    pub fn locations(&self) -> Vec<LocId> {
        self.loc_guards.iter().map(|&(id, _)| id).collect()
    }

    /// The assertions.
    pub fn assertions(&self) -> Vec<AssertId> {
        self.assert_guards.iter().map(|&(id, _)| id).collect()
    }

    /// The input environment (initial incarnations and ν-constants) —
    /// predicates and specifications are translated against this.
    pub fn input_env(&self) -> &Env {
        &self.input_env
    }

    /// Installs an environment specification (a formula over inputs) and
    /// returns its selector. The formula constrains inputs only while its
    /// selector is passed in the active set.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] if the formula refers to names outside
    /// the input vocabulary.
    pub fn add_selector(&mut self, spec: &Formula) -> Result<Selector, TranslateError> {
        let fid = self.arena.intern_formula(spec);
        let body = self.translate_interned(fid)?;
        Ok(self.add_selector_term(body))
    }

    /// The session's hash-consing arena (predicates, specifications, and
    /// mined formulas intern here so memoized transforms are shared
    /// across stages and configurations).
    pub fn arena_mut(&mut self) -> &mut TermArena {
        &mut self.arena
    }

    /// Arena instrumentation (intern counts, memo hits per transformer),
    /// including the analyzer-owned translation memo.
    pub fn term_stats(&self) -> TermStats {
        self.arena.stats()
    }

    /// Translates an interned formula/expression to a solver term against
    /// the fixed input environment, memoized per interned id: each shared
    /// subterm is walked once per session.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] if the term refers to names outside
    /// the input vocabulary.
    pub fn translate_interned(&mut self, t: IrTermId) -> Result<TermId, TranslateError> {
        interned_to_term(
            &mut self.ctx,
            &self.input_env,
            &mut self.arena,
            t,
            &mut self.xlate_memo,
        )
    }

    /// Interns a formula and installs an indicator for its translation
    /// (see [`ProcAnalyzer::add_indicator`]); the translation is memoized
    /// against the session arena.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] if the formula refers to names outside
    /// the input vocabulary.
    pub fn add_indicator_formula(&mut self, f: &Formula) -> Result<TermId, TranslateError> {
        let fid = self.arena.intern_formula(f);
        let body = self.translate_interned(fid)?;
        Ok(self.add_indicator(body))
    }

    /// Installs a boolean term (over input-vocabulary terms) as a
    /// selector. A fresh-literal definition: cached answers survive it.
    /// Terms are hash-consed, so re-installing a previously installed
    /// body returns its existing selector instead of asserting a
    /// duplicate implication — repeated specifications (e.g. prune
    /// variants that pruned nothing) then share one assumption key.
    pub fn add_selector_term(&mut self, body: TermId) -> Selector {
        if let Some(&s) = self.selector_memo.get(&body) {
            return s;
        }
        let s = self.ctx.fresh_bool_var("sel");
        let imp = self.ctx.mk_implies(s, body);
        self.solver.assert_term(&mut self.ctx, imp);
        self.base_asserts.push(imp);
        self.selector_memo.insert(body, Selector(s));
        Selector(s)
    }

    /// Registers an indicator for a boolean term: a literal forced equal
    /// to the term's truth value in every model (used for ALL-SAT
    /// enumeration by the predicate-cover construction). A fresh-literal
    /// definition: cached answers survive it.
    pub fn add_indicator(&mut self, body: TermId) -> TermId {
        let b = self.ctx.fresh_bool_var("ind");
        let iff = self.ctx.mk_iff(b, body);
        self.solver.assert_term(&mut self.ctx, iff);
        self.base_asserts.push(iff);
        b
    }

    /// Adds a permanent clause over boolean terms (used for ALL-SAT
    /// blocking). The formula strengthens, so known-satisfiable cache
    /// entries are dropped (known-unsatisfiable ones survive).
    pub fn add_clause(&mut self, parts: &[TermId]) {
        self.solver.add_clause_terms(&mut self.ctx, parts);
        if let Some(cache) = &mut self.cache {
            cache.invalidate_sat();
        }
    }

    /// The truth value of a term in the last model (after a `Sat` query).
    pub fn model_bool(&self, t: TermId) -> Option<bool> {
        self.solver.bool_value(t)
    }

    /// If `assert` can fail under the active selectors, returns a
    /// concrete input witness for one failing execution.
    ///
    /// The witness query runs against a fresh replay of the base
    /// assertion stream (see `base_asserts`), so the model — and hence
    /// the reported witness — is a pure function of the encoding and the
    /// query, independent of the incremental solver's heuristic state
    /// and of whether the dominance cache pruned earlier queries. A
    /// cached `Unsat` still short-circuits (no model needed to refute);
    /// a cached `Sat` never does (a model is the whole point).
    ///
    /// # Errors
    ///
    /// Returns the [`FaultReason`] if the query gave up.
    pub fn failure_witness(
        &mut self,
        assert: AssertId,
        active: &[Selector],
    ) -> Result<Option<std::collections::BTreeMap<String, i64>>, FaultReason> {
        let g = self
            .assert_guards
            .iter()
            .find(|&&(id, _)| id == assert)
            .map(|&(_, g)| g)
            .expect("unknown assertion");
        let mut assumptions: Vec<TermId> = active.iter().map(|s| s.0).collect();
        assumptions.push(g);
        let key = QueryCache::canonical(&assumptions);
        if let Some(w) = self.witness_memo.get(&key) {
            return Ok(w.clone());
        }
        if let Some(cache) = &mut self.cache {
            if cache.refuted(&key) {
                self.witness_memo.insert(key, None);
                return Ok(None);
            }
        }
        let witness = self.witness_check(&assumptions)?;
        if let Some(cache) = &mut self.cache {
            cache.insert(key.clone(), witness.is_some());
        }
        self.witness_memo.insert(key, witness.clone());
        Ok(witness)
    }

    /// Solves `assumptions` against a fresh solver loaded with the base
    /// assertion stream and, if satisfiable, reads the integer input
    /// witness from that solver's model. Charged to the budget and
    /// accounted exactly like an incremental `check()`.
    fn witness_check(
        &mut self,
        assumptions: &[TermId],
    ) -> Result<Option<std::collections::BTreeMap<String, i64>>, FaultReason> {
        let stall = self.pre_query_gate()?;
        let start = std::time::Instant::now();
        if stall {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let mut solver = Solver::new();
        if self.record_search {
            // Fresh solver per witness query: install the observer so
            // witness queries report search summaries like any other.
            solver.enable_search();
        }
        for &t in &self.base_asserts {
            solver.assert_term(&mut self.ctx, t);
        }
        solver.set_sat_budget(self.budget.left());
        let result = solver.check(&mut self.ctx, assumptions);
        self.budget.charge(solver.conflicts());
        let search = solver.take_search_summary();
        self.account(
            result.into(),
            start.elapsed().as_secs_f64(),
            solver.counters(),
            search,
        );
        if !decided(result)? {
            return Ok(None);
        }
        let mut out = std::collections::BTreeMap::new();
        for (name, &t) in &self.input_env.vars {
            if let Some(v) = solver.int_value(t) {
                out.insert(name.clone(), v);
            }
        }
        for (nu, &t) in &self.input_env.nus {
            if let Some(v) = solver.int_value(t) {
                out.insert(nu.to_string(), v);
            }
        }
        Ok(Some(out))
    }

    /// `check()` behind the dominance cache: answers by lattice
    /// dominance when possible, otherwise solves and records the
    /// verdict. Only used for queries whose assumption set is exactly
    /// selectors-plus-guards — ALL-SAT sessions and model-reading
    /// callers go straight to [`ProcAnalyzer::check`].
    fn check_cached(&mut self, assumptions: &[TermId]) -> Result<bool, FaultReason> {
        let key = match &mut self.cache {
            None => return self.check(assumptions),
            Some(cache) => {
                let key = QueryCache::canonical(assumptions);
                if let Some(answer) = cache.lookup(&key) {
                    return Ok(answer);
                }
                key
            }
        };
        let answer = self.check(assumptions)?;
        if let Some(cache) = &mut self.cache {
            cache.insert(key, answer);
        }
        Ok(answer)
    }

    fn check(&mut self, assumptions: &[TermId]) -> Result<bool, FaultReason> {
        let stall = self.pre_query_gate()?;
        let start = std::time::Instant::now();
        if stall {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let before = self.solver.counters();
        // Bound this query by the remaining per-procedure pool.
        self.solver.set_sat_budget(self.budget.left());
        let result = self.solver.check(&mut self.ctx, assumptions);
        let spent = self.solver.conflicts() - before.conflicts;
        self.budget.charge(spent);
        // Taken per query even when the log is off, so the observer's
        // accumulation window always spans exactly one query.
        let search = self.solver.take_search_summary();
        self.account(
            result.into(),
            start.elapsed().as_secs_f64(),
            self.solver.counters().since(&before),
            search,
        );
        decided(result)
    }

    /// Is the given tracked location reachable under the active selectors?
    ///
    /// # Errors
    ///
    /// Returns the [`FaultReason`] if a query gave up.
    pub fn is_reachable(&mut self, loc: LocId, active: &[Selector]) -> Result<bool, FaultReason> {
        let g = self
            .loc_guards
            .iter()
            .find(|&&(id, _)| id == loc)
            .map(|&(_, g)| g)
            .expect("unknown location");
        let mut assumptions: Vec<TermId> = active.iter().map(|s| s.0).collect();
        assumptions.push(g);
        self.check_cached(&assumptions)
    }

    /// Can the given assertion fail under the active selectors?
    ///
    /// # Errors
    ///
    /// Returns the [`FaultReason`] if a query gave up.
    pub fn can_fail(&mut self, assert: AssertId, active: &[Selector]) -> Result<bool, FaultReason> {
        let g = self
            .assert_guards
            .iter()
            .find(|&&(id, _)| id == assert)
            .map(|&(_, g)| g)
            .expect("unknown assertion");
        let mut assumptions: Vec<TermId> = active.iter().map(|s| s.0).collect();
        assumptions.push(g);
        self.check_cached(&assumptions)
    }

    /// `Dead(f)` for the input set selected by `active` (§2.3): the
    /// tracked locations unreachable from every selected input state.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultReason`] if a query gave up.
    pub fn dead_set(&mut self, active: &[Selector]) -> Result<BTreeSet<LocId>, FaultReason> {
        let locs = self.locations();
        let mut dead = BTreeSet::new();
        for l in locs {
            if !self.is_reachable(l, active)? {
                dead.insert(l);
            }
        }
        Ok(dead)
    }

    /// `Fail(f)` for the input set selected by `active` (§2.3): the
    /// assertions that can fail on at least one execution from a selected
    /// input state.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultReason`] if a query gave up.
    pub fn fail_set(&mut self, active: &[Selector]) -> Result<BTreeSet<AssertId>, FaultReason> {
        let asserts = self.assertions();
        let mut fail = BTreeSet::new();
        for a in asserts {
            if self.can_fail(a, active)? {
                fail.insert(a);
            }
        }
        Ok(fail)
    }

    /// Whether *some* assertion can fail under the active selectors —
    /// i.e. satisfiability of `f ∧ ¬wp(pr, true)`, the `VC(pr)` check of
    /// §4.1. The `extra` assumptions are appended (used by ALL-SAT).
    ///
    /// # Errors
    ///
    /// Returns the [`FaultReason`] if a query gave up.
    pub fn any_failure(
        &mut self,
        active: &[Selector],
        extra: &[TermId],
    ) -> Result<bool, FaultReason> {
        let mut assumptions: Vec<TermId> = active.iter().map(|s| s.0).collect();
        assumptions.push(self.fail_any);
        assumptions.extend_from_slice(extra);
        if extra.is_empty() {
            self.check_cached(&assumptions)
        } else {
            // ALL-SAT sessions read the model afterwards; a dominance
            // answer would leave it stale.
            self.check(&assumptions)
        }
    }

    /// Whether the selected input-state set is non-empty (theory
    /// consistency of the selectors plus `extra` assumptions), with no
    /// reachability or failure forced. Used for semantic normalization of
    /// specifications.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultReason`] if a query gave up.
    pub fn is_consistent(
        &mut self,
        active: &[Selector],
        extra: &[TermId],
    ) -> Result<bool, FaultReason> {
        let mut assumptions: Vec<TermId> = active.iter().map(|s| s.0).collect();
        assumptions.extend_from_slice(extra);
        if extra.is_empty() {
            self.check_cached(&assumptions)
        } else {
            // Callers passing extras (normal-form ALL-SAT, subset
            // implication probes) read models or use session literals.
            self.check(&assumptions)
        }
    }

    /// Enables per-claim certification. Certificates are built by
    /// replaying queries into one proof-logging replay solver loaded
    /// with the base assertion stream, so they are a deterministic
    /// function of the procedure's certification sequence, independent
    /// of the dominance cache, the incremental solver's state, and any
    /// chaos faults injected on the query path. Certification charges
    /// nothing to the budget, deadline, chaos stream, or query
    /// counters: enabling it leaves reported results byte-identical.
    pub fn enable_certs(&mut self) {
        if self.certs.is_none() {
            let mut solver = Solver::new();
            solver.enable_proof();
            self.certs = Some((CertStore::new(), solver));
        }
    }

    /// The certificate store built so far (its literal table is filled
    /// by [`ProcAnalyzer::take_cert_store`]).
    pub fn cert_store(&self) -> Option<&CertStore> {
        self.certs.as_ref().map(|(store, _)| store)
    }

    /// Takes ownership of the certificate store, with its literal table
    /// filled, and drops the replay solver (disables further
    /// certification until [`ProcAnalyzer::enable_certs`] again).
    pub fn take_cert_store(&mut self) -> Option<CertStore> {
        let (mut store, solver) = self.certs.take()?;
        store.record_lits(&solver);
        Some(store)
    }

    /// Certifies the query `base ∧ blocking ∧ assumptions` by replay
    /// and returns the certificate's index in the store, or `None` when
    /// certification is disabled. Deduplicated by canonical assumption
    /// key: a claim answered by the dominance cache references the
    /// certificate of the originating query rather than fabricating a
    /// new one.
    pub fn certify_assumptions(
        &mut self,
        assumptions: &[TermId],
        blocking: &[Vec<TermId>],
    ) -> Option<usize> {
        let (store, solver) = self.certs.as_mut()?;
        let key = QueryCache::canonical(assumptions);
        Some(store.certify(&mut self.ctx, solver, &self.base_asserts, &key, blocking))
    }

    /// Certificate for [`ProcAnalyzer::is_reachable`] on `loc` (Sat =
    /// reachable witness, Unsat = dead-code proof).
    pub fn certify_reachable(&mut self, loc: LocId, active: &[Selector]) -> Option<usize> {
        let g = self
            .loc_guards
            .iter()
            .find(|&&(id, _)| id == loc)
            .map(|&(_, g)| g)
            .expect("unknown location");
        let mut assumptions: Vec<TermId> = active.iter().map(|s| s.0).collect();
        assumptions.push(g);
        self.certify_assumptions(&assumptions, &[])
    }

    /// Certificate for [`ProcAnalyzer::can_fail`] on `assert` (Sat =
    /// failure model, Unsat = suppression proof).
    pub fn certify_can_fail(&mut self, assert: AssertId, active: &[Selector]) -> Option<usize> {
        let g = self
            .assert_guards
            .iter()
            .find(|&&(id, _)| id == assert)
            .map(|&(_, g)| g)
            .expect("unknown assertion");
        let mut assumptions: Vec<TermId> = active.iter().map(|s| s.0).collect();
        assumptions.push(g);
        self.certify_assumptions(&assumptions, &[])
    }

    /// Certificate for [`ProcAnalyzer::any_failure`], optionally under
    /// blocking clauses (the ALL-SAT exhaustion proof passes the cover's
    /// accumulated blocking clauses and expects Unsat).
    pub fn certify_any_failure(
        &mut self,
        active: &[Selector],
        extra: &[TermId],
        blocking: &[Vec<TermId>],
    ) -> Option<usize> {
        let mut assumptions: Vec<TermId> = active.iter().map(|s| s.0).collect();
        assumptions.push(self.fail_any);
        assumptions.extend_from_slice(extra);
        self.certify_assumptions(&assumptions, blocking)
    }

    /// Certificate for [`ProcAnalyzer::is_consistent`].
    pub fn certify_consistent(&mut self, active: &[Selector], extra: &[TermId]) -> Option<usize> {
        let mut assumptions: Vec<TermId> = active.iter().map(|s| s.0).collect();
        assumptions.extend_from_slice(extra);
        self.certify_assumptions(&assumptions, &[])
    }

    /// Remaining conflict budget (diagnostics).
    pub fn budget_left(&self) -> Option<u64> {
        self.budget.left()
    }

    /// Enumerates the *path profiles* feasible under the active
    /// selectors: the distinct truth vectors of the tracked-location
    /// reach conditions over all executions (ALL-SAT, capped at `cap`
    /// profiles). This supports the paper's alternative `Dead` metric
    /// "in terms of path coverage rather than branch coverage" (§2.3):
    /// a specification kills a *path* iff a profile feasible under `true`
    /// disappears.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultReason`] if a query gave up, or
    /// [`FaultReason::Cap`] past `cap` profiles.
    pub fn path_profiles(
        &mut self,
        active: &[Selector],
        cap: usize,
    ) -> Result<BTreeSet<Vec<bool>>, FaultReason> {
        // Lazily create an indicator per tracked location: b ⇔ pc_l.
        if self.loc_indicators.is_empty() {
            let guards: Vec<(acspec_ir::locs::LocId, TermId)> = self.loc_pcs.clone();
            for (_, pc) in guards {
                let b = self.add_indicator(pc);
                self.loc_indicators.push(b);
            }
        }
        let session = self.ctx.fresh_bool_var("paths");
        let not_session = self.ctx.mk_not(session);
        let mut profiles = BTreeSet::new();
        loop {
            let mut assumptions: Vec<TermId> = active.iter().map(|s| s.0).collect();
            assumptions.push(session);
            if !self.check(&assumptions)? {
                break;
            }
            let mut vector = Vec::with_capacity(self.loc_indicators.len());
            let mut blocking: Vec<TermId> = vec![not_session];
            for &b in &self.loc_indicators.clone() {
                let v = self.model_bool(b).unwrap_or(false);
                vector.push(v);
                blocking.push(if v { self.ctx.mk_not(b) } else { b });
            }
            self.add_clause(&blocking);
            profiles.insert(vector);
            if profiles.len() > cap {
                return Err(FaultReason::Cap);
            }
        }
        Ok(profiles)
    }
}

/// Symbolic execution with ite-merging.
fn encode(ctx: &mut Ctx, st: &mut EncodeState, s: &Stmt) -> Result<(), TranslateError> {
    match s {
        Stmt::Skip => Ok(()),
        Stmt::Assert { id, cond, .. } => {
            let c = formula_to_term(ctx, &st.env, cond)?;
            let id = id.expect("asserts numbered by desugaring");
            let nc = ctx.mk_not(c);
            let fail_cond = ctx.mk_and(vec![st.pc, nc]);
            st.fails.push((id, fail_cond));
            // Execution continues past the assert only if it held.
            st.pc = ctx.mk_and(vec![st.pc, c]);
            Ok(())
        }
        Stmt::Assume(cond) => {
            let c = formula_to_term(ctx, &st.env, cond)?;
            st.pc = ctx.mk_and(vec![st.pc, c]);
            let id = LocId(st.next_loc);
            st.next_loc += 1;
            st.locs.push((id, st.pc));
            Ok(())
        }
        Stmt::Assign(x, e) => {
            let t = expr_to_term(ctx, &st.env, e)?;
            st.env.vars.insert(x.clone(), t);
            Ok(())
        }
        Stmt::Havoc(x) => {
            let old = st
                .env
                .vars
                .get(x)
                .copied()
                .ok_or_else(|| TranslateError::UnboundVar(x.clone()))?;
            let fresh = match ctx.sort(old) {
                acspec_smt::TermSort::Map => ctx.fresh_map_var(&format!("{x}!h")),
                _ => ctx.fresh_int_var(&format!("{x}!h")),
            };
            st.env.vars.insert(x.clone(), fresh);
            Ok(())
        }
        Stmt::Seq(ss) => {
            for s in ss {
                encode(ctx, st, s)?;
            }
            Ok(())
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let c = match cond {
                BranchCond::Det(f) => formula_to_term(ctx, &st.env, f)?,
                BranchCond::NonDet => ctx.fresh_bool_var("choice"),
            };
            let entry_pc = st.pc;
            let entry_env = st.env.clone();

            // Then branch.
            let then_loc = LocId(st.next_loc);
            st.next_loc += 1;
            st.pc = ctx.mk_and(vec![entry_pc, c]);
            st.locs.push((then_loc, st.pc));
            encode(ctx, st, then_branch)?;
            let then_pc = st.pc;
            let then_env = std::mem::take(&mut st.env);

            // Else branch.
            let nc = ctx.mk_not(c);
            let else_loc = LocId(st.next_loc);
            st.next_loc += 1;
            st.env = entry_env;
            st.pc = ctx.mk_and(vec![entry_pc, nc]);
            st.locs.push((else_loc, st.pc));
            encode(ctx, st, else_branch)?;
            let else_pc = st.pc;
            let else_env = std::mem::take(&mut st.env);

            // Join: merge path constraints and variable values.
            st.pc = ctx.mk_or(vec![then_pc, else_pc]);
            let mut merged = Env {
                nus: then_env.nus,
                ..Env::default()
            };
            for (name, &tv) in &then_env.vars {
                let ev = *else_env
                    .vars
                    .get(name)
                    .expect("same variables in both branches");
                let value = if tv == ev { tv } else { ctx.mk_ite(c, tv, ev) };
                merged.vars.insert(name.clone(), value);
            }
            st.env = merged;
            Ok(())
        }
        Stmt::Call { .. } | Stmt::While { .. } => {
            panic!("analyzer requires a core (desugared) body")
        }
    }
}
