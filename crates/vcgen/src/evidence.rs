//! Per-claim evidence: machine-checkable certificates for query
//! verdicts (the proof-carrying-warnings refactor).
//!
//! Every claim that surfaces in a report — a `Fail` warning, a `Dead`
//! location, a predicate-cover cube, a weakening step — is backed by a
//! [`QueryCert`] built by *replaying* the query into the procedure's
//! proof-logging replay solver, which holds the base assertion stream
//! and nothing from the staged query path. Replay-based certification
//! keeps the incremental query plan untouched: certificates are
//! produced outside the budget, the chaos stream, and the query
//! counters, so a run with certification enabled reports byte-identical
//! results.
//!
//! A satisfiable verdict carries a full first-order model: integer and
//! boolean variable assignments plus finite-table-with-default
//! interpretations for maps and uninterpreted functions, extracted so
//! that structural evaluation of every asserted root yields *true*. An
//! unsatisfiable verdict carries a position `log_upto` in the
//! procedure's one shared, append-only proof log plus the assumption
//! core: the log's input clauses carry provenance tags
//! ([`acspec_smt::ClauseTag`]), every learnt clause is a
//! reverse-unit-propagation consequence of the events before it, and
//! the core propagates to a conflict against `log[..log_upto]` — the
//! raw material an independent checker replays without trusting the
//! engine. Each clause is therefore encoded, logged and checked once
//! per procedure, not once per certificate.
//!
//! ALL-SAT blocking clauses enter the shared solver guarded: a fresh
//! boolean `g` per exhaustion query, clauses `¬g ∨ C`, and `g` among
//! that certificate's assumptions. Every other query leaves `g`
//! unassumed, so the guarded clauses are inert for it.
//!
//! Certificates within one procedure share a term table (terms are
//! hash-consed per analyzer, so ids are stable) and are deduplicated by
//! canonical assumption key: a dominance-cache hit references the same
//! certificate as the query that originally populated the cache entry,
//! so cache hits *replay or reference* evidence, never fabricate it.
//! Certificates are a deterministic function of the procedure's
//! certification sequence.

use std::collections::{BTreeMap, HashMap};

use acspec_smt::{ClauseTag, Ctx, Lit, ProofEvent, SmtResult, Solver, Term, TermId, TermSort};

/// A serialized term node (mirror of [`acspec_smt::Term`] with child
/// ids, decoupled from the live [`Ctx`] so certificates outlive it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermNode {
    /// Boolean constant `true`.
    True,
    /// Boolean constant `false`.
    False,
    /// Named boolean variable.
    BoolVar(String),
    /// Negation.
    Not(u32),
    /// N-ary conjunction.
    And(Vec<u32>),
    /// N-ary disjunction.
    Or(Vec<u32>),
    /// Implication.
    Implies(u32, u32),
    /// Bi-implication.
    Iff(u32, u32),
    /// Equality (int or map sorted operands).
    Eq(u32, u32),
    /// `a ≤ b`.
    Le(u32, u32),
    /// `a < b`.
    Lt(u32, u32),
    /// Named integer variable.
    IntVar(String),
    /// Integer constant.
    IntConst(i64),
    /// N-ary sum.
    Add(Vec<u32>),
    /// Constant multiple.
    MulC(i64, u32),
    /// Uninterpreted function application.
    App(String, Vec<u32>),
    /// Map read.
    Read(u32, u32),
    /// Map write (functional update).
    Write(u32, u32, u32),
    /// Named map variable.
    MapVar(String),
    /// If-then-else.
    Ite(u32, u32, u32),
}

/// A map value: a finite table over a distinct-per-map default.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MapValue {
    /// Value at every index not listed in `entries`.
    pub default: i64,
    /// Explicit index → value entries.
    pub entries: BTreeMap<i64, i64>,
}

/// An uninterpreted-function value: a finite table with a default.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FuncValue {
    /// Value at every argument tuple not listed in `entries`.
    pub default: i64,
    /// Explicit argument-tuple → value entries.
    pub entries: BTreeMap<Vec<i64>, i64>,
}

/// A full first-order model: evidence for a `Sat` verdict.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModelTables {
    /// Integer variable values, by name.
    pub ints: BTreeMap<String, i64>,
    /// Boolean variable values, by name.
    pub bools: BTreeMap<String, bool>,
    /// Map variable values, by name.
    pub maps: BTreeMap<String, MapValue>,
    /// Uninterpreted function values, by name.
    pub funcs: BTreeMap<String, FuncValue>,
}

/// One proof-log event: an input clause with provenance, or a learnt
/// clause (serialized form of [`acspec_smt::ProofEvent`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertEvent {
    /// A caller/theory/Tseitin input clause.
    Input {
        /// Clause literals as signed ints (`var+1`, negative = negated).
        lits: Vec<i64>,
        /// Provenance.
        tag: CertTag,
    },
    /// A learnt clause (RUP consequence of everything before it).
    Learnt {
        /// Clause literals as signed ints.
        lits: Vec<i64>,
    },
}

/// Serialized clause provenance (mirror of [`acspec_smt::ClauseTag`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertTag {
    /// Unit clause asserting a root term.
    Assert {
        /// The asserted term.
        term: u32,
    },
    /// Unit clause from ite purification.
    Purify {
        /// The guarded-equation term.
        term: u32,
        /// The lifted `Ite`.
        ite: u32,
        /// The fresh variable standing for its value.
        var: u32,
    },
    /// Tseitin definitional clause of a term.
    Tseitin {
        /// The encoded term.
        term: u32,
    },
    /// Theory lemma / conflict clause over (term, polarity) literals.
    Theory {
        /// The clause parts.
        parts: Vec<(u32, bool)>,
    },
    /// Caller blocking clause `¬guard ∨ parts`.
    Guarded {
        /// The fresh guard variable term.
        guard: u32,
        /// The clause part terms.
        parts: Vec<u32>,
    },
}

/// Proof evidence for an `Unsat` verdict: a prefix of the procedure's
/// shared proof log ([`CertStore::log`]) and the blamed core.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProofData {
    /// How many log events the verdict rests on: the core propagates
    /// to a conflict against `log[..log_upto]`.
    pub log_upto: usize,
    /// The assumption terms responsible for unsatisfiability (a subset
    /// of the certificate's assumptions; empty = clauses alone).
    pub core: Vec<u32>,
}

/// The verdict a certificate backs, with its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertOutcome {
    /// Satisfiable, with a full model.
    Sat(ModelTables),
    /// Unsatisfiable, with a replayable proof.
    Unsat(ProofData),
    /// The replay could not finish (should not happen for claims whose
    /// original query completed; kept so a degraded run stays honest).
    Unknown,
}

impl CertOutcome {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            CertOutcome::Sat(_) => "sat",
            CertOutcome::Unsat(_) => "unsat",
            CertOutcome::Unknown => "unknown",
        }
    }
}

/// One query certificate: the claim (assumptions over the shared assert
/// stream, plus optional blocking clauses) and its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryCert {
    /// Assumption term ids (canonically sorted, then the blocking guard
    /// when there are blocking clauses).
    pub assumptions: Vec<u32>,
    /// How many of the store's base asserts were installed when this
    /// query was certified (the replay asserts exactly that prefix).
    pub asserts_upto: usize,
    /// Extra clauses (ALL-SAT blocking), as term-id lists: exactly the
    /// clauses the assumed guard enables.
    pub blocking: Vec<Vec<u32>>,
    /// The verdict and its evidence.
    pub outcome: CertOutcome,
    /// Whether the engine-side self-check (structural evaluation of
    /// every asserted root for `Sat`) passed.
    pub self_checked: bool,
}

/// The per-procedure certificate store: a shared term table, the base
/// assert stream, the shared proof log with its literal table, and
/// deduplicated certificates.
#[derive(Debug, Clone, Default)]
pub struct CertStore {
    /// Serialized term nodes, by term id.
    pub terms: BTreeMap<u32, TermNode>,
    /// Base assert root term ids, in installation order.
    pub asserts: Vec<u32>,
    /// Term → signed Tseitin literal of the replay solver, for every
    /// serialized term it encoded (filled by [`CertStore::record_lits`]).
    pub lits: BTreeMap<u32, i64>,
    /// The replay solver's interleaved input/learnt event log, in
    /// chronological order; `Unsat` certificates reference prefixes.
    pub log: Vec<CertEvent>,
    /// The certificates.
    pub certs: Vec<QueryCert>,
    /// Memo: canonical (assumptions, blocking) → certificate index.
    memo: HashMap<(Vec<TermId>, Vec<Vec<TermId>>), usize>,
}

fn lit_signed(l: Lit) -> i64 {
    let v = i64::from(l.var().0) + 1;
    if l.is_positive() {
        v
    } else {
        -v
    }
}

impl CertStore {
    /// An empty store.
    pub fn new() -> CertStore {
        CertStore::default()
    }

    /// Serializes `t` (and its reachable subterms) into the shared term
    /// table.
    pub fn intern_term(&mut self, ctx: &Ctx, t: TermId) {
        if self.terms.contains_key(&t.0) {
            return;
        }
        let node = match ctx.term(t).clone() {
            Term::True => TermNode::True,
            Term::False => TermNode::False,
            Term::BoolVar(n) => TermNode::BoolVar(n),
            Term::Not(a) => {
                self.intern_term(ctx, a);
                TermNode::Not(a.0)
            }
            Term::And(ps) => {
                for &p in &ps {
                    self.intern_term(ctx, p);
                }
                TermNode::And(ps.iter().map(|p| p.0).collect())
            }
            Term::Or(ps) => {
                for &p in &ps {
                    self.intern_term(ctx, p);
                }
                TermNode::Or(ps.iter().map(|p| p.0).collect())
            }
            Term::Implies(a, b) => {
                self.intern_term(ctx, a);
                self.intern_term(ctx, b);
                TermNode::Implies(a.0, b.0)
            }
            Term::Iff(a, b) => {
                self.intern_term(ctx, a);
                self.intern_term(ctx, b);
                TermNode::Iff(a.0, b.0)
            }
            Term::Eq(a, b) => {
                self.intern_term(ctx, a);
                self.intern_term(ctx, b);
                TermNode::Eq(a.0, b.0)
            }
            Term::Le(a, b) => {
                self.intern_term(ctx, a);
                self.intern_term(ctx, b);
                TermNode::Le(a.0, b.0)
            }
            Term::Lt(a, b) => {
                self.intern_term(ctx, a);
                self.intern_term(ctx, b);
                TermNode::Lt(a.0, b.0)
            }
            Term::IntVar(n) => TermNode::IntVar(n),
            Term::IntConst(c) => TermNode::IntConst(c),
            Term::Add(ps) => {
                for &p in &ps {
                    self.intern_term(ctx, p);
                }
                TermNode::Add(ps.iter().map(|p| p.0).collect())
            }
            Term::MulC(c, a) => {
                self.intern_term(ctx, a);
                TermNode::MulC(c, a.0)
            }
            Term::App(f, args) => {
                for &a in &args {
                    self.intern_term(ctx, a);
                }
                TermNode::App(f, args.iter().map(|a| a.0).collect())
            }
            Term::Read(m, i) => {
                self.intern_term(ctx, m);
                self.intern_term(ctx, i);
                TermNode::Read(m.0, i.0)
            }
            Term::Write(m, i, v) => {
                self.intern_term(ctx, m);
                self.intern_term(ctx, i);
                self.intern_term(ctx, v);
                TermNode::Write(m.0, i.0, v.0)
            }
            Term::MapVar(n) => TermNode::MapVar(n),
            Term::Ite(c, a, b) => {
                self.intern_term(ctx, c);
                self.intern_term(ctx, a);
                self.intern_term(ctx, b);
                TermNode::Ite(c.0, a.0, b.0)
            }
        };
        self.terms.insert(t.0, node);
    }

    /// Looks up a memoized certificate for the canonical query key.
    pub fn lookup(&self, assumptions: &[TermId], blocking: &[Vec<TermId>]) -> Option<usize> {
        self.memo
            .get(&(assumptions.to_vec(), blocking.to_vec()))
            .copied()
    }

    /// Certifies the query `base_asserts ∧ blocking ∧ assumptions`
    /// (assumptions already canonical) against `solver`, the
    /// procedure's proof-logging replay solver, and returns the
    /// certificate index. Deduplicated by query key.
    ///
    /// `solver` must be the one solver every earlier call on this store
    /// used, created with proof logging on: it already holds
    /// `base_asserts[..self.asserts.len()]`, and its proof log is
    /// `self.log`.
    pub fn certify(
        &mut self,
        ctx: &mut Ctx,
        solver: &mut Solver,
        base_asserts: &[TermId],
        assumptions: &[TermId],
        blocking: &[Vec<TermId>],
    ) -> usize {
        if let Some(i) = self.lookup(assumptions, blocking) {
            return i;
        }
        debug_assert!(
            base_asserts.len() >= self.asserts.len(),
            "the base assert stream only grows"
        );
        for &t in &base_asserts[self.asserts.len()..] {
            self.intern_term(ctx, t);
            self.asserts.push(t.0);
            solver.assert_term(ctx, t);
        }
        let mut assumed = assumptions.to_vec();
        if !blocking.is_empty() {
            let guard = ctx.fresh_bool_var("block");
            for cl in blocking {
                solver.add_guarded_clause(ctx, guard, cl);
            }
            assumed.push(guard);
        }
        for &t in blocking.iter().flatten().chain(&assumed) {
            self.intern_term(ctx, t);
        }

        let result = solver.check(ctx, &assumed);
        self.record_log(ctx, solver);

        let outcome = match result {
            SmtResult::Sat => {
                let roots: Vec<TermId> = base_asserts.iter().chain(&assumed).copied().collect();
                CertOutcome::Sat(extract_model(ctx, solver, &roots))
            }
            SmtResult::Unsat => CertOutcome::Unsat(ProofData {
                log_upto: self.log.len(),
                core: solver
                    .unsat_core_terms(&assumed)
                    .iter()
                    .map(|t| t.0)
                    .collect(),
            }),
            SmtResult::Unknown => CertOutcome::Unknown,
        };

        let mut cert = QueryCert {
            assumptions: assumed.iter().map(|t| t.0).collect(),
            asserts_upto: base_asserts.len(),
            blocking: blocking
                .iter()
                .map(|cl| cl.iter().map(|t| t.0).collect())
                .collect(),
            outcome,
            self_checked: false,
        };
        cert.self_checked = self.self_check(&cert);
        let idx = self.certs.len();
        self.certs.push(cert);
        self.memo
            .insert((assumptions.to_vec(), blocking.to_vec()), idx);
        idx
    }

    /// Appends the replay solver's proof events since the last call to
    /// the shared log. Tag payloads can mention terms created inside
    /// the solver (purified atoms, branch-lemma bounds): those are
    /// serialized too.
    fn record_log(&mut self, ctx: &Ctx, solver: &Solver) {
        let tags = solver.clause_tags();
        for event in &solver.proof_events()[self.log.len()..] {
            let event = match event {
                ProofEvent::Input { lits, tag } => {
                    let tag = tags
                        .get(*tag as usize)
                        .expect("every proof-mode clause carries a tag");
                    CertEvent::Input {
                        lits: lits.iter().map(|&l| lit_signed(l)).collect(),
                        tag: self.serialize_tag(ctx, tag),
                    }
                }
                ProofEvent::Learnt { lits } => CertEvent::Learnt {
                    lits: lits.iter().map(|&l| lit_signed(l)).collect(),
                },
            };
            self.log.push(event);
        }
    }

    fn serialize_tag(&mut self, ctx: &Ctx, tag: &ClauseTag) -> CertTag {
        match tag {
            ClauseTag::Assert { term } => {
                self.intern_term(ctx, *term);
                CertTag::Assert { term: term.0 }
            }
            ClauseTag::Purify { term, ite, var } => {
                for t in [term, ite, var] {
                    self.intern_term(ctx, *t);
                }
                CertTag::Purify {
                    term: term.0,
                    ite: ite.0,
                    var: var.0,
                }
            }
            ClauseTag::Tseitin { term } => {
                self.intern_term(ctx, *term);
                CertTag::Tseitin { term: term.0 }
            }
            ClauseTag::Theory { parts } => {
                for &(t, _) in parts {
                    self.intern_term(ctx, t);
                }
                CertTag::Theory {
                    parts: parts.iter().map(|&(t, p)| (t.0, p)).collect(),
                }
            }
            ClauseTag::Guarded { guard, parts } => {
                for &t in std::iter::once(guard).chain(parts) {
                    self.intern_term(ctx, t);
                }
                CertTag::Guarded {
                    guard: guard.0,
                    parts: parts.iter().map(|t| t.0).collect(),
                }
            }
        }
    }

    /// Fills the literal table from the replay solver: every serialized
    /// term the solver encoded. Call once certification is over (terms
    /// and literals only accumulate, so the last call sees them all).
    pub(crate) fn record_lits(&mut self, solver: &Solver) {
        for (t, l) in solver.lit_table() {
            if self.terms.contains_key(&t.0) {
                self.lits.insert(t.0, lit_signed(l));
            }
        }
    }

    /// Engine-side re-evaluation of a certificate against its own
    /// serialized data (the same semantics the independent checker
    /// applies): for `Sat`, every asserted root and assumption must
    /// evaluate to *true* under the model. `Unsat`/`Unknown` pass here
    /// (their validation is the checker's proof replay).
    pub fn self_check(&self, cert: &QueryCert) -> bool {
        match &cert.outcome {
            CertOutcome::Sat(model) => {
                let mut eval = Evaluator::new(&self.terms, model);
                self.asserts[..cert.asserts_upto]
                    .iter()
                    .chain(cert.assumptions.iter())
                    .all(|&t| eval.eval_bool(t) == Some(true))
            }
            _ => true,
        }
    }
}

/// Distinct default values: maps and functions get defaults far from
/// program constants and from the solver's own synthesized witnesses,
/// distinct per symbol so extensional (dis)equality of canonical values
/// is decidable from the finite tables.
const MAP_DEFAULT_BASE: i64 = 900_000_001;
const FUNC_DEFAULT_BASE: i64 = 910_000_001;
const SYNTH_BASE: i64 = 920_000_001;

/// Extracts a full first-order model from a satisfied replay solver:
/// integer/boolean variable values straight from the solver's witness,
/// map and function tables populated from the recorded values of every
/// reachable `Read`/`App` term (consulting the solver's purified-term
/// rewrites), with distinct per-symbol defaults for unconstrained
/// points. The solver's collision lemmas guarantee the recorded values
/// are congruence-consistent, so the tables are well defined.
fn extract_model(ctx: &Ctx, solver: &Solver, roots: &[TermId]) -> ModelTables {
    // Reachable term set, sorted for determinism.
    let mut reach: Vec<TermId> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut stack: Vec<TermId> = roots.to_vec();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        reach.push(t);
        match ctx.term(t) {
            Term::Not(a) | Term::MulC(_, a) => stack.push(*a),
            Term::And(ps) | Term::Or(ps) | Term::Add(ps) => stack.extend(ps.iter().copied()),
            Term::App(_, ps) => stack.extend(ps.iter().copied()),
            Term::Implies(a, b)
            | Term::Iff(a, b)
            | Term::Eq(a, b)
            | Term::Le(a, b)
            | Term::Lt(a, b)
            | Term::Read(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            Term::Write(a, b, c) | Term::Ite(a, b, c) => {
                stack.push(*a);
                stack.push(*b);
                stack.push(*c);
            }
            _ => {}
        }
    }
    reach.sort_unstable();

    // The solver records values against purified terms.
    let solver_vals: HashMap<TermId, i64> = solver.model_int_terms().collect();
    let val_of = |t: TermId| -> Option<i64> {
        solver_vals
            .get(&t)
            .or_else(|| solver.purified_of(t).and_then(|p| solver_vals.get(&p)))
            .copied()
    };

    let mut model = ModelTables::default();
    // Distinct defaults per symbol (sorted symbol order).
    let mut map_names: Vec<String> = Vec::new();
    let mut func_names: Vec<String> = Vec::new();
    for &t in &reach {
        match ctx.term(t) {
            Term::MapVar(n) if !map_names.contains(n) => map_names.push(n.clone()),
            Term::App(f, _) if !func_names.contains(f) => func_names.push(f.clone()),
            _ => {}
        }
    }
    map_names.sort_unstable();
    func_names.sort_unstable();
    for (i, n) in map_names.iter().enumerate() {
        model.maps.insert(
            n.clone(),
            MapValue {
                default: MAP_DEFAULT_BASE + i as i64,
                entries: BTreeMap::new(),
            },
        );
    }
    for (i, n) in func_names.iter().enumerate() {
        model.funcs.insert(
            n.clone(),
            FuncValue {
                default: FUNC_DEFAULT_BASE + i as i64,
                entries: BTreeMap::new(),
            },
        );
    }

    // Base variable values.
    for &t in &reach {
        match ctx.term(t) {
            Term::IntVar(n) => {
                model.ints.insert(n.clone(), val_of(t).unwrap_or(0));
            }
            Term::BoolVar(n) => {
                model
                    .bools
                    .insert(n.clone(), solver.bool_value(t).unwrap_or(false));
            }
            _ => {}
        }
    }

    // Populate map and function tables from recorded term values. Int
    // evaluation is structural, so indices/arguments reduce to the base
    // variable values above; process sorted so ties resolve
    // deterministically.
    let mut synth = SYNTH_BASE;
    let mut int_memo: HashMap<TermId, i64> = HashMap::new();
    for &t in &reach {
        match ctx.term(t) {
            Term::Read(..) | Term::App(..) => {
                eval_populate(ctx, t, &val_of, &mut model, &mut int_memo, &mut synth);
            }
            _ => {}
        }
    }
    model
}

/// Bottom-up integer evaluation that *populates* map/function tables:
/// when a `Read` resolves through writes to a base map (or an `App` to
/// its function) and the solver recorded a value for the term, that
/// value is installed in the table; unconstrained points draw fresh
/// synthesized values so later evaluations stay consistent.
fn eval_populate(
    ctx: &Ctx,
    t: TermId,
    val_of: &dyn Fn(TermId) -> Option<i64>,
    model: &mut ModelTables,
    memo: &mut HashMap<TermId, i64>,
    synth: &mut i64,
) -> i64 {
    if let Some(&v) = memo.get(&t) {
        return v;
    }
    let v = match ctx.term(t).clone() {
        Term::IntConst(c) => c,
        Term::IntVar(n) => model.ints.get(&n).copied().unwrap_or(0),
        Term::Add(ps) => ps
            .iter()
            .map(|&p| eval_populate(ctx, p, val_of, model, memo, synth))
            .sum(),
        Term::MulC(c, a) => c.wrapping_mul(eval_populate(ctx, a, val_of, model, memo, synth)),
        Term::Ite(c, a, b) => {
            let cond = eval_bool_live(ctx, c, val_of, model, memo, synth);
            if cond {
                eval_populate(ctx, a, val_of, model, memo, synth)
            } else {
                eval_populate(ctx, b, val_of, model, memo, synth)
            }
        }
        Term::App(f, args) => {
            let vals: Vec<i64> = args
                .iter()
                .map(|&a| eval_populate(ctx, a, val_of, model, memo, synth))
                .collect();
            let table = model.funcs.entry(f).or_default();
            match table.entries.get(&vals) {
                Some(&v) => v,
                None => {
                    let v = val_of(t).unwrap_or_else(|| {
                        *synth += 1;
                        *synth
                    });
                    table.entries.insert(vals, v);
                    v
                }
            }
        }
        Term::Read(m, i) => {
            let iv = eval_populate(ctx, i, val_of, model, memo, synth);
            resolve_read(ctx, m, iv, t, val_of, model, memo, synth)
        }
        _ => 0,
    };
    memo.insert(t, v);
    v
}

/// Resolves `read(m, iv)` through writes and ites down to a base map
/// variable, populating the base table with the term's recorded value
/// when the point was previously unconstrained.
#[allow(clippy::too_many_arguments)]
fn resolve_read(
    ctx: &Ctx,
    m: TermId,
    iv: i64,
    read_term: TermId,
    val_of: &dyn Fn(TermId) -> Option<i64>,
    model: &mut ModelTables,
    memo: &mut HashMap<TermId, i64>,
    synth: &mut i64,
) -> i64 {
    match ctx.term(m).clone() {
        Term::Write(inner, wi, wv) => {
            let wiv = eval_populate(ctx, wi, val_of, model, memo, synth);
            if wiv == iv {
                eval_populate(ctx, wv, val_of, model, memo, synth)
            } else {
                resolve_read(ctx, inner, iv, read_term, val_of, model, memo, synth)
            }
        }
        Term::Ite(c, a, b) => {
            let cond = eval_bool_live(ctx, c, val_of, model, memo, synth);
            let chosen = if cond { a } else { b };
            resolve_read(ctx, chosen, iv, read_term, val_of, model, memo, synth)
        }
        Term::MapVar(n) => {
            let table = model.maps.entry(n).or_default();
            match table.entries.get(&iv) {
                Some(&v) => v,
                None => {
                    let v = val_of(read_term).unwrap_or(table.default);
                    table.entries.insert(iv, v);
                    v
                }
            }
        }
        // Map-sorted terms are variables, writes, or ites.
        _ => 0,
    }
}

/// Boolean evaluation during model extraction (for ite conditions):
/// mirrors the checker's semantics over the live `Ctx`.
fn eval_bool_live(
    ctx: &Ctx,
    t: TermId,
    val_of: &dyn Fn(TermId) -> Option<i64>,
    model: &mut ModelTables,
    memo: &mut HashMap<TermId, i64>,
    synth: &mut i64,
) -> bool {
    match ctx.term(t).clone() {
        Term::True => true,
        Term::False => false,
        Term::BoolVar(n) => model.bools.get(&n).copied().unwrap_or(false),
        Term::Not(a) => !eval_bool_live(ctx, a, val_of, model, memo, synth),
        Term::And(ps) => ps
            .iter()
            .all(|&p| eval_bool_live(ctx, p, val_of, model, memo, synth)),
        Term::Or(ps) => ps
            .iter()
            .any(|&p| eval_bool_live(ctx, p, val_of, model, memo, synth)),
        Term::Implies(a, b) => {
            !eval_bool_live(ctx, a, val_of, model, memo, synth)
                || eval_bool_live(ctx, b, val_of, model, memo, synth)
        }
        Term::Iff(a, b) => {
            eval_bool_live(ctx, a, val_of, model, memo, synth)
                == eval_bool_live(ctx, b, val_of, model, memo, synth)
        }
        Term::Eq(a, b) => {
            if ctx.sort(a) == TermSort::Map {
                canon_map_live(ctx, a, val_of, model, memo, synth)
                    == canon_map_live(ctx, b, val_of, model, memo, synth)
            } else {
                eval_populate(ctx, a, val_of, model, memo, synth)
                    == eval_populate(ctx, b, val_of, model, memo, synth)
            }
        }
        Term::Le(a, b) => {
            eval_populate(ctx, a, val_of, model, memo, synth)
                <= eval_populate(ctx, b, val_of, model, memo, synth)
        }
        Term::Lt(a, b) => {
            eval_populate(ctx, a, val_of, model, memo, synth)
                < eval_populate(ctx, b, val_of, model, memo, synth)
        }
        _ => false,
    }
}

/// The canonical (extensional) value of a map term under the model:
/// default plus normalized finite entries (entries equal to the default
/// are dropped, so extensional equality is table equality).
fn canon_map_live(
    ctx: &Ctx,
    t: TermId,
    val_of: &dyn Fn(TermId) -> Option<i64>,
    model: &mut ModelTables,
    memo: &mut HashMap<TermId, i64>,
    synth: &mut i64,
) -> (i64, BTreeMap<i64, i64>) {
    match ctx.term(t).clone() {
        Term::MapVar(n) => {
            let table = model.maps.entry(n).or_default();
            let default = table.default;
            let entries = table
                .entries
                .iter()
                .filter(|&(_, &v)| v != default)
                .map(|(&k, &v)| (k, v))
                .collect();
            (default, entries)
        }
        Term::Write(m, i, v) => {
            let (default, mut entries) = canon_map_live(ctx, m, val_of, model, memo, synth);
            let iv = eval_populate(ctx, i, val_of, model, memo, synth);
            let vv = eval_populate(ctx, v, val_of, model, memo, synth);
            if vv == default {
                entries.remove(&iv);
            } else {
                entries.insert(iv, vv);
            }
            (default, entries)
        }
        Term::Ite(c, a, b) => {
            let cond = eval_bool_live(ctx, c, val_of, model, memo, synth);
            let chosen = if cond { a } else { b };
            canon_map_live(ctx, chosen, val_of, model, memo, synth)
        }
        _ => (0, BTreeMap::new()),
    }
}

/// Structural evaluator over *serialized* certificate data — the
/// engine-side twin of the independent checker's evaluator, used for
/// the pre-emission self-check.
pub struct Evaluator<'a> {
    terms: &'a BTreeMap<u32, TermNode>,
    model: &'a ModelTables,
    int_memo: HashMap<u32, i64>,
}

impl<'a> Evaluator<'a> {
    /// An evaluator over the given term table and model.
    pub fn new(terms: &'a BTreeMap<u32, TermNode>, model: &'a ModelTables) -> Evaluator<'a> {
        Evaluator {
            terms,
            model,
            int_memo: HashMap::new(),
        }
    }

    /// Evaluates a boolean term (`None` on malformed data).
    pub fn eval_bool(&mut self, t: u32) -> Option<bool> {
        Some(match self.terms.get(&t)?.clone() {
            TermNode::True => true,
            TermNode::False => false,
            TermNode::BoolVar(n) => self.model.bools.get(&n).copied().unwrap_or(false),
            TermNode::Not(a) => !self.eval_bool(a)?,
            TermNode::And(ps) => {
                for p in ps {
                    if !self.eval_bool(p)? {
                        return Some(false);
                    }
                }
                true
            }
            TermNode::Or(ps) => {
                for p in ps {
                    if self.eval_bool(p)? {
                        return Some(true);
                    }
                }
                false
            }
            TermNode::Implies(a, b) => !self.eval_bool(a)? || self.eval_bool(b)?,
            TermNode::Iff(a, b) => self.eval_bool(a)? == self.eval_bool(b)?,
            TermNode::Eq(a, b) => {
                if self.is_map(a) {
                    self.canon_map(a)? == self.canon_map(b)?
                } else {
                    self.eval_int(a)? == self.eval_int(b)?
                }
            }
            TermNode::Le(a, b) => self.eval_int(a)? <= self.eval_int(b)?,
            TermNode::Lt(a, b) => self.eval_int(a)? < self.eval_int(b)?,
            TermNode::Ite(c, a, b) => {
                if self.eval_bool(c)? {
                    self.eval_bool(a)?
                } else {
                    self.eval_bool(b)?
                }
            }
            _ => return None,
        })
    }

    fn is_map(&self, t: u32) -> bool {
        match self.terms.get(&t) {
            Some(TermNode::MapVar(_) | TermNode::Write(..)) => true,
            Some(TermNode::Ite(_, a, _)) => self.is_map(*a),
            _ => false,
        }
    }

    /// Evaluates an integer term (`None` on malformed data).
    pub fn eval_int(&mut self, t: u32) -> Option<i64> {
        if let Some(&v) = self.int_memo.get(&t) {
            return Some(v);
        }
        let v = match self.terms.get(&t)?.clone() {
            TermNode::IntConst(c) => c,
            TermNode::IntVar(n) => self.model.ints.get(&n).copied().unwrap_or(0),
            TermNode::Add(ps) => {
                let mut s = 0i64;
                for p in ps {
                    s = s.wrapping_add(self.eval_int(p)?);
                }
                s
            }
            TermNode::MulC(c, a) => c.wrapping_mul(self.eval_int(a)?),
            TermNode::Ite(c, a, b) => {
                if self.eval_bool(c)? {
                    self.eval_int(a)?
                } else {
                    self.eval_int(b)?
                }
            }
            TermNode::App(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_int(a)?);
                }
                match self.model.funcs.get(&f) {
                    Some(fv) => fv.entries.get(&vals).copied().unwrap_or(fv.default),
                    None => 0,
                }
            }
            TermNode::Read(m, i) => {
                let iv = self.eval_int(i)?;
                let (default, entries) = self.canon_map(m)?;
                entries.get(&iv).copied().unwrap_or(default)
            }
            _ => return None,
        };
        self.int_memo.insert(t, v);
        Some(v)
    }

    /// Canonical extensional map value: (default, normalized entries).
    pub fn canon_map(&mut self, t: u32) -> Option<(i64, BTreeMap<i64, i64>)> {
        Some(match self.terms.get(&t)?.clone() {
            TermNode::MapVar(n) => match self.model.maps.get(&n) {
                Some(mv) => {
                    let entries = mv
                        .entries
                        .iter()
                        .filter(|&(_, &v)| v != mv.default)
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    (mv.default, entries)
                }
                None => (0, BTreeMap::new()),
            },
            TermNode::Write(m, i, v) => {
                let (default, mut entries) = self.canon_map(m)?;
                let iv = self.eval_int(i)?;
                let vv = self.eval_int(v)?;
                if vv == default {
                    entries.remove(&iv);
                } else {
                    entries.insert(iv, vv);
                }
                (default, entries)
            }
            TermNode::Ite(c, a, b) => {
                if self.eval_bool(c)? {
                    self.canon_map(a)?
                } else {
                    self.canon_map(b)?
                }
            }
            _ => return None,
        })
    }
}
