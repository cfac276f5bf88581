#![warn(missing_docs)]

//! `acspec-check` — the independent certificate checker.
//!
//! The analysis engine (`acspec-smt` → `acspec-vcgen` → `acspec-core`)
//! emits a schema-versioned certificate sidecar (`--certs-out`) in which
//! every reported verdict is a [`doc::Claim`] backed by a
//! [`doc::Cert`]: a `Sat` certificate carries a full first-order model,
//! an `Unsat` certificate carries a replayable propositional proof. This
//! crate re-validates that document **without sharing any code with the
//! engine** — its own JSON parser ([`json`]), its own term evaluator
//! ([`eval`]), its own unit propagator ([`proof`]).
//!
//! # What is re-derived vs. trusted
//!
//! Re-derived from first principles:
//!
//! * **`Sat` verdicts** — every asserted root, assumption, and blocking
//!   clause must evaluate to *true* under the certificate's model.
//! * **`Unsat` verdicts** — every procedure carries one shared,
//!   append-only proof log that its certificates reference by prefix
//!   (`log_upto`). Each log event is validated once: every input clause
//!   must match its provenance tag (asserted unit, Tseitin definitional
//!   clause reconstructed from the term structure, theory clause
//!   matching its term-level reading, guarded blocking clause), every
//!   learnt clause must be a RUP consequence of the clauses before it,
//!   and each certificate's core must propagate to a conflict against
//!   the log prefix it names. The *prefix rule* ties the prefix to the
//!   claim: every `assert` event before `log_upto` names a root in the
//!   certificate's `asserts[..asserts_upto]`. The *guard rule* keeps
//!   blocking clauses honest: a guard is a fresh `bool_var` that occurs
//!   in no term and in no tag but its own guarded clauses `¬g ∨ C` (so
//!   those clauses are inert unless `g` is assumed), and a certificate
//!   assuming guards must declare exactly their clauses as `blocking`.
//! * **Claim/certificate agreement** — each claim's expected verdict
//!   against its certificate's outcome, cube literals against the
//!   certificate's assumptions, cover-exhaustion blocking clauses
//!   against the enumerated cubes, and weakening-chain step structure
//!   (shrinking subsets grounded by unsat evidence down to the spec).
//!
//! Remaining in the trust base (documented in `DESIGN.md` §4.6): the
//! *validity* of theory-tagged clauses (the checker verifies they match
//! their claimed term-level reading, not linear-arithmetic validity),
//! the semantics of purification equations, and the mapping from report
//! claims to logical terms.

pub mod doc;
pub mod eval;
pub mod json;
pub mod proof;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use doc::{Cert, ClaimKind, Event, Node, Outcome, Proc, Proof, StepEvidence, Tag};
use eval::Evaluator;
use proof::Propagator;

/// The result of checking a certificate document: counts of what was
/// examined plus every validation failure found (empty = fully valid).
#[derive(Debug, Default)]
pub struct CheckSummary {
    /// Procedures examined.
    pub procs: usize,
    /// Certificates examined.
    pub certs: usize,
    /// `Sat` certificates (model-checked).
    pub sat_certs: usize,
    /// `Unsat` certificates (proof-replayed).
    pub unsat_certs: usize,
    /// Claims examined.
    pub claims: usize,
    /// Weakening chains examined.
    pub chains: usize,
    /// Every validation failure, in document order.
    pub errors: Vec<String>,
}

impl CheckSummary {
    /// True when the document validated completely.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Checks a certificate sidecar document (the `--certs-out` JSON text).
pub fn check_document(text: &str) -> CheckSummary {
    match json::parse(text) {
        Ok(v) => check_value(&v),
        Err(e) => CheckSummary {
            errors: vec![e],
            ..CheckSummary::default()
        },
    }
}

/// Checks an already-parsed certificate sidecar document.
pub fn check_value(v: &json::Value) -> CheckSummary {
    let mut sum = CheckSummary::default();
    let parsed = match doc::certs_doc_from_value(v) {
        Ok(d) => d,
        Err(e) => {
            sum.errors.push(e);
            return sum;
        }
    };
    sum.procs = parsed.procs.len();
    for p in &parsed.procs {
        check_proc(p, &mut sum);
    }
    sum
}

fn outcome_name(o: &Outcome) -> &'static str {
    match o {
        Outcome::Sat(_) => "sat",
        Outcome::Unsat(_) => "unsat",
        Outcome::Unknown => "unknown",
    }
}

fn node_children(node: &Node) -> Vec<u32> {
    match node {
        Node::True
        | Node::False
        | Node::BoolVar(_)
        | Node::IntVar(_)
        | Node::IntConst(_)
        | Node::MapVar(_) => Vec::new(),
        Node::Not(a) | Node::MulC(_, a) => vec![*a],
        Node::And(ps) | Node::Or(ps) | Node::Add(ps) | Node::App(_, ps) => ps.clone(),
        Node::Implies(a, b)
        | Node::Iff(a, b)
        | Node::Eq(a, b)
        | Node::Le(a, b)
        | Node::Lt(a, b)
        | Node::Read(a, b) => vec![*a, *b],
        Node::Write(a, b, c) | Node::Ite(a, b, c) => vec![*a, *b, *c],
    }
}

fn check_proc(p: &Proc, sum: &mut CheckSummary) {
    let name = &p.proc_name;
    // Term table well-formedness: every referenced child exists.
    for (&id, node) in &p.terms {
        for c in node_children(node) {
            if !p.terms.contains_key(&c) {
                sum.errors.push(format!(
                    "proc {name}: term {id} references missing term {c}"
                ));
            }
        }
    }
    for &a in &p.asserts {
        if !p.terms.contains_key(&a) {
            sum.errors.push(format!(
                "proc {name}: assert stream references missing term {a}"
            ));
        }
    }

    for e in check_lits(p) {
        sum.errors.push(format!("proc {name}: {e}"));
    }
    let guards = guarded_clauses(p);
    for e in check_guards(p, &guards) {
        sum.errors.push(format!("proc {name}: {e}"));
    }

    // Certificates, in index order against one incremental log replay.
    let mut replay = LogReplay::new(p, &guards);
    for (ci, cert) in p.certs.iter().enumerate() {
        sum.certs += 1;
        let errors = check_cert(&mut replay, cert);
        match &cert.outcome {
            Outcome::Sat(_) => sum.sat_certs += 1,
            Outcome::Unsat(_) => sum.unsat_certs += 1,
            Outcome::Unknown => {}
        }
        sum.errors
            .extend(replay.errors.drain(..).map(|e| format!("proc {name}: {e}")));
        sum.errors.extend(
            errors
                .into_iter()
                .map(|e| format!("proc {name}: cert {ci}: {e}")),
        );
    }
    // Events no certificate reached are validated too.
    replay.advance(p.log.len());
    sum.errors
        .extend(replay.errors.drain(..).map(|e| format!("proc {name}: {e}")));

    // Claims (plus cube bookkeeping for the per-label passes below).
    let mut cubes_by_label: BTreeMap<&str, Vec<(usize, &[i64])>> = BTreeMap::new();
    let mut exhaust_by_label: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (qi, claim) in p.claims.iter().enumerate() {
        sum.claims += 1;
        let mut fail = |msg: String| {
            sum.errors.push(format!(
                "proc {name}: claim {qi} ({} {}): {msg}",
                claim.kind_name(),
                claim.label
            ))
        };
        let implied = match claim.kind {
            ClaimKind::CanFail | ClaimKind::CubeFeasible { .. } | ClaimKind::SpecFails => "sat",
            _ => "unsat",
        };
        if claim.expect != implied {
            fail(format!(
                "kind implies expected verdict `{implied}`, document says `{}`",
                claim.expect
            ));
        }
        let Some(cert) = p.certs.get(claim.cert) else {
            fail(format!("certificate index {} out of range", claim.cert));
            continue;
        };
        if outcome_name(&cert.outcome) != implied {
            fail(format!(
                "claim requires a `{implied}` certificate, cert {} is `{}`",
                claim.cert,
                outcome_name(&cert.outcome)
            ));
            continue;
        }
        match &claim.kind {
            ClaimKind::CubeFeasible { cube, lits } => {
                for e in check_cube_claim(p, cert, lits) {
                    fail(e);
                }
                cubes_by_label
                    .entry(claim.label.as_str())
                    .or_default()
                    .push((*cube, lits.as_slice()));
            }
            ClaimKind::CoverExhausted => {
                exhaust_by_label
                    .entry(claim.label.as_str())
                    .or_default()
                    .push(claim.cert);
            }
            _ => {}
        }
    }

    // Per-label cube disjointness: no two feasible cubes may be the
    // same assignment.
    for (label, cubes) in &cubes_by_label {
        let mut seen: HashSet<BTreeSet<i64>> = HashSet::new();
        for (cube, lits) in cubes {
            let set: BTreeSet<i64> = lits.iter().copied().collect();
            if !seen.insert(set) {
                sum.errors.push(format!(
                    "proc {name}: label {label}: cube {cube} duplicates another cube"
                ));
            }
        }
    }

    // Cover exhaustion: the unsat query's blocking clauses must be
    // exactly the negations of the enumerated cubes — nothing blocked
    // that was not reported feasible, nothing reported but unblocked.
    for (label, cert_idxs) in &exhaust_by_label {
        let cube_sets: Vec<BTreeSet<i64>> = cubes_by_label
            .get(label)
            .map(|cubes| {
                cubes
                    .iter()
                    .map(|(_, lits)| lits.iter().copied().collect())
                    .collect()
            })
            .unwrap_or_default();
        for &ci in cert_idxs {
            for e in check_exhaustion_blocking(p, &p.certs[ci], &cube_sets) {
                sum.errors.push(format!("proc {name}: label {label}: {e}"));
            }
        }
    }

    // Weakening chains.
    for (hi, chain) in p.chains.iter().enumerate() {
        sum.chains += 1;
        if chain.steps.is_empty() {
            // Ungrounded chain (a fail = 0 fidelity push carries no dead
            // verdict): nothing to certify.
            continue;
        }
        let mut fail = |msg: String| {
            sum.errors
                .push(format!("proc {name}: chain {hi} ({}): {msg}", chain.label))
        };
        if let Some(cubes) = cubes_by_label.get(chain.label.as_str()) {
            let full: Vec<u32> = (0..cubes.len() as u32).collect();
            if chain.steps[0].subset != full {
                fail(format!(
                    "root subset {:?} is not the full cover 0..{}",
                    chain.steps[0].subset,
                    cubes.len()
                ));
            }
        }
        let mut cur: BTreeSet<u32> = chain.steps[0].subset.iter().copied().collect();
        for (si, step) in chain.steps.iter().enumerate() {
            let sset: BTreeSet<u32> = step.subset.iter().copied().collect();
            if si > 0 && sset != cur {
                fail(format!(
                    "step {si} subset does not match previous subset minus its removed clause"
                ));
            }
            if !sset.contains(&step.removed) {
                fail(format!(
                    "step {si} removes clause {} not present in its subset",
                    step.removed
                ));
            }
            for e in check_step_evidence(p, &sset, &step.evidence) {
                fail(format!("step {si}: {e}"));
            }
            cur = sset;
            cur.remove(&step.removed);
        }
        let spec: BTreeSet<u32> = chain.spec.iter().copied().collect();
        if spec != cur {
            fail("spec does not match the final weakened subset".to_string());
        }
    }
}

impl doc::Claim {
    fn kind_name(&self) -> &'static str {
        match self.kind {
            ClaimKind::CanFail => "can_fail",
            ClaimKind::CannotFail => "cannot_fail",
            ClaimKind::BaselineDead => "baseline_dead",
            ClaimKind::CubeFeasible { .. } => "cube_feasible",
            ClaimKind::CoverExhausted => "cover_exhausted",
            ClaimKind::SpecFails => "spec_fails",
            ClaimKind::SpecHolds => "spec_holds",
        }
    }
}

/// A feasible-cube claim's literals must be entailed by the
/// certificate's assumptions: `+t` requires the indicator term itself
/// among the assumptions, `-t` requires its negation.
fn check_cube_claim(p: &Proc, cert: &Cert, lits: &[i64]) -> Vec<String> {
    // Zero literals is the universal cube (a width-0 cover clause):
    // feasibility then rests on the guard assumptions alone.
    let mut errors = Vec::new();
    let assumed: BTreeSet<u32> = cert.assumptions.iter().copied().collect();
    let negated: BTreeSet<u32> = cert
        .assumptions
        .iter()
        .filter_map(|&u| match p.terms.get(&u) {
            Some(Node::Not(a)) => Some(*a),
            _ => None,
        })
        .collect();
    for &l in lits {
        if l == 0 || u32::try_from(l.unsigned_abs()).is_err() {
            errors.push(format!("cube literal {l} out of range"));
            continue;
        }
        let t = l.unsigned_abs() as u32;
        if !p.terms.contains_key(&t) {
            errors.push(format!("cube literal references missing term {t}"));
        } else if l > 0 && !assumed.contains(&t) {
            errors.push(format!(
                "cube literal +{t} has no matching certificate assumption"
            ));
        } else if l < 0 && !negated.contains(&t) {
            errors.push(format!(
                "cube literal -{t} has no matching negated certificate assumption"
            ));
        }
    }
    errors
}

/// An exhaustion certificate's blocking clauses, read back as signed
/// cubes (a plain term blocks the cube where it was *false*; a negated
/// term blocks the cube where it was *true*), must be exactly the
/// feasible cubes enumerated for the label.
fn check_exhaustion_blocking(p: &Proc, cert: &Cert, cube_sets: &[BTreeSet<i64>]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut derived: Vec<BTreeSet<i64>> = Vec::new();
    for cl in &cert.blocking {
        let mut cube = BTreeSet::new();
        for &e in cl {
            match p.terms.get(&e) {
                Some(Node::Not(a)) => {
                    cube.insert(i64::from(*a));
                }
                Some(_) => {
                    cube.insert(-i64::from(e));
                }
                None => errors.push(format!("blocking clause references missing term {e}")),
            }
        }
        derived.push(cube);
    }
    let mut want: Vec<BTreeSet<i64>> = cube_sets.to_vec();
    derived.sort();
    want.sort();
    if derived != want {
        errors.push(format!(
            "exhaustion blocking clauses do not match the {} enumerated cubes",
            cube_sets.len()
        ));
    }
    errors
}

fn check_step_evidence(p: &Proc, subset: &BTreeSet<u32>, ev: &StepEvidence) -> Vec<String> {
    let mut errors = Vec::new();
    match ev {
        StepEvidence::Inconsistent { cert } | StepEvidence::DeadLoc { cert } => {
            match p.certs.get(*cert) {
                None => errors.push(format!("evidence certificate {cert} out of range")),
                Some(c) => {
                    if !matches!(c.outcome, Outcome::Unsat(_)) {
                        errors.push(format!(
                            "evidence certificate {cert} is `{}`, dead verdicts require `unsat`",
                            outcome_name(&c.outcome)
                        ));
                    }
                }
            }
        }
        StepEvidence::Path => {}
        StepEvidence::Dominated { base, evidence } => {
            let base_set: BTreeSet<u32> = base.iter().copied().collect();
            if !base_set.is_subset(subset) {
                errors.push("dominating base is not a subset of the step's subset".to_string());
            }
            errors.extend(check_step_evidence(p, &base_set, evidence));
        }
    }
    errors
}

// ---------------------------------------------------------------------
// Sat: model checking
// ---------------------------------------------------------------------

fn check_sat_cert(p: &Proc, cert: &Cert) -> Vec<String> {
    let Outcome::Sat(model) = &cert.outcome else {
        unreachable!("caller matched Sat")
    };
    let mut errors = Vec::new();
    if !cert.self_checked {
        errors.push("sat certificate without producer self-check".to_string());
    }
    let mut ev = Evaluator::new(&p.terms, model);
    for &t in p.asserts[..cert.asserts_upto]
        .iter()
        .chain(cert.assumptions.iter())
    {
        match ev.eval_bool(t) {
            Ok(true) => {}
            Ok(false) => errors.push(format!("term {t} is false under the model")),
            Err(e) => errors.push(e),
        }
    }
    for (bi, cl) in cert.blocking.iter().enumerate() {
        let mut sat = false;
        for &t in cl {
            match ev.eval_bool(t) {
                Ok(true) => {
                    sat = true;
                    break;
                }
                Ok(false) => {}
                Err(e) => {
                    errors.push(e);
                    break;
                }
            }
        }
        if !sat {
            errors.push(format!("blocking clause {bi} is false under the model"));
        }
    }
    errors
}

fn check_cert(replay: &mut LogReplay, cert: &Cert) -> Vec<String> {
    let p = replay.p;
    if cert.asserts_upto > p.asserts.len() {
        return vec![format!(
            "asserts_upto {} exceeds assert stream length {}",
            cert.asserts_upto,
            p.asserts.len()
        )];
    }
    let missing: Vec<String> = cert
        .assumptions
        .iter()
        .chain(cert.blocking.iter().flatten())
        .filter(|t| !p.terms.contains_key(t))
        .map(|t| format!("references missing term {t}"))
        .collect();
    if !missing.is_empty() {
        return missing;
    }
    let mut errors = check_blocking_guards(replay.guards, cert);
    match &cert.outcome {
        Outcome::Sat(_) => errors.extend(check_sat_cert(p, cert)),
        Outcome::Unsat(proof) => errors.extend(check_unsat_cert(replay, cert, proof)),
        Outcome::Unknown => errors.push("outcome `unknown` is not checkable".to_string()),
    }
    errors
}

// ---------------------------------------------------------------------
// Guards: ALL-SAT blocking clauses in the shared log
// ---------------------------------------------------------------------

/// Every guard with its guarded clauses' part sets, in log order.
type Guards = BTreeMap<u32, Vec<BTreeSet<u32>>>;

fn guarded_clauses(p: &Proc) -> Guards {
    let mut guards = Guards::new();
    for event in &p.log {
        if let Event::Input {
            tag: Tag::Guarded { guard, parts },
            ..
        } = event
        {
            guards
                .entry(*guard)
                .or_default()
                .push(parts.iter().copied().collect());
        }
    }
    guards
}

/// The guard rule's term-level half: a guard is a `bool_var` that no
/// term node and no assert root mentions, with a literal variable of
/// its own. (The tag-level half — no tag but its guarded clauses names
/// it — is checked per log event.) Its clauses `¬g ∨ C` then constrain
/// nothing unless `g` is assumed.
fn check_guards(p: &Proc, guards: &Guards) -> Vec<String> {
    let mut errors = Vec::new();
    if guards.is_empty() {
        return errors;
    }
    let mut parent: HashMap<u32, u32> = HashMap::new();
    for (&id, node) in &p.terms {
        for c in node_children(node) {
            parent.entry(c).or_insert(id);
        }
    }
    let mut var_owner: HashMap<u64, Vec<u32>> = HashMap::new();
    for (&t, &l) in &p.lits {
        var_owner.entry(l.unsigned_abs()).or_default().push(t);
    }
    let asserted: HashSet<u32> = p.asserts.iter().copied().collect();
    for &g in guards.keys() {
        if !matches!(p.terms.get(&g), Some(Node::BoolVar(_))) {
            errors.push(format!("guard term {g} is not a bool_var"));
        }
        if let Some(t) = parent.get(&g) {
            errors.push(format!("guard term {g} occurs inside term {t}"));
        }
        if asserted.contains(&g) {
            errors.push(format!("guard term {g} is in the assert stream"));
        }
        match p.lits.get(&g) {
            None => errors.push(format!("guard term {g} has no literal")),
            Some(l) => {
                for &t in var_owner.get(&l.unsigned_abs()).into_iter().flatten() {
                    if t != g {
                        errors.push(format!(
                            "guard term {g} shares literal variable {} with term {t}",
                            l.unsigned_abs()
                        ));
                    }
                }
            }
        }
    }
    errors
}

/// A certificate's `blocking` clauses must be exactly the clauses
/// guarded by the guards it assumes (none when it assumes none).
fn check_blocking_guards(guards: &Guards, cert: &Cert) -> Vec<String> {
    let assumed: Vec<u32> = cert
        .assumptions
        .iter()
        .filter(|t| guards.contains_key(t))
        .copied()
        .collect();
    let mut want: Vec<&BTreeSet<u32>> = assumed.iter().flat_map(|g| &guards[g]).collect();
    let declared: Vec<BTreeSet<u32>> = cert
        .blocking
        .iter()
        .map(|cl| cl.iter().copied().collect())
        .collect();
    let mut got: Vec<&BTreeSet<u32>> = declared.iter().collect();
    want.sort();
    got.sort();
    if got == want {
        Vec::new()
    } else if assumed.is_empty() {
        vec![format!(
            "declares {} blocking clause(s) but assumes no guard",
            got.len()
        )]
    } else {
        vec![format!(
            "blocking clauses do not match the {} clause(s) guarded by assumed guard(s) {assumed:?}",
            want.len()
        )]
    }
}

// ---------------------------------------------------------------------
// Unsat: proof replay
// ---------------------------------------------------------------------

/// Literal-table consistency, checked once per procedure: every entry
/// names a term, a negation's literal is the negated literal of its
/// child (the engine never allocates a fresh variable for `Not`), and
/// no two terms of the kinds the engine gives a fresh variable share
/// one — two Tseitin definitions over one variable would equate their
/// terms. (`implies` shares its `or`'s variable, and purified atoms may
/// share theirs.)
fn check_lits(p: &Proc) -> Vec<String> {
    let mut errors = Vec::new();
    // Literal variable -> the first fresh-variable term holding it.
    let mut owner: HashMap<u64, (u32, &str)> = HashMap::new();
    for (&t, &l) in &p.lits {
        match p.terms.get(&t) {
            None => errors.push(format!("literal table references missing term {t}")),
            Some(Node::Not(a)) if p.lits.get(a) != Some(&-l) => errors.push(format!(
                "literal of negation term {t} is not the negated literal of term {a}"
            )),
            Some(node) => {
                let kind = match node {
                    Node::And(_) => "and",
                    Node::Or(_) => "or",
                    Node::Iff(..) => "iff",
                    Node::True => "true",
                    Node::False => "false",
                    Node::BoolVar(_) => "bool_var",
                    _ => continue,
                };
                let var = l.unsigned_abs();
                match owner.get(&var) {
                    Some(&(first, first_kind)) => errors.push(format!(
                        "terms {first} ({first_kind}) and {t} ({kind}) share literal variable \
                         {var}, but each needs a fresh one"
                    )),
                    None => {
                        owner.insert(var, (t, kind));
                    }
                }
            }
        }
    }
    errors
}

/// The procedure's shared log, replayed once: each event is validated
/// and added to one propagator the first time a certificate's
/// `log_upto` reaches past it.
struct LogReplay<'a> {
    p: &'a Proc,
    guards: &'a Guards,
    /// First position of each root in the assert stream.
    assert_pos: HashMap<u32, usize>,
    tseitin_memo: HashMap<u32, HashSet<Vec<i64>>>,
    prop: Propagator,
    /// Events validated and added so far.
    next: usize,
    /// The furthest assert-stream position an `assert` event so far
    /// names, with that event's index.
    furthest_assert: Option<(usize, usize)>,
    /// Event validation failures not yet reported.
    errors: Vec<String>,
}

impl<'a> LogReplay<'a> {
    fn new(p: &'a Proc, guards: &'a Guards) -> LogReplay<'a> {
        let mut assert_pos = HashMap::new();
        for (i, &t) in p.asserts.iter().enumerate() {
            assert_pos.entry(t).or_insert(i);
        }
        LogReplay {
            p,
            guards,
            assert_pos,
            tseitin_memo: HashMap::new(),
            prop: Propagator::new(),
            next: 0,
            furthest_assert: None,
            errors: Vec::new(),
        }
    }

    /// Validates and adds events up to (excluding) `upto`.
    fn advance(&mut self, upto: usize) {
        let p = self.p;
        for (ei, event) in p.log.iter().enumerate().take(upto).skip(self.next) {
            let lits = match event {
                Event::Input { lits, .. } | Event::Learnt { lits } => lits,
            };
            if lits.contains(&0) {
                self.errors.push(format!("log event {ei}: zero literal"));
                continue;
            }
            match event {
                Event::Input { lits, tag } => {
                    if let Err(e) = self.check_input_clause(ei, lits, tag) {
                        self.errors.push(format!("log event {ei}: {e}"));
                    }
                }
                Event::Learnt { lits } => {
                    if !self.prop.has_rup(lits) {
                        self.errors.push(format!(
                            "log event {ei}: learnt clause is not a RUP consequence of the clauses before it"
                        ));
                    }
                }
            }
            self.prop.add_clause(lits);
        }
        self.next = self.next.max(upto);
    }

    /// Validates one tagged input clause against its provenance: the
    /// clause must be byte-for-byte reconstructible from the term
    /// structure and the literal table, so a single flipped or dropped
    /// literal is rejected.
    fn check_input_clause(&mut self, ei: usize, lits: &[i64], tag: &Tag) -> Result<(), String> {
        let p = self.p;
        let named: Vec<u32> = match tag {
            Tag::Assert { term } | Tag::Purify { term } | Tag::Tseitin { term } => vec![*term],
            Tag::Theory { parts } => parts.iter().map(|&(t, _)| t).collect(),
            Tag::Guarded { parts, .. } => parts.clone(),
        };
        if let Some(g) = named.iter().find(|t| self.guards.contains_key(t)) {
            return Err(format!("guard term {g} used in a {} tag", tag_name(tag)));
        }
        let got = sorted(lits);
        match tag {
            Tag::Assert { term } => {
                let Some(&pos) = self.assert_pos.get(term) else {
                    return Err(format!(
                        "assert tag names term {term} outside the assert stream"
                    ));
                };
                if self.furthest_assert.is_none_or(|(far, _)| pos > far) {
                    self.furthest_assert = Some((pos, ei));
                }
                let want = vec![lit_of(p, *term)?];
                if got != want {
                    return Err(format!(
                        "assert clause does not match literal of term {term}"
                    ));
                }
                Ok(())
            }
            Tag::Purify { term } => {
                let want = vec![lit_of(p, *term)?];
                if got != want {
                    return Err(format!(
                        "purify clause does not match literal of guard term {term}"
                    ));
                }
                Ok(())
            }
            Tag::Tseitin { term } => {
                if !self.tseitin_memo.contains_key(term) {
                    let set = tseitin_clauses(p, *term)?;
                    self.tseitin_memo.insert(*term, set);
                }
                if self.tseitin_memo[term].contains(&got) {
                    Ok(())
                } else {
                    Err(format!(
                        "clause is not a definitional clause of term {term}"
                    ))
                }
            }
            Tag::Theory { parts } => {
                if parts.is_empty() {
                    return Err("theory clause with no parts".to_string());
                }
                let mut want = Vec::with_capacity(parts.len());
                for &(t, pol) in parts {
                    let l = lit_of(p, t)?;
                    want.push(if pol { l } else { -l });
                }
                want.sort_unstable();
                if got != want {
                    return Err("theory clause does not match its term-level reading".to_string());
                }
                Ok(())
            }
            Tag::Guarded { guard, parts } => {
                let mut want = Vec::with_capacity(parts.len() + 1);
                want.push(-lit_of(p, *guard)?);
                for &t in parts {
                    want.push(lit_of(p, t)?);
                }
                want.sort_unstable();
                if got != want {
                    return Err(format!(
                        "guarded clause does not match the literals of guard {guard} and its parts"
                    ));
                }
                Ok(())
            }
        }
    }
}

fn tag_name(tag: &Tag) -> &'static str {
    match tag {
        Tag::Assert { .. } => "assert",
        Tag::Purify { .. } => "purify",
        Tag::Tseitin { .. } => "tseitin",
        Tag::Theory { .. } => "theory",
        Tag::Guarded { .. } => "guarded",
    }
}

fn check_unsat_cert(replay: &mut LogReplay, cert: &Cert, proof: &Proof) -> Vec<String> {
    let p = replay.p;
    let upto = proof.log_upto;
    if upto > p.log.len() {
        return vec![format!(
            "log_upto {upto} exceeds log length {}",
            p.log.len()
        )];
    }
    if upto < replay.next {
        return vec![format!(
            "log_upto {upto} decreases: an earlier certificate reached {}",
            replay.next
        )];
    }
    replay.advance(upto);
    let mut errors = Vec::new();

    // Prefix rule: the log prefix asserts only the certificate's roots.
    if let Some((pos, ei)) = replay.furthest_assert {
        if pos >= cert.asserts_upto {
            errors.push(format!(
                "log event {ei} asserts stream position {pos}, beyond asserts_upto {}",
                cert.asserts_upto
            ));
        }
    }

    // Final conflict: the blamed core (a subset of the assumptions) must
    // propagate to a conflict against the log prefix; an empty core
    // requires the prefix alone to be contradictory.
    let assumed: HashSet<u32> = cert.assumptions.iter().copied().collect();
    let mut units = Vec::with_capacity(proof.core.len());
    let mut core_ok = true;
    for &t in &proof.core {
        if !assumed.contains(&t) {
            errors.push(format!("core term {t} is not among the assumptions"));
            core_ok = false;
        }
        match p.lits.get(&t) {
            Some(&l) => units.push(l),
            None => {
                errors.push(format!("core term {t} has no literal"));
                core_ok = false;
            }
        }
    }
    if core_ok && !replay.prop.units_conflict(&units) {
        errors.push(format!(
            "final core does not propagate to a conflict at log_upto {upto}"
        ));
    }
    errors
}

fn lit_of(p: &Proc, t: u32) -> Result<i64, String> {
    p.lits
        .get(&t)
        .copied()
        .ok_or_else(|| format!("term {t} has no literal"))
}

fn sorted(lits: &[i64]) -> Vec<i64> {
    let mut v = lits.to_vec();
    v.sort_unstable();
    v
}

/// The exact definitional (Tseitin) clauses a term may contribute,
/// reconstructed from the term structure and the literal table.
fn tseitin_clauses(p: &Proc, t: u32) -> Result<HashSet<Vec<i64>>, String> {
    let l = lit_of(p, t)?;
    let node = p
        .terms
        .get(&t)
        .ok_or_else(|| format!("term {t} missing from table"))?;
    let mut set = HashSet::new();
    match node {
        // `true` is a fresh variable asserted positively; `false` is the
        // same with the term literal on the *negated* side.
        Node::True => {
            set.insert(vec![l]);
        }
        Node::False => {
            set.insert(vec![-l]);
        }
        Node::And(ps) => {
            let mut big = Vec::with_capacity(ps.len() + 1);
            for &q in ps {
                let lq = lit_of(p, q)?;
                set.insert(sorted(&[-l, lq]));
                big.push(-lq);
            }
            big.push(l);
            set.insert(sorted(&big));
        }
        Node::Or(ps) => {
            let mut big = Vec::with_capacity(ps.len() + 1);
            for &q in ps {
                let lq = lit_of(p, q)?;
                set.insert(sorted(&[l, -lq]));
                big.push(lq);
            }
            big.push(-l);
            set.insert(sorted(&big));
        }
        Node::Iff(a, b) => {
            let la = lit_of(p, *a)?;
            let lb = lit_of(p, *b)?;
            set.insert(sorted(&[-l, -la, lb]));
            set.insert(sorted(&[-l, la, -lb]));
            set.insert(sorted(&[l, la, lb]));
            set.insert(sorted(&[l, -la, -lb]));
        }
        _ => {
            return Err(format!(
                "term {t} has no definitional clauses (negations share their child's \
                 literal; implications are rewritten; atoms are plain variables)"
            ));
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(doc: &str) -> CheckSummary {
        check_document(doc)
    }

    /// A one-procedure document: the given term table, assert stream,
    /// literal table, shared log and certificates, no claims or chains.
    fn proc_doc(terms: &str, asserts: &str, lits: &str, log: &str, certs: &str) -> String {
        format!(
            r#"{{"schema_version":4,"procs":[{{"proc_name":"f",
               "terms":{{{terms}}},"asserts":[{asserts}],
               "lits":[{lits}],"log":[{log}],
               "certs":[{certs}],"claims":[],"chains":[]}}]}}"#
        )
    }

    fn unsat_cert(
        assumptions: &str,
        asserts_upto: usize,
        blocking: &str,
        log_upto: usize,
        core: &str,
    ) -> String {
        format!(
            r#"{{"assumptions":[{assumptions}],"asserts_upto":{asserts_upto},"blocking":[{blocking}],
                "outcome":"unsat","log_upto":{log_upto},"core":[{core}],"self_checked":true}}"#
        )
    }

    fn has(sum: &CheckSummary, needle: &str) -> bool {
        sum.errors.iter().any(|e| e.contains(needle))
    }

    #[test]
    fn rejects_wrong_schema_version() {
        for v in [2, 3] {
            let s = check(&format!(r#"{{"schema_version":{v},"procs":[]}}"#));
            assert!(!s.ok());
            assert!(s.errors[0].contains("schema_version"));
        }
    }

    #[test]
    fn accepts_valid_sat_cert_and_rejects_mutated_model() {
        let doc = |val: bool| {
            format!(
                r#"{{"schema_version":4,"procs":[{{"proc_name":"f",
                   "terms":{{"1":["bool_var","b"]}},
                   "asserts":[1],"lits":[],"log":[],
                   "certs":[{{"assumptions":[],"asserts_upto":1,"blocking":[],
                              "outcome":"sat",
                              "model":{{"ints":{{}},"bools":{{"b":{val}}},"maps":{{}},"funcs":{{}}}},
                              "self_checked":true}}],
                   "claims":[{{"label":"Cons","kind":"can_fail","expect":"sat","cert":0}}],
                   "chains":[]}}]}}"#
            )
        };
        let good = check(&doc(true));
        assert!(good.ok(), "unexpected errors: {:?}", good.errors);
        assert_eq!((good.certs, good.sat_certs, good.claims), (1, 1, 1));
        let bad = check(&doc(false));
        assert!(!bad.ok());
        assert!(bad.errors[0].contains("false under the model"));
    }

    // Two asserted roots `b` and `¬b`: the log alone is contradictory,
    // so the core is empty.
    const B_NOT_B: &str = r#""1":["bool_var","b"],"2":["not",1]"#;

    fn unsat_doc(first_clause: &str, core: &str) -> String {
        proc_doc(
            B_NOT_B,
            "1,2",
            "[1,1],[2,-1]",
            &format!(r#"["input",[{first_clause}],["assert",1]],["input",[-1],["assert",2]]"#),
            &unsat_cert("", 2, "", 2, core),
        )
    }

    #[test]
    fn replays_unsat_proof_and_rejects_flipped_literal() {
        let good = check(&unsat_doc("1", ""));
        assert!(good.ok(), "unexpected errors: {:?}", good.errors);
        assert_eq!(good.unsat_certs, 1);
        // Flip the first log clause's literal: tag reconstruction fails
        // AND the log prefix no longer conflicts.
        let bad = check(&unsat_doc("-1", ""));
        assert!(!bad.ok());
        assert!(has(
            &bad,
            "log event 0: assert clause does not match literal"
        ));
        assert!(has(&bad, "final core"));
    }

    #[test]
    fn rejects_core_term_outside_assumptions() {
        let bad = check(&unsat_doc("1", "1"));
        assert!(has(&bad, "not among the assumptions"));
    }

    #[test]
    fn learnt_clauses_must_be_rup() {
        // Theory clauses (b ∨ c) and (¬b ∨ c) entail c but not b.
        let doc = |learnt: &str| {
            proc_doc(
                r#""1":["bool_var","b"],"2":["bool_var","c"],"3":["not",2]"#,
                "",
                "[1,1],[2,2],[3,-2]",
                &format!(
                    r#"["input",[1,2],["theory",[[1,true],[2,true]]]],
                       ["input",[-1,2],["theory",[[1,false],[2,true]]]],
                       ["learnt",[{learnt}]]"#
                ),
                &unsat_cert("3", 0, "", 3, "3"),
            )
        };
        let good = check(&doc("2"));
        assert!(good.ok(), "unexpected errors: {:?}", good.errors);
        let bad = check(&doc("1"));
        assert!(has(
            &bad,
            "log event 2: learnt clause is not a RUP consequence"
        ));
    }

    #[test]
    fn rejects_fresh_terms_sharing_a_variable() {
        let lits_check = |terms: &str, lits: &str| check(&proc_doc(terms, "", lits, "", ""));
        let and_and = lits_check(
            r#""1":["bool_var","a"],"2":["bool_var","b"],"3":["and",[1,2]],"4":["and",[2,1]]"#,
            "[1,1],[2,2],[3,3],[4,-3]",
        );
        let want = "terms 3 (and) and 4 (and) share literal variable 3";
        assert!(has(&and_and, want), "{:?}", and_and.errors);
        let var_on_or = lits_check(
            r#""1":["bool_var","a"],"2":["or",[1,4]],"3":["bool_var","c"],"4":["bool_var","b"]"#,
            "[1,1],[2,2],[3,2],[4,4]",
        );
        let want = "terms 2 (or) and 3 (bool_var) share literal variable 2";
        assert!(has(&var_on_or, want), "{:?}", var_on_or.errors);
        // A negation and an implication share legitimately.
        let shared = lits_check(
            r#""1":["bool_var","a"],"2":["not",1],"3":["bool_var","b"],"4":["or",[2,3]],"5":["implies",1,3]"#,
            "[1,1],[2,-1],[3,3],[4,4],[5,4]",
        );
        assert!(shared.ok(), "unexpected errors: {:?}", shared.errors);
    }

    #[test]
    fn rejects_unknown_outcomes() {
        let unknown = check(&proc_doc(
            "",
            "",
            "",
            "",
            r#"{"assumptions":[],"asserts_upto":0,"blocking":[],"outcome":"unknown","self_checked":true}"#,
        ));
        assert!(has(&unknown, "unknown"));
    }

    // A guard `g` (term 1) enabling blocking clauses over `p` (term 2)
    // and `¬p` (term 3): under `g` the two clauses contradict.
    const GUARDED: &str = r#""1":["bool_var","block!1"],"2":["bool_var","p"],"3":["not",2]"#;
    const GUARDED_LITS: &str = "[1,1],[2,2],[3,-2]";
    const GUARDED_LOG: &str =
        r#"["input",[-1,2],["guarded",1,[2]]],["input",[-1,-2],["guarded",1,[3]]]"#;

    #[test]
    fn guarded_blocking_clauses_check_under_their_guard() {
        let good = check(&proc_doc(
            GUARDED,
            "",
            GUARDED_LITS,
            GUARDED_LOG,
            &unsat_cert("1", 0, "[2],[3]", 2, "1"),
        ));
        assert!(good.ok(), "unexpected errors: {:?}", good.errors);
        // The width-0 cover case: an empty blocking clause is the unit
        // clause `¬g`, contradictory under `g` alone.
        let empty = check(&proc_doc(
            r#""1":["bool_var","block!1"]"#,
            "",
            "[1,1]",
            r#"["input",[-1],["guarded",1,[]]]"#,
            &unsat_cert("1", 0, "[]", 1, "1"),
        ));
        assert!(empty.ok(), "unexpected errors: {:?}", empty.errors);
    }

    #[test]
    fn rejects_a_guard_used_inside_a_term_or_a_foreign_tag() {
        let inside = check(&proc_doc(
            &format!(r#"{GUARDED},"4":["and",[1,2]]"#),
            "",
            GUARDED_LITS,
            GUARDED_LOG,
            &unsat_cert("1", 0, "[2],[3]", 2, "1"),
        ));
        assert!(
            has(&inside, "guard term 1 occurs inside term 4"),
            "{:?}",
            inside.errors
        );
        let theory = check(&proc_doc(
            GUARDED,
            "",
            GUARDED_LITS,
            &format!(r#"{GUARDED_LOG},["input",[1],["theory",[[1,true]]]]"#),
            &unsat_cert("1", 0, "[2],[3]", 2, "1"),
        ));
        assert!(
            has(&theory, "log event 2: guard term 1 used in a theory tag"),
            "{:?}",
            theory.errors
        );
        let shared = check(&proc_doc(
            &format!(r#"{GUARDED},"5":["bool_var","q"]"#),
            "",
            &format!("{GUARDED_LITS},[5,1]"),
            GUARDED_LOG,
            &unsat_cert("1", 0, "[2],[3]", 2, "1"),
        ));
        assert!(
            has(
                &shared,
                "guard term 1 shares literal variable 1 with term 5"
            ),
            "{:?}",
            shared.errors
        );
    }

    #[test]
    fn rejects_a_guarded_clause_missing_from_blocking() {
        let bad = check(&proc_doc(
            GUARDED,
            "",
            GUARDED_LITS,
            GUARDED_LOG,
            &unsat_cert("1", 0, "[2]", 2, "1"),
        ));
        assert!(
            has(&bad, "cert 0: blocking clauses do not match the 2 clause(s) guarded by assumed guard(s) [1]"),
            "{:?}",
            bad.errors
        );
        let unguarded = check(&proc_doc(
            GUARDED,
            "",
            GUARDED_LITS,
            GUARDED_LOG,
            &unsat_cert("", 0, "[2],[3]", 2, ""),
        ));
        assert!(has(
            &unguarded,
            "declares 2 blocking clause(s) but assumes no guard"
        ));
    }

    #[test]
    fn rejects_a_decreasing_log_upto() {
        let certs = format!(
            "{},{}",
            unsat_cert("", 2, "", 2, ""),
            unsat_cert("", 2, "", 1, "")
        );
        let bad = check(&proc_doc(
            B_NOT_B,
            "1,2",
            "[1,1],[2,-1]",
            r#"["input",[1],["assert",1]],["input",[-1],["assert",2]]"#,
            &certs,
        ));
        assert!(
            has(
                &bad,
                "cert 1: log_upto 1 decreases: an earlier certificate reached 2"
            ),
            "{:?}",
            bad.errors
        );
    }

    #[test]
    fn rejects_an_assert_event_beyond_asserts_upto() {
        let bad = check(&proc_doc(
            B_NOT_B,
            "1,2",
            "[1,1],[2,-1]",
            r#"["input",[1],["assert",1]],["input",[-1],["assert",2]]"#,
            &unsat_cert("", 1, "", 2, ""),
        ));
        assert!(
            has(
                &bad,
                "cert 0: log event 1 asserts stream position 1, beyond asserts_upto 1"
            ),
            "{:?}",
            bad.errors
        );
    }

    #[test]
    fn rejects_a_core_that_needs_a_later_log_event() {
        // `b` is asserted; the theory clause (¬b ∨ ¬c) makes the core
        // {c} conflict, but only from log event 1 on.
        let doc = |log_upto: usize| {
            proc_doc(
                r#""1":["bool_var","b"],"2":["bool_var","c"]"#,
                "1",
                "[1,1],[2,2]",
                r#"["input",[1],["assert",1]],["input",[-1,-2],["theory",[[1,false],[2,false]]]]"#,
                &unsat_cert("2", 1, "", log_upto, "2"),
            )
        };
        let good = check(&doc(2));
        assert!(good.ok(), "unexpected errors: {:?}", good.errors);
        let early = check(&doc(1));
        assert!(
            has(
                &early,
                "cert 0: final core does not propagate to a conflict at log_upto 1"
            ),
            "{:?}",
            early.errors
        );
        // The unreached event is still validated.
        assert_eq!(early.errors.len(), 1, "{:?}", early.errors);
    }

    #[test]
    fn check_value_matches_check_document() {
        let text = unsat_doc("1", "");
        let v = json::parse(&text).expect("valid JSON");
        let (a, b) = (check_value(&v), check_document(&text));
        assert_eq!((a.procs, a.certs, a.errors), (b.procs, b.certs, b.errors));
    }

    #[test]
    fn validates_chain_structure() {
        // A 2-cube cover weakened once: root {0,1} minus 1 → spec {0}.
        let doc = |spec: &str| {
            format!(
                r#"{{"schema_version":4,"procs":[{{"proc_name":"f",
                   "terms":{{"1":["bool_var","p"],"2":["not",1]}},
                   "asserts":[],
                   "lits":[[1,1]],
                   "log":[["input",[1],["theory",[[1,true]]]],
                          ["input",[-1],["theory",[[1,false]]]]],
                   "certs":[{{"assumptions":[1],"asserts_upto":0,"blocking":[],
                              "outcome":"sat",
                              "model":{{"ints":{{}},"bools":{{"p":true}},"maps":{{}},"funcs":{{}}}},
                              "self_checked":true}},
                             {{"assumptions":[2],"asserts_upto":0,"blocking":[],
                              "outcome":"sat",
                              "model":{{"ints":{{}},"bools":{{}},"maps":{{}},"funcs":{{}}}},
                              "self_checked":true}},
                             {{"assumptions":[],"asserts_upto":0,"blocking":[],
                              "outcome":"unsat","log_upto":2,"core":[],
                              "self_checked":true}}],
                   "claims":[{{"label":"A1","kind":"cube_feasible","expect":"sat","cube":0,"lits":[1],"cert":0}},
                             {{"label":"A1","kind":"cube_feasible","expect":"sat","cube":1,"lits":[-1],"cert":1}}],
                   "chains":[{{"label":"A1","spec":[{spec}],
                              "steps":[{{"subset":[0,1],"removed":1,
                                        "evidence":{{"kind":"inconsistent","cert":2}}}}]}}]}}]}}"#
            )
        };
        let good = check(&doc("0"));
        assert!(good.ok(), "unexpected errors: {:?}", good.errors);
        assert_eq!(good.chains, 1);
        // Wrong spec: final subset is {0}, not {1}.
        let bad = check(&doc("1"));
        assert!(has(&bad, "spec does not match"));
    }
}
