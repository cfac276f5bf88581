//! The certificate document model: parsed, validated-shape form of the
//! `--certs-out` sidecar. Parsing is strict — any field with the wrong
//! shape is a document error, never a default.

use std::collections::BTreeMap;

use crate::json::Value;

/// The schema version this checker understands.
pub const SUPPORTED_SCHEMA_VERSION: i64 = 4;

/// A term node (the checker's own mirror of the engine's serialized
/// form; no shared code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// `true`.
    True,
    /// `false`.
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
    /// Equality.
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
    /// Map write.
    Write(u32, u32, u32),
    /// Named map variable.
    MapVar(String),
    /// If-then-else.
    Ite(u32, u32, u32),
}

/// Clause provenance recorded in the proof log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tag {
    /// Unit clause asserting a root term.
    Assert {
        /// The asserted term.
        term: u32,
    },
    /// Unit clause from ite purification.
    Purify {
        /// The guarded-equation term (asserted by the clause).
        term: u32,
    },
    /// Tseitin definitional clause of `term`.
    Tseitin {
        /// The encoded term.
        term: u32,
    },
    /// Theory lemma/conflict clause over `(term, polarity)` literals.
    Theory {
        /// The clause parts.
        parts: Vec<(u32, bool)>,
    },
    /// Caller blocking clause `¬guard ∨ parts`.
    Guarded {
        /// The guard: a fresh boolean variable term.
        guard: u32,
        /// The clause part terms.
        parts: Vec<u32>,
    },
}

/// One proof event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An input clause with provenance.
    Input {
        /// Signed SAT literals.
        lits: Vec<i64>,
        /// Provenance.
        tag: Tag,
    },
    /// A learnt clause (must be a RUP consequence of everything before).
    Learnt {
        /// Signed SAT literals.
        lits: Vec<i64>,
    },
}

/// A finite table with a default value (maps and functions).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table<K: Ord> {
    /// Value at every unlisted point.
    pub default: i64,
    /// Explicit entries.
    pub entries: BTreeMap<K, i64>,
}

/// A full first-order model (Sat evidence).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Model {
    /// Integer variables by name.
    pub ints: BTreeMap<String, i64>,
    /// Boolean variables by name.
    pub bools: BTreeMap<String, bool>,
    /// Map variables by name.
    pub maps: BTreeMap<String, Table<i64>>,
    /// Uninterpreted functions by name.
    pub funcs: BTreeMap<String, Table<Vec<i64>>>,
}

/// Proof evidence (Unsat): a prefix of the procedure's shared log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proof {
    /// Number of log events the verdict rests on.
    pub log_upto: usize,
    /// Assumption terms responsible for unsatisfiability.
    pub core: Vec<u32>,
}

/// A certificate's verdict with its evidence.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Satisfiable with a model.
    Sat(Model),
    /// Unsatisfiable with a proof.
    Unsat(Proof),
    /// Replay did not finish (never acceptable for a claim).
    Unknown,
}

/// One certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct Cert {
    /// Assumption term ids (canonically sorted by the producer).
    pub assumptions: Vec<u32>,
    /// Prefix of the proc's assert stream installed for this query.
    pub asserts_upto: usize,
    /// Extra blocking clauses (term-id lists).
    pub blocking: Vec<Vec<u32>>,
    /// The verdict.
    pub outcome: Outcome,
    /// Producer-side self-check flag.
    pub self_checked: bool,
}

/// What a claim asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimKind {
    /// Assertion can fail (Sat).
    CanFail,
    /// Assertion cannot fail (Unsat).
    CannotFail,
    /// Location dead under the demonic baseline (Unsat).
    BaselineDead,
    /// ALL-SAT cube feasible (Sat).
    CubeFeasible {
        /// Cube index in the label's cover.
        cube: usize,
        /// Signed indicator term ids (`+t` = predicate true).
        lits: Vec<i64>,
    },
    /// ALL-SAT enumeration exhausted (Unsat under blocking).
    CoverExhausted,
    /// Assertion fails under a spec (Sat).
    SpecFails,
    /// Assertion verified under a spec (Unsat).
    SpecHolds,
}

/// One report-level claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// Report label the claim backs.
    pub label: String,
    /// What is claimed.
    pub kind: ClaimKind,
    /// `"sat"` or `"unsat"` — the verdict the certificate must carry.
    pub expect: String,
    /// Certificate index.
    pub cert: usize,
}

/// Evidence grounding a weakening-chain step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepEvidence {
    /// Subset inconsistent (Unsat certificate).
    Inconsistent {
        /// Certificate index.
        cert: usize,
    },
    /// Location unreachable (Unsat certificate).
    DeadLoc {
        /// Certificate index.
        cert: usize,
    },
    /// Path-metric structural evidence (no certificate).
    Path,
    /// Superset of a directly-dead base (monotonicity).
    Dominated {
        /// The dominating subset.
        base: Vec<u32>,
        /// The base's own evidence.
        evidence: Box<StepEvidence>,
    },
}

/// One weakening-chain step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The dead subset (sorted clause indices).
    pub subset: Vec<u32>,
    /// The clause removed from it.
    pub removed: u32,
    /// Why the subset was dead.
    pub evidence: StepEvidence,
}

/// A certified weakening chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Report label.
    pub label: String,
    /// The output spec (sorted clause indices).
    pub spec: Vec<u32>,
    /// Root-to-spec steps (may be empty for ungrounded chains).
    pub steps: Vec<Step>,
}

/// One procedure's certificates.
#[derive(Debug, Clone, PartialEq)]
pub struct Proc {
    /// Procedure name.
    pub proc_name: String,
    /// Term table.
    pub terms: BTreeMap<u32, Node>,
    /// Base assert stream (root term ids, in order).
    pub asserts: Vec<u32>,
    /// Term id → signed Tseitin literal of the shared proof log.
    pub lits: BTreeMap<u32, i64>,
    /// The shared, chronological input/learnt proof log.
    pub log: Vec<Event>,
    /// Certificates.
    pub certs: Vec<Cert>,
    /// Claims.
    pub claims: Vec<Claim>,
    /// Chains.
    pub chains: Vec<Chain>,
}

/// The whole sidecar document.
#[derive(Debug, Clone, PartialEq)]
pub struct CertsDoc {
    /// Schema version (must be [`SUPPORTED_SCHEMA_VERSION`]).
    pub schema_version: i64,
    /// Per-procedure entries.
    pub procs: Vec<Proc>,
}

fn err(what: &str) -> String {
    format!("malformed certificate document: {what}")
}

fn ids(v: &Value, what: &str) -> Result<Vec<u32>, String> {
    v.arr()
        .ok_or_else(|| err(what))?
        .iter()
        .map(|x| x.u32().ok_or_else(|| err(what)))
        .collect()
}

fn signed(v: &Value, what: &str) -> Result<Vec<i64>, String> {
    v.arr()
        .ok_or_else(|| err(what))?
        .iter()
        .map(|x| x.int().ok_or_else(|| err(what)))
        .collect()
}

fn node(v: &Value) -> Result<Node, String> {
    let a = v.arr().ok_or_else(|| err("term node not an array"))?;
    let tag = a
        .first()
        .and_then(Value::str)
        .ok_or_else(|| err("term node missing tag"))?;
    let one = |i: usize| -> Result<u32, String> {
        a.get(i)
            .and_then(Value::u32)
            .ok_or_else(|| err("term child id"))
    };
    Ok(match (tag, a.len()) {
        ("true", 1) => Node::True,
        ("false", 1) => Node::False,
        ("bool_var", 2) => {
            Node::BoolVar(a[1].str().ok_or_else(|| err("bool_var name"))?.to_string())
        }
        ("not", 2) => Node::Not(one(1)?),
        ("and", 2) => Node::And(ids(&a[1], "and children")?),
        ("or", 2) => Node::Or(ids(&a[1], "or children")?),
        ("implies", 3) => Node::Implies(one(1)?, one(2)?),
        ("iff", 3) => Node::Iff(one(1)?, one(2)?),
        ("eq", 3) => Node::Eq(one(1)?, one(2)?),
        ("le", 3) => Node::Le(one(1)?, one(2)?),
        ("lt", 3) => Node::Lt(one(1)?, one(2)?),
        ("int_var", 2) => Node::IntVar(a[1].str().ok_or_else(|| err("int_var name"))?.to_string()),
        ("int_const", 2) => Node::IntConst(a[1].int().ok_or_else(|| err("int_const value"))?),
        ("add", 2) => Node::Add(ids(&a[1], "add children")?),
        ("mulc", 3) => Node::MulC(a[1].int().ok_or_else(|| err("mulc factor"))?, one(2)?),
        ("app", 3) => Node::App(
            a[1].str().ok_or_else(|| err("app name"))?.to_string(),
            ids(&a[2], "app args")?,
        ),
        ("read", 3) => Node::Read(one(1)?, one(2)?),
        ("write", 4) => Node::Write(one(1)?, one(2)?, one(3)?),
        ("map_var", 2) => Node::MapVar(a[1].str().ok_or_else(|| err("map_var name"))?.to_string()),
        ("ite", 4) => Node::Ite(one(1)?, one(2)?, one(3)?),
        _ => return Err(err(&format!("unknown term tag `{tag}`"))),
    })
}

fn parse_tag(v: &Value) -> Result<Tag, String> {
    let a = v.arr().ok_or_else(|| err("clause tag not an array"))?;
    let name = a
        .first()
        .and_then(Value::str)
        .ok_or_else(|| err("clause tag missing name"))?;
    Ok(match (name, a.len()) {
        ("assert", 2) => Tag::Assert {
            term: a[1].u32().ok_or_else(|| err("assert tag term"))?,
        },
        ("purify", 4) => Tag::Purify {
            term: a[1].u32().ok_or_else(|| err("purify tag term"))?,
        },
        ("tseitin", 2) => Tag::Tseitin {
            term: a[1].u32().ok_or_else(|| err("tseitin tag term"))?,
        },
        ("theory", 2) => {
            let parts = a[1]
                .arr()
                .ok_or_else(|| err("theory parts"))?
                .iter()
                .map(|p| {
                    let pa = p.arr().filter(|pa| pa.len() == 2);
                    match pa {
                        Some(pa) => Ok((
                            pa[0].u32().ok_or_else(|| err("theory part term"))?,
                            pa[1].bool().ok_or_else(|| err("theory part polarity"))?,
                        )),
                        None => Err(err("theory part shape")),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            Tag::Theory { parts }
        }
        ("guarded", 3) => Tag::Guarded {
            guard: a[1].u32().ok_or_else(|| err("guarded tag guard"))?,
            parts: ids(&a[2], "guarded parts")?,
        },
        _ => return Err(err(&format!("unknown clause tag `{name}`"))),
    })
}

fn parse_model(v: &Value) -> Result<Model, String> {
    let mut model = Model::default();
    for (name, x) in v
        .get("ints")
        .and_then(Value::obj)
        .ok_or_else(|| err("model ints"))?
    {
        model
            .ints
            .insert(name.clone(), x.int().ok_or_else(|| err("model int value"))?);
    }
    for (name, x) in v
        .get("bools")
        .and_then(Value::obj)
        .ok_or_else(|| err("model bools"))?
    {
        model.bools.insert(
            name.clone(),
            x.bool().ok_or_else(|| err("model bool value"))?,
        );
    }
    for (name, x) in v
        .get("maps")
        .and_then(Value::obj)
        .ok_or_else(|| err("model maps"))?
    {
        let default = x
            .get("default")
            .and_then(Value::int)
            .ok_or_else(|| err("map default"))?;
        let mut entries = BTreeMap::new();
        for e in x
            .get("entries")
            .and_then(Value::arr)
            .ok_or_else(|| err("map entries"))?
        {
            let pair = signed(e, "map entry")?;
            if pair.len() != 2 {
                return Err(err("map entry shape"));
            }
            entries.insert(pair[0], pair[1]);
        }
        model.maps.insert(name.clone(), Table { default, entries });
    }
    for (name, x) in v
        .get("funcs")
        .and_then(Value::obj)
        .ok_or_else(|| err("model funcs"))?
    {
        let default = x
            .get("default")
            .and_then(Value::int)
            .ok_or_else(|| err("func default"))?;
        let mut entries = BTreeMap::new();
        for e in x
            .get("entries")
            .and_then(Value::arr)
            .ok_or_else(|| err("func entries"))?
        {
            let pair = e
                .arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| err("func entry"))?;
            let args = signed(&pair[0], "func entry args")?;
            let val = pair[1].int().ok_or_else(|| err("func entry value"))?;
            entries.insert(args, val);
        }
        model.funcs.insert(name.clone(), Table { default, entries });
    }
    Ok(model)
}

fn parse_lits(v: &Value) -> Result<BTreeMap<u32, i64>, String> {
    let mut lits = BTreeMap::new();
    for e in v.arr().ok_or_else(|| err("proc lits"))? {
        let pair = e
            .arr()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| err("lit pair"))?;
        let t = pair[0].u32().ok_or_else(|| err("lit term"))?;
        let l = pair[1].int().ok_or_else(|| err("lit value"))?;
        if l == 0 {
            return Err(err("zero literal"));
        }
        if lits.insert(t, l).is_some() {
            return Err(err("duplicate lit term"));
        }
    }
    Ok(lits)
}

fn parse_event(e: &Value) -> Result<Event, String> {
    let a = e.arr().ok_or_else(|| err("log event shape"))?;
    let kind = a
        .first()
        .and_then(Value::str)
        .ok_or_else(|| err("log event kind"))?;
    match (kind, a.len()) {
        ("input", 3) => Ok(Event::Input {
            lits: signed(&a[1], "input clause lits")?,
            tag: parse_tag(&a[2])?,
        }),
        ("learnt", 2) => Ok(Event::Learnt {
            lits: signed(&a[1], "learnt clause lits")?,
        }),
        _ => Err(err("unknown log event")),
    }
}

fn parse_cert(v: &Value) -> Result<Cert, String> {
    let assumptions = ids(
        v.get("assumptions")
            .ok_or_else(|| err("cert assumptions"))?,
        "cert assumptions",
    )?;
    let asserts_upto = v
        .get("asserts_upto")
        .and_then(Value::usize)
        .ok_or_else(|| err("cert asserts_upto"))?;
    let blocking = v
        .get("blocking")
        .and_then(Value::arr)
        .ok_or_else(|| err("cert blocking"))?
        .iter()
        .map(|cl| ids(cl, "blocking clause"))
        .collect::<Result<Vec<_>, _>>()?;
    let outcome = match v
        .get("outcome")
        .and_then(Value::str)
        .ok_or_else(|| err("cert outcome"))?
    {
        "sat" => Outcome::Sat(parse_model(
            v.get("model")
                .ok_or_else(|| err("sat cert missing model"))?,
        )?),
        "unsat" => Outcome::Unsat(Proof {
            log_upto: v
                .get("log_upto")
                .and_then(Value::usize)
                .ok_or_else(|| err("unsat cert log_upto"))?,
            core: ids(
                v.get("core").ok_or_else(|| err("unsat cert core"))?,
                "unsat cert core",
            )?,
        }),
        "unknown" => Outcome::Unknown,
        other => return Err(err(&format!("unknown outcome `{other}`"))),
    };
    let self_checked = v
        .get("self_checked")
        .and_then(Value::bool)
        .ok_or_else(|| err("cert self_checked"))?;
    Ok(Cert {
        assumptions,
        asserts_upto,
        blocking,
        outcome,
        self_checked,
    })
}

fn parse_claim(v: &Value) -> Result<Claim, String> {
    let label = v
        .get("label")
        .and_then(Value::str)
        .ok_or_else(|| err("claim label"))?
        .to_string();
    let expect = v
        .get("expect")
        .and_then(Value::str)
        .ok_or_else(|| err("claim expect"))?
        .to_string();
    let cert = v
        .get("cert")
        .and_then(Value::usize)
        .ok_or_else(|| err("claim cert index"))?;
    let kind = match v
        .get("kind")
        .and_then(Value::str)
        .ok_or_else(|| err("claim kind"))?
    {
        "can_fail" => ClaimKind::CanFail,
        "cannot_fail" => ClaimKind::CannotFail,
        "baseline_dead" => ClaimKind::BaselineDead,
        "cube_feasible" => ClaimKind::CubeFeasible {
            cube: v
                .get("cube")
                .and_then(Value::usize)
                .ok_or_else(|| err("cube index"))?,
            lits: signed(v.get("lits").ok_or_else(|| err("cube lits"))?, "cube lits")?,
        },
        "cover_exhausted" => ClaimKind::CoverExhausted,
        "spec_fails" => ClaimKind::SpecFails,
        "spec_holds" => ClaimKind::SpecHolds,
        other => return Err(err(&format!("unknown claim kind `{other}`"))),
    };
    Ok(Claim {
        label,
        kind,
        expect,
        cert,
    })
}

fn parse_evidence(v: &Value) -> Result<StepEvidence, String> {
    match v
        .get("kind")
        .and_then(Value::str)
        .ok_or_else(|| err("step evidence kind"))?
    {
        "inconsistent" => Ok(StepEvidence::Inconsistent {
            cert: v
                .get("cert")
                .and_then(Value::usize)
                .ok_or_else(|| err("evidence cert"))?,
        }),
        "dead_loc" => Ok(StepEvidence::DeadLoc {
            cert: v
                .get("cert")
                .and_then(Value::usize)
                .ok_or_else(|| err("evidence cert"))?,
        }),
        "path" => Ok(StepEvidence::Path),
        "dominated" => Ok(StepEvidence::Dominated {
            base: ids(
                v.get("base").ok_or_else(|| err("dominated base"))?,
                "dominated base",
            )?,
            evidence: Box::new(parse_evidence(
                v.get("evidence").ok_or_else(|| err("dominated evidence"))?,
            )?),
        }),
        other => Err(err(&format!("unknown evidence kind `{other}`"))),
    }
}

fn parse_chain(v: &Value) -> Result<Chain, String> {
    let label = v
        .get("label")
        .and_then(Value::str)
        .ok_or_else(|| err("chain label"))?
        .to_string();
    let spec = ids(
        v.get("spec").ok_or_else(|| err("chain spec"))?,
        "chain spec",
    )?;
    let steps = v
        .get("steps")
        .and_then(Value::arr)
        .ok_or_else(|| err("chain steps"))?
        .iter()
        .map(|s| {
            Ok(Step {
                subset: ids(
                    s.get("subset").ok_or_else(|| err("step subset"))?,
                    "step subset",
                )?,
                removed: s
                    .get("removed")
                    .and_then(Value::u32)
                    .ok_or_else(|| err("step removed"))?,
                evidence: parse_evidence(s.get("evidence").ok_or_else(|| err("step evidence"))?)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Chain { label, spec, steps })
}

fn parse_proc(v: &Value) -> Result<Proc, String> {
    let proc_name = v
        .get("proc_name")
        .and_then(Value::str)
        .ok_or_else(|| err("proc_name"))?
        .to_string();
    let mut terms = BTreeMap::new();
    for (id, t) in v
        .get("terms")
        .and_then(Value::obj)
        .ok_or_else(|| err("proc terms"))?
    {
        let id: u32 = id.parse().map_err(|_| err("term id key"))?;
        terms.insert(id, node(t)?);
    }
    let asserts = ids(
        v.get("asserts").ok_or_else(|| err("proc asserts"))?,
        "proc asserts",
    )?;
    let lits = parse_lits(v.get("lits").ok_or_else(|| err("proc lits"))?)?;
    let log = v
        .get("log")
        .and_then(Value::arr)
        .ok_or_else(|| err("proc log"))?
        .iter()
        .map(parse_event)
        .collect::<Result<Vec<_>, _>>()?;
    let certs = v
        .get("certs")
        .and_then(Value::arr)
        .ok_or_else(|| err("proc certs"))?
        .iter()
        .map(parse_cert)
        .collect::<Result<Vec<_>, _>>()?;
    let claims = v
        .get("claims")
        .and_then(Value::arr)
        .ok_or_else(|| err("proc claims"))?
        .iter()
        .map(parse_claim)
        .collect::<Result<Vec<_>, _>>()?;
    let chains = v
        .get("chains")
        .and_then(Value::arr)
        .ok_or_else(|| err("proc chains"))?
        .iter()
        .map(parse_chain)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Proc {
        proc_name,
        terms,
        asserts,
        lits,
        log,
        certs,
        claims,
        chains,
    })
}

/// Reads a certificate sidecar document from an already-parsed JSON
/// value.
pub fn certs_doc_from_value(v: &Value) -> Result<CertsDoc, String> {
    let schema_version = v
        .get("schema_version")
        .and_then(Value::int)
        .ok_or_else(|| err("schema_version"))?;
    if schema_version != SUPPORTED_SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {schema_version} (checker supports {SUPPORTED_SCHEMA_VERSION})"
        ));
    }
    let procs = v
        .get("procs")
        .and_then(Value::arr)
        .ok_or_else(|| err("procs"))?
        .iter()
        .map(parse_proc)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CertsDoc {
        schema_version,
        procs,
    })
}
