//! The certificate sidecar: per-claim evidence threaded up from the
//! query engine (`--certs-out`).
//!
//! Every verdict the report surfaces is recorded here as a [`Claim`]
//! pointing into the procedure's shared
//! [`CertStore`](acspec_vcgen::CertStore): a `can_fail` warning claim
//! expects a `Sat` certificate carrying a full model, a `cannot_fail` /
//! `baseline_dead` / `cover_exhausted` claim expects an `Unsat`
//! certificate carrying a replayable proof, and each Algorithm 2
//! weakening chain is recorded step by step with the dead-verdict
//! evidence grounding it ([`ChainRecord`]). The sidecar is written as a
//! self-contained schema-versioned JSON document that the independent
//! `acspec-check` crate re-validates without sharing any code with this
//! engine.
//!
//! The JSON is emitted by hand, with strings escaped by the workspace's
//! one writer ([`write_str`]): the document format is the contract with
//! the independent checker, so the emission is kept explicit and
//! deterministic (every map is ordered, every enum has a stable tag)
//! rather than derived.

use std::fmt::Write as _;

use acspec_ir::locs::LocId;
use acspec_ir::stmt::AssertId;
use acspec_telemetry::json::write_str;
use acspec_vcgen::{CertEvent, CertOutcome, CertStore, CertTag, QueryCert, TermNode};

/// Version of the certificate sidecar layout (`--certs-out`).
/// History: `3` — one replay solver and proof log per certificate; `4`
/// — one shared `lits` table and append-only `log` per procedure, with
/// `unsat` certificates referencing a log prefix (`log_upto`) and ALL-SAT
/// blocking clauses guarded. Reports keep their own
/// [`REPORT_SCHEMA_VERSION`](crate::report::REPORT_SCHEMA_VERSION).
pub const CERTS_SCHEMA_VERSION: u32 = 4;

/// What a claim asserts about the program, keyed to the report field it
/// backs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimKind {
    /// The assertion can fail under the active environment (a warning):
    /// expects `Sat` with a failure model.
    CanFail {
        /// The failing assertion.
        assert: AssertId,
        /// Its provenance tag.
        tag: String,
    },
    /// The assertion cannot fail: expects `Unsat` with a proof.
    CannotFail {
        /// The suppressed assertion.
        assert: AssertId,
        /// Its provenance tag.
        tag: String,
    },
    /// The location is dead under the demonic environment (`Dead(true)`
    /// baseline): expects `Unsat`.
    BaselineDead {
        /// The dead location.
        loc: LocId,
    },
    /// An ALL-SAT cover cube is feasible: expects `Sat`.
    CubeFeasible {
        /// Cube index (= cover clause index).
        cube: usize,
        /// The cube as signed indicator term ids (`+t` = predicate
        /// true, `-t` = false), for the checker's disjointness pass.
        lits: Vec<i64>,
    },
    /// The ALL-SAT enumeration is exhausted — the blocking clauses cover
    /// every failing cube: expects `Unsat` under the certificate's
    /// blocking clauses.
    CoverExhausted,
    /// The assertion fails under an almost-correct specification (a
    /// high-confidence warning): expects `Sat`.
    SpecFails {
        /// The rendered specification.
        spec: String,
        /// The warned assertion.
        assert: AssertId,
        /// Its provenance tag.
        tag: String,
    },
    /// The assertion is verified under an almost-correct specification:
    /// expects `Unsat`.
    SpecHolds {
        /// The rendered specification.
        spec: String,
        /// The verified assertion.
        assert: AssertId,
        /// Its provenance tag.
        tag: String,
    },
}

impl ClaimKind {
    /// Stable lowercase kind name (the JSON `kind` field).
    pub fn name(&self) -> &'static str {
        match self {
            ClaimKind::CanFail { .. } => "can_fail",
            ClaimKind::CannotFail { .. } => "cannot_fail",
            ClaimKind::BaselineDead { .. } => "baseline_dead",
            ClaimKind::CubeFeasible { .. } => "cube_feasible",
            ClaimKind::CoverExhausted => "cover_exhausted",
            ClaimKind::SpecFails { .. } => "spec_fails",
            ClaimKind::SpecHolds { .. } => "spec_holds",
        }
    }

    /// The verdict this claim's certificate must carry.
    pub fn expect(&self) -> &'static str {
        match self {
            ClaimKind::CanFail { .. }
            | ClaimKind::CubeFeasible { .. }
            | ClaimKind::SpecFails { .. } => "sat",
            ClaimKind::CannotFail { .. }
            | ClaimKind::BaselineDead { .. }
            | ClaimKind::CoverExhausted
            | ClaimKind::SpecHolds { .. } => "unsat",
        }
    }
}

/// One verdict surfaced by a report, with its backing certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// The report the claim backs (`Cons`, a configuration name, or
    /// `shared` for the screen).
    pub label: String,
    /// What is claimed.
    pub kind: ClaimKind,
    /// Index into the procedure store's certificates.
    pub cert: usize,
}

/// Evidence grounding one weakening-chain step's dead verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepEvidence {
    /// The subset's conjunction is unsatisfiable over the inputs.
    Inconsistent {
        /// Certificate (expects `Unsat`).
        cert: usize,
    },
    /// A tracked location became unreachable.
    DeadLoc {
        /// The dead location.
        loc: LocId,
        /// Certificate for `reach(loc)` (expects `Unsat`).
        cert: usize,
    },
    /// A baseline path profile disappeared (path metric): structural
    /// evidence only, no per-location certificate.
    Path,
    /// Superset of `base`, itself directly dead (§2.3 monotonicity).
    Dominated {
        /// The dominating (smaller) dead subset.
        base: Vec<u32>,
        /// `base`'s own direct evidence.
        evidence: Box<StepEvidence>,
    },
}

/// One step of a certified weakening chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStepRecord {
    /// The dead subset this step weakened (sorted clause indices).
    pub subset: Vec<u32>,
    /// The clause removed.
    pub removed: u32,
    /// Why `subset` was dead.
    pub evidence: StepEvidence,
}

/// A certified Algorithm 2 weakening chain, from the full cover down to
/// one output specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainRecord {
    /// The configuration the chain belongs to.
    pub label: String,
    /// The output spec (sorted clause indices into the cover).
    pub spec: Vec<u32>,
    /// The steps, root-to-spec. Empty when the chain could not be
    /// grounded (a `fail = 0` fidelity push has no dead verdict).
    pub steps: Vec<ChainStepRecord>,
}

/// Everything one procedure's session certified: the shared store plus
/// the claims and chains referencing it.
#[derive(Debug, Clone, Default)]
pub struct ProcCerts {
    /// Procedure name.
    pub proc_name: String,
    /// The term table, assert stream, and certificates.
    pub store: CertStore,
    /// Report-level claims.
    pub claims: Vec<Claim>,
    /// Certified weakening chains.
    pub chains: Vec<ChainRecord>,
}

impl ProcCerts {
    /// True when nothing was certified (store untouched).
    pub fn is_empty(&self) -> bool {
        self.store.certs.is_empty() && self.claims.is_empty() && self.chains.is_empty()
    }
}

// ---------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------

/// `s` as a JSON string literal, quotes included.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

fn join<T, F: FnMut(&T) -> String>(items: &[T], f: F) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(",")
}

fn term_json(node: &TermNode) -> String {
    let ids = |ps: &[u32]| join(ps, u32::to_string);
    match node {
        TermNode::True => "[\"true\"]".into(),
        TermNode::False => "[\"false\"]".into(),
        TermNode::BoolVar(n) => format!("[\"bool_var\",{}]", quoted(n)),
        TermNode::Not(a) => format!("[\"not\",{a}]"),
        TermNode::And(ps) => format!("[\"and\",[{}]]", ids(ps)),
        TermNode::Or(ps) => format!("[\"or\",[{}]]", ids(ps)),
        TermNode::Implies(a, b) => format!("[\"implies\",{a},{b}]"),
        TermNode::Iff(a, b) => format!("[\"iff\",{a},{b}]"),
        TermNode::Eq(a, b) => format!("[\"eq\",{a},{b}]"),
        TermNode::Le(a, b) => format!("[\"le\",{a},{b}]"),
        TermNode::Lt(a, b) => format!("[\"lt\",{a},{b}]"),
        TermNode::IntVar(n) => format!("[\"int_var\",{}]", quoted(n)),
        TermNode::IntConst(c) => format!("[\"int_const\",{c}]"),
        TermNode::Add(ps) => format!("[\"add\",[{}]]", ids(ps)),
        TermNode::MulC(c, a) => format!("[\"mulc\",{c},{a}]"),
        TermNode::App(f, ps) => format!("[\"app\",{},[{}]]", quoted(f), ids(ps)),
        TermNode::Read(m, i) => format!("[\"read\",{m},{i}]"),
        TermNode::Write(m, i, v) => format!("[\"write\",{m},{i},{v}]"),
        TermNode::MapVar(n) => format!("[\"map_var\",{}]", quoted(n)),
        TermNode::Ite(c, a, b) => format!("[\"ite\",{c},{a},{b}]"),
    }
}

fn tag_json(tag: &CertTag) -> String {
    match tag {
        CertTag::Assert { term } => format!("[\"assert\",{term}]"),
        CertTag::Purify { term, ite, var } => format!("[\"purify\",{term},{ite},{var}]"),
        CertTag::Tseitin { term } => format!("[\"tseitin\",{term}]"),
        CertTag::Theory { parts } => format!(
            "[\"theory\",[{}]]",
            join(parts, |(t, p)| format!("[{t},{p}]"))
        ),
        CertTag::Guarded { guard, parts } => {
            format!("[\"guarded\",{guard},[{}]]", join(parts, u32::to_string))
        }
    }
}

fn event_json(event: &CertEvent) -> String {
    match event {
        CertEvent::Input { lits, tag } => format!(
            "[\"input\",[{}],{}]",
            join(lits, i64::to_string),
            tag_json(tag)
        ),
        CertEvent::Learnt { lits } => {
            format!("[\"learnt\",[{}]]", join(lits, i64::to_string))
        }
    }
}

fn cert_json(cert: &QueryCert) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"assumptions\":[{}],\"asserts_upto\":{},\"blocking\":[{}]",
        join(&cert.assumptions, u32::to_string),
        cert.asserts_upto,
        join(&cert.blocking, |cl| format!(
            "[{}]",
            join(cl, u32::to_string)
        )),
    );
    let _ = write!(s, ",\"outcome\":\"{}\"", cert.outcome.name());
    match &cert.outcome {
        CertOutcome::Sat(model) => {
            let ints = model
                .ints
                .iter()
                .map(|(n, v)| format!("{}:{v}", quoted(n)))
                .collect::<Vec<_>>()
                .join(",");
            let bools = model
                .bools
                .iter()
                .map(|(n, v)| format!("{}:{v}", quoted(n)))
                .collect::<Vec<_>>()
                .join(",");
            let maps = model
                .maps
                .iter()
                .map(|(n, mv)| {
                    format!(
                        "{}:{{\"default\":{},\"entries\":[{}]}}",
                        quoted(n),
                        mv.default,
                        mv.entries
                            .iter()
                            .map(|(k, v)| format!("[{k},{v}]"))
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            let funcs = model
                .funcs
                .iter()
                .map(|(n, fv)| {
                    format!(
                        "{}:{{\"default\":{},\"entries\":[{}]}}",
                        quoted(n),
                        fv.default,
                        fv.entries
                            .iter()
                            .map(|(args, v)| format!("[[{}],{v}]", join(args, i64::to_string)))
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(
                s,
                ",\"model\":{{\"ints\":{{{ints}}},\"bools\":{{{bools}}},\"maps\":{{{maps}}},\"funcs\":{{{funcs}}}}}"
            );
        }
        CertOutcome::Unsat(proof) => {
            let _ = write!(
                s,
                ",\"log_upto\":{},\"core\":[{}]",
                proof.log_upto,
                join(&proof.core, u32::to_string)
            );
        }
        CertOutcome::Unknown => {}
    }
    let _ = write!(s, ",\"self_checked\":{}}}", cert.self_checked);
    s
}

fn claim_json(claim: &Claim) -> String {
    let mut s = format!(
        "{{\"label\":{},\"kind\":\"{}\",\"expect\":\"{}\"",
        quoted(&claim.label),
        claim.kind.name(),
        claim.kind.expect()
    );
    match &claim.kind {
        ClaimKind::CanFail { assert, tag } | ClaimKind::CannotFail { assert, tag } => {
            let _ = write!(s, ",\"assert\":\"{assert}\",\"tag\":{}", quoted(tag));
        }
        ClaimKind::BaselineDead { loc } => {
            let _ = write!(s, ",\"loc\":{}", loc.0);
        }
        ClaimKind::CubeFeasible { cube, lits } => {
            let _ = write!(
                s,
                ",\"cube\":{cube},\"lits\":[{}]",
                join(lits, i64::to_string)
            );
        }
        ClaimKind::CoverExhausted => {}
        ClaimKind::SpecFails { spec, assert, tag } | ClaimKind::SpecHolds { spec, assert, tag } => {
            let _ = write!(
                s,
                ",\"spec\":{},\"assert\":\"{assert}\",\"tag\":{}",
                quoted(spec),
                quoted(tag)
            );
        }
    }
    let _ = write!(s, ",\"cert\":{}}}", claim.cert);
    s
}

fn evidence_json(ev: &StepEvidence) -> String {
    match ev {
        StepEvidence::Inconsistent { cert } => {
            format!("{{\"kind\":\"inconsistent\",\"cert\":{cert}}}")
        }
        StepEvidence::DeadLoc { loc, cert } => {
            format!(
                "{{\"kind\":\"dead_loc\",\"loc\":{},\"cert\":{cert}}}",
                loc.0
            )
        }
        StepEvidence::Path => "{\"kind\":\"path\"}".into(),
        StepEvidence::Dominated { base, evidence } => format!(
            "{{\"kind\":\"dominated\",\"base\":[{}],\"evidence\":{}}}",
            join(base, u32::to_string),
            evidence_json(evidence)
        ),
    }
}

fn chain_json(chain: &ChainRecord) -> String {
    format!(
        "{{\"label\":{},\"spec\":[{}],\"steps\":[{}]}}",
        quoted(&chain.label),
        join(&chain.spec, u32::to_string),
        join(&chain.steps, |st| format!(
            "{{\"subset\":[{}],\"removed\":{},\"evidence\":{}}}",
            join(&st.subset, u32::to_string),
            st.removed,
            evidence_json(&st.evidence)
        ))
    )
}

/// Renders one procedure's sidecar fragment (an element of the
/// document's `procs` array). Public because the persistent result
/// store saves exactly this string per procedure: a warm run reassembles
/// the sidecar from stored fragments with
/// [`certs_json_from_fragments`], making warm sidecars byte-identical
/// to cold ones *by construction* rather than by re-serialization.
pub fn proc_certs_json(pc: &ProcCerts) -> String {
    proc_json(pc)
}

/// Assembles a sidecar document from pre-rendered per-procedure
/// fragments (see [`proc_certs_json`]). Uses the same format string as
/// [`certs_json`], so mixing cold fragments and store-loaded fragments
/// yields the same bytes as an all-cold run.
pub fn certs_json_from_fragments(fragments: &[String]) -> String {
    format!(
        "{{\"schema_version\":{CERTS_SCHEMA_VERSION},\"procs\":[{}]}}\n",
        fragments.join(",")
    )
}

fn proc_json(pc: &ProcCerts) -> String {
    let terms = pc
        .store
        .terms
        .iter()
        .map(|(id, node)| format!("\"{id}\":{}", term_json(node)))
        .collect::<Vec<_>>()
        .join(",");
    let lits = pc
        .store
        .lits
        .iter()
        .map(|(t, l)| format!("[{t},{l}]"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"proc_name\":{},\"terms\":{{{terms}}},\"asserts\":[{}],\"lits\":[{lits}],\"log\":[{}],\"certs\":[{}],\"claims\":[{}],\"chains\":[{}]}}",
        quoted(&pc.proc_name),
        join(&pc.store.asserts, u32::to_string),
        join(&pc.store.log, event_json),
        join(&pc.store.certs, cert_json),
        join(&pc.claims, claim_json),
        join(&pc.chains, chain_json),
    )
}

/// Renders the certificate sidecar document (the `--certs-out` payload):
/// schema-versioned, one entry per certified procedure.
pub fn certs_json(procs: &[ProcCerts]) -> String {
    format!(
        "{{\"schema_version\":{CERTS_SCHEMA_VERSION},\"procs\":[{}]}}\n",
        join(procs, proc_json)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_kinds_pair_names_with_expectations() {
        let k = ClaimKind::CanFail {
            assert: AssertId(3),
            tag: "deref".into(),
        };
        assert_eq!(k.name(), "can_fail");
        assert_eq!(k.expect(), "sat");
        assert_eq!(ClaimKind::CoverExhausted.expect(), "unsat");
        assert_eq!(ClaimKind::BaselineDead { loc: LocId(1) }.expect(), "unsat");
    }

    #[test]
    fn sidecar_document_is_schema_versioned_json() {
        let doc = certs_json(&[ProcCerts {
            proc_name: "f".into(),
            ..ProcCerts::default()
        }]);
        assert!(doc.starts_with(&format!("{{\"schema_version\":{CERTS_SCHEMA_VERSION}")));
        assert!(doc.contains("\"proc_name\":\"f\""));
        let v = acspec_check::json::parse(&doc).expect("valid JSON");
        let procs = v.get("procs").and_then(|p| p.arr()).expect("procs");
        assert_eq!(
            procs[0].get("claims").and_then(|c| c.arr()).map(<[_]>::len),
            Some(0)
        );
    }

    #[test]
    fn strings_are_quoted_and_escaped() {
        assert_eq!(quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn fragment_assembly_matches_direct_emission() {
        let procs = vec![
            ProcCerts {
                proc_name: "f".into(),
                ..ProcCerts::default()
            },
            ProcCerts {
                proc_name: "g".into(),
                ..ProcCerts::default()
            },
        ];
        let fragments: Vec<String> = procs.iter().map(proc_certs_json).collect();
        assert_eq!(certs_json_from_fragments(&fragments), certs_json(&procs));
    }
}
