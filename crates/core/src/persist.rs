//! The persistent result store's session-facing layer: cache keys,
//! the payload codec, and the shared [`StoreSession`] handle
//! (DESIGN.md §4.9).
//!
//! [`acspec_store`] knows nothing about reports — it moves validated
//! byte payloads. This module gives those bytes meaning: a payload is a
//! compact JSON document carrying one procedure's `Cons` baseline, the
//! per-config/per-variant report matrix, and the certificate fragment
//! (when the run certified).
//!
//! ## Byte identity
//!
//! A warm hit must re-emit *byte-identical* reports, so the codec never
//! stores anything lossily:
//!
//! * stage seconds are stored as `f64::to_bits()`: a decimal rendering
//!   would not round-trip the float, while the reader keeps integers as
//!   exact `i64`s and a non-negative `f64`'s bit pattern is below 2^63
//!   (a negative time would fail the self-check below and go uncached);
//! * specifications are stored in surface syntax and re-parsed with
//!   [`parse_formula`]; [`encode_analysis`] refuses to cache any
//!   procedure whose rendered specs do not round-trip (so a warm run
//!   can never drift);
//! * certificates are stored as the pre-rendered per-procedure JSON
//!   fragment ([`crate::certs::proc_certs_json`]) and reassembled with
//!   [`crate::certs::certs_json_from_fragments`], identical by
//!   construction;
//! * before saving, [`encode_analysis`] decodes its own output and
//!   verifies the reconstruction renders byte-identically — a payload
//!   that fails the self-check is simply not cached.
//!
//! Payloads are read with `acspec_check::json::parse`, the workspace's
//! one JSON reader: strict, and capped in nesting depth, so a hostile
//! payload behind a valid checksum decodes to a miss rather than
//! overflowing the stack.
//!
//! ## Keys
//!
//! [`entry_key`] mixes the procedure's content fingerprint
//! ([`crate::fingerprint::procedure_fingerprint`]) with an options
//! digest ([`options_digest`]): any change to the analysis template —
//! configuration ladder, prune variants, budgets, chaos seeding,
//! certification — addresses different entries. Thread count is
//! deliberately excluded (output is thread-count-invariant).

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use acspec_check::json::{self, Value};
use acspec_ir::expr::Formula;
use acspec_ir::parse::parse_formula;
use acspec_ir::stmt::AssertId;
use acspec_predabs::normalize::PruneConfig;
use acspec_smt::SolverCounters;
use acspec_store::{sha256_hex, CorruptionKind, LoadResult, ResultStore, StoreStats};
use acspec_telemetry::json::write_str;
use acspec_vcgen::chaos::{ChaosConfig, ChaosStoreStats};
use acspec_vcgen::stage::{Stage, StageTable};

use crate::config::{AcspecOptions, ConfigName};
use crate::report::{
    AnalysisOutcome, Fallback, ProcReport, ProcStats, ReportLabel, SibStatus, Warning, Witness,
    REPORT_SCHEMA_VERSION,
};
use crate::session::ProcAnalysis;

/// Version of the *payload* layout (inside the store's checksummed
/// envelope, whose own version is
/// [`acspec_store::STORE_SCHEMA_VERSION`]). Mixed into [`entry_key`] and
/// stamped into every payload: a layout change makes old entries
/// unaddressable *and* undecodable, so stale stores degrade to misses,
/// never to misreads. History: `2` — stored certificate fragments use
/// the schema-4 sidecar layout (one shared proof log per procedure);
/// `3` — payloads no longer carry the query cache's antichains; `4` —
/// report stats fold the session's stage events, so entries holding the
/// older figures miss once.
pub const PERSIST_VERSION: u32 = 4;

/// The content-addressed key of one procedure's entry: SHA-256 over the
/// procedure fingerprint and the options digest.
pub fn entry_key(fingerprint: &str, options: &str) -> String {
    sha256_hex(
        format!("acspec-entry v{PERSIST_VERSION}\nfingerprint {fingerprint}\noptions {options}")
            .as_bytes(),
    )
}

/// Digest of everything about the analysis *request* (as opposed to the
/// program) that a stored result depends on. Thread count is excluded:
/// reports are deterministic across `--threads`.
pub fn options_digest(
    base: &AcspecOptions,
    configs: &[ConfigName],
    prune_variants: &[PruneConfig],
    skip_correct: bool,
    certify: bool,
) -> String {
    let mut text = format!("acspec-options v{PERSIST_VERSION}\n");
    let _ = writeln!(text, "base {base:?}");
    let _ = writeln!(text, "configs {configs:?}");
    let _ = writeln!(text, "prune_variants {prune_variants:?}");
    let _ = writeln!(text, "skip_correct {skip_correct}");
    let _ = writeln!(text, "certify {certify}");
    sha256_hex(text.as_bytes())
}

// ---------------------------------------------------------------------
// Encoding (hand-emitted compact JSON, as the certificate sidecars in
// `certs.rs` are).
// ---------------------------------------------------------------------

fn push_witness(out: &mut String, w: &Witness) {
    out.push('{');
    for (i, (name, value)) in w.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, name);
        let _ = write!(out, ":{value}");
    }
    out.push('}');
}

fn push_warning(out: &mut String, w: &Warning) {
    let _ = write!(out, "{{\"assert\":{},\"tag\":", w.assert.0);
    write_str(out, &w.tag);
    out.push_str(",\"witness\":");
    match &w.witness {
        Some(witness) => push_witness(out, witness),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn push_stats(out: &mut String, s: &ProcStats) {
    let _ = write!(
        out,
        "{{\"n_predicates\":{},\"n_cover_clauses\":{},\"search_nodes\":{},\"solver_queries\":{},\"smt\":[{},{},{},{}],\"stages\":[",
        s.n_predicates,
        s.n_cover_clauses,
        s.search_nodes,
        s.solver_queries,
        s.smt.conflicts,
        s.smt.decisions,
        s.smt.propagations,
        s.smt.theory_conflicts,
    );
    let mut first = true;
    for stage in Stage::ALL {
        if !first {
            out.push(',');
        }
        first = false;
        let m = s.stages.get(stage);
        let _ = write!(out, "[{},{}]", m.seconds.to_bits(), m.queries);
    }
    out.push_str("]}");
}

/// Renders one report. Returns `None` when a specification's surface
/// rendering does not parse back to the same rendering — such a report
/// cannot be reconstructed byte-identically, so it is never cached.
fn push_report(out: &mut String, r: &ProcReport) -> Option<()> {
    out.push_str("{\"config\":");
    write_str(out, &r.config.to_string());
    let _ = write!(out, ",\"status\":\"{}\"", r.status.name());
    out.push_str(",\"warnings\":[");
    for (i, w) in r.warnings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_warning(out, w);
    }
    out.push_str("],\"specs\":[");
    for (i, spec) in r.specs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rendered = spec.to_string();
        let reparsed = parse_formula(&rendered).ok()?;
        if reparsed.to_string() != rendered {
            return None;
        }
        write_str(out, &rendered);
    }
    let _ = write!(out, "],\"min_fail\":{},\"stats\":", r.min_fail);
    push_stats(out, &r.stats);
    out.push_str(",\"outcome\":");
    match r.outcome {
        AnalysisOutcome::Ok => out.push_str("[\"ok\"]"),
        AnalysisOutcome::TimedOut => out.push_str("[\"timed_out\"]"),
        AnalysisOutcome::Degraded {
            from_stage,
            fallback,
        } => {
            let _ = write!(
                out,
                "[\"degraded\",\"{}\",\"{}\"]",
                from_stage.name(),
                fallback.name()
            );
        }
    }
    out.push_str(",\"timeout_stage\":");
    match r.timeout_stage {
        Some(stage) => {
            let _ = write!(out, "\"{}\"", stage.name());
        }
        None => out.push_str("null"),
    }
    out.push('}');
    Some(())
}

/// Serializes everything a warm run needs to re-emit `pa`'s reports
/// byte-identically.
///
/// Returns `None` when the analysis cannot be round-tripped (a spec
/// rendering that does not re-parse, or the decode self-check fails) —
/// the caller simply skips caching. Never returns bytes that would
/// decode to anything but `pa`'s exact reports.
pub fn encode_analysis(pa: &ProcAnalysis) -> Option<Vec<u8>> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"persist\":{PERSIST_VERSION},\"report_schema\":{REPORT_SCHEMA_VERSION},\"proc_name\":"
    );
    write_str(&mut out, &pa.proc_name);
    out.push_str(",\"cons\":");
    push_report(&mut out, &pa.cons)?;
    out.push_str(",\"reports\":[");
    for (i, per_config) in pa.reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, r) in per_config.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_report(&mut out, r)?;
        }
        out.push(']');
    }
    out.push_str("],\"certs\":");
    match &pa.certs_fragment {
        Some(fragment) => write_str(&mut out, fragment),
        None => out.push_str("null"),
    }
    out.push('}');

    // Self-check: decode our own bytes and insist the reconstruction
    // renders byte-identically. Anything else is not cached.
    let decoded = decode_analysis(out.as_bytes())?;
    if !round_trips(pa, &decoded) {
        return None;
    }
    Some(out.into_bytes())
}

fn round_trips(cold: &ProcAnalysis, warm: &ProcAnalysis) -> bool {
    cold.proc_name == warm.proc_name
        && cold.cons.to_json() == warm.cons.to_json()
        && cold.reports.len() == warm.reports.len()
        && cold
            .reports
            .iter()
            .flatten()
            .map(ProcReport::to_json)
            .eq(warm.reports.iter().flatten().map(ProcReport::to_json))
        && cold
            .reports
            .iter()
            .map(Vec::len)
            .eq(warm.reports.iter().map(Vec::len))
        && cold.certs_fragment == warm.certs_fragment
}

// ---------------------------------------------------------------------
// Decoding (via the checker's reader, `acspec_check::json`).
// ---------------------------------------------------------------------

fn stage_from_name(name: &str) -> Option<Stage> {
    Stage::ALL.iter().copied().find(|s| s.name() == name)
}

fn fallback_from_name(name: &str) -> Option<Fallback> {
    [
        Fallback::PartialEvaluation,
        Fallback::BestCandidate,
        Fallback::CappedCover,
        Fallback::ConsScreen,
    ]
    .into_iter()
    .find(|f| f.name() == name)
}

fn label_from_name(name: &str) -> Option<ReportLabel> {
    match name {
        "Cons" => Some(ReportLabel::Cons),
        "Conc" => Some(ReportLabel::Config(ConfigName::Conc)),
        "A0" => Some(ReportLabel::Config(ConfigName::A0)),
        "A1" => Some(ReportLabel::Config(ConfigName::A1)),
        "A2" => Some(ReportLabel::Config(ConfigName::A2)),
        _ => None,
    }
}

fn witness_from(v: &Value) -> Option<Witness> {
    let values = v
        .obj()?
        .iter()
        .map(|(name, value)| Some((name.clone(), value.int()?)))
        .collect::<Option<_>>()?;
    Some(Witness::new(values))
}

fn warning_from(v: &Value) -> Option<Warning> {
    let assert = v.get("assert")?.u32()?;
    let tag = v.get("tag")?.str()?.to_string();
    let witness = match v.get("witness")? {
        Value::Null => None,
        w => Some(witness_from(w)?),
    };
    Some(Warning {
        assert: AssertId(assert),
        tag,
        witness,
    })
}

fn stats_from(v: &Value) -> Option<ProcStats> {
    let mut smt = SolverCounters::default();
    let smt_v = v.get("smt")?.arr()?;
    if smt_v.len() != 4 {
        return None;
    }
    smt.conflicts = smt_v[0].u64()?;
    smt.decisions = smt_v[1].u64()?;
    smt.propagations = smt_v[2].u64()?;
    smt.theory_conflicts = smt_v[3].u64()?;
    let stages_v = v.get("stages")?.arr()?;
    if stages_v.len() != Stage::ALL.len() {
        return None;
    }
    let mut stages = StageTable::default();
    for (stage, entry) in Stage::ALL.iter().zip(stages_v) {
        let pair = entry.arr()?;
        if pair.len() != 2 {
            return None;
        }
        let seconds = f64::from_bits(pair[0].u64()?);
        let queries = pair[1].u64()?;
        stages.record(*stage, seconds, queries);
    }
    Some(ProcStats {
        n_predicates: v.get("n_predicates")?.usize()?,
        n_cover_clauses: v.get("n_cover_clauses")?.usize()?,
        search_nodes: v.get("search_nodes")?.usize()?,
        solver_queries: v.get("solver_queries")?.u64()?,
        stages,
        smt,
    })
}

fn report_from(v: &Value, proc_name: &str) -> Option<ProcReport> {
    let config = label_from_name(v.get("config")?.str()?)?;
    let status_name = v.get("status")?.str()?;
    let status = [SibStatus::Correct, SibStatus::Sib, SibStatus::MayBug]
        .into_iter()
        .find(|s| s.name() == status_name)?;
    let warnings = v
        .get("warnings")?
        .arr()?
        .iter()
        .map(warning_from)
        .collect::<Option<Vec<_>>>()?;
    let specs = v
        .get("specs")?
        .arr()?
        .iter()
        .map(|s| parse_formula(s.str()?).ok())
        .collect::<Option<Vec<Formula>>>()?;
    let outcome_v = v.get("outcome")?.arr()?;
    let outcome = match outcome_v.first()?.str()? {
        "ok" => AnalysisOutcome::Ok,
        "timed_out" => AnalysisOutcome::TimedOut,
        "degraded" => AnalysisOutcome::Degraded {
            from_stage: stage_from_name(outcome_v.get(1)?.str()?)?,
            fallback: fallback_from_name(outcome_v.get(2)?.str()?)?,
        },
        _ => return None,
    };
    let timeout_stage = match v.get("timeout_stage")? {
        Value::Null => None,
        s => Some(stage_from_name(s.str()?)?),
    };
    Some(ProcReport {
        proc_name: proc_name.to_string(),
        config,
        status,
        warnings,
        specs,
        min_fail: v.get("min_fail")?.usize()?,
        stats: stats_from(v.get("stats")?)?,
        outcome,
        timeout_stage,
    })
}

/// Reconstructs a [`ProcAnalysis`] from a validated payload. Returns
/// `None` on any structural surprise (wrong payload version, unknown
/// names, missing fields) — callers treat that as a cache miss and
/// recompute; a `None` can never alter a verdict.
///
/// The reconstruction is marked [`ProcAnalysis::from_store`] and
/// carries empty stage/query event logs: a warm procedure genuinely
/// issued zero solver queries, and stage accounting reflects that.
pub fn decode_analysis(bytes: &[u8]) -> Option<ProcAnalysis> {
    let text = std::str::from_utf8(bytes).ok()?;
    let v = json::parse(text).ok()?;
    if v.get("persist")?.u64()? != u64::from(PERSIST_VERSION)
        || v.get("report_schema")?.u64()? != u64::from(REPORT_SCHEMA_VERSION)
    {
        return None;
    }
    let proc_name = v.get("proc_name")?.str()?.to_string();
    let cons = report_from(v.get("cons")?, &proc_name)?;
    let reports = v
        .get("reports")?
        .arr()?
        .iter()
        .map(|per_config| {
            per_config
                .arr()?
                .iter()
                .map(|r| report_from(r, &proc_name))
                .collect()
        })
        .collect::<Option<Vec<Vec<ProcReport>>>>()?;
    let certs_fragment = match v.get("certs")? {
        Value::Null => None,
        s => Some(s.str()?.to_string()),
    };
    Some(ProcAnalysis {
        proc_name,
        cons,
        reports,
        events: Vec::new(),
        queries: Vec::new(),
        certs: None,
        from_store: true,
        incidents: Vec::new(),
        certs_fragment,
        antichains: None,
    })
}

// ---------------------------------------------------------------------
// The shared session handle.
// ---------------------------------------------------------------------

/// What the store contributed for one procedure's dispatch.
#[derive(Debug)]
pub enum StoreOutcome {
    /// Warm hit: the reconstructed analysis (zero solver queries).
    Hit(Box<ProcAnalysis>),
    /// No usable entry; run cold (an undecodable-but-checksummed payload
    /// also lands here — it will be overwritten by the fresh save).
    Miss,
    /// The entry failed validation and was quarantined; run cold and
    /// surface a `StoreCorruption` incident.
    Corrupt(CorruptionKind),
}

/// A thread-safe [`ResultStore`] handle shared across an analysis
/// fan-out. Store I/O is brief (one read or one write per procedure)
/// relative to analysis, so a single mutex is not a contention point.
#[derive(Debug)]
pub struct StoreSession {
    inner: Mutex<ResultStore>,
}

impl StoreSession {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<StoreSession> {
        Ok(StoreSession {
            inner: Mutex::new(ResultStore::open(dir.as_ref())?),
        })
    }

    /// Opens the store with an I/O chaos harness installed (`None`
    /// behaves exactly like [`StoreSession::open`]).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_with_chaos(
        dir: impl AsRef<Path>,
        chaos: Option<ChaosConfig>,
    ) -> io::Result<StoreSession> {
        let mut store = ResultStore::open(dir.as_ref())?;
        if let Some(config) = chaos {
            store = store.with_chaos(config);
        }
        Ok(StoreSession {
            inner: Mutex::new(store),
        })
    }

    /// Loads and decodes the entry for `key`, validating it names
    /// `proc_name` (a different name under the same key would mean a
    /// fingerprint collision; the entry is ignored).
    pub fn fetch(&self, key: &str, proc_name: &str) -> StoreOutcome {
        let result = self.inner.lock().expect("store lock").load(key);
        match result {
            LoadResult::Hit(bytes) => match decode_analysis(&bytes) {
                Some(pa) if pa.proc_name == proc_name => StoreOutcome::Hit(Box::new(pa)),
                _ => StoreOutcome::Miss,
            },
            LoadResult::Miss => StoreOutcome::Miss,
            LoadResult::Corrupt { kind, .. } => StoreOutcome::Corrupt(kind),
        }
    }

    /// Encodes and saves `pa` under `key`. Quietly does nothing when the
    /// analysis is not round-trippable; save I/O errors (including
    /// injected `ENOSPC`) are absorbed into
    /// [`StoreStats::save_errors`] — persistence is an optimization,
    /// never a correctness dependency.
    pub fn put(&self, key: &str, pa: &ProcAnalysis) {
        if let Some(bytes) = encode_analysis(pa) {
            let _ = self.inner.lock().expect("store lock").save(key, &bytes);
        }
    }

    /// Counter/histogram snapshot.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().expect("store lock").stats().clone()
    }

    /// Chaos-injection counters (zero when no harness is installed).
    pub fn chaos_stats(&self) -> ChaosStoreStats {
        self.inner.lock().expect("store lock").chaos_stats()
    }

    /// Number of quarantined entries on disk.
    pub fn quarantine_count(&self) -> usize {
        self.inner.lock().expect("store lock").quarantine_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{NullObserver, ProgramAnalysis};
    use acspec_ir::parse::parse_program;

    fn analyzed(src: &str) -> Vec<ProcAnalysis> {
        let prog = parse_program(src).expect("parses");
        ProgramAnalysis::new(&prog)
            .threads(1)
            .run(&mut NullObserver)
            .into_iter()
            .map(|o| o.into_analysis().expect("no incidents"))
            .collect()
    }

    #[test]
    fn encode_decode_is_byte_stable() {
        let analyses = analyzed(
            "procedure f(x: int) { if (x == 0) { assert x != 0; } }
             procedure ok(x: int) { assume x > 0; assert x > 0; }",
        );
        for pa in &analyses {
            let bytes = encode_analysis(pa).expect("encodable");
            let warm = decode_analysis(&bytes).expect("decodable");
            assert!(warm.from_store);
            assert!(warm.events.is_empty() && warm.queries.is_empty());
            assert_eq!(pa.cons.to_json(), warm.cons.to_json());
            let cold: Vec<String> = pa
                .reports
                .iter()
                .flatten()
                .map(ProcReport::to_json)
                .collect();
            let reheated: Vec<String> = warm
                .reports
                .iter()
                .flatten()
                .map(ProcReport::to_json)
                .collect();
            assert_eq!(cold, reheated);
            // Encoding the reconstruction reproduces the exact bytes.
            assert_eq!(encode_analysis(&warm).expect("encodable"), bytes);
        }
    }

    #[test]
    fn version_skew_and_junk_decode_to_none() {
        let pa = &analyzed("procedure f(x: int) { assert x != 0; }")[0];
        let bytes = encode_analysis(pa).expect("encodable");
        let text = String::from_utf8(bytes).expect("utf8");
        let stamp = format!("\"persist\":{PERSIST_VERSION}");
        assert!(text.contains(&stamp));
        let skewed = text.replace(&stamp, "\"persist\":999");
        assert!(decode_analysis(skewed.as_bytes()).is_none());
        assert!(decode_analysis(b"not json").is_none());
        assert!(decode_analysis(b"{\"persist\":1}").is_none());
    }

    /// Entries written before the schema-4 sidecar hold schema-3
    /// certificate fragments: they must miss, never be spliced into a
    /// newer sidecar.
    #[test]
    fn previous_version_payloads_miss() {
        let pa = &analyzed("procedure f(x: int) { assert x != 0; }")[0];
        let text = String::from_utf8(encode_analysis(pa).expect("encodable")).expect("utf8");
        let stale = text.replace(
            &format!("\"persist\":{PERSIST_VERSION}"),
            &format!("\"persist\":{}", PERSIST_VERSION - 1),
        );
        assert_ne!(stale, text);
        assert!(decode_analysis(stale.as_bytes()).is_none());
    }

    #[test]
    fn options_digest_separates_requests_and_ignores_nothing_relevant() {
        let base = AcspecOptions::default();
        let d1 = options_digest(&base, &[ConfigName::Conc], &[], true, false);
        let d2 = options_digest(&base, &[ConfigName::Conc, ConfigName::A1], &[], true, false);
        let d3 = options_digest(&base, &[ConfigName::Conc], &[], true, true);
        let mut tighter = base;
        tighter.analyzer.conflict_budget = Some(7);
        let d4 = options_digest(&tighter, &[ConfigName::Conc], &[], true, false);
        assert_ne!(d1, d2);
        assert_ne!(d1, d3);
        assert_ne!(d1, d4);
        assert_eq!(
            d1,
            options_digest(&base, &[ConfigName::Conc], &[], true, false)
        );
    }

    #[test]
    fn entry_keys_mix_fingerprint_and_options() {
        let a = entry_key("aa", "oo");
        assert_ne!(a, entry_key("ab", "oo"));
        assert_ne!(a, entry_key("aa", "op"));
        assert_eq!(a.len(), 64);
    }
}
