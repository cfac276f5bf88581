//! Warning reports produced by the analysis.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use acspec_ir::expr::Formula;
use acspec_ir::stmt::AssertId;
use acspec_smt::SolverCounters;
use acspec_telemetry::json::{write_f64, write_str};
use acspec_vcgen::stage::{Stage, StageTable};

use crate::config::ConfigName;

/// Schema version stamped into every report JSON document (per-report
/// and program-level). Bump whenever a field is added, removed, or
/// changes meaning, so downstream consumers can detect incompatible
/// producers instead of silently misreading them.
///
/// History: `1` — the implicit pre-versioning schema (no
/// `schema_version` field); `2` — adds `schema_version`, the
/// `Degraded` outcome, and program-level `incidents`; `3` — adds the
/// program-level `certs_ref` sidecar reference (the `--certs-out`
/// certificate document, re-validated by `acspec check`).
pub const REPORT_SCHEMA_VERSION: u32 = 3;

/// The SIB classification of Algorithm 1's `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SibStatus {
    /// The procedure is correct under the demonic environment: no
    /// assertion can fail at all (the conservative verifier labels it
    /// correct; the paper excludes these from its statistics).
    Correct,
    /// `Dead(β_Q(wp)) ≠ ∅`: an (abstract) semantic inconsistency bug.
    Sib,
    /// No abstract SIB; any warnings are low-confidence (`MAYBUG`).
    MayBug,
}

impl std::fmt::Display for SibStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SibStatus::Correct => write!(f, "CORRECT"),
            SibStatus::Sib => write!(f, "SIB"),
            SibStatus::MayBug => write!(f, "MAYBUG"),
        }
    }
}

impl SibStatus {
    /// Stable name (used in JSON reports and store payloads).
    pub(crate) fn name(self) -> &'static str {
        match self {
            SibStatus::Correct => "Correct",
            SibStatus::Sib => "Sib",
            SibStatus::MayBug => "MayBug",
        }
    }
}

/// What the degradation ladder salvaged when a stage ran out of budget
/// or deadline mid-pipeline, in decreasing order of fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Fallback {
    /// The evaluation stage was interrupted: the warnings already
    /// confirmed under the almost-correct specifications are kept
    /// (a prefix of the full warning set).
    PartialEvaluation,
    /// Algorithm 2's best candidate weakening at the point of
    /// interruption: dead-free clause subsets achieving the best
    /// failure count seen so far.
    BestCandidate,
    /// The partial predicate cover enumerated before the clause cap or
    /// budget hit — a weaker screen than `β_Q(wp)`, reported as the
    /// specification with the demonic warnings.
    CappedCover,
    /// Only the shared demonic screen was available: warnings fall back
    /// to the conservative `Fail(true)` set (no witnesses).
    ConsScreen,
}

impl Fallback {
    /// Stable lowercase name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Fallback::PartialEvaluation => "partial_evaluation",
            Fallback::BestCandidate => "best_candidate",
            Fallback::CappedCover => "capped_cover",
            Fallback::ConsScreen => "cons_screen",
        }
    }
}

impl std::fmt::Display for Fallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether the analysis completed within budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisOutcome {
    /// Completed.
    Ok,
    /// Budget exhausted with nothing to salvage (counted in the paper's
    /// "TO" columns).
    TimedOut,
    /// Budget or deadline exhausted mid-pipeline, but the degradation
    /// ladder salvaged a best-effort result. Counted as a timeout in
    /// the paper's "TO" columns (the run did not complete), but the
    /// report carries the salvaged warnings instead of nothing.
    Degraded {
        /// The stage that was interrupted.
        from_stage: Stage,
        /// What the report's warnings/specs were salvaged from.
        fallback: Fallback,
    },
}

/// What a report describes: the conservative baseline (`Cons`, the
/// modular verifier of the evaluation's first column) or one of the
/// four abstract configurations. `Cons` is not a [`ConfigName`] — it is
/// not a point of the Figure 4 lattice but the unscreened demonic
/// baseline the configurations are measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReportLabel {
    /// The conservative verifier baseline.
    Cons,
    /// An abstract configuration of Figure 4.
    Config(ConfigName),
}

impl ReportLabel {
    /// The configuration, unless this is the `Cons` baseline.
    pub fn config(self) -> Option<ConfigName> {
        match self {
            ReportLabel::Cons => None,
            ReportLabel::Config(c) => Some(c),
        }
    }

    /// True for the `Cons` baseline.
    pub fn is_cons(self) -> bool {
        self == ReportLabel::Cons
    }
}

impl From<ConfigName> for ReportLabel {
    fn from(c: ConfigName) -> Self {
        ReportLabel::Config(c)
    }
}

impl PartialEq<ConfigName> for ReportLabel {
    fn eq(&self, other: &ConfigName) -> bool {
        self.config() == Some(*other)
    }
}

impl std::fmt::Display for ReportLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportLabel::Cons => write!(f, "Cons"),
            ReportLabel::Config(c) => write!(f, "{c}"),
        }
    }
}

/// A concrete environment witness: input values (including ν-constants)
/// under which the warned assertion fails within the almost-correct
/// specification. Structured so downstream tooling can read values
/// directly; [`std::fmt::Display`] renders the historical
/// `name = value, …` form.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Witness {
    values: BTreeMap<String, i64>,
}

impl Witness {
    /// Wraps an input-environment assignment.
    pub fn new(values: BTreeMap<String, i64>) -> Witness {
        Witness { values }
    }

    /// The value assigned to `name`, if any.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.values.get(name).copied()
    }

    /// `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// True when no input values were recovered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl From<BTreeMap<String, i64>> for Witness {
    fn from(values: BTreeMap<String, i64>) -> Self {
        Witness { values }
    }
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (name, value) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{name} = {value}")?;
        }
        Ok(())
    }
}

/// A single reported warning.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Warning {
    /// The failing assertion.
    pub assert: AssertId,
    /// Its provenance tag (e.g. `deref *p@12`).
    pub tag: String,
    /// A concrete environment witness, when available.
    pub witness: Option<Witness>,
}

/// Per-procedure statistics (Figure 9's `P`, `C`, `T` plus extras).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStats {
    /// `|Q|` — predicates collected (Figure 9 column `P`).
    pub n_predicates: usize,
    /// Clauses in the predicate cover (Figure 9 column `C`).
    pub n_cover_clauses: usize,
    /// Clause subsets visited by Algorithm 2.
    pub search_nodes: usize,
    /// SMT queries issued.
    pub solver_queries: u64,
    /// Per-stage wall-clock/query breakdown (encode through evaluate).
    pub stages: StageTable,
    /// Aggregate SAT/theory work counters (conflicts, decisions,
    /// propagations, theory conflicts) summed over the queries that
    /// `solver_queries` counts, from the same stage runs as `stages`.
    pub smt: SolverCounters,
}

impl ProcStats {
    /// Total wall-clock seconds across stages (Figure 9 column `T`).
    pub fn seconds(&self) -> f64 {
        self.stages.total_seconds()
    }
}

/// The full analysis report for one procedure under one configuration
/// (or the `Cons` baseline).
#[derive(Debug, Clone)]
pub struct ProcReport {
    /// Procedure name.
    pub proc_name: String,
    /// What was analyzed: `Cons` or an abstract configuration.
    pub config: ReportLabel,
    /// SIB classification.
    pub status: SibStatus,
    /// High-confidence warnings: `E = Fail(Φ)` over the almost-correct
    /// specifications (after `Normalize`/`PruneClauses`).
    pub warnings: Vec<Warning>,
    /// The almost-correct specifications, rendered over `Q`.
    pub specs: Vec<Formula>,
    /// `MinFail` from the search (before pruning-induced weakening).
    pub min_fail: usize,
    /// Statistics.
    pub stats: ProcStats,
    /// Completion status.
    pub outcome: AnalysisOutcome,
    /// The stage whose budget exhaustion caused a timeout, when the
    /// outcome is [`AnalysisOutcome::TimedOut`] or
    /// [`AnalysisOutcome::Degraded`].
    pub timeout_stage: Option<Stage>,
}

impl ProcReport {
    /// True if the analysis did not run to completion — a bare timeout
    /// *or* a degraded (salvaged) result. Both count in the paper's
    /// "TO" columns: degradation changes what the report carries, not
    /// whether the run finished.
    pub fn timed_out(&self) -> bool {
        !matches!(self.outcome, AnalysisOutcome::Ok)
    }

    /// True if the degradation ladder salvaged this report.
    pub fn degraded(&self) -> bool {
        matches!(self.outcome, AnalysisOutcome::Degraded { .. })
    }

    /// Serializes the report as pretty-printed JSON (specifications and
    /// assertion ids are rendered in the surface syntax).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out
    }
}

/// What kind of per-procedure failure an [`AnalysisIncident`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// The procedure's session panicked (caught by the worker loop's
    /// `catch_unwind`).
    Panic,
    /// The session returned an [`AcspecError`](crate::AcspecError)
    /// (desugaring or encoding failed).
    Error,
    /// A persistent-store entry for this procedure failed validation
    /// (torn write, bit flip, or schema skew); it was quarantined and
    /// the procedure transparently recomputed. The verdict is unharmed
    /// — this incident exists so operators notice decaying storage.
    StoreCorruption,
}

impl IncidentKind {
    /// Stable lowercase name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            IncidentKind::Panic => "panic",
            IncidentKind::Error => "error",
            IncidentKind::StoreCorruption => "store_corruption",
        }
    }
}

impl std::fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A per-procedure failure record: one procedure's session panicked or
/// errored, the rest of the program analysis carried on. Embedded in
/// the program report so a triage service can show *which* procedures
/// produced no verdict and why, instead of aborting the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisIncident {
    /// The procedure whose session failed.
    pub proc_name: String,
    /// Panic or error.
    pub kind: IncidentKind,
    /// The pipeline stage active when the failure happened, when known.
    pub stage: Option<Stage>,
    /// The panic payload or error message.
    pub message: String,
}

impl std::fmt::Display for AnalysisIncident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} in `{}`", self.kind, self.proc_name)?;
        if let Some(stage) = self.stage {
            write!(f, " during {stage}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Assembles the program-level report document: schema version, the
/// per-procedure reports, and the incidents, as pretty-printed JSON.
/// This is the `acspec --format json` payload.
pub fn program_report_json(reports: &[&ProcReport], incidents: &[AnalysisIncident]) -> String {
    program_report_json_with(reports, incidents, None)
}

/// [`program_report_json`] with an optional `certs_ref`: the path of the
/// certificate sidecar (`--certs-out`) this report's verdicts are backed
/// by, stamped into the document so `acspec check` can locate it.
pub fn program_report_json_with(
    reports: &[&ProcReport],
    incidents: &[AnalysisIncident],
    certs_ref: Option<&str>,
) -> String {
    let mut out = String::new();
    let mut doc = Block::open(&mut out, 0, '{', '}');
    if let Some(path) = certs_ref {
        write_str(doc.field("certs_ref"), path);
    }
    let mut list = Block::open(doc.field("incidents"), 1, '[', ']');
    for incident in incidents {
        incident.write_json(list.item(), 2);
    }
    list.close();
    let mut list = Block::open(doc.field("reports"), 1, '[', ']');
    for report in reports {
        report.write_json(list.item(), 2);
    }
    list.close();
    write_num(doc.field("schema_version"), REPORT_SCHEMA_VERSION);
    doc.close();
    out
}

// ---------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------

/// A JSON object or array being pretty-printed in the report layout:
/// one element per line, two-space indent, `"key": value`, and `[]` /
/// `{}` when empty. Callers write object fields in sorted key order, so
/// every object in a report lists its keys alphabetically.
struct Block<'a> {
    out: &'a mut String,
    depth: usize,
    close: char,
    empty: bool,
}

impl<'a> Block<'a> {
    /// Opens a container whose own line sits at indent `depth`.
    fn open(out: &'a mut String, depth: usize, open: char, close: char) -> Block<'a> {
        out.push(open);
        Block {
            out,
            depth,
            close,
            empty: true,
        }
    }

    /// Starts the next array element.
    fn item(&mut self) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        newline(self.out, self.depth + 1);
        self.out
    }

    /// Starts the next object field.
    fn field(&mut self, key: &str) -> &mut String {
        let out = self.item();
        write_str(out, key);
        out.push_str(": ");
        out
    }

    fn close(self) {
        if !self.empty {
            newline(self.out, self.depth);
        }
        self.out.push(self.close);
    }
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: impl std::fmt::Display) {
    let _ = write!(out, "{n}");
}

/// Report floats keep a fraction when integral (`2.0`, where
/// [`write_f64`] writes `2`); every other value is [`write_f64`]'s.
fn write_seconds(out: &mut String, x: f64) {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        let _ = write!(out, "{x:.1}");
    } else {
        write_f64(out, x);
    }
}

fn write_opt(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => write_str(out, s),
        None => out.push_str("null"),
    }
}

impl AnalysisOutcome {
    /// `"Ok"`, `"TimedOut"`, or the externally tagged
    /// `{"Degraded": {"fallback": …, "from_stage": …}}`.
    fn write_json(&self, out: &mut String, depth: usize) {
        match self {
            AnalysisOutcome::Ok => write_str(out, "Ok"),
            AnalysisOutcome::TimedOut => write_str(out, "TimedOut"),
            AnalysisOutcome::Degraded {
                from_stage,
                fallback,
            } => {
                let mut tagged = Block::open(out, depth, '{', '}');
                let mut o = Block::open(tagged.field("Degraded"), depth + 1, '{', '}');
                write_str(o.field("fallback"), fallback.name());
                write_str(o.field("from_stage"), from_stage.name());
                o.close();
                tagged.close();
            }
        }
    }
}

impl ProcStats {
    fn write_json(&self, out: &mut String, depth: usize) {
        let inner = depth + 1;
        let mut o = Block::open(out, depth, '{', '}');
        write_num(o.field("n_cover_clauses"), self.n_cover_clauses);
        write_num(o.field("n_predicates"), self.n_predicates);
        write_num(o.field("search_nodes"), self.search_nodes);
        write_seconds(o.field("seconds"), self.seconds());
        let mut smt = Block::open(o.field("smt"), inner, '{', '}');
        write_num(smt.field("conflicts"), self.smt.conflicts);
        write_num(smt.field("decisions"), self.smt.decisions);
        write_num(smt.field("propagations"), self.smt.propagations);
        write_num(smt.field("theory_conflicts"), self.smt.theory_conflicts);
        smt.close();
        write_num(o.field("solver_queries"), self.solver_queries);
        let mut active: Vec<_> = self
            .stages
            .iter()
            .filter(|(_, m)| m.queries > 0 || m.seconds > 0.0)
            .map(|(stage, m)| (stage.name(), m))
            .collect();
        active.sort_by_key(|&(name, _)| name);
        let mut stages = Block::open(o.field("stages"), inner, '{', '}');
        for (name, m) in active {
            let mut entry = Block::open(stages.field(name), inner + 1, '{', '}');
            write_num(entry.field("queries"), m.queries);
            write_seconds(entry.field("seconds"), m.seconds);
            entry.close();
        }
        stages.close();
        o.close();
    }
}

impl Warning {
    fn write_json(&self, out: &mut String, depth: usize) {
        let mut o = Block::open(out, depth, '{', '}');
        write_str(o.field("assert"), &self.assert.to_string());
        write_str(o.field("tag"), &self.tag);
        match &self.witness {
            Some(witness) => {
                let mut values = Block::open(o.field("witness"), depth + 1, '{', '}');
                for (name, value) in witness.iter() {
                    write_num(values.field(name), value);
                }
                values.close();
            }
            None => o.field("witness").push_str("null"),
        }
        o.close();
    }
}

impl ProcReport {
    fn write_json(&self, out: &mut String, depth: usize) {
        let inner = depth + 1;
        let mut o = Block::open(out, depth, '{', '}');
        write_str(o.field("config"), &self.config.to_string());
        write_num(o.field("min_fail"), self.min_fail);
        self.outcome.write_json(o.field("outcome"), inner);
        write_str(o.field("proc_name"), &self.proc_name);
        write_num(o.field("schema_version"), REPORT_SCHEMA_VERSION);
        let mut specs = Block::open(o.field("specs"), inner, '[', ']');
        for spec in &self.specs {
            write_str(specs.item(), &spec.to_string());
        }
        specs.close();
        self.stats.write_json(o.field("stats"), inner);
        write_str(o.field("status"), self.status.name());
        write_opt(
            o.field("timeout_stage"),
            self.timeout_stage.map(Stage::name),
        );
        let mut warnings = Block::open(o.field("warnings"), inner, '[', ']');
        for warning in &self.warnings {
            warning.write_json(warnings.item(), inner + 1);
        }
        warnings.close();
        o.close();
    }
}

impl AnalysisIncident {
    fn write_json(&self, out: &mut String, depth: usize) {
        let mut o = Block::open(out, depth, '{', '}');
        write_str(o.field("kind"), self.kind.name());
        write_str(o.field("message"), &self.message);
        write_str(o.field("proc_name"), &self.proc_name);
        write_opt(o.field("stage"), self.stage.map(Stage::name));
        o.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acspec_check::json::{parse, Value as Json};

    /// The value at `path` (object keys), if every step exists.
    fn at<'a>(v: &'a Json, path: &[&str]) -> Option<&'a Json> {
        path.iter().try_fold(v, |v, k| v.get(k))
    }

    #[test]
    fn report_serializes_to_json() {
        let report = ProcReport {
            proc_name: "Foo".into(),
            config: ReportLabel::Config(ConfigName::Conc),
            status: SibStatus::Sib,
            warnings: vec![Warning {
                assert: AssertId(4),
                tag: "pre:free@4".into(),
                witness: Some(Witness::new(BTreeMap::from([("c".to_string(), 1)]))),
            }],
            specs: vec![Formula::ne(
                acspec_ir::expr::Expr::var("c"),
                acspec_ir::expr::Expr::var("buf"),
            )],
            min_fail: 1,
            stats: ProcStats::default(),
            outcome: AnalysisOutcome::Ok,
            timeout_stage: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"proc_name\": \"Foo\""), "{json}");
        assert!(json.contains("\"assert\": \"A5\""), "{json}");
        assert!(json.contains("\"c != buf\""), "{json}");
        assert!(json.contains("\"status\": \"Sib\""), "{json}");
        // Valid JSON: the workspace's one reader parses it back.
        let value = parse(&json).expect("valid JSON");
        let warning = &value.get("warnings").and_then(Json::arr).expect("warnings")[0];
        assert_eq!(at(warning, &["witness", "c"]).and_then(Json::int), Some(1));
        // Forward-compat: the schema version is the first thing a
        // consumer can check. Pinned to the literal so a bump forces a
        // deliberate update here (and in the independent checker, whose
        // `SUPPORTED_SCHEMA_VERSION` tracks this constant).
        assert_eq!(value.get("schema_version").and_then(Json::int), Some(3));
        assert_eq!(u64::from(REPORT_SCHEMA_VERSION), 3);
    }

    #[test]
    fn degraded_outcome_serializes_stage_and_fallback() {
        let report = ProcReport {
            proc_name: "Foo".into(),
            config: ReportLabel::Config(ConfigName::A1),
            status: SibStatus::MayBug,
            warnings: vec![],
            specs: vec![],
            min_fail: 0,
            stats: ProcStats::default(),
            outcome: AnalysisOutcome::Degraded {
                from_stage: Stage::Search,
                fallback: Fallback::BestCandidate,
            },
            timeout_stage: Some(Stage::Search),
        };
        assert!(report.timed_out(), "degraded counts as a timeout");
        assert!(report.degraded());
        let value = parse(&report.to_json()).expect("valid JSON");
        let text = |path: &[&str]| at(&value, path).and_then(Json::str);
        assert_eq!(text(&["outcome", "Degraded", "from_stage"]), Some("search"));
        assert_eq!(
            text(&["outcome", "Degraded", "fallback"]),
            Some("best_candidate")
        );
        assert_eq!(text(&["timeout_stage"]), Some("search"));
    }

    #[test]
    fn program_report_carries_schema_version_and_incidents() {
        let incident = AnalysisIncident {
            proc_name: "Bad".into(),
            kind: IncidentKind::Panic,
            stage: Some(Stage::Cover),
            message: "chaos: injected panic before query 3".into(),
        };
        assert_eq!(
            incident.to_string(),
            "panic in `Bad` during cover: chaos: injected panic before query 3"
        );
        let json = program_report_json(&[], &[incident]);
        let value = parse(&json).expect("valid JSON");
        assert_eq!(value.get("schema_version").and_then(Json::int), Some(3));
        assert_eq!(
            value.get("reports").and_then(Json::arr).map(<[_]>::len),
            Some(0)
        );
        let incident = &value
            .get("incidents")
            .and_then(Json::arr)
            .expect("incidents")[0];
        let text = |key: &str| incident.get(key).and_then(Json::str);
        assert_eq!(text("kind"), Some("panic"));
        assert_eq!(text("stage"), Some("cover"));
        assert_eq!(text("proc_name"), Some("Bad"));
    }

    #[test]
    fn labels_distinguish_cons_from_configs() {
        assert_eq!(ReportLabel::Cons.to_string(), "Cons");
        assert_eq!(ReportLabel::Config(ConfigName::Conc).to_string(), "Conc");
        assert_ne!(
            ReportLabel::Cons,
            ReportLabel::Config(ConfigName::Conc),
            "the baseline is not the concrete configuration"
        );
        assert!(ReportLabel::Cons.is_cons());
        assert_eq!(ReportLabel::Config(ConfigName::A1), ConfigName::A1);
        assert_eq!(ReportLabel::Cons.config(), None);
    }

    #[test]
    fn witness_renders_and_exposes_values() {
        let w = Witness::new(BTreeMap::from([
            ("cmd".to_string(), 1),
            ("p".to_string(), 0),
        ]));
        assert_eq!(w.to_string(), "cmd = 1, p = 0");
        assert_eq!(w.get("cmd"), Some(1));
        assert_eq!(w.get("missing"), None);
        assert_eq!(w.iter().count(), 2);
    }

    #[test]
    fn stats_seconds_totals_stages() {
        use acspec_vcgen::stage::Stage;
        let mut stats = ProcStats::default();
        stats.stages.record(Stage::Screen, 0.5, 3);
        stats.stages.record(Stage::Search, 0.25, 2);
        assert!((stats.seconds() - 0.75).abs() < 1e-9);
        assert_eq!(stats.stages.total_queries(), 5);
    }
}
