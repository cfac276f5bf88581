//! Staged analysis sessions: one desugar, one encode, many
//! configurations.
//!
//! The historical drivers ([`crate::analyze_procedure`],
//! [`crate::analyze_procedure_multi`], [`crate::cons_baseline`]) each
//! desugared and re-encoded the procedure into a fresh solver, so
//! evaluating the `Cons` baseline plus the configuration ladder paid for
//! five encodings and five demonic screens per procedure. A
//! [`ProcSession`] owns the desugared body and a single incremental
//! [`ProcAnalyzer`], and exposes the pipeline as explicit stages:
//!
//! ```text
//!   new ──► encode (once)
//!             │
//!   screen ──► Dead(true) baseline + demonic Fail(true)   (shared, cached)
//!             │
//!   per configuration (budget refilled each time):
//!     mine ──► cover ──► search ──► evaluate(prune…)      (per-config)
//! ```
//!
//! The `Cons` baseline is the demonic half of the shared screen, so a
//! session serving `Cons` plus all four configurations issues the screen
//! queries once instead of five times.
//!
//! ## Budgets
//!
//! The analyzer's conflict [`Budget`](acspec_vcgen::Budget) is refilled
//! at the start of [`ProcSession::cons`] and each
//! [`ProcSession::run_config`], so every configuration gets the same
//! pool the old one-analyzer-per-config drivers granted. Because the
//! shared screen is only *paid for* by whichever caller runs first,
//! later configurations have strictly more budget available than before
//! the refactor — timeouts can only decrease. Budget exhaustion
//! surfaces as a [`StageError`] naming the stage it happened in;
//! drivers fold it into [`ProcReport::outcome`] and
//! [`ProcReport::timeout_stage`].
//!
//! ## Observers
//!
//! Every completed stage appends a [`StageEvent`] (stage, configuration
//! label, wall-clock seconds, query and work counts) to the session's
//! event log. The log is the session's one ledger: each report's stats
//! fold it, and [`ProgramAnalysis`] replays it to a [`SessionObserver`]
//! in procedure order after its parallel fan-out, so observer output is
//! deterministic regardless of thread count.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::Instant;

use acspec_ir::desugar::{desugar_procedure, DesugarOptions, DesugaredProc};
use acspec_ir::expr::{Atom, Formula};
use acspec_ir::program::{Procedure, Program};
use acspec_ir::stmt::{AssertId, Stmt};
use acspec_predabs::clause::{clauses_to_formula, QClause};
use acspec_predabs::cover::{predicate_cover_salvaging, Cover};
use acspec_predabs::mine::mine_predicates;
use acspec_predabs::normalize::{normalize, prune_clauses, PruneConfig, MAX_PREDICATES};
use acspec_smt::{SearchSummary, SolverCounters, TermId};
use acspec_vcgen::analyzer::{AnalyzerConfig, ProcAnalyzer, QueryOutcome, Selector};
use acspec_vcgen::cache::CacheStats;
use acspec_vcgen::chaos::ChaosStats;
use acspec_vcgen::stage::{FaultReason, Stage, StageError, StageMetrics, StageTable};

use crate::certs::{
    proc_certs_json, ChainRecord, ChainStepRecord, Claim, ClaimKind, ProcCerts, StepEvidence,
};
use crate::config::{AcspecOptions, ConfigName, DeadMetric, MAX_COVER_CLAUSES, MAX_SEARCH_NODES};
use crate::driver::AcspecError;
use crate::fingerprint::procedure_fingerprint;
use crate::persist::{entry_key, options_digest, StoreOutcome, StoreSession};
use crate::report::{
    AnalysisIncident, AnalysisOutcome, Fallback, IncidentKind, ProcReport, ProcStats, ReportLabel,
    SibStatus, Warning, Witness,
};
use crate::search::{find_almost_correct_specs_salvaging, DeadCheck, DeadEvidence, SearchOutcome};

thread_local! {
    /// The pipeline stage the current worker thread is executing, for
    /// attributing panics and errors caught by the isolation layer.
    /// Set by [`ProcSession::new`] (encode) and every
    /// [`ProcSession::staged`] call; cleared when isolation wraps a new
    /// procedure.
    static CURRENT_STAGE: Cell<Option<Stage>> = const { Cell::new(None) };

    /// The procedure the current worker thread is dispatching. Unlike
    /// `CURRENT_STAGE` (set lazily by the first stage), this is set at
    /// dispatch time — *before* any session machinery runs — so
    /// incidents built early (a panic before encode, a store-corruption
    /// record during the warm-load probe) are always attributable to a
    /// procedure instead of surfacing with an empty name.
    static CURRENT_PROC: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

/// The dispatch-time procedure name, falling back to `fallback` when
/// called outside a dispatch (e.g. from a directly driven session).
fn current_proc_or(fallback: &str) -> String {
    CURRENT_PROC
        .with(|c| c.borrow().clone())
        .unwrap_or_else(|| fallback.to_string())
}

/// The shared screen: the `Dead(true)` baseline (per the session's dead
/// metric) and the demonic failure set `Fail(true)`.
#[derive(Debug, Clone)]
pub struct Screening {
    /// The dead-code baseline, removed before the search (§2.3).
    pub dead_check: DeadCheck,
    /// `Fail(true)`: every assertion failable under the demonic
    /// environment — the `Cons` baseline's warning set.
    pub demonic_fail: BTreeSet<AssertId>,
}

/// One completed stage of a session, for [`SessionObserver`]s.
#[derive(Debug, Clone)]
pub struct StageEvent {
    /// The procedure being analyzed.
    pub proc_name: String,
    /// The configuration the stage ran for; `None` for shared stages
    /// (encode, screen) that every configuration reuses.
    pub label: Option<ReportLabel>,
    /// The completed stage.
    pub stage: Stage,
    /// Index of this stage run within its session (0 = encode). A
    /// session can run the same stage several times (e.g. `Evaluate`
    /// once per prune variant); the sequence number identifies each run
    /// so query events can name their enclosing one.
    pub seq: u32,
    /// Wall-clock seconds and query count of this stage run.
    pub metrics: StageMetrics,
    /// SAT/theory work counters summed over this stage run's queries
    /// (the sum of their [`QueryEvent::counters`]).
    pub smt: SolverCounters,
    /// Dominance-cache counter deltas for this stage run (all zero when
    /// the query cache is disabled). Kept out of [`StageMetrics`] — and
    /// hence out of report stats — because cache activity is telemetry,
    /// not part of the byte-stable report payload.
    pub cache: CacheStats,
    /// Fault-injection counter deltas for this stage run (all zero when
    /// no [`ChaosConfig`](acspec_vcgen::chaos::ChaosConfig) is
    /// installed). Telemetry only, like `cache`.
    pub chaos: ChaosStats,
}

/// One completed solver query, for [`SessionObserver`]s that opt in via
/// [`SessionObserver::wants_queries`]. This is the session-level view
/// of the analyzer's per-`check()` hook
/// ([`QueryRecord`](acspec_vcgen::analyzer::QueryRecord)), tagged with
/// the procedure, configuration, and enclosing stage run.
#[derive(Debug, Clone)]
pub struct QueryEvent {
    /// The procedure being analyzed.
    pub proc_name: String,
    /// The configuration the query ran for (`None` = shared stages).
    pub label: Option<ReportLabel>,
    /// The stage charged for the query.
    pub stage: Stage,
    /// [`StageEvent::seq`] of the stage run this query belongs to.
    pub stage_seq: u32,
    /// Query index within the session (0-based, issue order).
    pub seq: u32,
    /// How the query ended.
    pub outcome: QueryOutcome,
    /// Wall-clock seconds inside the solver.
    pub seconds: f64,
    /// SAT/theory work-counter deltas for this query alone.
    pub counters: SolverCounters,
    /// CDCL search summary for this query alone. `Some` only when an
    /// observer opted in via [`SessionObserver::wants_search`] (and the
    /// solver was actually consulted — fault-injected queries carry
    /// `None`).
    pub search: Option<SearchSummary>,
}

/// Receives stage completions (and procedure completions) from an
/// analysis. [`ProgramAnalysis::run`] replays events in deterministic
/// procedure order; a [`ProcSession`] used directly reports through
/// [`ProcSession::take_events`].
pub trait SessionObserver {
    /// A pipeline stage finished.
    fn stage_completed(&mut self, event: &StageEvent);
    /// All work for a procedure finished.
    fn proc_completed(&mut self, _proc_name: &str) {}
    /// A solver query finished. Only delivered when
    /// [`SessionObserver::wants_queries`] returns `true`; queries are
    /// replayed *before* the [`StageEvent`] whose run issued them.
    fn query_completed(&mut self, _event: &QueryEvent) {}
    /// Whether this observer wants per-query events. Recording is a
    /// per-`check()` cost, so sessions only enable it when asked
    /// (default `false`).
    fn wants_queries(&self) -> bool {
        false
    }
    /// Whether this observer additionally wants CDCL search summaries
    /// on its query events (restarts, LBD histograms, decision depth).
    /// Implies the cost of [`SessionObserver::wants_queries`] plus
    /// per-conflict LBD computation in the SAT core, so it is a
    /// separate opt-in (default `false`). Only meaningful when
    /// `wants_queries` is also `true`.
    fn wants_search(&self) -> bool {
        false
    }
    /// A procedure's analysis was aborted by a panic or error; the
    /// isolation layer turned it into an incident instead of crashing
    /// the run.
    fn incident_recorded(&mut self, _incident: &AnalysisIncident) {}
    /// A report fell down the degradation ladder: the pipeline faulted
    /// at `from_stage` and the session salvaged `fallback` instead of
    /// reporting nothing. Called once per degraded report.
    fn degradation_recorded(&mut self, _proc_name: &str, _from: Stage, _fallback: Fallback) {}
}

/// Fans events out to two observers (e.g. [`StageTotals`] plus a
/// telemetry sink) in one [`ProgramAnalysis::run`].
#[derive(Debug)]
pub struct TeeObserver<'a, A: ?Sized, B: ?Sized> {
    /// First receiver.
    pub first: &'a mut A,
    /// Second receiver.
    pub second: &'a mut B,
}

impl<'a, A: ?Sized, B: ?Sized> TeeObserver<'a, A, B> {
    /// Tees events to `first` then `second`.
    pub fn new(first: &'a mut A, second: &'a mut B) -> Self {
        TeeObserver { first, second }
    }
}

impl<A, B> SessionObserver for TeeObserver<'_, A, B>
where
    A: SessionObserver + ?Sized,
    B: SessionObserver + ?Sized,
{
    fn stage_completed(&mut self, event: &StageEvent) {
        self.first.stage_completed(event);
        self.second.stage_completed(event);
    }

    fn proc_completed(&mut self, proc_name: &str) {
        self.first.proc_completed(proc_name);
        self.second.proc_completed(proc_name);
    }

    fn query_completed(&mut self, event: &QueryEvent) {
        self.first.query_completed(event);
        self.second.query_completed(event);
    }

    fn wants_queries(&self) -> bool {
        self.first.wants_queries() || self.second.wants_queries()
    }

    fn wants_search(&self) -> bool {
        self.first.wants_search() || self.second.wants_search()
    }

    fn incident_recorded(&mut self, incident: &AnalysisIncident) {
        self.first.incident_recorded(incident);
        self.second.incident_recorded(incident);
    }

    fn degradation_recorded(&mut self, proc_name: &str, from: Stage, fallback: Fallback) {
        self.first.degradation_recorded(proc_name, from, fallback);
        self.second.degradation_recorded(proc_name, from, fallback);
    }
}

/// An observer that discards everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SessionObserver for NullObserver {
    fn stage_completed(&mut self, _event: &StageEvent) {}
}

/// An observer accumulating per-label, per-stage totals — the data
/// behind `repro fig9`'s stage columns.
#[derive(Debug, Clone, Default)]
pub struct StageTotals {
    totals: BTreeMap<Option<ReportLabel>, StageTable>,
    procs: usize,
}

impl StageTotals {
    /// Accumulated metrics for a label (`None` = shared encode/screen).
    pub fn table(&self, label: Option<ReportLabel>) -> StageTable {
        self.totals.get(&label).copied().unwrap_or_default()
    }

    /// Number of completed procedures.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// `(label, table)` pairs, shared stages first.
    pub fn iter(&self) -> impl Iterator<Item = (Option<ReportLabel>, &StageTable)> {
        self.totals.iter().map(|(l, t)| (*l, t))
    }
}

impl SessionObserver for StageTotals {
    fn stage_completed(&mut self, event: &StageEvent) {
        self.totals.entry(event.label).or_default().record(
            event.stage,
            event.metrics.seconds,
            event.metrics.queries,
        );
    }

    fn proc_completed(&mut self, _proc_name: &str) {
        self.procs += 1;
    }
}

/// Per-variant output of the evaluate stage.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The pruned almost-correct specifications, deduplicated.
    pub specs: Vec<Formula>,
    /// High-confidence warnings `E = Fail(Φ)` with witnesses.
    pub warnings: Vec<Warning>,
    /// Set if the budget ran out mid-evaluation (partial results kept,
    /// as the paper's driver did).
    pub timeout: Option<StageError>,
}

/// A staged per-procedure analysis session: one desugar, one encode,
/// one incremental solver, shared across the `Cons` baseline and any
/// number of configuration/prune runs.
#[derive(Debug)]
pub struct ProcSession {
    proc_name: String,
    desugared: DesugaredProc,
    az: ProcAnalyzer,
    demonic_fail: Option<BTreeSet<AssertId>>,
    dead_baseline: Option<(DeadMetric, DeadCheck)>,
    /// The ledger: one event per stage run, in execution order.
    events: Vec<StageEvent>,
    /// Next [`StageEvent::seq`] (0 was the encode event).
    stage_seq: u32,
    query_events: Vec<QueryEvent>,
    /// Partial cover salvaged from the last failed `Cover` stage, for
    /// the degradation ladder.
    cover_salvage: Option<Cover>,
    /// Best candidate salvaged from the last failed `Search` stage.
    search_salvage: Option<SearchOutcome>,
    /// Whether verdicts are certified (off by default; certification
    /// happens *outside* [`ProcSession::staged`] closures so replay wall
    /// time never pollutes stage tables or report stats).
    certify: bool,
    /// Certified report-level claims, in recording order.
    claims: Vec<Claim>,
    /// Certified weakening chains.
    chains: Vec<ChainRecord>,
    /// `(label, spec)` pairs already certified, so prune variants that
    /// collapse to the same specification share one claim set.
    cert_seen: HashSet<(String, String)>,
}

impl ProcSession {
    /// Desugars and encodes the procedure (the one-time `Encode` stage).
    ///
    /// # Errors
    ///
    /// Returns [`AcspecError`] for malformed inputs; budget exhaustion
    /// is impossible here (encoding issues no queries).
    pub fn new(
        program: &Program,
        proc: &Procedure,
        analyzer: AnalyzerConfig,
    ) -> Result<ProcSession, AcspecError> {
        CURRENT_STAGE.with(|c| c.set(Some(Stage::Encode)));
        // Mix the procedure name into the chaos seed so each session
        // draws an independent injection stream regardless of thread
        // scheduling (determinism across `--threads`).
        let mut analyzer = analyzer;
        if let Some(chaos) = analyzer.chaos {
            analyzer.chaos = Some(chaos.for_proc(&proc.name));
        }
        let wall = Instant::now();
        let desugared = desugar_procedure(program, proc, DesugarOptions::default())?;
        let az = ProcAnalyzer::new(&desugared, analyzer)?;
        // The one stage run before the session exists, so recorded
        // here rather than by `staged`: it issues no queries.
        let events = vec![StageEvent {
            proc_name: proc.name.clone(),
            label: None,
            stage: Stage::Encode,
            seq: 0,
            metrics: StageMetrics {
                seconds: wall.elapsed().as_secs_f64(),
                queries: 0,
            },
            smt: SolverCounters::default(),
            cache: CacheStats::default(),
            chaos: ChaosStats::default(),
        }];
        Ok(ProcSession {
            proc_name: proc.name.clone(),
            desugared,
            az,
            demonic_fail: None,
            dead_baseline: None,
            events,
            stage_seq: 1,
            query_events: Vec::new(),
            cover_salvage: None,
            search_salvage: None,
            certify: false,
            claims: Vec::new(),
            chains: Vec::new(),
            cert_seen: HashSet::new(),
        })
    }

    /// Enables verdict certification: every claim a report surfaces is
    /// backed by a replay-solver certificate in the session's
    /// [`CertStore`](acspec_vcgen::CertStore). Certification runs off
    /// the query path (no budget, no chaos, no counters), so reports are
    /// byte-identical with it on.
    pub fn enable_certs(&mut self) {
        self.certify = true;
        self.az.enable_certs();
    }

    /// Drains everything the session certified (store, claims, chains).
    /// `None` unless [`ProcSession::enable_certs`] was called.
    pub fn take_certs(&mut self) -> Option<ProcCerts> {
        if !self.certify {
            return None;
        }
        Some(ProcCerts {
            proc_name: self.proc_name.clone(),
            store: self.az.take_cert_store().unwrap_or_default(),
            claims: std::mem::take(&mut self.claims),
            chains: std::mem::take(&mut self.chains),
        })
    }

    /// Enables (or disables) per-query recording on the underlying
    /// analyzer. Off by default; [`ProgramAnalysis::run`] turns it on
    /// when the observer [`wants_queries`](SessionObserver::wants_queries).
    pub fn set_query_recording(&mut self, on: bool) {
        self.az.set_query_recording(on);
    }

    /// Enables (or disables) CDCL search-summary recording on the
    /// underlying analyzer. Off by default; [`ProgramAnalysis::run`]
    /// turns it on when the observer
    /// [`wants_search`](SessionObserver::wants_search).
    pub fn set_search_recording(&mut self, on: bool) {
        self.az.set_search_recording(on);
    }

    /// The procedure's name.
    pub fn proc_name(&self) -> &str {
        &self.proc_name
    }

    /// The desugared body the session encodes.
    pub fn desugared(&self) -> &DesugaredProc {
        &self.desugared
    }

    /// The shared analyzer (for staged callers building custom queries).
    pub fn analyzer_mut(&mut self) -> &mut ProcAnalyzer {
        &mut self.az
    }

    /// Does nothing: the analysis has no in-query parallelism to size.
    /// Retained for the benchmark's mirror, which still calls it.
    pub fn set_pool(&mut self, _pool: std::sync::Arc<acspec_smt::SearchPool>) {}

    /// Drains the event log (stage completions in execution order).
    /// Report stats fold this log, so take it once the session's last
    /// report is out: a report stamped afterwards no longer counts the
    /// drained runs.
    pub fn take_events(&mut self) -> Vec<StageEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drains the query log (empty unless
    /// [`ProcSession::set_query_recording`] was turned on). Queries
    /// appear grouped by their enclosing stage run, in stage completion
    /// order — i.e. sorted by [`QueryEvent::stage_seq`] matching
    /// [`StageEvent::seq`] order in [`ProcSession::take_events`].
    pub fn take_query_events(&mut self) -> Vec<QueryEvent> {
        std::mem::take(&mut self.query_events)
    }

    /// The one ledger: runs `f` as one run of `stage` for `label` and
    /// appends its [`StageEvent`]. The run's wall time is measured here;
    /// its query, SMT, cache and chaos figures are the deltas of the
    /// analyzer's running totals across `f`; its query records are
    /// tagged with the run; and a fault becomes a [`StageError`] naming
    /// `stage`.
    fn staged<T>(
        &mut self,
        stage: Stage,
        label: Option<ReportLabel>,
        f: impl FnOnce(&mut ProcSession) -> Result<T, FaultReason>,
    ) -> Result<T, StageError> {
        CURRENT_STAGE.with(|c| c.set(Some(stage)));
        let wall = Instant::now();
        let queries = self.az.queries;
        let smt = self.az.query_counters();
        let cache = self.az.cache_stats();
        let chaos = self.az.chaos_stats();
        let out = f(self);
        let seconds = wall.elapsed().as_secs_f64();
        let seq = self.stage_seq;
        self.stage_seq += 1;
        for q in self.az.take_query_records() {
            self.query_events.push(QueryEvent {
                proc_name: self.proc_name.clone(),
                label,
                stage,
                stage_seq: seq,
                seq: q.seq,
                outcome: q.outcome,
                seconds: q.seconds,
                counters: q.counters,
                search: q.search,
            });
        }
        self.events.push(StageEvent {
            proc_name: self.proc_name.clone(),
            label,
            stage,
            seq,
            metrics: StageMetrics {
                seconds,
                queries: self.az.queries - queries,
            },
            smt: self.az.query_counters().since(&smt),
            cache: self.az.cache_stats().since(&cache),
            chaos: self.az.chaos_stats().since(&chaos),
        });
        out.map_err(|reason| StageError { stage, reason })
    }

    fn ensure_dead_baseline(&mut self, metric: DeadMetric) -> Result<(), StageError> {
        if matches!(&self.dead_baseline, Some((m, _)) if *m == metric) {
            return Ok(());
        }
        let check = self.staged(Stage::Screen, None, |s| match metric {
            DeadMetric::BranchCoverage => {
                s.az.dead_set(&[])
                    .map(|baseline_dead| DeadCheck::Branch { baseline_dead })
            }
            DeadMetric::PathCoverage { max_profiles } => {
                s.az.path_profiles(&[], max_profiles)
                    .map(|baseline_profiles| DeadCheck::Path {
                        baseline_profiles,
                        cap: max_profiles,
                    })
            }
        })?;
        if self.certify {
            if let DeadCheck::Branch { baseline_dead } = &check {
                let locs: Vec<_> = baseline_dead.iter().copied().collect();
                for loc in locs {
                    if let Some(cert) = self.az.certify_reachable(loc, &[]) {
                        self.claims.push(Claim {
                            label: "shared".into(),
                            kind: ClaimKind::BaselineDead { loc },
                            cert,
                        });
                    }
                }
            }
        }
        self.dead_baseline = Some((metric, check));
        Ok(())
    }

    fn ensure_demonic_fail(&mut self) -> Result<(), StageError> {
        if self.demonic_fail.is_some() {
            return Ok(());
        }
        self.demonic_fail = Some(self.staged(Stage::Screen, None, |s| s.az.fail_set(&[]))?);
        Ok(())
    }

    /// The shared screen: computes (once) and returns the `Dead(true)`
    /// baseline under `metric` plus the demonic failure set. The dead
    /// baseline is computed first, mirroring the historical driver's
    /// query order.
    ///
    /// # Errors
    ///
    /// Returns a [`StageError`] at [`Stage::Screen`] on budget
    /// exhaustion; completed halves stay cached, so a retry under a
    /// refilled budget resumes where it stopped.
    pub fn screen(&mut self, metric: DeadMetric) -> Result<Screening, StageError> {
        self.ensure_dead_baseline(metric)?;
        self.ensure_demonic_fail()?;
        Ok(Screening {
            dead_check: self
                .dead_baseline
                .as_ref()
                .map(|(_, c)| c.clone())
                .expect("just ensured"),
            demonic_fail: self.demonic_fail.clone().expect("just ensured"),
        })
    }

    /// The provenance tag of an assertion.
    fn tag_of(&self, id: AssertId) -> String {
        self.desugared
            .asserts
            .get(id.0 as usize)
            .map(|m| m.tag.clone())
            .unwrap_or_default()
    }

    /// A fresh report skeleton (empty warnings/specs — no heap clones).
    fn blank_report(&self, label: ReportLabel, seed: &ReportSeed) -> ProcReport {
        ProcReport {
            proc_name: self.proc_name.clone(),
            config: label,
            status: seed.status,
            warnings: Vec::new(),
            specs: Vec::new(),
            min_fail: seed.min_fail,
            stats: ProcStats {
                n_predicates: seed.n_predicates,
                n_cover_clauses: seed.n_cover_clauses,
                search_nodes: seed.search_nodes,
                solver_queries: 0,
                stages: StageTable::default(),
                smt: SolverCounters::default(),
            },
            outcome: seed.outcome,
            timeout_stage: seed.timeout_stage,
        }
    }

    /// Stamps a report's stats by folding the ledger: every shared run
    /// (label `None`) plus every run of the report's own configuration
    /// from event `first` on, each counted once.
    fn stamp_stats(&self, report: &mut ProcReport, first: usize) {
        let own = Some(report.config);
        let stats = &mut report.stats;
        for (i, e) in self.events.iter().enumerate() {
            if e.label.is_none() || (i >= first && e.label == own) {
                stats
                    .stages
                    .record(e.stage, e.metrics.seconds, e.metrics.queries);
                stats.smt.add(&e.smt);
            }
        }
        stats.solver_queries = stats.stages.total_queries();
    }

    /// The `Cons` baseline: the demonic half of the shared screen,
    /// labeled [`ReportLabel::Cons`]. Refills the budget first; reuses
    /// the cached screen when a configuration already ran (zero new
    /// queries).
    pub fn cons(&mut self) -> ProcReport {
        self.az.refill_budget();
        let first = self.events.len();
        let mut seed = ReportSeed::default();
        let mut warnings = Vec::new();
        match self.ensure_demonic_fail() {
            Ok(()) => {
                let fails = self.demonic_fail.as_ref().expect("just ensured").clone();
                if fails.is_empty() {
                    seed.status = SibStatus::Correct;
                }
                if self.certify {
                    self.certify_cons(&fails);
                }
                warnings = fails
                    .into_iter()
                    .map(|id| Warning {
                        assert: id,
                        tag: self.tag_of(id),
                        witness: None,
                    })
                    .collect();
            }
            Err(e) => {
                seed.outcome = AnalysisOutcome::TimedOut;
                seed.timeout_stage = Some(e.stage);
            }
        }
        let mut report = self.blank_report(ReportLabel::Cons, &seed);
        report.warnings = warnings;
        self.stamp_stats(&mut report, first);
        report
    }

    /// The `Mine` stage: collects the predicate vocabulary `Q` under the
    /// configuration's abstraction (§4.4). Purely syntactic — no
    /// queries; the stage records its wall-clock time. The caller (or
    /// [`ProcSession::run_config`]) enforces [`MAX_PREDICATES`].
    pub fn mine(&mut self, opts: &AcspecOptions) -> Vec<Atom> {
        let label = Some(ReportLabel::Config(opts.config));
        let abstraction = opts.config.abstraction();
        self.staged(Stage::Mine, label, |s| {
            Ok(mine_predicates(&s.desugared, abstraction))
        })
        .expect("mining issues no queries")
    }

    /// The `Cover` stage: the predicate cover `β_Q(wp)` via ALL-SAT
    /// (§4.1), capped at `MAX_COVER_CLAUSES`.
    ///
    /// # Errors
    ///
    /// Returns a [`StageError`] at [`Stage::Cover`] on budget or cap
    /// exhaustion.
    pub fn cover(&mut self, opts: &AcspecOptions, q: &[Atom]) -> Result<Cover, StageError> {
        let label = Some(ReportLabel::Config(opts.config));
        self.cover_salvage = None;
        self.staged(Stage::Cover, label, |s| {
            let mut salvage = None;
            let out = predicate_cover_salvaging(&mut s.az, q, MAX_COVER_CLAUSES, &mut salvage);
            s.cover_salvage = salvage;
            out
        })
    }

    /// The `Search` stage: Algorithm 2's greedy weakening over the
    /// installed cover, under the session's cached dead baseline for
    /// `opts.dead_metric`.
    ///
    /// # Errors
    ///
    /// Returns a [`StageError`] at [`Stage::Search`] on budget or node
    /// exhaustion (at [`Stage::Screen`] if the dead baseline itself is
    /// missing and times out).
    pub fn search(
        &mut self,
        opts: &AcspecOptions,
        cover: &Cover,
    ) -> Result<SearchOutcome, StageError> {
        self.ensure_dead_baseline(opts.dead_metric)?;
        let dead_check = self
            .dead_baseline
            .as_ref()
            .map(|(_, c)| c.clone())
            .expect("just ensured");
        let label = Some(ReportLabel::Config(opts.config));
        self.search_salvage = None;
        self.staged(Stage::Search, label, |s| {
            let handles = cover.install_handles(&mut s.az);
            let selectors: Vec<Selector> = handles.iter().map(|&(sel, _)| sel).collect();
            let bodies: Vec<TermId> = handles.iter().map(|&(_, b)| b).collect();
            let mut salvage = None;
            let out = find_almost_correct_specs_salvaging(
                &mut s.az,
                &selectors,
                &dead_check,
                MAX_SEARCH_NODES,
                Some(&bodies),
                &mut salvage,
            );
            s.search_salvage = salvage;
            out
        })
    }

    /// Normalizes each output specification of the search once
    /// (semantic normal form when `|Q|` permits, else syntactic), as the
    /// first half of the `Evaluate` stage. Skipped (returns the raw
    /// clauses) when `opts.apply_normalize` is off.
    pub fn normal_form(
        &mut self,
        opts: &AcspecOptions,
        cover: &Cover,
        search: &SearchOutcome,
    ) -> Vec<Vec<QClause>> {
        let label = Some(ReportLabel::Config(opts.config));
        let apply = opts.apply_normalize;
        self.staged(Stage::Evaluate, label, |s| {
            Ok(search
                .specs
                .iter()
                .map(|subset| {
                    let clauses: Vec<QClause> = subset
                        .iter()
                        .map(|&i| cover.clauses[i as usize].clone())
                        .collect();
                    if apply {
                        cover
                            .normal_form(&mut s.az, &clauses)
                            .unwrap_or_else(|| normalize(&clauses))
                    } else {
                        clauses
                    }
                })
                .collect())
        })
        .expect("a failed normal form falls back to the syntactic one")
    }

    /// The `Evaluate` stage for one prune variant: prunes each
    /// normalized specification (§4.3), collects the induced failures
    /// `E = Fail(Φ)` and a concrete witness per warned assertion.
    /// Budget exhaustion mid-way keeps the partial warning set and is
    /// reported in [`Evaluation::timeout`].
    pub fn evaluate(
        &mut self,
        opts: &AcspecOptions,
        cover: &Cover,
        normalized: &[Vec<QClause>],
        prune: PruneConfig,
    ) -> Evaluation {
        let label = Some(ReportLabel::Config(opts.config));
        // Pruned clause sets whose `Fail(Φ)` query completed, with their
        // failure sets — certified after the staged closure returns so
        // replay wall time stays out of the stage table.
        let mut completed: Vec<(Vec<QClause>, Formula, BTreeSet<AssertId>)> = Vec::new();
        let evaluation = self
            .staged(Stage::Evaluate, label, |s| {
                let call_sites_of_pred = |p: usize| -> Vec<u32> {
                    cover.preds[p]
                        .nu_consts()
                        .into_iter()
                        .map(|nu| nu.site)
                        .collect()
                };
                let mut warned: BTreeSet<AssertId> = BTreeSet::new();
                let mut witnesses: BTreeMap<AssertId, Witness> = BTreeMap::new();
                let mut specs: Vec<Formula> = Vec::new();
                let mut timeout = None;
                for clauses in normalized {
                    let pruned = prune_clauses(clauses, prune, &call_sites_of_pred);
                    let spec_formula = clauses_to_formula(&pruned, &cover.preds);
                    if !specs.contains(&spec_formula) {
                        specs.push(spec_formula.clone());
                    }
                    let sel = cover.install_clause_set(&mut s.az, &pruned);
                    match s.az.fail_set(&[sel]) {
                        Ok(fails) => {
                            for id in &fails {
                                if !witnesses.contains_key(id) {
                                    if let Ok(Some(w)) = s.az.failure_witness(*id, &[sel]) {
                                        if !w.is_empty() {
                                            witnesses.insert(*id, Witness::from(w));
                                        }
                                    }
                                }
                            }
                            completed.push((pruned, spec_formula, fails.clone()));
                            warned.extend(fails);
                        }
                        Err(reason) => {
                            timeout = Some(StageError {
                                stage: Stage::Evaluate,
                                reason,
                            });
                            break;
                        }
                    }
                }
                let warnings = warned
                    .into_iter()
                    .map(|id| Warning {
                        assert: id,
                        tag: s.tag_of(id),
                        witness: witnesses.remove(&id),
                    })
                    .collect();
                Ok(Evaluation {
                    specs,
                    warnings,
                    timeout,
                })
            })
            .expect("a failed evaluation keeps its partial warnings");
        if self.certify {
            self.certify_specs(ReportLabel::Config(opts.config), cover, &completed);
        }
        evaluation
    }

    /// Runs the full pipeline (`FindAbstractSIBs`, Algorithm 1) for one
    /// configuration, evaluating every prune variant against a single
    /// mine/cover/search run. Returns one report per variant, in order
    /// (`prune_variants` empty ⇒ one report for `opts.prune`). Budget
    /// exhaustion is folded into the reports (`outcome`/`timeout_stage`),
    /// never an error — encoding already succeeded at
    /// [`ProcSession::new`].
    pub fn run_config(
        &mut self,
        opts: &AcspecOptions,
        prune_variants: &[PruneConfig],
    ) -> Vec<ProcReport> {
        let label = ReportLabel::Config(opts.config);
        let variants: Vec<PruneConfig> = if prune_variants.is_empty() {
            vec![opts.prune]
        } else {
            prune_variants.to_vec()
        };
        let n = variants.len();
        self.az.refill_budget();
        let first = self.events.len();
        let mut seed = ReportSeed::default();

        // Shared screen (cached after the first configuration): dead
        // baseline first, then the demonic failure set — the historical
        // driver's query order.
        let screening = match self.screen(opts.dead_metric) {
            Ok(s) => s,
            Err(e) => return self.degrade_reports(label, seed, e, n, first),
        };

        // The conservative screen: no demonic failures ⇒ correct; the
        // paper excludes such procedures from all statistics.
        if screening.demonic_fail.is_empty() {
            seed.status = SibStatus::Correct;
            return self.finish_reports(label, seed, n, first);
        }

        // Mine Q; oversized vocabularies time out (ALL-SAT is 2^|Q|).
        let q = self.mine(opts);
        seed.n_predicates = q.len();
        if q.len() > MAX_PREDICATES {
            let e = StageError {
                stage: Stage::Mine,
                reason: FaultReason::Cap,
            };
            return self.degrade_reports(label, seed, e, n, first);
        }

        let cover = match self.cover(opts, &q) {
            Ok(c) => c,
            Err(e) => {
                // Second rung: a non-empty partial cover is a weaker (but
                // sound) screen than β_Q(wp) — evaluate it directly.
                if let Some(partial) = self.cover_salvage.take() {
                    if !partial.clauses.is_empty() {
                        return self.degraded_cover_reports(label, seed, e, n, &partial, first);
                    }
                }
                return self.degrade_reports(label, seed, e, n, first);
            }
        };
        seed.n_cover_clauses = cover.clauses.len();
        if self.certify {
            self.certify_cover(label, &cover, true);
        }

        // Top rung: a failed search still yields Algorithm 2's best
        // candidate so far; the rest of the pipeline runs on it.
        let (search, degraded_search) = match self.search(opts, &cover) {
            Ok(s) => (s, None),
            Err(e) => match self.search_salvage.take() {
                Some(best) => (best, Some(e.stage)),
                None => return self.degrade_reports(label, seed, e, n, first),
            },
        };
        seed.search_nodes = search.nodes_visited;
        seed.status = if search.root_dead {
            SibStatus::Sib
        } else {
            SibStatus::MayBug
        };
        seed.min_fail = search.min_fail;
        if let Some(stage) = degraded_search {
            seed.outcome = AnalysisOutcome::Degraded {
                from_stage: stage,
                fallback: Fallback::BestCandidate,
            };
            seed.timeout_stage = Some(stage);
        }
        if self.certify {
            // Works for salvaged outcomes too: the abort path logs the
            // same chains/evidence, so a degraded run stays auditable.
            self.certify_search(label, &cover, &search);
        }

        let normalized = self.normal_form(opts, &cover, &search);
        let mut out = Vec::with_capacity(n);
        for prune in variants {
            let evaluation = self.evaluate(opts, &cover, &normalized, prune);
            let mut r = self.blank_report(label, &seed);
            r.specs = evaluation.specs;
            r.warnings = evaluation.warnings;
            if let Some(e) = evaluation.timeout {
                if degraded_search.is_none() {
                    // Bottom rung: the evaluation was interrupted but its
                    // partial warning set is kept (as the paper's driver
                    // did) — now labeled as such instead of a bare
                    // timeout.
                    r.outcome = AnalysisOutcome::Degraded {
                        from_stage: e.stage,
                        fallback: Fallback::PartialEvaluation,
                    };
                    r.timeout_stage = Some(e.stage);
                }
            }
            self.stamp_stats(&mut r, first);
            out.push(r);
        }
        out
    }

    /// One report per variant for a run that faulted at `error`: falls
    /// back to the shared `Cons` screen when the demonic failure set is
    /// available (`Degraded`/`ConsScreen` with the demonic warnings), or
    /// to a plain `TimedOut` when the fault hit before the screen
    /// finished and there is nothing to salvage. The run's stage events
    /// start at event `first`.
    fn degrade_reports(
        &mut self,
        label: ReportLabel,
        mut seed: ReportSeed,
        error: StageError,
        n: usize,
        first: usize,
    ) -> Vec<ProcReport> {
        seed.timeout_stage = Some(error.stage);
        match self.demonic_fail.clone() {
            Some(fails) if !fails.is_empty() => {
                seed.outcome = AnalysisOutcome::Degraded {
                    from_stage: error.stage,
                    fallback: Fallback::ConsScreen,
                };
                let warnings: Vec<Warning> = fails
                    .into_iter()
                    .map(|id| Warning {
                        assert: id,
                        tag: self.tag_of(id),
                        witness: None,
                    })
                    .collect();
                (0..n)
                    .map(|_| {
                        let mut r = self.blank_report(label, &seed);
                        r.warnings = warnings.clone();
                        self.stamp_stats(&mut r, first);
                        r
                    })
                    .collect()
            }
            _ => {
                seed.outcome = AnalysisOutcome::TimedOut;
                self.finish_reports(label, seed, n, first)
            }
        }
    }

    /// One report per variant evaluating a salvaged partial cover: its
    /// clause conjunction is the specification, and the warnings are the
    /// demonic screen's (the partial cover is weaker than `β_Q(wp)`, so
    /// the demonic set over-approximates its failures soundly).
    fn degraded_cover_reports(
        &mut self,
        label: ReportLabel,
        mut seed: ReportSeed,
        error: StageError,
        n: usize,
        partial: &Cover,
        first: usize,
    ) -> Vec<ProcReport> {
        seed.n_cover_clauses = partial.clauses.len();
        seed.timeout_stage = Some(error.stage);
        seed.outcome = AnalysisOutcome::Degraded {
            from_stage: error.stage,
            fallback: Fallback::CappedCover,
        };
        if self.certify {
            // A salvaged cover is partial: its cubes are still certified
            // feasible, but no exhaustion claim is made.
            self.certify_cover(label, partial, false);
        }
        let spec = clauses_to_formula(&normalize(&partial.clauses), &partial.preds);
        let warnings: Vec<Warning> = self
            .demonic_fail
            .clone()
            .unwrap_or_default()
            .into_iter()
            .map(|id| Warning {
                assert: id,
                tag: self.tag_of(id),
                witness: None,
            })
            .collect();
        (0..n)
            .map(|_| {
                let mut r = self.blank_report(label, &seed);
                r.specs = vec![spec.clone()];
                r.warnings = warnings.clone();
                self.stamp_stats(&mut r, first);
                r
            })
            .collect()
    }

    /// One identical report per variant, built fresh instead of cloning
    /// a populated report `n` times.
    fn finish_reports(
        &self,
        label: ReportLabel,
        seed: ReportSeed,
        n: usize,
        first: usize,
    ) -> Vec<ProcReport> {
        (0..n)
            .map(|_| {
                let mut r = self.blank_report(label, &seed);
                self.stamp_stats(&mut r, first);
                r
            })
            .collect()
    }

    // -----------------------------------------------------------------
    // Certification (all off the query path: replay-solver queries that
    // charge no budget, draw no chaos, and bump no counters; and all
    // called *outside* `staged` closures so replay wall time never
    // reaches the stage tables).
    // -----------------------------------------------------------------

    /// Certifies the `Cons` screen: one claim per assertion — `can_fail`
    /// (Sat, with a failure model) for demonic warnings, `cannot_fail`
    /// (Unsat, with a proof) for the rest.
    fn certify_cons(&mut self, fails: &BTreeSet<AssertId>) {
        for a in self.az.assertions() {
            let tag = self.tag_of(a);
            let kind = if fails.contains(&a) {
                ClaimKind::CanFail { assert: a, tag }
            } else {
                ClaimKind::CannotFail { assert: a, tag }
            };
            if let Some(cert) = self.az.certify_can_fail(a, &[]) {
                self.claims.push(Claim {
                    label: "Cons".into(),
                    kind,
                    cert,
                });
            }
        }
    }

    /// Certifies a predicate cover: each clause's originating ALL-SAT
    /// cube is feasible (Sat), and — for complete covers — the blocking
    /// clauses exhaust the failure space (Unsat).
    fn certify_cover(&mut self, label: ReportLabel, cover: &Cover, complete: bool) {
        let label_s = label.to_string();
        let mut blocking: Vec<Vec<TermId>> = Vec::with_capacity(cover.clauses.len());
        for (i, clause) in cover.clauses.iter().enumerate() {
            // The cover clause is the negation of the discovered cube: a
            // positive clause literal means the cube assigned the
            // predicate false.
            let mut cube_terms: Vec<TermId> = Vec::with_capacity(clause.lits().len());
            let mut lits: Vec<i64> = Vec::with_capacity(clause.lits().len());
            let mut block: Vec<TermId> = Vec::with_capacity(clause.lits().len());
            for l in clause.lits() {
                let ind = cover.indicators[l.pred];
                if l.positive {
                    cube_terms.push(self.az.ctx.mk_not(ind));
                    lits.push(-i64::from(ind.0));
                    block.push(ind);
                } else {
                    cube_terms.push(ind);
                    lits.push(i64::from(ind.0));
                    block.push(self.az.ctx.mk_not(ind));
                }
            }
            blocking.push(block);
            if let Some(cert) = self.az.certify_any_failure(&[], &cube_terms, &[]) {
                self.claims.push(Claim {
                    label: label_s.clone(),
                    kind: ClaimKind::CubeFeasible { cube: i, lits },
                    cert,
                });
            }
        }
        if complete {
            if let Some(cert) = self.az.certify_any_failure(&[], &[], &blocking) {
                self.claims.push(Claim {
                    label: label_s,
                    kind: ClaimKind::CoverExhausted,
                    cert,
                });
            }
        }
    }

    /// Certifies the search's weakening chains: every dead verdict along
    /// a chain gets evidence — an inconsistency or unreachability proof
    /// for direct verdicts, a reference to the dominating subset's own
    /// proof for lattice hits (never a fabricated one).
    fn certify_search(&mut self, label: ReportLabel, cover: &Cover, search: &SearchOutcome) {
        let label_s = label.to_string();
        let handles = cover.install_handles(&mut self.az);
        let selectors: Vec<Selector> = handles.iter().map(|&(sel, _)| sel).collect();
        // Direct evidence first; dominated subsets reference it.
        let mut direct: HashMap<Vec<u32>, StepEvidence> = HashMap::new();
        for (subset, ev) in &search.dead_evidence {
            let active: Vec<Selector> = subset.iter().map(|&i| selectors[i as usize]).collect();
            match ev {
                DeadEvidence::Inconsistent => {
                    if let Some(cert) = self.az.certify_consistent(&active, &[]) {
                        direct.insert(subset.clone(), StepEvidence::Inconsistent { cert });
                    }
                }
                DeadEvidence::DeadLoc(loc) => {
                    if let Some(cert) = self.az.certify_reachable(*loc, &active) {
                        direct.insert(subset.clone(), StepEvidence::DeadLoc { loc: *loc, cert });
                    }
                }
                DeadEvidence::Path => {
                    direct.insert(subset.clone(), StepEvidence::Path);
                }
                DeadEvidence::Dominated(_) => {}
            }
        }
        let mut full = direct.clone();
        for (subset, ev) in &search.dead_evidence {
            if let DeadEvidence::Dominated(base) = ev {
                if let Some(base_ev) = direct.get(base) {
                    full.insert(
                        subset.clone(),
                        StepEvidence::Dominated {
                            base: base.clone(),
                            evidence: Box::new(base_ev.clone()),
                        },
                    );
                }
            }
        }
        for (i, steps) in search.chains.iter().enumerate() {
            let spec: Vec<u32> = search
                .specs
                .get(i)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            let mut recs = Vec::with_capacity(steps.len());
            let mut grounded = true;
            for st in steps {
                match full.get(&st.subset) {
                    Some(ev) => recs.push(ChainStepRecord {
                        subset: st.subset.clone(),
                        removed: st.removed,
                        evidence: ev.clone(),
                    }),
                    None => {
                        grounded = false;
                        break;
                    }
                }
            }
            if grounded {
                self.chains.push(ChainRecord {
                    label: label_s.clone(),
                    spec,
                    steps: recs,
                });
            }
        }
    }

    /// Certifies the evaluated specifications: per spec × screened
    /// assertion, `spec_fails` (Sat: the warning's failure model) or
    /// `spec_holds` (Unsat: the suppression is proved). Restricted to
    /// the demonic failure set — assertions that cannot fail demonically
    /// cannot fail under any specification (§2.3 monotonicity) and are
    /// already covered by the `Cons` claims.
    fn certify_specs(
        &mut self,
        label: ReportLabel,
        cover: &Cover,
        completed: &[(Vec<QClause>, Formula, BTreeSet<AssertId>)],
    ) {
        let label_s = label.to_string();
        let demonic: Vec<AssertId> = self
            .demonic_fail
            .clone()
            .unwrap_or_default()
            .into_iter()
            .collect();
        for (pruned, formula, fails) in completed {
            let spec_s = formula.to_string();
            if !self.cert_seen.insert((label_s.clone(), spec_s.clone())) {
                continue;
            }
            let sel = cover.install_clause_set(&mut self.az, pruned);
            for &a in &demonic {
                let tag = self.tag_of(a);
                let kind = if fails.contains(&a) {
                    ClaimKind::SpecFails {
                        spec: spec_s.clone(),
                        assert: a,
                        tag,
                    }
                } else {
                    ClaimKind::SpecHolds {
                        spec: spec_s.clone(),
                        assert: a,
                        tag,
                    }
                };
                if let Some(cert) = self.az.certify_can_fail(a, &[sel]) {
                    self.claims.push(Claim {
                        label: label_s.clone(),
                        kind,
                        cert,
                    });
                }
            }
        }
    }
}

/// Scalar fields shared by every variant's report.
#[derive(Debug, Clone, Copy)]
struct ReportSeed {
    status: SibStatus,
    min_fail: usize,
    n_predicates: usize,
    n_cover_clauses: usize,
    search_nodes: usize,
    outcome: AnalysisOutcome,
    timeout_stage: Option<Stage>,
}

impl Default for ReportSeed {
    fn default() -> Self {
        ReportSeed {
            status: SibStatus::MayBug,
            min_fail: 0,
            n_predicates: 0,
            n_cover_clauses: 0,
            search_nodes: 0,
            outcome: AnalysisOutcome::Ok,
            timeout_stage: None,
        }
    }
}

/// Program-level orchestration: a session per defined procedure, fanned
/// out over a scoped worker pool, with deterministic ordering and
/// observer replay.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis<'p> {
    program: &'p Program,
    base: AcspecOptions,
    configs: Vec<ConfigName>,
    prune_variants: Vec<PruneConfig>,
    threads: usize,
    certify: bool,
    store: Option<&'p StoreSession>,
}

/// Everything one session produced for one procedure.
#[derive(Debug, Clone)]
pub struct ProcAnalysis {
    /// Procedure name.
    pub proc_name: String,
    /// The `Cons` baseline report.
    pub cons: ProcReport,
    /// `reports[config][variant]`, parallel to the requested configs and
    /// prune variants. Empty when the procedure was screened correct.
    pub reports: Vec<Vec<ProcReport>>,
    /// The session's stage events, in execution order.
    pub events: Vec<StageEvent>,
    /// The session's query events (empty unless the observer opted in
    /// via [`SessionObserver::wants_queries`]), grouped by enclosing
    /// stage run in stage completion order.
    pub queries: Vec<QueryEvent>,
    /// The session's certificates (claims, chains, shared store). `None`
    /// unless [`ProgramAnalysis::certify`] was enabled — and always
    /// `None` for warm store hits, whose certificate document comes from
    /// [`ProcAnalysis::certs_fragment`] instead.
    pub certs: Option<ProcCerts>,
    /// True when this analysis was reconstructed from the persistent
    /// result store (zero solver queries ran; `events`/`queries` are
    /// empty).
    pub from_store: bool,
    /// Non-fatal incidents attached to this (completed) analysis —
    /// currently store-corruption records: the entry was quarantined and
    /// the procedure recomputed, so the verdict is intact but the
    /// operator should know the storage decayed.
    pub incidents: Vec<AnalysisIncident>,
    /// The pre-rendered certificate fragment
    /// ([`crate::certs::proc_certs_json`]) backing this analysis, when
    /// certification ran (cold) or was stored (warm). Reassembling
    /// fragments with [`crate::certs::certs_json_from_fragments`] yields
    /// a byte-identical sidecar either way.
    pub certs_fragment: Option<String>,
    /// The dominance-cache antichains at session end (cold, when the
    /// query cache was on). Nothing reads them and the store does not
    /// keep them, so warm hits carry `None`.
    pub antichains: Option<acspec_vcgen::cache::CacheSnapshot>,
}

impl ProcAnalysis {
    /// True if the baseline or any configuration variant timed out.
    pub fn timed_out(&self) -> bool {
        self.cons.timed_out() || self.reports.iter().flatten().any(ProcReport::timed_out)
    }
}

/// What the isolation layer produced for one procedure: either the
/// completed analysis, or the incident (panic or error) that aborted it.
/// Every defined procedure yields exactly one `ProcOutcome` — one bad
/// procedure never takes down the run.
#[derive(Debug)]
pub enum ProcOutcome {
    /// The session ran to completion (its reports may still be
    /// `TimedOut` or `Degraded`).
    Analyzed(Box<ProcAnalysis>),
    /// The session panicked or errored; the isolation layer caught it.
    Faulted(AnalysisIncident),
}

impl ProcOutcome {
    /// The procedure's name, whichever way it went.
    pub fn proc_name(&self) -> &str {
        match self {
            ProcOutcome::Analyzed(pa) => &pa.proc_name,
            ProcOutcome::Faulted(i) => &i.proc_name,
        }
    }

    /// The completed analysis, if any.
    pub fn analysis(&self) -> Option<&ProcAnalysis> {
        match self {
            ProcOutcome::Analyzed(pa) => Some(pa),
            ProcOutcome::Faulted(_) => None,
        }
    }

    /// The incident, if the procedure faulted.
    pub fn incident(&self) -> Option<&AnalysisIncident> {
        match self {
            ProcOutcome::Analyzed(_) => None,
            ProcOutcome::Faulted(i) => Some(i),
        }
    }

    /// Consumes the outcome, keeping only a completed analysis.
    pub fn into_analysis(self) -> Option<ProcAnalysis> {
        match self {
            ProcOutcome::Analyzed(pa) => Some(*pa),
            ProcOutcome::Faulted(_) => None,
        }
    }
}

/// Renders a caught panic payload (almost always a `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs one procedure's analysis behind the panic/error barrier: anything
/// it throws — an [`AcspecError`] or a panic (the solver's, an overflowing
/// constant's, or an injected chaos panic) — becomes an
/// [`AnalysisIncident`] attributed to the stage that was executing.
pub(crate) fn isolated<T>(
    proc_name: &str,
    analysis: impl FnOnce() -> Result<T, AcspecError>,
) -> Result<T, AnalysisIncident> {
    CURRENT_STAGE.with(|c| c.set(None));
    CURRENT_PROC.with(|c| *c.borrow_mut() = Some(proc_name.to_string()));
    let (kind, message) = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(analysis)) {
        Ok(Ok(value)) => return Ok(value),
        Ok(Err(e)) => (IncidentKind::Error, e.to_string()),
        Err(payload) => (IncidentKind::Panic, panic_message(payload.as_ref())),
    };
    Err(AnalysisIncident {
        proc_name: current_proc_or(proc_name),
        kind,
        stage: CURRENT_STAGE.with(Cell::get),
        message,
    })
}

impl<'p> ProgramAnalysis<'p> {
    /// An analysis of `program` under the triage ladder
    /// ([`ConfigName::LADDER`]), no pruning, default options, all cores.
    /// Procedures the conservative screen proves correct skip the
    /// configurations, as in the paper's evaluation.
    pub fn new(program: &'p Program) -> ProgramAnalysis<'p> {
        ProgramAnalysis {
            program,
            base: AcspecOptions::default(),
            configs: ConfigName::LADDER.to_vec(),
            prune_variants: Vec::new(),
            threads: 0,
            certify: false,
            store: None,
        }
    }

    /// Sets the option template (per-config runs override `config`).
    #[must_use]
    pub fn options(mut self, base: AcspecOptions) -> Self {
        self.base = base;
        self
    }

    /// Sets the analyzer budget.
    #[must_use]
    pub fn analyzer(mut self, analyzer: AnalyzerConfig) -> Self {
        self.base.analyzer = analyzer;
        self
    }

    /// Sets the configurations to run, in order.
    #[must_use]
    pub fn configs(mut self, configs: &[ConfigName]) -> Self {
        self.configs = configs.to_vec();
        self
    }

    /// Sets the prune variants each configuration evaluates (empty =
    /// just the template's `prune`).
    #[must_use]
    pub fn prune_variants(mut self, variants: &[PruneConfig]) -> Self {
        self.prune_variants = variants.to_vec();
        self
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    /// Output is deterministic regardless of this setting.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Whether every session certifies its verdicts (default `false`).
    /// Certification replays queries against one replay solver per
    /// procedure off the budget/chaos/counter paths, so reports are
    /// byte-identical either
    /// way; each [`ProcAnalysis::certs`] then carries the evidence.
    #[must_use]
    pub fn certify(mut self, certify: bool) -> Self {
        self.certify = certify;
        self
    }

    /// Attaches a persistent result store: procedures whose fingerprint
    /// and options match a stored entry are re-emitted byte-identically
    /// with zero solver queries; misses are computed and saved. Ignored
    /// when a wall-clock deadline is configured (deadline runs are
    /// nondeterministic, so their results are not cacheable).
    #[must_use]
    pub fn store(mut self, store: Option<&'p StoreSession>) -> Self {
        self.store = store;
        self
    }

    /// The store key for `proc` under this analysis's exact request, or
    /// `None` when the store is off, a deadline makes results
    /// uncacheable, or the procedure does not desugar (the cold path
    /// will report the real error).
    fn store_key(&self, proc: &Procedure) -> Option<String> {
        self.store?;
        if self.base.analyzer.deadline.is_some() {
            return None;
        }
        let fp = procedure_fingerprint(self.program, proc).ok()?;
        Some(entry_key(
            &fp,
            &options_digest(
                &self.base,
                &self.configs,
                &self.prune_variants,
                true, // skip_correct: correct procedures are always skipped
                self.certify,
            ),
        ))
    }

    fn analyze_one(
        &self,
        proc: &Procedure,
        record_queries: bool,
        record_search: bool,
    ) -> Result<ProcAnalysis, AcspecError> {
        let mut incidents = Vec::new();
        let store_key = self.store_key(proc);
        if let (Some(store), Some(key)) = (self.store, store_key.as_deref()) {
            match store.fetch(key, &proc.name) {
                StoreOutcome::Hit(pa) => return Ok(*pa),
                StoreOutcome::Miss => {}
                StoreOutcome::Corrupt(kind) => incidents.push(AnalysisIncident {
                    proc_name: current_proc_or(&proc.name),
                    kind: IncidentKind::StoreCorruption,
                    stage: None,
                    message: format!(
                        "store entry {key} failed validation ({kind}); quarantined and recomputed"
                    ),
                }),
            }
        }
        let mut session = ProcSession::new(self.program, proc, self.base.analyzer)?;
        session.set_query_recording(record_queries);
        session.set_search_recording(record_search);
        if self.certify {
            session.enable_certs();
        }
        let cons = session.cons();
        let reports = if cons.status == SibStatus::Correct {
            Vec::new()
        } else {
            self.configs
                .iter()
                .map(|&config| {
                    let mut opts = self.base;
                    opts.config = config;
                    session.run_config(&opts, &self.prune_variants)
                })
                .collect()
        };
        let antichains = session.analyzer_mut().cache_snapshot();
        let certs = session.take_certs();
        let certs_fragment = certs.as_ref().map(proc_certs_json);
        let pa = ProcAnalysis {
            proc_name: proc.name.clone(),
            cons,
            reports,
            events: session.take_events(),
            queries: session.take_query_events(),
            certs,
            from_store: false,
            incidents,
            certs_fragment,
            antichains,
        };
        if let (Some(store), Some(key)) = (self.store, store_key.as_deref()) {
            store.put(key, &pa);
        }
        Ok(pa)
    }

    /// [`ProgramAnalysis::analyze_one`] behind the [`isolated`] barrier.
    fn analyze_one_isolated(
        &self,
        proc: &Procedure,
        record_queries: bool,
        record_search: bool,
    ) -> ProcOutcome {
        match isolated(&proc.name, || {
            self.analyze_one(proc, record_queries, record_search)
        }) {
            Ok(pa) => ProcOutcome::Analyzed(Box::new(pa)),
            Err(incident) => ProcOutcome::Faulted(incident),
        }
    }

    /// Analyzes every defined procedure, fanning sessions out over the
    /// worker pool, then replays stage events to `observer` in procedure
    /// order (so observer output is deterministic). Infallible: panics
    /// and errors are isolated per procedure and returned as
    /// [`ProcOutcome::Faulted`] incidents.
    pub fn run(&self, observer: &mut dyn SessionObserver) -> Vec<ProcOutcome> {
        let defined: Vec<&Procedure> = self
            .program
            .procedures
            .iter()
            .filter(|p| p.body.is_some())
            .collect();
        let threads = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
        .min(defined.len().max(1));
        let record_queries = observer.wants_queries();
        let record_search = observer.wants_search();

        // Longest procedures first, so the heaviest one (e.g. Drv7)
        // never lands on a worker last and dominates tail latency.
        // Results land in per-procedure-index slots regardless of
        // service order, so output is the same at any thread count.
        let order = schedule_longest_first(&defined);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Option<ProcOutcome>>> = (0..defined.len())
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                spawn_worker(scope, || loop {
                    let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if k >= order.len() {
                        break;
                    }
                    let i = order[k];
                    let result =
                        self.analyze_one_isolated(defined[i], record_queries, record_search);
                    *slots[i].lock().expect("no poisoning") = Some(result);
                });
            }
        });
        let results: Vec<ProcOutcome> = slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("no poisoning")
                    .expect("worker filled slot")
            })
            .collect();

        let mut out = Vec::with_capacity(results.len());
        for outcome in results {
            match &outcome {
                ProcOutcome::Analyzed(pa) => {
                    // Queries are grouped by stage run in stage
                    // completion order, so a single cursor delivers each
                    // stage's queries just before its `stage_completed`.
                    let mut cursor = 0;
                    for event in &pa.events {
                        while cursor < pa.queries.len() && pa.queries[cursor].stage_seq == event.seq
                        {
                            observer.query_completed(&pa.queries[cursor]);
                            cursor += 1;
                        }
                        observer.stage_completed(event);
                    }
                    for r in std::iter::once(&pa.cons).chain(pa.reports.iter().flatten()) {
                        if let AnalysisOutcome::Degraded {
                            from_stage,
                            fallback,
                        } = r.outcome
                        {
                            observer.degradation_recorded(&pa.proc_name, from_stage, fallback);
                        }
                    }
                    for incident in &pa.incidents {
                        observer.incident_recorded(incident);
                    }
                    observer.proc_completed(&pa.proc_name);
                }
                ProcOutcome::Faulted(incident) => {
                    observer.incident_recorded(incident);
                    observer.proc_completed(&incident.proc_name);
                }
            }
            out.push(outcome);
        }
        out
    }
}

/// Stack size of every analysis worker. Desugaring, encoding, mining
/// and dropping a body recurse over its nesting, which the parsers
/// bound at 256 levels and C lowering at 400 guards more. A body at
/// both bounds needs 7 MiB to encode in a debug build and 2 MiB, a
/// spawned thread's default, in a release build; this is nine times the
/// debug figure. Untouched stack pages cost no memory.
const WORKER_STACK_BYTES: usize = 64 << 20;

/// Spawns an analysis worker with [`WORKER_STACK_BYTES`] of stack.
pub(crate) fn spawn_worker<'scope, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    work: impl FnOnce() -> T + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, T> {
    std::thread::Builder::new()
        .stack_size(WORKER_STACK_BYTES)
        .spawn_scoped(scope, work)
        .expect("the OS starts an analysis worker")
}

/// Dispatch order for the work queue: procedure indices sorted by
/// descending statement count (index as the tie-break, so the order is
/// total and deterministic). Workers pull from this order; results are
/// still keyed by procedure index.
fn schedule_longest_first(defined: &[&Procedure]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..defined.len()).collect();
    order.sort_by_key(|&i| {
        let cost = defined[i].body.as_ref().map_or(0, Stmt::simple_stmt_count);
        (std::cmp::Reverse(cost), i)
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use acspec_ir::parse::parse_program;

    const FIGURE1: &str = "
        global Freed: map;
        procedure Foo(c: int, buf: int, cmd: int) {
          if (*) {
            assert Freed[c] == 0;   Freed[c] := 1;
            assert Freed[buf] == 0; Freed[buf] := 1;
          } else {
            if (cmd == 1) {
              if (*) {
                assert Freed[c] == 0;   Freed[c] := 1;
                assert Freed[buf] == 0; Freed[buf] := 1;
              }
            }
            assert Freed[c] == 0;   Freed[c] := 1;
            assert Freed[buf] == 0; Freed[buf] := 1;
          }
        }";

    /// The acceptance criterion of the session refactor: one encode
    /// serves `Cons` plus every configuration and prune variant.
    #[test]
    fn one_encode_serves_cons_and_all_configs() {
        let prog = parse_program(FIGURE1).expect("parses");
        let proc = prog.procedures[0].clone();
        let mut session =
            ProcSession::new(&prog, &proc, AnalyzerConfig::default()).expect("encodes");
        let cons = session.cons();
        assert_eq!(cons.config, ReportLabel::Cons);
        assert!(!cons.warnings.is_empty());
        let variants = [
            PruneConfig::default(),
            PruneConfig {
                max_literals: Some(1),
                no_cross_call_correlations: false,
            },
        ];
        for config in ConfigName::all() {
            let opts = AcspecOptions::for_config(config);
            let reports = session.run_config(&opts, &variants);
            assert_eq!(reports.len(), variants.len());
            for r in &reports {
                assert_eq!(r.config, config);
                assert!(!r.timed_out(), "{config} timed out");
            }
        }
        let events = session.take_events();
        let encodes = events.iter().filter(|e| e.stage == Stage::Encode).count();
        assert_eq!(encodes, 1, "exactly one encode across Cons + 4 configs");
        let screens: u64 = events
            .iter()
            .filter(|e| e.stage == Stage::Screen)
            .map(|e| e.metrics.queries)
            .sum();
        // Screen = dead baseline + |asserts| demonic fail checks, issued
        // once, not once per configuration.
        assert!(screens > 0);
        let per_config_screens = events
            .iter()
            .filter(|e| e.stage == Stage::Screen && e.label.is_some())
            .count();
        assert_eq!(
            per_config_screens, 0,
            "screen events are shared (unlabeled)"
        );
    }

    #[test]
    fn session_reports_carry_stage_breakdowns() {
        let prog = parse_program(FIGURE1).expect("parses");
        let proc = prog.procedures[0].clone();
        let mut session =
            ProcSession::new(&prog, &proc, AnalyzerConfig::default()).expect("encodes");
        let opts = AcspecOptions::for_config(ConfigName::Conc);
        let r = &session.run_config(&opts, &[])[0];
        assert!(r.stats.solver_queries > 0);
        assert_eq!(r.stats.solver_queries, r.stats.stages.total_queries());
        assert!(r.stats.stages.get(Stage::Screen).queries > 0);
        assert!(r.stats.stages.get(Stage::Cover).queries > 0);
        assert!(r.stats.stages.get(Stage::Search).queries > 0);
        assert!(r.stats.stages.get(Stage::Evaluate).queries > 0);
        assert!(r.stats.seconds() > 0.0);
        assert_eq!(r.timeout_stage, None);
    }

    #[test]
    fn budget_exhaustion_names_the_stage() {
        let prog = parse_program(FIGURE1).expect("parses");
        let proc = prog.procedures[0].clone();
        let mut session = ProcSession::new(
            &prog,
            &proc,
            AnalyzerConfig {
                conflict_budget: Some(1),
                ..AnalyzerConfig::default()
            },
        )
        .expect("encodes");
        let opts = AcspecOptions::for_config(ConfigName::Conc);
        let r = &session.run_config(&opts, &[])[0];
        assert!(r.timed_out());
        assert_eq!(r.timeout_stage, Some(Stage::Screen));
    }

    #[test]
    fn program_analysis_is_deterministic_across_thread_counts() {
        let prog = parse_program(
            "procedure f(x: int) { if (x == 0) { assert x != 0; } }
             procedure g(p: int) { assert p != 0; }
             procedure ok(x: int) { assume x > 0; assert x > 0; }",
        )
        .expect("parses");
        let run = |threads: usize| {
            let mut totals = StageTotals::default();
            let results: Vec<ProcAnalysis> = ProgramAnalysis::new(&prog)
                .threads(threads)
                .run(&mut totals)
                .into_iter()
                .map(|o| o.into_analysis().expect("no incidents"))
                .collect();
            (results, totals)
        };
        let (serial, t1) = run(1);
        let (parallel, t4) = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.proc_name, b.proc_name);
            assert_eq!(a.cons.warnings, b.cons.warnings);
            assert_eq!(a.reports.len(), b.reports.len());
            for (ra, rb) in a.reports.iter().flatten().zip(b.reports.iter().flatten()) {
                assert_eq!(ra.config, rb.config);
                assert_eq!(ra.status, rb.status);
                assert_eq!(ra.warnings, rb.warnings);
            }
        }
        assert_eq!(t1.procs(), t4.procs());
        // Query counts are solver-deterministic; only seconds may differ.
        for (label, table) in t1.iter() {
            assert_eq!(
                table.total_queries(),
                t4.table(label).total_queries(),
                "queries differ for {label:?}"
            );
        }
        // `ok` is screened correct: cons present, ladder skipped.
        let ok = serial.iter().find(|p| p.proc_name == "ok").expect("ok");
        assert_eq!(ok.cons.status, SibStatus::Correct);
        assert!(ok.reports.is_empty());
    }

    #[test]
    fn reports_and_certificates_are_byte_identical_across_thread_counts() {
        let prog = parse_program(
            "procedure f(x: int) { if (x == 0) { assert x != 0; } }
             procedure g(p: int, q: int) {
               if (p == 0) { assert q != 0; } else { assert p != 1; }
             }
             procedure ok(x: int) { assume x > 0; assert x > 0; }",
        )
        .expect("parses");
        let run = |threads: usize| {
            let mut totals = StageTotals::default();
            let results: Vec<ProcAnalysis> = ProgramAnalysis::new(&prog)
                .threads(threads)
                .certify(true)
                .run(&mut totals)
                .into_iter()
                .map(|o| o.into_analysis().expect("no incidents"))
                .collect();
            let reports: Vec<String> = results
                .iter()
                .map(|pa| {
                    format!(
                        "{} {:?} {:?}",
                        pa.proc_name,
                        pa.cons.warnings,
                        pa.reports
                            .iter()
                            .flatten()
                            .map(|r| (&r.config, &r.status, &r.warnings))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            let certs: Vec<String> = results
                .iter()
                .filter_map(|pa| pa.certs_fragment.clone())
                .collect();
            (reports, certs)
        };
        let (base_reports, base_certs) = run(1);
        for threads in [2usize, 8] {
            let (reports, certs) = run(threads);
            assert_eq!(reports, base_reports, "threads={threads}: reports diverged");
            assert_eq!(
                certs, base_certs,
                "threads={threads}: certificates diverged"
            );
        }
    }

    #[test]
    fn work_queue_dispatches_longest_procedures_first() {
        let prog = parse_program(
            "procedure tiny(x: int) { assert x != 0; }
             procedure big(x: int) {
               if (x == 0) { assert x != 1; } else { assert x != 2; }
               assert x != 3; assert x != 4; assert x != 5;
             }
             procedure ext(x: int) returns (r: int);
             procedure mid(x: int) { assert x != 0; assert x != 1; }",
        )
        .expect("parses");
        let defined: Vec<&Procedure> = prog
            .procedures
            .iter()
            .filter(|p| p.body.is_some())
            .collect();
        assert_eq!(defined.len(), 3, "bodyless `ext` is not scheduled");
        // Indices within `defined`: 0 = tiny, 1 = big, 2 = mid.
        assert_eq!(schedule_longest_first(&defined), vec![1, 2, 0]);
        // Equal costs fall back to index order (total, deterministic).
        let ties: Vec<&Procedure> = prog
            .procedures
            .iter()
            .filter(|p| p.name == "tiny")
            .chain(prog.procedures.iter().filter(|p| p.name == "tiny"))
            .collect();
        assert_eq!(schedule_longest_first(&ties), vec![0, 1]);
    }
}
