//! The [`TelemetryObserver`]: turns session events into a span tree and
//! a metrics registry (the `--trace-out` / `--metrics-out` backends).
//!
//! The observer rides [`ProgramAnalysis::run`]'s deterministic replay
//! (events arrive in procedure order regardless of worker-thread
//! count), building one [`TraceBuf`] per procedure and assembling them
//! in that same stable order — so the finished trace is byte-identical
//! across thread counts, modulo wall-times.
//!
//! Span tree:
//!
//! ```text
//!   program
//!     └─ procedure (proc=…)
//!          └─ config (label=shared|Cons|Conc|…)
//!               └─ stage (stage=…, seq=…, queries=…, cache_hits=…,
//!                         cache_misses=…)
//!                    · solver_query events (outcome, counters, seconds)
//! ```
//!
//! [`ProgramAnalysis::run`]: crate::session::ProgramAnalysis::run

use std::collections::BTreeMap;
use std::io::Write;

use acspec_smt::{LBD_BUCKET_BOUNDS, RESTART_BUCKET_BOUNDS};
use acspec_telemetry::{
    Histogram, Manifest, MetricsRegistry, SpanHandle, Trace, TraceBuf, TraceRender,
};
use acspec_vcgen::stage::Stage;

use crate::report::{AnalysisIncident, Fallback, IncidentKind, ReportLabel};
use crate::session::{QueryEvent, SessionObserver, StageEvent};

/// Per-procedure recording state.
#[derive(Debug)]
struct ProcTrace {
    buf: TraceBuf,
    root: SpanHandle,
    configs: BTreeMap<Option<ReportLabel>, SpanHandle>,
    /// Queries replayed ahead of their owning stage event.
    pending: Vec<QueryEvent>,
}

impl ProcTrace {
    fn new(proc_name: &str) -> ProcTrace {
        let mut buf = TraceBuf::new();
        let root = buf.push_span(None, "procedure", vec![("proc", proc_name.into())], 0.0);
        ProcTrace {
            buf,
            root,
            configs: BTreeMap::new(),
            pending: Vec::new(),
        }
    }

    fn config_span(&mut self, label: Option<ReportLabel>) -> SpanHandle {
        let root = self.root;
        *self.configs.entry(label).or_insert_with(|| {
            let name = label.map_or_else(|| "shared".to_string(), |l| l.to_string());
            self.buf
                .push_span(Some(root), "config", vec![("label", name.into())], 0.0)
        })
    }
}

/// Label text used in span attributes and metric names.
fn label_name(label: Option<ReportLabel>) -> String {
    label.map_or_else(|| "shared".to_string(), |l| l.to_string())
}

/// A [`SessionObserver`] that records spans, solver-query events, and
/// metrics. Opt into per-query events by construction — its
/// [`wants_queries`](SessionObserver::wants_queries) returns `true`, so
/// sessions running under it enable the analyzer's query hook.
///
/// Call [`TelemetryObserver::finish`] after the analysis to assemble
/// the deterministic trace and take the registry.
#[derive(Debug, Default)]
pub struct TelemetryObserver {
    bufs: Vec<TraceBuf>,
    current: Option<ProcTrace>,
    metrics: MetricsRegistry,
    search_events: bool,
}

impl TelemetryObserver {
    /// An empty observer.
    pub fn new() -> TelemetryObserver {
        TelemetryObserver::default()
    }

    /// Opts into CDCL search summaries: sessions running under this
    /// observer enable the solver's [`SearchObserver`] hook (per-conflict
    /// LBD computation), and each `solver_query` trace event gains
    /// `restarts`/`max_dl`/`learnt_clauses`/`lbd_max` attributes plus
    /// `solver.lbd` / `solver.conflicts_per_interval` histograms in the
    /// metrics snapshot. Off by default — existing traces and snapshots
    /// are byte-identical to pre-instrumentation output.
    ///
    /// [`SearchObserver`]: acspec_smt::SearchObserver
    #[must_use]
    pub fn with_search_events(mut self, on: bool) -> TelemetryObserver {
        self.search_events = on;
        self
    }

    fn proc_trace(&mut self, proc_name: &str) -> &mut ProcTrace {
        if self.current.is_none() {
            self.current = Some(ProcTrace::new(proc_name));
        }
        self.current.as_mut().expect("just ensured")
    }

    /// Live view of the metrics registry (e.g. for progress displays).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Folds a persistent-store stats snapshot into the registry:
    /// `store.{hits,misses,corrupt,retries,saves,save_errors,quarantined}`
    /// counters plus `store.load_seconds` / `store.save_seconds` latency
    /// histograms. Call once after the run (the snapshot is cumulative).
    /// Runs without a store never touch these families, so their metric
    /// snapshots stay byte-identical.
    pub fn record_store(&mut self, stats: &acspec_store::StoreStats) {
        self.metrics.inc("store.hits", stats.hits);
        self.metrics.inc("store.misses", stats.misses);
        self.metrics.inc("store.corrupt", stats.corrupt);
        self.metrics.inc("store.retries", stats.retries);
        self.metrics.inc("store.saves", stats.saves);
        self.metrics.inc("store.save_errors", stats.save_errors);
        self.metrics.inc("store.quarantined", stats.quarantined);
        for &s in &stats.load_seconds {
            self.metrics.observe("store.load_seconds", s);
        }
        for &s in &stats.save_seconds {
            self.metrics.observe("store.save_seconds", s);
        }
    }

    /// Assembles the trace (stable procedure order) and hands over the
    /// metrics registry.
    pub fn finish(mut self) -> TelemetryOutput {
        if let Some(pt) = self.current.take() {
            // Defensive: a run that errored mid-procedure still yields
            // the events recorded so far.
            self.bufs.push(pt.buf);
        }
        let procs = self.bufs.len();
        let trace = Trace::assemble("program", vec![("procs", procs.into())], self.bufs);
        TelemetryOutput {
            trace,
            metrics: self.metrics,
        }
    }
}

impl SessionObserver for TelemetryObserver {
    fn stage_completed(&mut self, event: &StageEvent) {
        let stage_name = event.stage.name();
        let pt = self.proc_trace(&event.proc_name);
        let config = pt.config_span(event.label);
        let span = pt.buf.push_span(
            Some(config),
            "stage",
            vec![
                ("stage", stage_name.into()),
                ("seq", u64::from(event.seq).into()),
                ("queries", event.metrics.queries.into()),
                ("cache_hits", event.cache.hits().into()),
                ("cache_misses", event.cache.misses.into()),
            ],
            event.metrics.seconds,
        );
        for q in pt.pending.drain(..) {
            let mut attrs = vec![
                ("seq", u64::from(q.seq).into()),
                ("outcome", q.outcome.name().into()),
                ("conflicts", q.counters.conflicts.into()),
                ("decisions", q.counters.decisions.into()),
                ("propagations", q.counters.propagations.into()),
                ("theory_conflicts", q.counters.theory_conflicts.into()),
            ];
            if let Some(s) = q.search {
                attrs.push(("restarts", s.restarts.into()));
                attrs.push(("max_dl", u64::from(s.max_decision_level).into()));
                attrs.push(("learnt_clauses", s.learnt_clauses.into()));
                attrs.push(("lbd_max", u64::from(s.max_lbd).into()));
            }
            pt.buf.push_event(span, "solver_query", attrs, q.seconds);
        }
        pt.buf.add_seconds(config, event.metrics.seconds);
        let root = pt.root;
        pt.buf.add_seconds(root, event.metrics.seconds);

        self.metrics.gauge_add(
            &format!("stage.{stage_name}.seconds"),
            event.metrics.seconds,
        );
        self.metrics.inc(
            &format!("stage.{stage_name}.queries"),
            event.metrics.queries,
        );
        self.metrics.inc("cache.hits", event.cache.hits());
        self.metrics.inc("cache.hit_sat", event.cache.hits_sat);
        self.metrics.inc("cache.hit_unsat", event.cache.hits_unsat);
        self.metrics.inc("cache.misses", event.cache.misses);
        self.metrics
            .inc("cache.invalidations", event.cache.invalidations);
        self.metrics
            .gauge_add("stage.total_seconds", event.metrics.seconds);
        self.metrics.observe("stage.seconds", event.metrics.seconds);
        self.metrics.gauge_add(
            &format!("config.{}.seconds", label_name(event.label)),
            event.metrics.seconds,
        );
        // Chaos counters only appear when fault injection is active, so
        // chaos-free runs keep byte-identical metric snapshots.
        if event.chaos.draws > 0 {
            self.metrics.inc("chaos.draws", event.chaos.draws);
            self.metrics.inc("chaos.unknowns", event.chaos.unknowns);
            self.metrics.inc("chaos.blowups", event.chaos.blowups);
            self.metrics.inc("chaos.latencies", event.chaos.latencies);
            self.metrics.inc("chaos.panics", event.chaos.panics);
        }
        // Likewise for the term arena: stages that never intern keep
        // prior metric snapshots unchanged.
        if event.terms.any() {
            let t = &event.terms;
            self.metrics.inc("terms.interned_nodes", t.interned_nodes);
            self.metrics.inc("terms.intern_hits", t.intern_hits);
            self.metrics.inc("terms.memo_hits", t.memo_hits());
            self.metrics.inc("terms.subst_hits", t.subst_hits);
            self.metrics.inc("terms.atoms_hits", t.atoms_hits);
            self.metrics.inc("terms.translate_hits", t.translate_hits);
            self.metrics.inc("terms.bytes_saved", t.bytes_saved());
        }
    }

    fn incident_recorded(&mut self, incident: &AnalysisIncident) {
        self.metrics.inc("incident.total", 1);
        match incident.kind {
            IncidentKind::Panic => self.metrics.inc("incident.panics", 1),
            IncidentKind::Error => self.metrics.inc("incident.errors", 1),
            IncidentKind::StoreCorruption => self.metrics.inc("incident.store_corruption", 1),
        }
    }

    fn degradation_recorded(&mut self, _proc_name: &str, _from: Stage, fallback: Fallback) {
        self.metrics.inc("incident.degraded", 1);
        self.metrics
            .inc(&format!("degraded.{}", fallback.name()), 1);
    }

    fn query_completed(&mut self, event: &QueryEvent) {
        self.metrics.inc("solver.queries", 1);
        self.metrics
            .inc(&format!("solver.{}", event.outcome.name()), 1);
        self.metrics
            .inc("solver.conflicts", event.counters.conflicts);
        self.metrics
            .inc("solver.decisions", event.counters.decisions);
        self.metrics
            .inc("solver.propagations", event.counters.propagations);
        self.metrics
            .inc("solver.theory_conflicts", event.counters.theory_conflicts);
        self.metrics.observe("solver.query_seconds", event.seconds);
        if let Some(s) = event.search {
            self.metrics.inc("solver.restarts", s.restarts);
            self.metrics.inc("solver.learnt_clauses", s.learnt_clauses);
            self.metrics
                .inc("solver.learnt_literals", s.learnt_literals);
            self.metrics
                .gauge_max("solver.max_decision_level", f64::from(s.max_decision_level));
            let lbd_bounds: Vec<f64> = LBD_BUCKET_BOUNDS.iter().map(|&b| b as f64).collect();
            self.metrics.merge_histogram(
                "solver.lbd",
                &Histogram::from_parts(&lbd_bounds, &s.lbd_hist, s.lbd_sum as f64),
            );
            // One sample per search interval: each restart closes one,
            // and so does the end of each query whose last interval saw
            // a conflict. The sum is therefore `solver.conflicts`.
            let restart_bounds: Vec<f64> =
                RESTART_BUCKET_BOUNDS.iter().map(|&b| b as f64).collect();
            self.metrics.merge_histogram(
                "solver.conflicts_per_interval",
                &Histogram::from_parts(&restart_bounds, &s.restart_hist, s.conflicts as f64),
            );
        }
        self.proc_trace(&event.proc_name)
            .pending
            .push(event.clone());
    }

    fn proc_completed(&mut self, proc_name: &str) {
        let pt = self
            .current
            .take()
            .unwrap_or_else(|| ProcTrace::new(proc_name));
        self.bufs.push(pt.buf);
        self.metrics.inc("procs", 1);
    }

    fn wants_queries(&self) -> bool {
        true
    }

    fn wants_search(&self) -> bool {
        self.search_events
    }
}

/// The assembled outputs of a [`TelemetryObserver`].
#[derive(Debug)]
pub struct TelemetryOutput {
    /// The deterministic span tree.
    pub trace: Trace,
    /// The metrics registry.
    pub metrics: MetricsRegistry,
}

impl TelemetryOutput {
    /// The JSONL trace (header line, then spans with their events).
    pub fn trace_jsonl(&self, manifest: Option<&Manifest>) -> String {
        self.trace.to_jsonl(manifest)
    }

    /// The JSONL trace with render options (determinism tests zero the
    /// wall-times; golden tests also redact ids and counters).
    pub fn trace_jsonl_with(&self, manifest: Option<&Manifest>, opts: TraceRender) -> String {
        self.trace.to_jsonl_with(manifest, opts)
    }

    /// The schema-versioned metrics snapshot.
    pub fn metrics_json(&self, manifest: Option<&Manifest>) -> String {
        self.metrics.snapshot_json(manifest)
    }

    /// The Chrome/Perfetto `trace_events` JSON document.
    pub fn trace_perfetto(&self, manifest: Option<&Manifest>) -> String {
        self.trace.to_perfetto(manifest)
    }

    /// [`TelemetryOutput::trace_perfetto`] with render options.
    pub fn trace_perfetto_with(&self, manifest: Option<&Manifest>, opts: TraceRender) -> String {
        self.trace.to_perfetto_with(manifest, opts)
    }

    /// Writes the JSONL trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_trace(&self, path: &str, manifest: Option<&Manifest>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.trace_jsonl(manifest).as_bytes())
    }

    /// Writes the Perfetto trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_trace_perfetto(
        &self,
        path: &str,
        manifest: Option<&Manifest>,
    ) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.trace_perfetto(manifest).as_bytes())
    }

    /// Writes the metrics snapshot to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_metrics(&self, path: &str, manifest: Option<&Manifest>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        let mut s = self.metrics_json(manifest);
        s.push('\n');
        f.write_all(s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ProgramAnalysis;
    use acspec_ir::parse::parse_program;

    const TWO_PROCS: &str = "
        procedure f(x: int) { if (x == 0) { assert x != 0; } }
        procedure g(p: int) { assert p != 0; }";

    fn run_telemetry(threads: usize) -> TelemetryOutput {
        let prog = parse_program(TWO_PROCS).expect("parses");
        let mut obs = TelemetryObserver::new();
        let outcomes = ProgramAnalysis::new(&prog).threads(threads).run(&mut obs);
        assert!(outcomes.iter().all(|o| o.incident().is_none()));
        obs.finish()
    }

    #[test]
    fn span_tree_covers_procedures_configs_and_stages() {
        let out = run_telemetry(1);
        let procs: Vec<&str> = out
            .trace
            .spans_of("procedure")
            .filter_map(|s| Trace::str_attr(s, "proc"))
            .collect();
        assert_eq!(procs, vec!["f", "g"]);
        // Every (procedure, config, stage) combination that ran has a
        // stage span whose ancestry names it.
        let stages: Vec<_> = out.trace.spans_of("stage").collect();
        assert!(!stages.is_empty());
        for s in &stages {
            let chain = out.trace.ancestry(s.id);
            assert_eq!(chain.last().expect("root").kind, "program");
            assert_eq!(chain[1].kind, "config");
            assert_eq!(chain[2].kind, "procedure");
        }
        // Each procedure has both shared and per-config work.
        let labels: std::collections::BTreeSet<&str> = out
            .trace
            .spans_of("config")
            .filter_map(|s| Trace::str_attr(s, "label"))
            .collect();
        assert!(labels.contains("shared"), "{labels:?}");
        assert!(labels.contains("Conc"), "{labels:?}");
    }

    #[test]
    fn one_query_event_per_solver_check() {
        let out = run_telemetry(1);
        let events = out.trace.events.len();
        assert!(events > 0, "no solver_query events recorded");
        assert_eq!(out.metrics.counter("solver.queries"), events as u64);
        // Query totals agree with the stage tables' query counts.
        let stage_queries: u64 = out
            .trace
            .spans_of("stage")
            .map(|s| {
                s.attrs
                    .iter()
                    .find_map(|(k, v)| match v {
                        acspec_telemetry::Value::U64(n) if *k == "queries" => Some(*n),
                        _ => None,
                    })
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(stage_queries, events as u64);
        // Outcome counters partition the total.
        let by_outcome = out.metrics.counter("solver.sat")
            + out.metrics.counter("solver.unsat")
            + out.metrics.counter("solver.unknown");
        assert_eq!(by_outcome, events as u64);
    }

    #[test]
    fn search_mode_adds_cdcl_metrics_and_attrs() {
        let prog = parse_program(TWO_PROCS).expect("parses");
        let mut obs = TelemetryObserver::new().with_search_events(true);
        let outcomes = ProgramAnalysis::new(&prog).threads(1).run(&mut obs);
        assert!(outcomes.iter().all(|o| o.incident().is_none()));
        let out = obs.finish();
        // Trivial queries may produce zero conflicts, but the histograms
        // and the decision-level gauge must exist whenever search
        // summaries were recorded.
        let lbd = out.metrics.histogram("solver.lbd").expect("lbd histogram");
        let intervals = out
            .metrics
            .histogram("solver.conflicts_per_interval")
            .expect("interval histogram");
        assert_eq!(lbd.count(), out.metrics.counter("solver.learnt_clauses"));
        assert!(intervals.count() >= 1, "no search interval recorded");
        assert!(out.metrics.gauge("solver.max_decision_level") >= 0.0);
        // Every recorded solver_query event carries the CDCL attrs.
        assert!(!out.trace.events.is_empty());
        for e in &out.trace.events {
            assert!(
                e.attrs.iter().any(|(k, _)| *k == "restarts"),
                "missing restarts attr: {e:?}"
            );
            assert!(e.attrs.iter().any(|(k, _)| *k == "lbd_max"));
        }
        // Without the opt-in, none of this appears (byte-compat path).
        let plain = run_telemetry(1);
        assert!(plain.metrics.histogram("solver.lbd").is_none());
        assert_eq!(plain.metrics.counter("solver.restarts"), 0);
        assert!(plain
            .trace
            .events
            .iter()
            .all(|e| e.attrs.iter().all(|(k, _)| *k != "restarts")));
    }

    #[test]
    fn metrics_snapshot_has_stage_and_solver_families() {
        let out = run_telemetry(1);
        assert!(out.metrics.gauge("stage.total_seconds") > 0.0);
        assert_eq!(out.metrics.counter("procs"), 2);
        assert!(out.metrics.counter("stage.screen.queries") > 0);
        let hist = out
            .metrics
            .histogram("solver.query_seconds")
            .expect("latency histogram");
        assert_eq!(hist.count(), out.metrics.counter("solver.queries"));
        let json = out.metrics_json(None);
        assert!(json.starts_with("{\"schema\":1,"), "{json}");
    }
}
