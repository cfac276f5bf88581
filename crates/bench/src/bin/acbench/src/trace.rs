//! `--trace 1`: the per-layer breakdown of one workload's inputs.
//!
//! The traced run is in-process at one thread. Per input it times the
//! front end (`compile_c` or `parse_program`); per procedure it mirrors
//! `ProgramAnalysis::analyze_one` call for call (`procedure_fingerprint`,
//! `StoreSession::fetch`, `ProcSession::new`, `cons`, `run_config` per
//! configuration, `take_certs`, `proc_certs_json`, `StoreSession::put`);
//! then it renders the sidecar and the report exactly as the `acspec` CLI
//! does. Every call gets a span, timed from this file only: the program
//! carries no benchmark instrumentation. Each cycle runs the inputs cold
//! into an empty store, then warm from it, then `acspec check`s every
//! sidecar, so every layer is measured on every workload's inputs.
//!
//! The work is fixed, not timed: the first `SuiteSet::traced` units of a
//! suite set (their interleaved order makes them a proportional sample)
//! once, or the whole corpus [`CORPUS_CYCLES`] times. Counts then repeat
//! exactly and every time is a total over the same work, so two commits
//! compare layer by layer.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use acspec_core::persist::entry_key;
use acspec_core::{
    certs_json_from_fragments, options_digest, proc_certs_json, procedure_fingerprint,
    program_report_json_with, AcspecOptions, ConfigName, ProcAnalysis, ProcReport, ProcSession,
    SibStatus, StoreOutcome, StoreSession,
};
use acspec_corpus::Oracle;
use acspec_ir::desugar::{desugar_procedure, DesugarOptions};
use acspec_ir::Program;
use acspec_smt::SearchPool;
use acspec_telemetry::{SpanHandle, Trace, TraceBuf};
use acspec_vcgen::Stage;

use crate::child;
use crate::inputs::{self, Input};
use crate::stats;
use crate::verdict::{self, Digests};
use crate::workloads::{metric, reset_dir, Ctx, Metric, Outcome, Workload, CERTIFY, SUITE};

/// Cycles over the 12 corpus scenarios: about ten seconds of work on a
/// 2-vCPU VM.
const CORPUS_CYCLES: usize = 16;

/// The analysis request of `acspec F --all-configs --cons --certs-out C
/// --store-dir S`, as `ProgramAnalysis` receives it from the CLI.
pub struct Request {
    opts: AcspecOptions,
    configs: Vec<ConfigName>,
    options_digest: String,
}

impl Default for Request {
    fn default() -> Request {
        let opts = AcspecOptions::for_config(ConfigName::Conc);
        let configs = ConfigName::all().to_vec();
        let options_digest = options_digest(&opts, &configs, &[], true, true);
        Request {
            opts,
            configs,
            options_digest,
        }
    }
}

/// What one file produced: the two documents the CLI writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileOutput {
    /// The `--format json` report.
    pub report: String,
    /// The `--certs-out` sidecar.
    pub certs: String,
}

/// Counters read from the pipeline's own results while tracing.
#[derive(Debug, Default)]
struct Counts {
    queries: u64,
    query_s: f64,
    conflicts: u64,
    theory_conflicts: u64,
    decisions: u64,
    propagations: u64,
    stage_self_s: BTreeMap<&'static str, f64>,
    cache_hits: u64,
    cache_lookups: u64,
    evidence_s: f64,
    predicates: usize,
    cover_clauses: usize,
    fetches_warm: usize,
    hits_warm: usize,
    c_lines: usize,
    certs_bytes: usize,
    checked_certs: usize,
    check_peak_mb: f64,
}

/// Spans plus the per-kind seconds they add up to.
#[derive(Default)]
pub struct Tracer {
    buf: TraceBuf,
    seconds: BTreeMap<&'static str, f64>,
    counts: Counts,
}

impl Tracer {
    /// Runs `f` as a leaf span of `kind` under `parent`.
    fn span<T>(&mut self, parent: SpanHandle, kind: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let s = t0.elapsed().as_secs_f64();
        self.buf.push_span(Some(parent), kind, Vec::new(), s);
        *self.seconds.entry(kind).or_default() += s;
        out
    }

    fn secs(&self, kind: &str) -> f64 {
        self.seconds.get(kind).copied().unwrap_or(0.0)
    }

    /// Loads `input` the way the CLI does (front end plus sort check).
    fn front_end(
        &mut self,
        file: SpanHandle,
        input: &Input,
        cold: bool,
    ) -> Result<Program, String> {
        let program = if input.ext == "c" {
            self.counts.c_lines += input.source.lines().count();
            let program = self.span(file, "cfront.compile", || {
                let p = acspec_cfront::compile_c(&input.source).map_err(|e| e.to_string())?;
                acspec_ir::typecheck::check_program(&p).map_err(|e| e.to_string())?;
                Ok::<_, String>(p)
            })?;
            // The surface parser measured on the same program, printed:
            // C inputs never reach it otherwise.
            if cold {
                let text = program.to_string();
                self.span(file, "ir.parse", || acspec_ir::parse::parse_program(&text))
                    .map_err(|e| format!("printed program does not parse: {e}"))?;
            }
            program
        } else {
            self.span(file, "ir.parse", || {
                let p =
                    acspec_ir::parse::parse_program(&input.source).map_err(|e| e.to_string())?;
                acspec_ir::typecheck::check_program(&p).map_err(|e| e.to_string())?;
                Ok::<_, String>(p)
            })?
        };
        Ok(program)
    }

    /// One procedure, mirroring `ProgramAnalysis::analyze_one` with the
    /// store attached and certification on.
    fn procedure(
        &mut self,
        file: SpanHandle,
        req: &Request,
        store: &StoreSession,
        program: &Program,
        proc: &acspec_ir::Procedure,
        cold: bool,
    ) -> Result<ProcAnalysis, String> {
        let p = self.buf.begin(Some(file), "procedure");
        self.buf.attr(p, "proc", proc.name.as_str());
        if cold {
            self.span(p, "ir.desugar", || {
                desugar_procedure(program, proc, DesugarOptions::default())
            })
            .map_err(|e| e.to_string())?;
        }
        let key = self.span(p, "core.fingerprint", || {
            procedure_fingerprint(program, proc).map(|fp| entry_key(&fp, &req.options_digest))
        });
        let key = key.map_err(|e| e.to_string())?;
        let fetched = self.span(p, "store.fetch", || store.fetch(&key, &proc.name));
        if !cold {
            self.counts.fetches_warm += 1;
        }
        let pa = match fetched {
            StoreOutcome::Hit(pa) => {
                self.counts.hits_warm += usize::from(!cold);
                *pa
            }
            StoreOutcome::Miss => self.analyse(p, req, store, program, proc, &key)?,
            StoreOutcome::Corrupt(kind) => return Err(format!("store entry corrupt: {kind}")),
        };
        self.buf.end(p);
        Ok(pa)
    }

    /// The cold path of `analyze_one`.
    fn analyse(
        &mut self,
        p: SpanHandle,
        req: &Request,
        store: &StoreSession,
        program: &Program,
        proc: &acspec_ir::Procedure,
        key: &str,
    ) -> Result<ProcAnalysis, String> {
        let session = self.span(p, "core.session_new", || {
            ProcSession::new(program, proc, req.opts.analyzer)
        });
        let mut session = session.map_err(|e| e.to_string())?;
        session.set_pool(Arc::new(SearchPool::new(0)));
        session.set_query_recording(true);
        session.set_search_recording(false);
        session.enable_certs();
        let before = (self.secs("core.cons"), self.secs("core.run_config"));
        let cons = self.span(p, "core.cons", || session.cons());
        let reports: Vec<Vec<ProcReport>> = if cons.status == SibStatus::Correct {
            Vec::new()
        } else {
            req.configs
                .iter()
                .map(|&config| {
                    let mut opts = req.opts;
                    opts.config = config;
                    self.span(p, "core.run_config", || session.run_config(&opts, &[]))
                })
                .collect()
        };
        let session_s = self.secs("core.cons") + self.secs("core.run_config") - before.0 - before.1;
        let (antichains, certs) = self.span(p, "core.take_certs", || {
            (
                session.analyzer_mut().cache_snapshot(),
                session.take_certs(),
            )
        });
        let certs_fragment = self.span(p, "core.certs_render", || {
            certs.as_ref().map(proc_certs_json)
        });
        let pa = ProcAnalysis {
            proc_name: proc.name.clone(),
            cons,
            reports,
            events: session.take_events(),
            queries: session.take_query_events(),
            certs,
            from_store: false,
            incidents: Vec::new(),
            certs_fragment,
            antichains,
        };
        self.count(&pa, session_s);
        self.span(p, "store.put", || store.put(key, &pa));
        Ok(pa)
    }

    /// Folds one cold analysis into the counters.
    fn count(&mut self, pa: &ProcAnalysis, session_s: f64) {
        let c = &mut self.counts;
        let mut query_s_by_seq: BTreeMap<u32, f64> = BTreeMap::new();
        for q in &pa.queries {
            c.queries += 1;
            c.query_s += q.seconds;
            c.conflicts += q.counters.conflicts;
            c.theory_conflicts += q.counters.theory_conflicts;
            c.decisions += q.counters.decisions;
            c.propagations += q.counters.propagations;
            *query_s_by_seq.entry(q.stage_seq).or_default() += q.seconds;
        }
        let mut staged_s = 0.0;
        for e in &pa.events {
            c.cache_hits += e.cache.hits();
            c.cache_lookups += e.cache.hits() + e.cache.misses;
            if e.stage == Stage::Encode {
                continue;
            }
            staged_s += e.metrics.seconds;
            let solver_s = query_s_by_seq.get(&e.seq).copied().unwrap_or(0.0);
            *c.stage_self_s.entry(e.stage.name()).or_default() += e.metrics.seconds - solver_s;
        }
        // Certification replays outside the staged closures, so the time
        // the session calls took beyond their stages is the evidence cost.
        c.evidence_s += session_s - staged_s;
        for r in pa.reports.iter().flatten() {
            c.predicates += r.stats.n_predicates;
            c.cover_clauses += r.stats.n_cover_clauses;
        }
    }

    /// One input through the CLI's path; returns the report and sidecar.
    pub fn file(
        &mut self,
        req: &Request,
        store: &StoreSession,
        input: &Input,
        certs_path: &Path,
        cold: bool,
    ) -> Result<FileOutput, String> {
        let file = self.buf.begin(None, "file");
        self.buf.attr(file, "file", input.file_name());
        self.buf
            .attr(file, "pass", if cold { "cold" } else { "warm" });
        let program = self.front_end(file, input, cold)?;
        let mut analyses = Vec::new();
        for proc in program.procedures.iter().filter(|p| p.body.is_some()) {
            analyses.push(self.procedure(file, req, store, &program, proc, cold)?);
        }
        let certs_ref = certs_path.to_string_lossy().into_owned();
        let certs = self.span(file, "core.certs_render", || {
            let fragments: Vec<String> = analyses
                .iter_mut()
                .filter_map(|pa| pa.certs_fragment.take())
                .collect();
            let doc = certs_json_from_fragments(&fragments);
            std::fs::write(certs_path, &doc).map(|()| doc)
        });
        let certs = certs.map_err(|e| format!("cannot write {}: {e}", certs_path.display()))?;
        self.counts.certs_bytes += certs.len();
        let report = self.span(file, "core.report_render", || {
            let mut reports: Vec<&ProcReport> = Vec::new();
            for pa in analyses
                .iter()
                .filter(|pa| pa.cons.status != SibStatus::Correct)
            {
                reports.extend(pa.reports.iter().flatten());
                reports.push(&pa.cons);
            }
            program_report_json_with(&reports, &[], Some(&certs_ref))
        });
        self.buf.end(file);
        Ok(FileOutput { report, certs })
    }
}

/// How a traced run checks its cold reports.
enum Expect {
    Digests(Digests),
    Oracles(Vec<Oracle>),
}

fn total_size(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => total_size(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The number in `… N certificate(s) …` of `acspec check`'s summary.
fn certificate_count(stdout: &str) -> Option<usize> {
    let head = stdout.split(" certificate(s)").next()?;
    head.rsplit(' ').next()?.parse().ok()
}

/// Median wall of `acspec` on an empty C file: the process floor under
/// every latency.
fn spawn_floor(ctx: &Ctx) -> Result<f64, String> {
    let empty = ctx.work.join("empty.c");
    std::fs::write(&empty, "").map_err(|e| format!("cannot write {}: {e}", empty.display()))?;
    let path = empty.to_string_lossy().into_owned();
    let mut ms = Vec::new();
    for _ in 0..30 {
        let run = child::run(&ctx.acspec, &[&path])?;
        if !run.exited_with(&[0]) {
            return Err(format!("acspec on an empty file ended with {:?}", run.exit));
        }
        ms.push(run.wall_s * 1e3);
    }
    Ok(stats::median(&ms).expect("30 samples"))
}

/// The traced run over `workload`'s inputs.
///
/// # Errors
///
/// Returns a message when inputs cannot be prepared.
pub fn run(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    let (mut inputs, mut expect, cycles) = match workload {
        Workload::CorpusLatency => {
            let corpus = inputs::corpus(&ctx.root)?;
            let oracles = corpus
                .iter()
                .map(|(sc, _)| sc.load_expected())
                .collect::<Result<Vec<_>, _>>()?;
            let inputs: Vec<Input> = corpus.into_iter().map(|(_, i)| i).collect();
            (inputs, Expect::Oracles(oracles), CORPUS_CYCLES)
        }
        _ => {
            let set = if workload == Workload::CiCertify {
                CERTIFY
            } else {
                SUITE
            };
            let mut inputs = set.inputs(ctx.seed);
            inputs.truncate(set.traced);
            (inputs, Expect::Digests(set.digests(ctx.seed)), 1)
        }
    };
    inputs.truncate(ctx.max_files);
    reset_dir(&ctx.work)?;
    let spawn_ms = spawn_floor(ctx)?;
    let req = Request::default();
    let store_dir = ctx.work.join("store");
    let certs_dir = ctx.work.join("certs");
    let mut tracer = Tracer::default();
    let mut out = Outcome::default();
    let mut failures = Vec::new();
    let mut reports: Vec<(usize, String)> = Vec::new();
    let (mut check_s, mut write_bytes) = (0.0, 0u64);

    let t0 = Instant::now();
    for _ in 0..cycles {
        reset_dir(&store_dir).and_then(|()| reset_dir(&certs_dir))?;
        let store = StoreSession::open(&store_dir).map_err(|e| e.to_string())?;
        let mut done = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            let certs = certs_dir.join(format!("{}.json", input.file_name()));
            out.attempted += 1;
            match tracer.file(&req, &store, input, &certs, true) {
                Ok(o) => done.push((i, certs, o)),
                Err(e) => failures.push(format!("{} cold: {e}", input.file_name())),
            }
        }
        write_bytes += total_size(&store_dir);
        // A second handle, as a rerun of the CLI would open.
        let store = StoreSession::open(&store_dir).map_err(|e| e.to_string())?;
        for (i, certs, cold) in &done {
            out.attempted += 1;
            match tracer.file(&req, &store, &inputs[*i], certs, false) {
                Ok(warm) if warm == *cold => {}
                Ok(_) => failures.push(format!("{}: warm output differs", inputs[*i].file_name())),
                Err(e) => failures.push(format!("{} warm: {e}", inputs[*i].file_name())),
            }
        }
        let checks = tracer.buf.begin(None, "checks");
        for (i, certs, _) in &done {
            out.attempted += 1;
            let path = certs.to_string_lossy().into_owned();
            let run = tracer.span(checks, "check", || {
                child::run(&ctx.acspec, &["check", &path])
            })?;
            check_s += run.wall_s;
            tracer.counts.check_peak_mb = tracer.counts.check_peak_mb.max(run.peak_rss_mb);
            let text = String::from_utf8_lossy(&run.stdout);
            match certificate_count(&text) {
                Some(n) if run.exited_with(&[0]) => tracer.counts.checked_certs += n,
                _ => failures.push(format!("{}: acspec check failed", inputs[*i].file_name())),
            }
        }
        tracer.buf.end(checks);
        reports.extend(done.into_iter().map(|(i, _, o)| (i, o.report)));
    }
    let wall_s = t0.elapsed().as_secs_f64();

    // Verdicts are checked after the clock stops.
    for (i, report) in &reports {
        let name = inputs[*i].file_name();
        let ok = match (&mut expect, verdict::parse(report.as_bytes())) {
            (_, Err(e)) => Err(e),
            (Expect::Digests(d), Ok(doc)) => Ok(d.check(&name, &verdict::digest(&doc))),
            (Expect::Oracles(o), Ok(doc)) => Ok(o[*i].diff(&verdict::ladder(&doc)).is_empty()),
        };
        match ok {
            Ok(true) => {}
            Ok(false) => {
                out.mismatches += 1;
                failures.push(format!("{name}: verdicts differ from the expected ones"));
            }
            Err(e) => failures.push(format!("{name}: {e}")),
        }
    }
    // A traced run covers part of a suite set, so it never re-blesses the
    // digest tables.

    let attributed: f64 = tracer.seconds.values().sum();
    let unattributed = 1.0 - attributed / wall_s;
    if unattributed >= 0.05 {
        failures.push(format!("unattributed wall share {unattributed:.4} >= 0.05"));
    }
    let overhead_s = span_cost(tracer.buf.span_count());
    write_trace(ctx, workload, std::mem::take(&mut tracer.buf))?;
    for f in failures.iter().take(5) {
        eprintln!("FAIL {f}");
    }
    out.failed = failures.len();
    out.metrics = layer_metrics(
        &tracer,
        spawn_ms,
        check_s,
        write_bytes,
        wall_s,
        unattributed,
        overhead_s,
    );
    Ok(out)
}

/// What `n` spans cost to record: the tracer's own overhead.
fn span_cost(n: usize) -> f64 {
    let mut probe = Tracer::default();
    let root = probe.buf.begin(None, "probe");
    let t0 = Instant::now();
    for _ in 0..n {
        probe.span(root, "probe", || ());
    }
    t0.elapsed().as_secs_f64()
}

fn write_trace(ctx: &Ctx, workload: Workload, buf: TraceBuf) -> Result<(), String> {
    let trace = Trace::assemble(
        "acbench",
        vec![("workload", workload.name().into())],
        vec![buf],
    );
    let dir = ctx.work.parent().unwrap_or(&ctx.work);
    for (ext, text) in [
        ("jsonl", trace.to_jsonl(None)),
        ("perfetto.json", trace.to_perfetto(None)),
    ] {
        let path: PathBuf = dir.join(format!("trace-{}.{ext}", workload.name()));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn layer_metrics(
    t: &Tracer,
    spawn_ms: f64,
    check_s: f64,
    write_bytes: u64,
    wall_s: f64,
    unattributed: f64,
    overhead_s: f64,
) -> Vec<Metric> {
    let c = &t.counts;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let stage = |s: &str| c.stage_self_s.get(s).copied().unwrap_or(0.0);
    vec![
        metric("smt.check_s", c.query_s, "s"),
        metric("smt.queries", c.queries as f64, "count"),
        metric(
            "smt.us_per_query",
            ratio(c.query_s * 1e6, c.queries as f64),
            "us",
        ),
        metric("smt.conflicts", c.conflicts as f64, "count"),
        metric("smt.theory_conflicts", c.theory_conflicts as f64, "count"),
        metric("smt.decisions", c.decisions as f64, "count"),
        metric("smt.propagations", c.propagations as f64, "count"),
        metric("vcgen.screen_self_s", stage("screen"), "s"),
        metric("vcgen.mine_self_s", stage("mine"), "s"),
        metric("vcgen.cover_self_s", stage("cover"), "s"),
        metric("vcgen.search_self_s", stage("search"), "s"),
        metric("vcgen.evaluate_self_s", stage("evaluate"), "s"),
        metric(
            "vcgen.cache_hit_rate",
            ratio(c.cache_hits as f64, c.cache_lookups as f64),
            "ratio",
        ),
        metric("vcgen.evidence_s", c.evidence_s, "s"),
        metric("predabs.predicates", c.predicates as f64, "count"),
        metric("predabs.cover_clauses", c.cover_clauses as f64, "count"),
        metric("core.fingerprint_s", t.secs("core.fingerprint"), "s"),
        metric("core.session_new_s", t.secs("core.session_new"), "s"),
        metric("core.cons_s", t.secs("core.cons"), "s"),
        metric("core.run_config_s", t.secs("core.run_config"), "s"),
        metric("core.certs_render_s", t.secs("core.certs_render"), "s"),
        metric("core.certs_mb", c.certs_bytes as f64 / 1e6, "MB"),
        metric("core.report_render_s", t.secs("core.report_render"), "s"),
        metric("store.fetch_s", t.secs("store.fetch"), "s"),
        metric(
            "store.hit_rate",
            ratio(c.hits_warm as f64, c.fetches_warm as f64),
            "ratio",
        ),
        metric("store.put_s", t.secs("store.put"), "s"),
        metric("store.write_mb", write_bytes as f64 / 1e6, "MB"),
        metric("check.s", check_s, "s"),
        metric(
            "check.certs_per_s",
            ratio(c.checked_certs as f64, check_s),
            "1/s",
        ),
        metric("check.peak_rss_mb", c.check_peak_mb, "MB"),
        metric("cfront.compile_s", t.secs("cfront.compile"), "s"),
        metric(
            "cfront.kloc_per_s",
            ratio(c.c_lines as f64 / 1e3, t.secs("cfront.compile")),
            "kloc/s",
        ),
        metric("ir.parse_s", t.secs("ir.parse"), "s"),
        metric("ir.desugar_s", t.secs("ir.desugar"), "s"),
        metric("process.spawn_ms", spawn_ms, "ms"),
        metric("trace.wall_s", wall_s, "s"),
        metric("trace.unattributed_frac", unattributed, "ratio"),
        metric("trace.overhead_frac", overhead_s / wall_s, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use acspec_core::{NullObserver, ProcOutcome, ProgramAnalysis};

    /// Reports with their timing tables zeroed: the only part of a
    /// report that differs between two runs of the same analysis.
    fn untimed(mut r: ProcReport) -> ProcReport {
        r.stats.stages = Default::default();
        r
    }

    /// The CLI's report and sidecar for one program's analyses, with the
    /// reports' timing tables zeroed.
    fn render(analyses: Vec<ProcAnalysis>) -> (String, String) {
        let (mut reports, mut fragments) = (Vec::new(), Vec::new());
        for pa in analyses {
            fragments.extend(pa.certs_fragment);
            if pa.cons.status != SibStatus::Correct {
                reports.extend(pa.reports.into_iter().flatten().map(untimed));
                reports.push(untimed(pa.cons));
            }
        }
        let refs: Vec<&ProcReport> = reports.iter().collect();
        (
            program_report_json_with(&refs, &[], None),
            certs_json_from_fragments(&fragments),
        )
    }

    /// The mirror cannot drift from the orchestrator: on suite chunks
    /// and corpus scenarios of both front ends, the mirrored
    /// per-procedure sequence renders the same reports and certificates
    /// as `ProgramAnalysis::run` at one thread.
    #[test]
    fn mirror_matches_program_analysis() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..");
        let mut inputs = SUITE.inputs(0)[..3].to_vec();
        let corpus = inputs::corpus(&root).expect("corpus");
        inputs.extend(corpus.into_iter().map(|(_, i)| i).take(4));
        let exe = std::env::current_exe().expect("test executable");
        let dir = exe
            .with_file_name("acbench-tests")
            .join(format!("mirror-{}", std::process::id()));
        let req = Request::default();
        for input in &inputs {
            let program = if input.ext == "c" {
                acspec_cfront::compile_c(&input.source).expect("compiles")
            } else {
                acspec_ir::parse::parse_program(&input.source).expect("parses")
            };
            reset_dir(&dir).expect("scratch dir");
            let store = StoreSession::open(dir.join("mirror")).expect("store");
            let mut tracer = Tracer::default();
            let root = tracer.buf.begin(None, "file");
            let mirrored = program
                .procedures
                .iter()
                .filter(|p| p.body.is_some())
                .map(|p| tracer.procedure(root, &req, &store, &program, p, true))
                .collect::<Result<Vec<_>, _>>()
                .expect("mirror runs");

            let store = StoreSession::open(dir.join("orchestrated")).expect("store");
            let orchestrated = ProgramAnalysis::new(&program)
                .options(req.opts)
                .configs(&req.configs)
                .threads(1)
                .certify(true)
                .store(Some(&store))
                .run(&mut NullObserver)
                .into_iter()
                .map(|o| match o {
                    ProcOutcome::Analyzed(pa) => *pa,
                    ProcOutcome::Faulted(i) => panic!("{}: {i}", input.name),
                })
                .collect();
            assert_eq!(render(mirrored), render(orchestrated), "{}", input.name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_summary_counts_parse() {
        let line = "c.json: 3 procedure(s), 41 certificate(s) (30 sat, 11 unsat), 7 claim(s)";
        assert_eq!(certificate_count(line), Some(41));
        assert_eq!(certificate_count("garbage"), None);
    }
}
