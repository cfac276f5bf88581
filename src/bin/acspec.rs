//! `acspec` — command-line front end for the ACSpec analysis.
//!
//! ```text
//! acspec <file.c | file.acs> [options]
//! acspec check <report.json | certs.json>
//!
//!   --config <Conc|A0|A1|A2>   abstract configuration (default Conc)
//!   --prune <k>                k-clause pruning (default: off)
//!   --cons                     also show the conservative verifier's output
//!   --interproc                infer callee preconditions first (§7)
//!   --all-configs              analyze under all four configurations
//!   --specs                    print the almost-correct specifications
//!   --format <text|json>       output format (default text)
//!   --triage                   rank all warnings by confidence: runs the
//!                              Conc/A1/A2 ladder, prints text, and
//!                              rejects --config, --all-configs, --cons,
//!                              --specs and --format json
//!
//! run flags, shared with `repro` (`acspec_core::RunConfig`):
//!   --trace-out <path>         write a JSONL span trace of the run
//!   --metrics-out <path>       write a JSON metrics snapshot
//!   --certs-out <path>         write a certificate sidecar; the report
//!                              gains a `certs_ref` pointing at it
//!   --no-query-cache           disable the monotone query cache
//!   --deadline <secs>          wall-clock deadline per procedure+config
//!   --chaos-seed <u64>         deterministic fault-injection seed
//!   --chaos-rate <p>           fault probability per solver query (0..1)
//!   --store-dir <path>         persistent result store: unchanged
//!                              procedures are re-emitted byte-identically
//!                              with zero solver queries (corrupt entries
//!                              are quarantined and recomputed)
//! ```
//!
//! `.c` inputs go through the HAVOC-style front end (null-dereference
//! assertions are inserted automatically); anything else is parsed as
//! the Boogie-like surface language.
//!
//! `acspec check` takes a `--format json` report (following its
//! `certs_ref` to the sidecar) or a sidecar itself and re-validates every
//! certificate with the independent `acspec-check` crate: models are
//! re-evaluated, refutations replayed, claims and weakening chains
//! re-tied to their evidence. Exit code 0 means every certificate
//! checked; 1 means at least one failure (each is printed).

use std::process::ExitCode;

use acspec_core::{
    certs_json_from_fragments, infer_preconditions, program_report_json_with, rank, AcspecOptions,
    AnalysisOutcome, ConfigName, NullObserver, ProcOutcome, ProcReport, ProgramAnalysis, RunConfig,
    SessionObserver, SibStatus, StoreSession, TelemetryObserver,
};
use acspec_ir::Program;
use acspec_telemetry::{opt, Manifest};
use acspec_vcgen::chaos::silence_injected_panics;

const USAGE: &str = "usage: acspec <file.c | file.acs> [--config Conc|A0|A1|A2] [--prune k] \
[--cons] [--interproc] [--all-configs] [--specs] [--triage] [--format text|json] \
[--trace-out path] [--metrics-out path] [--certs-out path] [--no-query-cache] \
[--deadline secs] [--chaos-seed n] [--chaos-rate p] [--store-dir path]\n\
usage: acspec check <report.json | certs.json>";

struct Cli {
    path: String,
    config: Option<ConfigName>,
    prune: Option<usize>,
    cons: bool,
    interproc: bool,
    all_configs: bool,
    show_specs: bool,
    json: bool,
    triage: bool,
    run: RunConfig,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        path: String::new(),
        config: None,
        prune: None,
        cons: false,
        interproc: false,
        all_configs: false,
        show_specs: false,
        json: false,
        triage: false,
        run: RunConfig::default(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if let Some(taken) = cli.run.parse_flag(&args[i..])? {
            i += taken;
            continue;
        }
        match args[i].as_str() {
            "--config" => {
                let v = args.get(i + 1).ok_or("--config needs a value")?;
                cli.config = Some(match v.as_str() {
                    "Conc" | "conc" => ConfigName::Conc,
                    "A0" | "a0" => ConfigName::A0,
                    "A1" | "a1" => ConfigName::A1,
                    "A2" | "a2" => ConfigName::A2,
                    other => return Err(format!("unknown config `{other}`")),
                });
                i += 2;
            }
            "--prune" => {
                let v = args.get(i + 1).ok_or("--prune needs a value")?;
                cli.prune = Some(v.parse().map_err(|_| "--prune needs an integer")?);
                i += 2;
            }
            "--cons" => {
                cli.cons = true;
                i += 1;
            }
            "--interproc" => {
                cli.interproc = true;
                i += 1;
            }
            "--all-configs" => {
                cli.all_configs = true;
                i += 1;
            }
            "--specs" => {
                cli.show_specs = true;
                i += 1;
            }
            "--triage" => {
                cli.triage = true;
                i += 1;
            }
            "--format" => {
                let v = args.get(i + 1).ok_or("--format needs a value")?;
                cli.json = match v.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format `{other}`")),
                };
                i += 2;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if cli.path.is_empty() && !other.starts_with('-') => {
                cli.path = other.to_string();
                i += 1;
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if cli.path.is_empty() {
        return Err("no input file".into());
    }
    if cli.triage {
        let rejected = [
            (cli.config.is_some(), "--config"),
            (cli.all_configs, "--all-configs"),
            (cli.cons, "--cons"),
            (cli.show_specs, "--specs"),
            (cli.json, "--format json"),
        ];
        if let Some((_, flag)) = rejected.iter().find(|(given, _)| *given) {
            return Err(format!(
                "--triage ranks the Conc/A1/A2 ladder as text; it does not take {flag}"
            ));
        }
    }
    Ok(cli)
}

/// Loads and checks an input file. Every failure is a `file:line:
/// message` (or `file: message` when no line applies) diagnostic, never
/// a panic — the CLI turns them into exit code 2.
fn load_program(path: &str) -> Result<Program, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let program = if path.ends_with(".c") {
        acspec_cfront::compile_c(&source).map_err(|e| match e {
            acspec_cfront::CompileError::Parse(p) => {
                format!("{path}:{}:{}: {}", p.line, p.col, p.msg)
            }
            acspec_cfront::CompileError::Lower(l) => format!("{path}:{}: {}", l.line, l.msg),
        })?
    } else {
        acspec_ir::parse::parse_program(&source)
            .map_err(|e| format!("{path}:{}:{}: {}", e.line, e.col, e.msg))?
    };
    acspec_ir::typecheck::check_program(&program).map_err(|e| format!("{path}: {e}"))?;
    Ok(program)
}

fn print_report(r: &ProcReport, show_specs: bool) {
    let verdict = match r.outcome {
        AnalysisOutcome::Ok => r.status.to_string(),
        AnalysisOutcome::TimedOut => "TIMEOUT".to_string(),
        AnalysisOutcome::Degraded { fallback, .. } => format!("DEGRADED({fallback})"),
    };
    println!(
        "  [{}] {:<8} |Q|={:<3} warnings={}",
        r.config,
        verdict,
        r.stats.n_predicates,
        r.warnings.len()
    );
    if show_specs {
        for spec in &r.specs {
            println!("      spec: {spec}");
        }
    }
    for w in &r.warnings {
        println!("      warning {}: {}", w.assert, w.tag);
        if let Some(witness) = &w.witness {
            println!("        witness: {witness}");
        }
    }
}

/// `acspec check <path>`: re-validates a certificate sidecar, or a
/// `--format json` report by following its `certs_ref` (resolved
/// relative to the report's directory). Returns `Ok(true)` — exit
/// code 1 — when any certificate fails.
fn run_check(args: &[String]) -> Result<bool, String> {
    let path = match args {
        [p] if !p.starts_with('-') => p.as_str(),
        _ => return Err("usage: acspec check <report.json | certs.json>".into()),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let top = acspec_check::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let (certs_path, summary) = if top.get("procs").is_some() {
        (path.to_string(), acspec_check::check_value(&top))
    } else if top.get("reports").is_some() {
        let r = top.get("certs_ref").and_then(|v| v.str()).ok_or_else(|| {
            format!("{path}: report has no `certs_ref`; re-run the analysis with --certs-out")
        })?;
        let resolved = std::path::Path::new(path)
            .parent()
            .map_or_else(|| std::path::PathBuf::from(r), |d| d.join(r));
        let resolved = resolved.to_string_lossy().into_owned();
        let t = std::fs::read_to_string(&resolved)
            .map_err(|e| format!("{resolved}: cannot read certs_ref target: {e}"))?;
        let summary = acspec_check::check_document(&t);
        (resolved, summary)
    } else {
        return Err(format!(
            "{path}: neither a certificate document (`procs`) nor a report (`reports`)"
        ));
    };
    println!(
        "{certs_path}: {} procedure(s), {} certificate(s) ({} sat, {} unsat), \
         {} claim(s), {} chain(s)",
        summary.procs,
        summary.certs,
        summary.sat_certs,
        summary.unsat_certs,
        summary.claims,
        summary.chains
    );
    if summary.ok() {
        println!("all certificates check");
        Ok(false)
    } else {
        for e in &summary.errors {
            eprintln!("FAIL: {e}");
        }
        eprintln!("{} failure(s)", summary.errors.len());
        Ok(true)
    }
}

fn run() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("check") {
        return run_check(&raw[1..]);
    }
    let cli = parse_args()?;
    let mut program = load_program(&cli.path)?;

    let mut opts = AcspecOptions::for_config(cli.config.unwrap_or(ConfigName::Conc));
    if let Some(k) = cli.prune {
        opts = opts.with_k_pruning(k);
    }
    cli.run.apply(&mut opts.analyzer);
    if opts.analyzer.chaos.is_some() {
        silence_injected_panics();
    }

    let mut incidents = Vec::new();
    if cli.interproc {
        let inferred = infer_preconditions(&program, &opts);
        for (name, spec) in &inferred.inferred {
            println!("inferred precondition for `{name}`: requires {spec};");
        }
        program = inferred.program;
        if !inferred.inferred.is_empty() {
            println!();
        }
        incidents = inferred.incidents;
    }

    let configs: Vec<ConfigName> = if cli.triage {
        ConfigName::LADDER.to_vec()
    } else if cli.all_configs {
        ConfigName::all().to_vec()
    } else {
        vec![opts.config]
    };

    // One session per procedure: the encode and the demonic screen are
    // shared between the Cons baseline and every requested configuration.
    // Telemetry recording costs a per-query hook, so the observer is a
    // no-op unless a sink was requested.
    let telemetry_on = cli.run.trace_out.is_some() || cli.run.metrics_out.is_some();
    let mut null = NullObserver;
    let mut telemetry = TelemetryObserver::new();
    let observer: &mut dyn SessionObserver = if telemetry_on {
        &mut telemetry
    } else {
        &mut null
    };
    // The persistent store is opt-in (`--store-dir`) and disabled under a
    // deadline (wall-clock timeouts make cached reports nondeterministic,
    // so ProgramAnalysis refuses the key anyway). When solver chaos is on,
    // the same seed and rate drive store-level I/O faults.
    let store = match &cli.run.store_dir {
        Some(dir) => Some(
            StoreSession::open_with_chaos(std::path::Path::new(dir), opts.analyzer.chaos)
                .map_err(|e| format!("cannot open store {dir}: {e}"))?,
        ),
        None => None,
    };
    let mut results = ProgramAnalysis::new(&program)
        .options(opts)
        .configs(&configs)
        .certify(cli.run.certs_out.is_some())
        .store(store.as_ref())
        .run(observer);

    // Drain the pre-rendered certificate fragments before the report loop
    // takes shared references into `results`. Fragments (rather than live
    // `ProcCerts`) keep warm store hits byte-identical to cold runs.
    let mut cert_fragments: Vec<String> = Vec::new();
    for outcome in &mut results {
        if let ProcOutcome::Analyzed(pa) = outcome {
            pa.certs.take();
            if let Some(fragment) = pa.certs_fragment.take() {
                cert_fragments.push(fragment);
            }
        }
    }
    if let Some(path) = &cli.run.certs_out {
        std::fs::write(path, certs_json_from_fragments(&cert_fragments))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    if telemetry_on {
        let mut options = vec![
            opt("prune", cli.prune.map_or("off".into(), |k| k.to_string())),
            opt("interproc", cli.interproc),
        ];
        options.extend(cli.run.manifest_options());
        if let Some(store) = &store {
            telemetry.record_store(&store.stats());
        }
        let manifest = Manifest {
            tool: "acspec".into(),
            command: cli.path.clone(),
            scale: None,
            threads: None,
            configs: configs.iter().map(|c| c.to_string()).collect(),
            options,
        };
        let out = telemetry.finish();
        if let Some(path) = &cli.run.trace_out {
            out.write_trace(path, Some(&manifest))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &cli.run.metrics_out {
            out.write_metrics(path, Some(&manifest))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }

    // Incidents come first, in procedure order: precondition inference's,
    // then each procedure's fault or the store-corruption records riding
    // on an otherwise healthy analysis.
    for outcome in &results {
        match outcome {
            ProcOutcome::Faulted(incident) => incidents.push(incident.clone()),
            ProcOutcome::Analyzed(pa) => incidents.extend(pa.incidents.iter().cloned()),
        }
    }
    if !cli.json {
        for incident in &incidents {
            println!("procedure {}:", incident.proc_name);
            println!("  incident: {incident}");
            println!();
        }
    }

    if cli.triage {
        let ranked = rank(&results);
        if ranked.is_empty() {
            let faulted = results.iter().filter(|o| o.incident().is_some()).count();
            if faulted == 0 {
                println!("no warnings: every unproven obligation was suppressed");
            } else {
                println!("no warnings ranked: {faulted} procedure(s) faulted (incidents above)");
            }
            return Ok(false);
        }
        println!("{} warning(s), highest confidence first:\n", ranked.len());
        for r in &ranked {
            println!(
                "[{}] {} :: {} ({})",
                r.confidence, r.proc_name, r.warning.assert, r.warning.tag
            );
            if let Some(w) = &r.warning.witness {
                println!("    witness: {w}");
            }
            if let Some(spec) = &r.spec {
                println!("    almost-correct spec: {spec}");
            }
        }
        return Ok(true);
    }

    let mut any_warning = false;
    let mut json_reports: Vec<&ProcReport> = Vec::new();
    for pa in results.iter().filter_map(ProcOutcome::analysis) {
        if pa.cons.status == SibStatus::Correct {
            continue;
        }
        if !cli.json {
            println!("procedure {}:", pa.proc_name);
        }
        for r in pa.reports.iter().flatten() {
            any_warning |= !r.warnings.is_empty();
            if cli.json {
                json_reports.push(r);
            } else {
                print_report(r, cli.show_specs);
            }
        }
        if cli.cons {
            if cli.json {
                json_reports.push(&pa.cons);
            } else {
                println!("  [Cons] {} warnings", pa.cons.warnings.len());
                for w in &pa.cons.warnings {
                    println!("      warning {}: {}", w.assert, w.tag);
                }
            }
        }
        if !cli.json {
            println!();
        }
    }
    if cli.json {
        println!(
            "{}",
            program_report_json_with(&json_reports, &incidents, cli.run.certs_out.as_deref())
        );
    }
    Ok(any_warning)
}

fn main() -> ExitCode {
    match run() {
        Ok(any_warning) => {
            if any_warning {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
