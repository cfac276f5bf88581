//! `repro` — regenerates every table and figure of the paper's
//! evaluation (§5) on the generated benchmark suite.
//!
//! ```text
//! repro fig5  [--scale N]     benchmark statistics        (Figure 5)
//! repro fig6  [--scale N]     warning reduction table     (Figure 6)
//! repro fig7  [--scale N]     C/FP/FN classification      (Figure 7)
//! repro fig8  [--scale N]     large-benchmark warnings    (Figure 8)
//! repro fig9  [--scale N]     per-procedure averages      (Figure 9)
//! repro profile [--scale N] [--top K] [--sort KEY]
//!                             top-K slowest procedures and solver
//!                             queries, with stage/config attribution;
//!                             --sort picks the ranking key (wall,
//!                             queries, conflicts)
//! repro trace-diff <a> <b>    align two --trace-out JSONL traces by
//!                             span path; report per-stage deltas and
//!                             the first query-plan divergence
//! repro corpus <action> [--scenario NAME] [--corpus-dir DIR]
//!             [--report path] [--store-dir DIR]
//!             [--store-chaos-seed u64] [--store-chaos-rate p]
//!                             scenario corpus harness; actions:
//!                               list   registered scenarios + budgets
//!                               run    full differential matrix vs the
//!                                      blessed oracles (UPDATE_GOLDEN=1
//!                                      re-blesses instead); --store-dir
//!                                      attaches the persistent result
//!                                      store to the base leg (a second
//!                                      run replays it warm with zero
//!                                      solver queries)
//!                               bless  rewrite expected.json (and a
//!                                      first budget.json if missing)
//!                               diff   base-leg fingerprints vs the
//!                                      blessed oracle, no budget gate
//! repro store <action> --store-dir DIR
//!                             persistent result store maintenance:
//!                               stat    entry/byte/quarantine counts
//!                               gc      sweep quarantine + orphaned tmp
//!                               verify  decode every entry and re-check
//!                                       its stored certificates with
//!                                       the independent checker
//! repro ablation-incremental  incremental vs. fresh-solver queries
//! repro ablation-normalize    Normalize on/off
//! repro ablation-interproc    inferred callee preconditions (§7)
//! repro all   [--scale N]     everything above
//!
//!   --trace-format <fmt>      trace format: jsonl (default) or
//!                             perfetto (chrome://tracing / Perfetto UI)
//!   --threads <N>             worker threads for the evaluation
//!                             (default: available parallelism; results
//!                             are deterministic either way)
//!
//! run flags, shared with `acspec` (`acspec_core::RunConfig`):
//!   --trace-out <path>        write a span trace of the run
//!   --metrics-out <path>      write a JSON metrics snapshot
//!   --certs-out <path>        write the per-verdict certificate sidecar
//!                             (re-validate with `acspec check <path>`)
//!   --no-query-cache          disable the monotone query cache
//!   --deadline <secs>         wall-clock deadline per procedure+config
//!   --chaos-seed <u64>        deterministic fault-injection seed
//!   --chaos-rate <p>          fault probability per solver query (0..1)
//!   --store-dir <DIR>         persistent result store (`corpus`, `store`)
//! ```
//!
//! `--scale N` divides every benchmark's procedure count by `N`
//! (default 1 = full size). All generation is seeded; output is
//! deterministic up to wall-clock columns. Unknown flags, flags a
//! command does not accept, and extra positional arguments are
//! rejected with the usage text (exit code 2).

use std::time::Instant;

use acspec_bench::{
    classify, evaluate_with, format_table, normalize_ablation, BenchEval, EvalOptions, PRUNE_LEVELS,
};
use acspec_benchgen::suite::{generate_entry, SuiteEntry, SuiteKind, SUITE};
use acspec_benchgen::Benchmark;
use acspec_check::check_document;
use acspec_core::{
    analyze_procedure, certs_json, certs_json_from_fragments, decode_analysis, AcspecOptions,
    ConfigName, NullObserver, ProcCerts, RunConfig, SessionObserver, StageTotals, StoreSession,
    TeeObserver, TelemetryObserver, TelemetryOutput,
};
use acspec_ir::{desugar_procedure, DesugarOptions};
use acspec_store::{LoadResult, ResultStore};
use acspec_telemetry::json::write_str;
use acspec_telemetry::{opt, Manifest, Trace, Value};
use acspec_vcgen::analyzer::{AnalyzerConfig, ProcAnalyzer};
use acspec_vcgen::chaos::{silence_injected_panics, ChaosConfig};
use acspec_vcgen::stage::Stage;

const USAGE: &str = "usage: repro <fig5|fig6|fig7|fig8|fig9|profile|trace-diff|corpus|store|\
ablation-incremental|ablation-normalize|ablation-interproc|all> [--scale N] [--top K] \
[--sort wall|queries|conflicts] \
[--trace-out path] [--trace-format jsonl|perfetto] [--metrics-out path] \
[--certs-out path] [--no-query-cache] [--threads N] [--deadline secs] \
[--chaos-seed u64] [--chaos-rate p]\n\
       repro corpus <list|run|bless|diff> [--scenario NAME] [--corpus-dir DIR] [--report path] \
[--store-dir DIR] [--store-chaos-seed u64] [--store-chaos-rate p]\n\
       repro store <stat|gc|verify> --store-dir DIR";

const COMMANDS: &[&str] = &[
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "profile",
    "trace-diff",
    "corpus",
    "store",
    "ablation-incremental",
    "ablation-normalize",
    "ablation-interproc",
    "all",
];

const CORPUS_ACTIONS: &[&str] = &["list", "run", "bless", "diff"];

const STORE_ACTIONS: &[&str] = &["stat", "gc", "verify"];

/// Which flags each command accepts. A flag outside its command's row
/// is a usage error — `repro corpus --scale 4` or `repro fig5
/// --top 3` must fail loudly instead of silently ignoring the knob. Of
/// the run flags, figure evaluations take the analyzer knobs and the
/// sinks; only `corpus` and `store` take `--store-dir`.
fn allowed_flags(cmd: &str) -> Vec<&'static str> {
    let mut allowed: Vec<&'static str> = Vec::new();
    match cmd {
        "fig5" => allowed.push("--scale"),
        "fig6" | "fig7" | "fig8" | "fig9" | "all" => {
            allowed.extend(["--scale", "--threads", "--trace-format"]);
            allowed.extend(RunConfig::KNOB_FLAGS);
            allowed.extend(RunConfig::SINK_FLAGS);
        }
        "profile" => {
            allowed.extend(["--scale", "--top", "--sort"]);
            allowed.extend(["--threads", "--trace-format"]);
            allowed.extend(RunConfig::KNOB_FLAGS);
            allowed.extend(RunConfig::SINK_FLAGS);
        }
        "trace-diff" => allowed.push("--top"),
        "corpus" => allowed.extend([
            "--scenario",
            "--corpus-dir",
            "--report",
            "--store-dir",
            "--store-chaos-seed",
            "--store-chaos-rate",
        ]),
        "store" => allowed.push("--store-dir"),
        "ablation-incremental" => allowed.extend(["--scale", "--no-query-cache"]),
        "ablation-normalize" | "ablation-interproc" => allowed.push("--scale"),
        _ => unreachable!("parse_args validated the command"),
    }
    allowed
}

/// `--trace-format`: how `--trace-out` is rendered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Jsonl,
    Perfetto,
}

/// `--sort`: the ranking key for `repro profile`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ProfileSort {
    Wall,
    Queries,
    Conflicts,
}

struct Cli {
    cmd: String,
    scale: usize,
    top: usize,
    sort: ProfileSort,
    trace_format: TraceFormat,
    threads: Option<usize>,
    /// The run flags shared with `acspec`.
    run: RunConfig,
    /// Positional file arguments (only `trace-diff` takes any).
    files: Vec<String>,
    /// `corpus` action: list, run, bless, or diff.
    corpus_action: Option<String>,
    /// `--scenario`: restrict `corpus` to one scenario by name.
    scenario: Option<String>,
    /// `--corpus-dir`: override the corpus root directory.
    corpus_dir: Option<String>,
    /// `--report`: write a JSON per-scenario report (`corpus run`).
    report: Option<String>,
    /// `store` action: stat, gc, or verify.
    store_action: Option<String>,
    /// `--store-chaos-seed`: deterministic store I/O fault seed.
    store_chaos_seed: Option<u64>,
    /// `--store-chaos-rate`: store I/O fault probability (0..=1).
    store_chaos_rate: Option<f64>,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        cmd: String::new(),
        scale: 1,
        top: 10,
        sort: ProfileSort::Wall,
        trace_format: TraceFormat::Jsonl,
        threads: None,
        run: RunConfig::default(),
        files: Vec::new(),
        corpus_action: None,
        scenario: None,
        corpus_dir: None,
        report: None,
        store_action: None,
        store_chaos_seed: None,
        store_chaos_rate: None,
    };
    // Every flag consumed, in order; validated against the command's
    // whitelist once the command is known (flags may precede it).
    // Unknown flags never get that far.
    let mut seen_flags: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with('-') {
            seen_flags.push(&args[i]);
        }
        match cli.run.parse_flag(&args[i..]) {
            Ok(Some(taken)) => {
                i += taken;
                continue;
            }
            Ok(None) => {}
            Err(msg) => usage_error(&msg),
        }
        match args[i].as_str() {
            "--scale" => {
                cli.scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--scale needs a positive integer"));
                i += 2;
            }
            "--top" => {
                cli.top = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--top needs a positive integer"));
                i += 2;
            }
            "--sort" => {
                cli.sort = match args.get(i + 1).map(String::as_str) {
                    Some("wall") => ProfileSort::Wall,
                    Some("queries") => ProfileSort::Queries,
                    Some("conflicts") => ProfileSort::Conflicts,
                    _ => usage_error("--sort needs one of: wall, queries, conflicts"),
                };
                i += 2;
            }
            "--trace-format" => {
                cli.trace_format = match args.get(i + 1).map(String::as_str) {
                    Some("jsonl") => TraceFormat::Jsonl,
                    Some("perfetto") => TraceFormat::Perfetto,
                    _ => usage_error("--trace-format needs one of: jsonl, perfetto"),
                };
                i += 2;
            }
            "--threads" => {
                cli.threads = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage_error("--threads needs a positive integer")),
                );
                i += 2;
            }
            "--scenario" => {
                cli.scenario = Some(
                    args.get(i + 1)
                        .unwrap_or_else(|| usage_error("--scenario needs a scenario name"))
                        .clone(),
                );
                i += 2;
            }
            "--corpus-dir" => {
                cli.corpus_dir = Some(
                    args.get(i + 1)
                        .unwrap_or_else(|| usage_error("--corpus-dir needs a directory"))
                        .clone(),
                );
                i += 2;
            }
            "--report" => {
                cli.report = Some(
                    args.get(i + 1)
                        .unwrap_or_else(|| usage_error("--report needs a path"))
                        .clone(),
                );
                i += 2;
            }
            "--store-chaos-seed" => {
                cli.store_chaos_seed = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| {
                            usage_error("--store-chaos-seed needs an unsigned integer")
                        }),
                );
                i += 2;
            }
            "--store-chaos-rate" => {
                cli.store_chaos_rate = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse::<f64>().ok())
                        .filter(|rate| (0.0..=1.0).contains(rate))
                        .unwrap_or_else(|| {
                            usage_error("--store-chaos-rate needs a probability in 0..=1")
                        }),
                );
                i += 2;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => {
                usage_error(&format!("unknown flag `{flag}`"));
            }
            word if cli.cmd.is_empty() => {
                if !COMMANDS.contains(&word) {
                    usage_error(&format!("unknown command `{word}`"));
                }
                cli.cmd = word.to_string();
                i += 1;
            }
            action if cli.cmd == "corpus" && cli.corpus_action.is_none() => {
                if !CORPUS_ACTIONS.contains(&action) {
                    usage_error(&format!(
                        "unknown corpus action `{action}` (expected one of: list, run, bless, diff)"
                    ));
                }
                cli.corpus_action = Some(action.to_string());
                i += 1;
            }
            action if cli.cmd == "store" && cli.store_action.is_none() => {
                if !STORE_ACTIONS.contains(&action) {
                    usage_error(&format!(
                        "unknown store action `{action}` (expected one of: stat, gc, verify)"
                    ));
                }
                cli.store_action = Some(action.to_string());
                i += 1;
            }
            file if cli.cmd == "trace-diff" && cli.files.len() < 2 => {
                cli.files.push(file.to_string());
                i += 1;
            }
            extra => {
                usage_error(&format!("unexpected argument `{extra}`"));
            }
        }
    }
    if cli.cmd.is_empty() {
        cli.cmd = "all".to_string();
    }
    if cli.cmd == "trace-diff" && cli.files.len() != 2 {
        usage_error("trace-diff needs exactly two trace files: repro trace-diff <a> <b>");
    }
    if cli.cmd == "corpus" && cli.corpus_action.is_none() {
        usage_error("corpus needs an action: repro corpus <list|run|bless|diff>");
    }
    if cli.cmd == "store" {
        if cli.store_action.is_none() {
            usage_error("store needs an action: repro store <stat|gc|verify>");
        }
        if cli.run.store_dir.is_none() {
            usage_error("store needs --store-dir <DIR>");
        }
    }
    let allowed = allowed_flags(&cli.cmd);
    for flag in seen_flags {
        if !allowed.contains(&flag) {
            usage_error(&format!("`{flag}` is not valid for `repro {}`", cli.cmd));
        }
    }
    cli
}

fn main() {
    let t0 = Instant::now();
    let cli = parse_args();
    if cli.cmd == "trace-diff" {
        trace_diff(&cli);
        return;
    }
    if cli.cmd == "corpus" {
        corpus_cmd(&cli);
        return;
    }
    if cli.cmd == "store" {
        store_cmd(&cli);
        return;
    }
    let mut opts = EvalOptions {
        certify: cli.run.certs_out.is_some(),
        ..EvalOptions::default()
    };
    cli.run.apply(&mut opts.analyzer);
    if let Some(threads) = cli.threads {
        opts.threads = threads;
    }
    if opts.analyzer.chaos.is_some() {
        silence_injected_panics();
    }
    let telemetry_on = cli.run.trace_out.is_some() || cli.run.metrics_out.is_some();
    let needs_trace = telemetry_on || cli.cmd == "profile";
    // CDCL search summaries ride along whenever a trace or metrics sink
    // was requested; a bare `profile` keeps the solver uninstrumented.
    let mut telemetry = TelemetryObserver::new().with_search_events(telemetry_on);
    let mut null = NullObserver;
    let observer: &mut dyn SessionObserver = if needs_trace {
        &mut telemetry
    } else {
        &mut null
    };
    let scale = cli.scale;
    // Certificate sink: every figure evaluation appends its procedures'
    // stores here; one schema-versioned sidecar is written at the end.
    let mut certs: Vec<ProcCerts> = Vec::new();
    match cli.cmd.as_str() {
        "fig5" => fig5(scale),
        "fig6" => fig6(scale, observer, &opts, &mut certs),
        "fig7" => fig7(scale, observer, &opts, &mut certs),
        "fig8" => fig8(scale, observer, &opts, &mut certs),
        "fig9" => fig9(scale, observer, &opts, &mut certs),
        "profile" => {} // runs below, after the observer is finished
        "ablation-incremental" => ablation_incremental(scale, cli.run.query_cache),
        "ablation-normalize" => ablation_normalize(scale),
        "ablation-interproc" => ablation_interproc(scale),
        "all" => {
            fig5(scale);
            fig6(scale, observer, &opts, &mut certs);
            fig7(scale, observer, &opts, &mut certs);
            fig8(scale, observer, &opts, &mut certs);
            fig9(scale, observer, &opts, &mut certs);
            ablation_incremental(scale, cli.run.query_cache);
            ablation_normalize(scale);
            ablation_interproc(scale);
        }
        _ => unreachable!("parse_args validated the command"),
    }
    if cli.cmd == "profile" {
        fig9_workload(scale, &mut telemetry, &opts);
    }
    if let Some(path) = &cli.run.certs_out {
        std::fs::write(path, certs_json(&certs))
            .unwrap_or_else(|e| usage_error(&format!("cannot write {path}: {e}")));
        let n_certs: usize = certs.iter().map(|p| p.store.certs.len()).sum();
        println!(
            "(wrote {n_certs} certificate(s) for {} procedure(s) to {path})",
            certs.len()
        );
    }
    if needs_trace {
        let mut out = telemetry.finish();
        // Stamp the whole process's wall clock and peak RSS into the
        // snapshot, so every metrics sink answers "how much did this
        // run cost" without a wrapper script.
        out.metrics
            .record_process_gauges(t0.elapsed().as_secs_f64());
        if cli.cmd == "profile" {
            profile(&out, cli.top, cli.sort);
        }
        write_sinks(&cli, &opts, &out);
    }
}

/// One line after a figure when procedures faulted (injected or real):
/// silent truncation of a table would read as "no warnings" instead of
/// "this procedure crashed and was isolated".
fn report_incidents(evals: &[(Benchmark, BenchEval)]) {
    let total: usize = evals.iter().map(|(_, ev)| ev.incidents.len()).sum();
    if total > 0 {
        println!("({total} procedure(s) faulted and were isolated; counted out of the table)\n");
    }
}

fn write_sinks(cli: &Cli, opts: &EvalOptions, out: &TelemetryOutput) {
    if !(cli.run.trace_out.is_some() || cli.run.metrics_out.is_some()) {
        return;
    }
    let budget = opts.analyzer.conflict_budget;
    let budget = budget.map_or("none".into(), |b| b.to_string());
    let mut options = vec![opt("conflict_budget", budget)];
    options.extend(cli.run.manifest_options());
    let manifest = Manifest {
        tool: "repro".into(),
        command: cli.cmd.clone(),
        scale: Some(cli.scale as u64),
        threads: Some(opts.threads as u64),
        configs: opts.configs.iter().map(|c| c.to_string()).collect(),
        options,
    };
    if let Some(path) = &cli.run.trace_out {
        match cli.trace_format {
            TraceFormat::Jsonl => out.write_trace(path, Some(&manifest)),
            TraceFormat::Perfetto => out.write_trace_perfetto(path, Some(&manifest)),
        }
        .unwrap_or_else(|e| usage_error(&format!("cannot write {path}: {e}")));
    }
    if let Some(path) = &cli.run.metrics_out {
        out.write_metrics(path, Some(&manifest))
            .unwrap_or_else(|e| usage_error(&format!("cannot write {path}: {e}")));
    }
}

/// `repro trace-diff <a> <b>`: aligns two `--trace-out` JSONL traces by
/// span path and reports per-stage deltas plus the first query-plan
/// divergence (see [`acspec_bench::diff`]).
fn trace_diff(cli: &Cli) {
    let load = |path: &str| -> acspec_bench::diff::ParsedTrace {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage_error(&format!("cannot read {path}: {e}")));
        acspec_bench::diff::parse_trace(&text)
            .unwrap_or_else(|e| usage_error(&format!("{path}: {e}")))
    };
    let a = load(&cli.files[0]);
    let b = load(&cli.files[1]);
    if let (Some(ca), Some(cb)) = (&a.command, &b.command) {
        if ca != cb {
            println!("(note: traces come from different commands: `{ca}` vs `{cb}`)\n");
        }
    }
    let d = acspec_bench::diff::diff_traces(&a, &b);
    print!("{}", d.format(&cli.files[0], &cli.files[1], cli.top));
}

/// `repro corpus run --report <path>`: the per-scenario JSON report CI
/// uploads as an artifact when the gate fails.
fn corpus_report(verdicts: &[acspec_corpus::ScenarioVerdict]) -> String {
    let mut s = String::from("{\n  \"schema\": 1,\n  \"scenarios\": [");
    for (i, v) in verdicts.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str("    {\"name\": ");
        write_str(&mut s, &v.name);
        s.push_str(&format!(
            ", \"ok\": {}, \"warnings\": {}, \"queries\": {}, \"wall_ms\": {}",
            v.ok(),
            v.produced.warnings.len(),
            v.queries,
            v.wall_ms,
        ));
        for (key, items) in [
            ("failures", &v.failures),
            ("store_incidents", &v.store_incidents),
        ] {
            s.push_str(&format!(", \"{key}\": ["));
            for (j, item) in items.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                write_str(&mut s, item);
            }
            s.push(']');
        }
        s.push('}');
    }
    if !verdicts.is_empty() {
        s.push_str("\n  ");
    }
    let queries: u64 = verdicts.iter().map(|v| v.queries).sum();
    let wall: u64 = verdicts.iter().map(|v| v.wall_ms).sum();
    s.push_str(&format!(
        "],\n  \"total_queries\": {queries},\n  \"total_wall_ms\": {wall}\n}}\n"
    ));
    s
}

/// `repro corpus <list|run|bless|diff>`: the scenario-corpus harness
/// (see `crates/corpus` and DESIGN.md §4.8).
fn corpus_cmd(cli: &Cli) {
    let dir = cli
        .corpus_dir
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(acspec_corpus::default_corpus_dir);
    let mut scenarios =
        acspec_corpus::load_corpus(&dir).unwrap_or_else(|e| usage_error(&e.to_string()));
    if let Some(name) = &cli.scenario {
        scenarios.retain(|s| &s.name == name);
        if scenarios.is_empty() {
            usage_error(&format!("unknown scenario `{name}` in {}", dir.display()));
        }
    }
    if scenarios.is_empty() {
        usage_error(&format!("no scenarios found in {}", dir.display()));
    }
    let action = cli
        .corpus_action
        .as_deref()
        .expect("validated by parse_args");
    // The UPDATE_GOLDEN workflow: `corpus run` re-blesses instead of
    // comparing, mirroring the golden-file suites.
    let blessing = action == "bless"
        || (action == "run" && std::env::var("UPDATE_GOLDEN").ok().as_deref() == Some("1"));
    match action {
        "list" => {
            println!("{} scenario(s) in {}:", scenarios.len(), dir.display());
            for sc in &scenarios {
                let warnings = sc
                    .load_expected()
                    .map(|o| o.warnings.len().to_string())
                    .unwrap_or_else(|_| "unblessed".to_string());
                let budget = sc
                    .load_budget()
                    .map(|b| format!("{} queries, {} ms", b.max_solver_queries, b.max_wall_ms))
                    .unwrap_or_else(|_| "none".to_string());
                println!(
                    "  {:<22} {:<3} {:>9} warning(s)  budget: {}",
                    sc.name,
                    sc.kind.name(),
                    warnings,
                    budget
                );
            }
        }
        _ if blessing => {
            let mut failed = false;
            for sc in &scenarios {
                match acspec_corpus::bless_scenario(sc) {
                    Ok(out) => println!(
                        "blessed {}: {} warning(s), {} queries{}",
                        sc.name,
                        out.warnings,
                        out.queries,
                        if out.wrote_budget {
                            " (+ new budget.json)"
                        } else {
                            ""
                        }
                    ),
                    Err(e) => {
                        eprintln!("FAIL {}: {e}", sc.name);
                        failed = true;
                    }
                }
            }
            if failed {
                std::process::exit(1);
            }
        }
        "run" => {
            // One shared store across scenarios: keys are
            // content-addressed per procedure, so sharing is safe and a
            // second `corpus run --store-dir D` replays every base leg
            // warm (zero solver queries).
            let store = cli.run.store_dir.as_ref().map(|dir| {
                let chaos = ChaosConfig::from_flags(cli.store_chaos_seed, cli.store_chaos_rate);
                StoreSession::open_with_chaos(dir, chaos)
                    .unwrap_or_else(|e| usage_error(&format!("cannot open store {dir}: {e}")))
            });
            let mut verdicts = Vec::new();
            for sc in &scenarios {
                let v = acspec_corpus::verify_scenario_with_store(sc, store.as_ref());
                if v.ok() {
                    println!(
                        "PASS {} ({} warning(s), {} queries, {} ms)",
                        v.name,
                        v.produced.warnings.len(),
                        v.queries,
                        v.wall_ms
                    );
                } else {
                    println!("FAIL {}", v.name);
                    for f in &v.failures {
                        println!("  {}", f.replace('\n', "\n  "));
                    }
                }
                for i in &v.store_incidents {
                    println!("  (recovered) {i}");
                }
                verdicts.push(v);
            }
            let failed = verdicts.iter().filter(|v| !v.ok()).count();
            let queries: u64 = verdicts.iter().map(|v| v.queries).sum();
            let wall: u64 = verdicts.iter().map(|v| v.wall_ms).sum();
            println!(
                "corpus total: {}/{} passed, {queries} solver queries, {wall} ms wall",
                verdicts.len() - failed,
                verdicts.len()
            );
            if let Some(store) = &store {
                let s = store.stats();
                println!(
                    "store: {} hit(s), {} miss(es), {} corrupt, {} save(s), {} quarantined",
                    s.hits,
                    s.misses,
                    s.corrupt,
                    s.saves,
                    store.quarantine_count()
                );
            }
            if let Some(path) = &cli.report {
                std::fs::write(path, corpus_report(&verdicts))
                    .unwrap_or_else(|e| usage_error(&format!("cannot write {path}: {e}")));
                println!("(wrote per-scenario report to {path})");
            }
            if failed > 0 {
                std::process::exit(1);
            }
        }
        "diff" => {
            let mut diverged = false;
            for sc in &scenarios {
                let program = match sc.program() {
                    Ok(p) => p,
                    Err(e) => {
                        println!("{}: cannot load program: {e}", sc.name);
                        diverged = true;
                        continue;
                    }
                };
                let run = acspec_corpus::run_leg(&program, &acspec_corpus::BASE_LEG);
                let expected = match sc.load_expected() {
                    Ok(o) => o,
                    Err(e) => {
                        println!("{}: {e}", sc.name);
                        diverged = true;
                        continue;
                    }
                };
                let diffs = expected.diff(&run.oracle);
                if diffs.is_empty() {
                    println!(
                        "{}: in sync ({} warning(s))",
                        sc.name,
                        run.oracle.warnings.len()
                    );
                } else {
                    println!("{}: {} discrepancy(ies)", sc.name, diffs.len());
                    for d in &diffs {
                        println!("  {d}");
                    }
                    diverged = true;
                }
            }
            if diverged {
                std::process::exit(1);
            }
        }
        _ => unreachable!("parse_args validated the corpus action"),
    }
}

/// `repro store <stat|gc|verify> --store-dir DIR`: maintenance over a
/// persistent result store (see `crates/store` and DESIGN.md §4.9).
fn store_cmd(cli: &Cli) {
    let dir = cli
        .run
        .store_dir
        .as_deref()
        .expect("validated by parse_args");
    let mut store = ResultStore::open(dir)
        .unwrap_or_else(|e| usage_error(&format!("cannot open store {dir}: {e}")));
    let action = cli
        .store_action
        .as_deref()
        .expect("validated by parse_args");
    match action {
        "stat" => {
            let entries = store
                .walk()
                .unwrap_or_else(|e| usage_error(&format!("cannot walk {dir}: {e}")));
            let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
            println!(
                "store {dir}: {} entry(ies), {bytes} bytes, {} quarantined",
                entries.len(),
                store.quarantine_count()
            );
        }
        "gc" => {
            let (quarantined, tmps) = store
                .gc()
                .unwrap_or_else(|e| usage_error(&format!("cannot gc {dir}: {e}")));
            println!(
                "store {dir}: removed {quarantined} quarantined entry(ies) and {tmps} orphaned \
                 temp file(s)"
            );
        }
        // Every stored entry must decode, and every stored certificate
        // must still convince the independent checker — the store is
        // only trustworthy if what it replays would re-validate.
        "verify" => {
            let entries = store
                .walk()
                .unwrap_or_else(|e| usage_error(&format!("cannot walk {dir}: {e}")));
            let mut failures: Vec<String> = Vec::new();
            let mut fragments: Vec<String> = Vec::new();
            let mut decoded = 0usize;
            for entry in &entries {
                match store.load(&entry.key) {
                    LoadResult::Hit(bytes) => match decode_analysis(&bytes) {
                        Some(pa) => {
                            decoded += 1;
                            if let Some(f) = pa.certs_fragment {
                                fragments.push(f);
                            }
                        }
                        None => failures.push(format!(
                            "{}: checksummed payload does not decode (version skew?)",
                            entry.key
                        )),
                    },
                    LoadResult::Miss => {
                        failures.push(format!("{}: vanished during verification", entry.key));
                    }
                    LoadResult::Corrupt { kind, .. } => {
                        failures.push(format!("{}: corrupt ({kind}); quarantined", entry.key));
                    }
                }
            }
            let summary = check_document(&certs_json_from_fragments(&fragments));
            if !summary.ok() {
                for e in &summary.errors {
                    failures.push(format!("certificate check: {e}"));
                }
            }
            println!(
                "store {dir}: {} entry(ies), {decoded} decoded, {} with certificates, {} \
                 failure(s)",
                entries.len(),
                fragments.len(),
                failures.len()
            );
            for f in &failures {
                println!("  FAIL {f}");
            }
            if !failures.is_empty() {
                std::process::exit(1);
            }
        }
        _ => unreachable!("parse_args validated the store action"),
    }
}

/// Runs the Figure 9 evaluation workload (large benchmarks) silently,
/// feeding the observer — the data source for `repro profile`.
fn fig9_workload(scale: usize, observer: &mut dyn SessionObserver, opts: &EvalOptions) {
    for e in entries(&[SuiteKind::Large]) {
        let bm = generate_entry(e, scale);
        let _ = evaluate_with(&bm, opts, observer);
    }
}

fn u64_attr(attrs: &[(&'static str, Value)], key: &str) -> Option<u64> {
    attrs.iter().find_map(|(k, v)| match v {
        Value::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

/// `repro profile`: top-K procedures and solver queries of the Figure 9
/// workload, attributed to their stage and configuration via the span
/// tree. `--sort` picks the ranking key: wall seconds (default), query
/// count, or total solver conflicts.
fn profile(out: &TelemetryOutput, top: usize, sort: ProfileSort) {
    let sort_name = match sort {
        ProfileSort::Wall => "wall",
        ProfileSort::Queries => "queries",
        ProfileSort::Conflicts => "conflicts",
    };
    println!("== Profile: top {top} procedures and queries by {sort_name} ==\n");

    // Per-procedure query/conflict totals from the solver_query events.
    let mut ev_totals: std::collections::HashMap<u64, (u64, u64)> =
        std::collections::HashMap::new();
    for e in &out.trace.events {
        if let Some(p) = out
            .trace
            .ancestry(e.span)
            .iter()
            .find(|s| s.kind == "procedure")
        {
            let t = ev_totals.entry(p.id).or_default();
            t.0 += 1;
            t.1 += u64_attr(&e.attrs, "conflicts").unwrap_or(0);
        }
    }

    let mut procs: Vec<_> = out.trace.spans_of("procedure").collect();
    procs.sort_by(|a, b| {
        let (qa, ca) = ev_totals.get(&a.id).copied().unwrap_or((0, 0));
        let (qb, cb) = ev_totals.get(&b.id).copied().unwrap_or((0, 0));
        match sort {
            ProfileSort::Wall => b.seconds.total_cmp(&a.seconds),
            ProfileSort::Queries => qb.cmp(&qa).then(b.seconds.total_cmp(&a.seconds)),
            ProfileSort::Conflicts => cb.cmp(&ca).then(b.seconds.total_cmp(&a.seconds)),
        }
    });
    let mut rows = Vec::new();
    for span in procs.iter().take(top) {
        let name = Trace::str_attr(span, "proc").unwrap_or("?");
        let (proc_queries, proc_conflicts) = ev_totals.get(&span.id).copied().unwrap_or((0, 0));
        // The procedure's slowest stage, with its config attribution.
        let slowest = out
            .trace
            .spans_of("stage")
            .filter(|s| out.trace.ancestry(s.id).iter().any(|a| a.id == span.id))
            .max_by(|a, b| a.seconds.total_cmp(&b.seconds));
        let (stage, label, stage_s) = slowest.map_or(("-", "-", 0.0), |s| {
            let chain = out.trace.ancestry(s.id);
            (
                Trace::str_attr(s, "stage").unwrap_or("?"),
                chain
                    .iter()
                    .find(|a| a.kind == "config")
                    .and_then(|c| Trace::str_attr(c, "label"))
                    .unwrap_or("?"),
                s.seconds,
            )
        });
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", span.seconds),
            proc_queries.to_string(),
            proc_conflicts.to_string(),
            format!("{stage} [{label}]"),
            format!("{stage_s:.3}"),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "Procedure",
                "T(s)",
                "Queries",
                "Conflicts",
                "Slowest stage",
                "T(s)"
            ],
            &rows
        )
    );

    let mut queries: Vec<_> = out.trace.events.iter().collect();
    queries.sort_by(|a, b| match sort {
        // Per query, "queries" is not a meaningful key — fall back to
        // wall so the table stays useful.
        ProfileSort::Wall | ProfileSort::Queries => b.seconds.total_cmp(&a.seconds),
        ProfileSort::Conflicts => u64_attr(&b.attrs, "conflicts")
            .unwrap_or(0)
            .cmp(&u64_attr(&a.attrs, "conflicts").unwrap_or(0))
            .then(b.seconds.total_cmp(&a.seconds)),
    });
    let mut qrows = Vec::new();
    for e in queries.iter().take(top) {
        let chain = out.trace.ancestry(e.span);
        let find = |kind: &str, key: &str| {
            chain
                .iter()
                .find(|s| s.kind == kind)
                .and_then(|s| Trace::str_attr(s, key))
                .unwrap_or("?")
                .to_string()
        };
        let outcome = e
            .attrs
            .iter()
            .find_map(|(k, v)| match v {
                Value::Str(s) if *k == "outcome" => Some(s.clone()),
                _ => None,
            })
            .unwrap_or_else(|| "?".into());
        qrows.push(vec![
            find("procedure", "proc"),
            find("config", "label"),
            find("stage", "stage"),
            outcome,
            u64_attr(&e.attrs, "conflicts").unwrap_or(0).to_string(),
            format!("{:.6}", e.seconds),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "Procedure",
                "Config",
                "Stage",
                "Outcome",
                "Conflicts",
                "T(s)"
            ],
            &qrows
        )
    );
    println!(
        "({} procedures, {} solver queries profiled over the Figure 9 workload)\n",
        out.trace.spans_of("procedure").count(),
        out.trace.events.len()
    );
}

fn entries(kinds: &[SuiteKind]) -> Vec<&'static SuiteEntry> {
    SUITE.iter().filter(|e| kinds.contains(&e.kind)).collect()
}

/// Figure 5: benchmark statistics.
fn fig5(scale: usize) {
    println!("== Figure 5: benchmark statistics (scale 1/{scale}) ==\n");
    let mut rows = Vec::new();
    let mut totals = (0usize, 0usize, 0usize, 0usize);
    for e in SUITE {
        let bm = generate_entry(e, scale);
        let ir_loc = bm.ir_stmt_count();
        rows.push(vec![
            bm.name.clone(),
            bm.c_loc.to_string(),
            ir_loc.to_string(),
            bm.proc_count().to_string(),
            bm.assert_count().to_string(),
        ]);
        totals.0 += bm.c_loc;
        totals.1 += ir_loc;
        totals.2 += bm.proc_count();
        totals.3 += bm.assert_count();
    }
    rows.push(vec![
        "Total".into(),
        totals.0.to_string(),
        totals.1.to_string(),
        totals.2.to_string(),
        totals.3.to_string(),
    ]);
    println!(
        "{}",
        format_table(
            &["Bench", "LOC (C)", "Stmts (IR)", "Procs", "Asserts"],
            &rows
        )
    );
}

fn eval_entries(
    kinds: &[SuiteKind],
    scale: usize,
    observer: &mut dyn SessionObserver,
    opts: &EvalOptions,
    certs: &mut Vec<ProcCerts>,
) -> Vec<(Benchmark, BenchEval)> {
    entries(kinds)
        .into_iter()
        .map(|e| {
            let bm = generate_entry(e, scale);
            let mut ev = evaluate_with(&bm, opts, observer);
            certs.append(&mut ev.certs);
            (bm, ev)
        })
        .collect()
}

/// Figure 6: warning reduction on the small benchmarks.
fn fig6(
    scale: usize,
    observer: &mut dyn SessionObserver,
    opts: &EvalOptions,
    certs: &mut Vec<ProcCerts>,
) {
    println!("== Figure 6: abstract configurations × clause pruning (small benchmarks, scale 1/{scale}) ==\n");
    let evals = eval_entries(
        &[SuiteKind::Samate, SuiteKind::Small],
        scale,
        observer,
        opts,
        certs,
    );
    let mut rows = Vec::new();
    let mut tot = vec![0usize; 3 * PRUNE_LEVELS.len() + 2];
    for (bm, ev) in &evals {
        let mut row = vec![bm.name.clone()];
        let mut idx = 0;
        for ci in 0..3 {
            for ki in 0..PRUNE_LEVELS.len() {
                let w = ev.warning_count(ci, ki);
                row.push(w.to_string());
                tot[idx] += w;
                idx += 1;
            }
        }
        let cons = ev.cons_count();
        row.push(cons.to_string());
        tot[idx] += cons;
        row.push(ev.timeouts.to_string());
        tot[idx + 1] += ev.timeouts;
        rows.push(row);
    }
    let mut total_row = vec!["Total".to_string()];
    total_row.extend(tot.iter().map(usize::to_string));
    rows.push(total_row);
    println!(
        "{}",
        format_table(
            &[
                "Bench", "Conc", "k=3", "k=2", "k=1", "A1", "k=3", "k=2", "k=1", "A2", "k=3",
                "k=2", "k=1", "Cons", "TO",
            ],
            &rows
        )
    );
    println!("(columns group as Conc/A1/A2, each with no pruning then k = 3, 2, 1)\n");
    report_incidents(&evals);
}

/// Figure 7: classification against ground truth on the SAMATE corpora.
fn fig7(
    scale: usize,
    observer: &mut dyn SessionObserver,
    opts: &EvalOptions,
    certs: &mut Vec<ProcCerts>,
) {
    println!("== Figure 7: classification on labeled SAMATE corpora (scale 1/{scale}) ==\n");
    let evals = eval_entries(&[SuiteKind::Samate], scale, observer, opts, certs);
    let mut rows = Vec::new();
    let mut totals = [(0usize, 0usize, 0usize); 4];
    for (bm, ev) in &evals {
        let gt = bm
            .ground_truth
            .as_ref()
            .expect("SAMATE corpora are labeled");
        let mut row = vec![
            bm.name.clone(),
            (gt.buggy.len() + gt.safe.len()).to_string(),
        ];
        for (slot, tags) in [
            ev.warning_tags(0, 0),
            ev.warning_tags(1, 0),
            ev.warning_tags(2, 0),
            ev.cons_tags(),
        ]
        .into_iter()
        .enumerate()
        {
            let c = classify(gt, &tags);
            row.push(c.correct.to_string());
            row.push(c.false_positives.to_string());
            row.push(c.false_negatives.to_string());
            totals[slot].0 += c.correct;
            totals[slot].1 += c.false_positives;
            totals[slot].2 += c.false_negatives;
        }
        rows.push(row);
    }
    let mut total_row = vec!["Total".to_string(), String::new()];
    for (c, fp, fn_) in totals {
        total_row.push(c.to_string());
        total_row.push(fp.to_string());
        total_row.push(fn_.to_string());
    }
    rows.push(total_row);
    println!(
        "{}",
        format_table(
            &[
                "Bench", "Asrt", "Conc C", "FP", "FN", "A1 C", "FP", "FN", "A2 C", "FP", "FN",
                "Cons C", "FP", "FN",
            ],
            &rows
        )
    );
    report_incidents(&evals);
}

/// Figure 8: warnings on the large benchmarks.
fn fig8(
    scale: usize,
    observer: &mut dyn SessionObserver,
    opts: &EvalOptions,
    certs: &mut Vec<ProcCerts>,
) {
    println!("== Figure 8: abstract configurations on large benchmarks (scale 1/{scale}) ==\n");
    let evals = eval_entries(&[SuiteKind::Large], scale, observer, opts, certs);
    let mut rows = Vec::new();
    let mut tot = [0usize; 7];
    for (bm, ev) in &evals {
        let cells = [
            bm.proc_count(),
            bm.assert_count(),
            ev.warning_count(0, 0),
            ev.warning_count(1, 0),
            ev.warning_count(2, 0),
            ev.cons_count(),
            ev.timeouts,
        ];
        for (t, c) in tot.iter_mut().zip(cells) {
            *t += c;
        }
        let mut row = vec![bm.name.clone()];
        row.extend(cells.iter().map(usize::to_string));
        rows.push(row);
    }
    let mut total_row = vec!["Total".to_string()];
    total_row.extend(tot.iter().map(usize::to_string));
    rows.push(total_row);
    println!(
        "{}",
        format_table(
            &["Bench", "Proc", "Asrt", "Conc", "A1", "A2", "Cons", "TO"],
            &rows
        )
    );
    report_incidents(&evals);
}

/// Figure 9: per-procedure averages on the large benchmarks, plus the
/// per-stage breakdown collected by the analysis sessions' observer.
fn fig9(
    scale: usize,
    observer: &mut dyn SessionObserver,
    opts: &EvalOptions,
    certs: &mut Vec<ProcCerts>,
) {
    println!("== Figure 9: per-procedure averages on large benchmarks (scale 1/{scale}) ==\n");
    let mut totals = StageTotals::default();
    let evals: Vec<(Benchmark, BenchEval)> = entries(&[SuiteKind::Large])
        .into_iter()
        .map(|e| {
            let bm = generate_entry(e, scale);
            let mut tee = TeeObserver::new(&mut totals, &mut *observer);
            let mut ev = evaluate_with(&bm, opts, &mut tee);
            certs.append(&mut ev.certs);
            (bm, ev)
        })
        .collect();
    let mut rows = Vec::new();
    for (bm, ev) in &evals {
        let mut row = vec![bm.name.clone()];
        for ci in 0..3 {
            let (p, c, t) = ev.averages(ci);
            row.push(format!("{p:.1}"));
            row.push(format!("{c:.1}"));
            row.push(format!("{t:.3}"));
        }
        rows.push(row);
    }
    println!(
        "{}",
        format_table(
            &["Bench", "Conc P", "C", "T(s)", "A1 P", "C", "T(s)", "A2 P", "C", "T(s)",],
            &rows
        )
    );
    println!("(P = avg predicates/proc, C = avg cover clauses/proc, T = avg seconds/proc)\n");
    report_incidents(&evals);

    // The stage table the single-number `T` column used to hide: one row
    // per label (`shared` = the once-per-procedure encode + screen every
    // configuration reuses), per-stage average seconds and total queries.
    println!(
        "Per-stage breakdown (SessionObserver events, {} procs):\n",
        totals.procs()
    );
    let n = totals.procs().max(1) as f64;
    let mut stage_rows = Vec::new();
    for (label, table) in totals.iter() {
        let name = label.map_or_else(|| "shared".to_string(), |l| l.to_string());
        let mut row = vec![name];
        for stage in Stage::ALL {
            let m = table.get(stage);
            row.push(if m.seconds > 0.0 || m.queries > 0 {
                format!("{:.3}", m.seconds / n)
            } else {
                "-".to_string()
            });
            row.push(m.queries.to_string());
        }
        stage_rows.push(row);
    }
    let mut headers = vec!["Label"];
    for stage in Stage::ALL {
        headers.push(stage.name());
        headers.push("Q");
    }
    println!("{}", format_table(&headers, &stage_rows));
    println!("(per stage: avg seconds/proc, then total solver queries)\n");
}

/// Ablation: the paper names the missing incremental solver interface as
/// its prototype's main inefficiency (§5). We compare answering all
/// `Fail(true)`/`Dead(true)` queries from one persistent encoding versus
/// re-encoding per query.
fn ablation_incremental(scale: usize, query_cache: bool) {
    println!("== Ablation: incremental vs. re-encoded solving (scale 1/{scale}) ==\n");
    let bm = generate_entry(&SUITE[2], scale); // ansicon
    let cfg = AnalyzerConfig {
        query_cache,
        ..AnalyzerConfig::default()
    };
    let mut inc_total = 0.0;
    let mut fresh_total = 0.0;
    let mut n_queries = 0usize;
    for proc in &bm.program.procedures {
        if proc.body.is_none() {
            continue;
        }
        let d = desugar_procedure(&bm.program, proc, DesugarOptions::default()).expect("ok");

        let t0 = Instant::now();
        let mut az = ProcAnalyzer::new(&d, cfg).expect("encodes");
        let locs = az.locations();
        let asserts = az.assertions();
        for &l in &locs {
            let _ = az.is_reachable(l, &[]);
        }
        for &a in &asserts {
            let _ = az.can_fail(a, &[]);
        }
        inc_total += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        for &l in &locs {
            let mut fresh = ProcAnalyzer::new(&d, cfg).expect("encodes");
            let _ = fresh.is_reachable(l, &[]);
        }
        for &a in &asserts {
            let mut fresh = ProcAnalyzer::new(&d, cfg).expect("encodes");
            let _ = fresh.can_fail(a, &[]);
        }
        fresh_total += t1.elapsed().as_secs_f64();
        n_queries += locs.len() + asserts.len();
    }
    println!(
        "{n_queries} Dead/Fail queries over `{}`:\n  one persistent encoding: {inc_total:.3}s\n  fresh encoding per query: {fresh_total:.3}s\n  speedup: {:.1}x\n",
        bm.name,
        fresh_total / inc_total.max(1e-9)
    );
}

/// Ablation: `Normalize` on/off — without normalization, pruning operates
/// on the raw maximal clauses (all of width |Q|), so k-pruning drops
/// everything and over-weakens (§4.3's motivation).
fn ablation_normalize(scale: usize) {
    println!("== Ablation: Normalize on/off under k=1 pruning (scale 1/{scale}) ==\n");
    let [on, off] = normalize_ablation(scale);
    let rows = vec![
        vec!["Normalize on".to_string(), on.to_string()],
        vec!["Normalize off".to_string(), off.to_string()],
    ];
    println!(
        "{}",
        format_table(&["Variant", "warnings (Conc, k=1)"], &rows)
    );
    println!("(§4.3: quality measures cannot be applied directly to maximal clauses)\n");
}

/// Ablation: the interprocedural extension (§5.1.2, §7) — inferring
/// callee preconditions and asserting them at call sites recovers the
/// "simple, but buggy" false negatives on a caller-augmented corpus.
fn ablation_interproc(scale: usize) {
    use acspec_core::infer_preconditions;
    println!("== Ablation: interprocedural precondition inference (scale 1/{scale}) ==\n");
    let n = (40 / scale.max(1)).max(4);
    let bm = acspec_benchgen::samate::cwe476_with_callers(777, n);
    let gt = bm.ground_truth.as_ref().expect("labeled");
    let opts = AcspecOptions::for_config(ConfigName::Conc);

    let classify_run = |program: &acspec_ir::Program| -> (usize, usize) {
        let mut reported = std::collections::BTreeSet::new();
        for proc in &program.procedures {
            if proc.body.is_none() {
                continue;
            }
            let r = analyze_procedure(program, proc, &opts).expect("analyzes");
            for w in &r.warnings {
                reported.insert(w.tag.clone());
            }
        }
        let fns = gt.buggy.iter().filter(|t| !reported.contains(*t)).count();
        let fps = gt.safe.iter().filter(|t| reported.contains(*t)).count();
        (fns, fps)
    };

    let (fn_before, fp_before) = classify_run(&bm.program);
    let inferred = infer_preconditions(&bm.program, &opts);
    for incident in &inferred.incidents {
        println!("incident: {incident}");
    }
    let (fn_after, fp_after) = classify_run(&inferred.program);
    println!(
        "{} NULL-passing call sites among {} callers; {} preconditions inferred",
        gt.buggy.len(),
        n,
        inferred.inferred.len()
    );
    println!("  modular (paper's setting):   FN = {fn_before}, FP = {fp_before}");
    println!("  with inferred preconditions: FN = {fn_after}, FP = {fp_after}\n");
}
