//! `acspec` argument and input handling: options the CLI does not have
//! are usage errors (exit 2 plus the usage text), never silently
//! ignored, and hostile inputs get a diagnostic or an incident, never a
//! crash or a wrong verdict.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn acspec_on_fig1(args: &[&str]) -> Output {
    let input = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/fig1_double_free/input.acs");
    Command::new(env!("CARGO_BIN_EXE_acspec"))
        .arg(input)
        .args(args)
        .output()
        .expect("acspec runs")
}

fn assert_usage_error(args: &[&str], expect_in_stderr: &str) {
    let out = acspec_on_fig1(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "acspec {args:?} must exit 2\nstderr: {stderr}"
    );
    assert!(
        stderr.contains(expect_in_stderr),
        "acspec {args:?} stderr must mention `{expect_in_stderr}`:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: acspec"),
        "acspec {args:?} must print the usage text:\n{stderr}"
    );
}

#[test]
fn retired_search_and_store_options_are_usage_errors() {
    for flag in [
        &["--portfolio"][..],
        &["--cube-split", "2"],
        &["--search-threads", "4"],
        &["--restart-base", "16"],
        &["--no-store"],
    ] {
        assert_usage_error(flag, &format!("unexpected argument `{}`", flag[0]));
    }
}

#[test]
fn deadline_beyond_a_duration_is_a_usage_error() {
    for secs in ["inf", "1e20"] {
        assert_usage_error(&["--deadline", secs], "--deadline");
    }
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_acspec"))
            .arg(flag)
            .output()
            .expect("acspec runs");
        assert_eq!(out.status.code(), Some(0), "acspec {flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("usage: acspec") && stdout.contains("--store-dir"),
            "acspec {flag} must print the usage on stdout:\n{stdout}"
        );
        assert!(out.stderr.is_empty(), "acspec {flag} must not complain");
    }
}

/// Writes `source` to a fresh `input.<ext>` and runs `acspec` on it.
fn acspec_on_source(name: &str, ext: &str, source: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("acspec-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let input = dir.join(format!("input.{ext}"));
    std::fs::write(&input, source).expect("write input");
    let out = Command::new(env!("CARGO_BIN_EXE_acspec"))
        .arg(&input)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("acspec runs");
    (out, input)
}

/// x = -2^63 fails both assertions. Folding their constants in 64 bits
/// would wrap, so the analysis must stop with an incident instead of
/// reporting, certifying or witnessing a wrapped constant.
#[test]
fn integer_overflow_is_an_incident_never_a_verdict() {
    for (name, assertion) in [
        ("overflow-min", "x != 0 - 9223372036854775807 - 1"),
        ("overflow-plus-two", "x != 9223372036854775807 + 2"),
    ] {
        let source = format!("procedure f(x: int) {{ assert {assertion}; }}\n");
        let (out, input) = acspec_on_source(
            name,
            "acs",
            &source,
            &["--format", "json", "--certs-out", "certs.json"],
        );
        let report = String::from_utf8_lossy(&out.stdout);
        let doc = acspec_check::json::parse(&report).expect("the report is JSON");
        let incidents = doc
            .get("incidents")
            .and_then(|v| v.arr())
            .expect("incidents list");
        assert!(
            incidents.iter().any(|i| i
                .get("message")
                .and_then(|m| m.str())
                .is_some_and(|m| m.contains("overflow"))),
            "`assert {assertion}` must raise an overflow incident:\n{report}"
        );
        assert!(
            !report.contains("-9223372036854775807"),
            "a wrapped constant reached a spec or witness:\n{report}"
        );
        let sidecar = std::fs::read_to_string(input.with_file_name("certs.json")).expect("sidecar");
        assert!(
            !sidecar.contains("cannot_fail"),
            "`assert {assertion}` can fail, yet was certified:\n{sidecar}"
        );
        let _ = std::fs::remove_dir_all(input.parent().expect("temp dir"));
    }
}

/// Past `MAX_DEPTH` (256) nested levels, both front ends stop with a
/// `file:line:col` diagnostic and exit 2 instead of overflowing the
/// stack; exactly 256 levels still analyse. Each operator of a
/// left-deep chain (`x + x + x`, `x && x && x`, `m[0][0]`, `p->f->f`)
/// counts as a level, like a bracket.
#[test]
fn deep_nesting_is_a_located_usage_error() {
    let nest =
        |depth: usize, inner: &str| format!("{}{inner}{}", "(".repeat(depth), ")".repeat(depth));
    let acs = |depth| {
        format!(
            "procedure f(x: int) {{ assert {}; }}\n",
            nest(depth, "x != 0")
        )
    };
    let c = |depth| {
        format!(
            "int f(int *p) {{\n  return *p + {};\n}}\n",
            nest(depth, "0")
        )
    };
    let chain = |terms: usize, op: &str| vec!["x"; terms].join(op);
    let acs_sum = |terms| {
        format!(
            "procedure f(x: int) {{ assert {} != 0; }}\n",
            chain(terms, " + ")
        )
    };
    let c_sum = |terms| {
        format!(
            "int f(int *p, int x) {{\n  return *p + {};\n}}\n",
            chain(terms - 1, " + ")
        )
    };
    let c_and = |terms| {
        format!(
            "int f(int *p, int x) {{\n  if ({}) {{ return *p; }}\n  return 0;\n}}\n",
            chain(terms, " && ")
        )
    };
    let acs_reads = |terms| {
        format!(
            "procedure f(m: map) {{ assert m{} != 0; }}\n",
            "[0]".repeat(terms)
        )
    };
    let c_arrows = |terms| {
        format!(
            "struct s {{ struct s *f; int v; }};\nint f(struct s *p) {{\n  return p{}->v;\n}}\n",
            "->f".repeat(terms)
        )
    };
    type Source<'a> = &'a dyn Fn(usize) -> String;
    // (shape, extension, line of the diagnostic, source of a given
    // depth, whether to analyse it at 256 levels). The other shapes are
    // only rejected: 256 short-circuit branches analyse but take
    // seconds, and 256 reads of a map are a sort error.
    let cases: [(&str, &str, u32, Source, bool); 7] = [
        ("brackets", "acs", 1, &acs, true),
        ("brackets", "c", 2, &c, true),
        ("+ chain", "acs", 1, &acs_sum, true),
        ("+ chain", "c", 2, &c_sum, true),
        ("&& chain", "c", 2, &c_and, false),
        ("[] chain", "acs", 1, &acs_reads, false),
        ("-> chain", "c", 3, &c_arrows, false),
    ];
    for (shape, ext, line, source, analyse) in cases {
        let what = format!("{shape} in .{ext}");
        let (out, input) = acspec_on_source(&format!("deep-{ext}"), ext, &source(50_000), &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "50,000 deep {what}: {stderr}");
        let located = stderr
            .strip_prefix(&format!("error: {}:{line}:", input.display()))
            .and_then(|rest| rest.split_once(": nesting deeper than 256 levels"))
            .is_some_and(|(col, _)| col.parse::<u32>().is_ok());
        assert!(
            located,
            "50,000 deep {what} needs a file:line:col diagnostic:\n{stderr}"
        );
        let _ = std::fs::remove_dir_all(input.parent().expect("temp dir"));
        if !analyse {
            continue;
        }

        let (out, input) = acspec_on_source(&format!("deep-{ext}"), ext, &source(256), &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_ne!(
            out.status.code(),
            Some(2),
            "256 deep {what} must analyse: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("procedure f"), "256 deep {what}:\n{stdout}");
        let _ = std::fs::remove_dir_all(input.parent().expect("temp dir"));
    }
}

/// A C condition of k `||`-pairs joined by `&&` lowers its branch 2^k
/// times. Past the front end's copy bound it is a located usage error,
/// reached before the copies can exhaust memory (at 18 pairs the
/// process used to abort on a failed allocation).
#[test]
fn exponential_short_circuit_lowering_is_a_located_usage_error() {
    let pairs: Vec<String> = (0..24).map(|i| format!("(x == {i} || y == {i})")).collect();
    let source = format!(
        "int f(int *p, int x, int y) {{\n  if ({}) {{ return *p; }}\n  return 0;\n}}\n",
        pairs.join(" && ")
    );
    let start = std::time::Instant::now();
    let (out, input) = acspec_on_source("short-circuit", "c", &source, &[]);
    let elapsed = start.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "24 pairs: {stderr}");
    assert!(
        stderr.starts_with(&format!(
            "error: {}:2: short-circuit conditions copy",
            input.display()
        )),
        "24 pairs need a file:line diagnostic:\n{stderr}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "24 pairs took {elapsed:?} to reject"
    );
    let _ = std::fs::remove_dir_all(input.parent().expect("temp dir"));
}

/// `--triage` runs the same `ProgramAnalysis` as the default path, so it
/// honours the run flags: a certificate sidecar that checks, a store
/// whose warm rerun runs no solver query, and a metrics snapshot.
#[test]
fn triage_honours_the_run_flags() {
    let fig1 = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/fig1_double_free/input.acs"),
    )
    .expect("fig1");
    let run = |certs: &str, metrics: &str| {
        let args = [
            "--triage",
            "--certs-out",
            certs,
            "--store-dir",
            "store",
            "--metrics-out",
            metrics,
        ];
        let (out, input) = acspec_on_source("triage-run-flags", "acs", &fig1, &args);
        assert_eq!(out.status.code(), Some(1), "fig1 has ranked warnings");
        (out.stdout, input.parent().expect("temp dir").to_path_buf())
    };
    let (cold, dir) = run("cold-certs.json", "cold-metrics.json");
    for file in ["cold-certs.json", "cold-metrics.json", "store"] {
        assert!(dir.join(file).exists(), "--triage did not write {file}");
    }
    let check = Command::new(env!("CARGO_BIN_EXE_acspec"))
        .args(["check", "cold-certs.json"])
        .current_dir(&dir)
        .output()
        .expect("acspec check runs");
    assert_eq!(
        check.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );

    let (warm, dir) = run("warm-certs.json", "warm-metrics.json");
    assert_eq!(cold, warm, "the warm rerun must print the same bytes");
    let sidecar = |name: &str| std::fs::read(dir.join(name)).expect("sidecar");
    assert_eq!(sidecar("cold-certs.json"), sidecar("warm-certs.json"));
    let metrics = std::fs::read_to_string(dir.join("warm-metrics.json")).expect("metrics");
    let doc = acspec_check::json::parse(&metrics).expect("metrics are JSON");
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.int())
            .unwrap_or(0)
    };
    assert!(counter("store.hits") >= 1, "no store hit:\n{metrics}");
    assert_eq!(
        counter("solver.queries"),
        0,
        "warm rerun queried:\n{metrics}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Precondition inference and the ranking run behind the same barrier
/// as the default path: an overflowing constant (a panic) and a call
/// whose callee's contract does not desugar (an error) are incidents,
/// not a panic that ends the process (exit 101) or an aborted run
/// (exit 2).
#[test]
fn faults_under_triage_and_interproc_are_incidents() {
    for (name, source, fault) in [
        (
            "overflow",
            "procedure f(x: int) { assert x != 0 - 9223372036854775807 - 1; }\n",
            "overflow",
        ),
        (
            "bad-old",
            "procedure k(x: int) ensures old(x) == 0; { }\nprocedure m() { call k(1); }\n",
            "desugaring failed",
        ),
    ] {
        for mode in ["--triage", "--interproc"] {
            let (out, input) = acspec_on_source(&format!("{name}{mode}"), "acs", source, &[mode]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                matches!(out.status.code(), Some(0 | 1)),
                "{name} {mode} exited {:?}:\n{stdout}{}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                stdout
                    .lines()
                    .any(|l| l.contains("incident") && l.contains(fault)),
                "{name} {mode} must print an incident naming `{fault}`:\n{stdout}"
            );
            let _ = std::fs::remove_dir_all(input.parent().expect("temp dir"));
        }
    }
}

#[test]
fn triage_rejects_flags_it_cannot_honour() {
    for (args, flag) in [
        (&["--format", "json"][..], "--format json"),
        (&["--all-configs"], "--all-configs"),
        (&["--config", "A1"], "--config"),
        (&["--cons"], "--cons"),
        (&["--specs"], "--specs"),
    ] {
        let args = [&["--triage"][..], args].concat();
        assert_usage_error(&args, &format!("does not take {flag}"));
    }
}
