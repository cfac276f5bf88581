//! `acbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! acbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs one workload through the release `acspec`
//! binary that sits next to its own executable and prints the end-to-end
//! metrics; with `--trace 1` it runs the workload's inputs in-process
//! under spans and prints the per-layer metrics. Either way the last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See `README.md` beside this package for the workloads and metrics.

mod child;
mod inputs;
mod stats;
mod trace;
mod verdict;
mod workloads;

use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use workloads::{Ctx, Outcome, Workload};

/// A run that has not finished by now is killed without a result: the
/// benchmark must end within 180 seconds.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed needs a u64")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Renders a measured number for JSON (`null` when not finite).
fn number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

fn report(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate acbench: {e}"))?;
    let bin_dir = exe.parent().ok_or("acbench has no directory")?;
    let acspec = bin_dir.join("acspec");
    if !acspec.is_file() {
        return Err(format!("no acspec binary at {}", acspec.display()));
    }
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    // Scratch space beside the build, e.g. `.bench_build/acbench/`.
    let out_dir = bin_dir.parent().unwrap_or(bin_dir).join("acbench");
    let ctx = Ctx {
        acspec,
        root,
        work: out_dir.join(format!("{}-{}", args.workload.name(), std::process::id())),
        seed: args.seed,
        seconds: args.seconds,
        min_samples: workloads::MIN_SAMPLES,
        max_files: usize::MAX,
    };
    eprintln!(
        "acbench {} seed={} seconds={} trace={} nproc={} cpu={:?} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model(),
        commit(&ctx.root),
    );
    let result = if args.trace {
        trace::run(&ctx, args.workload)
    } else {
        workloads::run(&ctx, args.workload)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    result
}

/// The CPU model from `/proc/cpuinfo`, when there is one.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn commit(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: acbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (done, wait) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if let Err(mpsc::RecvTimeoutError::Timeout) = wait.recv_timeout(WATCHDOG) {
            eprintln!("error: acbench ran past {}s; giving up", WATCHDOG.as_secs());
            child::kill_current();
            std::process::exit(3);
        }
    });
    let result = run(&args);
    let _ = done.send(());
    let _ = watchdog.join();
    match result {
        Ok(out) => {
            for m in &out.metrics {
                println!(
                    "{:<26} {:>14} {:<6} {}",
                    m.name,
                    number(m.value),
                    m.unit,
                    m.note
                );
            }
            if out.mismatches > 0 {
                println!("verdict_mismatches {}", out.mismatches);
            }
            println!("{}", report(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use std::time::Instant;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..")
    }

    /// The release `acspec` of the build this test belongs to, built on
    /// demand into the same target directory.
    fn acspec() -> PathBuf {
        let exe = std::env::current_exe().expect("test executable");
        let target = exe
            .ancestors()
            .nth(3)
            .expect("<target>/<profile>/deps/<exe>");
        let acspec = target.join("release").join("acspec");
        if !acspec.is_file() {
            let status = std::process::Command::new(env!("CARGO"))
                .args([
                    "build",
                    "--offline",
                    "--release",
                    "--quiet",
                    "--bin",
                    "acspec",
                ])
                .arg("--manifest-path")
                .arg(repo_root().join("Cargo.toml"))
                .env("CARGO_TARGET_DIR", target)
                .status()
                .expect("cargo runs");
            assert!(status.success(), "building acspec failed");
        }
        acspec
    }

    fn ctx(name: &str, acspec: &Path) -> Ctx {
        let exe = std::env::current_exe().expect("test executable");
        let dir = exe.parent().expect("deps dir").join("acbench-tests");
        Ctx {
            acspec: acspec.to_path_buf(),
            root: repo_root(),
            work: dir.join(format!("{name}-{}", std::process::id())),
            // Seed 0 would re-bless the digest tables from one file when
            // UPDATE_GOLDEN is set; other seeds only check repeatability.
            seed: 1,
            // One operation on one file.
            seconds: 0.001,
            min_samples: 1,
            max_files: 1,
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload suite-warm --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::SuiteWarm, 7, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err(), "workload required");
        assert!(parse_args(&argv("--workload ci-certify --trace 2")).is_err());
        assert!(parse_args(&argv("--workload ci-certify --seconds")).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 1,
            mismatches: 1,
            metrics: vec![
                workloads::metric("setup_s", 0.25, "s"),
                workloads::metric("x", f64::NAN, "ms"),
            ],
        };
        let line = report(&out);
        let doc = acspec_check::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(|v| v.bool()), Some(false));
        assert_eq!(doc.get("attempted").and_then(|v| v.int()), Some(3));
        assert_eq!(doc.get("failed").and_then(|v| v.int()), Some(1));
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("unit"))
                .and_then(|u| u.str()),
            Some("s")
        );
        assert!(line.contains("\"value\": null"), "{line}");
    }

    /// Every workload, end to end and traced, on one file for one round:
    /// correct, and done in under 30 seconds.
    #[test]
    fn every_workload_runs_clean() {
        let acspec = acspec();
        let t0 = Instant::now();
        for w in Workload::ALL {
            let ctx = ctx(w.name(), &acspec);
            let e2e = workloads::run(&ctx, w).expect("workload runs");
            assert_eq!((e2e.failed, e2e.mismatches), (0, 0), "{}", w.name());
            assert_eq!(e2e.metrics.len(), 6);
            let traced = trace::run(&ctx, w).expect("trace runs");
            assert_eq!(traced.failed, 0, "{}", w.name());
            let _ = std::fs::remove_dir_all(&ctx.work);
        }
        let took = t0.elapsed().as_secs_f64();
        assert!(took < 30.0, "every workload on one file took {took:.1}s");
    }
}
