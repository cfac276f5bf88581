//! `acspec` argument handling: options the CLI does not have are usage
//! errors (exit 2 plus the usage text), never silently ignored.

use std::path::Path;
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
