//! `repro` argument handling: unknown flags, flags outside their
//! command's whitelist, and corpus-action typos must all exit 2 with
//! the usage text — no silent fall-through to a default command.

use std::path::Path;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn assert_usage_error(args: &[&str], expect_in_stderr: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "repro {args:?} must exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(expect_in_stderr),
        "repro {args:?} stderr must mention `{expect_in_stderr}`:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: repro"),
        "repro {args:?} must print the usage text:\n{stderr}"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["fig5", "--bogus"], "unknown flag `--bogus`");
}

#[test]
fn unknown_command_is_a_usage_error() {
    assert_usage_error(&["fig10"], "unknown command `fig10`");
}

#[test]
fn retired_search_options_are_usage_errors() {
    for flag in [
        &["--portfolio"][..],
        &["--cube-split", "2"],
        &["--search-threads", "4"],
        &["--restart-base", "16"],
        &["--best-of", "3"],
        &["--out", "snapshot.json"],
    ] {
        let args: Vec<&str> = ["fig9"].iter().chain(flag).copied().collect();
        assert_usage_error(&args, &format!("unknown flag `{}`", flag[0]));
    }
    // The benchmark is acbench; repro has no `bench` command.
    for cmd in ["bench", "bench-parallel"] {
        assert_usage_error(&[cmd], &format!("unknown command `{cmd}`"));
    }
}

#[test]
fn deadline_beyond_a_duration_is_a_usage_error() {
    for secs in ["inf", "1e20"] {
        assert_usage_error(&["fig9", "--scale", "8", "--deadline", secs], "--deadline");
    }
}

#[test]
fn flag_outside_its_command_whitelist_is_rejected() {
    // Valid flags for other commands must not silently no-op.
    assert_usage_error(&["fig5", "--top", "2"], "not valid for `repro fig5`");
    assert_usage_error(
        &["corpus", "run", "--scale", "4"],
        "not valid for `repro corpus`",
    );
    assert_usage_error(
        &["trace-diff", "a.jsonl", "b.jsonl", "--trace-out", "t.jsonl"],
        "not valid for `repro trace-diff`",
    );
    assert_usage_error(&["fig9", "--store-dir", "s"], "not valid for `repro fig9`");
    assert_usage_error(
        &["ablation-normalize", "--threads", "2"],
        "not valid for `repro ablation-normalize`",
    );
}

#[test]
fn corpus_action_typo_is_rejected_not_defaulted() {
    assert_usage_error(&["corpus", "runn"], "unknown corpus action `runn`");
    assert_usage_error(&["corpus"], "corpus needs an action");
}

#[test]
fn corpus_flags_need_their_values() {
    assert_usage_error(
        &["corpus", "run", "--scenario"],
        "--scenario needs a scenario name",
    );
    assert_usage_error(
        &["corpus", "run", "--corpus-dir"],
        "--corpus-dir needs a directory",
    );
}

#[test]
fn corpus_unknown_scenario_is_a_usage_error() {
    assert_usage_error(
        &["corpus", "run", "--scenario", "no-such-scenario"],
        "unknown scenario `no-such-scenario`",
    );
}

#[test]
fn corpus_list_names_every_scenario() {
    let corpus_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let out = repro(&[
        "corpus",
        "list",
        "--corpus-dir",
        corpus_dir.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "corpus list failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["fig1_double_free", "fig2_samate", "function_pointer"] {
        assert!(stdout.contains(name), "missing `{name}` in:\n{stdout}");
    }
}
