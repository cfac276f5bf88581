//! `acspec` argument handling: options the CLI does not have are usage
//! errors (exit 2 plus the usage text), never silently ignored.

use std::path::Path;
use std::process::Command;

#[test]
fn retired_search_options_are_usage_errors() {
    let input = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/fig1_double_free/input.acs");
    let input = input.to_str().expect("utf8 path");
    for flag in [
        &["--portfolio"][..],
        &["--cube-split", "2"],
        &["--search-threads", "4"],
        &["--restart-base", "16"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_acspec"))
            .arg(input)
            .args(flag)
            .output()
            .expect("acspec runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "acspec {flag:?} must exit 2\nstderr: {stderr}"
        );
        assert!(
            stderr.contains(&format!("unexpected argument `{}`", flag[0])),
            "acspec {flag:?} must name the rejected option:\n{stderr}"
        );
        assert!(
            stderr.contains("usage: acspec"),
            "acspec {flag:?} must print the usage text:\n{stderr}"
        );
    }
}
