//! Verdict checks on `acspec --format json` reports: per-file warning
//! digests with their blessed seed-0 goldens, and the corpus triage
//! ladder diffed against the hand-written `expected.json` oracles.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;

use acspec_check::json::{self, Value};
use acspec_corpus::{Oracle, WarningFingerprint};

/// Parses a report document and rejects one that carries incidents (a
/// procedure that panicked or errored is a failed operation).
///
/// # Errors
///
/// Returns a message for output that is not a report or has incidents.
pub fn parse(stdout: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(stdout).map_err(|e| format!("report is not UTF-8: {e}"))?;
    let doc = json::parse(text).map_err(|e| format!("report does not parse: {e}"))?;
    doc.get("reports")
        .and_then(Value::arr)
        .ok_or("report has no `reports` array")?;
    let incidents = doc
        .get("incidents")
        .and_then(Value::arr)
        .ok_or("report has no `incidents` array")?;
    if let Some(first) = incidents.first() {
        return Err(format!(
            "report has {} incident(s): {first:?}",
            incidents.len()
        ));
    }
    Ok(doc)
}

fn reports(doc: &Value) -> &[Value] {
    doc.get("reports").and_then(Value::arr).unwrap_or(&[])
}

/// Renders a value with sorted keys and no whitespace.
fn canonical(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => out.push_str(&f.to_string()),
        Value::Str(s) => {
            let _ = write!(out, "{s:?}");
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                canonical(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{k:?}:");
                canonical(item, out);
            }
            out.push('}');
        }
    }
}

/// The verdict digest of a report: FNV-1a over each report's procedure,
/// label, status, MinFail, outcome and warned assertions with their tags.
/// Witness models, specifications and statistics are left out, so a
/// change that only moves solver models or timings keeps the digest.
pub fn digest(doc: &Value) -> String {
    let mut text = String::new();
    for r in reports(doc) {
        for key in [
            "proc_name",
            "config",
            "status",
            "min_fail",
            "outcome",
            "timeout_stage",
        ] {
            canonical(r.get(key).unwrap_or(&Value::Null), &mut text);
            text.push('\t');
        }
        for w in r.get("warnings").and_then(Value::arr).unwrap_or(&[]) {
            canonical(w.get("assert").unwrap_or(&Value::Null), &mut text);
            text.push(':');
            canonical(w.get("tag").unwrap_or(&Value::Null), &mut text);
            text.push(';');
        }
        text.push('\n');
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The corpus triage ladder rebuilt from a CLI report exactly as
/// `acspec_corpus::runner` builds it from `ProgramAnalysis` output:
/// walking Conc → A1 → A2, the first configuration that reports an
/// assertion claims it at its MinFail; whatever only `Cons` reports is
/// claimed at level `Cons`. Timed-out reports claim nothing.
pub fn ladder(doc: &Value) -> Oracle {
    let field = |r: &Value, k: &str| r.get(k).and_then(Value::str).unwrap_or("").to_string();
    let mut by_proc: BTreeMap<String, Vec<&Value>> = BTreeMap::new();
    let mut order = Vec::new();
    for r in reports(doc) {
        let proc = field(r, "proc_name");
        if !by_proc.contains_key(&proc) {
            order.push(proc.clone());
        }
        by_proc.entry(proc).or_default().push(r);
    }
    let mut oracle = Oracle::default();
    for proc in order {
        let mut claimed = BTreeSet::new();
        for level in ["Conc", "A1", "A2", "Cons"] {
            let Some(r) = by_proc[&proc].iter().find(|r| field(r, "config") == level) else {
                continue;
            };
            if level != "Cons" && r.get("outcome").and_then(Value::str) != Some("Ok") {
                continue;
            }
            let min_fail = r.get("min_fail").and_then(Value::usize).unwrap_or(0);
            for w in r.get("warnings").and_then(Value::arr).unwrap_or(&[]) {
                if claimed.insert(field(w, "assert")) {
                    let tag = field(w, "tag");
                    oracle
                        .warnings
                        .push(WarningFingerprint::new(&proc, &tag, level, min_fail));
                }
            }
        }
    }
    oracle.normalize();
    oracle
}

/// Per-file digests seen in a run, checked against a blessed table or,
/// by default, against the first digest each file produced.
#[derive(Debug, Default)]
pub struct Digests {
    expected: Option<BTreeMap<String, String>>,
    seen: BTreeMap<String, String>,
    bless_to: Option<PathBuf>,
}

impl Digests {
    /// Checks every file against the blessed table `golden` (`name
    /// digest` lines).
    pub fn checking(golden: &str) -> Digests {
        let expected = golden
            .lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(name, d)| (name.to_string(), d.to_string()))
            .collect();
        Digests {
            expected: Some(expected),
            ..Digests::default()
        }
    }

    /// Checks nothing during the run and writes every file's digest to
    /// `path` at its end.
    pub fn blessing(path: PathBuf) -> Digests {
        Digests {
            bless_to: Some(path),
            ..Digests::default()
        }
    }

    /// Records `file`'s digest; `false` on a verdict mismatch.
    pub fn check(&mut self, file: &str, digest: &str) -> bool {
        let want = match &self.expected {
            Some(table) => table.get(file),
            None => self.seen.get(file),
        };
        if want.is_some_and(|w| w != digest) || (want.is_none() && self.expected.is_some()) {
            return false;
        }
        self.seen
            .entry(file.to_string())
            .or_insert_with(|| digest.to_string());
        true
    }

    /// Writes the blessed table when this run re-blesses one.
    ///
    /// # Errors
    ///
    /// Returns a message when the table cannot be written.
    pub fn finish(&self) -> Result<(), String> {
        let Some(path) = &self.bless_to else {
            return Ok(());
        };
        let text: String = self
            .seen
            .iter()
            .map(|(f, d)| format!("{f} {d}\n"))
            .collect();
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "blessed {} digests into {}",
            self.seen.len(),
            path.display()
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
      "schema_version": 3,
      "reports": [
        {"proc_name": "f", "config": "Conc", "status": "Sib", "min_fail": 1,
         "outcome": "Ok", "timeout_stage": null, "stats": {"seconds": 0.5},
         "warnings": [{"assert": "a3", "tag": "deref@4", "witness": {"p": 0}}]},
        {"proc_name": "f", "config": "A1", "status": "Sib", "min_fail": 2,
         "outcome": "Ok", "timeout_stage": null, "stats": {"seconds": 0.25},
         "warnings": [{"assert": "a3", "tag": "deref@4", "witness": null},
                      {"assert": "a5", "tag": "deref@6", "witness": null}]},
        {"proc_name": "f", "config": "Cons", "status": "MayBug", "min_fail": 0,
         "outcome": "Ok", "timeout_stage": null, "stats": {"seconds": 0.1},
         "warnings": [{"assert": "a7", "tag": "deref@8", "witness": null}]}
      ],
      "incidents": []
    }"#;

    #[test]
    fn digest_ignores_stats_and_witnesses_but_not_verdicts() {
        let base = digest(&parse(REPORT.as_bytes()).expect("parses"));
        let retimed = REPORT
            .replace("0.5", "0.75")
            .replace("{\"p\": 0}", "{\"p\": 1}");
        assert_eq!(base, digest(&parse(retimed.as_bytes()).expect("parses")));
        let moved = REPORT.replace("deref@6", "deref@9");
        assert_ne!(base, digest(&parse(moved.as_bytes()).expect("parses")));
    }

    #[test]
    fn incidents_and_garbage_are_failures() {
        let with_incident = REPORT.replace(
            "\"incidents\": []",
            "\"incidents\": [{\"proc_name\": \"f\", \"kind\": \"panic\"}]",
        );
        assert!(parse(with_incident.as_bytes()).is_err());
        assert!(parse(b"{\"reports\": [").is_err());
        assert!(parse(b"[]").is_err());
    }

    #[test]
    fn ladder_claims_each_assertion_once_most_precise_first() {
        let oracle = ladder(&parse(REPORT.as_bytes()).expect("parses"));
        let got: Vec<String> = oracle.warnings.iter().map(|w| w.describe()).collect();
        assert_eq!(
            got,
            [
                "proc=f kind=deref tag=deref@4 level=Conc min_fail=1",
                "proc=f kind=deref tag=deref@6 level=A1 min_fail=2",
                "proc=f kind=deref tag=deref@8 level=Cons min_fail=0",
            ]
        );
    }

    #[test]
    fn a_perturbed_digest_is_a_verdict_mismatch() {
        let golden = "a.c 00000000000000aa\nb.c 00000000000000bb\n";
        let mut digests = Digests::checking(golden);
        assert!(digests.check("a.c", "00000000000000aa"));
        assert!(!digests.check("b.c", "00000000000000ba"), "perturbed");
        assert!(!digests.check("c.c", "00000000000000cc"), "not blessed");

        let mut repeat = Digests::default();
        assert!(repeat.check("a.c", "1111111111111111"));
        assert!(repeat.check("a.c", "1111111111111111"));
        assert!(!repeat.check("a.c", "1111111111111112"), "verdicts moved");
    }
}
