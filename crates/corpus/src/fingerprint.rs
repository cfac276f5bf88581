//! Stable warning fingerprints and the blessed-oracle format.
//!
//! A fingerprint identifies a warning by what the paper's triage ladder
//! says about it — procedure, claim kind (the tag's prefix), full site
//! tag, the abstraction level that first reported it, and that level's
//! MinFail confidence — and deliberately excludes everything unstable
//! (assert ids, witnesses, timings, query counts). Two runs agree on a
//! scenario exactly when their fingerprint sets are equal, so the oracle
//! file is the sorted fingerprint list in a canonical JSON rendering
//! that can be compared byte-for-byte.

use std::collections::BTreeMap;

use acspec_check::json;
use acspec_telemetry::json::write_str;

/// The abstraction-level names a fingerprint can carry, in ladder order:
/// the three evaluated configurations plus `Cons` for warnings only the
/// conservative baseline reports (the paper's *DemonicOnly* bucket).
pub const LEVELS: &[&str] = &["Conc", "A1", "A2", "Cons"];

/// One warning, identified by its stable fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WarningFingerprint {
    /// Procedure that owns the warned assertion.
    pub proc: String,
    /// Full provenance tag (`deref@7`, `pre:free@4`, `fptr@3`, …).
    pub tag: String,
    /// Claim kind: the tag's prefix before `@` (`deref`, `pre:free`, …).
    pub kind: String,
    /// Abstraction level that first claimed the warning (`Conc`, `A1`,
    /// `A2`, or `Cons` for demonic-only warnings).
    pub level: String,
    /// MinFail confidence of the claiming report (0 for `Cons`).
    pub min_fail: usize,
}

/// The claim kind of a tag: everything before the `@` site suffix, or
/// the whole tag when it has none.
pub fn kind_of_tag(tag: &str) -> String {
    tag.split('@').next().unwrap_or(tag).to_string()
}

impl WarningFingerprint {
    /// A fingerprint for `tag` in `proc`, claimed at `level` with the
    /// given MinFail. The kind is derived from the tag.
    pub fn new(proc: &str, tag: &str, level: &str, min_fail: usize) -> WarningFingerprint {
        WarningFingerprint {
            proc: proc.to_string(),
            tag: tag.to_string(),
            kind: kind_of_tag(tag),
            level: level.to_string(),
            min_fail,
        }
    }

    /// One-line human rendering, used verbatim in diagnostics.
    pub fn describe(&self) -> String {
        format!(
            "proc={} kind={} tag={} level={} min_fail={}",
            self.proc, self.kind, self.tag, self.level, self.min_fail
        )
    }
}

/// A set of expected (or produced) warning fingerprints for one
/// scenario — the content of `expected.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Oracle {
    /// The fingerprints, sorted by [`Oracle::normalize`].
    pub warnings: Vec<WarningFingerprint>,
}

impl Oracle {
    /// Sorts the fingerprints into the canonical (proc, tag, …) order.
    pub fn normalize(&mut self) {
        self.warnings.sort();
        self.warnings.dedup();
    }

    /// The canonical JSON rendering: schema header, one warning object
    /// per line, sorted. Byte-stable across runs, so differential legs
    /// can be compared with a string equality.
    pub fn to_canonical_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": 1,\n  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\"proc\": ");
            write_str(&mut s, &w.proc);
            s.push_str(", \"kind\": ");
            write_str(&mut s, &w.kind);
            s.push_str(", \"tag\": ");
            write_str(&mut s, &w.tag);
            s.push_str(", \"level\": ");
            write_str(&mut s, &w.level);
            s.push_str(&format!(", \"min_fail\": {}}}", w.min_fail));
        }
        if !self.warnings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Parses an `expected.json` document. Strict: unknown schema,
    /// missing fields, or a non-ladder level are errors — a corrupted
    /// oracle must fail loudly, not compare as empty.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn parse(text: &str) -> Result<Oracle, String> {
        let v = json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(json::Value::int)
            .ok_or("missing integer field `schema`")?;
        if schema != 1 {
            return Err(format!("unsupported oracle schema {schema} (expected 1)"));
        }
        let warnings = v
            .get("warnings")
            .and_then(json::Value::arr)
            .ok_or("missing array field `warnings`")?;
        let mut out = Oracle::default();
        for (i, w) in warnings.iter().enumerate() {
            let field = |name: &str| -> Result<&str, String> {
                w.get(name)
                    .and_then(json::Value::str)
                    .ok_or(format!("warning {i}: missing string field `{name}`"))
            };
            let proc = field("proc")?;
            let tag = field("tag")?;
            let level = field("level")?;
            if !LEVELS.contains(&level) {
                return Err(format!(
                    "warning {i}: unknown level `{level}` (expected one of {LEVELS:?})"
                ));
            }
            let min_fail = w
                .get("min_fail")
                .and_then(json::Value::usize)
                .ok_or(format!("warning {i}: missing integer field `min_fail`"))?;
            out.warnings
                .push(WarningFingerprint::new(proc, tag, level, min_fail));
        }
        out.normalize();
        Ok(out)
    }

    /// Compares `self` (the blessed oracle) against `actual` (a run's
    /// fingerprints) and returns one precise diagnostic per discrepancy:
    /// missing warnings, unexpected warnings, and — for warnings present
    /// on both sides under the same (proc, tag) — level or MinFail
    /// mismatches called out as such.
    pub fn diff(&self, actual: &Oracle) -> Vec<String> {
        type Key = (String, String);
        let index = |o: &Oracle| -> BTreeMap<Key, Vec<WarningFingerprint>> {
            let mut m: BTreeMap<Key, Vec<WarningFingerprint>> = BTreeMap::new();
            for w in &o.warnings {
                m.entry((w.proc.clone(), w.tag.clone()))
                    .or_default()
                    .push(w.clone());
            }
            m
        };
        let expected = index(self);
        let got = index(actual);
        let mut out = Vec::new();
        for (key, exp) in &expected {
            match got.get(key) {
                None => {
                    for w in exp {
                        out.push(format!("missing expected warning: {}", w.describe()));
                    }
                }
                Some(act) if act != exp => {
                    let show = |ws: &[WarningFingerprint]| {
                        ws.iter()
                            .map(|w| format!("level={} min_fail={}", w.level, w.min_fail))
                            .collect::<Vec<_>>()
                            .join(", ")
                    };
                    out.push(format!(
                        "fingerprint mismatch for proc={} tag={}: expected {}, got {}",
                        key.0,
                        key.1,
                        show(exp),
                        show(act)
                    ));
                }
                Some(_) => {}
            }
        }
        for (key, act) in &got {
            if !expected.contains_key(key) {
                for w in act {
                    out.push(format!("unexpected warning: {}", w.describe()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(proc: &str, tag: &str, level: &str, min_fail: usize) -> WarningFingerprint {
        WarningFingerprint::new(proc, tag, level, min_fail)
    }

    #[test]
    fn kind_is_the_tag_prefix() {
        assert_eq!(kind_of_tag("pre:free@4"), "pre:free");
        assert_eq!(kind_of_tag("deref@12"), "deref");
        assert_eq!(kind_of_tag("fptr@3"), "fptr");
        assert_eq!(kind_of_tag("no-site"), "no-site");
    }

    #[test]
    fn canonical_json_roundtrips() {
        let mut o = Oracle {
            warnings: vec![
                fp("Foo", "pre:free@4", "Conc", 1),
                fp("Bar", "deref@9", "A1", 1),
            ],
        };
        o.normalize();
        let text = o.to_canonical_json();
        let back = Oracle::parse(&text).expect("parses");
        assert_eq!(back, o);
        assert_eq!(back.to_canonical_json(), text, "byte-stable");
    }

    #[test]
    fn empty_oracle_renders_and_parses() {
        let o = Oracle::default();
        let back = Oracle::parse(&o.to_canonical_json()).expect("parses");
        assert!(back.warnings.is_empty());
    }

    #[test]
    fn parse_rejects_bad_levels_and_schemas() {
        assert!(Oracle::parse("{\"schema\": 2, \"warnings\": []}").is_err());
        let bad = "{\"schema\": 1, \"warnings\": [{\"proc\": \"f\", \"tag\": \"t\", \
                   \"level\": \"A7\", \"min_fail\": 1}]}";
        assert!(Oracle::parse(bad).unwrap_err().contains("A7"));
    }

    #[test]
    fn diff_names_each_discrepancy_kind() {
        let expected = Oracle {
            warnings: vec![
                fp("Foo", "pre:free@4", "Conc", 1),
                fp("Foo", "pre:free@5", "A1", 2),
            ],
        };
        let actual = Oracle {
            warnings: vec![
                fp("Foo", "pre:free@5", "A2", 2),
                fp("Bar", "deref@1", "Cons", 0),
            ],
        };
        let d = expected.diff(&actual);
        assert!(
            d.iter()
                .any(|m| m.starts_with("missing expected warning") && m.contains("pre:free@4")),
            "{d:?}"
        );
        assert!(
            d.iter().any(|m| m.starts_with("fingerprint mismatch")
                && m.contains("expected level=A1")
                && m.contains("got level=A2")),
            "{d:?}"
        );
        assert!(
            d.iter()
                .any(|m| m.starts_with("unexpected warning") && m.contains("deref@1")),
            "{d:?}"
        );
        assert!(expected.diff(&expected).is_empty());
    }
}
