//! Minimal JSON rendering (no dependencies) — the workspace's one JSON
//! writer.
//!
//! The telemetry sinks emit a small, fixed vocabulary of JSON shapes
//! (span lines, metric snapshots), so a hand-rolled writer over
//! [`std::fmt::Write`] is all that is needed — keeping this crate
//! dependency-free so every other crate can afford to link it. Reports,
//! certificates, store payloads and the corpus oracles escape their
//! strings with [`write_str`] too. Reading goes the other way, through
//! `acspec_check::json::parse`, the workspace's one JSON reader.

use std::fmt::Write;

/// An attribute value attached to spans, events, and manifests.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string (JSON-escaped on output).
    Str(String),
    /// An unsigned counter.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point quantity (seconds, ratios).
    F64(f64),
    /// A boolean flag.
    Bool(bool),
}

impl Value {
    /// The same value with numbers replaced by zero (redacted render).
    pub fn zeroed(&self) -> Value {
        match self {
            Value::U64(_) => Value::U64(0),
            Value::I64(_) => Value::I64(0),
            Value::F64(_) => Value::F64(0.0),
            other => other.clone(),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a float. `f64`'s `Display` never produces scientific
/// notation, `NaN`, or `inf` for the finite values telemetry records,
/// so the output is always valid JSON; non-finite values are clamped to
/// `0` defensively.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

/// Appends a [`Value`].
pub fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => write_str(out, s),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(f) => write_f64(out, *f),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

/// Appends `{"k":v,...}` for an attribute list, preserving order.
pub fn write_attrs(out: &mut String, attrs: &[(&'static str, Value)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        write_value(out, v);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_characters_and_quotes() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn floats_render_as_plain_decimals() {
        let mut out = String::new();
        write_f64(&mut out, 0.000123);
        assert_eq!(out, "0.000123");
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "0");
    }

    #[test]
    fn attrs_preserve_order() {
        let mut out = String::new();
        write_attrs(
            &mut out,
            &[("b", Value::U64(2)), ("a", Value::Str("x".into()))],
        );
        assert_eq!(out, "{\"b\":2,\"a\":\"x\"}");
    }

    #[test]
    fn writer_output_reads_back_through_the_checker_reader() {
        use acspec_check::json::{parse, Value as Json};
        let mut out = String::new();
        write_attrs(
            &mut out,
            &[
                ("s", Value::Str("a\"b\\c\nd\t\r\u{1}".into())),
                ("n", Value::U64(42)),
                ("f", Value::F64(0.125)),
                ("whole", Value::F64(2.0)),
                ("neg", Value::I64(-7)),
                ("flag", Value::Bool(true)),
            ],
        );
        let v = parse(&out).expect("writer output parses");
        assert_eq!(v.get("s").and_then(Json::str), Some("a\"b\\c\nd\t\r\u{1}"));
        assert_eq!(v.get("n").and_then(Json::int), Some(42));
        assert_eq!(v.get("f"), Some(&Json::Float(0.125)));
        // An integral float is written without a fraction, so it reads
        // back as an integer.
        assert_eq!(v.get("whole").and_then(Json::int), Some(2));
        assert_eq!(v.get("neg").and_then(Json::int), Some(-7));
        assert_eq!(v.get("flag").and_then(Json::bool), Some(true));
    }
}
