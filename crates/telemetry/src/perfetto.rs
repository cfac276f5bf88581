//! Chrome/Perfetto `trace_events` export.
//!
//! Renders an assembled [`Trace`] in the JSON format accepted by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): the span
//! tree becomes nested complete (`"ph":"X"`) slices, solver-query
//! events become instant (`"ph":"i"`) markers, and cumulative solver
//! conflicts are emitted as a counter (`"ph":"C"`) track.
//!
//! Spans carry only *durations* (the deterministic replay-merge never
//! records start timestamps), so start times are synthesized with a
//! preorder logical clock: a span starts where its parent started plus
//! the durations of its earlier siblings. Within one config the stage
//! durations sum to the config duration (and likewise up the tree), so
//! the synthesized slices nest exactly. No `SystemTime` is consulted:
//! two runs of the same workload produce the same event list modulo the
//! measured durations themselves, and a [`TraceRender`] with
//! `zero_times` produces byte-identical output across runs.

use crate::json::{write_attrs, write_str, Value};
use crate::metrics::{Manifest, SCHEMA_VERSION};
use crate::trace::{Trace, TraceRender};

/// The attribute used as a span's display name, per span kind.
fn name_attr(kind: &str) -> Option<&'static str> {
    match kind {
        "procedure" => Some("proc"),
        "config" => Some("label"),
        "stage" => Some("stage"),
        _ => None,
    }
}

fn micros(seconds: f64) -> u64 {
    (seconds * 1e6).round().max(0.0) as u64
}

impl Trace {
    /// Renders the trace as a Chrome/Perfetto `trace_events` JSON
    /// document (see the module docs).
    pub fn to_perfetto(&self, manifest: Option<&Manifest>) -> String {
        self.to_perfetto_with(manifest, TraceRender::default())
    }

    /// [`Trace::to_perfetto`] with redaction options: `zero_times`
    /// zeroes every `ts`/`dur`, `redact` additionally zeroes numeric
    /// argument values (golden-file shape tests).
    pub fn to_perfetto_with(&self, manifest: Option<&Manifest>, opts: TraceRender) -> String {
        let n = self.spans.len();
        // Preorder logical clock: parents precede children in id order
        // (an assemble() invariant), so one forward pass suffices.
        let mut start_us = vec![0u64; n];
        let mut child_cursor_us = vec![0u64; n];
        for (i, s) in self.spans.iter().enumerate().skip(1) {
            let p = s.parent.unwrap_or(0) as usize;
            start_us[i] = start_us[p] + child_cursor_us[p];
            child_cursor_us[p] += micros(s.seconds);
        }
        let mut events_by_span: Vec<Vec<&crate::trace::TraceEvent>> = vec![Vec::new(); n];
        for e in &self.events {
            if let Some(slot) = events_by_span.get_mut(e.span as usize) {
                slot.push(e);
            }
        }

        let ts = |raw: u64| -> u64 {
            if opts.zero_times || opts.redact {
                0
            } else {
                raw
            }
        };
        let render_attrs = |raw: &[(&'static str, Value)]| -> Vec<(&'static str, Value)> {
            if opts.redact {
                raw.iter().map(|(k, v)| (*k, v.zeroed())).collect()
            } else {
                raw.to_vec()
            }
        };

        let mut out = String::new();
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut push_sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('\n');
        };
        let mut conflicts_cum = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            let name = name_attr(s.kind)
                .and_then(|a| Trace::str_attr(s, a))
                .map(|v| format!("{} {v}", s.kind))
                .unwrap_or_else(|| s.kind.to_string());
            push_sep(&mut out);
            out.push_str("{\"name\":");
            write_str(&mut out, &name);
            out.push_str(",\"cat\":");
            write_str(&mut out, s.kind);
            out.push_str(",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":");
            out.push_str(&ts(start_us[i]).to_string());
            out.push_str(",\"dur\":");
            out.push_str(&ts(micros(s.seconds)).to_string());
            out.push_str(",\"args\":");
            write_attrs(&mut out, &render_attrs(&s.attrs));
            out.push('}');

            // Instants (and the conflict counter) laid out sequentially
            // inside the span, in recording order.
            let mut offset_us = 0u64;
            for e in &events_by_span[i] {
                offset_us += micros(e.seconds);
                let at = ts(start_us[i] + offset_us.min(micros(s.seconds)));
                let attrs = render_attrs(&e.attrs);
                push_sep(&mut out);
                out.push_str("{\"name\":");
                write_str(&mut out, e.kind);
                out.push_str(
                    ",\"cat\":\"solver\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":",
                );
                out.push_str(&at.to_string());
                out.push_str(",\"args\":");
                write_attrs(&mut out, &attrs);
                out.push('}');
                if let Some(c) = attrs.iter().find_map(|(k, v)| match v {
                    Value::U64(c) if *k == "conflicts" => Some(*c),
                    _ => None,
                }) {
                    conflicts_cum += c;
                    push_sep(&mut out);
                    out.push_str(
                        "{\"name\":\"solver.conflicts\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":",
                    );
                    out.push_str(&at.to_string());
                    out.push_str(",\"args\":{\"value\":");
                    out.push_str(&conflicts_cum.to_string());
                    out.push_str("}}");
                }
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":");
        out.push_str(&SCHEMA_VERSION.to_string());
        if let Some(m) = manifest {
            out.push_str(",\"manifest\":");
            m.write_json(&mut out);
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuf;
    use acspec_check::json::{parse, Value as Json};

    fn sample() -> Trace {
        let mut b = TraceBuf::new();
        let p = b.push_span(None, "procedure", vec![("proc", "f".into())], 0.3);
        let c = b.push_span(Some(p), "config", vec![("label", "Conc".into())], 0.3);
        let s1 = b.push_span(
            Some(c),
            "stage",
            vec![("stage", "screen".into()), ("queries", 2u64.into())],
            0.1,
        );
        b.push_event(
            s1,
            "solver_query",
            vec![("seq", 0u64.into()), ("conflicts", 5u64.into())],
            0.04,
        );
        b.push_event(
            s1,
            "solver_query",
            vec![("seq", 1u64.into()), ("conflicts", 7u64.into())],
            0.05,
        );
        b.push_span(Some(c), "stage", vec![("stage", "cover".into())], 0.2);
        Trace::assemble("program", vec![("procs", 1u64.into())], vec![b])
    }

    /// The value at `path` (object keys), if every step exists.
    fn at<'a>(v: &'a Json, path: &[&str]) -> Option<&'a Json> {
        path.iter().try_fold(v, |v, k| v.get(k))
    }

    fn int(e: &Json, key: &str) -> i64 {
        e.get(key).and_then(Json::int).expect(key)
    }

    fn text<'a>(e: &'a Json, key: &str) -> Option<&'a str> {
        e.get(key).and_then(Json::str)
    }

    #[test]
    fn perfetto_export_is_valid_and_nests() {
        let t = sample();
        let doc = t.to_perfetto(None);
        let v = parse(&doc).expect("valid JSON");
        let events = at(&v, &["traceEvents"]).and_then(Json::arr).expect("array");
        // 5 spans (root + 4), 2 instants, 2 counter samples.
        assert_eq!(events.len(), 9, "{doc}");
        let slices: Vec<&Json> = events
            .iter()
            .filter(|e| text(e, "ph") == Some("X"))
            .collect();
        assert_eq!(slices.len(), 5);
        assert_eq!(text(slices[0], "name"), Some("program"));
        assert_eq!(text(slices[1], "name"), Some("procedure f"));
        assert_eq!(text(slices[3], "name"), Some("stage screen"));
        // The two stages tile their config: cover starts where screen ends.
        let screen = slices[3];
        let cover = slices[4];
        assert_eq!(int(screen, "ts") + int(screen, "dur"), int(cover, "ts"));
        // Counter track accumulates.
        let counters: Vec<i64> = events
            .iter()
            .filter(|e| text(e, "ph") == Some("C"))
            .map(|e| at(e, &["args", "value"]).and_then(Json::int).unwrap())
            .collect();
        assert_eq!(counters, vec![5, 12]);
        // Instants stay inside their stage slice.
        let instant = events.iter().find(|e| text(e, "ph") == Some("i")).unwrap();
        let ts = int(instant, "ts");
        let s_ts = int(screen, "ts");
        assert!(ts >= s_ts && ts <= s_ts + int(screen, "dur"));
    }

    #[test]
    fn perfetto_redaction_zeroes_times_and_numbers() {
        let t = sample();
        let redacted = t.to_perfetto_with(
            None,
            TraceRender {
                zero_times: true,
                redact: true,
            },
        );
        let v = parse(&redacted).expect("valid JSON");
        for e in at(&v, &["traceEvents"]).and_then(Json::arr).unwrap() {
            assert_eq!(int(e, "ts"), 0, "{e:?}");
            if let Some(q) = at(e, &["args", "queries"]) {
                assert_eq!(q.int(), Some(0));
            }
        }
        // Deterministic: same input, same bytes.
        let again = t.to_perfetto_with(
            None,
            TraceRender {
                zero_times: true,
                redact: true,
            },
        );
        assert_eq!(redacted, again);
    }

    #[test]
    fn manifest_lands_in_other_data() {
        let t = sample();
        let m = Manifest {
            tool: "repro".into(),
            command: "fig9".into(),
            scale: Some(8),
            threads: None,
            configs: vec!["Conc".into()],
            options: vec![],
        };
        let v = parse(&t.to_perfetto(Some(&m))).expect("valid JSON");
        assert_eq!(
            at(&v, &["otherData", "manifest", "tool"]).and_then(Json::str),
            Some("repro")
        );
        assert_eq!(
            at(&v, &["otherData", "schema"]).and_then(Json::int),
            Some(1)
        );
    }
}
