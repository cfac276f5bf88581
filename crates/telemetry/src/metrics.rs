//! The metrics registry: named counters, float gauges, fixed-bucket
//! latency histograms, and the schema-versioned JSON snapshot.
//!
//! Everything is keyed by `BTreeMap`, so snapshots are byte-stable for
//! the same inputs — the same determinism discipline as the trace side.

use std::collections::BTreeMap;

use crate::json::{write_f64, write_str, Value};

/// Version stamped into every trace header and metrics snapshot. Bump
/// when a field is renamed, removed, or changes meaning; adding fields
/// is backward-compatible and does not require a bump.
pub const SCHEMA_VERSION: u32 = 1;

/// Default latency buckets (seconds) for query/stage histograms:
/// decades from 10 µs to 100 s, which brackets everything from a cached
/// SAT hit to a worst-case budget-bounded procedure.
pub const LATENCY_BUCKETS: [f64; 8] = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

/// A fixed-bucket histogram. `counts[i]` counts observations `<=
/// bounds[i]`; the final slot counts overflows.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// A histogram over the given upper bounds (must be sorted).
    pub fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds sorted");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Builds a histogram from precomputed bucket counts. `counts`
    /// must have one slot per bound plus a trailing overflow slot; the
    /// total count is their sum. Used to fold fixed-array summaries
    /// (e.g. the CDCL LBD histograms) into the registry without
    /// replaying individual observations.
    pub fn from_parts(bounds: &[f64], counts: &[u64], sum: f64) -> Histogram {
        debug_assert_eq!(counts.len(), bounds.len() + 1, "one count per bucket");
        Histogram {
            bounds: bounds.to_vec(),
            counts: counts.to_vec(),
            sum,
            count: counts.iter().sum(),
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Total of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-bucket counts (last slot = overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Folds another histogram with the same bounds into this one.
    /// Every histogram name has one compile-time bucketing, so the
    /// bounds always agree.
    fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "histogram bounds differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"bounds\":[");
        for (i, b) in self.bounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_f64(out, *b);
        }
        out.push_str("],\"counts\":[");
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_string());
        }
        out.push_str("],\"sum\":");
        write_f64(out, self.sum);
        out.push_str(",\"count\":");
        out.push_str(&self.count.to_string());
        out.push('}');
    }
}

/// What produced a metrics snapshot: tool, subcommand, and the knobs
/// that shaped the run. Stored verbatim in the snapshot so a metrics
/// file is self-describing.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// The binary (`acspec`, `repro`).
    pub tool: String,
    /// The subcommand or input path.
    pub command: String,
    /// Benchmark scale divisor, when applicable.
    pub scale: Option<u64>,
    /// Worker-thread setting, when applicable (`0` = all cores).
    pub threads: Option<u64>,
    /// Configurations analyzed, in order.
    pub configs: Vec<String>,
    /// Free-form `key=value` options (prune level, budgets, …).
    pub options: Vec<(String, String)>,
}

impl Manifest {
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"tool\":");
        write_str(out, &self.tool);
        out.push_str(",\"command\":");
        write_str(out, &self.command);
        out.push_str(",\"scale\":");
        match self.scale {
            Some(s) => out.push_str(&s.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"threads\":");
        match self.threads {
            Some(t) => out.push_str(&t.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"configs\":[");
        for (i, c) in self.configs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(out, c);
        }
        out.push_str("],\"options\":{");
        for (i, (k, v)) in self.options.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(out, k);
            out.push(':');
            write_str(out, v);
        }
        out.push_str("}}");
    }
}

/// Named counters, gauges, and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a counter (created at zero).
    pub fn inc(&mut self, name: &str, delta: u64) {
        if delta != 0 {
            *self.counters.entry(name.to_string()).or_insert(0) += delta;
        } else {
            self.counters.entry(name.to_string()).or_insert(0);
        }
    }

    /// Adds `delta` to a float gauge (created at zero). Used for
    /// accumulated seconds, where a counter's integer granularity would
    /// round everything away.
    pub fn gauge_add(&mut self, name: &str, delta: f64) {
        *self.gauges.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Sets a float gauge to an absolute value (last write wins). Used
    /// for point-in-time readings such as the process gauges, where
    /// summing across workers would be meaningless.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Raises a float gauge to `value` if larger (created at `value`).
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        let g = self.gauges.entry(name.to_string()).or_insert(value);
        if value > *g {
            *g = value;
        }
    }

    /// Stamps the process-level gauges `process.wall_s` (caller-measured
    /// wall time) and `process.maxrss_kb` (peak RSS via [`max_rss_kb`]),
    /// so a `--metrics-out` snapshot says what the whole run cost.
    pub fn record_process_gauges(&mut self, wall_s: f64) {
        self.gauge_set("process.wall_s", wall_s);
        self.gauge_set("process.maxrss_kb", max_rss_kb() as f64);
    }

    /// Records an observation in a histogram with the default
    /// [`LATENCY_BUCKETS`].
    pub fn observe(&mut self, name: &str, value: f64) {
        self.observe_with(name, &LATENCY_BUCKETS, value);
    }

    /// Records an observation in a histogram with explicit buckets
    /// (only used on first creation; later calls reuse the existing
    /// bounds).
    pub fn observe_with(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// A counter's value (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (zero if never touched).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// A histogram, if any observation was recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds one histogram into the registry under `name`.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        match self.histograms.get_mut(name) {
            Some(mine) => mine.merge(h),
            None => {
                self.histograms.insert(name.to_string(), h.clone());
            }
        }
    }

    /// The schema-versioned JSON snapshot: `{"schema":…,"manifest":…,
    /// "counters":…,"gauges":…,"histograms":…}`. Keys are sorted
    /// (`BTreeMap`), so equal registries produce equal bytes.
    pub fn snapshot_json(&self, manifest: Option<&Manifest>) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":");
        out.push_str(&SCHEMA_VERSION.to_string());
        out.push_str(",\"manifest\":");
        match manifest {
            Some(m) => m.write_json(&mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, k);
            out.push(':');
            write_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, k);
            out.push(':');
            h.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

/// Convenience: a `key=value` pair for [`Manifest::options`].
pub fn opt(key: &str, value: impl std::fmt::Display) -> (String, String) {
    (key.to_string(), value.to_string())
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`), or 0 where the procfs field is unavailable.
pub fn max_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Unused-import guard: re-export the attribute value type for callers
/// building manifests and attrs together.
pub type AttrValue = Value;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[0.001, 0.01, 0.1]);
        h.observe(0.0005);
        h.observe(0.005);
        h.observe(0.05);
        h.observe(5.0);
        assert_eq!(h.counts(), &[1, 1, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 5.0555).abs() < 1e-9);
    }

    #[test]
    fn gauge_set_and_max_semantics() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("g", 2.0);
        r.gauge_set("g", 1.0);
        assert!((r.gauge("g") - 1.0).abs() < 1e-12, "last write wins");
        r.gauge_max("m", 3.0);
        r.gauge_max("m", 2.0);
        assert!((r.gauge("m") - 3.0).abs() < 1e-12, "max retained");
    }

    #[test]
    fn process_gauges_are_stamped() {
        let mut r = MetricsRegistry::new();
        r.record_process_gauges(1.25);
        assert!((r.gauge("process.wall_s") - 1.25).abs() < 1e-12);
        // VmHWM is Linux-specific; on Linux any live process has a
        // nonzero high-water mark, elsewhere the gauge reads 0.
        let rss = r.gauge("process.maxrss_kb");
        if cfg!(target_os = "linux") {
            assert!(rss > 0.0, "VmHWM should be readable: {rss}");
        }
        let snap = r.snapshot_json(None);
        assert!(snap.contains("\"process.wall_s\":1.25"), "{snap}");
        assert!(snap.contains("\"process.maxrss_kb\":"), "{snap}");
    }

    #[test]
    fn from_parts_round_trips_counts() {
        let h = Histogram::from_parts(&[1.0, 2.0], &[3, 1, 2], 9.0);
        assert_eq!(h.count(), 6);
        assert_eq!(h.counts(), &[3, 1, 2]);
        assert!((h.sum() - 9.0).abs() < 1e-12);
        let mut sink = Histogram::new(&[1.0, 2.0]);
        sink.merge(&h);
        assert_eq!(sink.count(), 6);
    }

    #[test]
    fn registry_counts_and_snapshots_deterministically() {
        let mut r = MetricsRegistry::new();
        r.inc("solver.queries", 3);
        r.inc("solver.sat", 2);
        r.gauge_add("stage.total_seconds", 0.5);
        r.observe("solver.query_seconds", 0.002);
        let manifest = Manifest {
            tool: "repro".into(),
            command: "fig9".into(),
            scale: Some(8),
            threads: Some(0),
            configs: vec!["Conc".into(), "A1".into()],
            options: vec![opt("budget", 400_000)],
        };
        let a = r.snapshot_json(Some(&manifest));
        let b = r.snapshot_json(Some(&manifest));
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":1,"), "{a}");
        assert!(a.contains("\"solver.queries\":3"), "{a}");
        assert!(a.contains("\"stage.total_seconds\":0.5"), "{a}");
        assert!(a.contains("\"scale\":8"), "{a}");
        assert!(a.contains("\"budget\":\"400000\""), "{a}");
    }
}
