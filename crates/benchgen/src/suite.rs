//! The named benchmark suite mirroring Figure 5.
//!
//! The paper's benchmarks range from 7-procedure WDK samples to a
//! 21,626-procedure Windows driver collection. The generated suite keeps
//! the small benchmarks at their original procedure counts and scales the
//! large anonymized Windows benchmarks down by roughly an order of
//! magnitude (the analysis pipeline is exercised identically; only the
//! table magnitudes shrink). A global `scale` divisor shrinks everything
//! further for quick runs.

use crate::drivers::{generate, PatternMix};
use crate::samate;
use crate::Benchmark;

/// Which part of the evaluation a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteKind {
    /// Labeled SAMATE corpora (Figures 6 and 7).
    Samate,
    /// Small open benchmarks (Figure 6).
    Small,
    /// Large Windows benchmarks (Figures 8 and 9).
    Large,
}

/// A suite entry: name, kind, and generation recipe.
#[derive(Debug, Clone, Copy)]
pub struct SuiteEntry {
    /// Benchmark name (as in Figure 5).
    pub name: &'static str,
    /// Which tables it feeds.
    pub kind: SuiteKind,
    /// Seed for deterministic generation.
    pub seed: u64,
    /// Procedure (or case) count at scale 1.
    pub size: usize,
}

/// The full suite (Figure 5's row names).
pub const SUITE: &[SuiteEntry] = &[
    SuiteEntry {
        name: "CWE476",
        kind: SuiteKind::Samate,
        seed: 476,
        size: 60,
    },
    SuiteEntry {
        name: "CWE690",
        kind: SuiteKind::Samate,
        seed: 690,
        size: 80,
    },
    SuiteEntry {
        name: "ansicon",
        kind: SuiteKind::Small,
        seed: 101,
        size: 29,
    },
    SuiteEntry {
        name: "space",
        kind: SuiteKind::Small,
        seed: 102,
        size: 26,
    },
    SuiteEntry {
        name: "cancel",
        kind: SuiteKind::Small,
        seed: 103,
        size: 9,
    },
    SuiteEntry {
        name: "event",
        kind: SuiteKind::Small,
        seed: 104,
        size: 7,
    },
    SuiteEntry {
        name: "firefly",
        kind: SuiteKind::Small,
        seed: 105,
        size: 9,
    },
    SuiteEntry {
        name: "moufilter",
        kind: SuiteKind::Small,
        seed: 106,
        size: 7,
    },
    SuiteEntry {
        name: "vserial",
        kind: SuiteKind::Small,
        seed: 107,
        size: 23,
    },
    SuiteEntry {
        name: "Drv1",
        kind: SuiteKind::Large,
        seed: 201,
        size: 80,
    },
    SuiteEntry {
        name: "Drv2",
        kind: SuiteKind::Large,
        seed: 202,
        size: 120,
    },
    SuiteEntry {
        name: "Drv3",
        kind: SuiteKind::Large,
        seed: 203,
        size: 20,
    },
    SuiteEntry {
        name: "Drv4",
        kind: SuiteKind::Large,
        seed: 204,
        size: 40,
    },
    SuiteEntry {
        name: "Drv5",
        kind: SuiteKind::Large,
        seed: 205,
        size: 66,
    },
    SuiteEntry {
        name: "Drv6",
        kind: SuiteKind::Large,
        seed: 206,
        size: 49,
    },
    SuiteEntry {
        name: "Drv7",
        kind: SuiteKind::Large,
        seed: 207,
        size: 200,
    },
    SuiteEntry {
        name: "Lib1",
        kind: SuiteKind::Large,
        seed: 208,
        size: 115,
    },
];

/// Generates one suite entry at the given scale divisor (`1` = full).
pub fn generate_entry(entry: &SuiteEntry, scale: usize) -> Benchmark {
    let size = (entry.size / scale.max(1)).max(3);
    match entry.kind {
        SuiteKind::Samate => {
            if entry.name == "CWE476" {
                samate::cwe476(entry.seed, size)
            } else {
                samate::cwe690(entry.seed, size)
            }
        }
        SuiteKind::Small | SuiteKind::Large => {
            // Distinct pattern mixes per benchmark (the paper's
            // benchmarks differ in character: flight software vs console
            // tool vs drivers vs kernel library).
            let mix = match entry.name {
                // The firefly driver exhibits the §5.1.1 pruning
                // crossover prominently.
                "firefly" => PatternMix {
                    firefly: 20,
                    ..PatternMix::default()
                },
                // Flight-control software: loop/buffer heavy, few frees.
                "space" => PatternMix {
                    buffer_corr: 14,
                    double_free_bug: 1,
                    double_free_ok: 1,
                    nested_deref: 4,
                    ..PatternMix::default()
                },
                // Console text processor: defensive macros everywhere.
                "ansicon" => PatternMix {
                    check_field: 14,
                    sl_assert: 8,
                    nested_deref: 4,
                    ..PatternMix::default()
                },
                // WDK samples: dispatch routines with frees.
                "cancel" | "event" | "moufilter" | "vserial" => PatternMix {
                    double_free_bug: 4,
                    double_free_ok: 6,
                    nested_deref: 6,
                    ..PatternMix::default()
                },
                // Kernel library: call-heavy, field-heavy (the paper's A2
                // warning bulge), very defensive.
                "Lib1" => PatternMix {
                    nested_deref: 14,
                    check_field: 10,
                    safe: 18,
                    ..PatternMix::default()
                },
                _ => PatternMix::default(),
            };
            generate(entry.name, entry.seed, size, mix)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_entries_generate_at_small_scale() {
        for e in SUITE {
            let bm = generate_entry(e, 10);
            assert!(bm.proc_count() >= 3, "{} too small", e.name);
            assert!(bm.assert_count() > 0, "{} has no asserts", e.name);
        }
    }

    #[test]
    fn suite_names_match_figure5() {
        let names: Vec<&str> = SUITE.iter().map(|e| e.name).collect();
        for expected in [
            "CWE476",
            "CWE690",
            "ansicon",
            "space",
            "cancel",
            "event",
            "firefly",
            "moufilter",
            "vserial",
            "Drv1",
            "Drv7",
            "Lib1",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }
}
