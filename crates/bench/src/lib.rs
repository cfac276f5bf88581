#![warn(missing_docs)]

//! Evaluation engine regenerating the paper's tables.
//!
//! [`evaluate`] runs the ACSpec pipeline over a generated benchmark under
//! every configuration and prune level; the `repro` binary formats the
//! results as Figures 5–9 of the paper. Procedures the conservative
//! verifier labels correct are excluded from all statistics, and
//! procedures that time out in any configuration are excluded from the
//! warning counts and reported in the "TO" column — both exactly as the
//! paper does (§5).

pub mod diff;

use std::collections::BTreeSet;

use acspec_benchgen::suite::{generate_entry, SUITE};
use acspec_benchgen::Benchmark;
use acspec_core::{
    analyze_procedure, AcspecOptions, AnalysisIncident, ConfigName, NullObserver, ProcCerts,
    ProcOutcome, ProcReport, ProgramAnalysis, SessionObserver, SibStatus,
};
use acspec_predabs::normalize::PruneConfig;
use acspec_vcgen::analyzer::AnalyzerConfig;

/// The prune levels of Figure 6: no pruning (`k = ∞`) and `k = 3, 2, 1`.
pub const PRUNE_LEVELS: &[Option<usize>] = &[None, Some(3), Some(2), Some(1)];

/// Evaluation of one procedure: per-configuration, per-prune-level
/// reports plus the conservative baseline.
#[derive(Debug, Clone)]
pub struct ProcEval {
    /// Procedure name.
    pub name: String,
    /// `reports[config][prune_level]`, indexed parallel to `configs` and
    /// [`PRUNE_LEVELS`].
    pub reports: Vec<Vec<ProcReport>>,
    /// The `Cons` baseline.
    pub cons: ProcReport,
    /// True if any configuration (or the baseline) timed out.
    pub timed_out: bool,
}

/// Evaluation of a whole benchmark.
#[derive(Debug, Clone)]
pub struct BenchEval {
    /// Benchmark name.
    pub name: String,
    /// The configurations evaluated (column order of `ProcEval::reports`).
    pub configs: Vec<ConfigName>,
    /// Per-procedure results (correct procedures are skipped entirely).
    pub procs: Vec<ProcEval>,
    /// Procedures the conservative verifier proved correct.
    pub correct_procs: usize,
    /// Procedures that timed out in some configuration.
    pub timeouts: usize,
    /// Procedures whose analysis faulted (panic or error) and was
    /// isolated into an incident instead of aborting the run. Faulted
    /// procedures contribute to no other statistic.
    pub incidents: Vec<AnalysisIncident>,
    /// Per-procedure certificate stores (non-empty only when
    /// [`EvalOptions::certify`] was set). Collected for *every* analyzed
    /// procedure — including ones the conservative verifier proved
    /// correct, whose `cannot_fail` verdicts are certified too.
    pub certs: Vec<ProcCerts>,
}

/// Options for an evaluation run.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Analyzer budget per procedure and configuration.
    pub analyzer: AnalyzerConfig,
    /// Configurations to evaluate.
    pub configs: &'static [ConfigName],
    /// Worker threads (procedures are analyzed independently; results are
    /// deterministic regardless of this setting). `0` = available
    /// parallelism.
    pub threads: usize,
    /// Emit per-verdict certificates (the `--certs-out` sidecar).
    /// Certification replays claim-backing queries into one
    /// proof-logging solver per procedure outside the staged timings,
    /// so reports stay byte-identical.
    pub certify: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            analyzer: AnalyzerConfig {
                conflict_budget: Some(400_000),
                ..AnalyzerConfig::default()
            },
            configs: &ConfigName::LADDER,
            threads: 0,
            certify: false,
        }
    }
}

/// Runs the full evaluation over a benchmark, fanning per-procedure
/// analysis sessions out over [`ProgramAnalysis`]'s worker pool (one
/// encode serves `Cons` and every configuration/prune variant).
/// Results are collected in procedure order, so the output is
/// deterministic regardless of thread count.
pub fn evaluate(bm: &Benchmark, opts: &EvalOptions) -> BenchEval {
    evaluate_with(bm, opts, &mut NullObserver)
}

/// Like [`evaluate`], but streams stage completions to `observer` (in
/// deterministic procedure order) — the data source for `repro fig9`'s
/// per-stage columns. Procedures whose analysis faults (a panic or
/// error, isolated per procedure) are collected in
/// [`BenchEval::incidents`] instead of aborting the evaluation.
pub fn evaluate_with(
    bm: &Benchmark,
    opts: &EvalOptions,
    observer: &mut dyn SessionObserver,
) -> BenchEval {
    let prune_variants: Vec<PruneConfig> = PRUNE_LEVELS
        .iter()
        .map(|k| PruneConfig {
            max_literals: *k,
            no_cross_call_correlations: false,
        })
        .collect();
    let base = AcspecOptions {
        analyzer: opts.analyzer,
        ..AcspecOptions::default()
    };
    let results = ProgramAnalysis::new(&bm.program)
        .options(base)
        .configs(opts.configs)
        .prune_variants(&prune_variants)
        .threads(opts.threads)
        .certify(opts.certify)
        .run(observer);

    let mut procs = Vec::new();
    let mut correct = 0;
    let mut timeouts = 0;
    let mut incidents = Vec::new();
    let mut certs = Vec::new();
    for outcome in results {
        let mut pa = match outcome {
            ProcOutcome::Analyzed(pa) => *pa,
            ProcOutcome::Faulted(incident) => {
                incidents.push(incident);
                continue;
            }
        };
        if let Some(pc) = pa.certs.take() {
            certs.push(pc);
        }
        if pa.cons.status == SibStatus::Correct {
            correct += 1;
            continue;
        }
        let timed_out = pa.timed_out();
        if timed_out {
            timeouts += 1;
        }
        procs.push(ProcEval {
            name: pa.proc_name,
            reports: pa.reports,
            cons: pa.cons,
            timed_out,
        });
    }
    BenchEval {
        name: bm.name.clone(),
        configs: opts.configs.to_vec(),
        procs,
        correct_procs: correct,
        timeouts,
        incidents,
        certs,
    }
}

impl BenchEval {
    /// Total warnings for configuration index `ci` at prune level `ki`,
    /// excluding timed-out procedures (as the paper's Figure 6 does).
    pub fn warning_count(&self, ci: usize, ki: usize) -> usize {
        self.procs
            .iter()
            .filter(|p| !p.timed_out)
            .map(|p| p.reports[ci][ki].warnings.len())
            .sum()
    }

    /// Total `Cons` warnings, excluding timed-out procedures.
    pub fn cons_count(&self) -> usize {
        self.procs
            .iter()
            .filter(|p| !p.timed_out)
            .map(|p| p.cons.warnings.len())
            .sum()
    }

    /// All warning tags reported by configuration `ci` at prune level
    /// `ki` (for ground-truth classification).
    pub fn warning_tags(&self, ci: usize, ki: usize) -> BTreeSet<String> {
        self.procs
            .iter()
            .filter(|p| !p.timed_out)
            .flat_map(|p| p.reports[ci][ki].warnings.iter().map(|w| w.tag.clone()))
            .collect()
    }

    /// All `Cons` warning tags.
    pub fn cons_tags(&self) -> BTreeSet<String> {
        self.procs
            .iter()
            .filter(|p| !p.timed_out)
            .flat_map(|p| p.cons.warnings.iter().map(|w| w.tag.clone()))
            .collect()
    }

    /// Per-procedure averages for Figure 9 (at the unpruned level):
    /// `(predicates, cover clauses, seconds)` for configuration `ci`,
    /// over non-timed-out procedures.
    pub fn averages(&self, ci: usize) -> (f64, f64, f64) {
        let rows: Vec<&ProcReport> = self
            .procs
            .iter()
            .filter(|p| !p.timed_out)
            .map(|p| &p.reports[ci][0])
            .collect();
        if rows.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let n = rows.len() as f64;
        (
            rows.iter()
                .map(|r| r.stats.n_predicates as f64)
                .sum::<f64>()
                / n,
            rows.iter()
                .map(|r| r.stats.n_cover_clauses as f64)
                .sum::<f64>()
                / n,
            rows.iter().map(|r| r.stats.seconds()).sum::<f64>() / n,
        )
    }
}

/// The Normalize ablation (`repro ablation-normalize`): Conc warnings
/// under `k = 1` pruning on ansicon, with `Normalize` on and then off.
/// Procedures that time out count no warnings.
pub fn normalize_ablation(scale: usize) -> [usize; 2] {
    let bm = generate_entry(&SUITE[2], scale);
    [true, false].map(|apply| {
        let mut opts = AcspecOptions::for_config(ConfigName::Conc).with_k_pruning(1);
        opts.apply_normalize = apply;
        bm.program
            .procedures
            .iter()
            .filter(|proc| proc.body.is_some())
            .map(|proc| {
                let r = analyze_procedure(&bm.program, proc, &opts).expect("analyzes");
                if r.timed_out() {
                    0
                } else {
                    r.warnings.len()
                }
            })
            .sum()
    })
}

/// Classification counts against ground truth (Figure 7): correctly
/// classified (`C`), false positives (`FP`), false negatives (`FN`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// Correctly classified assertions.
    pub correct: usize,
    /// Safe assertions reported as warnings.
    pub false_positives: usize,
    /// Buggy assertions not reported.
    pub false_negatives: usize,
}

/// Classifies a set of reported warning tags against ground truth.
pub fn classify(gt: &acspec_benchgen::GroundTruth, reported: &BTreeSet<String>) -> Classification {
    let fp = gt.safe.iter().filter(|t| reported.contains(*t)).count();
    let fn_ = gt.buggy.iter().filter(|t| !reported.contains(*t)).count();
    let total = gt.safe.len() + gt.buggy.len();
    Classification {
        correct: total - fp - fn_,
        false_positives: fp,
        false_negatives: fn_,
    }
}

/// Formats a row-major table with right-aligned columns.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(4)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| (*s).to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use acspec_benchgen::drivers::{generate, PatternMix};

    #[test]
    fn evaluate_small_driver_benchmark() {
        let bm = generate("tiny", 99, 6, PatternMix::default());
        let eval = evaluate(&bm, &EvalOptions::default());
        // Monotonicity across the lattice holds *without* pruning
        // (Proposition 2). With pruning, coarser abstractions can
        // cross over below finer ones — §5.1.1's firefly effect — so no
        // assertion is made at k = 3, 2, 1.
        let conc = eval.warning_count(0, 0);
        let a1 = eval.warning_count(1, 0);
        let a2 = eval.warning_count(2, 0);
        assert!(conc <= a1, "Conc {conc} ≤ A1 {a1} unpruned");
        assert!(a1 <= a2, "A1 {a1} ≤ A2 {a2} unpruned");
        // Pruning monotone per config.
        for ci in 0..3 {
            let counts: Vec<usize> = (0..PRUNE_LEVELS.len())
                .map(|ki| eval.warning_count(ci, ki))
                .collect();
            for w in counts.windows(2) {
                assert!(w[0] <= w[1], "pruning adds warnings: {counts:?}");
            }
        }
    }

    #[test]
    fn classification_counts() {
        let mut gt = acspec_benchgen::GroundTruth::default();
        gt.buggy.insert("a".into());
        gt.buggy.insert("b".into());
        gt.safe.insert("c".into());
        let reported: BTreeSet<String> = ["a", "c"].iter().map(|s| (*s).to_string()).collect();
        let c = classify(&gt, &reported);
        assert_eq!(c.false_positives, 1); // c reported but safe
        assert_eq!(c.false_negatives, 1); // b missed
        assert_eq!(c.correct, 1); // a
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["name", "n"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        assert!(t.contains("longer"));
        assert!(t.lines().count() >= 4);
    }
}
