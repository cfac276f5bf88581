//! Consistency of the staged session layer with its one-shot shims:
//!
//! * `analyze_procedure_multi(p, proc, opts, &[k])` produces the same
//!   report as `analyze_procedure` with `opts.prune = k` (property test
//!   over random driver programs and every prune level);
//! * a single shared [`ProcSession`] running `Cons` plus every
//!   configuration and prune variant agrees with fresh per-config shim
//!   calls on the paper's example programs — sharing one encode and one
//!   incremental solver does not change any verdict;
//! * the report JSON (statistics zeroed) is a pure function of the
//!   program: two runs are byte-identical.

use proptest::prelude::*;

use acspec_core::session::ProcSession;
use acspec_core::{
    analyze_procedure, analyze_procedure_multi, cons_baseline, AcspecOptions, ConfigName,
    ProcReport, ReportLabel,
};
use acspec_predabs::normalize::PruneConfig;
use acspec_vcgen::analyzer::AnalyzerConfig;

fn prune_levels() -> Vec<PruneConfig> {
    [None, Some(3), Some(2), Some(1)]
        .iter()
        .map(|k| PruneConfig {
            max_literals: *k,
            no_cross_call_correlations: false,
        })
        .collect()
}

/// (label, status, warnings as (assert, tag), specs, min_fail, timed_out).
type SemanticView = (
    ReportLabel,
    String,
    Vec<(String, String)>,
    Vec<String>,
    usize,
    bool,
);

/// The semantically meaningful fields of a report (timings excluded).
fn semantic_view(r: &ProcReport) -> SemanticView {
    (
        r.config,
        r.status.to_string(),
        r.warnings
            .iter()
            .map(|w| (w.assert.to_string(), w.tag.clone()))
            .collect(),
        r.specs.iter().map(ToString::to_string).collect(),
        r.min_fail,
        r.timed_out(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn multi_with_one_variant_equals_single(seed in 0u64..10_000) {
        let bm = acspec_benchgen::drivers::generate(
            "consistency", seed, 3, acspec_benchgen::drivers::PatternMix::default(),
        );
        for proc in &bm.program.procedures {
            if proc.body.is_none() {
                continue;
            }
            for prune in prune_levels() {
                let mut opts = AcspecOptions::for_config(ConfigName::Conc);
                opts.prune = prune;
                let single = analyze_procedure(&bm.program, proc, &opts).expect("analyzes");
                let multi = analyze_procedure_multi(&bm.program, proc, &opts, &[prune])
                    .expect("analyzes");
                prop_assert_eq!(multi.len(), 1);
                prop_assert_eq!(
                    semantic_view(&single),
                    semantic_view(&multi[0])
                );
                // The single-variant paths issue the same query sequence,
                // so even witnesses must agree exactly.
                prop_assert_eq!(&single.warnings, &multi[0].warnings);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn reports_are_a_pure_function_of_the_program(seed in 0u64..10_000) {
        let bm = acspec_benchgen::drivers::generate(
            "pure", seed, 2, acspec_benchgen::drivers::PatternMix::default(),
        );
        let prune = [PruneConfig::default()];
        for proc in bm.program.procedures.iter().filter(|p| p.body.is_some()).take(2) {
            for config in [ConfigName::Conc, ConfigName::A2] {
                let opts = AcspecOptions::for_config(config);
                let a = analyze_procedure_multi(&bm.program, proc, &opts, &prune)
                    .expect("analyzes");
                let b = analyze_procedure_multi(&bm.program, proc, &opts, &prune)
                    .expect("analyzes");
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    let mut x = x.clone();
                    let mut y = y.clone();
                    x.stats = acspec_core::ProcStats::default();
                    y.stats = acspec_core::ProcStats::default();
                    prop_assert_eq!(x.to_json(), y.to_json(), "nondeterministic report");
                }
            }
        }
    }
}

// The paper's worked examples, shared with the scenario corpus
// (`acspec_corpus::fixtures`).
use acspec_corpus::fixtures::{DOUBLE_FREE, FIGURE1_INLINED, FIGURE2};

#[test]
fn shared_session_matches_fresh_shims_on_paper_examples() {
    let variants = prune_levels();
    for src in [FIGURE1_INLINED, FIGURE2, DOUBLE_FREE] {
        let prog = acspec_ir::parse::parse_program(src).expect("parses");
        let proc = prog
            .procedures
            .iter()
            .find(|p| p.body.is_some())
            .expect("defined procedure")
            .clone();

        // One session: encode once, screen once, run everything.
        let mut session =
            ProcSession::new(&prog, &proc, AnalyzerConfig::default()).expect("encodes");
        let shared_cons = session.cons();
        let shared: Vec<Vec<ProcReport>> = ConfigName::all()
            .into_iter()
            .map(|config| session.run_config(&AcspecOptions::for_config(config), &variants))
            .collect();

        // Fresh shims: a new session (new encode, new solver) per call.
        let fresh_cons = cons_baseline(&prog, &proc, AnalyzerConfig::default()).expect("analyzes");
        assert_eq!(semantic_view(&shared_cons), semantic_view(&fresh_cons));

        for (ci, config) in ConfigName::all().into_iter().enumerate() {
            let opts = AcspecOptions::for_config(config);
            let fresh = analyze_procedure_multi(&prog, &proc, &opts, &variants).expect("analyzes");
            assert_eq!(fresh.len(), shared[ci].len());
            for (f, s) in fresh.iter().zip(&shared[ci]) {
                assert_eq!(
                    semantic_view(f),
                    semantic_view(s),
                    "shared-session report diverged for {config}"
                );
            }
        }
    }
}
