//! End-to-end certificate tests: the analysis produces `--certs-out`
//! documents that the independent `acspec-check` crate accepts in full,
//! and single-field mutations (a flipped model bit, a negated literal in
//! a procedure's shared proof log, a guarded clause missing from its
//! certificate's blocking list) are rejected.
//!
//! The producer and the checker share no code — `acspec-check` has no
//! dependencies at all — so these tests exercise the whole trust chain:
//! engine serialization, the JSON writer, the checker's parser, and its
//! model-evaluation / proof-replay re-validation.

use proptest::prelude::*;

use acspec_bench::{evaluate_with, EvalOptions};
use acspec_benchgen::suite::{generate_entry, SuiteKind, SUITE};
use acspec_check::check_document;
use acspec_repro::core::{
    certs_json, AcspecOptions, ConfigName, NullObserver, ProcCerts, ProcOutcome, ProgramAnalysis,
    SessionObserver,
};
use acspec_repro::ir::parse::parse_program;
use acspec_repro::vcgen::chaos::ChaosConfig;
use acspec_repro::vcgen::{CertEvent, CertOutcome};

/// Analyzes every procedure of `src` under `configs` with certification
/// on and returns the collected per-procedure certificate stores.
fn certify_source(src: &str, configs: &[ConfigName], chaos: Option<ChaosConfig>) -> Vec<ProcCerts> {
    let program = parse_program(src).expect("parses");
    let mut opts = AcspecOptions::for_config(configs[0]);
    opts.analyzer.chaos = chaos;
    let mut null = NullObserver;
    let observer: &mut dyn SessionObserver = &mut null;
    let results = ProgramAnalysis::new(&program)
        .options(opts)
        .configs(configs)
        .certify(true)
        .run(observer);
    results
        .into_iter()
        .filter_map(|o| match o {
            ProcOutcome::Analyzed(mut pa) => pa.certs.take(),
            ProcOutcome::Faulted(_) => None,
        })
        .collect()
}

/// A program with a doomed null deref (SIB), a correct procedure, and a
/// may-fail one: exercises sat and unsat certificates, cube claims,
/// exhaustion proofs, and weakening chains in one document.
const MIXED_SRC: &str = "
    procedure malloc() returns (r: int);
    procedure doomed() {
      var p: int;
      call p := malloc();
      if (p == 0) {
        assert p != 0;
        skip;
      }
    }
    procedure solid(n: int) {
      var x: int;
      x := n;
      assert x == n;
    }
    procedure shaky(n: int) {
      var x: int;
      x := n;
      if (n > 0) {
        x := x + 1;
      }
      assert x > 0;
    }
";

#[test]
fn clean_certificates_all_check() {
    let certs = certify_source(MIXED_SRC, &ConfigName::all(), None);
    let doc = certs_json(&certs);
    let sum = check_document(&doc);
    assert!(sum.ok(), "clean document must check: {:?}", sum.errors);
    let produced: usize = certs.iter().map(|p| p.store.certs.len()).sum();
    assert_eq!(sum.certs, produced, "every certificate examined");
    assert!(sum.sat_certs > 0 && sum.unsat_certs > 0, "{sum:?}");
    assert!(sum.claims > 0, "claims were threaded through");
}

/// Flips one boolean (or bumps one integer) in the first `Sat` model.
fn flip_model_bit(certs: &mut [ProcCerts]) -> bool {
    for pc in certs.iter_mut() {
        for c in &mut pc.store.certs {
            if let CertOutcome::Sat(m) = &mut c.outcome {
                if let Some(v) = m.bools.values_mut().next() {
                    *v = !*v;
                    return true;
                }
                if let Some(v) = m.ints.values_mut().next() {
                    *v = v.wrapping_add(1);
                    return true;
                }
            }
        }
    }
    false
}

/// Negates the first literal of the first non-empty input clause in the
/// shared proof log of the first procedure with an `Unsat` certificate.
fn negate_proof_lit(certs: &mut [ProcCerts]) -> bool {
    for pc in certs.iter_mut() {
        let proved = pc
            .store
            .certs
            .iter()
            .any(|c| matches!(c.outcome, CertOutcome::Unsat(_)));
        if !proved {
            continue;
        }
        for e in &mut pc.store.log {
            if let CertEvent::Input { lits, .. } = e {
                if let Some(l) = lits.first_mut() {
                    *l = -*l;
                    return true;
                }
            }
        }
    }
    false
}

/// Drops one clause from the blocking list of the first `Unsat`
/// certificate that has any: its assumed guard still enables that
/// clause in the shared log, so the claim no longer states everything
/// the proof used.
fn drop_blocking(certs: &mut [ProcCerts]) -> bool {
    for pc in certs.iter_mut() {
        for c in &mut pc.store.certs {
            if matches!(c.outcome, CertOutcome::Unsat(_)) && !c.blocking.is_empty() {
                c.blocking.remove(0);
                return true;
            }
        }
    }
    false
}

#[test]
fn mutated_certificates_are_rejected() {
    let clean = certify_source(MIXED_SRC, &ConfigName::all(), None);
    assert!(check_document(&certs_json(&clean)).ok());

    type Mutator = fn(&mut [ProcCerts]) -> bool;
    let mutations: [(&str, Mutator, &str); 3] = [
        ("model bit flip", flip_model_bit, "false under the model"),
        ("proof literal negation", negate_proof_lit, "log event"),
        (
            "blocking clause drop",
            drop_blocking,
            "guarded by assumed guard",
        ),
    ];
    for (what, mutate, diagnostic) in mutations {
        let mut doc = clean.clone();
        assert!(mutate(&mut doc), "{what}: no mutation site found");
        let sum = check_document(&certs_json(&doc));
        assert!(!sum.ok(), "{what} must be detected");
        assert!(
            sum.errors.iter().any(|e| e.contains(diagnostic)),
            "{what}: no `{diagnostic}` diagnostic in {:?}",
            sum.errors
        );
    }
}

/// The large-benchmark suite (the figure 8/9 workload, scaled down to
/// keep the test fast): every certificate the evaluation emits checks,
/// and a bit flip in that document is caught too.
#[test]
fn suite_certificates_accept_and_reject_bit_flips() {
    let entry = SUITE
        .iter()
        .find(|e| e.kind == SuiteKind::Large)
        .expect("suite has large benchmarks");
    let bm = generate_entry(entry, 64);
    let opts = EvalOptions {
        certify: true,
        ..EvalOptions::default()
    };
    let mut null = NullObserver;
    let mut ev = evaluate_with(&bm, &opts, &mut null);
    assert!(!ev.certs.is_empty(), "evaluation produced certificates");
    let sum = check_document(&certs_json(&ev.certs));
    assert!(sum.ok(), "suite certs must check: {:?}", sum.errors);
    assert!(sum.sat_certs > 0 && sum.unsat_certs > 0, "{sum:?}");

    assert!(flip_model_bit(&mut ev.certs) || negate_proof_lit(&mut ev.certs));
    assert!(!check_document(&certs_json(&ev.certs)).ok());
}

/// See `crates/core/tests/fault_tolerance.rs`: keeps the default
/// panic-hook spam off stderr for the chaos harness's injected panics.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("chaos:"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Fault injection must not leak unverifiable evidence: whatever
/// certificates survive a chaotic run still check. (Faulted procedures
/// produce incidents, not certificates; degraded ones only certify the
/// claims they actually re-proved.)
#[test]
fn chaos_runs_emit_only_checkable_certificates() {
    silence_injected_panics();
    for seed in [3u64, 17, 40] {
        let chaos = ChaosConfig::new(seed, 0.25);
        let certs = certify_source(MIXED_SRC, &ConfigName::all(), Some(chaos));
        let sum = check_document(&certs_json(&certs));
        assert!(
            sum.ok(),
            "chaos seed {seed}: unverifiable certificate leaked: {:?}",
            sum.errors
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Round trip: generated driver programs → certify → serialize →
    /// independent parse + re-validation, across random seeds and
    /// procedure counts.
    #[test]
    fn generated_programs_round_trip(seed in 0u64..10_000, procs in 1usize..5) {
        let bm = acspec_benchgen::drivers::generate(
            "certs-prop",
            seed,
            procs,
            acspec_benchgen::drivers::PatternMix::default(),
        );
        let opts = EvalOptions {
            certify: true,
            ..EvalOptions::default()
        };
        let mut null = NullObserver;
        let ev = evaluate_with(&bm, &opts, &mut null);
        let doc = certs_json(&ev.certs);
        let sum = check_document(&doc);
        prop_assert!(sum.ok(), "seed {seed}: {:?}", sum.errors);
        let produced: usize = ev.certs.iter().map(|p| p.store.certs.len()).sum();
        prop_assert_eq!(sum.certs, produced);
        // Serialization is deterministic: same stores, same bytes.
        prop_assert_eq!(doc, certs_json(&ev.certs));
    }
}
