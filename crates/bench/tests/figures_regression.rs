//! Regression pins for the numbers quoted in EXPERIMENTS.md. Corpus
//! generation is seeded, so these counts are exact; if a pipeline change
//! shifts them, EXPERIMENTS.md must be regenerated alongside this test.

use acspec_bench::{classify, evaluate, normalize_ablation, EvalOptions};
use acspec_benchgen::suite::{generate_entry, SUITE};

/// Figure 7 totals: `(C, FP, FN)` per configuration, exactly as quoted.
#[test]
fn figure7_totals_match_experiments_md() {
    let opts = EvalOptions::default();
    let mut totals = [(0usize, 0usize, 0usize); 4];
    for e in SUITE.iter().take(2) {
        // CWE476 and CWE690.
        let bm = generate_entry(e, 1);
        let ev = evaluate(&bm, &opts);
        let gt = bm.ground_truth.as_ref().expect("labeled");
        for (slot, tags) in [
            ev.warning_tags(0, 0),
            ev.warning_tags(1, 0),
            ev.warning_tags(2, 0),
            ev.cons_tags(),
        ]
        .into_iter()
        .enumerate()
        {
            let c = classify(gt, &tags);
            totals[slot].0 += c.correct;
            totals[slot].1 += c.false_positives;
            totals[slot].2 += c.false_negatives;
        }
    }
    assert_eq!(totals[0], (111, 0, 39), "Conc (C, FP, FN)");
    assert_eq!(totals[1], (121, 0, 29), "A1 (C, FP, FN)");
    assert_eq!(totals[2], (121, 14, 15), "A2 (C, FP, FN)");
    assert_eq!(totals[3], (129, 21, 0), "Cons (C, FP, FN)");
}

/// The firefly pruning crossover of Figure 6 (§5.1.1): at `k = 1`,
/// Conc overtakes A1 on the firefly benchmark.
#[test]
fn firefly_crossover_is_stable() {
    let entry = SUITE
        .iter()
        .find(|e| e.name == "firefly")
        .expect("firefly in suite");
    let bm = generate_entry(entry, 1);
    let ev = evaluate(&bm, &EvalOptions::default());
    // Column order: Conc, A1, A2; prune levels: ∞, 3, 2, 1.
    let conc_unpruned = ev.warning_count(0, 0);
    let conc_k1 = ev.warning_count(0, 3);
    let a1_k1 = ev.warning_count(1, 3);
    assert_eq!(conc_unpruned, 0, "unpruned Conc proves firefly's pattern");
    assert!(
        conc_k1 > a1_k1,
        "the crossover: Conc k=1 ({conc_k1}) > A1 k=1 ({a1_k1})"
    );
}

/// The Normalize ablation: at `k = 1`, Conc on ansicon keeps 10 warnings
/// with `Normalize` and 24 without, because pruning then sees only
/// maximal clauses (§4.3).
#[test]
fn normalize_ablation_matches_experiments_md() {
    assert_eq!(
        normalize_ablation(1),
        [10, 24],
        "warnings with, without Normalize"
    );
}
