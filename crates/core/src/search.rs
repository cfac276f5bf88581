//! `FindAlmostCorrectSpecs` (Algorithm 2): greedy weakening of the
//! predicate cover with pruning on the failure count.

use std::collections::{BTreeSet, HashMap};

use acspec_ir::locs::LocId;
use acspec_smt::TermId;
use acspec_vcgen::analyzer::{ProcAnalyzer, Selector};
use acspec_vcgen::FaultReason;

/// How "creates dead code" is decided during the search (§2.3: the
/// definition of `Dead` is a parameter). Baselines are computed under
/// `true` by the caller so the search only compares against them.
#[derive(Debug, Clone)]
pub enum DeadCheck {
    /// Branch coverage: a tracked location unreachable beyond
    /// `baseline_dead` (= `Dead(true)`, removed from `Locs` per §2.3).
    Branch {
        /// `Dead(true)`.
        baseline_dead: BTreeSet<LocId>,
    },
    /// Path coverage: a path profile feasible under `true` that the
    /// specification makes infeasible.
    Path {
        /// The profiles feasible under `true`.
        baseline_profiles: BTreeSet<Vec<bool>>,
        /// Enumeration cap per query (exceeding counts as a timeout).
        cap: usize,
    },
}

/// Why a clause subset was judged to create dead code — the evidence a
/// weakening-chain certificate grounds each step in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadEvidence {
    /// The subset's conjunction selects no input states at all (the
    /// paper's `WP ≡ ∅` special case); certified by an Unsat proof of
    /// the subset's selectors.
    Inconsistent,
    /// This tracked location became unreachable; certified by an Unsat
    /// proof of `reach(loc)` under the subset's selectors.
    DeadLoc(LocId),
    /// A baseline-feasible path profile disappeared (path metric). Not
    /// certifiable per location — the chain step is structural only.
    Path,
    /// Superset of a subset already known dead (§2.3 monotonicity via
    /// the dominance lattice). Grounded by the referenced subset's own
    /// direct evidence.
    Dominated(Vec<u32>),
}

/// One step of Algorithm 2's greedy weakening: `subset` was still too
/// strong (see the matching [`DeadEvidence`]) and `removed` was dropped
/// from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStep {
    /// The dead subset this step weakened (sorted clause indices).
    pub subset: Vec<u32>,
    /// The clause index removed by this step.
    pub removed: u32,
}

/// Result of the Algorithm 2 search (before `Normalize`/`PruneClauses`).
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Whether the *root* cover created dead code — i.e. the procedure
    /// has an (abstract) SIB (Definition 3).
    pub root_dead: bool,
    /// The minimum failure count over minimal weakenings (`MinFail`).
    pub min_fail: usize,
    /// The output set `U`: clause subsets (indices into the cover) that
    /// kill no code and induce exactly `min_fail` failures.
    pub specs: Vec<BTreeSet<u32>>,
    /// Clause subsets evaluated (statistics).
    pub nodes_visited: usize,
    /// Per-spec weakening chain, parallel to `specs`: the one-clause
    /// removals leading from the full cover down to the spec. Empty for
    /// the `root_dead = false` case (the cover itself is the spec).
    pub chains: Vec<Vec<ChainStep>>,
    /// Dead-verdict evidence for every subset appearing in a chain,
    /// sorted by subset for determinism.
    pub dead_evidence: Vec<(Vec<u32>, DeadEvidence)>,
}

/// Is sorted `a` a subset of sorted `b` (clause-index sets)?
fn ids_subset(a: &[u32], b: &[u32]) -> bool {
    a.len() <= b.len() && {
        let mut bi = b.iter().peekable();
        a.iter().all(|x| {
            while let Some(&&y) = bi.peek() {
                bi.next();
                match y.cmp(x) {
                    std::cmp::Ordering::Less => {}
                    std::cmp::Ordering::Equal => return true,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            false
        })
    }
}

/// Evaluator for clause subsets with memoization and early-exit counting.
///
/// With the analyzer's dominance cache enabled, §2.3 monotonicity is
/// also applied at the subset level (strengthening/weakening in the
/// clause lattice mirrors it): a subset of a dead-free set is dead-free
/// (`Dead(⋀S) = ∅ ∧ S' ⊆ S ⇒ Dead(⋀S') = ∅`), a superset of a dead set
/// is dead (including the inconsistent-spec case), and an early-exited
/// failure count is a lower bound for every subset
/// (`S' ⊆ S ⇒ |Fail(⋀S')| ≥ |Fail(⋀S)|`), tightening the `cap` pruning
/// before any per-location query is issued. Disabled together with the
/// cache so `--no-query-cache` reproduces the uncached query sequence.
struct SubsetEval<'a> {
    az: &'a mut ProcAnalyzer,
    selectors: &'a [Selector],
    dead_check: &'a DeadCheck,
    locs: Vec<LocId>,
    asserts: Vec<acspec_ir::stmt::AssertId>,
    dead_memo: HashMap<Vec<u32>, bool>,
    fail_memo: HashMap<Vec<u32>, usize>,
    use_lattice: bool,
    /// Maximal known dead-free subsets.
    dead_free: Vec<Vec<u32>>,
    /// Minimal known dead subsets.
    deadly: Vec<Vec<u32>>,
    /// `(subset, lower bound on |Fail(⋀subset)|)` from early exits.
    fail_floors: Vec<(Vec<u32>, usize)>,
    /// Why each dead subset was judged dead (first verdict wins; the
    /// memo guarantees one verdict per subset).
    evidence: HashMap<Vec<u32>, DeadEvidence>,
}

impl SubsetEval<'_> {
    fn active(&self, subset: &BTreeSet<u32>) -> Vec<Selector> {
        subset.iter().map(|&i| self.selectors[i as usize]).collect()
    }

    /// `Dead(⋀subset) ≠ ∅` modulo the `true`-baseline (§2.3). An
    /// *unsatisfiable* specification counts as dead: the paper treats
    /// `WP(pr) ≡ ∅` as the special SIB case where `Dead` contains every
    /// statement (§3.1), which matters for straight-line procedures with
    /// no tracked branch locations.
    fn has_dead(&mut self, subset: &BTreeSet<u32>) -> Result<bool, FaultReason> {
        let key: Vec<u32> = subset.iter().copied().collect();
        if let Some(&v) = self.dead_memo.get(&key) {
            return Ok(v);
        }
        if self.use_lattice {
            if self.dead_free.iter().any(|s| ids_subset(&key, s)) {
                self.dead_memo.insert(key, false);
                return Ok(false);
            }
            if let Some(base) = self.deadly.iter().find(|s| ids_subset(s, &key)) {
                self.evidence
                    .insert(key.clone(), DeadEvidence::Dominated(base.clone()));
                self.dead_memo.insert(key, true);
                return Ok(true);
            }
        }
        let active = self.active(subset);
        let mut result = !self.az.is_consistent(&active, &[])?;
        if result {
            self.evidence
                .insert(key.clone(), DeadEvidence::Inconsistent);
        } else {
            match self.dead_check {
                DeadCheck::Branch { baseline_dead } => {
                    for &l in &self.locs {
                        if baseline_dead.contains(&l) {
                            continue;
                        }
                        if !self.az.is_reachable(l, &active)? {
                            result = true;
                            self.evidence.insert(key.clone(), DeadEvidence::DeadLoc(l));
                            break;
                        }
                    }
                }
                DeadCheck::Path {
                    baseline_profiles,
                    cap,
                } => {
                    let profiles = self.az.path_profiles(&active, *cap)?;
                    result = baseline_profiles.difference(&profiles).next().is_some();
                    if result {
                        self.evidence.insert(key.clone(), DeadEvidence::Path);
                    }
                }
            }
        }
        if self.use_lattice {
            if result {
                if !self.deadly.iter().any(|s| ids_subset(s, &key)) {
                    self.deadly.retain(|s| !ids_subset(&key, s));
                    self.deadly.push(key.clone());
                }
            } else if !self.dead_free.iter().any(|s| ids_subset(&key, s)) {
                self.dead_free.retain(|s| !ids_subset(s, &key));
                self.dead_free.push(key.clone());
            }
        }
        self.dead_memo.insert(key, result);
        Ok(result)
    }

    /// `|Fail(⋀subset)|`, stopping early once the count exceeds `cap`.
    /// Values above `cap` are reported as `cap + 1` and not memoized
    /// exactly (the partial count becomes a lattice lower bound).
    fn fail_count(&mut self, subset: &BTreeSet<u32>, cap: usize) -> Result<usize, FaultReason> {
        let key: Vec<u32> = subset.iter().copied().collect();
        if let Some(&v) = self.fail_memo.get(&key) {
            return Ok(v);
        }
        if self.use_lattice {
            // A floor recorded for a superset bounds this subset from
            // below; past the cap the exact count is irrelevant.
            if self
                .fail_floors
                .iter()
                .any(|(s, f)| *f > cap && ids_subset(&key, s))
            {
                return Ok(cap + 1);
            }
        }
        let active = self.active(subset);
        let mut count = 0;
        for &a in &self.asserts.clone() {
            if self.az.can_fail(a, &active)? {
                count += 1;
                if count > cap {
                    if self.use_lattice {
                        self.fail_floors.push((key, count));
                    }
                    return Ok(count);
                }
            }
        }
        self.fail_memo.insert(key, count);
        Ok(count)
    }
}

/// Runs Algorithm 2 over an installed predicate cover with the
/// branch-coverage dead metric (the paper's default).
///
/// `selectors` are the per-clause selectors (from
/// [`acspec_predabs::Cover::install_selectors`]); `baseline_dead` is
/// `Dead(true)`, removed from the tracked locations per §2.3.
///
/// # Errors
///
/// Returns the [`FaultReason`] if a query gave up, or
/// [`FaultReason::Cap`] past `max_nodes` visited subsets.
pub fn find_almost_correct_specs(
    az: &mut ProcAnalyzer,
    selectors: &[Selector],
    baseline_dead: &BTreeSet<LocId>,
    max_nodes: usize,
) -> Result<SearchOutcome, FaultReason> {
    let check = DeadCheck::Branch {
        baseline_dead: baseline_dead.clone(),
    };
    find_almost_correct_specs_with(az, selectors, &check, max_nodes, None)
}

/// Decides `⋀a ⇒ ⋀b` for clause subsets via the solver, given each
/// clause's body term.
fn subset_implies(
    az: &mut ProcAnalyzer,
    selectors: &[Selector],
    bodies: &[TermId],
    a: &BTreeSet<u32>,
    b: &BTreeSet<u32>,
) -> Result<bool, FaultReason> {
    if b.is_subset(a) {
        return Ok(true); // syntactic: more clauses is stronger
    }
    let active: Vec<Selector> = a.iter().map(|&i| selectors[i as usize]).collect();
    let parts: Vec<TermId> = b.iter().map(|&i| bodies[i as usize]).collect();
    let conj = az.ctx.mk_and(parts);
    let neg = az.ctx.mk_not(conj);
    Ok(!az.is_consistent(&active, &[neg])?)
}

/// Runs Algorithm 2 under an explicit [`DeadCheck`] metric.
///
/// When `clause_bodies` is supplied, the output set is filtered to its
/// *strongest* members (Definition 4's minimal-weakening condition): the
/// greedy search can reach a given dead-free subset through different
/// weakening orders, some of which pass through a strictly stronger
/// dead-free subset; those non-minimal weakenings are removed so Theorem
/// 1's `Find ⊆ AlmostCorrectSpecs` inclusion holds. Without bodies the
/// raw listing's output is returned.
///
/// # Errors
///
/// Returns the [`FaultReason`] if a query gave up, or
/// [`FaultReason::Cap`] past `max_nodes` visited subsets.
pub fn find_almost_correct_specs_with(
    az: &mut ProcAnalyzer,
    selectors: &[Selector],
    dead_check: &DeadCheck,
    max_nodes: usize,
    clause_bodies: Option<&[TermId]>,
) -> Result<SearchOutcome, FaultReason> {
    find_almost_correct_specs_salvaging(
        az,
        selectors,
        dead_check,
        max_nodes,
        clause_bodies,
        &mut None,
    )
}

/// Like [`find_almost_correct_specs_with`], but on `Err` deposits the
/// best candidate weakening found so far into `salvage`: the dead-free
/// subsets achieving the lowest failure count seen before the budget,
/// deadline, or node cap hit. These are genuine (if possibly
/// non-minimal) candidate weakenings — every salvaged subset killed no
/// code and failed exactly the salvaged `min_fail` assertions — so a
/// degradation ladder can evaluate them instead of reporting nothing.
/// `salvage` stays `None` when the search had found no dead-free subset
/// yet.
///
/// # Errors
///
/// Returns the [`FaultReason`] if a query gave up (budget, deadline or
/// an injected fault), or [`FaultReason::Cap`] past `max_nodes` visited
/// subsets.
pub fn find_almost_correct_specs_salvaging(
    az: &mut ProcAnalyzer,
    selectors: &[Selector],
    dead_check: &DeadCheck,
    max_nodes: usize,
    clause_bodies: Option<&[TermId]>,
    salvage: &mut Option<SearchOutcome>,
) -> Result<SearchOutcome, FaultReason> {
    let locs = az.locations();
    let asserts = az.assertions();
    let n_asserts = asserts.len();
    let use_lattice = az.cache_enabled();
    let mut eval = SubsetEval {
        az,
        selectors,
        dead_check,
        locs,
        asserts,
        dead_memo: HashMap::new(),
        fail_memo: HashMap::new(),
        use_lattice,
        dead_free: Vec::new(),
        deadly: Vec::new(),
        fail_floors: Vec::new(),
        evidence: HashMap::new(),
    };

    let full: BTreeSet<u32> = (0..selectors.len() as u32).collect();
    let mut nodes_visited = 1;

    // Lines 2–4: no dead code under the cover → the cover itself is the
    // almost-correct specification (k = 0).
    if !eval.has_dead(&full)? {
        return Ok(SearchOutcome {
            root_dead: false,
            min_fail: 0,
            specs: vec![full],
            nodes_visited,
            chains: vec![Vec::new()],
            dead_evidence: Vec::new(),
        });
    }

    // Lines 5–32: greedy weakening.
    let mut frontier: Vec<BTreeSet<u32>> = vec![full];
    let mut visited: BTreeSet<BTreeSet<u32>> = BTreeSet::new();
    let mut output: Vec<BTreeSet<u32>> = Vec::new();
    let mut min_fail = n_asserts;
    // First-discovered parent of each visited subset: which frontier
    // member it was weakened from and the clause removed. Walked
    // backwards to reconstruct each spec's weakening chain.
    let mut parents: HashMap<Vec<u32>, (Vec<u32>, u32)> = HashMap::new();

    // On any abort below, snapshot the best-so-far output into the
    // caller's salvage slot and propagate the fault.
    macro_rules! abort_salvaging {
        ($t:expr, $output:expr, $min_fail:expr, $nodes:expr) => {{
            let mut best: Vec<BTreeSet<u32>> = $output.clone();
            best.sort();
            best.dedup();
            if !best.is_empty() {
                let chains: Vec<Vec<ChainStep>> = best
                    .iter()
                    .map(|s| build_chain(&parents, &eval.evidence, s))
                    .collect();
                let dead_evidence = collect_evidence(&chains, &eval.evidence);
                *salvage = Some(SearchOutcome {
                    root_dead: true,
                    min_fail: $min_fail,
                    specs: best,
                    nodes_visited: $nodes,
                    chains,
                    dead_evidence,
                });
            }
            return Err($t);
        }};
    }

    while let Some(c1) = frontier.pop() {
        for c in c1.iter().copied().collect::<Vec<_>>() {
            let mut c2 = c1.clone();
            c2.remove(&c);
            if !visited.insert(c2.clone()) {
                continue; // line 13–15: already visited
            }
            parents.insert(
                c2.iter().copied().collect(),
                (c1.iter().copied().collect(), c),
            );
            nodes_visited += 1;
            if nodes_visited > max_nodes {
                abort_salvaging!(FaultReason::Cap, output, min_fail, nodes_visited);
            }
            // Lines 17–19: MinFail can only decrease.
            let fail = match eval.fail_count(&c2, min_fail) {
                Ok(fail) => fail,
                Err(t) => abort_salvaging!(t, output, min_fail, nodes_visited),
            };
            if fail > min_fail {
                continue;
            }
            let dead = match eval.has_dead(&c2) {
                Ok(dead) => dead,
                Err(t) => abort_salvaging!(t, output, min_fail, nodes_visited),
            };
            if dead {
                frontier.push(c2); // line 20–21: still too strong
            } else if fail == 0 {
                // Line 22–23 (semantically unreachable for strict
                // weakenings of the cover — kept for fidelity to the
                // paper's listing).
                frontier.push(c2);
            } else if fail == min_fail {
                output.push(c2); // line 24–25
            } else {
                // Lines 27–29: strictly better; flush the output set.
                min_fail = fail;
                output = vec![c2];
            }
        }
    }

    output.sort();
    output.dedup();
    // Minimality filter (Definition 4, condition 4): drop members
    // strictly implied by another member.
    if let Some(bodies) = clause_bodies {
        let mut keep = vec![true; output.len()];
        for i in 0..output.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..output.len() {
                if i == j || !keep[j] {
                    continue;
                }
                // Drop output[i] when output[j] is strictly stronger.
                // A timeout here salvages the unfiltered output: its
                // members are dead-free and achieve `min_fail`, just
                // possibly not all minimal.
                let j_implies_i =
                    match subset_implies(eval.az, selectors, bodies, &output[j], &output[i]) {
                        Ok(v) => v,
                        Err(t) => abort_salvaging!(t, output, min_fail, nodes_visited),
                    };
                if !j_implies_i {
                    continue;
                }
                let i_implies_j =
                    match subset_implies(eval.az, selectors, bodies, &output[i], &output[j]) {
                        Ok(v) => v,
                        Err(t) => abort_salvaging!(t, output, min_fail, nodes_visited),
                    };
                if !i_implies_j {
                    keep[i] = false;
                    break;
                }
            }
        }
        output = output
            .into_iter()
            .zip(keep)
            .filter_map(|(s, k)| k.then_some(s))
            .collect();
    }
    // `min_fail` may still be the |Asserts| sentinel if no weakening
    // reached Dead = ∅ within the lattice (only possible when the output
    // is empty, e.g. every subset keeps dead code until `true`, which
    // fails everything and is recorded like any other subset).
    let chains: Vec<Vec<ChainStep>> = output
        .iter()
        .map(|s| build_chain(&parents, &eval.evidence, s))
        .collect();
    let dead_evidence = collect_evidence(&chains, &eval.evidence);
    Ok(SearchOutcome {
        root_dead: true,
        min_fail,
        specs: output,
        nodes_visited,
        chains,
        dead_evidence,
    })
}

/// Reconstructs the weakening chain for `spec` by walking the parent
/// map up to the full cover, in root-to-spec order. A chain is only
/// emitted when *every* intermediate subset has a dead verdict on
/// record — a parent pushed by the `fail == 0` fidelity branch of the
/// paper's listing is not dead, so its chain is ungrounded and an empty
/// chain is returned instead (the certificate layer skips it).
fn build_chain(
    parents: &HashMap<Vec<u32>, (Vec<u32>, u32)>,
    evidence: &HashMap<Vec<u32>, DeadEvidence>,
    spec: &BTreeSet<u32>,
) -> Vec<ChainStep> {
    let mut steps = Vec::new();
    let mut cur: Vec<u32> = spec.iter().copied().collect();
    while let Some((parent, removed)) = parents.get(&cur) {
        if !evidence.contains_key(parent) {
            return Vec::new();
        }
        steps.push(ChainStep {
            subset: parent.clone(),
            removed: *removed,
        });
        cur = parent.clone();
    }
    steps.reverse();
    steps
}

/// Gathers the dead verdict for every subset referenced by some chain,
/// sorted by subset for deterministic output.
fn collect_evidence(
    chains: &[Vec<ChainStep>],
    evidence: &HashMap<Vec<u32>, DeadEvidence>,
) -> Vec<(Vec<u32>, DeadEvidence)> {
    let mut subsets: BTreeSet<&Vec<u32>> = BTreeSet::new();
    for chain in chains {
        for step in chain {
            subsets.insert(&step.subset);
        }
        for step in chain {
            if let Some(DeadEvidence::Dominated(base)) = evidence.get(&step.subset) {
                subsets.insert(base);
            }
        }
    }
    subsets
        .into_iter()
        .map(|s| (s.clone(), evidence[s].clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acspec_ir::parse::parse_program;
    use acspec_ir::{desugar_procedure, DesugarOptions};
    use acspec_predabs::cover::predicate_cover;
    use acspec_predabs::mine::{mine_predicates, Abstraction};
    use acspec_vcgen::analyzer::AnalyzerConfig;

    fn run(src: &str) -> (SearchOutcome, Vec<String>) {
        let prog = parse_program(src).expect("parses");
        let proc = prog.procedures.last().expect("proc").clone();
        let d = desugar_procedure(&prog, &proc, DesugarOptions::default()).expect("desugars");
        let mut az = ProcAnalyzer::new(&d, AnalyzerConfig::default()).expect("encodes");
        let baseline = az.dead_set(&[]).expect("in budget");
        let q = mine_predicates(&d, Abstraction::concrete());
        let cover = predicate_cover(&mut az, &q).expect("in budget");
        let sels = cover.install_selectors(&mut az);
        let out = find_almost_correct_specs(&mut az, &sels, &baseline, 10_000).expect("in budget");
        // Render output specs for inspection.
        let rendered: Vec<String> = out
            .specs
            .iter()
            .map(|subset| {
                let clauses: Vec<acspec_predabs::QClause> = subset
                    .iter()
                    .map(|&i| cover.clauses[i as usize].clone())
                    .collect();
                let normalized = acspec_predabs::normalize(&clauses);
                acspec_predabs::clauses_to_formula(&normalized, &cover.preds).to_string()
            })
            .collect();
        (out, rendered)
    }

    #[test]
    fn no_sib_returns_cover_with_zero_failures() {
        let (out, rendered) = run("procedure f(x: int) { assert x != 0; }");
        assert!(!out.root_dead);
        assert_eq!(out.min_fail, 0);
        assert_eq!(rendered, vec!["x != 0"]);
    }

    #[test]
    fn figure1_search_finds_the_double_free() {
        let src = "
            global Freed: map;
            procedure Foo(c: int, buf: int, cmd: int) {
              if (*) {
                assert Freed[c] == 0;   Freed[c] := 1;
                assert Freed[buf] == 0; Freed[buf] := 1;
              } else {
                if (cmd == 1) {
                  if (*) {
                    assert Freed[c] == 0;   Freed[c] := 1;
                    assert Freed[buf] == 0; Freed[buf] := 1;
                  }
                }
                assert Freed[c] == 0;   Freed[c] := 1;
                assert Freed[buf] == 0; Freed[buf] := 1;
              }
            }";
        let (out, rendered) = run(src);
        assert!(out.root_dead, "Figure 1 has a concrete SIB");
        assert_eq!(out.min_fail, 1, "exactly A5 fails (§1.1.1)");
        // The syntactically normalized spec still mentions the Freed and
        // aliasing vocabulary but not cmd (the cmd clauses were dropped by
        // the weakening). The paper's unit-clause form is recovered by the
        // driver's *semantic* normalization (tested in the driver tests).
        assert!(
            rendered.iter().any(|s| {
                s.contains("Freed[c]") && s.contains("Freed[buf]") && !s.contains("cmd")
            }),
            "expected a cmd-free Freed spec among: {rendered:?}"
        );
    }

    #[test]
    fn always_failing_assert_is_total_sib() {
        // Every input fails: WP = false, Dead(WP) = everything (§3.1's
        // special case). The search weakens until code is live again and
        // reports the failure.
        let (out, _) = run("procedure f(x: int) {
               if (*) { skip; } else { skip; }
               assert x != x;
             }");
        assert!(out.root_dead);
        assert_eq!(out.min_fail, 1);
    }
}
