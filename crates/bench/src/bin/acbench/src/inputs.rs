//! Seeded benchmark inputs.
//!
//! The suite inputs are the paper suite that `acspec_benchgen` generates,
//! dealt into translation units by the benchmark's `--seed`: the same
//! seed always yields byte-identical files, and another seed yields other
//! files holding the same procedures. The corpus inputs are the
//! hand-written scenarios under `corpus/`.

use std::path::Path;

use acspec_benchgen::compile_benchmark;
use acspec_benchgen::suite::{generate_entry, SUITE};
use acspec_corpus::{load_corpus, InputKind, Scenario};

/// One input file of a workload.
#[derive(Debug, Clone)]
pub struct Input {
    /// File stem, unique within a workload (`Drv7-03`, `fig1_inlined`).
    pub name: String,
    /// File extension, which selects the front end: `c` or `acs`.
    pub ext: &'static str,
    /// The program text.
    pub source: String,
    /// Procedures with bodies: what one `acspec` run analyses.
    pub procs: usize,
}

impl Input {
    /// The file name the input is written under.
    pub fn file_name(&self) -> String {
        format!("{}.{}", self.name, self.ext)
    }
}

/// splitmix64: a bijective 64-bit mixer, stepped as a small PRNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Splits a generated program into its prelude and its procedures: the
/// generators emit one blank line after the prelude and after each
/// procedure, and none inside one.
fn split_procedures(source: &str) -> (&str, Vec<&str>) {
    let mut blocks = source.trim_end().split("\n\n");
    let prelude = blocks.next().unwrap_or_default();
    let procs: Vec<&str> = blocks.collect();
    for p in &procs {
        assert!(
            p.starts_with("void ") && p.contains('('),
            "not a procedure: {p}"
        );
    }
    (prelude, procs)
}

/// `void drv_heavy_17(…` renamed to `void drv_heavy_<slot>(…`, so names
/// stay unique within a translation unit.
fn renamed(proc: &str, slot: usize) -> String {
    let args = proc.find('(').expect("checked by split_procedures");
    let name = &proc["void ".len()..args];
    let stem = name.rsplit_once('_').map_or(name, |(stem, _)| stem);
    format!("void {stem}_{slot}{}", &proc[args..])
}

/// The 17 suite entries exactly as `acspec_benchgen::suite::generate_entry`
/// builds them at `scale`, each dealt into near-equal translation units
/// of at most `max_procs` procedures. The seed shuffles each entry's
/// procedures before the deal, so it decides which procedures share a
/// unit and in what order, while every seed analyses the same multiset
/// of procedures: the work of a round does not depend on the seed, and
/// neither does a throughput measured over it.
///
/// Units come interleaved by their relative position within their
/// entry, so every prefix of the list (a run's last, partial round; the
/// units a traced run covers) samples the entries in proportion to their
/// size.
pub fn suite_chunks(seed: u64, scale: usize, max_procs: usize) -> Vec<Input> {
    let mut keyed = Vec::new();
    for (e, entry) in SUITE.iter().enumerate() {
        let bm = generate_entry(entry, scale);
        let (prelude, mut procs) = split_procedures(&bm.source);
        let mut rng = seed ^ entry.seed.rotate_left(32);
        for i in (1..procs.len()).rev() {
            let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
            procs.swap(i, j);
        }
        let chunks = procs.len().div_ceil(max_procs);
        let mut rest = &procs[..];
        for i in 0..chunks {
            let size = procs.len() / chunks + usize::from(i < procs.len() % chunks);
            let (unit, tail) = rest.split_at(size);
            rest = tail;
            let body: Vec<String> = unit
                .iter()
                .enumerate()
                .map(|(k, p)| renamed(p, k))
                .collect();
            let name = format!("{}-{i:02}", entry.name);
            let source = format!("{prelude}\n\n{}\n", body.join("\n\n"));
            let unit = compile_benchmark(name.clone(), source, None);
            let input = Input {
                name,
                ext: "c",
                procs: unit.proc_count(),
                source: unit.source,
            };
            let position = (2 * i + 1) as f64 / (2 * chunks) as f64;
            keyed.push((position, e, input));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, _, input)| input).collect()
}

/// The corpus scenarios under `root/corpus`, sorted by name, with their
/// inputs.
///
/// # Errors
///
/// Returns a message when the corpus cannot be read or a scenario does
/// not load.
pub fn corpus(root: &Path) -> Result<Vec<(Scenario, Input)>, String> {
    let mut out = Vec::new();
    for sc in load_corpus(&root.join("corpus"))? {
        let source = std::fs::read_to_string(&sc.input)
            .map_err(|e| format!("cannot read {}: {e}", sc.input.display()))?;
        let procs = sc
            .program()?
            .procedures
            .iter()
            .filter(|p| p.body.is_some())
            .count();
        let ext = match sc.kind {
            InputKind::C => "c",
            InputKind::Surface => "acs",
        };
        let input = Input {
            name: sc.name.clone(),
            ext,
            source,
            procs,
        };
        out.push((sc, input));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(inputs: &[Input]) -> (usize, usize) {
        (inputs.len(), inputs.iter().map(|i| i.procs).sum())
    }

    #[test]
    fn same_seed_gives_identical_files() {
        let a = suite_chunks(7, 1, 8);
        let b = suite_chunks(7, 1, 8);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.name == y.name && x.source == y.source));
    }

    #[test]
    fn seed_zero_has_the_blessed_totals() {
        // Driver chunks gain the shared `init_pool` helper, so a chunk
        // holds at most one procedure more than it generated.
        let eights = suite_chunks(0, 1, 8);
        assert_eq!(totals(&eights), (124, 1046));
        assert!(eights.iter().all(|i| i.procs <= 9));
        let fours = suite_chunks(0, 2, 4);
        assert_eq!(totals(&fours), (121, 569));
        assert!(fours.iter().all(|i| i.procs <= 5));
    }

    #[test]
    fn prefixes_sample_entries_in_proportion() {
        let chunks = suite_chunks(0, 1, 8);
        let entry = |i: &Input| i.name.split('-').next().unwrap_or("").to_string();
        let count = |list: &[Input]| {
            let mut m = std::collections::BTreeMap::new();
            for i in list {
                *m.entry(entry(i)).or_insert(0usize) += 1;
            }
            m
        };
        let all = count(&chunks);
        let half = count(&chunks[..chunks.len() / 2]);
        for (name, n) in &all {
            let got = half.get(name).copied().unwrap_or(0);
            assert!(
                got.abs_diff(n / 2) <= 1,
                "{name}: {got} of {n} in the first half"
            );
        }
    }

    #[test]
    fn another_seed_deals_the_same_procedures() {
        let bodies = |inputs: Vec<Input>| {
            let mut all: Vec<String> = inputs
                .iter()
                .flat_map(|i| split_procedures(&i.source).1)
                .map(|p| p[p.find('(').expect("a procedure")..].to_string())
                .collect();
            all.sort();
            all
        };
        assert_eq!(bodies(suite_chunks(0, 1, 8)), bodies(suite_chunks(3, 1, 8)));
    }

    #[test]
    fn another_seed_changes_sources_but_not_counts() {
        let a = suite_chunks(0, 1, 8);
        let b = suite_chunks(1, 1, 8);
        assert_eq!(totals(&a), totals(&b));
        let changed = a.iter().zip(&b).filter(|(x, y)| x.source != y.source);
        assert!(changed.count() > a.len() / 2);
    }

    #[test]
    fn corpus_lists_both_front_ends() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..");
        let corpus = corpus(&root).expect("corpus loads");
        assert_eq!(corpus.len(), 12);
        assert!(corpus.iter().any(|(_, i)| i.ext == "c"));
        assert!(corpus.iter().any(|(_, i)| i.ext == "acs"));
    }
}
