#![warn(missing_docs)]

//! Predicate abstraction layer for ACSpec (§4 of the paper).
//!
//! * [`mine`] — the `Preds` transformer collecting the atomic predicates
//!   of `wp(pr, true)` (§4.4.1), with the *ignore conditionals* (§4.4.2)
//!   and *havoc returns* (§4.4.3) vocabulary abstractions;
//! * [`cover`] — the predicate cover `β_Q(wp(pr, true))` via ALL-SAT
//!   enumeration of maximal cubes (§4.1);
//! * [`clause`] — literals/clauses over `Q` (§2.4);
//! * [`normalize`](mod@normalize) — `Normalize` (the fix-point of resolution,
//!   subsumption and tautology elimination, read off a truth table as its
//!   prime implicates) and `PruneClauses` (`k`-literal and cross-call
//!   correlation pruning) (§4.3).
//!
//! # Example
//!
//! ```
//! use acspec_ir::parse::parse_program;
//! use acspec_ir::{desugar_procedure, DesugarOptions};
//! use acspec_predabs::clause::clauses_to_formula;
//! use acspec_predabs::cover::predicate_cover;
//! use acspec_predabs::mine::{mine_predicates, Abstraction};
//! use acspec_vcgen::analyzer::{AnalyzerConfig, ProcAnalyzer};
//!
//! let prog = parse_program("procedure f(x: int) { assert x != 0; }").expect("parses");
//! let proc = prog.procedures[0].clone();
//! let d = desugar_procedure(&prog, &proc, DesugarOptions::default()).expect("desugars");
//! let q = mine_predicates(&d, Abstraction::concrete());
//! let mut az = ProcAnalyzer::new(&d, AnalyzerConfig::default()).expect("encodes");
//! let cover = predicate_cover(&mut az, &q).expect("within budget");
//! assert_eq!(clauses_to_formula(&cover.clauses, &cover.preds).to_string(), "x != 0");
//! ```

pub mod clause;
pub mod cover;
pub mod mine;
pub mod normalize;

pub use clause::{clauses_to_formula, QClause, QLit};
pub use cover::{predicate_cover, predicate_cover_capped, predicate_cover_salvaging, Cover};
pub use mine::{mine_predicates, Abstraction};
pub use normalize::{normalize, prime_implicates, prune_clauses, PruneConfig, MAX_PREDICATES};
