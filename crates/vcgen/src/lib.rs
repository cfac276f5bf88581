#![warn(missing_docs)]

//! VC generation and the `Dead`/`Fail` query engine for ACSpec.
//!
//! This crate plays the role BOOGIE's VC pipeline plays for the paper's
//! prototype:
//!
//! * [`translate`] — IR expressions/formulas to solver terms;
//! * [`wp`] — the textbook weakest-precondition transformer of §2.2
//!   (used for readable specs and as a semantic cross-check);
//! * [`analyzer`] — an efficient single-encoding query engine answering
//!   `Dead(f)` and `Fail(f)` (§2.3) incrementally under selector
//!   assumptions, with a deterministic per-procedure budget standing in
//!   for the paper's 10-second timeout;
//! * [`cache`] — the monotone dominance cache answering queries by
//!   §2.3 monotonicity (subset/superset lattice dominance) before
//!   falling back to the solver;
//! * [`chaos`] — deterministic fault injection (seeded unknowns, budget
//!   blowups, latency, panics) for exercising the fault-tolerant
//!   runtime above this crate.
//!
//! # Example
//!
//! ```
//! use acspec_ir::parse::parse_program;
//! use acspec_ir::{desugar_procedure, DesugarOptions};
//! use acspec_vcgen::analyzer::{AnalyzerConfig, ProcAnalyzer};
//!
//! let prog = parse_program(
//!     "procedure f(x: int) { assert x != 0; }",
//! ).expect("parses");
//! let proc = prog.procedures[0].clone();
//! let d = desugar_procedure(&prog, &proc, DesugarOptions::default()).expect("desugars");
//! let mut az = ProcAnalyzer::new(&d, AnalyzerConfig::default()).expect("encodes");
//! // Under the demonic (unconstrained) environment the assert can fail…
//! assert_eq!(az.fail_set(&[]).expect("within budget").len(), 1);
//! // …but under the spec x != 0 it cannot.
//! let spec = acspec_ir::parse::parse_formula("x != 0").expect("parses");
//! let sel = az.add_selector(&spec).expect("input vocabulary");
//! assert!(az.fail_set(&[sel]).expect("within budget").is_empty());
//! ```

pub mod analyzer;
pub mod cache;
pub mod chaos;
pub mod evidence;
pub mod stage;
pub mod translate;
pub mod wp;

pub use analyzer::{AnalyzerConfig, ProcAnalyzer, QueryOutcome, QueryRecord, Selector};
pub use cache::{CacheSnapshot, CacheStats, QueryCache};
pub use chaos::{
    ChaosConfig, ChaosFault, ChaosSolver, ChaosStats, ChaosStore, ChaosStoreStats, StoreFault,
};
pub use evidence::{
    CertEvent, CertOutcome, CertStore, CertTag, Evaluator, FuncValue, MapValue, ModelTables,
    ProofData, QueryCert, TermNode,
};
pub use stage::{Budget, Deadline, FaultReason, Stage, StageError, StageMetrics, StageTable};
pub use translate::{expr_to_term, formula_to_term, Env, TranslateError};
pub use wp::{wp, WpResult};
