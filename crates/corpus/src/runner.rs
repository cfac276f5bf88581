//! Executes a scenario program through the session layer and the
//! differential run matrix.
//!
//! One *leg* is one full `ProgramAnalysis` run under a named knob
//! setting. The **base** leg (cache on, one thread, no chaos harness,
//! certificates on) produces the fingerprints compared against the
//! blessed oracle and the query/wall numbers charged against the
//! budget. The differential legs re-run the scenario with the query
//! cache off, with four worker threads, and with the chaos harness
//! installed at rate 0 — all three must produce a byte-identical
//! canonical oracle, and the base leg's certificates must validate
//! under the independent checker. Every fixture thereby exercises the
//! cache, parallelism, fault-injection, and certification invariants at
//! once.

use std::time::Instant;

use acspec_check::check_document;
use acspec_core::{
    certs_json_from_fragments, rank, AcspecOptions, ProcOutcome, ProgramAnalysis, StageTotals,
    StoreSession,
};
use acspec_ir::Program;
use acspec_vcgen::chaos::ChaosConfig;

use crate::fingerprint::{Oracle, WarningFingerprint};

/// One knob setting of the differential matrix.
#[derive(Debug, Clone, Copy)]
pub struct RunLeg {
    /// Display name (`base`, `cache-off`, …).
    pub label: &'static str,
    /// Monotone query cache on/off.
    pub query_cache: bool,
    /// Worker threads.
    pub threads: usize,
    /// Install the chaos harness at rate 0 (must be byte-identical to
    /// no harness at all).
    pub chaos: bool,
    /// Emit per-verdict certificates.
    pub certify: bool,
}

/// The oracle-defining leg: budgets and certificates are charged here.
pub const BASE_LEG: RunLeg = RunLeg {
    label: "base",
    query_cache: true,
    threads: 1,
    chaos: false,
    certify: true,
};

/// The legs whose canonical oracle must match the base leg's bytes.
pub const DIFF_LEGS: &[RunLeg] = &[
    RunLeg {
        label: "cache-off",
        query_cache: false,
        threads: 1,
        chaos: false,
        certify: false,
    },
    RunLeg {
        label: "threads-4",
        query_cache: true,
        threads: 4,
        chaos: false,
        certify: false,
    },
    RunLeg {
        label: "chaos-0",
        query_cache: true,
        threads: 1,
        chaos: true,
        certify: false,
    },
];

/// What one leg produced.
#[derive(Debug)]
pub struct LegRun {
    /// The run's warning fingerprints, normalized.
    pub oracle: Oracle,
    /// Total solver queries across shared and per-config stages.
    pub queries: u64,
    /// Wall-clock milliseconds of the whole leg.
    pub wall_ms: u64,
    /// Pre-rendered per-procedure certificate fragments (base leg
    /// only). Fragments rather than live `ProcCerts` so a warm store
    /// hit — which never rebuilds the certificate store — still yields
    /// a byte-identical document via
    /// [`acspec_core::certs_json_from_fragments`].
    pub cert_fragments: Vec<String>,
    /// Procedures that faulted (panic or error), rendered.
    pub incidents: Vec<String>,
    /// Store-corruption incidents (quarantined + recomputed), rendered.
    /// Informational: corruption is recovered, so these do not fail the
    /// matrix.
    pub store_incidents: Vec<String>,
}

/// Runs one leg of the matrix over `program`: a `ProgramAnalysis` over
/// the triage ladder, fingerprinted by [`rank`].
///
/// The analyzer knobs are set explicitly from the leg — in particular
/// the query cache, so an `ACSPEC_NO_QUERY_CACHE` environment (the CI
/// cache-off test matrix) cannot silently change what a leg measures.
pub fn run_leg(program: &Program, leg: &RunLeg) -> LegRun {
    run_leg_with_store(program, leg, None)
}

/// [`run_leg`] with a persistent result store attached: unchanged
/// procedures short-circuit to their stored reports (zero solver
/// queries), and corrupted entries surface as recoverable
/// [`LegRun::store_incidents`].
pub fn run_leg_with_store(program: &Program, leg: &RunLeg, store: Option<&StoreSession>) -> LegRun {
    let mut opts = AcspecOptions::default();
    opts.analyzer.conflict_budget = Some(400_000);
    opts.analyzer.query_cache = leg.query_cache;
    opts.analyzer.chaos = leg.chaos.then(|| ChaosConfig::new(42, 0.0));
    let mut totals = StageTotals::default();
    let t0 = Instant::now();
    let outcomes = ProgramAnalysis::new(program)
        .options(opts)
        .threads(leg.threads)
        .certify(leg.certify)
        .store(store)
        .run(&mut totals);
    let wall_ms = t0.elapsed().as_millis() as u64;

    let mut oracle = Oracle {
        warnings: rank(&outcomes)
            .iter()
            .map(|r| {
                let level = r.confidence.label().to_string();
                WarningFingerprint::new(&r.proc_name, &r.warning.tag, &level, r.min_fail)
            })
            .collect(),
    };
    let mut cert_fragments = Vec::new();
    let mut incidents = Vec::new();
    let mut store_incidents = Vec::new();
    for outcome in outcomes {
        match outcome {
            ProcOutcome::Analyzed(pa) => {
                for incident in &pa.incidents {
                    store_incidents.push(format!("procedure `{}`: {incident}", pa.proc_name));
                }
                if let Some(f) = pa.certs_fragment {
                    cert_fragments.push(f);
                }
            }
            ProcOutcome::Faulted(i) => {
                incidents.push(format!(
                    "procedure `{}` faulted: {}",
                    i.proc_name, i.message
                ));
            }
        }
    }
    oracle.normalize();
    let queries: u64 = totals.iter().map(|(_, t)| t.total_queries()).sum();
    LegRun {
        oracle,
        queries,
        wall_ms,
        cert_fragments,
        incidents,
        store_incidents,
    }
}

/// The full matrix result for one scenario program.
#[derive(Debug)]
pub struct MatrixReport {
    /// The base leg's fingerprints (what `bless` writes).
    pub produced: Oracle,
    /// The base leg's solver-query total (what the budget gates).
    pub queries: u64,
    /// The base leg's wall milliseconds.
    pub wall_ms: u64,
    /// Every matrix failure: incidents, differential divergences, and
    /// certificate-check errors. Empty = the matrix passed.
    pub failures: Vec<String>,
    /// Store-corruption incidents across all legs — recovered, so
    /// informational rather than failing.
    pub store_incidents: Vec<String>,
}

/// Runs the base leg plus every differential leg and the certificate
/// check. Oracle and budget comparison against the blessed files is the
/// caller's job ([`crate::verify_scenario`]); this reports only the
/// run-internal invariants.
pub fn run_matrix(program: &Program) -> MatrixReport {
    run_matrix_with_store(program, None)
}

/// [`run_matrix`] with a persistent result store attached to the *base*
/// leg only. The differential legs always run cold, so a warm base leg
/// (reports replayed from the store) is checked byte-for-byte against
/// three fresh computations — the warm/cold equivalence gate rides the
/// existing differential machinery for free.
pub fn run_matrix_with_store(program: &Program, store: Option<&StoreSession>) -> MatrixReport {
    let base = run_leg_with_store(program, &BASE_LEG, store);
    let mut failures = base.incidents.clone();
    let mut store_incidents = base.store_incidents.clone();
    let base_json = base.oracle.to_canonical_json();
    for leg in DIFF_LEGS {
        let run = run_leg(program, leg);
        failures.extend(run.incidents);
        store_incidents.extend(run.store_incidents);
        if run.oracle.to_canonical_json() != base_json {
            let mut msg = format!(
                "differential leg `{}` diverged from the base oracle",
                leg.label
            );
            for d in base.oracle.diff(&run.oracle) {
                msg.push_str("\n    ");
                msg.push_str(&d);
            }
            failures.push(msg);
        }
    }
    let summary = check_document(&certs_json_from_fragments(&base.cert_fragments));
    if !summary.ok() {
        failures.push(format!(
            "certificate check failed ({} error(s)): {}",
            summary.errors.len(),
            summary.errors.first().map_or("", String::as_str)
        ));
    }
    MatrixReport {
        produced: base.oracle,
        queries: base.queries,
        wall_ms: base.wall_ms,
        failures,
        store_incidents,
    }
}
