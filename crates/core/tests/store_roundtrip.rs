//! The persistent result store's end-to-end contract (DESIGN.md §4.9):
//!
//! * **Warm replay is byte-identical**: a second run against the same
//!   store performs zero solver queries and re-emits the cold run's
//!   reports and certificate document byte for byte (stage seconds
//!   round-trip through `f64::to_bits`).
//! * **Corruption is survivable and attributable**: a single bit flip
//!   or mid-write truncation of any entry is quarantined, surfaced as
//!   an `AnalysisIncident` naming the procedure, and transparently
//!   recomputed — verdicts never change, nothing panics.
//! * **I/O chaos at rate 0 is a no-op**: a store with the fault
//!   harness installed at rate 0 behaves byte-identically to no store
//!   at all (modulo wall clock); at high rates, verdicts still match.

use std::fs;
use std::path::{Path, PathBuf};

use acspec_core::{
    certs_json_from_fragments, decode_analysis, program_report_json_with, AnalysisIncident,
    ConfigName, IncidentKind, ProcReport, ProcStats, ProgramAnalysis, StageTotals, StoreOutcome,
    StoreSession,
};
use acspec_ir::parse::parse_program;
use acspec_ir::Program;
use acspec_vcgen::chaos::ChaosConfig;

const CONFIGS: &[ConfigName] = &[ConfigName::Conc, ConfigName::A1];

fn program() -> Program {
    parse_program(
        "global Freed: map;
         procedure ok(x: int) { assert x == x; }
         procedure double_free(p: int) {
           assert Freed[p] == 0; Freed[p] := 1;
           assert Freed[p] == 0; Freed[p] := 1;
         }
         procedure guarded(q: int) requires q > 0; { assert q > 0; }
         procedure caller(r: int) { call guarded(r); }",
    )
    .expect("parses")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "acspec-store-roundtrip-{name}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

struct RunOut {
    /// Owned reports in outcome order: per-config reports then cons,
    /// per procedure.
    reports: Vec<ProcReport>,
    incidents: Vec<AnalysisIncident>,
    cert_fragments: Vec<String>,
    from_store: Vec<bool>,
    queries: u64,
}

impl RunOut {
    /// The exact report document (timings included).
    fn report_json(&self) -> String {
        let refs: Vec<&ProcReport> = self.reports.iter().collect();
        program_report_json_with(&refs, &self.incidents, None)
    }

    /// The report document with wall-clock-bearing stats zeroed — the
    /// "verdict view" for comparing two *computed* (not replayed) runs.
    fn verdict_json(&self) -> String {
        let mut normalized = RunOut {
            reports: self.reports.clone(),
            incidents: Vec::new(),
            cert_fragments: Vec::new(),
            from_store: Vec::new(),
            queries: 0,
        };
        for r in &mut normalized.reports {
            r.stats = ProcStats::default();
        }
        normalized.report_json()
    }

    fn certs_doc(&self) -> String {
        certs_json_from_fragments(&self.cert_fragments)
    }
}

fn run(program: &Program, store: Option<&StoreSession>) -> RunOut {
    run_threads(program, store, 0)
}

/// [`run`] at an explicit worker count (`0` = available parallelism).
fn run_threads(program: &Program, store: Option<&StoreSession>, threads: usize) -> RunOut {
    let mut totals = StageTotals::default();
    let outcomes = ProgramAnalysis::new(program)
        .configs(CONFIGS)
        .certify(true)
        .threads(threads)
        .store(store)
        .run(&mut totals);
    let mut out = RunOut {
        reports: Vec::new(),
        incidents: Vec::new(),
        cert_fragments: Vec::new(),
        from_store: Vec::new(),
        queries: totals.iter().map(|(_, t)| t.total_queries()).sum(),
    };
    for o in outcomes {
        match o.incident() {
            Some(i) => out.incidents.push(i.clone()),
            None => {
                let pa = o.into_analysis().expect("analyzed");
                out.from_store.push(pa.from_store);
                out.incidents.extend(pa.incidents);
                out.reports.extend(pa.reports.into_iter().flatten());
                out.reports.push(pa.cons);
                if let Some(f) = pa.certs_fragment {
                    out.cert_fragments.push(f);
                }
            }
        }
    }
    out
}

/// Entry files of a store directory, sorted (deterministic corruption
/// targets).
fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("store dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "acse"))
        .collect();
    files.sort();
    files
}

#[test]
fn warm_rerun_is_byte_identical_with_zero_queries() {
    let dir = tmpdir("warm");
    let store = StoreSession::open(&dir).expect("opens");
    let p = program();

    let cold = run(&p, Some(&store));
    assert!(cold.queries > 0, "cold run must actually solve");
    assert!(cold.from_store.iter().all(|&b| !b));
    assert!(cold.incidents.is_empty());
    assert!(!cold.cert_fragments.is_empty(), "certify(true) emits certs");

    let warm = run(&p, Some(&store));
    assert!(
        warm.from_store.iter().all(|&b| b),
        "every procedure must replay from the store"
    );
    assert_eq!(warm.queries, 0, "warm replay performed solver queries");
    assert!(warm.incidents.is_empty());
    assert_eq!(cold.report_json(), warm.report_json(), "report drifted");
    assert_eq!(cold.certs_doc(), warm.certs_doc(), "certificates drifted");

    let stats = store.stats();
    assert_eq!(stats.hits as usize, warm.from_store.len());
    assert_eq!(stats.corrupt, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn warm_replay_hits_across_thread_counts() {
    // `--threads` is excluded from the options digest: entries recorded
    // at one worker count replay warm at any other.
    let dir = tmpdir("threads");
    let store = StoreSession::open(&dir).expect("opens");
    let p = program();
    let cold = run_threads(&p, Some(&store), 4);
    assert!(cold.queries > 0, "cold run must actually solve");
    assert!(cold.from_store.iter().all(|&b| !b));
    let warm = run_threads(&p, Some(&store), 1);
    assert!(
        warm.from_store.iter().all(|&b| b),
        "a different --threads count missed the store"
    );
    assert_eq!(warm.queries, 0, "warm replay performed solver queries");
    assert_eq!(cold.report_json(), warm.report_json(), "report drifted");
    assert_eq!(cold.certs_doc(), warm.certs_doc(), "certificates drifted");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_is_quarantined_attributed_and_recomputed() {
    let dir = tmpdir("bitflip");
    let p = program();
    let cold = {
        let store = StoreSession::open(&dir).expect("opens");
        run(&p, Some(&store))
    };

    // Flip one payload bit in the first (sorted) entry.
    let target = entry_files(&dir).into_iter().next().expect("entries exist");
    let mut bytes = fs::read(&target).expect("reads entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&target, &bytes).expect("writes damaged entry");

    let store = StoreSession::open(&dir).expect("reopens");
    let warm = run(&p, Some(&store));

    // Exactly one slot recomputed, the rest replayed warm.
    let recomputed = warm.from_store.iter().filter(|&&b| !b).count();
    assert_eq!(recomputed, 1, "exactly one entry was damaged");
    assert_eq!(store.quarantine_count(), 1);
    assert_eq!(store.stats().corrupt, 1);

    // The incident is attributable: kind, stage, and a procedure of
    // this program.
    let incident = warm
        .incidents
        .iter()
        .find(|i| i.kind == IncidentKind::StoreCorruption)
        .expect("a StoreCorruption incident is surfaced");
    assert_eq!(incident.stage, None);
    assert!(
        p.procedures.iter().any(|q| q.name == incident.proc_name),
        "incident names an unknown procedure: {}",
        incident.proc_name
    );
    assert!(incident.message.contains("quarantined and recomputed"));

    // Verdicts never change (timings may: one procedure re-ran).
    assert_eq!(
        cold.verdict_json(),
        warm.verdict_json(),
        "a verdict changed"
    );
    assert_eq!(cold.certs_doc(), warm.certs_doc(), "certificates drifted");

    // The recompute re-saved the entry: the next run is fully warm with
    // byte-identical reports — and no replayed incident, because a
    // healed store must not keep confessing to old corruption.
    let third = run(&p, Some(&store));
    assert!(third.from_store.iter().all(|&b| b));
    assert_eq!(third.queries, 0);
    assert!(third.incidents.is_empty());
    let healed = RunOut {
        incidents: Vec::new(),
        ..warm
    };
    assert_eq!(healed.report_json(), third.report_json());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn midwrite_truncation_is_survivable() {
    let dir = tmpdir("truncate");
    let p = program();
    let cold = {
        let store = StoreSession::open(&dir).expect("opens");
        run(&p, Some(&store))
    };

    // Truncate the *last* (sorted) entry mid-"write".
    let target = entry_files(&dir).into_iter().last().expect("entries exist");
    let bytes = fs::read(&target).expect("reads entry");
    fs::write(&target, &bytes[..bytes.len() / 3]).expect("truncates entry");

    let store = StoreSession::open(&dir).expect("reopens");
    let warm = run(&p, Some(&store));
    assert_eq!(warm.from_store.iter().filter(|&&b| !b).count(), 1);
    assert_eq!(store.quarantine_count(), 1);
    assert!(warm
        .incidents
        .iter()
        .any(|i| i.kind == IncidentKind::StoreCorruption));
    assert_eq!(
        cold.verdict_json(),
        warm.verdict_json(),
        "a verdict changed"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn store_chaos_at_rate_zero_matches_no_store() {
    let p = program();
    let plain = run(&p, None);
    for seed in [0u64, 42, u64::MAX] {
        let dir = tmpdir(&format!("chaos0-{seed}"));
        let store =
            StoreSession::open_with_chaos(&dir, Some(ChaosConfig::new(seed, 0.0))).expect("opens");
        let chaotic = run(&p, Some(&store));
        assert_eq!(
            plain.verdict_json(),
            chaotic.verdict_json(),
            "rate-0 store chaos changed a verdict (seed {seed})"
        );
        assert_eq!(
            plain.certs_doc(),
            chaotic.certs_doc(),
            "rate-0 store chaos changed certificates (seed {seed})"
        );
        let cs = store.chaos_stats();
        assert_eq!(
            (cs.torn_writes, cs.bit_flips, cs.enospcs, cs.read_errors),
            (0, 0, 0, 0),
            "rate 0 must inject nothing (seed {seed})"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn store_chaos_at_high_rate_never_alters_a_verdict() {
    let p = program();
    let plain = run(&p, None);
    for seed in [7u64, 1234] {
        let dir = tmpdir(&format!("chaos-high-{seed}"));
        let store =
            StoreSession::open_with_chaos(&dir, Some(ChaosConfig::new(seed, 0.9))).expect("opens");
        // Three consecutive runs: whatever mix of torn writes, bit
        // flips, ENOSPC, and transient read errors the harness deals,
        // every run must land on the same verdicts as no store at all.
        for round in 0..3 {
            let chaotic = run(&p, Some(&store));
            assert_eq!(
                plain.verdict_json(),
                chaotic.verdict_json(),
                "store chaos altered a verdict (seed {seed}, round {round})"
            );
            assert_eq!(
                plain.certs_doc(),
                chaotic.certs_doc(),
                "store chaos altered certificates (seed {seed}, round {round})"
            );
        }
        assert!(
            store.chaos_stats().draws > 0,
            "harness never drew (seed {seed})"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A payload of 200,000 nested arrays behind a valid SHA-256 frame:
/// the store hands it over as a hit, so only the payload decoder's
/// nesting cap stands between it and the stack. It must decode to
/// nothing and fetch as a miss instead of aborting the process.
#[test]
fn deeply_nested_payload_is_a_miss_not_an_abort() {
    let dir = tmpdir("deep-payload");
    let key = acspec_core::persist::entry_key("deep", "options");
    let payload = "[".repeat(200_000);
    acspec_store::ResultStore::open(&dir)
        .expect("opens")
        .save(&key, payload.as_bytes())
        .expect("saves");
    assert!(decode_analysis(payload.as_bytes()).is_none());
    let store = StoreSession::open(&dir).expect("opens");
    assert!(matches!(store.fetch(&key, "f"), StoreOutcome::Miss));
    let _ = fs::remove_dir_all(&dir);
}
