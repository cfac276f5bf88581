//! The paper's stated future work (§5.1.2, §7): infer the weakest
//! preconditions of simple procedures and assert them at call sites, so
//! "simple, but buggy" callees — invisible to every modular
//! configuration — surface in their callers.
//!
//! ```sh
//! cargo run --example interprocedural
//! ```

use acspec_cfront::compile_c;
use acspec_core::{
    analyze_procedure, infer_preconditions, rank, AcspecOptions, ConfigName, NullObserver,
    ProgramAnalysis,
};

const SRC: &str = r#"
int *malloc(int n);

/* The paper's "simple, but buggy" shape: no branches, so no (abstract)
   inconsistency exists and every configuration is silent. */
void write_header(int *hdr) {
  *hdr = 42;
}

/* This caller passes NULL — the real bug. */
void init_bad(void) {
  write_header(NULL);
}

/* This caller checks its allocation — fine. */
void init_good(void) {
  int *h = malloc(8);
  if (h == NULL) { return; }
  write_header(h);
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("{SRC}");
    let program = compile_c(SRC)?;
    let opts = AcspecOptions::for_config(ConfigName::Conc);

    // Modular analysis (the paper's setting): nothing is reported.
    let mut modular_warnings = 0;
    for proc in &program.procedures {
        if proc.body.is_none() {
            continue;
        }
        let r = analyze_procedure(&program, proc, &opts)?;
        modular_warnings += r.warnings.len();
    }
    println!(
        "modular analysis (all configurations silent on the leaf): {modular_warnings} warnings"
    );

    // Infer preconditions bottom-up (§7) and re-analyze.
    let inferred = infer_preconditions(&program, &opts);
    assert!(inferred.incidents.is_empty(), "{:?}", inferred.incidents);
    for (name, spec) in &inferred.inferred {
        println!("inferred: procedure {name} requires {spec};");
    }
    println!();
    let outcomes = ProgramAnalysis::new(&inferred.program)
        .options(opts)
        .run(&mut NullObserver);
    let ranked = rank(&outcomes);
    for r in &ranked {
        println!(
            "[{}] {} :: {} ({})",
            r.confidence, r.proc_name, r.warning.assert, r.warning.tag
        );
        if let Some(w) = &r.warning.witness {
            println!("    witness: {w}");
        }
    }
    assert!(
        ranked
            .iter()
            .any(|r| r.proc_name == "init_bad" && r.warning.tag.contains("write_header")),
        "the NULL-passing caller is flagged"
    );
    assert!(
        ranked.iter().all(|r| r.proc_name != "init_good"),
        "the checked caller stays clean"
    );
    println!("\nOK: the bug moved from invisible to attributed at its call site.");
    Ok(())
}
