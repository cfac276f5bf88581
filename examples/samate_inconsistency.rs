//! The paper's Figure 2 (a SAMATE CWE690 case) through the C front end:
//! an *abstract* semantic inconsistency bug.
//!
//! ```sh
//! cargo run --example samate_inconsistency
//! ```
//!
//! The concrete weakest precondition conjures a correlation between
//! `calloc` and `static_returns_t` and reports nothing; restricting the
//! predicate vocabulary (configuration `A1`, which ignores conditionals)
//! exposes the unchecked allocation as an abstract SIB (§1.1.2).

use acspec_cfront::compile_c;
use acspec_core::{analyze_procedure, AcspecOptions, ConfigName};

const FIGURE2_C: &str = r#"
struct twoints { int a; int b; };
struct twoints *my_calloc(int n, int size);
int static_returns_t(void);

void Bar(void) {
  struct twoints *data = NULL;
  /* Initialize data */
  data = my_calloc(100, sizeof(struct twoints));
  if (static_returns_t()) {
    /* FLAW: should check if memory allocation failed */
    data->a = 1;
  } else {
    if (data != NULL) {
      data->a = 1;
    } else {
    }
  }
}
"#;

fn main() {
    println!("Figure 2 (SAMATE): unchecked calloc\n{FIGURE2_C}");
    let program = compile_c(FIGURE2_C).expect("compiles");
    println!(
        "HAVOC-style translation inserted {} null-dereference assertion(s).\n",
        program.assert_count()
    );
    let bar = program.procedure("Bar").expect("Bar exists").clone();

    for config in ConfigName::LADDER {
        let report = analyze_procedure(&program, &bar, &AcspecOptions::for_config(config))
            .expect("analyzes");
        println!(
            "[{config}] |Q| = {:<2} status = {:<6} warnings = {}",
            report.stats.n_predicates,
            report.status.to_string(),
            report.warnings.len()
        );
        for spec in &report.specs {
            println!("        almost-correct spec: {spec}");
        }
        for w in &report.warnings {
            println!("        warning: {} ({})", w.assert, w.tag);
        }
    }

    println!(
        "\nConc is fooled by the angelic correlation between the two calls;\n\
         A1 removes conditional predicates from the vocabulary, the most\n\
         angelic remaining spec (nu_calloc != 0) would kill the else branch,\n\
         so the almost-correct specification is `true` — revealing the flaw\n\
         as an abstract semantic inconsistency bug."
    );
}
