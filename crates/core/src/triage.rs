//! Warning triage across a whole program — the paper's end goal:
//! "reporting a high-confidence subset of the assertion failures reported
//! by a modular verifier" (§1), with the abstract configurations as a
//! confidence knob (§5.1.3).
//!
//! Every assertion the conservative verifier flags is assigned the
//! *most precise* configuration that still reports it:
//!
//! * reported by `Conc` — a concrete semantic inconsistency bug, the
//!   paper's highest-confidence class;
//! * reported first by `A1` — an abstract SIB witnessed after ignoring
//!   conditionals;
//! * reported first by `A2` — witnessed only under the coarsest
//!   vocabulary (`A0` is omitted from the ladder, as in the paper's
//!   tables: any ν-dependent failure it catches, `A2` catches too);
//! * reported by none — a demonic-environment warning (`Cons` only),
//!   lowest confidence.
//!
//! [`rank`] reads those levels off the outcomes of a
//! [`ProgramAnalysis`](crate::ProgramAnalysis) run over
//! [`ConfigName::LADDER`]: `acspec --triage`, the scenario corpus's
//! fingerprints and the examples all rank the same run the same way.

use std::collections::BTreeSet;

use crate::config::ConfigName;
use crate::report::{ReportLabel, Warning};
use crate::session::ProcOutcome;

/// Confidence levels, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Confidence {
    /// Reported under the concrete configuration (a SIB).
    Concrete,
    /// Reported first under `A1` (ignore conditionals).
    Abstract1,
    /// Reported only under the coarsest configuration (`A2`).
    Abstract2,
    /// Reported only by the conservative verifier.
    DemonicOnly,
}

impl Confidence {
    /// Every level, highest first.
    const ALL: [Confidence; 4] = [
        Confidence::Concrete,
        Confidence::Abstract1,
        Confidence::Abstract2,
        Confidence::DemonicOnly,
    ];

    /// The report that claims warnings at this level: a rung of
    /// [`ConfigName::LADDER`], or the `Cons` baseline. Its name is the
    /// level of a corpus fingerprint (`Conc`/`A1`/`A2`/`Cons`).
    pub fn label(self) -> ReportLabel {
        match self {
            Confidence::Concrete => ReportLabel::Config(ConfigName::Conc),
            Confidence::Abstract1 => ReportLabel::Config(ConfigName::A1),
            Confidence::Abstract2 => ReportLabel::Config(ConfigName::A2),
            Confidence::DemonicOnly => ReportLabel::Cons,
        }
    }
}

impl std::fmt::Display for Confidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Confidence::Concrete => write!(f, "HIGH (Conc SIB)"),
            Confidence::Abstract1 => write!(f, "MEDIUM (A1)"),
            Confidence::Abstract2 => write!(f, "LOW (A2)"),
            Confidence::DemonicOnly => write!(f, "NOISE (Cons only)"),
        }
    }
}

/// A warning with its confidence level and procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedWarning {
    /// The confidence class.
    pub confidence: Confidence,
    /// The enclosing procedure.
    pub proc_name: String,
    /// The warning (id, tag, witness when available).
    pub warning: Warning,
    /// The almost-correct specification that revealed it, if any.
    pub spec: Option<String>,
    /// The MinFail of the claiming report (0 for `Cons`).
    pub min_fail: usize,
}

/// Ranks the warnings of a [`ProgramAnalysis`](crate::ProgramAnalysis)
/// run by decreasing confidence, stable within a class (program order).
///
/// Each assertion is claimed by the first report of the ladder that
/// warns about it, found by its label, so runs with more configurations
/// (say `A0`) rank the same. Configurations that timed out are skipped,
/// so their warnings may surface at a lower confidence. Procedures the
/// conservative screen proves correct, and faulted ones, contribute
/// nothing.
pub fn rank(outcomes: &[ProcOutcome]) -> Vec<RankedWarning> {
    let mut out = Vec::new();
    for pa in outcomes.iter().filter_map(ProcOutcome::analysis) {
        let mut claimed = BTreeSet::new();
        for confidence in Confidence::ALL {
            let report = std::iter::once(&pa.cons)
                .chain(pa.reports.iter().filter_map(|variants| variants.first()))
                .find(|r| r.config == confidence.label());
            let Some(r) = report.filter(|r| !r.timed_out()) else {
                continue;
            };
            let spec = r.specs.first().map(ToString::to_string);
            for w in &r.warnings {
                if claimed.insert(w.assert) {
                    out.push(RankedWarning {
                        confidence,
                        proc_name: pa.proc_name.clone(),
                        warning: w.clone(),
                        spec: spec.clone(),
                        min_fail: r.min_fail,
                    });
                }
            }
        }
    }
    out.sort_by_key(|r| r.confidence);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullObserver, ProgramAnalysis};
    use acspec_ir::parse::parse_program;

    /// One procedure per confidence class.
    const LADDER_SRC: &str = "
        procedure ext() returns (r: int);

        /* Conc: doomed dereference */
        procedure high(x: int) {
          if (x == 0) { assert x != 0; }
        }

        /* A1: figure-2 style inconsistency behind a conditional */
        procedure medium() {
          var data: int; var t: int;
          call data := ext();
          call t := ext();
          if (t == 1) {
            assert data != 0;
          } else {
            if (data != 0) { assert data != 0; }
          }
        }

        /* A2: simple unchecked external value */
        procedure low() {
          var p: int;
          call p := ext();
          assert p != 0;
        }

        /* Cons only: parameter dereference */
        procedure noise(p: int) {
          assert p != 0;
        }";

    /// Ranks a default (ladder) analysis of `src`.
    fn ranked(src: &str) -> Vec<RankedWarning> {
        let prog = parse_program(src).expect("parses");
        rank(&ProgramAnalysis::new(&prog).run(&mut NullObserver))
    }

    #[test]
    fn ladder_assigns_expected_levels() {
        let ranked = ranked(LADDER_SRC);
        let level_of = |name: &str| -> Confidence {
            ranked
                .iter()
                .find(|r| r.proc_name == name)
                .unwrap_or_else(|| panic!("no warning for {name}"))
                .confidence
        };
        assert_eq!(level_of("high"), Confidence::Concrete);
        assert_eq!(level_of("medium"), Confidence::Abstract1);
        assert_eq!(level_of("low"), Confidence::Abstract2);
        assert_eq!(level_of("noise"), Confidence::DemonicOnly);
        // Ordering: confidences non-decreasing.
        for pair in ranked.windows(2) {
            assert!(pair[0].confidence <= pair[1].confidence);
        }
    }

    #[test]
    fn correct_procedures_contribute_nothing() {
        let ranked = ranked(
            "procedure ok(x: int) {
               assume x != 0;
               assert x != 0;
             }",
        );
        assert!(ranked.is_empty());
    }

    #[test]
    fn each_assert_claimed_once() {
        let ranked = ranked(
            "procedure f(x: int) {
               if (x == 0) { assert x != 0; }
               assert x != 5;
             }",
        );
        let mut ids: Vec<_> = ranked.iter().map(|r| r.warning.assert).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), ranked.len(), "no duplicates: {ranked:?}");
    }

    /// Reports are found by label, not position: a run that also
    /// evaluates `A0` ranks exactly as the ladder-only run does.
    #[test]
    fn a0_in_the_run_ranks_as_the_ladder() {
        let prog = parse_program(LADDER_SRC).expect("parses");
        let all = ProgramAnalysis::new(&prog)
            .configs(&ConfigName::all())
            .run(&mut NullObserver);
        assert_eq!(rank(&all), ranked(LADDER_SRC));
    }

    /// x = -2^63 fails the assertion, but encoding its constant
    /// overflows: the procedure faults and ranks nothing, and the rest
    /// of the program ranks as it would alone.
    #[test]
    fn faulted_procedures_contribute_nothing() {
        let overflow = "procedure f(x: int) { assert x != 0 - 9223372036854775807 - 1; }";
        let prog = parse_program(&format!("{LADDER_SRC}\n{overflow}")).expect("parses");
        let outcomes = ProgramAnalysis::new(&prog).run(&mut NullObserver);
        assert!(outcomes.last().is_some_and(|o| o.incident().is_some()));
        assert_eq!(rank(&outcomes), ranked(LADDER_SRC));
    }
}
