//! Pipeline stages, the per-procedure conflict budget, and per-stage
//! query/time tables.
//!
//! The analysis session runs one [`ProcAnalyzer`](crate::ProcAnalyzer)
//! through a fixed sequence of stages (encode once, then screen / mine /
//! cover / search / evaluate per configuration). The session times each
//! stage run and reads its query count off the analyzer's running
//! totals, so reports can break Figure 9's single `T` column into real
//! per-stage columns. A query that gives up returns its
//! [`FaultReason`]; the session tags it with the stage it interrupted
//! as a [`StageError`].

use std::fmt;
use std::time::{Duration, Instant};

/// A stage of the per-procedure analysis pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Desugaring + symbolic execution into the solver (no queries).
    Encode,
    /// The demonic baseline: `Fail(true)` and the `Dead` baseline.
    Screen,
    /// Predicate mining for a configuration's vocabulary.
    Mine,
    /// The predicate cover `β_Q(wp)` (ALL-SAT enumeration).
    Cover,
    /// Algorithm 2's greedy weakening search.
    Search,
    /// Re-evaluating `Fail`/witnesses under pruned specifications.
    Evaluate,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Encode,
        Stage::Screen,
        Stage::Mine,
        Stage::Cover,
        Stage::Search,
        Stage::Evaluate,
    ];

    /// A short lowercase name (stable; used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Encode => "encode",
            Stage::Screen => "screen",
            Stage::Mine => "mine",
            Stage::Cover => "cover",
            Stage::Search => "search",
            Stage::Evaluate => "evaluate",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a query (or a whole stage) gave up without a definite answer.
///
/// One taxonomy serves both levels: the analyzer tags each aborted
/// query (`QueryOutcome::Unknown { reason }`) and returns the same value
/// as its error, and the session tags it with the interrupted stage as a
/// [`StageError`], so a report's `timeout_stage` can say not just
/// *where* the pipeline stopped but *what* resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultReason {
    /// The deterministic conflict [`Budget`] ran dry.
    Conflicts,
    /// The wall-clock [`Deadline`] passed.
    Deadline,
    /// A structural cap (cover clauses, search nodes, path profiles)
    /// was exceeded.
    Cap,
    /// A fault injected by the chaos harness ([`crate::chaos`]).
    Chaos,
}

impl FaultReason {
    /// Stable lowercase name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            FaultReason::Conflicts => "conflicts",
            FaultReason::Deadline => "deadline",
            FaultReason::Cap => "cap",
            FaultReason::Chaos => "chaos",
        }
    }

    /// Human phrasing for diagnostics.
    fn describe(self) -> &'static str {
        match self {
            FaultReason::Conflicts => "analysis budget exhausted",
            FaultReason::Deadline => "analysis deadline exceeded",
            FaultReason::Cap => "analysis cap exceeded",
            FaultReason::Chaos => "injected fault",
        }
    }
}

impl fmt::Display for FaultReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Budget exhaustion, tagged with the stage it happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageError {
    /// The stage whose query exhausted the budget.
    pub stage: Stage,
    /// What resource ran out (conflicts, wall clock, a cap, or an
    /// injected fault).
    pub reason: FaultReason,
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} during {}", self.reason.describe(), self.stage)
    }
}

impl std::error::Error for StageError {}

/// A wall-clock deadline running alongside the conflict [`Budget`] —
/// the literal analogue of the paper's 10-second Z3 timeout, for
/// deployments where wall time (not determinism) is the constraint.
///
/// `None` = unlimited, which is the default: wall-clock limits make
/// runs nondeterministic, so every reproduction path leaves the
/// deadline off and relies on the conflict budget alone.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    limit: Option<Duration>,
}

impl Deadline {
    /// A deadline of `limit` from now (`None` = unlimited).
    pub fn new(limit: Option<Duration>) -> Self {
        Deadline {
            start: Instant::now(),
            limit,
        }
    }

    /// An unlimited deadline (never exceeded).
    pub fn unlimited() -> Self {
        Deadline::new(None)
    }

    /// The configured limit (`None` = unlimited).
    pub fn limit(&self) -> Option<Duration> {
        self.limit
    }

    /// True once the wall clock has passed the limit.
    pub fn exceeded(&self) -> bool {
        match self.limit {
            None => false,
            Some(limit) => self.start.elapsed() >= limit,
        }
    }

    /// Restarts the clock (granting a fresh limit), mirroring
    /// [`Budget::refill`] when a session shares one analyzer across
    /// configurations.
    pub fn restart(&mut self) {
        self.start = Instant::now();
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::unlimited()
    }
}

/// The per-procedure conflict pool — the deterministic analogue of the
/// paper's 10-second timeout. Refillable, so a session sharing one
/// analyzer across configurations can grant each configuration the same
/// pool the old one-analyzer-per-config drivers did.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    initial: Option<u64>,
    left: Option<u64>,
}

impl Budget {
    /// A pool of `conflicts` SAT conflicts (`None` = unlimited).
    pub fn new(conflicts: Option<u64>) -> Self {
        Budget {
            initial: conflicts,
            left: conflicts,
        }
    }

    /// Remaining conflicts (`None` = unlimited).
    pub fn left(&self) -> Option<u64> {
        self.left
    }

    /// True once the pool is empty.
    pub fn exhausted(&self) -> bool {
        matches!(self.left, Some(0))
    }

    /// Resets the pool to its initial size.
    pub fn refill(&mut self) {
        self.left = self.initial;
    }

    /// Deducts `spent` conflicts (at least one per query, so query-heavy
    /// but conflict-free workloads still terminate), saturating at zero.
    pub fn charge(&mut self, spent: u64) {
        if let Some(left) = &mut self.left {
            *left = left.saturating_sub(spent.max(1));
        }
    }
}

/// Accumulated cost of one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageMetrics {
    /// Wall-clock seconds spent in the stage.
    pub seconds: f64,
    /// SMT queries issued by the stage.
    pub queries: u64,
}

/// Per-stage metrics for one procedure/configuration run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTable {
    metrics: [StageMetrics; Stage::ALL.len()],
}

impl StageTable {
    /// The metrics of one stage.
    pub fn get(&self, stage: Stage) -> StageMetrics {
        self.metrics[stage.index()]
    }

    /// Adds cost to a stage.
    pub fn record(&mut self, stage: Stage, seconds: f64, queries: u64) {
        let m = &mut self.metrics[stage.index()];
        m.seconds += seconds;
        m.queries += queries;
    }

    /// `(stage, metrics)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, StageMetrics)> + '_ {
        Stage::ALL.iter().map(|&s| (s, self.get(s)))
    }

    /// Total seconds across stages (Figure 9's `T` column).
    pub fn total_seconds(&self) -> f64 {
        self.metrics.iter().map(|m| m.seconds).sum()
    }

    /// Total queries across stages.
    pub fn total_queries(&self) -> u64 {
        self.metrics.iter().map(|m| m.queries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_charges_at_least_one_and_refills() {
        let mut b = Budget::new(Some(3));
        assert!(!b.exhausted());
        b.charge(0);
        assert_eq!(b.left(), Some(2));
        b.charge(10);
        assert!(b.exhausted());
        b.refill();
        assert_eq!(b.left(), Some(3));

        let mut unlimited = Budget::new(None);
        unlimited.charge(u64::MAX);
        assert!(!unlimited.exhausted());
        assert_eq!(unlimited.left(), None);
    }

    #[test]
    fn table_records_and_totals() {
        let mut t = StageTable::default();
        t.record(Stage::Screen, 0.5, 10);
        t.record(Stage::Search, 1.0, 5);
        t.record(Stage::Screen, 0.25, 2);
        assert_eq!(t.get(Stage::Screen).queries, 12);
        assert_eq!(t.total_queries(), 17);
        assert!((t.total_seconds() - 1.75).abs() < 1e-9);
    }

    #[test]
    fn stage_error_names_the_stage_and_reason() {
        let e = StageError {
            stage: Stage::Cover,
            reason: FaultReason::Conflicts,
        };
        assert_eq!(e.to_string(), "analysis budget exhausted during cover");
        let e = StageError {
            stage: Stage::Search,
            reason: FaultReason::Deadline,
        };
        assert_eq!(e.to_string(), "analysis deadline exceeded during search");
    }

    #[test]
    fn deadline_unlimited_never_fires_and_zero_fires_immediately() {
        let unlimited = Deadline::unlimited();
        assert!(!unlimited.exceeded());
        assert_eq!(unlimited.limit(), None);

        let mut zero = Deadline::new(Some(Duration::from_secs(0)));
        assert!(zero.exceeded());
        // Restart grants a fresh (still zero) window.
        zero.restart();
        assert!(zero.exceeded());

        let generous = Deadline::new(Some(Duration::from_secs(3600)));
        assert!(!generous.exceeded());
    }
}
