//! The four abstract configurations of Figure 4, analysis options, and
//! the run flags both CLIs share.

use std::time::Duration;

use acspec_predabs::mine::Abstraction;
use acspec_predabs::normalize::PruneConfig;
use acspec_telemetry::opt;
use acspec_vcgen::analyzer::AnalyzerConfig;
use acspec_vcgen::chaos::ChaosConfig;

/// The named abstract configurations (Figure 4): the product of the
/// *ignore conditionals* and *havoc returns* abstractions. Arrows flow
/// from higher precision to lower: `Conc → A0/A1 → A2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConfigName {
    /// Neither abstraction: concrete SIBs (§4.4.1).
    Conc,
    /// Havoc returns only (§4.4.3).
    A0,
    /// Ignore conditionals only (§4.4.2).
    A1,
    /// Both abstractions (coarsest).
    A2,
}

impl ConfigName {
    /// The triage ladder, most precise first: the configurations the
    /// paper's evaluation reports. `A0` is omitted, as in Figures 6–9:
    /// any ν-dependent failure it catches, `A2` catches too.
    pub const LADDER: [ConfigName; 3] = [ConfigName::Conc, ConfigName::A1, ConfigName::A2];

    /// The corresponding vocabulary abstraction.
    pub fn abstraction(self) -> Abstraction {
        match self {
            ConfigName::Conc => Abstraction {
                ignore_conditionals: false,
                havoc_returns: false,
            },
            ConfigName::A0 => Abstraction {
                ignore_conditionals: false,
                havoc_returns: true,
            },
            ConfigName::A1 => Abstraction {
                ignore_conditionals: true,
                havoc_returns: false,
            },
            ConfigName::A2 => Abstraction {
                ignore_conditionals: true,
                havoc_returns: true,
            },
        }
    }

    /// True if `self` is at least as precise as `other` in the Figure 4
    /// lattice (fewer abstractions enabled).
    pub fn at_least_as_precise_as(self, other: ConfigName) -> bool {
        let a = self.abstraction();
        let b = other.abstraction();
        (!a.ignore_conditionals || b.ignore_conditionals) && (!a.havoc_returns || b.havoc_returns)
    }

    /// All four configurations, most precise first.
    pub fn all() -> [ConfigName; 4] {
        [
            ConfigName::Conc,
            ConfigName::A0,
            ConfigName::A1,
            ConfigName::A2,
        ]
    }
}

impl std::fmt::Display for ConfigName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigName::Conc => write!(f, "Conc"),
            ConfigName::A0 => write!(f, "A0"),
            ConfigName::A1 => write!(f, "A1"),
            ConfigName::A2 => write!(f, "A2"),
        }
    }
}

/// The metric deciding when a specification is "too strong" (§2.3: the
/// definition of `Dead` is a parameter of the analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadMetric {
    /// Branch coverage (the paper's default): a specification is too
    /// strong if some tracked location becomes unreachable.
    #[default]
    BranchCoverage,
    /// Path coverage (the paper's named alternative): a specification is
    /// too strong if some *path profile* feasible under `true` becomes
    /// infeasible. Strictly more sensitive than branch coverage. The cap
    /// bounds profile enumeration (exceeding it counts as a timeout).
    PathCoverage {
        /// Maximum number of path profiles to enumerate per query.
        max_profiles: usize,
    },
}

/// Options for a full ACSpec analysis of one procedure.
#[derive(Debug, Clone, Copy)]
pub struct AcspecOptions {
    /// The abstract configuration.
    pub config: ConfigName,
    /// The dead-code metric (§2.3).
    pub dead_metric: DeadMetric,
    /// Clause pruning (§4.3); `PruneConfig::default()` keeps everything.
    pub prune: PruneConfig,
    /// Whether to run `Normalize` before pruning (ablation knob; the
    /// paper always normalizes).
    pub apply_normalize: bool,
    /// Analyzer budget (the 10-second-timeout stand-in).
    pub analyzer: AnalyzerConfig,
}

/// Cap on the cover clauses ALL-SAT enumerates for one configuration.
/// `|Q|` itself is capped at [`acspec_predabs::MAX_PREDICATES`].
pub(crate) const MAX_COVER_CLAUSES: usize = 512;

/// Cap on the clause subsets Algorithm 2 visits for one configuration.
pub(crate) const MAX_SEARCH_NODES: usize = 3_000;

impl Default for AcspecOptions {
    fn default() -> Self {
        AcspecOptions {
            config: ConfigName::Conc,
            dead_metric: DeadMetric::BranchCoverage,
            prune: PruneConfig::default(),
            apply_normalize: true,
            analyzer: AnalyzerConfig::default(),
        }
    }
}

impl AcspecOptions {
    /// Options for a named configuration with defaults elsewhere.
    pub fn for_config(config: ConfigName) -> AcspecOptions {
        AcspecOptions {
            config,
            ..AcspecOptions::default()
        }
    }

    /// Sets `k`-clause pruning (§4.3, Figure 6's `k = 3, 2, 1` columns).
    #[must_use]
    pub fn with_k_pruning(mut self, k: usize) -> AcspecOptions {
        self.prune.max_literals = Some(k);
        self
    }
}

/// The eight run flags `acspec` and `repro` share: where a run writes
/// its trace, metrics and certificates, the analyzer knobs
/// (`--no-query-cache`, `--deadline`, `--chaos-seed`, `--chaos-rate`)
/// and the result store. Both CLIs parse them with [`RunConfig::parse_flag`],
/// set the analyzer with [`RunConfig::apply`] and record them with
/// [`RunConfig::manifest_options`]; each CLI decides which of them a
/// command accepts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// `--trace-out <path>`: JSONL span trace.
    pub trace_out: Option<String>,
    /// `--metrics-out <path>`: JSON metrics snapshot.
    pub metrics_out: Option<String>,
    /// `--certs-out <path>`: certificate sidecar.
    pub certs_out: Option<String>,
    /// Cleared by `--no-query-cache`. Starts from
    /// [`AnalyzerConfig::default`], which honours `ACSPEC_NO_QUERY_CACHE`.
    pub query_cache: bool,
    /// `--deadline <secs>` as given, so the manifest records it
    /// verbatim. Private: [`RunConfig::parse_flag`] only accepts seconds
    /// a [`Duration`] can hold, which [`RunConfig::apply`] relies on.
    deadline: Option<f64>,
    /// `--chaos-seed <u64>`.
    pub chaos_seed: Option<u64>,
    /// `--chaos-rate <p>`, in `0..=1`.
    pub chaos_rate: Option<f64>,
    /// `--store-dir <dir>`: the persistent result store.
    pub store_dir: Option<String>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            trace_out: None,
            metrics_out: None,
            certs_out: None,
            query_cache: AnalyzerConfig::default().query_cache,
            deadline: None,
            chaos_seed: None,
            chaos_rate: None,
            store_dir: None,
        }
    }
}

impl RunConfig {
    /// The run flags that tune the analyzer.
    pub const KNOB_FLAGS: [&'static str; 4] = [
        "--no-query-cache",
        "--deadline",
        "--chaos-seed",
        "--chaos-rate",
    ];
    /// The run flags that name an output file.
    pub const SINK_FLAGS: [&'static str; 3] = ["--trace-out", "--metrics-out", "--certs-out"];

    /// Parses the run flag at the head of `args`, with its value, into
    /// `self`. Returns how many arguments it took, `None` when `args[0]`
    /// is not a run flag, or a diagnostic naming the flag when its value
    /// is missing or invalid.
    pub fn parse_flag<S: AsRef<str>>(&mut self, args: &[S]) -> Result<Option<usize>, String> {
        let Some(flag) = args.first().map(AsRef::as_ref) else {
            return Ok(None);
        };
        let value = args.get(1).map(AsRef::as_ref);
        let need = |what: &str| format!("{flag} needs {what}");
        let path = || value.map(str::to_string).ok_or_else(|| need("a path"));
        match flag {
            "--no-query-cache" => {
                self.query_cache = false;
                return Ok(Some(1));
            }
            "--trace-out" => self.trace_out = Some(path()?),
            "--metrics-out" => self.metrics_out = Some(path()?),
            "--certs-out" => self.certs_out = Some(path()?),
            "--store-dir" => self.store_dir = Some(path()?),
            "--deadline" => {
                let secs = value.and_then(|v| v.parse::<f64>().ok());
                let secs = secs.filter(|&s| Duration::try_from_secs_f64(s).is_ok());
                self.deadline = Some(secs.ok_or_else(|| need("a number of seconds in 0..2^64"))?);
            }
            "--chaos-seed" => {
                let seed = value.and_then(|v| v.parse().ok());
                self.chaos_seed = Some(seed.ok_or_else(|| need("an unsigned integer"))?);
            }
            "--chaos-rate" => {
                let rate = value.and_then(|v| v.parse::<f64>().ok());
                let rate = rate.filter(|r| (0.0..=1.0).contains(r));
                self.chaos_rate = Some(rate.ok_or_else(|| need("a probability in 0..=1"))?);
            }
            _ => return Ok(None),
        }
        Ok(Some(2))
    }

    /// The fault-injection harness the chaos flags ask for, if any
    /// ([`ChaosConfig::from_flags`]).
    fn chaos(&self) -> Option<ChaosConfig> {
        ChaosConfig::from_flags(self.chaos_seed, self.chaos_rate)
    }

    /// Sets the analyzer knobs: `--no-query-cache` turns the query cache
    /// off, `--deadline` sets the wall-clock deadline, and a chaos flag
    /// installs the fault-injection harness.
    pub fn apply(&self, analyzer: &mut AnalyzerConfig) {
        analyzer.query_cache &= self.query_cache;
        if let Some(secs) = self.deadline {
            analyzer.deadline = Some(Duration::from_secs_f64(secs));
        }
        if let Some(chaos) = self.chaos() {
            analyzer.chaos = Some(chaos);
        }
    }

    /// The manifest options these flags add, in this order:
    /// `query_cache`, then `deadline_secs`, `chaos_seed`, `chaos_rate`
    /// and `store_dir` when set.
    pub fn manifest_options(&self) -> Vec<(String, String)> {
        let mut options = vec![opt("query_cache", self.query_cache)];
        if let Some(secs) = self.deadline {
            options.push(opt("deadline_secs", secs));
        }
        if let Some(chaos) = self.chaos() {
            options.push(opt("chaos_seed", chaos.seed));
            options.push(opt("chaos_rate", chaos.rate));
        }
        if let Some(dir) = &self.store_dir {
            options.push(opt("store_dir", dir));
        }
        options
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_order_matches_figure4() {
        use ConfigName::*;
        assert!(Conc.at_least_as_precise_as(A0));
        assert!(Conc.at_least_as_precise_as(A1));
        assert!(Conc.at_least_as_precise_as(A2));
        assert!(A0.at_least_as_precise_as(A2));
        assert!(A1.at_least_as_precise_as(A2));
        assert!(!A0.at_least_as_precise_as(A1));
        assert!(!A1.at_least_as_precise_as(A0));
        assert!(!A2.at_least_as_precise_as(Conc));
        for c in ConfigName::all() {
            assert!(c.at_least_as_precise_as(c));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ConfigName::Conc.to_string(), "Conc");
        assert_eq!(ConfigName::A2.to_string(), "A2");
    }

    /// Parses `args`, all of which must be run flags.
    fn run_config(args: &[&str]) -> Result<RunConfig, String> {
        let mut run = RunConfig::default();
        let mut i = 0;
        while i < args.len() {
            i += run.parse_flag(&args[i..])?.expect("a run flag");
        }
        Ok(run)
    }

    #[test]
    fn each_run_flag_parses_into_its_field() {
        let run = run_config(&[
            "--trace-out",
            "t.jsonl",
            "--metrics-out",
            "m.json",
            "--certs-out",
            "c.json",
            "--no-query-cache",
            "--deadline",
            "2.5",
            "--chaos-seed",
            "7",
            "--chaos-rate",
            "0.25",
            "--store-dir",
            "S",
        ]);
        let expected = RunConfig {
            trace_out: Some("t.jsonl".into()),
            metrics_out: Some("m.json".into()),
            certs_out: Some("c.json".into()),
            query_cache: false,
            deadline: Some(2.5),
            chaos_seed: Some(7),
            chaos_rate: Some(0.25),
            store_dir: Some("S".into()),
        };
        assert_eq!(run, Ok(expected));
        assert_eq!(
            run_config(&["--deadline", "1e18"]).unwrap().deadline,
            Some(1e18)
        );
    }

    #[test]
    fn other_arguments_are_left_to_the_caller() {
        let mut run = RunConfig::default();
        assert_eq!(run.parse_flag(&["--config", "A1"]), Ok(None));
        assert_eq!(run.parse_flag(&["input.c", "--deadline"]), Ok(None));
        assert_eq!(run.parse_flag::<&str>(&[]), Ok(None));
        assert_eq!(run, RunConfig::default());
    }

    #[test]
    fn missing_and_invalid_values_are_errors() {
        for flag in RunConfig::KNOB_FLAGS
            .iter()
            .chain(&RunConfig::SINK_FLAGS)
            .chain(&["--store-dir"])
            .filter(|f| **f != "--no-query-cache")
        {
            let err = run_config(&[flag]).unwrap_err();
            assert!(err.starts_with(&format!("{flag} needs ")), "{err}");
        }
        for (flag, value) in [
            ("--deadline", "NaN"),
            ("--deadline", "-1"),
            ("--deadline", "inf"),
            ("--deadline", "1e20"),
            ("--deadline", "soon"),
            ("--chaos-rate", "NaN"),
            ("--chaos-rate", "1.5"),
            ("--chaos-rate", "-0.5"),
            ("--chaos-seed", "-1"),
            ("--chaos-seed", "0.5"),
            ("--chaos-seed", "18446744073709551616"),
        ] {
            let err = run_config(&[flag, value]).unwrap_err();
            assert!(err.starts_with(&format!("{flag} needs ")), "{value}: {err}");
        }
    }

    #[test]
    fn chaos_is_off_unless_a_chaos_flag_is_given() {
        let mut analyzer = AnalyzerConfig::default();
        RunConfig::default().apply(&mut analyzer);
        assert_eq!(analyzer.chaos, None);
        assert_eq!(analyzer.deadline, None);
        assert_eq!(analyzer.query_cache, AnalyzerConfig::default().query_cache);
        let seed_only = run_config(&["--chaos-seed", "9"]).unwrap();
        assert_eq!(seed_only.chaos(), Some(ChaosConfig::new(9, 0.0)));
        let rate_only = run_config(&["--chaos-rate", "0.5"]).unwrap();
        assert_eq!(rate_only.chaos(), Some(ChaosConfig::new(0, 0.5)));
    }

    #[test]
    fn apply_sets_cache_deadline_and_chaos() {
        let run = run_config(&[
            "--no-query-cache",
            "--deadline",
            "30",
            "--chaos-seed",
            "3",
            "--chaos-rate",
            "0.01",
        ])
        .unwrap();
        let mut analyzer = AnalyzerConfig::default();
        run.apply(&mut analyzer);
        assert!(!analyzer.query_cache);
        assert_eq!(analyzer.deadline, Some(Duration::from_secs(30)));
        assert_eq!(analyzer.chaos, Some(ChaosConfig::new(3, 0.01)));
        assert_eq!(
            analyzer.conflict_budget,
            AnalyzerConfig::default().conflict_budget
        );
    }

    #[test]
    fn manifest_options_come_in_a_fixed_order() {
        assert_eq!(
            RunConfig::default().manifest_options(),
            [opt("query_cache", AnalyzerConfig::default().query_cache)]
        );
        let run = run_config(&[
            "--store-dir",
            "S",
            "--chaos-rate",
            "0.01",
            "--deadline",
            "30",
            "--no-query-cache",
            "--trace-out",
            "t.jsonl",
        ])
        .unwrap();
        assert_eq!(
            run.manifest_options(),
            [
                opt("query_cache", false),
                opt("deadline_secs", 30),
                opt("chaos_seed", 0),
                opt("chaos_rate", 0.01),
                opt("store_dir", "S"),
            ]
        );
    }
}
