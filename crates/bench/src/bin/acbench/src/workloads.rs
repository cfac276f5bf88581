//! The four end-to-end workloads: each spawns the release `acspec`, one
//! child at a time (a closed loop with one client), exactly as a user
//! runs it, and checks every output.

use std::path::{Path, PathBuf};
use std::time::Instant;

use acspec_corpus::Oracle;

use crate::child;
use crate::inputs::{self, Input};
use crate::stats;
use crate::verdict::{self, Digests};

/// Operations every run attempts, whatever `--seconds` says, so the p90
/// always has ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Setup runs at least this many times and for at least
/// [`SETUP_MIN_S`] (a cheap setup repeats until then, at most
/// [`SETUP_MAX_REPS`] times); `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 2000;

/// A seeded suite input set and its blessed seed-0 verdict digests.
#[derive(Debug, Clone, Copy)]
pub struct SuiteSet {
    scale: usize,
    max_procs: usize,
    golden: &'static str,
    file: &'static str,
    /// Units the traced run covers: about ten seconds of work on a 2-vCPU VM.
    pub traced: usize,
}

/// The suite at scale 1 in translation units of at most 8 procedures:
/// the input of suite-cold and suite-warm.
pub const SUITE: SuiteSet = SuiteSet {
    scale: 1,
    max_procs: 8,
    golden: include_str!("../expected/suite.digests"),
    file: "suite.digests",
    traced: 32,
};

/// The suite at scale 2 in units of at most 4 procedures: certifying
/// and checking a unit costs about four times analysing it, so this
/// keeps a full round of ci-certify near the other workloads' length.
pub const CERTIFY: SuiteSet = SuiteSet {
    scale: 2,
    max_procs: 4,
    golden: include_str!("../expected/certify.digests"),
    file: "certify.digests",
    traced: 64,
};

impl SuiteSet {
    /// The set's files for `seed`.
    pub fn inputs(&self, seed: u64) -> Vec<Input> {
        inputs::suite_chunks(seed, self.scale, self.max_procs)
    }

    /// The verdict checker for a run at `seed`: the blessed table at seed
    /// 0, re-blessed instead when `UPDATE_GOLDEN` is set; at other seeds,
    /// each file's verdicts must repeat.
    pub fn digests(&self, seed: u64) -> Digests {
        if seed != 0 {
            Digests::default()
        } else if std::env::var_os("UPDATE_GOLDEN").is_some() {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
            Digests::blessing(dir.join(self.file))
        } else {
            Digests::checking(self.golden)
        }
    }
}

/// Flags of every analysis run: the paper's full ladder plus `Cons`.
const ANALYSE: &[&str] = &["--all-configs", "--cons", "--format", "json"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The suite, cold: solver-bound.
    SuiteCold,
    /// The suite against a primed store: zero solver queries.
    SuiteWarm,
    /// Analyse with certificates into a fresh store, then `acspec check`.
    CiCertify,
    /// The hand-written corpus scenarios: small inputs, both front ends.
    CorpusLatency,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SuiteCold,
        Workload::SuiteWarm,
        Workload::CiCertify,
        Workload::CorpusLatency,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::SuiteWarm => "suite-warm",
            Workload::CiCertify => "ci-certify",
            Workload::CorpusLatency => "corpus-latency",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Where and how one benchmark run works.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The release `acspec` binary.
    pub acspec: PathBuf,
    /// The repository checkout (for `corpus/`).
    pub root: PathBuf,
    /// Scratch directory for inputs, stores and sidecars.
    pub work: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Fewest operations a run attempts ([`MIN_SAMPLES`]).
    pub min_samples: usize,
    /// Most input files a workload uses (all of them outside tests).
    pub max_files: usize,
}

/// A named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Extra context printed beside it (sample counts).
    pub note: String,
}

/// Builds a [`Metric`] without a note.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed (bad exit, signal, unparseable output,
    /// checker rejection or verdict mismatch).
    pub failed: usize,
    /// Of those, verdict mismatches.
    pub mismatches: usize,
    /// Every metric, in print order.
    pub metrics: Vec<Metric>,
}

/// The cost of one sampled operation (one file through the workload).
#[derive(Debug, Default)]
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

impl Sample {
    fn add(&mut self, run: &child::Run) {
        self.wall_s += run.wall_s;
        self.cpu_s += run.cpu_s;
        self.peak_rss_mb = self.peak_rss_mb.max(run.peak_rss_mb);
    }
}

/// Why one operation failed.
enum Failure {
    Mismatch(String),
    Error(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Error(msg)
    }
}

/// Writes `inputs` into `dir` (emptied first) and returns their paths.
fn write_inputs(dir: &Path, inputs: &[Input]) -> Result<Vec<PathBuf>, String> {
    reset_dir(dir)?;
    inputs
        .iter()
        .map(|i| {
            let path = dir.join(i.file_name());
            std::fs::write(&path, &i.source)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// Removes and recreates `dir`.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)
            .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn str_path(p: &Path) -> Result<&str, String> {
    p.to_str()
        .ok_or_else(|| format!("path is not UTF-8: {}", p.display()))
}

/// Runs one `acspec` analysis of `file` with `extra` flags.
fn analyse(ctx: &Ctx, file: &Path, extra: &[&str]) -> Result<child::Run, String> {
    let mut args = vec![str_path(file)?];
    args.extend_from_slice(ANALYSE);
    args.extend_from_slice(extra);
    let run = child::run(&ctx.acspec, &args)?;
    // 0 = clean, 1 = warnings; anything else (2 = bad input) is a failure.
    if !run.exited_with(&[0, 1]) {
        return Err(format!(
            "acspec {} ended with {:?}",
            file.display(),
            run.exit
        ));
    }
    Ok(run)
}

/// Runs `setup` at least [`SETUP_MIN_REPS`] times and [`SETUP_MIN_S`]
/// seconds; returns the last result and the median seconds.
fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let t_all = Instant::now();
    loop {
        let t0 = Instant::now();
        let out = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        let done = times.len() >= SETUP_MIN_REPS && t_all.elapsed().as_secs_f64() >= SETUP_MIN_S;
        if done || times.len() >= SETUP_MAX_REPS {
            return Ok((out, stats::median(&times).expect("at least one setup")));
        }
    }
}

/// The closed measuring loop: visits `files` in order, round after round,
/// until `ctx.seconds` have passed and at least one full round and
/// `ctx.min_samples` operations were attempted.
fn measure(
    ctx: &Ctx,
    files: &[(PathBuf, usize)],
    setup_s: f64,
    mut op: impl FnMut(usize, &mut Sample) -> Result<(), Failure>,
) -> Outcome {
    let floor = ctx.min_samples.max(files.len());
    let (mut latencies_ms, mut rss_mb) = (Vec::new(), Vec::new());
    let (mut procs, mut wall_s, mut cpu_s) = (0usize, 0.0, 0.0);
    let mut out = Outcome::default();
    let t0 = Instant::now();
    while out.attempted < floor || t0.elapsed().as_secs_f64() < ctx.seconds {
        let i = out.attempted % files.len();
        let mut sample = Sample::default();
        out.attempted += 1;
        if let Err(failure) = op(i, &mut sample) {
            out.failed += 1;
            let msg = match failure {
                Failure::Mismatch(m) => {
                    out.mismatches += 1;
                    m
                }
                Failure::Error(m) => m,
            };
            if out.failed <= 5 {
                eprintln!("FAIL {}: {msg}", files[i].0.display());
            }
            continue;
        }
        latencies_ms.push(sample.wall_s * 1e3);
        rss_mb.push(sample.peak_rss_mb);
        procs += files[i].1;
        wall_s += sample.wall_s;
        cpu_s += sample.cpu_s;
    }
    let n = latencies_ms.len();
    let pct = |p| stats::percentile(&latencies_ms, p).unwrap_or(f64::NAN);
    let max_rss = rss_mb.iter().copied().fold(0.0, f64::max);
    out.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("procs_per_s", procs as f64 / wall_s, "1/s"),
        Metric {
            note: stats::quartiles(&latencies_ms).map_or(String::new(), |q| {
                format!("n={n} q1={:.3} q3={:.3}", q[0], q[2])
            }),
            ..metric("latency_p50_ms", pct(50.0), "ms")
        },
        Metric {
            note: format!("n={n}"),
            ..metric("latency_p90_ms", pct(90.0), "ms")
        },
        metric("cpu_ms_per_proc", cpu_s * 1e3 / procs as f64, "ms"),
        Metric {
            note: format!("max={max_rss:.1}"),
            ..metric(
                "rss_mean_mb",
                stats::mean(&rss_mb).unwrap_or(f64::NAN),
                "MB",
            )
        },
    ];
    out
}

/// Generates the seeded suite files and writes them under the work dir.
fn suite_files(ctx: &Ctx, set: SuiteSet) -> Result<Vec<(PathBuf, usize)>, String> {
    let mut inputs = set.inputs(ctx.seed);
    inputs.truncate(ctx.max_files);
    let paths = write_inputs(&ctx.work.join("inputs"), &inputs)?;
    Ok(paths
        .into_iter()
        .zip(inputs.iter().map(|i| i.procs))
        .collect())
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Parses a report and checks its verdict digest.
fn check_digest(digests: &mut Digests, file: &Path, stdout: &[u8]) -> Result<(), Failure> {
    let doc = verdict::parse(stdout)?;
    if digests.check(&file_name(file), &verdict::digest(&doc)) {
        Ok(())
    } else {
        Err(Failure::Mismatch("verdict digest differs".into()))
    }
}

/// Runs `workload` end to end.
///
/// # Errors
///
/// Returns a message when setup fails.
pub fn run(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    match workload {
        Workload::SuiteCold => suite_cold(ctx),
        Workload::SuiteWarm => suite_warm(ctx),
        Workload::CiCertify => ci_certify(ctx),
        Workload::CorpusLatency => corpus_latency(ctx),
    }
}

fn suite_cold(ctx: &Ctx) -> Result<Outcome, String> {
    let (files, setup_s) = repeat_setup(|| suite_files(ctx, SUITE))?;
    let mut digests = SUITE.digests(ctx.seed);
    let out = measure(ctx, &files, setup_s, |i, sample| {
        let run = analyse(ctx, &files[i].0, &[])?;
        sample.add(&run);
        check_digest(&mut digests, &files[i].0, &run.stdout)
    });
    digests.finish()?;
    Ok(out)
}

fn suite_warm(ctx: &Ctx) -> Result<Outcome, String> {
    let store = ctx.work.join("store");
    let store_arg = str_path(&store)?.to_string();
    let mut digests = SUITE.digests(ctx.seed);
    // Setup primes a fresh store with a cold run; its outputs are the
    // reference every warm rerun must reproduce byte for byte.
    let ((files, primed), setup_s) = repeat_setup(|| {
        let files = suite_files(ctx, SUITE)?;
        reset_dir(&store)?;
        let mut primed = Vec::new();
        for (file, _) in &files {
            let run = analyse(ctx, file, &["--store-dir", &store_arg])?;
            if let Err(Failure::Error(m) | Failure::Mismatch(m)) =
                check_digest(&mut digests, file, &run.stdout)
            {
                return Err(format!("priming {}: {m}", file.display()));
            }
            primed.push(run.stdout);
        }
        Ok((files, primed))
    })?;
    let out = measure(ctx, &files, setup_s, |i, sample| {
        let run = analyse(ctx, &files[i].0, &["--store-dir", &store_arg])?;
        sample.add(&run);
        if run.stdout == primed[i] {
            Ok(())
        } else {
            Err(Failure::Mismatch(
                "warm output differs from the priming run".into(),
            ))
        }
    });
    digests.finish()?;
    Ok(out)
}

fn ci_certify(ctx: &Ctx) -> Result<Outcome, String> {
    let (files, setup_s) = repeat_setup(|| suite_files(ctx, CERTIFY))?;
    let mut digests = CERTIFY.digests(ctx.seed);
    let store = ctx.work.join("store");
    let certs = ctx.work.join("certs.json");
    let (store_arg, certs_arg) = (str_path(&store)?, str_path(&certs)?);
    let out = measure(ctx, &files, setup_s, |i, sample| {
        // A fresh, empty store per file: every procedure is a store write.
        reset_dir(&store)?;
        let run = analyse(
            ctx,
            &files[i].0,
            &["--certs-out", certs_arg, "--store-dir", store_arg],
        )?;
        sample.add(&run);
        check_digest(&mut digests, &files[i].0, &run.stdout)?;
        let check = child::run(&ctx.acspec, &["check", certs_arg])?;
        sample.add(&check);
        let accepted = String::from_utf8_lossy(&check.stdout).contains("all certificates check");
        if check.exited_with(&[0]) && accepted {
            Ok(())
        } else {
            Err(Failure::Error(format!(
                "acspec check rejected the certificates ({:?})",
                check.exit
            )))
        }
    });
    digests.finish()?;
    Ok(out)
}

fn corpus_latency(ctx: &Ctx) -> Result<Outcome, String> {
    type Loaded = (Vec<(PathBuf, usize)>, Vec<Oracle>);
    let ((files, oracles), setup_s) = repeat_setup(|| -> Result<Loaded, String> {
        let mut corpus = inputs::corpus(&ctx.root)?;
        corpus.truncate(ctx.max_files);
        let inputs: Vec<Input> = corpus.iter().map(|(_, i)| i.clone()).collect();
        let paths = write_inputs(&ctx.work.join("inputs"), &inputs)?;
        let oracles = corpus
            .iter()
            .map(|(sc, _)| sc.load_expected())
            .collect::<Result<_, _>>()?;
        Ok((
            paths
                .into_iter()
                .zip(inputs.iter().map(|i| i.procs))
                .collect(),
            oracles,
        ))
    })?;
    Ok(measure(ctx, &files, setup_s, |i, sample| {
        let run = analyse(ctx, &files[i].0, &[])?;
        sample.add(&run);
        let produced = verdict::ladder(&verdict::parse(&run.stdout)?);
        match oracles[i].diff(&produced).first() {
            None => Ok(()),
            Some(first) => Err(Failure::Mismatch(first.clone())),
        }
    }))
}
