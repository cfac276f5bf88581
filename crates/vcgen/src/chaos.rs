//! Deterministic fault injection for the analysis runtime.
//!
//! A production triage service must survive solver misbehavior: queries
//! that come back `Unknown`, queries that burn the whole conflict pool,
//! queries that stall, and outright panics in the engine. The chaos
//! harness simulates all four *deterministically*: a [`ChaosConfig`]
//! seeds a splitmix64 stream, [`ChaosConfig::for_proc`] derives an
//! independent stream per procedure (so injection is reproducible
//! regardless of how the `ProgramAnalysis` thread pool schedules
//! procedures), and the analyzer draws from the stream once per
//! `check()`.
//!
//! With `rate = 0.0` the engine draws nothing and the analyzer's
//! behavior is bit-for-bit identical to a run without the harness —
//! the chaos-equivalence test in `acspec-core` pins this down.

use crate::stage::FaultReason;

/// One splitmix64 step: advances the state and returns a well-mixed
/// 64-bit output. Small, fast, and reproducible everywhere — exactly
/// what a deterministic chaos stream needs (vendored-`rand` not
/// required).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a procedure name, for mixing into the seed.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Configuration for the fault-injection harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Base seed for the deterministic fault stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given `check()` draws a fault.
    /// `0.0` injects nothing (and the analyzer behaves identically to a
    /// run without the harness).
    pub rate: f64,
}

impl ChaosConfig {
    /// A harness with the given seed and per-query fault rate.
    pub fn new(seed: u64, rate: f64) -> Self {
        ChaosConfig {
            seed,
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The harness a seed flag and a rate flag ask for: none unless at
    /// least one was given, the other then defaulting to seed 0 or rate
    /// 0, so flagless runs stay byte-identical.
    pub fn from_flags(seed: Option<u64>, rate: Option<f64>) -> Option<ChaosConfig> {
        (seed.is_some() || rate.is_some())
            .then(|| ChaosConfig::new(seed.unwrap_or(0), rate.unwrap_or(0.0)))
    }

    /// Derives the per-procedure configuration: same rate, seed mixed
    /// with the procedure name. Each procedure then owns an independent
    /// deterministic stream, so the injected faults do not depend on
    /// thread scheduling or on which other procedures ran first.
    pub fn for_proc(&self, proc_name: &str) -> ChaosConfig {
        let mut state = self.seed ^ fnv1a(proc_name);
        ChaosConfig {
            seed: splitmix64(&mut state),
            rate: self.rate,
        }
    }
}

/// A fault drawn from the chaos stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// The query "returns" `Unknown` (reason [`FaultReason::Chaos`]).
    Unknown,
    /// A large slice of the remaining conflict budget is burned before
    /// the query runs, simulating a pathological solver call.
    BudgetBlowup,
    /// A short stall is inserted before the query, simulating latency.
    Latency,
    /// The engine panics, exercising the `catch_unwind` isolation in
    /// the `ProgramAnalysis` worker loop.
    Panic,
}

impl ChaosFault {
    const ALL: [ChaosFault; 4] = [
        ChaosFault::Unknown,
        ChaosFault::BudgetBlowup,
        ChaosFault::Latency,
        ChaosFault::Panic,
    ];

    /// Stable lowercase name (telemetry counter suffixes).
    pub fn name(self) -> &'static str {
        match self {
            ChaosFault::Unknown => "unknown",
            ChaosFault::BudgetBlowup => "blowup",
            ChaosFault::Latency => "latency",
            ChaosFault::Panic => "panic",
        }
    }

    /// The reason carried by query outcomes this fault aborts.
    pub fn reason(self) -> FaultReason {
        FaultReason::Chaos
    }
}

/// Keeps the default panic-hook backtrace off stderr for the panics
/// [`ChaosFault::Panic`] injects on purpose (their message starts with
/// `chaos:`): the worker loop catches them and reports them as
/// incidents. Real panics still reach the previous hook.
pub fn silence_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("chaos:"));
        if !injected {
            prev(info);
        }
    }));
}

/// Monotone counters for injected faults (telemetry's `chaos.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Queries that consulted the stream.
    pub draws: u64,
    /// Injected `Unknown` outcomes.
    pub unknowns: u64,
    /// Injected budget blowups.
    pub blowups: u64,
    /// Injected latency stalls.
    pub latencies: u64,
    /// Injected panics.
    pub panics: u64,
}

impl ChaosStats {
    /// Total faults injected (excludes fault-free draws).
    pub fn injected(&self) -> u64 {
        self.unknowns + self.blowups + self.latencies + self.panics
    }

    /// The counter deltas accumulated since `earlier`.
    pub fn since(&self, earlier: &ChaosStats) -> ChaosStats {
        ChaosStats {
            draws: self.draws - earlier.draws,
            unknowns: self.unknowns - earlier.unknowns,
            blowups: self.blowups - earlier.blowups,
            latencies: self.latencies - earlier.latencies,
            panics: self.panics - earlier.panics,
        }
    }
}

/// The per-analyzer fault stream: wraps the solver's `check()` path,
/// deciding before each query whether to inject a fault and which kind.
#[derive(Debug)]
pub struct ChaosSolver {
    state: u64,
    rate: f64,
    stats: ChaosStats,
}

impl ChaosSolver {
    /// Builds the stream for one analyzer from its (already
    /// per-procedure-mixed) configuration.
    pub fn new(config: ChaosConfig) -> Self {
        ChaosSolver {
            state: config.seed,
            rate: config.rate.clamp(0.0, 1.0),
            stats: ChaosStats::default(),
        }
    }

    /// Draws the next decision: `None` (let the query run) or a fault.
    /// Exactly one or two splitmix64 steps per call, so the stream is a
    /// pure function of the seed and the number of prior draws.
    pub fn next_fault(&mut self) -> Option<ChaosFault> {
        self.stats.draws += 1;
        if self.rate <= 0.0 {
            return None;
        }
        // 53 mantissa bits give a uniform draw in [0, 1).
        let u = (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.rate {
            return None;
        }
        let kind = ChaosFault::ALL[(splitmix64(&mut self.state) % 4) as usize];
        match kind {
            ChaosFault::Unknown => self.stats.unknowns += 1,
            ChaosFault::BudgetBlowup => self.stats.blowups += 1,
            ChaosFault::Latency => self.stats.latencies += 1,
            ChaosFault::Panic => self.stats.panics += 1,
        }
        Some(kind)
    }

    /// The monotone injection counters.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }
}

/// An I/O fault drawn by the store chaos stream ([`ChaosStore`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// The entry is truncated mid-write (the writer "crashed" after
    /// flushing a prefix of the temp file).
    TornWrite,
    /// One bit of the written entry is flipped (media corruption).
    BitFlip,
    /// The write fails outright, as if the disk were full.
    Enospc,
    /// The read fails transiently; the store retries with backoff.
    ReadError,
}

impl StoreFault {
    const ALL: [StoreFault; 4] = [
        StoreFault::TornWrite,
        StoreFault::BitFlip,
        StoreFault::Enospc,
        StoreFault::ReadError,
    ];

    /// Stable lowercase name (telemetry counter suffixes).
    pub fn name(self) -> &'static str {
        match self {
            StoreFault::TornWrite => "torn_write",
            StoreFault::BitFlip => "bit_flip",
            StoreFault::Enospc => "enospc",
            StoreFault::ReadError => "read_error",
        }
    }
}

/// Monotone counters for injected store faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStoreStats {
    /// Store operations that consulted the stream.
    pub draws: u64,
    /// Injected torn writes.
    pub torn_writes: u64,
    /// Injected bit flips.
    pub bit_flips: u64,
    /// Injected full-disk write failures.
    pub enospcs: u64,
    /// Injected transient read errors.
    pub read_errors: u64,
}

impl ChaosStoreStats {
    /// Total faults injected (excludes fault-free draws).
    pub fn injected(&self) -> u64 {
        self.torn_writes + self.bit_flips + self.enospcs + self.read_errors
    }
}

/// Salt separating the load stream from the save stream for one key.
const STORE_OP_LOAD: u64 = 0x1b87_3c55_a05e_9d31;
/// Salt for the save stream.
const STORE_OP_SAVE: u64 = 0x7f4c_a9e3_5d21_66b7;

/// The store's deterministic I/O fault stream.
///
/// Unlike [`ChaosSolver`] (one stream per analyzer, advanced per query)
/// the store is shared across worker threads, so a single advancing
/// stream would make injection depend on thread scheduling. Instead
/// every decision is a *pure function* of `(seed, entry key, operation,
/// attempt)`: the same entry sees the same faults no matter which
/// thread touches it or in what order.
#[derive(Debug)]
pub struct ChaosStore {
    seed: u64,
    rate: f64,
    stats: ChaosStoreStats,
}

impl ChaosStore {
    /// Builds the stream from the shared chaos configuration (same seed
    /// and rate as the solver harness).
    pub fn new(config: ChaosConfig) -> Self {
        ChaosStore {
            seed: config.seed,
            rate: config.rate.clamp(0.0, 1.0),
            stats: ChaosStoreStats::default(),
        }
    }

    fn draw(&mut self, key: &str, op: u64, attempt: u64) -> Option<StoreFault> {
        self.stats.draws += 1;
        if self.rate <= 0.0 {
            return None;
        }
        let mut state = self.seed ^ fnv1a(key) ^ op ^ attempt.wrapping_mul(0x9e37_79b9);
        // 53 mantissa bits give a uniform draw in [0, 1).
        let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.rate {
            return None;
        }
        let kind = StoreFault::ALL[(splitmix64(&mut state) % 4) as usize];
        match kind {
            StoreFault::TornWrite => self.stats.torn_writes += 1,
            StoreFault::BitFlip => self.stats.bit_flips += 1,
            StoreFault::Enospc => self.stats.enospcs += 1,
            StoreFault::ReadError => self.stats.read_errors += 1,
        }
        Some(kind)
    }

    /// Decides the fault (if any) for saving `key`. Read-class faults
    /// never fire on the save path.
    pub fn save_fault(&mut self, key: &str) -> Option<StoreFault> {
        match self.draw(key, STORE_OP_SAVE, 0) {
            Some(StoreFault::ReadError) | None => None,
            f => f,
        }
    }

    /// Decides whether loading `key` (retry number `attempt`, starting
    /// at 0) fails transiently. Write-class faults never fire on the
    /// load path — corruption is injected at write time so a damaged
    /// entry stays damaged across retries, like real media.
    pub fn load_fault(&mut self, key: &str, attempt: u64) -> bool {
        matches!(
            self.draw(key, STORE_OP_LOAD, attempt),
            Some(StoreFault::ReadError)
        )
    }

    /// Mutates `bytes` according to a write-class fault: truncation
    /// point or flipped bit is drawn deterministically from the same
    /// `(seed, key)` stream.
    pub fn corrupt(&mut self, key: &str, fault: StoreFault, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        let mut state = self.seed ^ fnv1a(key) ^ STORE_OP_SAVE ^ 0x5bd1_e995;
        let r = splitmix64(&mut state);
        match fault {
            StoreFault::TornWrite => {
                bytes.truncate((r % bytes.len() as u64) as usize);
            }
            StoreFault::BitFlip => {
                let bit = (r % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            StoreFault::Enospc | StoreFault::ReadError => {}
        }
    }

    /// The monotone injection counters.
    pub fn stats(&self) -> ChaosStoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let cfg = ChaosConfig::new(7, 0.5);
        let mut a = ChaosSolver::new(cfg);
        let mut b = ChaosSolver::new(cfg);
        let sa: Vec<_> = (0..256).map(|_| a.next_fault()).collect();
        let sb: Vec<_> = (0..256).map(|_| b.next_fault()).collect();
        assert_eq!(sa, sb);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn zero_rate_never_injects() {
        let mut s = ChaosSolver::new(ChaosConfig::new(42, 0.0));
        for _ in 0..1000 {
            assert_eq!(s.next_fault(), None);
        }
        assert_eq!(s.stats().injected(), 0);
        assert_eq!(s.stats().draws, 1000);
    }

    #[test]
    fn full_rate_injects_every_kind() {
        let mut s = ChaosSolver::new(ChaosConfig::new(42, 1.0));
        for _ in 0..1000 {
            assert!(s.next_fault().is_some());
        }
        let st = s.stats();
        assert_eq!(st.injected(), 1000);
        assert!(st.unknowns > 0 && st.blowups > 0 && st.latencies > 0 && st.panics > 0);
    }

    #[test]
    fn per_proc_streams_are_independent_and_deterministic() {
        let base = ChaosConfig::new(42, 0.3);
        let f = base.for_proc("foo");
        let g = base.for_proc("bar");
        assert_ne!(f.seed, g.seed);
        assert_eq!(f, base.for_proc("foo"));

        let mut sf = ChaosSolver::new(f);
        let mut sg = ChaosSolver::new(g);
        let a: Vec<_> = (0..64).map(|_| sf.next_fault()).collect();
        let b: Vec<_> = (0..64).map(|_| sg.next_fault()).collect();
        assert_ne!(a, b, "distinct procedures should see distinct streams");
    }

    #[test]
    fn store_zero_rate_never_injects() {
        let mut s = ChaosStore::new(ChaosConfig::new(42, 0.0));
        for i in 0..500 {
            assert_eq!(s.save_fault(&format!("k{i}")), None);
            assert!(!s.load_fault(&format!("k{i}"), 0));
        }
        assert_eq!(s.stats().injected(), 0);
    }

    #[test]
    fn store_faults_are_key_deterministic_and_order_independent() {
        let cfg = ChaosConfig::new(9, 0.7);
        let keys: Vec<String> = (0..64).map(|i| format!("proc{i}")).collect();
        let mut a = ChaosStore::new(cfg);
        let fa: Vec<_> = keys.iter().map(|k| a.save_fault(k)).collect();
        // Same keys drawn in reverse order from a fresh stream: each
        // key's decision must be unchanged.
        let mut b = ChaosStore::new(cfg);
        let mut fb: Vec<_> = keys.iter().rev().map(|k| b.save_fault(k)).collect();
        fb.reverse();
        assert_eq!(fa, fb);
        assert!(fa.iter().any(Option::is_some));
        assert!(!fa.iter().any(|f| matches!(f, Some(StoreFault::ReadError))));
    }

    #[test]
    fn store_read_retries_draw_independent_attempts() {
        let mut s = ChaosStore::new(ChaosConfig::new(3, 0.5));
        let per_attempt: Vec<bool> = (0..8).map(|a| s.load_fault("k", a)).collect();
        // Not all attempts agree at rate 0.5 over 8 draws (seeded so the
        // stream mixes); a stuck stream would make retries pointless.
        assert!(per_attempt.iter().any(|&x| x) && per_attempt.iter().any(|&x| !x));
        let mut t = ChaosStore::new(ChaosConfig::new(3, 0.5));
        let again: Vec<bool> = (0..8).map(|a| t.load_fault("k", a)).collect();
        assert_eq!(per_attempt, again);
    }

    #[test]
    fn corrupt_truncates_or_flips_exactly_one_bit() {
        let mut s = ChaosStore::new(ChaosConfig::new(11, 1.0));
        let golden: Vec<u8> = (0..=255).collect();
        let mut torn = golden.clone();
        s.corrupt("k", StoreFault::TornWrite, &mut torn);
        assert!(torn.len() < golden.len());
        assert_eq!(&golden[..torn.len()], &torn[..]);
        let mut flipped = golden.clone();
        s.corrupt("k", StoreFault::BitFlip, &mut flipped);
        assert_eq!(flipped.len(), golden.len());
        let diff_bits: u32 = golden
            .iter()
            .zip(&flipped)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1);
    }

    #[test]
    fn rate_is_roughly_respected() {
        let mut s = ChaosSolver::new(ChaosConfig::new(1, 0.1));
        let injected = (0..10_000).filter(|_| s.next_fault().is_some()).count();
        assert!(
            (500..1500).contains(&injected),
            "expected ~1000 of 10000, got {injected}"
        );
    }
}
