//! Child-process accounting: wall time, CPU time and peak RSS of one
//! `acspec` run, read from `wait4`'s `rusage` through a small `extern "C"`
//! block, so the benchmark needs no crate beyond the standard library.

use std::io::Read;
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicI32, Ordering};
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

const SIGKILL: c_int = 9;

/// The pid of the child being waited for (0 when none), so the watchdog
/// can kill it before the benchmark gives up.
static CURRENT: AtomicI32 = AtomicI32::new(0);

/// How one child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Normal exit with this code.
    Code(i32),
    /// Killed by this signal.
    Signal(i32),
}

/// What one child run cost and printed.
#[derive(Debug)]
pub struct Run {
    /// How it ended.
    pub exit: Exit,
    /// Its standard output.
    pub stdout: Vec<u8>,
    /// Spawn to reap, in seconds.
    pub wall_s: f64,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size, in MB.
    pub peak_rss_mb: f64,
}

impl Run {
    /// True when the child exited normally with a code in `ok`.
    pub fn exited_with(&self, ok: &[i32]) -> bool {
        matches!(self.exit, Exit::Code(c) if ok.contains(&c))
    }
}

/// Runs `program args…` to completion with stdout captured and stderr
/// passed through, and reaps it with `wait4` to read its rusage.
///
/// # Errors
///
/// Returns a message when the child cannot be spawned or waited for.
pub fn run(program: &Path, args: &[&str]) -> Result<Run, String> {
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", program.display()))?;
    let pid = c_int::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    CURRENT.store(pid, Ordering::SeqCst);
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // wait4(2) expects; `pid` is our own unreaped child, reaped only here
    // (the `Child` handle is never waited on).
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    CURRENT.store(0, Ordering::SeqCst);
    let wall_s = t0.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(format!("wait4 failed for pid {pid}"));
    }
    read.map_err(|e| format!("cannot read child stdout: {e}"))?;
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(Run {
        exit: decode_status(status),
        stdout,
        wall_s,
        cpu_s: secs(&usage.ru_utime) + secs(&usage.ru_stime),
        // Linux reports ru_maxrss in KiB.
        peak_rss_mb: usage.ru_maxrss as f64 / 1024.0,
    })
}

/// Decodes a `wait` status word the way `WIFEXITED`/`WTERMSIG` do.
fn decode_status(status: c_int) -> Exit {
    let sig = status & 0x7f;
    if sig == 0 {
        Exit::Code((status >> 8) & 0xff)
    } else {
        Exit::Signal(sig)
    }
}

/// Kills the child currently being waited for, if any, and waits until
/// it has ended.
pub fn kill_current() {
    let pid = CURRENT.load(Ordering::SeqCst);
    if pid > 0 {
        let mut status: c_int = 0;
        let mut usage = Rusage::default();
        // SAFETY: kill(2) takes plain integers, and wait4(2) gets live,
        // writable buffers. A stale pid at worst fails with ESRCH or
        // ECHILD: the pid is cleared right after the waiting thread reaps
        // it, and if that thread reaps it first, this wait4 just fails.
        unsafe {
            kill(pid, SIGKILL);
            wait4(pid, &mut status, 0, &mut usage);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_words_decode() {
        assert_eq!(decode_status(0), Exit::Code(0));
        assert_eq!(decode_status(1 << 8), Exit::Code(1));
        assert_eq!(decode_status(2 << 8), Exit::Code(2));
        assert_eq!(decode_status(9), Exit::Signal(9));
        assert_eq!(decode_status(6 | 0x80), Exit::Signal(6), "core dumped");
    }

    #[test]
    fn rusage_accounts_cpu_and_memory() {
        let spin = "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done; echo done";
        let run = run(Path::new("sh"), &["-c", spin]).expect("runs");
        assert!(run.exited_with(&[0]));
        assert_eq!(run.stdout, b"done\n");
        assert!(run.cpu_s > 0.0, "{run:?}");
        assert!(run.peak_rss_mb > 0.1, "{run:?}");
        assert!(run.wall_s >= run.cpu_s * 0.5, "{run:?}");
    }

    #[test]
    fn exit_codes_and_signals_are_reported() {
        let failed = run(Path::new("sh"), &["-c", "exit 3"]).expect("runs");
        assert_eq!(failed.exit, Exit::Code(3));
        assert!(!failed.exited_with(&[0, 1]));
        let killed = run(Path::new("sh"), &["-c", "kill -9 $$"]).expect("runs");
        assert_eq!(killed.exit, Exit::Signal(9));
    }
}
