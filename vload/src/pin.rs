//! A quiet place to measure, without `unsafe`: re-execute under `taskset`
//! (one CPU) and `setarch -R` (no address-space randomisation), with one
//! `malloc` arena.
//!
//! A V `Send` blocks until the `Reply`, so client and server never run at
//! the same time; on one CPU every hand-off is a same-core context switch.
//! Left unpinned on a small virtual machine the same hand-off is a
//! cross-core wake-up through the hypervisor, whose cost swings by tens of
//! percent from run to run and swamps the code under test.
//!
//! Randomised mapping addresses move which pages a small process touches:
//! `VmRSS` of the 3 MB simulated world spread 7 % between identical runs
//! with randomisation on and 0.1 % with it off. Per-thread `malloc` arenas
//! exist to keep cores off each other's locks; with every thread on one
//! core they only make what a torn-down world leaves behind depend on
//! which thread exited first (the 12.7 MB `open_forward` world read
//! 13.2, 13.5 or 14.6 MB after nine set-ups; 12.74 with one arena).

use std::ffi::OsString;
use std::os::unix::process::CommandExt;
use std::process::{Command, Stdio};

/// Set on the re-executed child so it does not wrap itself again.
const MARK: &str = "VLOAD_WRAPPED";

/// `ADDR_NO_RANDOMIZE` in `/proc/self/personality`.
const ADDR_NO_RANDOMIZE: u32 = 0x0004_0000;

/// The CPUs this process may run on, from `/proc/self/status`.
fn allowed_cpus() -> Option<Vec<u32>> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(lo.parse::<u32>().ok()?..=hi.parse::<u32>().ok()?);
    }
    Some(cpus)
}

/// Whether `wrapper … true` runs and succeeds here — the tool exists and
/// the sandbox lets it do its job.
fn works(wrapper: &[OsString]) -> bool {
    Command::new(&wrapper[0])
        .args(&wrapper[1..])
        .arg("true")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Replaces this process with itself under `taskset -c <highest allowed
/// cpu>` and `setarch <arch> -R`, with `MALLOC_ARENA_MAX=1`, unless that
/// already happened. Each wrapper is used only if a trial run of it
/// succeeds, so a box without the tools (or without leave to use them)
/// still runs the benchmark, and says so through [`is_pinned`] and
/// [`aslr_off`].
pub fn wrap_or_continue() {
    if std::env::var_os(MARK).is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let mut argv: Vec<OsString> = Vec::new();
    if let Some(cpu) = allowed_cpus().and_then(|c| c.into_iter().max()) {
        let taskset = ["taskset".into(), "-c".into(), cpu.to_string().into()];
        if works(&taskset) {
            argv.extend(taskset);
        }
    }
    let setarch = ["setarch".into(), std::env::consts::ARCH.into(), "-R".into()];
    if works(&setarch) {
        argv.extend(setarch);
    }
    argv.push(exe.into());
    argv.extend(std::env::args_os().skip(1));
    // `exec` only returns on failure; carrying on unwrapped is the fallback.
    let _ = Command::new(&argv[0])
        .args(&argv[1..])
        .env(MARK, "1")
        .env("MALLOC_ARENA_MAX", "1")
        .exec();
}

/// Whether this process is confined to exactly one CPU.
pub fn is_pinned() -> bool {
    allowed_cpus().is_some_and(|c| c.len() == 1)
}

/// Whether this process runs with address-space randomisation off.
pub fn aslr_off() -> bool {
    std::fs::read_to_string("/proc/self/personality")
        .ok()
        .and_then(|p| u32::from_str_radix(p.trim(), 16).ok())
        .is_some_and(|p| p & ADDR_NO_RANDOMIZE != 0)
}
