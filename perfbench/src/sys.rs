//! Process clocks and run provenance: CPU time, git state, core count and
//! the filesystem the spill directory lives on.

use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of the whole process (every thread, exited
/// ones included), in nanosecond resolution.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `<hash>` or `<hash>-dirty` when `root` is the top of a git work tree,
/// else `unknown (not a git checkout)`. Untracked files do not count as
/// dirty; benchmark output is git-ignored.
pub fn git_commit(root: &Path) -> String {
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let top = git(&["rev-parse", "--show-toplevel"]).map(std::path::PathBuf::from);
    let is_top = match (
        top.and_then(|t| t.canonicalize().ok()),
        root.canonicalize().ok(),
    ) {
        (Some(t), Some(r)) => t == r,
        _ => false,
    };
    if !is_top {
        return "unknown (not a git checkout)".to_string();
    }
    let Some(hash) = git(&["rev-parse", "HEAD"]) else {
        return "unknown (no commit)".to_string();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) if s.is_empty() => hash,
        Some(_) => format!("{hash}-dirty"),
        None => format!("{hash}-unknown"),
    }
}

/// Filesystem type of the mount holding `dir` (e.g. `ext4`, `tmpfs`), from
/// the longest mount point in `/proc/self/mountinfo` that prefixes it.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // <id> <parent> <maj:min> <root> <mount point> <opts> [tags] - <fstype> ...
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|&f| f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// The `INCOGNITO_*` variables that change engine defaults, as
/// `NAME=value` (or `NAME=<unset>`). Every workload pins the knobs they
/// feed, so these are echoed only to show what the pins overrode.
pub fn engine_env() -> Vec<String> {
    [
        "INCOGNITO_THREADS",
        "INCOGNITO_MEM_BUDGET",
        "INCOGNITO_SPILL_DIR",
    ]
    .iter()
    .map(|name| match std::env::var(name) {
        Ok(v) => format!("{name}={v}"),
        Err(_) => format!("{name}=<unset>"),
    })
    .collect()
}
