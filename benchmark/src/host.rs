//! What the host looked like during a run: the fingerprint printed with
//! every result, peak memory, and the scheduler-wait noise indicator.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Cores this process may run on (1 when the host will not say).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc --version` of the toolchain on `PATH`, or `"unknown"`.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit checked out in the repository at `root`, read from its
/// `.git` directory (no `git` process, nothing outside `root` is touched),
/// or `"unknown"`: the benchmark driver's checkout is not a repository.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |path: PathBuf| std::fs::read_to_string(path).ok();
    let commit = read(git.join("HEAD")).and_then(|head| {
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_owned());
        };
        read(git.join(reference))
            .map(|hash| hash.trim().to_owned())
            .or_else(|| {
                read(git.join("packed-refs"))?.lines().find_map(|line| {
                    let (hash, name) = line.split_once(' ')?;
                    (name == reference).then(|| hash.to_owned())
                })
            })
    });
    commit.unwrap_or_else(|| "unknown".to_owned())
}

/// The numeric value of a `Key:   123 kB` line of `/proc/self/status`.
fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process so far, in MB (`VmHWM`). One
/// process runs one workload, so at exit this is that workload's peak.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Nanoseconds the calling thread has spent runnable but waiting for a
/// core (second field of `/proc/thread-self/schedstat`).
pub fn thread_wait_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(cores() >= 1);
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
        let before = thread_wait_ns();
        let after = thread_wait_ns();
        if let (Some(a), Some(b)) = (before, after) {
            assert!(b >= a);
        }
    }

    #[test]
    fn a_directory_without_git_reads_as_unknown() {
        assert_eq!(git_commit(Path::new("/dsmbench-no-such-dir")), "unknown");
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let commit = git_commit(&repo);
        assert!(commit == "unknown" || commit.len() == 40, "{commit}");
    }
}
