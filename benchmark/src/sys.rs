//! Process and host readings from `/proc`, and the build's identity.

use std::path::Path;
use std::process::Command;

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`; 100 on every
/// mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// CPU time of this process so far, user + system, all threads (live and
/// exited), in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    ticks as f64 * 1000.0 / USER_HZ
}

/// Current resident set of this process, MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU steal so far, in clock ticks (`/proc/stat`).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host name.
pub fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Run a command to completion and return its trimmed stdout, if it
/// succeeded.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `rustc -V`.
pub fn rustc_version() -> String {
    command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's git commit, when `root` is a git repository itself
/// (not merely inside one).
pub fn git_sha(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    command_output("git", &["-C", root.to_str()?, "rev-parse", "HEAD"])
}

/// CRC32 over every file under `root/crates` and `root/vendor` (paths and
/// contents, in sorted path order): identifies the measured source when
/// the checkout carries no git metadata.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut buf = Vec::new();
    for f in &files {
        buf.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        buf.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:08x}", rel_core::codec::crc32(&buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        let spin: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0);
        assert!(cpu_ms() >= 0.0);
        assert!(rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
