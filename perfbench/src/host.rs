//! Facts about the host and the process, read without spawning anything.

use std::fs;
use std::path::Path;

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiler that built the benchmark and the simulator.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// The commit checked out in the working directory, or `"unknown"`
/// outside a git checkout.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(&git.join(reference)) {
        return id;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds this process has used, over all its
/// threads (`/proc/self/stat`, at the usual 100 ticks per second).
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}
