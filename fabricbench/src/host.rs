//! What the host and the process report about themselves: process CPU
//! time and peak RSS from `/proc`, and the record kept with each result
//! (source revision, cores, CPU flags).

use std::fs;
use std::time::Duration;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process (all threads) so far.
pub fn process_cpu() -> Duration {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, 11 and 12 here.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_secs_f64((ticks(11) + ticks(12)) as f64 / USER_HZ)
}

/// Time the hypervisor ran other guests while this host wanted the CPU
/// (the `steal` column of `/proc/stat`), summed over cores.
pub fn steal() -> Duration {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU's feature flags (first `flags` line of `/proc/cpuinfo`).
pub fn cpu_flags() -> Vec<String> {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, f)| f.split_whitespace().map(str::to_owned).collect())
        .unwrap_or_default()
}

/// The checked-out revision, read from `.git` in the working directory
/// without running git; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_owned()))
        .unwrap_or_else(|| "unknown".into())
}
