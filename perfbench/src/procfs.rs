//! Reads of `/proc`: CPU time, memory high-water mark, thread and
//! context-switch counts of the benchmark and its server child, plus the
//! machine stamp printed with every result.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 in the Linux ABI on every mainstream architecture).
const USER_HZ: u64 = 100;

/// User + system CPU time of all threads of `pid`, in microseconds.
pub fn cpu_us(pid: u32) -> u64 {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3, so utime (14) and stime (15) sit at 11, 12.
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) * 1_000_000 / USER_HZ
}

/// A numeric field of `/proc/<pid>/status` (e.g. `VmHWM` in kB, `Threads`).
pub fn status_field(pid: u32, key: &str) -> u64 {
    status_value(
        &fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default(),
        key,
    )
}

fn status_value(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Voluntary plus involuntary context switches summed over the live
/// threads of `pid`.
pub fn ctx_switches(pid: u32) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| {
            let s = fs::read_to_string(t.path().join("status")).unwrap_or_default();
            status_value(&s, "voluntary_ctxt_switches")
                + status_value(&s, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// Steal and total CPU time of the machine, in ticks, from the `cpu` line
/// of `/proc/stat`. Steal is time the hypervisor ran another tenant while
/// this machine's CPUs had work.
pub fn steal_and_total() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .unwrap_or("")
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// `model name` of the first CPU.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            Some(
                l.strip_prefix("model name")?
                    .split_once(':')?
                    .1
                    .trim()
                    .to_string(),
            )
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; a source
/// tree that is not a git checkout reports `unknown`.
pub fn git_revision() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{name}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            let (rev, r) = l.split_once(' ')?;
            (r == name).then(|| rev.to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let me = std::process::id();
        assert!(status_field(me, "VmHWM") > 0);
        assert!(status_field(me, "Threads") >= 1);
        assert!(ctx_switches(me) > 0);
        let (steal, total) = steal_and_total();
        assert!(total > 0 && steal <= total);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {
            std::hint::black_box(0);
        }
        assert!(cpu_us(me) > 0);
    }

    #[test]
    fn status_value_parses_fields() {
        let s = "Name:\tx\nThreads:\t5\nVmHWM:\t  1234 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_value(s, "Threads"), 5);
        assert_eq!(status_value(s, "VmHWM"), 1234);
        assert_eq!(status_value(s, "voluntary_ctxt_switches"), 7);
        assert_eq!(status_value(s, "Missing"), 0);
    }
}
