//! Host and process readings: peak memory, CPU time, run metadata.

use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Clock ticks per second of `/proc/self/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture it exports to user space.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has used so far, over all its
/// threads, or `None` when `/proc` is unavailable.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after it are
    // plain numbers. utime and stime are fields 14 and 15.
    let after_comm = &stat[stat.rfind(')')? + 2..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Seconds the hypervisor has kept this machine's virtual CPUs from running
/// while they had work (the `steal` column of `/proc/stat`, summed over all
/// CPUs), or `None` when `/proc` is unavailable.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    // user nice system idle iowait irq softirq steal ...
    let ticks: f64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    Some(ticks / USER_HZ)
}

/// Revision of the checkout the benchmark runs in, read from `.git` when
/// the checkout is a git repository, else `"unknown"`.
pub fn git_revision(root: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = root.join(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(&git.join(reference))
            .or_else(|| {
                let packed = read(&git.join("packed-refs"))?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Metadata stamped on every result.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Available parallelism reported by the OS.
    pub nproc: usize,
    /// Pool size a fan-out from the benchmark thread uses.
    pub effective_threads: usize,
    /// The `MESA_THREADS` override, if set.
    pub mesa_threads: Option<String>,
    /// Git revision of the checkout.
    pub git_revision: String,
}

impl RunMeta {
    /// Reads the metadata of the current process and checkout.
    pub fn collect() -> Self {
        RunMeta {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            effective_threads: parallel::effective_threads(),
            mesa_threads: std::env::var("MESA_THREADS").ok(),
            git_revision: git_revision(Path::new(".")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_on_linux() {
        if Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
            assert!(process_cpu_s().unwrap() >= 0.0);
            assert!(steal_s().unwrap() >= 0.0);
        }
    }

    #[test]
    fn revision_of_a_directory_without_git_is_unknown() {
        assert_eq!(git_revision(Path::new("src")), "unknown");
    }
}
