//! What the run ran on, read from the standard library and `/proc`: core
//! count, SIMD features, git revision, host steal time, process CPU time and
//! peak memory.

use std::path::Path;

/// Hardware threads visible to the process (the `nproc` figure).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// SIMD extensions the CPU reports, widest last.
pub fn simd_features() -> Vec<&'static str> {
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    found.push($f);
                }
            )*};
        }
        probe!("sse4.2", "fma", "avx", "avx2", "avx512f", "avx512bw", "avx512vl");
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            found.push("neon");
        }
    }
    found
}

/// The checked-out commit, read from `.git` under `root`; `"unknown"` when
/// `root` is not a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    busy: u64,
    steal: u64,
}

impl HostTicks {
    /// Reads the counters now; zeros where `/proc/stat` is unavailable.
    pub fn now() -> HostTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        HostTicks {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Share of CPU ticks the hypervisor stole since `earlier`, out of the
    /// ticks the guest was busy or robbed.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let steal = self.steal.saturating_sub(earlier.steal) as f64;
        let busy = self.busy.saturating_sub(earlier.busy) as f64;
        if steal + busy == 0.0 {
            0.0
        } else {
            steal / (steal + busy)
        }
    }
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User+system CPU seconds this process has used, all threads included.
pub fn process_cpu_secs() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its ')'.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3, utime field 14, stime field 15.
    let ticks = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(14) + ticks(15)) as f64 / USER_HZ
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One timed window's clocks: wall, process CPU, host steal.
pub struct Window {
    start: std::time::Instant,
    cpu: f64,
    ticks: HostTicks,
}

/// A finished [`Window`].
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// User+system CPU seconds of this process.
    pub cpu_secs: f64,
    /// Host steal share over the window (see [`HostTicks::steal_share_since`]).
    pub steal_share: f64,
}

impl WindowStats {
    /// Several windows taken as one: wall and CPU time add up, and the
    /// steal share is their wall-weighted mean.
    pub fn pool(windows: &[WindowStats]) -> WindowStats {
        let wall_secs: f64 = windows.iter().map(|w| w.wall_secs).sum();
        let stolen: f64 = windows.iter().map(|w| w.steal_share * w.wall_secs).sum();
        WindowStats {
            wall_secs,
            cpu_secs: windows.iter().map(|w| w.cpu_secs).sum(),
            steal_share: if wall_secs > 0.0 {
                stolen / wall_secs
            } else {
                0.0
            },
        }
    }
}

impl Window {
    /// Starts the clocks.
    pub fn start() -> Window {
        Window {
            ticks: HostTicks::now(),
            cpu: process_cpu_secs(),
            start: std::time::Instant::now(),
        }
    }

    /// Stops the clocks.
    pub fn stop(self) -> WindowStats {
        let wall_secs = self.start.elapsed().as_secs_f64();
        WindowStats {
            wall_secs,
            cpu_secs: process_cpu_secs() - self.cpu,
            steal_share: HostTicks::now().steal_share_since(&self.ticks),
        }
    }
}
