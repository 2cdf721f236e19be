//! Process CPU time and peak memory from `/proc/self`, so the benchmark
//! needs no crate beyond the repository's own.

/// Kernel clock ticks per second (`USER_HZ`), which Linux fixes at 100 for
/// the `/proc` interface on every common architecture.
const TICKS_PER_S: f64 = 100.0;

/// CPU time the whole process (all threads) has used so far.
#[derive(Debug, Clone, Copy)]
pub struct Cpu {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl Cpu {
    pub fn now() -> Cpu {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        // The command name (field 2) may hold spaces; fields after it are
        // space-separated, starting with the state (field 3). utime and
        // stime are fields 14 and 15.
        let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> f64 {
            fields[i].parse::<u64>().expect("numeric tick count") as f64 / TICKS_PER_S
        };
        Cpu {
            user_s: ticks(11),
            sys_s: ticks(12),
        }
    }

    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    /// CPU used since `earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`). Each benchmark
/// process runs one workload, so the peak is that workload's alone.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}
