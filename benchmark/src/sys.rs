//! What the benchmark reads from the operating system: `/proc` counters,
//! the environment stamp, and the `pkgm` binary it builds and spawns.

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Where every file the benchmark writes goes, relative to the repository
/// root (the directory the benchmark is run from).
pub const OUT_DIR: &str = "benchmark/out";

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed at
/// 100 for user space on every Linux architecture this builds for.
const TICKS_PER_SEC: f64 = 100.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU time and minor faults of one process, from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcCpu {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl ProcCpu {
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &ProcCpu) -> ProcCpu {
        ProcCpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// `pid` 0 reads this process.
pub fn proc_cpu(pid: u32) -> ProcCpu {
    let stat = std::fs::read_to_string(proc_path(pid, "stat")).unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): minflt is field 10, utime 14, stime 15.
    let num = |i: usize| {
        f.get(i - 3)
            .and_then(|x| x.parse::<u64>().ok())
            .unwrap_or(0)
    };
    ProcCpu {
        user_s: num(14) as f64 / TICKS_PER_SEC,
        sys_s: num(15) as f64 / TICKS_PER_SEC,
        minor_faults: num(10),
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB; `pid` 0 reads this one.
pub fn peak_rss_mib(pid: u32) -> f64 {
    let status = std::fs::read_to_string(proc_path(pid, "status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes this process has read and written through system calls
/// (`rchar`, `wchar` of `/proc/self/io`).
pub fn self_io_bytes() -> (u64, u64) {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        io.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("rchar:"), field("wchar:"))
}

fn proc_path(pid: u32, file: &str) -> String {
    if pid == 0 {
        format!("/proc/self/{file}")
    } else {
        format!("/proc/{pid}/{file}")
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment every result is stamped with.
pub fn env_stamp(seed: u64, callers: usize) -> Value {
    let defaults = pkgm_core::DaemonConfig::default();
    let daemon = json!({
        "workers": defaults.workers,
        "max_batch_items": defaults.max_batch_items,
        "queue_capacity": defaults.queue_capacity,
        "cache_capacity": defaults.cache_capacity,
    });
    json!({
        "nproc": nproc(),
        "simd": pkgm_core::simd::describe(),
        "pkgm_force_scalar": std::env::var("PKGM_FORCE_SCALAR").unwrap_or_default(),
        "git_rev": command_line("git", &["rev-parse", "HEAD"]),
        "rustc": command_line("rustc", &["--version"]),
        "seed": seed,
        "callers": callers,
        "rayon_threads": std::env::var("RAYON_NUM_THREADS").unwrap_or_default(),
        "daemon_defaults": daemon,
    })
}

/// Build the `pkgm` binary the serve workloads spawn and return its path,
/// the seconds `cargo` took, and whether it actually compiled anything
/// (an up-to-date check costs a fraction of a second).
pub fn build_pkgm() -> Result<(PathBuf, f64, bool), String> {
    let started = Instant::now();
    let out = Command::new("cargo")
        .args(["build", "--release", "--offline", "-p", "pkgm-cli"])
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("cargo build -p pkgm-cli failed:\n{stderr}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let bin = Path::new(&target).join("release").join("pkgm");
    if !bin.is_file() {
        return Err(format!("cargo built no {}", bin.display()));
    }
    let bin = bin.canonicalize().map_err(|e| e.to_string())?;
    Ok((
        bin,
        started.elapsed().as_secs_f64(),
        stderr.contains("Compiling"),
    ))
}

/// A fresh, empty scratch directory under [`OUT_DIR`].
pub fn scratch_dir(name: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new(OUT_DIR).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    dir.canonicalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_proc_counters() {
        let cpu = proc_cpu(0);
        assert!(cpu.total_s() >= 0.0);
        assert!(peak_rss_mib(0) > 0.0);
        let (r, _w) = self_io_bytes();
        assert!(r > 0);
        // The same process by pid.
        assert!(peak_rss_mib(std::process::id()) > 0.0);
    }
}
