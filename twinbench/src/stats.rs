//! Small numeric and process helpers shared by the workloads.

use crate::Ctx;
use sraps_core::Fingerprinter;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in [0, 100] of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// The highest of `wanted` percentiles that leaves at least ten samples
/// above it, so a tail figure is never a single outlier.
pub fn tail_percentile(n: usize, wanted: &[f64]) -> Option<f64> {
    wanted
        .iter()
        .copied()
        .filter(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0)
        .reduce(f64::max)
}

/// Deterministic 64-bit mixer: every seeded choice in the benchmark
/// derives from `--seed` through it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded stream of uniforms in [0, 1).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Exponential inter-arrival gap for a Poisson process at `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.uniform()).ln() / rate
    }
}

/// Peak resident set (VmHWM) of a process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time a process and all its threads have used so far, in seconds
/// (`utime` + `stime` of `/proc/<pid>/stat`, USER_HZ = 100). The kernel
/// leaves time stolen by the hypervisor out of it.
pub fn cpu_s(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, from `state`.
            let rest = &s[s.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime = fields.next()?.parse::<f64>().ok()?;
            let stime = fields.next()?.parse::<f64>().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// CPU time the hypervisor took from this machine's CPUs so far, in
/// seconds (the `steal` column of `/proc/stat`, USER_HZ = 100). On a
/// shared virtual machine a run with high steal measures the host.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |jiffies| jiffies / 100.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Digest of the program's sources (`crates/`, `shims/`, the root
/// manifests): identifies the code measured even where the checkout is
/// not a git repository.
fn source_digest() -> String {
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    collect_files(Path::new("crates"), &mut files);
    collect_files(Path::new("shims"), &mut files);
    files.sort();
    let mut fp = Fingerprinter::new();
    for f in &files {
        fp.write_str(&f.to_string_lossy());
        fp.write_bytes(&std::fs::read(f).unwrap_or_default());
    }
    fp.finish().hex()
}

/// The stamp printed with every result: enough to tell whether two
/// results came from the same machine, toolchain, code and inputs.
pub fn provenance(ctx: &Ctx, workload: &str) -> String {
    format!(
        r#"{{"workload": "{workload}", "seed": {}, "seconds": {}, "trace": {}, "nproc": {}, "git_rev": "{}", "source_digest": "{}", "engine_schema_version": {}, "rustc": "{}"}}"#,
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        ctx.nproc,
        // Only this directory's own repository: a checkout without `.git`
        // must not report the revision of a repository around it.
        if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "--short=12", "HEAD"])
        } else {
            "unknown".to_string()
        },
        source_digest(),
        sraps_core::ENGINE_SCHEMA_VERSION,
        command_line("rustc", &["-V"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(tail_percentile(100, &[90.0, 99.0]), Some(90.0));
        assert_eq!(tail_percentile(1000, &[90.0, 99.0]), Some(99.0));
        assert_eq!(tail_percentile(5, &[90.0, 99.0]), None);
    }

    #[test]
    fn own_cpu_time_is_read() {
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s(std::process::id()) > 0.0);
    }
}
