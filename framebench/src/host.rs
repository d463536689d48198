//! The host record printed with every result, the STREAM-style copy
//! ruler, and the process's peak resident set.
//!
//! The ruler runs in a child process (this binary's `ruler`
//! subcommand) after the workload, so its arrays stay out of the
//! workload's timing and out of `rss_peak_mib`.

use std::process::Command;
use std::time::{Duration, Instant};

use crate::report::Json;
use crate::stats::Windows;

const MIB: usize = 1 << 20;

/// Cache size in bytes of the first cache of `level` listed for cpu0
/// in sysfs.
fn cache_bytes(level: u32) -> Option<usize> {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let Some(lvl) = read("level") else { break };
        if lvl.trim().parse::<u32>().ok() != Some(level) {
            continue;
        }
        let size = read("size")?;
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1 << 10),
            None => match size.strip_suffix('M') {
                Some(d) => (d, MIB),
                None => (size, 1),
            },
        };
        return digits.parse::<usize>().ok().map(|n| n * scale);
    }
    None
}

/// Per-core L2 and last-level cache sizes, with fallbacks of 2 MiB and
/// 32 MiB where sysfs does not say.
pub fn caches() -> (usize, usize) {
    let l2 = cache_bytes(2).unwrap_or(2 * MIB);
    let llc = cache_bytes(3).unwrap_or(32 * MIB).max(l2);
    (l2, llc)
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

/// nproc, CPU model, cache sizes, rustc version and git revision.
pub fn record() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let (l2, llc) = caches();
    Json::obj([
        ("nproc", Json::from(nproc as u64)),
        ("cpu", Json::from(cpu)),
        ("l2_bytes", Json::from(l2 as u64)),
        ("llc_bytes", Json::from(llc as u64)),
        ("rustc", Json::from(command_line("rustc", &["--version"]))),
        (
            "git_rev",
            Json::from(command_line("git", &["rev-parse", "--short=12", "HEAD"])),
        ),
    ])
}

/// The host's CPU time counters (`/proc/stat`, all CPUs), in ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    busy: u64,
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let f: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        CpuTicks {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
            total: (0..8).map(at).sum(),
        }
    }

    /// Stolen share of the CPU time the guest wanted since
    /// `earlier`: stolen over busy plus stolen.
    fn stolen_since(&self, earlier: &CpuTicks) -> f64 {
        let steal = self.steal.saturating_sub(earlier.steal) as f64;
        let busy = self.busy.saturating_sub(earlier.busy) as f64;
        steal / (busy + steal).max(1.0)
    }

    /// Busy and stolen shares of all CPU time since `earlier`: how loaded
    /// the host was while the workload ran.
    pub fn since(&self, earlier: &CpuTicks) -> Json {
        let total = self.total.saturating_sub(earlier.total).max(1) as f64;
        Json::obj([
            (
                "busy_frac",
                Json::from(self.busy.saturating_sub(earlier.busy) as f64 / total),
            ),
            (
                "steal_frac",
                Json::from(self.steal.saturating_sub(earlier.steal) as f64 / total),
            ),
        ])
    }
}

/// Run `f(start)` while a thread that sleeps between readings reads the
/// host's CPU counters at every boundary of `win` from `start`. Returns
/// `f`'s result and each window's stolen share of the CPU time the
/// guest wanted.
pub fn stolen_windows<R>(win: Windows, f: impl FnOnce(Instant) -> R) -> (R, Vec<f64>) {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(move || {
            let ticks: Vec<CpuTicks> = (0..=win.count)
                .map(|i| {
                    let at = start + Duration::from_secs_f64(win.width * i as f64);
                    std::thread::sleep(at.saturating_duration_since(Instant::now()));
                    CpuTicks::now()
                })
                .collect();
            ticks.windows(2).map(|w| w[1].stolen_since(&w[0])).collect()
        });
        let r = f(start);
        (r, sampler.join().expect("steal sampler"))
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The two array sizes the ruler copies between, in bytes:
/// * L3 regime: 4× the per-core L2, the regime a 3 MB 1080p source
///   lives in;
/// * DRAM regime: a working set of 4× the last-level cache. STREAM
///   asks for 4× per array; this halves that (two arrays of 2× LLC)
///   to keep the transient allocation at 4× LLC on a shared host.
pub fn ruler_sizes() -> (usize, usize) {
    let (l2, llc) = caches();
    (4 * l2, 2 * llc)
}

/// Best-of-`reps` copy bandwidth between two `bytes`-sized arrays,
/// counting a read and a write per byte (STREAM's copy convention).
fn copy_gbps(bytes: usize, reps: usize) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    2.0 * bytes as f64 / best / 1e9
}

/// `ruler` subcommand body: print `l3_gbps dram_gbps`.
pub fn ruler_main() {
    let (l3, dram) = ruler_sizes();
    // enough repeats that the L3 figure is not one cold pass
    let l3_reps = (2 * 1024 * MIB / l3).clamp(10, 400);
    println!("{} {}", copy_gbps(l3, l3_reps), copy_gbps(dram, 5));
}

/// Run the ruler in a child process: `(copy_l3_gbps, copy_dram_gbps)`.
pub fn ruler() -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("ruler")
        .output()
        .map_err(|e| format!("ruler: {e}"))?;
    if !out.status.success() {
        return Err(format!("ruler exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut it = text.split_whitespace().map(str::parse::<f64>);
    match (it.next(), it.next()) {
        (Some(Ok(l3)), Some(Ok(dram))) => Ok((l3, dram)),
        _ => Err(format!("ruler printed {text:?}")),
    }
}
