//! Shared plumbing: metric records, order statistics, the `VmHWM`
//! reader, the seed-derived RNG and the digest fold.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced: the end-to-end and per-layer metrics
/// plus the output-check tally.
#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Operations attempted (cells, supervised cells or requests).
    pub attempted: u64,
    /// Operations that errored or missed their expected output.
    pub failed: u64,
    /// Failure descriptions, printed to stderr.
    pub problems: Vec<String>,
}

impl Report {
    /// Reports the three host-time end-to-end metrics.
    pub fn host_times(&mut self, mips: f64, wall_s: f64, setup_s: f64) {
        self.e2e("sim_mips", mips, "Minstr/s");
        self.e2e("wall_s", wall_s, "s");
        self.e2e("setup_s", setup_s, "s");
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Tallies one checked operation; `problem` is `Some` when it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Smallest of `xs` (0 for an empty slice): the fastest pass's time.
/// Load from other processes on a shared host only ever adds time, so
/// the fastest pass is the figure such load moves least.
pub fn fastest_time(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest of `xs` (0 for an empty slice): the fastest pass's rate.
pub fn fastest_rate(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Linear-interpolated quantile over the sorted samples (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartile by the "exclusive" method (Python's
/// `statistics.quantiles(xs, n=4)` default), so the steadiness report
/// matches the acceptance arithmetic exactly.
pub fn quartiles_exclusive(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let m = (n + 1) * k;
        let j = (m / 4).clamp(1, n - 1);
        let delta = (m % 4) as f64 / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Host seconds the calling thread has spent on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`, exact to the nanosecond, where procfs's
/// schedstat only advances at scheduler ticks). Unlike wall time it does
/// not grow while the thread waits for a CPU that another process holds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_s() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux, and the call writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Without a per-thread CPU clock: wall seconds since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_s() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    secs(*START.get_or_init(Instant::now))
}

/// Peak resident set (`VmHWM`) of a process in MiB, from
/// `/proc/<pid>/status`; `None` where procfs is unavailable.
pub fn vm_hwm_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => PathBuf::from(format!("/proc/{p}/status")),
        None => PathBuf::from("/proc/self/status"),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set (Linux
/// `/proc/self/clear_refs`), so the next read covers only what follows.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Deterministic generator for the benchmark's own schedules
/// (SplitMix64), so every input derives from `--seed` alone.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        SeedRng(seed ^ 0x5eed_ba5e_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a fold of one value into a running digest.
pub fn fold(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

pub const FOLD_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// `.perfbench_work/<tag>-<pid>`, emptied if a previous run left it.
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".perfbench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too when this was the last run using it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Pinned model-output digests, `workload seed digest` per line.
pub const PINS_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.txt");

/// The pins, compiled in so a run never depends on where the source
/// tree sits at run time.
const PINS: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/digests.txt"));

/// The pinned digest for `(workload, seed)`, if one is recorded.
pub fn pinned_digest(workload: &str, seed: u64) -> Option<String> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 3 && f[0] == workload && f[1] == seed.to_string())
        .map(|f| f[2].to_string())
}

/// Compares a run's digest with the pin, when `(workload, seed)` has one.
pub fn check_pin(workload: &str, seed: u64, digest: &str) -> Option<String> {
    match pinned_digest(workload, seed) {
        Some(pin) if pin != digest => Some(format!(
            "{workload} seed {seed}: digest {digest} != pinned {pin}"
        )),
        _ => None,
    }
}
