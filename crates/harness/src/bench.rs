//! Self-contained benchmark runner.
//!
//! Replaces the `criterion` dev-dependency: each benchmark is a closure
//! timed over warmup + measured iterations, summarized as median/p10/p90,
//! printed as a one-line report, and written as a JSON artifact to
//! `target/bench/<file>.json` so sweeps and CI can diff runs.
//!
//! The `CMPSIM_BENCH_ITERS` and `CMPSIM_BENCH_WARMUP` knobs override
//! the measured and warmup iterations of every benchmark.
//!
//! The JSON format is deliberately flat (no serde in the workspace):
//!
//! ```json
//! {
//!   "suite": "micro",
//!   "results": [
//!     {"name": "fpc/compress_64_lines", "iters": 30, "median_ns": 12345,
//!      "p10_ns": 12000, "p90_ns": 13000, "mean_ns": 12400.5}
//!   ],
//!   "metrics": {"grid_speedup_8t": 3.4}
//! }
//! ```

use crate::knobs::knobs;
use crate::metrics;
use std::hint::black_box;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Summary statistics for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (slash-separated groups encouraged).
    pub name: String,
    /// Measured iterations.
    pub iters: u32,
    /// Median iteration time in nanoseconds.
    pub median_ns: u64,
    /// 10th-percentile iteration time in nanoseconds.
    pub p10_ns: u64,
    /// 90th-percentile iteration time in nanoseconds.
    pub p90_ns: u64,
    /// Mean iteration time in nanoseconds.
    pub mean_ns: f64,
}

impl BenchResult {
    fn from_samples(name: &str, mut ns: Vec<u64>) -> Self {
        assert!(!ns.is_empty(), "no samples");
        ns.sort_unstable();
        let pick = |q: f64| ns[((ns.len() - 1) as f64 * q).round() as usize];
        BenchResult {
            name: name.to_string(),
            iters: ns.len() as u32,
            median_ns: pick(0.5),
            p10_ns: pick(0.1),
            p90_ns: pick(0.9),
            mean_ns: ns.iter().sum::<u64>() as f64 / ns.len() as f64,
        }
    }
}

/// Collects benchmark results for one suite and writes them as JSON.
#[derive(Debug)]
pub struct Runner {
    suite: String,
    warmup: u32,
    iters: u32,
    results: Vec<BenchResult>,
    metrics: Vec<(String, f64)>,
}

impl Runner {
    /// New runner with the given defaults, overridable via the
    /// `CMPSIM_BENCH_ITERS` / `CMPSIM_BENCH_WARMUP` knobs.
    pub fn new(suite: &str, warmup: u32, iters: u32) -> Self {
        Runner {
            suite: suite.to_string(),
            warmup,
            iters,
            results: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Times `f` and records the result. The closure's return value is
    /// passed through [`black_box`] so the work cannot be optimized away.
    pub fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R) -> &BenchResult {
        let (warmup, iters) = (self.warmup, self.iters);
        self.bench_with(name, warmup, iters, f)
    }

    /// [`Runner::bench`] with explicit warmup/iteration counts, for
    /// expensive benchmarks that need fewer samples than the suite
    /// default. The knobs still win.
    pub fn bench_with<R>(
        &mut self,
        name: &str,
        warmup: u32,
        iters: u32,
        mut f: impl FnMut() -> R,
    ) -> &BenchResult {
        let warmup = knobs().bench_warmup.unwrap_or(warmup);
        let iters = knobs().bench_iters.unwrap_or(iters).max(1);
        for _ in 0..warmup {
            black_box(f());
        }
        let mut samples = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let t0 = Instant::now();
            black_box(f());
            samples.push(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        let r = BenchResult::from_samples(name, samples);
        println!(
            "bench {suite}/{name}: median {median:.3} ms  (p10 {p10:.3} / p90 {p90:.3}, {n} iters)",
            suite = self.suite,
            median = r.median_ns as f64 / 1e6,
            p10 = r.p10_ns as f64 / 1e6,
            p90 = r.p90_ns as f64 / 1e6,
            n = r.iters,
        );
        self.results.push(r);
        self.results.last().expect("just pushed")
    }

    /// Attaches a named scalar (a speedup, a ratio, a count) to the JSON
    /// artifact alongside the timing results.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Renders the suite as JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{{\n  \"suite\": {},\n  \"results\": [", json_str(&self.suite)));
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"name\": {}, \"iters\": {}, \"median_ns\": {}, \
                 \"p10_ns\": {}, \"p90_ns\": {}, \"mean_ns\": {}}}",
                json_str(&r.name),
                r.iters,
                r.median_ns,
                r.p10_ns,
                r.p90_ns,
                json_f64(r.mean_ns),
            ));
        }
        s.push_str("\n  ],\n  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{}: {}", json_str(k), json_f64(*v)));
        }
        s.push_str("}\n}\n");
        s
    }

    /// Writes the JSON artifact to `<suite>.json` under the bench
    /// artifact dir (the `CMPSIM_BENCH_DIR` knob, else `target/bench/`; see
    /// [`metrics::artifact_dir`]) through [`metrics::write_atomic`], so a
    /// killed run never leaves a torn artifact. Returns its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the directory or file.
    pub fn write_json(&self) -> io::Result<PathBuf> {
        let path = metrics::artifact_dir(knobs().bench_dir.as_deref(), "bench")
            .join(format!("{}.json", self.suite));
        metrics::write_atomic(&path, &self.to_json())?;
        println!("bench artifact: {}", path.display());
        Ok(path)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarizes_samples() {
        let r = BenchResult::from_samples("t", (1..=100).collect());
        assert_eq!(r.iters, 100);
        assert_eq!(r.median_ns, 51);
        assert_eq!(r.p10_ns, 11);
        assert_eq!(r.p90_ns, 90);
        assert!((r.mean_ns - 50.5).abs() < 1e-9);
    }

    #[test]
    fn bench_runs_and_reports() {
        let mut runner = Runner::new("selftest", 1, 5);
        let r = runner.bench("spin", || (0..1000u64).sum::<u64>());
        assert_eq!(r.iters, 5);
        assert!(r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns);
    }

    #[test]
    fn json_is_well_formed() {
        let mut runner = Runner::new("json \"suite\"", 0, 2);
        runner.bench("a/b", || 1u32);
        runner.metric("speedup", 3.25);
        let js = runner.to_json();
        assert!(js.contains("\"json \\\"suite\\\"\""));
        assert!(js.contains("\"name\": \"a/b\""));
        assert!(js.contains("\"speedup\": 3.25"));
        assert_eq!(js.matches('{').count(), js.matches('}').count());
    }

    #[test]
    fn nonfinite_metrics_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
