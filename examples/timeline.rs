//! Renders a cycle-sampled telemetry artifact (`target/telemetry/*.jsonl`,
//! produced by running any simulation with `CMPSIM_TRACE=1`) as an ASCII
//! timeline, and exports it as Chrome `trace_event` JSON so Perfetto /
//! `chrome://tracing` can plot the same series interactively.
//!
//! ```sh
//! CMPSIM_TRACE=1 cargo run --release --example quickstart
//! cargo run --release --example timeline                  # newest artifact
//! cargo run --release --example timeline -- path/to/run.jsonl
//! cargo run --release --example timeline -- --check       # CI schema gate
//! ```
//!
//! `--check` validates the artifact against the `cmpsim-telemetry-v1`
//! schema (header fields, per-row numeric fields, monotonic sample
//! times) and exits nonzero on any violation, printing nothing but the
//! verdict — the CI hook for telemetry artifacts.

use cmpsim_harness::{knobs, metrics};
use std::path::{Path, PathBuf};

/// Extracts the raw text of `"key":<value>` from a flat JSON line
/// (objects one level deep, arrays allowed as values).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut depth = 0usize;
    let mut in_str = false;
    let mut prev_escape = false;
    for (i, c) in rest.char_indices() {
        if in_str {
            if prev_escape {
                prev_escape = false;
            } else if c == '\\' {
                prev_escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => depth += 1,
            ']' | '}' if depth > 0 => depth -= 1,
            ',' | '}' if depth == 0 => return Some(rest[..i].trim()),
            _ => {}
        }
    }
    Some(rest.trim())
}

/// A numeric field; JSON `null` (a non-finite sample) comes back as NaN.
fn num(line: &str, key: &str) -> Option<f64> {
    let v = field(line, key)?;
    if v == "null" {
        return Some(f64::NAN);
    }
    v.parse().ok()
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let v = field(line, key)?;
    let v = v.strip_prefix('"')?.strip_suffix('"')?;
    Some(v.replace("\\\"", "\"").replace("\\\\", "\\"))
}

/// One parsed telemetry row.
struct Sample {
    t: f64,
    series: Vec<f64>,
}

/// The metrics the timeline plots, with their row extractors.
const METRICS: [&str; 6] = [
    "l2_capacity_ratio",
    "compression_ratio",
    "link_utilization_pct",
    "core_mshr_entries",
    "l2_fetches_in_flight",
    "ipc",
];

fn parse_rows(lines: &[&str]) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    let mut last_t = 0.0f64;
    for (i, line) in lines.iter().enumerate() {
        let row = i + 2; // 1-based, after the header line
        let t = num(line, "t")
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("row {row}: missing numeric \"t\""))?;
        if t < last_t {
            return Err(format!("row {row}: sample time {t} goes backwards (after {last_t})"));
        }
        last_t = t;
        let mut series = Vec::with_capacity(METRICS.len());
        for key in &METRICS[..5] {
            series.push(
                num(line, key).ok_or_else(|| format!("row {row}: missing field \"{key}\""))?,
            );
        }
        // Aggregate IPC from the per-core vector.
        let ipcs = field(line, "core_ipc")
            .and_then(|v| v.strip_prefix('['))
            .and_then(|v| v.strip_suffix(']'))
            .ok_or_else(|| format!("row {row}: missing array \"core_ipc\""))?;
        let mut total = 0.0;
        for part in ipcs.split(',').filter(|p| !p.trim().is_empty()) {
            let v: f64 = part
                .trim()
                .parse()
                .or_else(|_| if part.trim() == "null" { Ok(f64::NAN) } else { Err(()) })
                .map_err(|()| format!("row {row}: bad core_ipc entry '{part}'"))?;
            if v.is_finite() {
                total += v;
            }
        }
        series.push(total);
        out.push(Sample { t, series });
    }
    Ok(out)
}

fn check_header(header: &str) -> Result<(), String> {
    match str_field(header, "schema") {
        Some(s) if s == "cmpsim-telemetry-v1" => {}
        Some(s) => return Err(format!("unknown schema '{s}'")),
        None => return Err("header missing \"schema\"".to_string()),
    }
    for key in ["workload", "prefetch"] {
        if str_field(header, key).is_none() {
            return Err(format!("header missing \"{key}\""));
        }
    }
    for key in ["cores", "seed", "sample_period", "clock_ghz", "ring_dropped"] {
        if num(header, key).is_none() {
            return Err(format!("header missing numeric \"{key}\""));
        }
    }
    Ok(())
}

/// Down-samples `samples` of one metric into `width` buckets (mean per
/// bucket) and renders them on a density ramp.
fn sparkline(samples: &[Sample], metric: usize, width: usize) -> String {
    const RAMP: [char; 8] = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let mut buckets = vec![(0.0f64, 0usize); width];
    for (i, s) in samples.iter().enumerate() {
        let b = i * width / samples.len();
        let v = s.series[metric];
        if v.is_finite() {
            buckets[b].0 += v;
            buckets[b].1 += 1;
        }
    }
    let means: Vec<Option<f64>> =
        buckets.iter().map(|&(sum, n)| (n > 0).then(|| sum / n as f64)).collect();
    let max = means.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
    means
        .iter()
        .map(|m| match m {
            None => ' ',
            Some(v) if max <= 0.0 => if *v > 0.0 { RAMP[7] } else { RAMP[0] },
            Some(v) => RAMP[((v / max) * 7.0).round().clamp(0.0, 7.0) as usize],
        })
        .collect()
}

/// Writes the samples as Chrome `trace_event` counter events (one
/// counter track per metric, `ts` = simulated cycle) for Perfetto.
fn write_trace_json(path: &Path, workload: &str, samples: &[Sample]) -> std::io::Result<()> {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for s in samples {
        for (mi, name) in METRICS.iter().enumerate() {
            let v = s.series[mi];
            if !v.is_finite() {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"cat\":\"telemetry\",\"ph\":\"C\",\"ts\":{},\
                 \"pid\":0,\"tid\":0,\"args\":{{\"{workload}\":{v}}}}}",
                s.t
            ));
        }
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

fn newest_artifact(dir: &Path) -> Option<PathBuf> {
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let p = entry.path();
        if p.extension().is_some_and(|e| e == "jsonl") {
            let mtime = entry.metadata().and_then(|m| m.modified()).ok()?;
            if best.as_ref().is_none_or(|(t, _)| mtime > *t) {
                best = Some((mtime, p));
            }
        }
    }
    best.map(|(_, p)| p)
}

fn fail(msg: &str) -> ! {
    eprintln!("timeline: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let explicit = args.iter().find(|a| !a.starts_with("--"));

    let path = match explicit {
        Some(p) => PathBuf::from(p),
        None => {
            let dir = metrics::artifact_dir(knobs().telemetry_dir.as_deref(), "telemetry");
            newest_artifact(&dir).unwrap_or_else(|| {
                fail(&format!(
                    "no .jsonl artifacts under {} — run a simulation with CMPSIM_TRACE=1 first",
                    dir.display()
                ))
            })
        }
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().unwrap_or_else(|| fail("artifact is empty"));
    let rows: Vec<&str> = lines.collect();

    if let Err(e) = check_header(header) {
        fail(&format!("{}: {e}", path.display()));
    }
    let samples = match parse_rows(&rows) {
        Ok(s) => s,
        Err(e) => fail(&format!("{}: {e}", path.display())),
    };
    if check {
        println!(
            "timeline: {} ok — schema cmpsim-telemetry-v1, {} samples",
            path.display(),
            samples.len()
        );
        return;
    }
    if samples.is_empty() {
        fail("artifact has a header but no samples");
    }

    let workload = str_field(header, "workload").unwrap_or_else(|| "?".to_string());
    let period = num(header, "sample_period").unwrap_or(f64::NAN);
    let span = samples.last().map(|s| s.t).unwrap_or(0.0);
    println!(
        "{} — workload {workload}, {} samples every {period} cycles, {span} cycles covered",
        path.display(),
        samples.len()
    );

    let width = 64usize.min(samples.len().max(1));
    let label_w = METRICS.iter().map(|m| m.len()).max().unwrap_or(0);
    for (mi, name) in METRICS.iter().enumerate() {
        let finite: Vec<f64> =
            samples.iter().map(|s| s.series[mi]).filter(|v| v.is_finite()).collect();
        let max = finite.iter().fold(0.0f64, |a, &b| a.max(b));
        let last = finite.last().copied().unwrap_or(f64::NAN);
        println!(
            "{name:>label_w$} |{}| max {max:.3} last {last:.3}",
            sparkline(&samples, mi, width)
        );
    }

    let trace_path = path.with_extension("trace.json");
    match write_trace_json(&trace_path, &workload, &samples) {
        Ok(()) => println!(
            "\nwrote {} — load it in https://ui.perfetto.dev or chrome://tracing",
            trace_path.display()
        ),
        Err(e) => fail(&format!("cannot write {}: {e}", trace_path.display())),
    }
}
