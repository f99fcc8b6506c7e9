//! Codec-throughput gate (`scripts/ci.sh`): measures every codec's
//! compress, fast-decode and reference-decode rates over six line
//! classes, compares them against the committed
//! `BENCH_codec_throughput.json` baseline, prints the delta table, and
//! fails on
//!
//! - any fast-over-reference decode ratio (`*/decode_speedup`) falling
//!   below half its pinned value, or
//! - the FPC fast decoder losing its ≥2x speedup over the in-tree scalar
//!   reference on the zero-heavy class (`fpc/zero/decode_speedup`), the
//!   acceptance bar of the decode fast-path work.
//!
//! Only ratios measured in one process are gated: both sides run on the
//! same host at the same moment, so a lost fast path moves them while a
//! slower host does not. The absolute rates (`*_mwps`, `*_gbps`) follow
//! the host's speed (on a 2-vCPU VM they read 0.46–0.49x their pinned
//! values with every ratio in bounds), so they are printed as
//! information only.
//!
//! The baseline is pinned: CI never overwrites it. `CMPSIM_WRITE_GOLDEN=1`
//! re-records it from this run instead of comparing, for a change that
//! says why.
//!
//! ```sh
//! cargo run --release --example codec_gate
//! CMPSIM_WRITE_GOLDEN=1 cargo run --release --example codec_gate   # re-record
//! ```

use cmpsim::fpc::{CodecKind, LINE_BYTES};
use cmpsim::report::{
    codec_throughput_summary, codec_throughput_table, measure_codec_throughput, Table,
};
use cmpsim::trace::LineClass;
use cmpsim_harness::{knobs, metrics};
use std::collections::BTreeMap;
use std::path::Path;

const BASELINE_PATH: &str = "BENCH_codec_throughput.json";

/// Regression tolerance: a decode ratio may halve before the gate trips.
const MAX_REGRESSION: f64 = 2.0;

/// Required fast-vs-reference decode speedup on the zero-heavy class.
const REQUIRED_ZERO_SPEEDUP: f64 = 2.0;
const SPEEDUP_KEY: &str = "fpc/zero/decode_speedup";

/// Line classes sampled, spanning the compressibility landscape of
/// `crates/trace`: all-zero lines, small integers, pointers, sparse and
/// dense floating point, and high-entropy bytes.
const CLASSES: [(&str, LineClass); 6] = [
    ("zero", LineClass::Zero),
    ("small_int", LineClass::SmallInt),
    ("pointer", LineClass::Pointer),
    ("fp_sparse", LineClass::Fp { zero_word_permille: 400 }),
    ("fp_dense", LineClass::Fp { zero_word_permille: 0 }),
    ("random", LineClass::Random),
];

/// Lines per class — enough to defeat trivial branch-predictor
/// memorization while staying cache-resident, so the numbers measure the
/// decoders rather than memory.
const LINES: usize = 256;

/// Passes over the batch per measured sample.
const ITERS: u32 = 200;

/// Measures every codec on every class and returns the `codec/class/metric`
/// rates in measurement order, the order the baseline file lists them.
fn measure() -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for (label, class) in CLASSES {
        let mut lines = vec![[0u8; LINE_BYTES]; LINES];
        for (i, line) in lines.iter_mut().enumerate() {
            // Deterministic per-line entropy: same content every run, so
            // deltas against the baseline measure code, not data.
            class.fill((i as u64 ^ 11).wrapping_mul(0x9E37_79B9_7F4A_7C15), line);
        }
        for kind in CodecKind::all() {
            // One unrecorded warmup pass, then the measured sample.
            measure_codec_throughput(kind, label, &lines, ITERS.div_ceil(4));
            rows.push(measure_codec_throughput(kind, label, &lines, ITERS));
        }
    }
    codec_throughput_table(&rows).print("codec throughput (per workload class)");
    println!("{}", codec_throughput_summary(&rows));
    rows.iter()
        .flat_map(|r| {
            let p = r.metric_prefix();
            [
                ("compress_mwps", r.compress_mwps),
                ("decompress_mwps", r.decompress_mwps),
                ("reference_mwps", r.reference_mwps),
                ("compress_gbps", r.compress_gbps),
                ("decompress_gbps", r.decompress_gbps),
                ("decode_speedup", r.decode_speedup),
            ]
            .map(|(m, v)| (format!("{p}/{m}"), v))
        })
        .collect()
}

/// Renders the baseline file in its committed layout: the suite name, an
/// empty `results` list and the flat `"metrics"` object [`metrics_of`]
/// reads.
fn baseline_json(fresh: &[(String, f64)]) -> String {
    let pairs: Vec<String> = fresh.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!(
        "{{\n  \"suite\": \"codec_throughput\",\n  \"results\": [\n  ],\n  \"metrics\": {{{}}}\n}}\n",
        pairs.join(", ")
    )
}

/// Parses the baseline's flat `"metrics": {"name": value, ...}` object.
/// Hand-rolled on purpose: the workspace is hermetic (no serde), the
/// writer is ours, and its keys never contain escapes, commas or nested
/// braces.
fn metrics_of(path: &Path) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let at = text.find("\"metrics\"").unwrap_or_else(|| {
        panic!("{}: no \"metrics\" object (not a codec baseline?)", path.display())
    });
    let open = at + text[at..].find('{').expect("metrics object opens");
    let close = open + text[open..].find('}').expect("metrics object closes");
    let mut out = BTreeMap::new();
    for pair in text[open + 1..close].split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair.split_once(':').expect("metric is a key: value pair");
        let key = key.trim().trim_matches('"').to_string();
        let value: f64 = value.trim().parse().expect("metric value parses as f64");
        out.insert(key, value);
    }
    assert!(!out.is_empty(), "{}: empty metrics object", path.display());
    out
}

/// Prints the delta table against the baseline and returns one message
/// per metric that is missing, or per decode ratio that regressed past
/// [`MAX_REGRESSION`].
fn compare(baseline: &BTreeMap<String, f64>, fresh: &BTreeMap<String, f64>) -> Vec<String> {
    let mut t = Table::new(&["metric", "baseline", "fresh", "delta", "gate"]);
    let mut failures = Vec::new();
    for (key, &base) in baseline {
        let Some(&now) = fresh.get(key) else {
            failures.push(format!("{key}: present in baseline but missing from fresh run"));
            continue;
        };
        // Only same-process ratios are gated; absolute rates follow the
        // host and are reported as information.
        let gated = key.ends_with("/decode_speedup");
        let regressed = gated && base.is_finite() && base > 0.0 && now * MAX_REGRESSION < base;
        let delta = if base > 0.0 { format!("{:+.1}%", (now / base - 1.0) * 100.0) } else { "-".into() };
        let verdict = if !gated {
            "info"
        } else if regressed {
            "FAIL"
        } else {
            "ok"
        };
        t.row(&[key.clone(), format!("{base:.1}"), format!("{now:.1}"), delta, verdict.into()]);
        if regressed {
            failures.push(format!(
                "{key}: {now:.2} is more than {MAX_REGRESSION}x below baseline {base:.2}"
            ));
        }
    }
    t.print(&format!(
        "codec throughput vs committed baseline ({BASELINE_PATH}); \
         decode ratios gate below 1/{MAX_REGRESSION:.0}x, rates are info"
    ));
    failures
}

fn main() {
    let fresh = measure();
    let mut failures = if knobs().write_golden {
        metrics::write_atomic(Path::new(BASELINE_PATH), &baseline_json(&fresh))
            .unwrap_or_else(|e| panic!("cannot write {BASELINE_PATH}: {e}"));
        println!("recorded codec baseline to {BASELINE_PATH}");
        Vec::new()
    } else {
        compare(&metrics_of(Path::new(BASELINE_PATH)), &fresh.iter().cloned().collect())
    };

    let &(_, s) = fresh.iter().find(|(k, _)| k == SPEEDUP_KEY).expect("fpc/zero is measured");
    if s >= REQUIRED_ZERO_SPEEDUP {
        println!("{SPEEDUP_KEY}: {s:.2}x >= required {REQUIRED_ZERO_SPEEDUP:.1}x");
    } else {
        failures.push(format!(
            "{SPEEDUP_KEY}: {s:.2}x below the required {REQUIRED_ZERO_SPEEDUP:.1}x — the \
             dispatch-table decoder no longer beats the scalar reference on zero-heavy lines"
        ));
    }

    if failures.is_empty() {
        println!("codec gate: OK ({} metrics measured)", fresh.len());
    } else {
        eprintln!("codec gate: FAILED");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
