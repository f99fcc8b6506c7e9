//! Simulator-throughput benchmark: events/sec and committed MIPS per
//! configuration variant over the full workload set, from the engine's
//! own [`RunResult`] throughput counters. Results land in
//! `target/bench/throughput.json`; see DESIGN.md §Performance for how to
//! read them.
//!
//! Knobs: `CMPSIM_WARMUP`/`CMPSIM_MEASURE` (instructions per core) set
//! the grid size, `CMPSIM_BENCH_ITERS`/`CMPSIM_BENCH_WARMUP` the
//! repetition count. CI runs this with smoke-length runs as a tracked
//! baseline; the defaults below are the same smoke lengths so local runs
//! are comparable.

use cmpsim_bench::SEED;
use cmpsim_core::experiment::{run_grid_resilient, GridCell, ResilienceOptions, SimLength};
use cmpsim_core::report::{
    codec_throughput_summary, codec_throughput_table, measure_codec_throughput,
    throughput_summary,
};
use cmpsim_core::{SystemConfig, Variant};
use cmpsim_fpc::{CodecKind, LINE_BYTES};
use cmpsim_harness::bench::Runner;
use cmpsim_harness::{knobs, Supervisor};
use cmpsim_trace::{all_workloads, LineClass};

const VARIANTS: [Variant; 4] =
    [Variant::Base, Variant::BothCompression, Variant::Prefetch, Variant::PrefetchCompression];

fn main() {
    // Smoke lengths by default (the CI baseline grid); the figure
    // harnesses' standard lengths are ~20× longer and only change the
    // absolute rates, not the variant-to-variant shape.
    let len = SimLength {
        warmup: knobs().warmup.unwrap_or(5_000),
        measure: knobs().measure.unwrap_or(20_000),
    };
    let specs = all_workloads();
    let base = SystemConfig::paper_default(4).with_seed(SEED);

    // One worker: per-variant host rates are measured single-threaded.
    let serial = ResilienceOptions {
        supervisor: Supervisor::with_threads(1),
        ..ResilienceOptions::default()
    };
    let mut r = Runner::new("throughput", 1, 3);
    let mut all_cells: Vec<GridCell> = Vec::new();

    for variant in VARIANTS {
        let label = format!("{variant:?}");
        let mut cells: Vec<GridCell> = Vec::new();
        r.bench_with(&format!("grid/{label}"), 1, 3, || {
            cells = run_grid_resilient(&specs, &base, &[variant], len, &serial)
                .into_iter()
                .collect::<Result<_, _>>()
                .expect("simulation failed");
            cells.len()
        });
        // Per-variant throughput from the engine's own counters, taken
        // over the last measured iteration's runs.
        let (mut events, mut retired, mut nanos) = (0u64, 0u64, 0u64);
        for c in &cells {
            events += c.result.events;
            retired += c.result.retired;
            nanos += c.result.host_nanos;
        }
        let secs = nanos as f64 / 1e9;
        r.metric(&format!("events_per_sec/{label}"), events as f64 / secs);
        r.metric(&format!("committed_mips/{label}"), retired as f64 / 1e6 / secs);
        all_cells.extend(cells);
    }

    // Aggregate over the whole workloads × variants grid — the number the
    // CI baseline tracks.
    let (mut events, mut retired, mut nanos) = (0u64, 0u64, 0u64);
    for c in &all_cells {
        events += c.result.events;
        retired += c.result.retired;
        nanos += c.result.host_nanos;
    }
    let secs = nanos as f64 / 1e9;
    r.metric("events_per_sec/total", events as f64 / secs);
    r.metric("committed_mips/total", retired as f64 / 1e6 / secs);
    // Whether the flight recorder was armed (CMPSIM_TRACE): throughput
    // numbers are only comparable between runs in the same tracing mode,
    // so the artifact records which one produced it.
    r.metric(
        "tracing_enabled",
        if knobs().trace { 1.0 } else { 0.0 },
    );

    println!("{}", throughput_summary(all_cells.iter().map(|c| &c.result)));
    let path = r.write_json().expect("write bench artifact");
    println!("throughput artifact: {}", path.display());

    codec_throughput_bench();
}

/// Workload classes the codec-throughput suite samples, spanning the
/// compressibility landscape of `crates/trace`: all-zero lines, small
/// integers, pointers, sparse and dense floating point, and high-entropy
/// bytes.
const CODEC_CLASSES: [(&str, LineClass); 6] = [
    ("zero", LineClass::Zero),
    ("small_int", LineClass::SmallInt),
    ("pointer", LineClass::Pointer),
    ("fp_sparse", LineClass::Fp { zero_word_permille: 400 }),
    ("fp_dense", LineClass::Fp { zero_word_permille: 0 }),
    ("random", LineClass::Random),
];

/// Lines per class in the measured batch — enough to defeat trivial
/// branch-predictor memorization while staying cache-resident, so the
/// numbers measure the decoders rather than memory.
const CODEC_LINES: usize = 256;

/// Per-codec compression/decompression throughput over the workload
/// classes, as a second artifact (`target/bench/codec_throughput.json`):
/// the pcodec-style record CI compares PR-over-PR, with the scalar
/// reference decoder measured alongside the dispatch-table/SWAR fast path
/// so decode speedups stay visible.
fn codec_throughput_bench() {
    let iters: u32 = 200; // passes over the batch per measured sample
    let mut r = Runner::new("codec_throughput", 1, 3);
    let mut rows = Vec::new();
    for (label, class) in CODEC_CLASSES {
        let mut lines = vec![[0u8; LINE_BYTES]; CODEC_LINES];
        for (i, line) in lines.iter_mut().enumerate() {
            // Deterministic per-line entropy: same content every run, so
            // PR-over-PR artifact deltas measure code, not data.
            let addr_hash = (i as u64 ^ SEED).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            class.fill(addr_hash, line);
        }
        for kind in CodecKind::all() {
            // One unrecorded warmup pass, then the measured sample.
            measure_codec_throughput(kind, label, &lines, iters.div_ceil(4));
            let row = measure_codec_throughput(kind, label, &lines, iters);
            let p = row.metric_prefix();
            r.metric(&format!("{p}/compress_mwps"), row.compress_mwps);
            r.metric(&format!("{p}/decompress_mwps"), row.decompress_mwps);
            r.metric(&format!("{p}/reference_mwps"), row.reference_mwps);
            r.metric(&format!("{p}/compress_gbps"), row.compress_gbps);
            r.metric(&format!("{p}/decompress_gbps"), row.decompress_gbps);
            r.metric(&format!("{p}/decode_speedup"), row.decode_speedup);
            rows.push(row);
        }
    }
    codec_throughput_table(&rows).print("codec throughput (per workload class)");
    println!("{}", codec_throughput_summary(&rows));
    let path = r.write_json().expect("write codec bench artifact");
    println!("codec throughput artifact: {}", path.display());
}
