//! Bit-identity gate for engine optimizations (`scripts/ci.sh`).
//!
//! Runs a fixed smoke grid (the paper's 8 workloads x 4 headline
//! variants, 4 cores, seed 11) through the grid driver on one worker and
//! folds every *model-output* counter of every cell into one FNV-1a
//! digest. The digest over this grid was recorded from the seed engine
//! (before the fast-path maps, the recycled event pool and the
//! word-parallel FPC sizing landed) into `tests/golden/grid_digest.txt`;
//! any engine change that alters simulated behavior — rather than just
//! how fast it is computed — changes the digest and fails the gate.
//!
//! Two companion gates pin the non-default codecs: the same 8 workloads
//! under the two compression-bearing variants with BDI and ZCA selected,
//! recorded when the pluggable codec suite landed
//! (`tests/golden/grid_digest_bdi.txt` / `grid_digest_zca.txt`). The FPC
//! digest doubles as the proof that routing every call site through the
//! `Codec` trait left the default model bit-identical.
//!
//! A fourth golden pins the variants the headline grid leaves out:
//! cache-only and link-only compression and the two adaptive-prefetch
//! variants, under FPC (`tests/golden/grid_digest_variants.txt`). It is
//! the only gate on the §3 adaptive throttle.
//!
//! A fifth golden runs the headline grid on a machine with 8 KiB L1s and
//! a 64 KiB L2 (`tests/golden/grid_digest_small.txt`). Its sets are
//! touched so often that the tag stores' per-set LRU ranks run out and
//! renumber thousands of times, in the 4-way L1s, the classic 8-way L2
//! and the VSC alike; at the paper's sizes a smoke grid never gets there.
//!
//! Only fields that existed in the seed `RunResult` participate, so the
//! digest stays comparable across PRs that add host-side measurement
//! fields (wall-clock, dispatched-event counts). The `f64` field is
//! folded as its IEEE-754 bit pattern, making the comparison bit-exact.
//!
//! Usage:
//!   cargo run --release --example grid_digest           # compare
//!   CMPSIM_WRITE_GOLDEN=1 cargo run ... grid_digest     # (re)record

use cmpsim::{
    all_workloads, report, run_grid_resilient, CodecKind, ResilienceOptions, SimLength,
    SystemConfig, Variant,
};
use cmpsim_harness::{knobs, Supervisor};
use std::time::Instant;

const VARIANTS: [Variant; 4] = [
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

/// Codec smoke grids only need the variants where the codec matters.
const CODEC_VARIANTS: [Variant; 2] = [Variant::BothCompression, Variant::PrefetchCompression];

/// The variants no other golden covers.
const OTHER_VARIANTS: [Variant; 4] = [
    Variant::CacheCompression,
    Variant::LinkCompression,
    Variant::AdaptivePrefetch,
    Variant::AdaptivePrefetchCompression,
];

const GOLDEN_PATH: &str = "tests/golden/grid_digest.txt";

fn digest_grid(base: &SystemConfig, variants: &[Variant], len: SimLength) -> (String, usize) {
    let specs = all_workloads();
    let opts = ResilienceOptions {
        supervisor: Supervisor::with_threads(1),
        ..ResilienceOptions::default()
    };
    let cells: Vec<_> = run_grid_resilient(&specs, base, variants, len, &opts)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("smoke grid simulates");
    // The digest itself lives in `report::grid_digest` so the store and
    // metrics gate (examples/metrics_gate.rs) folds the exact same fields.
    (report::grid_digest(&cells), cells.len())
}

/// Compares (or records, under `CMPSIM_WRITE_GOLDEN=1`) one digest
/// against its golden file. Returns whether the gate passed.
fn gate(label: &str, digest: &str, path: &str, record: bool) -> bool {
    if record {
        std::fs::write(path, format!("{digest}\n")).expect("write golden");
        println!("{label}: recorded golden digest to {path}");
        return true;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let golden = golden.trim();
    if digest != golden {
        eprintln!(
            "{label} digest MISMATCH: got {digest}, golden {golden}\n\
             the engine's simulated behavior diverged from the recorded model \
             (run with CMPSIM_WRITE_GOLDEN=1 only for an intentional model change)"
        );
        return false;
    }
    println!("{label}: digest matches golden ({path})");
    true
}

fn main() {
    let base = SystemConfig::paper_default(4).with_seed(11);
    let len = SimLength { warmup: 5_000, measure: 20_000 };
    let record = knobs().write_golden;
    if record {
        std::fs::create_dir_all("tests/golden").expect("create tests/golden");
    }

    let t0 = Instant::now();
    let (fpc_digest, cells) = digest_grid(&base, &VARIANTS, len);
    println!(
        "grid digest: {fpc_digest}  ({cells} cells in {:.2}s)",
        t0.elapsed().as_secs_f64()
    );
    let mut ok = gate("fpc grid", &fpc_digest, GOLDEN_PATH, record);

    let small = SystemConfig { l1_bytes: 8 * 1024, l2_bytes: 64 * 1024, ..base.clone() };
    let (digest, cells) = digest_grid(&small, &VARIANTS, len);
    println!("small-cache grid digest: {digest}  ({cells} cells)");
    ok &= gate("small-cache grid", &digest, "tests/golden/grid_digest_small.txt", record);

    let (digest, cells) = digest_grid(&base, &OTHER_VARIANTS, len);
    println!("variants grid digest: {digest}  ({cells} cells)");
    ok &= gate("variants grid", &digest, "tests/golden/grid_digest_variants.txt", record);

    for (codec, path) in [
        (CodecKind::Bdi, "tests/golden/grid_digest_bdi.txt"),
        (CodecKind::Zca, "tests/golden/grid_digest_zca.txt"),
    ] {
        let cfg = base.clone().with_codec(codec);
        let (digest, cells) = digest_grid(&cfg, &CODEC_VARIANTS, len);
        println!("{codec} grid digest: {digest}  ({cells} cells)");
        ok &= gate(&format!("{codec} grid"), &digest, path, record);
    }

    if !ok {
        std::process::exit(1);
    }
}
