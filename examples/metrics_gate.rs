//! Result-store and service-metrics gate (`scripts/ci.sh`).
//!
//! Runs the smoke grid of `examples/grid_digest.rs` cold then warm
//! through the grid driver on 4 workers against one result store
//! (metrics are always armed), and asserts the contract from four sides:
//!
//! - **bit-inertness** — both runs produce the exact `grid_digest`
//!   golden (`tests/golden/grid_digest.txt`): the store changes *when*
//!   results are computed, never *what* they are, and recording counters
//!   and latency histograms changes nothing the simulator computes;
//! - **the store works** — the cold run computes and publishes every
//!   cell, the warm run computes 0 cells (nothing missed, nothing
//!   published) at a hit rate of 100% (the gate requires ≥ 95%), no
//!   record is skipped for a CRC/framing failure in either run, and the
//!   store directory holds only `<fp:016x>.jsonl` data logs and
//!   `lru.jsonl` (no sidecar);
//! - **accounting** — the registry agrees with the store's own
//!   `StoreStats` (hits/misses/published), the compute-latency
//!   histogram counted exactly the computed cells, the warm run is all
//!   cache (`grid_cells_cached == cells`, `grid_cells_computed == 0`)
//!   and the queue-depth gauge drains back to 0;
//! - **export** — the flat-JSON snapshot parses under the repo's own
//!   flat-JSON framing with every required key, and the Prometheus text
//!   export carries counter and `_bucket{le=...}` lines.
//!
//! The store lives in a scratch directory, created empty and removed
//! at exit, so "cold" means cold and a user's store is never touched.
//!
//! Usage:
//!   cargo run --release --example metrics_gate

use cmpsim::core::flatjson::parse_flat;
use cmpsim::core::store::ResultStore;
use cmpsim::{
    all_workloads, report, run_grid_resilient, GridCell, ResilienceOptions, SimLength,
    SystemConfig, Variant,
};
use cmpsim_harness::{metrics, Supervisor};
use std::sync::Arc;
use std::time::Instant;

const VARIANTS: [Variant; 4] = [
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

const GOLDEN_PATH: &str = "tests/golden/grid_digest.txt";

/// Every key the `{"metrics":1}` snapshot line must carry for the
/// serve-daemon contract: store, driver and histogram coverage.
const REQUIRED_KEYS: [&str; 12] = [
    "store_hits",
    "store_misses",
    "store_published",
    "store_corrupt_skipped",
    "store_evicted_files",
    "store_resident_bytes",
    "grid_cells_computed",
    "grid_cells_cached",
    "grid_queue_depth",
    "grid_cell_compute_nanos_count",
    "grid_cell_compute_nanos_p95",
    "store_lease_wait_nanos_count",
];

fn main() {
    let base = SystemConfig::paper_default(4).with_seed(11);
    let len = SimLength { warmup: 5_000, measure: 20_000 };
    let specs = all_workloads();
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH}: {e}"));
    let golden = golden.trim();

    let dir = std::env::temp_dir().join(format!("cmpsim-metrics-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = |store: &Arc<ResultStore>| -> Vec<GridCell> {
        let opts = ResilienceOptions {
            supervisor: Supervisor::with_threads(4),
            journal: None,
            store: Some(Arc::clone(store)),
        };
        run_grid_resilient(&specs, &base, &VARIANTS, len, &opts)
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("smoke grid resolves")
    };

    let t0 = Instant::now();
    let cold_store = ResultStore::open(&dir);
    let cold = sweep(&cold_store);
    let cold_digest = report::grid_digest(&cold);
    let cold_stats = cold_store.stats();
    let cold_snap = metrics::global().snapshot();
    let cold_secs = t0.elapsed().as_secs_f64();
    println!(
        "cold: {} cells in {cold_secs:.2}s ({} hits, {} misses, {} published), \
         compute histogram count {}",
        cold.len(),
        cold_stats.hits,
        cold_stats.misses,
        cold_stats.published,
        cold_snap.histogram("grid_cell_compute_nanos").map_or(0, |h| h.count),
    );

    // Fresh counters for the warm phase so its accounting gates read the
    // warm run alone (registered handles stay live across the reset).
    metrics::global().reset();
    let t1 = Instant::now();
    let warm_store = ResultStore::open(&dir);
    let warm = sweep(&warm_store);
    let warm_digest = report::grid_digest(&warm);
    let warm_stats = warm_store.stats();
    warm_store.resident_bytes();
    let warm_snap = metrics::global().snapshot();
    let warm_secs = t1.elapsed().as_secs_f64();
    println!(
        "warm: {} cells in {warm_secs:.2}s ({} hits, {} misses, hit rate {:.1}%)",
        warm.len(),
        warm_stats.hits,
        warm_stats.misses,
        warm_stats.hit_rate_pct(),
    );

    let flat = warm_snap.to_flat_json();
    let prom = warm_snap.to_prometheus();

    let mut ok = true;
    let mut gate = |label: &str, pass: bool| {
        if pass {
            println!("metrics gate: {label}: ok");
        } else {
            eprintln!("metrics gate: {label}: FAILED");
            ok = false;
        }
    };

    gate("armed cold digest matches golden", cold_digest == golden);
    gate("armed warm digest matches golden", warm_digest == golden);
    gate(
        "cold run computed every cell",
        cold_stats.published == cold.len() as u64 && cold_stats.hits == 0,
    );
    gate(
        "warm run computed 0 cells",
        warm_stats.misses == 0 && warm_stats.published == 0,
    );
    gate(
        "warm hit rate >= 95%",
        warm_stats.hits == warm.len() as u64 && warm_stats.hit_rate_pct() >= 95.0,
    );
    gate(
        "cold histogram counted every computed cell",
        cold_snap.histogram("grid_cell_compute_nanos").map_or(0, |h| h.count)
            == cold_stats.published,
    );
    gate(
        "registry agrees with StoreStats (warm)",
        warm_snap.counter("store_hits") == Some(warm_stats.hits)
            && warm_snap.counter("store_misses") == Some(warm_stats.misses)
            && warm_snap.counter("store_published") == Some(warm_stats.published),
    );
    gate(
        "warm run is all cache",
        warm_snap.counter("grid_cells_cached") == Some(warm.len() as u64)
            && warm_snap.counter("grid_cells_computed") == Some(0)
            && warm_stats.misses == 0,
    );
    gate(
        "no corrupt records in either phase",
        cold_stats.corrupt_skipped == 0 && warm_stats.corrupt_skipped == 0,
    );
    gate("queue depth drained to 0", warm_snap.gauge("grid_queue_depth") == Some(0));
    let names: Vec<String> = std::fs::read_dir(&dir)
        .map(|entries| entries.flatten().map(|e| e.file_name().to_string_lossy().into()).collect())
        .unwrap_or_default();
    let data_log = |name: &str| {
        name.strip_suffix(".jsonl")
            .is_some_and(|fp| fp.len() == 16 && fp.bytes().all(|b| b.is_ascii_hexdigit()))
    };
    gate(
        "store holds only data logs and lru.jsonl",
        names.iter().any(|n| data_log(n))
            && names.iter().all(|n| data_log(n) || n == "lru.jsonl"),
    );
    gate(
        "flat-JSON snapshot parses under the repo framing",
        parse_flat(&flat).is_some(),
    );
    gate(
        "flat-JSON snapshot carries every required key",
        REQUIRED_KEYS.iter().all(|k| flat.contains(&format!("\"{k}\":"))),
    );
    gate(
        "prometheus export has counter and bucket lines",
        prom.contains("cmpsim_store_hits ")
            && prom.contains("cmpsim_grid_cell_compute_nanos_bucket{le=")
            && prom.contains("# TYPE"),
    );

    let _ = std::fs::remove_dir_all(&dir);
    if !ok {
        eprintln!(
            "cold digest {cold_digest}, warm digest {warm_digest}, golden {golden}\n\
             store files: {names:?}\nsnapshot: {flat}"
        );
        std::process::exit(1);
    }
}
