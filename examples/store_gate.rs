//! Result-store bit-inertness gate (`scripts/ci.sh`).
//!
//! Runs the same smoke grid as `examples/grid_digest.rs` twice through
//! the grid driver on 4 workers against one result store: cold (empty
//! store — every cell computed and published) and warm (fresh store
//! handle over the same directory — every cell served back). The gate
//! asserts the store is *bit-inert* and actually *working*:
//!
//! - the warm run computes **0 cells** (misses = 0, published = 0) and
//!   its hit rate is 100% (CI requires ≥ 95%),
//! - no record was skipped for a CRC/framing failure in either run,
//! - both runs produce the exact `grid_digest` golden recorded from the
//!   seed engine (`tests/golden/grid_digest.txt`) — the store changed
//!   *when* results were computed, never *what* they are.
//!
//! The store lives in a scratch directory, created empty and removed
//! at exit, so "cold" means cold and a user's store is never touched.
//!
//! Usage:
//!   cargo run --release --example store_gate

use cmpsim::core::store::ResultStore;
use cmpsim::{
    all_workloads, report, run_grid_resilient, GridCell, ResilienceOptions, SimLength,
    SystemConfig, Variant,
};
use cmpsim_harness::Supervisor;
use std::sync::Arc;
use std::time::Instant;

const VARIANTS: [Variant; 4] = [
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

const GOLDEN_PATH: &str = "tests/golden/grid_digest.txt";

fn main() {
    let base = SystemConfig::paper_default(4).with_seed(11);
    let len = SimLength { warmup: 5_000, measure: 20_000 };
    let specs = all_workloads();
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH}: {e}"));
    let golden = golden.trim();

    let dir = std::env::temp_dir().join(format!("cmpsim-store-gate-{}", std::process::id()));
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
    let cold_stats = cold_store.stats();
    let cold_digest = report::grid_digest(&cold);
    println!(
        "cold: {} cells computed in {:.2}s ({} hits, {} misses, {} published)",
        cold.len(),
        t0.elapsed().as_secs_f64(),
        cold_stats.hits,
        cold_stats.misses,
        cold_stats.published,
    );

    let t1 = Instant::now();
    let warm_store = ResultStore::open(&dir);
    let warm = sweep(&warm_store);
    let warm_stats = warm_store.stats();
    let warm_digest = report::grid_digest(&warm);
    println!(
        "warm: {} cells served in {:.2}s ({} hits, {} misses, hit rate {:.1}%)",
        warm.len(),
        t1.elapsed().as_secs_f64(),
        warm_stats.hits,
        warm_stats.misses,
        warm_stats.hit_rate_pct(),
    );

    let mut ok = true;
    let mut gate = |label: &str, pass: bool| {
        if pass {
            println!("store gate: {label}: ok");
        } else {
            eprintln!("store gate: {label}: FAILED");
            ok = false;
        }
    };
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
        "no store CRC/framing errors",
        cold_stats.corrupt_skipped == 0 && warm_stats.corrupt_skipped == 0,
    );
    gate("cold digest matches golden", cold_digest == golden);
    gate("warm digest bit-identical to golden", warm_digest == golden);
    let _ = std::fs::remove_dir_all(&dir);
    if !ok {
        eprintln!("cold digest {cold_digest}, warm digest {warm_digest}, golden {golden}");
        std::process::exit(1);
    }
}
