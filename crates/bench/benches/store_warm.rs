//! Result-store speedup benchmark: the same smoke grid cold (empty
//! store, every cell simulated) and warm (fully populated store, every
//! cell read back), with the wall-clock ratio and hit rate recorded to
//! `target/bench/store_warm.json`.
//!
//! This is the ROADMAP's "95% of cells were already computed" scenario
//! measured end to end: the warm number is the cost of a sweep whose
//! work already exists, and the speedup column is what the store buys a
//! re-run. Knobs: `CMPSIM_WARMUP`/`CMPSIM_MEASURE` set the grid size.
//! The store is a fresh scratch directory, so "cold" is honest.

use cmpsim_bench::SEED;
use cmpsim_core::experiment::{run_grid_resilient, GridCell, ResilienceOptions, SimLength};
use cmpsim_core::report::grid_digest;
use cmpsim_core::store::ResultStore;
use cmpsim_core::{SystemConfig, Variant};
use cmpsim_harness::bench::Runner;
use cmpsim_harness::knobs;
use cmpsim_trace::all_workloads;
use std::sync::Arc;
use std::time::Instant;

const VARIANTS: [Variant; 4] =
    [Variant::Base, Variant::BothCompression, Variant::Prefetch, Variant::PrefetchCompression];

fn main() {
    let len = SimLength {
        warmup: knobs().warmup.unwrap_or(5_000),
        measure: knobs().measure.unwrap_or(20_000),
    };
    let specs = all_workloads();
    let base = SystemConfig::paper_default(4).with_seed(SEED);
    let sweep = |store: &Arc<ResultStore>| -> Vec<GridCell> {
        let opts = ResilienceOptions::default().with_store(Arc::clone(store));
        run_grid_resilient(&specs, &base, &VARIANTS, len, &opts)
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("grid simulates")
    };

    let dir = std::env::temp_dir().join(format!("cmpsim-store-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut r = Runner::new("store_warm", 0, 1);

    let t0 = Instant::now();
    let cold_store = ResultStore::open(&dir);
    let cold = sweep(&cold_store);
    let cold_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let warm_store = ResultStore::open(&dir);
    let warm = sweep(&warm_store);
    let warm_secs = t1.elapsed().as_secs_f64();

    let warm_stats = warm_store.stats();
    assert_eq!(
        grid_digest(&cold),
        grid_digest(&warm),
        "store must be bit-inert (cold and warm digests diverged)"
    );

    r.metric("cells", cold.len() as f64);
    r.metric("cold_secs", cold_secs);
    r.metric("warm_secs", warm_secs);
    r.metric("speedup", if warm_secs > 0.0 { cold_secs / warm_secs } else { f64::MAX });
    r.metric("warm_hit_rate_pct", warm_stats.hit_rate_pct());
    r.metric("warm_computed_cells", warm_stats.published as f64);

    println!(
        "store warm-rerun: {} cells, cold {:.2}s -> warm {:.3}s ({:.0}x), \
         warm hit rate {:.1}%, {} cells recomputed",
        cold.len(),
        cold_secs,
        warm_secs,
        if warm_secs > 0.0 { cold_secs / warm_secs } else { f64::INFINITY },
        warm_stats.hit_rate_pct(),
        warm_stats.published,
    );
    let path = r.write_json().expect("write bench artifact");
    println!("store-warm artifact: {}", path.display());

    let _ = std::fs::remove_dir_all(&dir);
}
