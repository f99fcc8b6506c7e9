//! Ablation: the grid driver on one worker vs several, over the paper's
//! 8×4 experiment grid (8 workloads × {base, compression, prefetching,
//! both}).
//!
//! Asserts bit-identical results at every thread count, then times both
//! paths and writes wall-clock speedups to
//! `target/bench/abl_parallel_grid.json`. Speedup saturates at the
//! machine's core count (`hardware_threads` metric); on a single-core
//! box every configuration measures ~1×.

use cmpsim_bench::SEED;
use cmpsim_core::experiment::{run_grid_resilient, GridCell, ResilienceOptions, SimLength};
use cmpsim_core::{SystemConfig, Variant};
use cmpsim_harness::bench::Runner;
use cmpsim_harness::supervise::default_threads;
use cmpsim_harness::{knobs, Supervisor};
use cmpsim_trace::all_workloads;

fn main() {
    let base = SystemConfig::paper_default(8).with_seed(SEED);
    // Short per-cell runs by default so the sweep finishes in seconds;
    // override for a realistic-length measurement.
    let len = SimLength {
        warmup: knobs().warmup.unwrap_or(20_000),
        measure: knobs().measure.unwrap_or(80_000),
    };
    let specs = all_workloads();
    let variants = [
        Variant::Base,
        Variant::BothCompression,
        Variant::Prefetch,
        Variant::PrefetchCompression,
    ];

    // The grid on `threads` workers, failing fast.
    let grid = |threads| -> Vec<GridCell> {
        let opts = ResilienceOptions {
            supervisor: Supervisor::with_threads(threads),
            ..ResilienceOptions::default()
        };
        run_grid_resilient(&specs, &base, &variants, len, &opts)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap()
    };

    let mut r = Runner::new("abl_parallel_grid", 1, 3);

    let reference = grid(1);
    assert_eq!(reference.len(), specs.len() * variants.len());

    let serial_ns = r.bench("grid/serial", || grid(1)).median_ns;

    for threads in [1usize, 2, 8] {
        let cells = grid(threads);
        assert_eq!(reference, cells, "parallel grid diverged at {threads} threads");
        let par_ns = r.bench(&format!("grid/parallel_{threads}t"), || grid(threads)).median_ns;
        r.metric(&format!("grid_speedup_{threads}t"), serial_ns as f64 / par_ns as f64);
    }

    r.metric("hardware_threads", default_threads() as f64);
    r.metric("grid_cells", (specs.len() * variants.len()) as f64);
    println!("parallel grid bit-identical to serial at 1, 2 and 8 threads");
    r.write_json().expect("write bench artifact");
}
