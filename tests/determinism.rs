//! Determinism guarantees for the experiment grid: the same seed must
//! produce byte-identical results run-to-run, and the grid driver must
//! return the same grid at any thread count, with or without a watchdog
//! deadline (the contract documented on `run_cells_resilient`).

use cmpsim::{
    all_workloads, run_grid_resilient, GridCell, ResilienceOptions, SimLength, SystemConfig,
    Variant,
};
use cmpsim_harness::Supervisor;
use cmpsim_trace::WorkloadSpec;
use std::time::Duration;

/// The paper's 8×4 sweep: every workload under the four headline
/// configurations.
const VARIANTS: [Variant; 4] = [
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

fn short() -> SimLength {
    SimLength { warmup: 5_000, measure: 20_000 }
}

/// The grid driver under `supervisor`, failing fast.
fn grid(specs: &[WorkloadSpec], base: &SystemConfig, supervisor: Supervisor) -> Vec<GridCell> {
    let opts = ResilienceOptions { supervisor, ..ResilienceOptions::default() };
    run_grid_resilient(specs, base, &VARIANTS, short(), &opts)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap()
}

/// The serial reference: the driver on one worker.
fn serial(specs: &[WorkloadSpec], base: &SystemConfig) -> Vec<GridCell> {
    grid(specs, base, Supervisor::with_threads(1))
}

#[test]
fn serial_grid_is_repeatable() {
    let specs = all_workloads();
    let base = SystemConfig::paper_default(4).with_seed(11);
    let a = serial(&specs, &base);
    let b = serial(&specs, &base);
    assert_eq!(a.len(), specs.len() * VARIANTS.len());
    // RunResult derives PartialEq over every counter and every f64, so
    // this is exact equality, not tolerance-based comparison.
    assert_eq!(a, b, "two serial runs with the same seed diverged");
}

#[test]
fn parallel_grid_matches_serial_at_every_thread_count() {
    let specs = all_workloads();
    let base = SystemConfig::paper_default(4).with_seed(11);
    let serial = serial(&specs, &base);
    for threads in [1usize, 2, 8] {
        let par = grid(&specs, &base, Supervisor::with_threads(threads));
        assert_eq!(serial, par, "parallel grid diverged at {threads} threads");
    }
    // An armed deadline moves every cell onto its own detached thread;
    // the grid must not change.
    let watched = Supervisor {
        deadline: Some(Duration::from_secs(3600)),
        ..Supervisor::with_threads(2)
    };
    assert_eq!(serial, grid(&specs, &base, watched), "grid diverged under an armed deadline");
}

#[test]
fn grid_cells_are_ordered_row_major() {
    let specs = all_workloads();
    let base = SystemConfig::paper_default(4).with_seed(11);
    let cells = grid(&specs, &base, Supervisor::with_threads(8));
    for (i, cell) in cells.iter().enumerate() {
        assert_eq!(cell.workload, specs[i / VARIANTS.len()].name);
        assert_eq!(cell.variant, VARIANTS[i % VARIANTS.len()]);
        assert_eq!(cell.seed, base.seed);
    }
}

#[test]
fn different_seeds_produce_different_grids() {
    let specs = vec![cmpsim::workload("zeus").unwrap()];
    let a = serial(&specs, &SystemConfig::paper_default(4).with_seed(11));
    let b = serial(&specs, &SystemConfig::paper_default(4).with_seed(23));
    assert_ne!(a, b, "seed is not reaching the simulation");
}
