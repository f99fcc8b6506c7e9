//! # cmpsim — compression × prefetching in chip multiprocessors
//!
//! A from-scratch Rust reproduction of **Alameldeen & Wood, "Interactions
//! Between Compression and Prefetching in Chip Multiprocessors" (HPCA
//! 2007)**: a discrete-event CMP cache-hierarchy simulator with
//!
//! - Frequent Pattern Compression ([`fpc`]),
//! - a decoupled variable-segment compressed L2 ([`cache`]),
//! - MSI coherence with in-tag sharer bits ([`coherence`]),
//! - a flit-based, bandwidth-metered off-chip link with link compression
//!   ([`link`]),
//! - a form-preserving memory controller ([`mem`]),
//! - Power4-style stride prefetchers and the paper's adaptive throttle
//!   ([`prefetch`]),
//! - synthetic workload generators calibrated to the paper's eight
//!   benchmarks ([`trace`]), and
//! - the assembled timing simulator with experiment drivers ([`core`]).
//!
//! The most common entry points are re-exported at the crate root.
//!
//! # Quick start
//!
//! ```no_run
//! use cmpsim::{workload, System, SystemConfig, Variant};
//!
//! let spec = workload("zeus").expect("one of the paper's 8 benchmarks");
//! let base = SystemConfig::paper_default(8);
//!
//! // Base system vs. compression + prefetching combined.
//! let mut sys = System::new(Variant::Base.apply(base.clone()), &spec);
//! let before = sys.run(400_000, 1_200_000).expect("simulation failed");
//! let mut sys = System::new(Variant::PrefetchCompression.apply(base), &spec);
//! let after = sys.run(400_000, 1_200_000).expect("simulation failed");
//! println!("speedup: {:.2}x", before.runtime() as f64 / after.runtime() as f64);
//! ```

pub use cmpsim_cache as cache;
pub use cmpsim_coherence as coherence;
pub use cmpsim_core as core;
pub use cmpsim_fpc as fpc;
pub use cmpsim_link as link;
pub use cmpsim_mem as mem;
pub use cmpsim_prefetch as prefetch;
pub use cmpsim_trace as trace;

pub use cmpsim_core::{
    experiment::{
        across_seeds, run_grid_resilient, run_variant, GridCell, ResilienceOptions, SimLength,
        VariantGrid,
    },
    metrics, report, telemetry, CellError, CellKey, CodecKind, FaultPlan, FaultSite, FaultStats,
    Lease, PrefetchMode, ResultStore, RunResult, SimError, SimStats, StoreStats, System,
    SystemConfig, TelemetrySample, TraceKind, TraceOptions, Variant,
};
pub use cmpsim_link::LinkBandwidth;
pub use cmpsim_trace::{all_workloads, commercial_workloads, scientific_workloads, workload};
