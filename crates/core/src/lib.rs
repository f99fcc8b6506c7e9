//! The CMP simulator: the paper's evaluation platform, rebuilt.
//!
//! `cmpsim-core` wires the substrates (FPC compression, the decoupled
//! variable-segment L2, MSI coherence, the off-chip link, the memory
//! controller, the stride prefetchers and the synthetic workloads) into a
//! discrete-event timing simulator of the paper's 8-core CMP (Table 1):
//!
//! - eight 4-wide cores with 128-entry ROB run-ahead, 16 outstanding
//!   misses each, private 64 KB 4-way L1I/L1D (3-cycle),
//! - a shared 4 MB 8-banked L2 (15-cycle hit, +5 decompression),
//!   inclusive, MSI with sharer bits in the L2 tags,
//! - a 20 GB/s off-chip link (8-byte flits, optional link compression)
//!   to 400-cycle DRAM,
//! - per-core L1I/L1D/L2 stride prefetchers with the paper's adaptive
//!   throttle (§3).
//!
//! Entry points: build a [`SystemConfig`], pick a workload from
//! `cmpsim_trace`, and call [`System::run`]; or use the [`experiment`]
//! grid driver, which runs the paper's configuration grid (base /
//! compression / prefetching / both) over any number of workloads, and
//! the helpers that compute speedups and interaction terms (EQ 5).
//!
//! # Examples
//!
//! ```no_run
//! use cmpsim_core::{SystemConfig, System};
//! use cmpsim_trace::workload;
//!
//! let cfg = SystemConfig::paper_default(8);
//! let spec = workload("zeus").expect("known workload");
//! let mut sys = System::new(cfg, &spec);
//! let result = sys.run(200_000, 1_000_000).expect("simulation failed");
//! println!("IPC {:.2}", result.ipc());
//! ```
//!
//! Runs are supervised: [`System::run`] returns `Err(`[`SimError`]`)` if
//! the forward-progress watchdog detects a livelock or (with the
//! `CMPSIM_CHECK` knob) a sampled structural invariant fails. The one
//! grid driver ([`experiment::run_cells_resilient`], or its shorthand
//! [`experiment::run_grid_resilient`]) degrades that, a panic, or a
//! blown cell deadline to a per-cell [`CellError`] while the rest of the
//! sweep completes; callers that want fail-fast collect the
//! cells into a `Result`. Its [`experiment::ResilienceOptions`] choose
//! the worker count (one worker is the serial sweep), a checkpoint
//! journal, and a result store.
//! Every environment setting it honours is a `CMPSIM_*` knob read
//! through [`cmpsim_harness::knobs()`]; README's "Knobs" table lists them.

mod config;
mod core_model;
pub mod error;
pub mod experiment;
pub mod flatjson;
pub mod journal;
pub mod metrics;
pub mod report;
pub mod seallog;
mod stats;
pub mod store;
mod system;
pub mod telemetry;

pub use cmpsim_fpc::CodecKind;
pub use cmpsim_harness::chaos::{FaultPlan, FaultSite};
pub use config::{PrefetchMode, SystemConfig, Variant};
pub use error::{CellError, SimError};
pub use stats::{FaultStats, LevelStats, RunResult, SimStats, TelemetrySample};
pub use store::{CellKey, Lease, ResultStore, StoreStats};
pub use system::System;
pub use telemetry::{TraceKind, TraceOptions};
