//! Synthetic workload generators standing in for the paper's benchmarks.
//!
//! The paper evaluates four Wisconsin commercial workloads (oltp/DB2,
//! SPECjbb2000, Apache, Zeus) and four SPEComp2001 codes (art, apsi,
//! fma3d, mgrid) under Simics full-system simulation. Those applications
//! and their setups are unobtainable, so each benchmark is replaced by a
//! **parameterized synthetic generator** calibrated against everything the
//! paper publishes about it:
//!
//! - value compressibility → Table 3 compression ratios (§4.2),
//! - strided-stream share, stream length and footprint → Table 4 prefetch
//!   rate / coverage / accuracy,
//! - hot-working-set size just above/below the 4 MB L2 → Figure 3 miss
//!   reductions and Figure 5 speedups,
//! - instruction footprints → commercial L1I pressure (§4.3).
//!
//! Each core runs a [`CoreGenerator`] producing an infinite, deterministic
//! stream of [`TimedEvent`]s (instruction-fetch line crossings and data
//! accesses separated by instruction gaps). Line *contents* come from the
//! per-benchmark [`ValueProfile`], so FPC sees the same statistical mix of
//! zeros / small integers / pointers / floating-point bits the real
//! applications would produce.

mod data;
mod generator;
mod inst;
mod rng;
mod spec;
mod values;
mod workloads;

pub use data::DataStream;
pub use generator::{CoreGenerator, TimedEvent, TraceEvent};
pub use inst::InstStream;
pub use rng::{Geometric, Rng};
pub use spec::{Region, WorkloadClass, WorkloadSpec};
pub use values::{LineClass, ValueProfile};
pub use workloads::{all_workloads, commercial_workloads, scientific_workloads, workload};
