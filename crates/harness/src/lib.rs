//! Hermetic test harness and shared plumbing for the cmpsim workspace.
//!
//! The container this project builds in has **no crates.io access**, so the
//! usual ecosystem crates (`proptest`, `rayon`) are off the table. This
//! crate replaces exactly the slices of them the simulator needs, with
//! zero dependencies beyond `std`. Host speed is measured by `perfbench/`,
//! the repository's one benchmark, not here.
//!
//! - [`prop`] + [`gen`] — a deterministic property-testing mini-framework:
//!   seeded generators built on the same xorshift64* pattern as
//!   `cmpsim_trace::Rng`, greedy shrinking on failure, and replayable
//!   case counts and seeds.
//! - [`codec_conformance`] — the cross-codec law kit built on [`prop`]:
//!   round-trip exactness, fast/full sizing agreement, zero-fill
//!   monotonicity and never-expands, checked against any codec described
//!   by plain function pointers.
//! - [`supervise`] — the one job executor: idle workers claim the next
//!   unstarted job, so a vector of independent closures spreads across
//!   cores with outcomes returned in submission order. Each job's
//!   panics are captured and retried with backoff, and an optional
//!   watchdog deadline abandons a hung job, so one bad job in a long
//!   sweep degrades one result instead of the run.
//! - [`knobs`](mod@knobs) — the one knob surface: every `CMPSIM_*`
//!   environment variable, declared once, parsed once into a typed
//!   [`Knobs`], with a malformed value rejected by name (exit status 2)
//!   instead of falling back to a default. README's knob table and
//!   `serve --help` list them all.
//! - [`fastmap`] — deterministic, SipHash-free hashing for the engine's
//!   hot paths: [`fastmap::fx_hash64`] and an open-addressing
//!   [`fastmap::AddrMap`] for MSHR-style exact maps.
//! - [`telemetry`] — observability plumbing: a fixed-capacity flight
//!   recorder of packed sim events, buffered JSONL series artifacts
//!   under `target/telemetry/`, and a stderr heartbeat for live grid
//!   progress. Pure measurement: none of it feeds back into simulation
//!   results.
//! - [`metrics`] — service-layer metrics: atomic counters/gauges,
//!   log-bucketed latency histograms with mergeable snapshots and
//!   deterministic quantiles, a named registry, and flat-JSON /
//!   Prometheus export. Always armed and observe-only, like
//!   [`telemetry`].
//! - [`chaos`] — deterministic fault-injection planning:
//!   a seeded [`chaos::FaultPlan`] whose per-site decisions are stateless
//!   hashes of `(seed, site, cycle, key)`, so armed runs stay
//!   bit-reproducible across thread counts.
//!
//! Everything here is deterministic for a fixed seed: property tests
//! replay exactly, and the executor never changes *what* is computed,
//! only *when*, so the grid driver built on it
//! (`cmpsim_core::experiment::run_cells_resilient`) returns
//! bit-identical results at any thread count.

pub mod chaos;
pub mod codec_conformance;
pub mod fastmap;
pub mod gen;
pub mod knobs;
pub mod metrics;
pub mod prop;
mod rng;
pub mod supervise;
pub mod telemetry;

pub use chaos::{FaultPlan, FaultSite};
pub use gen::Gen;
pub use knobs::{knobs, Knobs};
pub use rng::Rng;
pub use supervise::{run_supervised, JobOutcome, Supervisor};
