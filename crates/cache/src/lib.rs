//! Cache structures for the CMP simulator.
//!
//! Two cache organizations from the paper (§2) live here:
//!
//! - [`SetAssocCache`]: a classic set-associative, LRU, write-back cache
//!   used for the private L1I/L1D caches and for the *uncompressed*
//!   baseline L2 (8-way, 4 MB).
//! - [`VscCache`]: the **decoupled variable-segment cache** used whenever
//!   cache compression (or the adaptive prefetcher, which borrows its extra
//!   tags) is enabled. Each set holds twice as many address tags as it can
//!   hold uncompressed lines; data is allocated in 8-byte segments, so
//!   compressed lines (1–7 segments) pack more densely, raising effective
//!   associativity from 4 toward 8.
//!
//! Tags evicted from the data area linger as **dataless victim tags**: they
//! keep their address and feed both the adaptive-compression cost/benefit
//! policy ([`CompressionPolicy`]) and the paper's adaptive prefetcher
//! (harmful-prefetch detection, §3).
//!
//! These structures are purely structural — hit/miss outcomes, victims and
//! LRU-stack depths. All timing is applied by the controllers in
//! `cmpsim-core`.

mod adaptive;
mod block;
mod meta;
mod rank;
mod set_assoc;
mod stats;
mod vsc;

pub use adaptive::{CompressionDecision, CompressionPolicy};
pub use block::{AccessKind, BlockAddr};
pub use set_assoc::{EvictedLine, SetAssocCache, SetAssocConfig};
pub use stats::CacheStats;
pub use vsc::{VscCache, VscConfig, VscEvicted, VscLookup};
