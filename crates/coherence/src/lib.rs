//! MSI coherence substrate for the CMP's inclusive shared L2.
//!
//! The paper's base design (§2) keeps the private L1 caches coherent with
//! an MSI protocol; the shared L2 is inclusive and tracks on-chip L1
//! sharers "via individual bits in its cache tag". This crate provides that
//! machinery as pure data structures and transition functions:
//!
//! - [`MsiState`]: the per-L1-line coherence state,
//! - [`SharerSet`]: the per-L2-tag bit vector of L1 sharers,
//! - [`DirEntry`]: the directory view embedded in each L2 tag
//!   (sharers + exclusive owner + dirty bit), and
//! - [`DirEntry::handle`]: the protocol transition table mapping an L1
//!   request to the [`DirActions`] the L2 controller must perform.
//!
//! Timing (probe latencies, message occupancy) is applied by the simulator
//! in `cmpsim-core`; everything here is purely functional and exhaustively
//! unit- and property-tested.
//!
//! # Examples
//!
//! ```
//! use cmpsim_coherence::{CoreId, DirEntry, L1Request, DirAction};
//!
//! let mut dir = DirEntry::default();
//! // Core 0 reads: it simply becomes a sharer.
//! let actions = dir.handle(CoreId(0), L1Request::GetS);
//! assert!(actions.is_empty());
//! // Core 1 writes: core 0's copy must be invalidated.
//! let actions = dir.handle(CoreId(1), L1Request::GetX);
//! assert_eq!(actions.iter().collect::<Vec<_>>(), vec![DirAction::Invalidate(CoreId(0))]);
//! assert_eq!(dir.owner(), Some(CoreId(1)));
//! ```

mod delivery;
mod directory;
mod sharers;
mod state;

pub use delivery::deliver_with_retries;
pub use directory::{DirAction, DirActionIter, DirActions, DirEntry, L1Request};
pub use sharers::{SharerIter, SharerSet};
pub use state::MsiState;

/// Identifies one processor core (and its private L1 caches).
///
/// The paper's systems range from 1 to 16 cores; [`SharerSet`] supports up
/// to 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u8);

impl CoreId {
    /// Maximum number of cores the sharer bit vector supports.
    pub const MAX_CORES: usize = 32;

    /// The core's index as a `usize`, for table indexing.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}
