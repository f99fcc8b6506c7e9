//! The directory state embedded in each L2 tag, and the MSI transition
//! table the L2 controller runs against it.

use crate::sharers::SharerIter;
use crate::{CoreId, SharerSet};

/// A coherence request arriving at the shared L2 from a private L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L1Request {
    /// Read miss: requestor wants a `Shared` copy.
    GetS,
    /// Write miss: requestor wants a `Modified` copy (data + exclusivity).
    GetX,
    /// Write hit on a `Shared` copy: requestor wants exclusivity only.
    Upgrade,
    /// Clean eviction notification: requestor drops its `Shared` copy.
    PutS,
    /// Dirty writeback: requestor evicts its `Modified` copy, sending data.
    PutM,
}

/// An action the L2 controller must perform against an L1 to satisfy a
/// request, produced by [`DirEntry::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirAction {
    /// Invalidate a `Shared` copy in the given L1 (no data returned).
    Invalidate(CoreId),
    /// Retrieve dirty data from the given L1's `Modified` copy and
    /// downgrade it to `Shared` (triggered by another core's `GetS`).
    RecallDowngrade(CoreId),
    /// Retrieve dirty data from the given L1's `Modified` copy and
    /// invalidate it (triggered by another core's `GetX`/`Upgrade`, or by
    /// an L2 eviction of an inclusively-held line).
    RecallInvalidate(CoreId),
}

impl DirAction {
    /// The core this action probes.
    pub fn target(&self) -> CoreId {
        match *self {
            DirAction::Invalidate(c)
            | DirAction::RecallDowngrade(c)
            | DirAction::RecallInvalidate(c) => c,
        }
    }

    /// Whether the probed L1 must return dirty data.
    pub fn returns_data(&self) -> bool {
        !matches!(self, DirAction::Invalidate(_))
    }
}

/// The kind every probe of one [`DirActions`] set shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
enum ProbeKind {
    #[default]
    Invalidate,
    RecallDowngrade,
    RecallInvalidate,
}

impl ProbeKind {
    fn action(self, core: CoreId) -> DirAction {
        match self {
            ProbeKind::Invalidate => DirAction::Invalidate(core),
            ProbeKind::RecallDowngrade => DirAction::RecallDowngrade(core),
            ProbeKind::RecallInvalidate => DirAction::RecallInvalidate(core),
        }
    }
}

/// The probes one directory transition issues, yielded in ascending core
/// order. Every MSI transition probes with a single kind of
/// [`DirAction`] (invalidate the other sharers, or recall the one
/// owner), so a kind and a [`SharerSet`] hold any result by value.
///
/// # Examples
///
/// ```
/// use cmpsim_coherence::{CoreId, DirAction, DirEntry, L1Request};
///
/// let mut dir = DirEntry::new();
/// dir.handle(CoreId(3), L1Request::GetS);
/// dir.handle(CoreId(1), L1Request::GetS);
/// let probes = dir.handle(CoreId(2), L1Request::GetX);
/// assert_eq!(probes.len(), 2);
/// let order: Vec<DirAction> = probes.into_iter().collect();
/// assert_eq!(order, [DirAction::Invalidate(CoreId(1)), DirAction::Invalidate(CoreId(3))]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DirActions {
    kind: ProbeKind,
    targets: SharerSet,
}

impl DirActions {
    fn new(kind: ProbeKind, targets: SharerSet) -> Self {
        DirActions { kind, targets }
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the transition needs no probe.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The probes in ascending core order.
    pub fn iter(&self) -> DirActionIter {
        DirActionIter { kind: self.kind, cores: self.targets.iter() }
    }
}

impl IntoIterator for DirActions {
    type Item = DirAction;
    type IntoIter = DirActionIter;

    fn into_iter(self) -> DirActionIter {
        self.iter()
    }
}

/// Iterator over a [`DirActions`] set, in ascending core order.
#[derive(Debug, Clone, Copy)]
pub struct DirActionIter {
    kind: ProbeKind,
    cores: SharerIter,
}

impl Iterator for DirActionIter {
    type Item = DirAction;

    #[inline]
    fn next(&mut self) -> Option<DirAction> {
        self.cores.next().map(|c| self.kind.action(c))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.cores.size_hint()
    }
}

impl ExactSizeIterator for DirActionIter {}

/// Directory view of one L2 line: which L1s share it, whether one of them
/// owns it exclusively, and whether the L2's copy is dirty w.r.t. memory.
///
/// Invariants (checked in debug builds and by property tests):
/// - an `owner` is always the *only* sharer (MSI exclusivity),
/// - `handle` returns the probe actions in deterministic (ascending core)
///   order so simulation stays reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirEntry {
    sharers: SharerSet,
    owner: Option<CoreId>,
    dirty: bool,
}

impl DirEntry {
    /// A line with no L1 copies and a clean L2 copy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current set of L1 sharers.
    pub fn sharers(&self) -> SharerSet {
        self.sharers
    }

    /// The L1 holding the line in `Modified`, if any.
    pub fn owner(&self) -> Option<CoreId> {
        self.owner
    }

    /// Whether the L2 copy is dirty with respect to memory.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Whether any L1 holds a copy (relevant for inclusive-eviction cost).
    pub fn has_l1_copies(&self) -> bool {
        !self.sharers.is_empty()
    }

    /// Checks the MSI structural invariants of this entry: an owner must
    /// be a sharer, and a `Modified` copy must be exclusive.
    ///
    /// Always available (unlike the `debug_assert`-based internal check),
    /// so the simulator's opt-in invariant checker (`CMPSIM_CHECK=1`) can
    /// promote violations to typed errors in release builds.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn check(&self) -> Result<(), String> {
        if let Some(o) = self.owner {
            if !self.sharers.contains(o) {
                return Err(format!(
                    "owner core {} is not in the sharer set {:?}",
                    o.index(),
                    self.sharers
                ));
            }
            if self.sharers.len() != 1 {
                return Err(format!(
                    "Modified copy at core {} must be exclusive, but {} sharers exist",
                    o.index(),
                    self.sharers.len()
                ));
            }
        }
        Ok(())
    }

    fn debug_check(&self) {
        debug_assert_eq!(self.check(), Ok(()));
    }

    /// Applies `req` from `core` and returns the probes the L2 must issue,
    /// in ascending core order.
    ///
    /// The directory is updated to the post-transition state; the caller is
    /// responsible for charging probe latency and data transfer.
    pub fn handle(&mut self, core: CoreId, req: L1Request) -> DirActions {
        let mut actions = DirActions::default();
        match req {
            L1Request::GetS => {
                if let Some(o) = self.owner {
                    if o != core {
                        actions =
                            DirActions::new(ProbeKind::RecallDowngrade, SharerSet::singleton(o));
                        self.dirty = true;
                    }
                    self.owner = None;
                }
                self.sharers.insert(core);
            }
            L1Request::GetX | L1Request::Upgrade => {
                if let Some(o) = self.owner {
                    if o != core {
                        actions =
                            DirActions::new(ProbeKind::RecallInvalidate, SharerSet::singleton(o));
                        self.dirty = true;
                    }
                } else {
                    actions = DirActions::new(ProbeKind::Invalidate, self.sharers.without(core));
                }
                self.sharers = SharerSet::singleton(core);
                self.owner = Some(core);
            }
            L1Request::PutS => {
                self.sharers.remove(core);
                if self.owner == Some(core) {
                    // A silent M->S downgrade never happens in this
                    // protocol; treat defensively as ownership loss.
                    self.owner = None;
                }
            }
            L1Request::PutM => {
                if self.owner == Some(core) {
                    self.owner = None;
                    self.dirty = true;
                }
                // A PutM from a non-owner is a stale writeback that raced
                // with an ownership transfer: the data is outdated, so
                // only the sharer bit is dropped.
                self.sharers.remove(core);
            }
        }
        self.debug_check();
        actions
    }

    /// Evicts the line from the L2: every L1 copy must be invalidated to
    /// maintain inclusion. Returns the probes in ascending core order and
    /// resets the entry.
    pub fn recall_all(&mut self) -> DirActions {
        let actions = if let Some(o) = self.owner {
            self.dirty = true;
            DirActions::new(ProbeKind::RecallInvalidate, SharerSet::singleton(o))
        } else {
            DirActions::new(ProbeKind::Invalidate, self.sharers)
        };
        self.sharers.clear();
        self.owner = None;
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_accumulate_sharers() {
        let mut d = DirEntry::new();
        assert!(d.handle(CoreId(0), L1Request::GetS).is_empty());
        assert!(d.handle(CoreId(1), L1Request::GetS).is_empty());
        assert_eq!(d.sharers().len(), 2);
        assert_eq!(d.owner(), None);
        assert!(!d.is_dirty());
    }

    #[test]
    fn write_invalidates_readers() {
        let mut d = DirEntry::new();
        d.handle(CoreId(0), L1Request::GetS);
        d.handle(CoreId(2), L1Request::GetS);
        let acts = d.handle(CoreId(1), L1Request::GetX);
        assert_eq!(
            acts.iter().collect::<Vec<_>>(),
            vec![DirAction::Invalidate(CoreId(0)), DirAction::Invalidate(CoreId(2))]
        );
        assert_eq!(d.owner(), Some(CoreId(1)));
        assert_eq!(d.sharers().len(), 1);
    }

    #[test]
    fn read_after_write_recalls_and_downgrades() {
        let mut d = DirEntry::new();
        d.handle(CoreId(1), L1Request::GetX);
        let acts = d.handle(CoreId(0), L1Request::GetS);
        assert_eq!(acts.iter().collect::<Vec<_>>(), vec![DirAction::RecallDowngrade(CoreId(1))]);
        assert_eq!(d.owner(), None);
        assert!(d.sharers().contains(CoreId(0)));
        assert!(d.sharers().contains(CoreId(1)), "old owner keeps an S copy");
        assert!(d.is_dirty(), "recalled dirty data lands in L2");
    }

    #[test]
    fn write_after_write_migrates_ownership() {
        let mut d = DirEntry::new();
        d.handle(CoreId(1), L1Request::GetX);
        let acts = d.handle(CoreId(3), L1Request::GetX);
        assert_eq!(acts.iter().collect::<Vec<_>>(), vec![DirAction::RecallInvalidate(CoreId(1))]);
        assert_eq!(d.owner(), Some(CoreId(3)));
        assert_eq!(d.sharers().len(), 1);
        assert!(d.is_dirty());
    }

    #[test]
    fn upgrade_from_shared() {
        let mut d = DirEntry::new();
        d.handle(CoreId(0), L1Request::GetS);
        d.handle(CoreId(1), L1Request::GetS);
        let acts = d.handle(CoreId(0), L1Request::Upgrade);
        assert_eq!(acts.iter().collect::<Vec<_>>(), vec![DirAction::Invalidate(CoreId(1))]);
        assert_eq!(d.owner(), Some(CoreId(0)));
    }

    #[test]
    fn rewrite_by_owner_is_free() {
        let mut d = DirEntry::new();
        d.handle(CoreId(2), L1Request::GetX);
        assert!(d.handle(CoreId(2), L1Request::GetX).is_empty());
        assert_eq!(d.owner(), Some(CoreId(2)));
    }

    #[test]
    fn putm_clears_ownership_and_dirties_l2() {
        let mut d = DirEntry::new();
        d.handle(CoreId(2), L1Request::GetX);
        assert!(d.handle(CoreId(2), L1Request::PutM).is_empty());
        assert_eq!(d.owner(), None);
        assert!(!d.has_l1_copies());
        assert!(d.is_dirty());
    }

    #[test]
    fn puts_drops_sharer() {
        let mut d = DirEntry::new();
        d.handle(CoreId(0), L1Request::GetS);
        d.handle(CoreId(1), L1Request::GetS);
        d.handle(CoreId(0), L1Request::PutS);
        assert!(!d.sharers().contains(CoreId(0)));
        assert!(d.sharers().contains(CoreId(1)));
    }

    #[test]
    fn recall_all_for_inclusion() {
        let mut d = DirEntry::new();
        d.handle(CoreId(0), L1Request::GetS);
        d.handle(CoreId(1), L1Request::GetS);
        let acts = d.recall_all();
        assert_eq!(
            acts.iter().collect::<Vec<_>>(),
            vec![DirAction::Invalidate(CoreId(0)), DirAction::Invalidate(CoreId(1))]
        );
        assert!(!d.has_l1_copies());

        let mut d = DirEntry::new();
        d.handle(CoreId(5), L1Request::GetX);
        let acts = d.recall_all();
        assert_eq!(acts.iter().collect::<Vec<_>>(), vec![DirAction::RecallInvalidate(CoreId(5))]);
        assert!(d.is_dirty());
    }

    #[test]
    fn check_holds_through_transitions() {
        let mut d = DirEntry::new();
        assert_eq!(d.check(), Ok(()));
        d.handle(CoreId(0), L1Request::GetS);
        d.handle(CoreId(1), L1Request::GetS);
        assert_eq!(d.check(), Ok(()));
        d.handle(CoreId(2), L1Request::GetX);
        assert_eq!(d.check(), Ok(()));
        d.handle(CoreId(2), L1Request::PutM);
        assert_eq!(d.check(), Ok(()));
        d.recall_all();
        assert_eq!(d.check(), Ok(()));
    }

    #[test]
    fn action_metadata() {
        assert_eq!(DirAction::Invalidate(CoreId(4)).target(), CoreId(4));
        assert!(!DirAction::Invalidate(CoreId(4)).returns_data());
        assert!(DirAction::RecallDowngrade(CoreId(4)).returns_data());
        assert!(DirAction::RecallInvalidate(CoreId(4)).returns_data());
    }
}
