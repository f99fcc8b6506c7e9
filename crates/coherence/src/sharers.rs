//! Compact per-L2-tag sharer bit vector.

use crate::CoreId;

/// The set of L1 caches holding a copy of a line, one bit per core.
///
/// The paper's L2 "has full knowledge of on-chip L1 sharers via individual
/// bits in its cache tag"; this is that bit vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SharerSet(u32);

impl SharerSet {
    /// An empty sharer set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A set containing exactly one core.
    pub fn singleton(core: CoreId) -> Self {
        let mut s = Self::new();
        s.insert(core);
        s
    }

    /// Adds `core` to the set. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `core.index() >= CoreId::MAX_CORES`.
    pub fn insert(&mut self, core: CoreId) {
        assert!(core.index() < CoreId::MAX_CORES, "core id {core} out of range");
        self.0 |= 1 << core.index();
    }

    /// Removes `core` from the set. Idempotent.
    pub fn remove(&mut self, core: CoreId) {
        self.0 &= !(1u32 << (core.index() % CoreId::MAX_CORES));
    }

    /// Whether `core` is in the set.
    pub fn contains(&self, core: CoreId) -> bool {
        core.index() < CoreId::MAX_CORES && self.0 & (1 << core.index()) != 0
    }

    /// Number of sharers.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no L1 holds the line.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Removes every core from the set.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// Iterates over the member cores in ascending id order.
    pub fn iter(&self) -> SharerIter {
        SharerIter(self.0)
    }

    /// All sharers except `core`.
    pub fn without(&self, core: CoreId) -> SharerSet {
        let mut s = *self;
        if core.index() < CoreId::MAX_CORES {
            s.remove(core);
        }
        s
    }
}

/// The cores of a [`SharerSet`] in ascending id order, one set bit at a
/// time.
#[derive(Debug, Clone, Copy)]
pub struct SharerIter(u32);

impl Iterator for SharerIter {
    type Item = CoreId;

    #[inline]
    fn next(&mut self) -> Option<CoreId> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(CoreId(i as u8))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SharerIter {}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut s = Self::new();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

impl Extend<CoreId> for SharerSet {
    fn extend<I: IntoIterator<Item = CoreId>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl std::fmt::Display for SharerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", c.0)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = SharerSet::new();
        assert!(s.is_empty());
        s.insert(CoreId(3));
        s.insert(CoreId(3));
        s.insert(CoreId(0));
        assert_eq!(s.len(), 2);
        assert!(s.contains(CoreId(3)));
        assert!(!s.contains(CoreId(1)));
        s.remove(CoreId(3));
        assert!(!s.contains(CoreId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_is_sorted() {
        let s: SharerSet = [CoreId(7), CoreId(1), CoreId(4)].into_iter().collect();
        let got: Vec<u8> = s.iter().map(|c| c.0).collect();
        assert_eq!(got, vec![1, 4, 7]);
    }

    #[test]
    fn iter_covers_all_thirty_two_cores() {
        let s: SharerSet = (0..32).map(CoreId).collect();
        assert_eq!(s.iter().len(), 32);
        assert_eq!(s.iter().map(|c| c.0).collect::<Vec<_>>(), (0..32).collect::<Vec<_>>());
        assert_eq!(s.without(CoreId(31)).iter().last(), Some(CoreId(30)));
        assert_eq!(s.without(CoreId(40)), s, "an out-of-range core is no member");
    }

    #[test]
    fn others_excludes_self() {
        let s: SharerSet = [CoreId(0), CoreId(1), CoreId(2)].into_iter().collect();
        let got: Vec<u8> = s.without(CoreId(1)).iter().map(|c| c.0).collect();
        assert_eq!(got, vec![0, 2]);
    }

    #[test]
    fn sixteen_cores_fit() {
        let mut s = SharerSet::new();
        for i in 0..16 {
            s.insert(CoreId(i));
        }
        assert_eq!(s.len(), 16);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        SharerSet::new().insert(CoreId(32));
    }

    #[test]
    fn display() {
        let s: SharerSet = [CoreId(2), CoreId(5)].into_iter().collect();
        assert_eq!(s.to_string(), "{2,5}");
    }
}
